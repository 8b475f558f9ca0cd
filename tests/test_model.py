import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rpmnet.autodiff as ad
import rpmnet.losses as ls
import rpmnet.model as mdl
from rpmnet.config import TrainConfig


def small_config(**kw):
    defaults = dict(hidden_dims=(8, 6), embed_dim=4, dropout_rate=0.0, seed=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


def identity_params(d, class_names, points):
    """d-dim input, d-dim hiddens and embedding, identity weights."""
    eye = np.eye(d)
    return mdl.ModelParams(
        weights=(eye.copy(), eye.copy(), eye.copy()),
        biases=(np.zeros(d), np.zeros(d), np.zeros(d)),
        reciprocal_points=np.asarray(points, dtype=np.float64),
        raw_margins=np.full((len(points), 1), np.log(np.e - 1.0)),
        logit_scale=1.0,
        input_dim=d,
        embed_dim=d,
        class_names=tuple(class_names),
    )


# ---------------------------------------------------------------------------
# embeddings


def test_embed_all_zero_params_gives_zero():
    p = identity_params(3, ["a"], [[1.0, 0.0, 0.0]])
    zeroed = p.with_values({k: np.zeros_like(v) for k, v in p.trainable().items()})
    out = mdl.embed(zeroed, np.array([[1.0, -2.0, 3.0]]))
    assert np.array_equal(out, np.zeros((1, 3)))


def test_embed_identity_passes_nonnegative_input():
    p = identity_params(4, ["a"], [np.ones(4)])
    x = np.array([[0.5, 0.0, 2.0, 1.25], [3.0, 1.0, 0.0, 0.0]])
    assert np.array_equal(mdl.embed(p, x), x)


def test_embed_identical_rows_identical_embeddings(rng):
    cfg = small_config()
    p = mdl.init_params(5, ["a", "b"], cfg, rng)
    row = rng.normal(size=5)
    out = mdl.embed(p, np.stack([row, row]))
    assert np.array_equal(out[0], out[1])


def test_embed_batch_order_independent(rng):
    cfg = small_config()
    p = mdl.init_params(5, ["a", "b"], cfg, rng)
    x = rng.normal(size=(20, 5))
    perm = rng.permutation(20)
    assert np.array_equal(mdl.embed(p, x[perm]), mdl.embed(p, x)[perm])


def test_embed_width_mismatch_raises():
    p = identity_params(3, ["a"], [np.ones(3)])
    with pytest.raises(Exception, match="width"):
        mdl.embed(p, np.ones((2, 4)))


# ---------------------------------------------------------------------------
# hybrid distance


def test_distance_to_itself_is_minus_one():
    assert mdl.reciprocal_distance([1.0, 2.0, -0.5], [1.0, 2.0, -0.5]) == pytest.approx(-1.0, abs=1e-12)


def test_distance_orthogonal_unit_vectors():
    # squared distance 2 over m=2 gives 1, cosine 0
    assert mdl.reciprocal_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0, abs=1e-12)


def test_distance_antipodal_unit_vectors():
    # squared distance 4 over m=2 gives 2, cosine -1
    assert mdl.reciprocal_distance([1.0, 0.0], [-1.0, 0.0]) == pytest.approx(3.0, abs=1e-12)


def test_distance_zero_vector_guard():
    # cosine term collapses to ~0 under the norm floor instead of dividing by zero
    d = mdl.reciprocal_distance([0.0, 0.0], [1.0, 1.0])
    assert np.isfinite(d)
    assert d == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=2, max_size=6), st.data())
def test_distance_lower_bound(zs, data):
    ps = data.draw(st.lists(st.floats(-5, 5), min_size=len(zs), max_size=len(zs)))
    # -1 is the mathematical floor; allow float slack in the cosine term
    assert mdl.reciprocal_distance(zs, ps) >= -1.0 - 1e-9


def test_distance_strictly_above_floor_when_distinct(rng):
    for _ in range(50):
        z = rng.normal(size=6)
        p = z + rng.normal(scale=0.5, size=6) + 0.1
        assert mdl.reciprocal_distance(z, p) > -1.0


def test_batch_distances_match_pairwise_reference(rng):
    cfg = small_config()
    p = mdl.init_params(5, ["a", "b", "c"], cfg, rng)
    x = rng.normal(size=(10, 5))
    z = mdl.embed(p, x)
    got = mdl.class_distances(p, x)
    for i in range(10):
        for k in range(3):
            ref = mdl.reciprocal_distance(z[i], p.reciprocal_points[k])
            assert got[i, k] == pytest.approx(ref, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("n", [0, 1, 37])
def test_inference_is_bit_identical_to_tape(n, rng):
    cfg = small_config()
    p = mdl.init_params(5, ["a", "b", "c"], cfg, rng)
    b1 = -np.abs(rng.normal(size=8))
    b1[0] = -0.0
    p = p.with_values(dict(p.trainable(), b1=b1, b2=rng.normal(size=6), b3=rng.normal(size=4)))
    x = rng.normal(size=(n, 5))
    if n:
        x[0] = -0.0  # every layer-1 pre-activation of this row is <= 0

    leaves = mdl.as_leaves(p)
    z = mdl.embed_graph(leaves, ad.constant(x))
    dist = mdl.distance_graph(leaves, z, p.embed_dim)
    got_z, got_dist = mdl.embed(p, x), mdl.class_distances(p, x)
    assert got_z.shape == z.value.shape and got_z.tobytes() == z.value.tobytes()
    assert got_dist.shape == (n, 3) and got_dist.tobytes() == dist.value.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "row", [[-1e308, 1.0], [1e200, 1e200]], ids=["layer_1_minus_inf_masked_by_relu", "distance_overflow"]
)
def test_class_distances_overflow_raises(row):
    p = identity_params(2, ["a"], [[1.0, 1.0]])
    p = p.with_values(dict(p.trainable(), W1=2.0 * np.eye(2)))
    with pytest.raises(ad.NonFiniteError):
        mdl.class_distances(p, np.array([row]))


# ---------------------------------------------------------------------------
# logits


def test_logit_at_own_point_is_minus_scale():
    points = np.array([[1.0, 2.0], [-3.0, 0.5]])
    p = identity_params(2, ["a", "b"], points)
    out = mdl.logits(p, points[:1])  # embedding equals P^0 (inputs nonnegative... use abs)
    assert out[0, 0] == pytest.approx(-1.0, abs=1e-12)


def test_logit_scale_doubles_logits(rng):
    cfg = small_config()
    p1 = mdl.init_params(4, ["a", "b"], cfg, rng)
    import dataclasses

    p2 = dataclasses.replace(p1, logit_scale=2.0)
    x = rng.normal(size=(6, 4))
    assert np.array_equal(mdl.logits(p2, x), 2.0 * mdl.logits(p1, x))


def test_argmax_invariant_to_positive_scale(rng):
    cfg = small_config()
    p1 = mdl.init_params(4, ["a", "b", "c"], cfg, rng)
    import dataclasses

    x = rng.normal(size=(30, 4))
    base = np.argmax(mdl.logits(p1, x), axis=1)
    for scale in (0.5, 3.7):
        scaled = dataclasses.replace(p1, logit_scale=scale)
        assert np.array_equal(np.argmax(mdl.logits(scaled, x), axis=1), base)


def test_logits_permutation_equivariant(rng):
    cfg = small_config()
    p = mdl.init_params(4, ["a", "b", "c"], cfg, rng)
    import dataclasses

    perm = [2, 0, 1]
    permuted = dataclasses.replace(
        p,
        reciprocal_points=p.reciprocal_points[perm],
        raw_margins=p.raw_margins[perm],
        class_names=tuple(p.class_names[i] for i in perm),
    )
    x = rng.normal(size=(8, 4))
    assert np.array_equal(mdl.logits(permuted, x), mdl.logits(p, x)[:, perm])


# ---------------------------------------------------------------------------
# initialization


def test_init_margins_start_at_one(rng):
    p = mdl.init_params(6, ["a", "b"], small_config(), rng)
    assert p.margins == pytest.approx([1.0, 1.0], abs=1e-12)


def test_init_is_finite_and_shaped(rng):
    cfg = small_config(hidden_dims=(16, 8), embed_dim=5)
    p = mdl.init_params(7, ["x", "y", "z"], cfg, rng)
    assert p.reciprocal_points.shape == (3, 5)
    assert p.raw_margins.shape == (3, 1)
    assert [w.shape for w in p.weights] == [(7, 16), (16, 8), (8, 5)]
    for arr in p.trainable().values():
        assert np.all(np.isfinite(arr))


# ---------------------------------------------------------------------------
# tape lifetime


def _inference_pass(params, x, y, cfg):
    leaves = mdl.as_leaves(params)
    mdl.distance_graph(leaves, mdl.embed_graph(leaves, ad.constant(x)), params.embed_dim)


def _training_step(params, x, y, cfg):
    _, root, leaves = ls.total_loss(params, x, y, cfg)
    ad.gradient(root, leaves.values())


@pytest.mark.parametrize("run", [_inference_pass, _training_step])
def test_tape_is_freed_without_cycle_collector(run, rng):
    """No autodiff node sits in a reference cycle, so a whole tape is
    freed by reference counting as soon as its root is dropped."""
    cfg = small_config()
    params = mdl.init_params(5, ["a", "b", "c"], cfg, rng)
    x = rng.normal(size=(16, 5))
    y = rng.integers(0, 3, size=16)
    gc.collect()
    gc.disable()
    try:
        run(params, x, y, cfg)
        assert gc.collect() == 0
    finally:
        gc.enable()
