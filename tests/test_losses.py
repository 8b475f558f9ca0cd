import dataclasses

import numpy as np
import pytest

import rpmnet.autodiff as ad
import rpmnet.losses as ls
import rpmnet.model as mdl
from conftest import finite_difference, max_rel_err
from rpmnet.config import TrainConfig


def params_with(points, margins):
    """Params whose extractor is irrelevant; margins set exactly."""
    points = np.asarray(points, dtype=np.float64)
    k, m = points.shape
    # softplus inverse: raw = log(exp(margin) - 1)
    raw = np.log(np.expm1(np.asarray(margins, dtype=np.float64)))[:, None]
    eye = np.eye(m)
    return mdl.ModelParams(
        tensors=dict(W1=eye.copy(), b1=np.zeros(m), W2=eye.copy(), b2=np.zeros(m), W3=eye.copy(), b3=np.zeros(m),
                     points=points, raw_margins=raw),
        logit_scale=1.0,
        class_names=tuple(f"c{i}" for i in range(k)),
    )


# ---------------------------------------------------------------------------
# cross-entropy


def test_ce_uniform_logits_is_log_k():
    assert ls.ce_loss(np.zeros((1, 4)), [0]) == pytest.approx(np.log(4.0), abs=1e-12)


def test_ce_confident_correct_is_near_zero():
    # -log softmax([10, -10])[0] = log(1 + e^-20)
    expected = np.log1p(np.exp(-20.0))
    assert ls.ce_loss(np.array([[10.0, -10.0]]), [0]) == pytest.approx(expected, rel=1e-9)


def test_ce_symmetric_swap_matches_single():
    single = ls.ce_loss(np.array([[1.3, -0.4]]), [0])
    swapped = ls.ce_loss(np.array([[1.3, -0.4], [-0.4, 1.3]]), [0, 1])
    assert swapped == single


def test_ce_label_out_of_range():
    with pytest.raises(ValueError):
        ls.ce_loss(np.zeros((1, 3)), [3])


# ---------------------------------------------------------------------------
# margin loss


def test_margin_all_satisfied_is_zero():
    p = params_with([[0.0, 0.0]], margins=[1.0])
    z = np.array([[0.5, 0.5], [-0.3, 0.1]])  # squared dist / 2 well below 1
    assert ls.margin_loss(z, [0, 0], p) == 0.0


def test_margin_single_violation():
    # embedding at offset (1, sqrt(2)) from the point: d_e = 3/2 = 1.5, R = 1
    p = params_with([[0.0, 0.0]], margins=[1.0])
    z = np.array([[1.0, np.sqrt(2.0)]])
    assert ls.margin_loss(z, [0], p) == pytest.approx(0.5, abs=1e-12)


def test_margin_mean_over_batch():
    # violations 0.5 and 0.0 average to 0.25
    p = params_with([[0.0, 0.0]], margins=[1.0])
    z = np.array([[1.0, np.sqrt(2.0)], [0.1, 0.2]])
    assert ls.margin_loss(z, [0, 0], p) == pytest.approx(0.25, abs=1e-12)


def test_margin_ignores_samples_strictly_inside():
    p = params_with([[0.0, 0.0], [5.0, 5.0]], margins=[1.0, 2.0])
    z = np.array([[1.0, np.sqrt(2.0)], [0.2, 0.3]])
    base = ls.margin_loss(z, [0, 0], p)
    z2 = z.copy()
    z2[1] = [0.25, 0.28]  # still inside its margin
    assert ls.margin_loss(z2, [0, 0], p) == base


# ---------------------------------------------------------------------------
# fisher loss


def test_fisher_equal_class_means_is_one():
    # both classes centered at (1, 1): S_b = 0 exactly
    z = np.array([[0.0, 0.0], [2.0, 2.0], [1.0, 1.0], [1.0, 1.0]])
    assert ls.fisher_loss(z, [0, 0, 1, 1]) == 1.0


def test_fisher_hand_example():
    # classes {0,2} and {4,6} in 1-D: S_w = 4, S_b = 16, ratio 4 -> 1/5
    z = np.array([[0.0], [2.0], [4.0], [6.0]])
    assert ls.fisher_loss(z, [0, 0, 1, 1]) == pytest.approx(0.2, abs=1e-12)


def test_fisher_collapsed_classes_guarded():
    # S_w = 0, S_b = 1: the epsilon guard yields eps / (eps + S_b)
    z = np.array([[0.0], [0.0], [1.0], [1.0]])
    expected = ls.FISHER_EPS / (ls.FISHER_EPS + 1.0)
    assert ls.fisher_loss(z, [0, 0, 1, 1]) == pytest.approx(expected, rel=1e-9)


def test_fisher_absent_class_contributes_nothing():
    z = np.array([[0.0], [2.0], [4.0], [6.0]])
    with_gap = ls.fisher_loss(z, [0, 0, 2, 2], num_classes=3)  # class 1 absent
    assert with_gap == pytest.approx(0.2, abs=1e-12)


def test_fisher_in_unit_interval(rng):
    for _ in range(200):
        n = int(rng.integers(1, 12))
        m = int(rng.integers(1, 5))
        k = int(rng.integers(1, 4))
        z = rng.normal(size=(n, m))
        y = rng.integers(0, k, size=n)
        v = ls.fisher_loss(z, y, num_classes=k)
        assert 0.0 < v <= 1.0


def test_fisher_decreasing_in_between_scatter():
    # same within-class spread, class means moved farther apart
    near = np.array([[0.0], [1.0], [2.0], [3.0]])
    far = np.array([[0.0], [1.0], [8.0], [9.0]])
    y = [0, 0, 1, 1]
    assert ls.fisher_loss(far, y) < ls.fisher_loss(near, y)


def test_fisher_translation_invariant(rng):
    z = rng.normal(size=(9, 4))
    y = rng.integers(0, 3, size=9)
    shifted = z + np.array([100.0, -3.0, 0.5, 7.0])
    a, b = ls.fisher_loss(z, y), ls.fisher_loss(shifted, y)
    assert a == pytest.approx(b, rel=1e-6)


# ---------------------------------------------------------------------------
# total loss


def small_config(**kw):
    defaults = dict(hidden_dims=(8, 6), embed_dim=4, dropout_rate=0.0, seed=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


def random_problem(rng, n=7, d=5, k=3, cfg=None):
    cfg = cfg or small_config()
    params = mdl.init_params(d, [f"c{i}" for i in range(k)], cfg, rng)
    x = rng.normal(size=(n, d))
    y = rng.integers(0, k, size=n)
    return params, x, y, cfg


def test_total_is_exact_weighted_sum(rng):
    for _ in range(20):
        cfg = small_config(
            ce_weight=float(rng.uniform(0, 2)),
            margin_weight=float(rng.uniform(0, 2)),
            fisher_weight=float(rng.uniform(0, 2)),
        )
        params, x, y, _ = random_problem(rng, cfg=cfg)
        bd, root, _ = ls.total_loss(params, x, y, cfg)
        expected = (cfg.ce_weight * bd.ce + cfg.margin_weight * bd.margin) + cfg.fisher_weight * bd.fisher
        assert bd.total == expected
        assert bd.total == root.item()


def test_all_zero_weights_gives_zero_loss_and_gradients(rng):
    cfg = small_config(ce_weight=0.0, margin_weight=0.0, fisher_weight=0.0)
    params, x, y, _ = random_problem(rng, cfg=cfg)
    bd, root, leaves = ls.total_loss(params, x, y, cfg)
    assert bd.total == 0.0
    grads = ad.gradient(root, leaves.values())
    for leaf in leaves.values():
        assert np.array_equal(grads[leaf], np.zeros_like(leaf.value))


def test_fisher_weight_zero_reduces_to_base_objective(rng):
    """With the fisher weight at 0, totals and gradients match the
    two-term objective exactly (the base, non-regularized model)."""
    cfg = small_config(fisher_weight=0.0)
    params, x, y, _ = random_problem(rng, cfg=cfg)
    bd, root, leaves = ls.total_loss(params, x, y, cfg)
    assert bd.total == bd.ce + bd.margin
    grads = ad.gradient(root, leaves.values())

    # independently composed two-term objective
    leaves2 = mdl.as_leaves(params)
    z = mdl.embed_graph(leaves2, ad.constant(x))
    logit_node = mdl.logits_graph(leaves2, z, params.embed_dim, params.logit_scale)
    root2 = ad.add(
        ad.mul(ls.ce_graph(logit_node, y), 1.0),
        ad.mul(ls.margin_graph(leaves2, z, y, params.embed_dim), 1.0),
    )
    grads2 = ad.gradient(root2, leaves2.values())
    for name in leaves:
        assert np.array_equal(grads[leaves[name]], grads2[leaves2[name]])


def test_total_gradient_matches_finite_differences(rng):
    params, x, y, cfg = random_problem(rng, n=6, d=4, k=3)
    tr = params.tensors
    names = list(tr)

    def value():
        bd, root, _ = ls.total_loss(params, x, y, cfg)
        return root.item()

    _, root, leaves = ls.total_loss(params, x, y, cfg)
    analytic = ad.gradient(root, leaves.values())
    numeric = finite_difference(value, [tr[n] for n in names])
    for name, num in zip(names, numeric):
        assert max_rel_err(analytic[leaves[name]], num) < 1e-6, name


def test_total_gradient_with_dropout_masks(rng):
    cfg = small_config(dropout_rate=0.5)
    params, x, y, _ = random_problem(rng, n=5, d=4, k=2, cfg=small_config())
    keep = 0.5
    masks = tuple((rng.random((5, h)) < keep) / keep for h in (8, 6))
    tr = params.tensors
    names = list(tr)

    def value():
        _, root, _ = ls.total_loss(params, x, y, cfg, dropout_masks=masks)
        return root.item()

    _, root, leaves = ls.total_loss(params, x, y, cfg, dropout_masks=masks)
    analytic = ad.gradient(root, leaves.values())
    numeric = finite_difference(value, [tr[n] for n in names])
    for name, num in zip(names, numeric):
        assert max_rel_err(analytic[leaves[name]], num) < 1e-6, name


# ---------------------------------------------------------------------------
# the fused training step against the tape, bit for bit


def tape_step(params, x, y, cfg, masks=None):
    bd, root, leaves = ls.total_loss(params, x, y, cfg, dropout_masks=masks)
    grads = ad.gradient(root, leaves.values())
    return bd, {name: grads[leaf] for name, leaf in leaves.items()}


def breakdown_bytes(bd):
    return np.array(dataclasses.astuple(bd), dtype=np.float64).tobytes()


FUSED_CASES = {
    "plain": {},
    "dropout": {"dropout": True},
    "fisher_weight_zero": {"cfg": {"fisher_weight": 0.0}},
    "logit_scale": {"cfg": {"logit_scale": 3.5}},
    "batch_of_one": {"n": 1},
    "classes_missing_from_batch": {"k": 5, "labels_below": 2},
    "single_class": {"k": 1},
}


@pytest.mark.parametrize("case", list(FUSED_CASES))
def test_fused_step_is_bit_identical_to_tape(case, rng):
    spec = FUSED_CASES[case]
    for _ in range(10):
        h1, h2, m, d = (int(v) for v in rng.integers(1, 12, size=4))
        n, k = spec.get("n", int(rng.integers(2, 40))), spec.get("k", 3)
        cfg = small_config(hidden_dims=(h1, h2), embed_dim=m, **spec.get("cfg", {}))
        params = mdl.init_params(d, [f"c{i}" for i in range(k)], cfg, rng)
        x = rng.normal(size=(n, d))
        y = rng.integers(0, spec.get("labels_below", k), size=n)
        masks = None
        if spec.get("dropout"):
            masks = tuple((rng.random((n, h)) < 0.6) / 0.6 for h in (h1, h2))

        bd, grads = ls.loss_and_grads(params, x, y, cfg, masks)
        ref_bd, ref = tape_step(params, x, y, cfg, masks)
        assert breakdown_bytes(bd) == breakdown_bytes(ref_bd)
        assert list(grads) == list(mdl.PARAM_NAMES)
        for name in mdl.PARAM_NAMES:
            assert grads[name].shape == ref[name].shape, name
            assert grads[name].tobytes() == ref[name].tobytes(), name


@pytest.mark.parametrize("case", list(FUSED_CASES))
def test_fused_step_writes_into_the_buffers_it_is_given(case, rng):
    """With ``out=`` views of one flat vector and ``work=`` buffers of more
    rows than the batch, both filled with NaN beforehand, the returned
    gradients are those views and hold the bytes of the call that
    allocates its own arrays."""
    spec = FUSED_CASES[case]
    for _ in range(10):
        h1, h2, m, d = (int(v) for v in rng.integers(1, 12, size=4))
        n, k = spec.get("n", int(rng.integers(2, 40))), spec.get("k", 3)
        cfg = small_config(hidden_dims=(h1, h2), embed_dim=m, **spec.get("cfg", {}))
        params = mdl.init_params(d, [f"c{i}" for i in range(k)], cfg, rng)
        x = rng.normal(size=(n, d))
        y = rng.integers(0, spec.get("labels_below", k), size=n)
        masks = None
        if spec.get("dropout"):
            masks = tuple((rng.random((n, h)) < 0.6) / 0.6 for h in (h1, h2))

        flat, views = mdl.flat_params(params)
        flat[:] = np.nan
        work = ls.step_buffers(n + 3, (h1, h2))
        for buf in work:
            buf[:] = np.nan
        bd, grads = ls.loss_and_grads(params, x, y, cfg, masks, out=views.tensors, work=work)
        ref_bd, ref = ls.loss_and_grads(params, x, y, cfg, masks)
        assert breakdown_bytes(bd) == breakdown_bytes(ref_bd)
        assert list(grads) == list(mdl.PARAM_NAMES)
        for name in mdl.PARAM_NAMES:
            assert grads[name] is views.tensors[name], name
            assert grads[name].tobytes() == ref[name].tobytes(), name
        assert flat.tobytes() == np.concatenate([ref[name].ravel() for name in mdl.PARAM_NAMES]).tobytes()


@pytest.mark.parametrize("flat", [True, False], ids=["views-of-one-vector", "separate-arrays"])
def test_gradient_check_names_the_first_non_finite_tensor(flat, rng):
    """With NaN planted in ``points`` and Inf in ``b2``, the check names
    ``b2``, the first of them in ``PARAM_NAMES`` order, whether the
    gradients are views of one flat vector (checked once) or not."""
    params, *_ = random_problem(rng, n=6, d=4, k=3)
    grads = mdl.flat_params(params)[1].tensors if flat else {k: a.copy() for k, a in params.tensors.items()}
    grads["points"][1, 0] = np.nan
    grads["b2"][-1] = np.inf
    with pytest.raises(ad.NonFiniteError, match=r"^gradient of b2: output contains NaN or Inf$"):
        ls._check_gradients(grads)
    grads["b2"][-1] = 0.0
    with pytest.raises(ad.NonFiniteError, match=r"^gradient of points: output contains NaN or Inf$"):
        ls._check_gradients(grads)
    grads["points"][1, 0] = 0.0
    assert ls._check_gradients(grads) is grads
