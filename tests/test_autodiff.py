import numpy as np
import pytest

import rpmnet.autodiff as ad
from conftest import finite_difference, max_rel_err


def test_forward_sum():
    assert ad.reduce_sum(ad.constant([1.0, 2.0, 3.0])).item() == 6.0


def test_forward_relu_negative():
    assert ad.relu(ad.constant(-2.0)).item() == 0.0


def test_forward_matmul_identity():
    out = ad.matmul(ad.constant(np.eye(2)), ad.constant([[3.0], [4.0]]))
    assert np.array_equal(out.value, [[3.0], [4.0]])


def test_gradient_square():
    x = ad.parameter(np.array(3.0))
    g = ad.gradient(ad.square(x), [x])
    assert g[x] == 6.0


def test_gradient_sum_is_ones():
    x = ad.parameter(np.arange(12.0).reshape(3, 4))
    g = ad.gradient(ad.reduce_sum(x), [x])
    assert np.array_equal(g[x], np.ones((3, 4)))


@pytest.mark.parametrize("v,expected", [(-1.0, 0.0), (1.0, 1.0)])
def test_gradient_relu(v, expected):
    x = ad.parameter(np.array(v))
    g = ad.gradient(ad.relu(x), [x])
    assert g[x] == expected


def test_relu_subgradient_zero_at_kink():
    x = ad.parameter(np.array(0.0))
    assert ad.gradient(ad.relu(x), [x])[x] == 0.0


def test_matmul_shape_error_names_op():
    with pytest.raises(ad.ShapeError, match="matmul"):
        ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))


def test_add_broadcast_error_names_op():
    with pytest.raises(ad.ShapeError, match="add"):
        ad.add(ad.constant(np.ones((2, 3))), ad.constant(np.ones((4,))))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_forward_raises():
    with pytest.raises(ad.NonFiniteError, match="div"):
        ad.div(ad.constant(1.0), ad.constant(0.0))
    with pytest.raises(ad.NonFiniteError, match="sqrt"):
        ad.sqrt(ad.constant(-1.0))


def test_nonscalar_backward_is_contract_error():
    x = ad.parameter(np.ones(3))
    with pytest.raises(ad.GradientContractError):
        ad.backward(ad.mul(x, 2.0))


def test_softmax_cross_entropy_label_range():
    with pytest.raises(ValueError, match="labels"):
        ad.softmax_cross_entropy(ad.constant(np.zeros((2, 3))), [0, 3])


def test_disconnected_parameter_gets_zero_gradient():
    x = ad.parameter(np.ones((2, 2)))
    other = ad.parameter(np.array(5.0))
    g = ad.gradient(ad.reduce_sum(ad.square(other)), [x, other])
    assert np.array_equal(g[x], np.zeros((2, 2)))
    assert g[other] == 10.0


def test_forward_purity_bit_identical(rng):
    x = rng.uniform(-2, 2, size=(5, 4))
    w = rng.uniform(-2, 2, size=(4, 3))

    def build():
        xt, wt = ad.constant(x), ad.constant(w)
        return ad.reduce_sum(ad.relu(ad.matmul(xt, wt))).value.tobytes()

    assert build() == build()


def test_gradient_linearity(rng):
    x0 = rng.uniform(-2, 2, size=(4, 3))

    def grad_of(build):
        x = ad.parameter(x0)
        return ad.gradient(build(x), [x])[x]

    f = lambda x: ad.reduce_sum(ad.square(x))
    g = lambda x: ad.reduce_sum(ad.relu(x))
    combined = grad_of(lambda x: ad.add(f(x), g(x)))
    assert np.allclose(combined, grad_of(f) + grad_of(g), rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# finite-difference checks of every supported op
#
# Random inputs in [-2, 2] (domain-restricted for sqrt/div), resampled
# away from ReLU/clamp kinks; analytic vs central
# differences with relative error < 1e-6.

KINK_GAP = 1e-4


def _away_from(x, bad, gap=KINK_GAP):
    return np.where(np.abs(x - bad) < gap, x + 2 * gap, x)


def _op_cases(rng):
    a = rng.uniform(-2, 2, size=(4, 3))
    b = rng.uniform(-2, 2, size=(4, 3))
    bias = rng.uniform(-2, 2, size=(3,))
    denom = np.sign(rng.uniform(-1, 1, size=(4, 3))) * rng.uniform(0.5, 2, size=(4, 3))
    pos = rng.uniform(0.25, 2, size=(4, 3))
    m1 = rng.uniform(-2, 2, size=(3, 5))
    m2 = rng.uniform(-2, 2, size=(5, 2))
    relu_in = _away_from(rng.uniform(-2, 2, size=(4, 3)), 0.0)
    clamp_in = _away_from(rng.uniform(-2, 2, size=(4, 3)), 0.5)
    logits = rng.uniform(-2, 2, size=(4, 3))
    labels = rng.integers(0, 3, size=4)

    return [
        ("add_broadcast", lambda t: ad.add(t[0], t[1]), [a, bias]),
        ("sub", lambda t: ad.sub(t[0], t[1]), [a, b]),
        ("mul", lambda t: ad.mul(t[0], t[1]), [a, b]),
        ("div", lambda t: ad.div(t[0], t[1]), [a, denom]),
        ("matmul", lambda t: ad.matmul(t[0], t[1]), [m1, m2]),
        ("transpose", lambda t: ad.transpose(t[0]), [a]),
        ("relu", lambda t: ad.relu(t[0]), [relu_in]),
        ("clamp_min", lambda t: ad.clamp_min(t[0], 0.5), [clamp_in]),
        ("square", lambda t: ad.square(t[0]), [a]),
        ("sqrt", lambda t: ad.sqrt(t[0]), [pos]),
        ("softplus", lambda t: ad.softplus(t[0]), [a]),
        ("sum_all", lambda t: ad.reduce_sum(t[0]), [a]),
        ("sum_axis", lambda t: ad.reduce_sum(t[0], axis=1, keepdims=True), [a]),
        ("mean_all", lambda t: ad.reduce_mean(t[0]), [a]),
        ("mean_axis", lambda t: ad.reduce_mean(t[0], axis=0), [a]),
        ("softmax_ce", lambda t: ad.softmax_cross_entropy(t[0], labels), [logits]),
        ("dropout_mask", lambda t: ad.mul(t[0], (np.arange(12.0).reshape(4, 3) % 2) * 2.0), [a]),
    ]


def _case_ids(rng=np.random.default_rng(0)):
    return [name for name, _, _ in _op_cases(rng)]


@pytest.mark.parametrize("case_index", range(len(_case_ids())), ids=_case_ids())
def test_op_gradients_match_finite_differences(case_index, rng):
    name, build, arrays = _op_cases(rng)[case_index]
    # reduce any output to a scalar through fixed random weights so the
    # whole Jacobian is exercised
    out_shape = build([ad.constant(a) for a in arrays]).value.shape
    weights = rng.uniform(0.5, 1.5, size=out_shape)

    def run():
        leaves = [ad.parameter(a) for a in arrays]
        root = ad.reduce_sum(ad.mul(build(leaves), ad.constant(weights)))
        return root, leaves

    root, leaves = run()
    analytic = ad.gradient(root, leaves)
    numeric = finite_difference(lambda: run()[0].item(), arrays)
    for leaf, num in zip(leaves, numeric):
        assert max_rel_err(analytic[leaf], num) < 1e-6, name
