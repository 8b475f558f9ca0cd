import numpy as np
import pytest

import rpmnet.model as mdl
from rpmnet.config import TrainConfig
from rpmnet.synthetic import gaussian_clusters
from rpmnet.train import (
    AdamState,
    TrainingDivergedError,
    adam_step,
    format_history,
    train,
)


def tiny_config(**kw):
    defaults = dict(hidden_dims=(8, 6), embed_dim=4, dropout_rate=0.0, epochs=3, batch_size=16, seed=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


def blob_data(seed=5, n=100):
    rng = np.random.default_rng(seed)
    return gaussian_clusters([[1.0, 1.0], [-1.0, -1.0]], [n, n], 0.1, rng, class_names=["pos", "neg"])


# ---------------------------------------------------------------------------
# config


@pytest.mark.parametrize(
    "raw, message",
    [
        ([1], "config must be a JSON object, not list"),
        ({"epochs": "8"}, "config key 'epochs' must be an integer, got '8'"),
        ({"epochs": 1.5}, "config key 'epochs' must be an integer, got 1.5"),
        ({"seed": True}, "config key 'seed' must be an integer, got True"),
        ({"lr": "0.01"}, "config key 'lr' must be a number, got '0.01'"),
        ({"fisher_weight": False}, "config key 'fisher_weight' must be a number, got False"),
        ({"dropout_rate": None}, "config key 'dropout_rate' must be a number, got None"),
        ({"hidden_dims": [32]}, "config key 'hidden_dims' must be a list of two integers, got [32]"),
        ({"hidden_dims": [32, 16.0]}, "config key 'hidden_dims' must be a list of two integers"),
        ({"hidden_dims": [32, True]}, "config key 'hidden_dims' must be a list of two integers"),
        ({"hidden_dims": "32,16"}, "config key 'hidden_dims' must be a list of two integers"),
        ({"hidden_dims": [0, 5]}, "hidden_dims sizes must be >= 1"),
        ({"hidden_dims": [-1, 5]}, "hidden_dims sizes must be >= 1"),
    ],
)
def test_config_from_dict_rejects_wrong_value_types(raw, message):
    with pytest.raises(ValueError) as info:
        TrainConfig.from_dict(raw)
    assert message in str(info.value)


@pytest.mark.parametrize(
    "raw, key, stored",
    [
        ({"fisher_weight": 0}, "fisher_weight", 0),
        ({"lr": 1}, "lr", 1),
        ({"lr": 0.01}, "lr", 0.01),
        ({"epochs": 8}, "epochs", 8),
        ({"hidden_dims": [32, 16]}, "hidden_dims", [32, 16]),
    ],
)
def test_config_from_dict_stores_values_as_given(raw, key, stored):
    """Ints in float fields are kept, not coerced, so a bundle's config
    section has the same bytes as before."""
    value = TrainConfig.from_dict(raw).to_dict()[key]
    assert value == stored and type(value) is type(stored)


# ---------------------------------------------------------------------------
# adam


def test_adam_zero_gradient_leaves_params_unchanged():
    values = {"w": np.array([1.0, -2.0])}
    state = AdamState.for_values(values)
    out, state = adam_step(values, {"w": np.zeros(2)}, state, lr=0.1)
    assert np.array_equal(out["w"], values["w"])
    assert state.step == 1


def test_adam_first_step_magnitude_is_lr():
    # with constant gradient g the first update is lr * g / (|g| + eps)
    g = 0.5
    values = {"w": np.array([3.0])}
    out, _ = adam_step(values, {"w": np.array([g])}, AdamState.for_values(values), lr=1e-3)
    delta = values["w"] - out["w"]
    assert delta[0] == pytest.approx(1e-3 * g / (g + 1e-8), rel=1e-9)
    assert abs(delta[0]) == pytest.approx(1e-3, rel=1e-6)


def test_adam_identical_histories_identical_updates(rng):
    g = rng.normal(size=(3,))
    values = {"a": np.ones(3), "b": np.ones(3)}
    state = AdamState.for_values(values)
    for _ in range(5):
        values, state = adam_step(values, {"a": g, "b": g}, state, lr=0.01)
    assert np.array_equal(values["a"], values["b"])


def test_adam_shape_mismatch():
    values = {"w": np.ones((2, 2))}
    with pytest.raises(Exception, match="shape"):
        adam_step(values, {"w": np.ones(3)}, AdamState.for_values(values), lr=0.1)


# ---------------------------------------------------------------------------
# training loop


def test_zero_epochs_returns_initialization_exactly():
    data = blob_data()
    cfg = tiny_config(epochs=0)
    params, history = train(data.features, data.labels, cfg)
    assert history == []
    reference = mdl.init_params(2, ("neg", "pos"), cfg, np.random.default_rng(cfg.seed))
    for name, arr in params.trainable().items():
        assert np.array_equal(arr, reference.trainable()[name]), name


def test_training_is_bit_deterministic():
    data = blob_data()
    cfg = tiny_config(epochs=4, seed=42, dropout_rate=0.2)
    p1, h1 = train(data.features, data.labels, cfg)
    p2, h2 = train(data.features, data.labels, cfg)
    assert h1 == h2
    for name, arr in p1.trainable().items():
        assert np.array_equal(arr, p2.trainable()[name]), name


def test_blob_fixture_reaches_perfect_accuracy():
    data = blob_data()
    params, history = train(data.features, data.labels, TrainConfig(epochs=200, seed=42))
    assert history[-1].accuracy == 1.0
    # monotone trend: mean total over last tenth <= first tenth
    totals = [h.total for h in history]
    assert np.mean(totals[-20:]) <= np.mean(totals[:20])
    assert (params.margins > 0).all()


def test_margins_stay_positive_throughout():
    data = blob_data(n=40)
    cfg = tiny_config(epochs=5, lr=0.05)
    params, _ = train(data.features, data.labels, cfg)
    assert (params.margins > 0).all()


def test_vocabulary_order_fixes_logit_columns():
    data = blob_data(n=30)
    cfg = tiny_config(epochs=1)
    params, _ = train(data.features, data.labels, cfg, class_names=("pos", "neg"))
    assert params.class_names == ("pos", "neg")


def test_empty_class_warns_but_is_retained():
    data = blob_data(n=30)
    cfg = tiny_config(epochs=1)
    with pytest.warns(UserWarning, match="ghost"):
        params, _ = train(data.features, data.labels, cfg, class_names=("ghost", "neg", "pos"))
    assert params.num_classes == 3


def test_unknown_label_rejected():
    data = blob_data(n=20)
    with pytest.raises(ValueError, match="vocabulary"):
        train(data.features, data.labels, tiny_config(epochs=1), class_names=("neg",))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_aborts_with_location():
    data = blob_data(n=40)
    cfg = tiny_config(epochs=2, lr=1e100)
    with pytest.raises(TrainingDivergedError, match=r"epoch \d+, batch \d+"):
        train(data.features, data.labels, cfg)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_masked_by_relu_still_aborts():
    """A layer-1 pre-activation of -inf aborts training, although ReLU
    would turn it into a finite 0."""
    cfg = tiny_config(hidden_dims=(1, 4), epochs=1, batch_size=64)
    w = mdl.init_params(16, ("neg", "pos"), cfg, np.random.default_rng(cfg.seed)).weights[0][:, 0]
    assert np.abs(w).sum() > 1.0  # so the row below overflows
    x = np.random.default_rng(1).normal(size=(20, 16))
    x[3] = -np.sign(w) * np.finfo(np.float64).max  # every product is negative
    labels = ["pos", "neg"] * 10
    with pytest.raises(TrainingDivergedError, match=r"epoch 0, batch 0: layer 1"):
        train(x, labels, cfg)


def test_empty_dataset_rejected():
    with pytest.raises(ValueError, match="non-empty"):
        train(np.zeros((0, 3)), [], tiny_config())
    with pytest.raises(ValueError, match=r"non-empty 2-D matrix, got shape \(4, 0\)"):
        train(np.zeros((4, 0)), ["a", "a", "b", "b"], tiny_config())


# ---------------------------------------------------------------------------
# history log


def test_history_log_format():
    data = blob_data(n=30)
    _, history = train(data.features, data.labels, tiny_config(epochs=3))
    text = format_history(history)
    lines = text.strip().split("\n")
    assert lines[0] == "epoch\tce\tmargin\tfisher\ttotal\tacc"
    assert len(lines) == 4
    assert lines[1].startswith("0\t")
