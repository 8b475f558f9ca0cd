import signal
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

import rpmnet.autodiff as ad
import rpmnet.losses as losses
import rpmnet.model as mdl
from rpmnet.config import TrainConfig
from rpmnet.dataio import encode_labels
from rpmnet.synthetic import gaussian_clusters
from rpmnet.train import (
    EpochStats,
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
        ({"lr": float("nan")}, "lr must be finite, got nan"),
        ({"logit_scale": float("inf")}, "logit_scale must be finite, got inf"),
        ({"ce_weight": float("nan")}, "ce_weight must be finite, got nan"),
        ({"fisher_weight": float("inf")}, "fisher_weight must be finite, got inf"),
        ({"adam_beta1": 1.0}, "adam_beta1 must lie in [0, 1), got 1.0"),
        ({"adam_beta2": 1.5}, "adam_beta2 must lie in [0, 1), got 1.5"),
        ({"adam_beta1": -0.5}, "adam_beta1 must lie in [0, 1), got -0.5"),
        ({"adam_eps": -1}, "adam_eps must be positive, got -1"),
        ({"adam_eps": 0.0}, "adam_eps must be positive, got 0.0"),
    ],
)
def test_config_from_dict_rejects_wrong_value_types(raw, message):
    with pytest.raises(ValueError) as info:
        TrainConfig.from_dict(raw)
    assert message in str(info.value)


@pytest.mark.parametrize(
    "raw, message",
    [
        ({"lr": 0}, "lr must be positive"),
        ({"lr": -1e-3}, "lr must be positive"),
        ({"epochs": -1}, "epochs must be >= 0"),
        ({"batch_size": 0}, "batch_size must be >= 1"),
        ({"embed_dim": 0}, "embed_dim must be >= 1"),
        ({"dropout_rate": 1.0}, "dropout_rate must lie in [0, 1)"),
        ({"dropout_rate": -0.1}, "dropout_rate must lie in [0, 1)"),
        ({"logit_scale": 0.0}, "logit_scale must be positive"),
        ({"hidden_dims": (8, 6, 4)}, "hidden_dims must name exactly two hidden layer sizes"),
        ({"margin_weight": -1.0}, "loss weights must be non-negative"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"lr": 10**400}, f"lr must be finite, got {10**400}"),  # too large for a float
    ],
)
def test_config_rejects_values_out_of_range(raw, message):
    with pytest.raises(ValueError) as info:
        TrainConfig(**raw)
    assert str(info.value) == message


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


def adam(theta, grad, lr, steps=1):
    """Run ``steps`` Adam steps with gradient ``grad`` on ``theta`` in
    place, from zero moments; returns the moments."""
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    for t in range(1, steps + 1):
        adam_step(theta, grad, m, v, t, TrainConfig(lr=lr))
    return m, v


def test_adam_zero_gradient_leaves_params_unchanged():
    theta = np.array([1.0, -2.0])
    out = theta.copy()
    m, v = adam(out, np.zeros(2), lr=0.1)
    assert np.array_equal(out, theta)
    assert not m.any() and not v.any()


def test_adam_first_step_magnitude_is_lr():
    # with constant gradient g the first update is lr * g / (|g| + eps)
    g = 0.5
    theta = np.array([3.0])
    out = theta.copy()
    adam(out, np.array([g]), lr=1e-3)
    delta = theta - out
    assert delta[0] == pytest.approx(1e-3 * g / (g + 1e-8), rel=1e-9)
    assert abs(delta[0]) == pytest.approx(1e-3, rel=1e-6)


def test_adam_identical_histories_identical_updates(rng):
    g = rng.normal(size=(3,))
    theta = np.ones(6)  # two tensors "a" and "b" of three entries each
    adam(theta, np.concatenate([g, g]), lr=0.01, steps=5)
    assert np.array_equal(theta[:3], theta[3:])


def test_adam_in_blocks_has_the_bits_of_the_whole_vector_update(rng):
    """On a vector of more than 16K elements, each element gets the bits of
    the whole-vector update written out term by term."""
    n = 2 * 8192 + 5
    theta, m, v = rng.normal(size=n), np.zeros(n), np.zeros(n)
    ref, ref_m, ref_v = theta.copy(), m.copy(), v.copy()
    config = TrainConfig(lr=0.01)
    b1, b2 = config.adam_beta1, config.adam_beta2
    for t in range(1, 4):
        g = rng.normal(size=n) * 10.0 ** rng.integers(-8, 8, size=n)
        adam_step(theta, g, m, v, t, config)
        ref_m *= b1
        ref_m += (1.0 - b1) * g
        ref_v *= b2
        ref_v += (1.0 - b2) * (g * g)
        ref -= config.lr * (ref_m / (1.0 - b1 ** t)) / (np.sqrt(ref_v / (1.0 - b2 ** t)) + config.adam_eps)
    assert (theta.tobytes(), m.tobytes(), v.tobytes()) == (ref.tobytes(), ref_m.tobytes(), ref_v.tobytes())


def test_adam_shape_mismatch():
    # a one-element gradient would otherwise broadcast over theta
    for shape in [(3,), (1,), (4, 1)]:
        with pytest.raises(Exception, match="shape"):
            adam(np.ones(4), np.ones(shape), lr=0.1)


# ---------------------------------------------------------------------------
# training loop


def reference_train(x, labels, config):
    """The trainer with per-tensor Adam on dicts and a new ModelParams
    each step: the oracle for train()'s flat in-place state."""
    class_names = tuple(sorted(set(labels)))
    y = encode_labels(labels, class_names)
    rng = np.random.default_rng(config.seed)
    params = mdl.init_params(x.shape[1], class_names, config, rng)
    values = params.tensors
    m = {k: np.zeros_like(a) for k, a in values.items()}
    v = {k: np.zeros_like(a) for k, a in values.items()}
    b1, b2, keep = config.adam_beta1, config.adam_beta2, 1.0 - config.dropout_rate
    history, t = [], 0
    for _ in range(config.epochs):
        order, stats = rng.permutation(len(y)), []
        for start in range(0, len(y), config.batch_size):
            idx = order[start : start + config.batch_size]
            masks = None
            if config.dropout_rate > 0.0:
                masks = tuple((rng.random((idx.size, h)) < keep) / keep for h in config.hidden_dims)
            breakdown, grads = losses.loss_and_grads(params, x[idx], y[idx], config, masks)
            t += 1
            for k, g in grads.items():
                m[k] = b1 * m[k] + (1.0 - b1) * g
                v[k] = b2 * v[k] + (1.0 - b2) * (g * g)
                m_hat, v_hat = m[k] / (1.0 - b1 ** t), v[k] / (1.0 - b2 ** t)
                values[k] = values[k] - config.lr * m_hat / (np.sqrt(v_hat) + config.adam_eps)
            params = replace(params, tensors=values)
            stats.append(breakdown)
        preds = np.argmax(mdl.class_distances(params, x), axis=1)
        terms = [float(np.mean([getattr(b, f) for b in stats])) for f in ("ce", "margin", "fisher", "total")]
        history.append(EpochStats(*terms, accuracy=float(np.mean(preds == y))))
    return params, history


@pytest.mark.parametrize(
    "overrides",
    [
        dict(epochs=0),
        dict(dropout_rate=0.0),
        dict(dropout_rate=0.3),
        dict(fisher_weight=0.0, seed=5),
        dict(batch_size=23),
        dict(adam_beta1=0.8, lr=3e-3),
        dict(batch_size=90),
        dict(batch_size=500),
        dict(epochs=1),
    ],
    ids=["no-epochs", "no-dropout", "dropout", "no-fisher", "ragged-batches", "beta1", "batch-of-all-rows",
         "batch-larger-than-data", "one-epoch"],
)
def test_flat_state_matches_per_tensor_adam(overrides):
    """train() gives the same parameter bytes and history text as the
    per-tensor reference, on 3 classes in 5 dimensions (90 rows), with
    its batches drawn on the worker thread."""
    rng = np.random.default_rng(11)
    data = gaussian_clusters(rng.normal(size=(3, 5)), [40, 30, 20], 0.5, rng, class_names=["a", "b", "c"])
    cfg = tiny_config(**{"epochs": 3, "batch_size": 16, "dropout_rate": 0.2, "seed": 1, **overrides})
    params, history = train(data.features, data.labels, cfg)
    ref_params, ref_history = reference_train(data.features, data.labels, cfg)
    assert format_history(history) == format_history(ref_history) and history == ref_history
    for name, arr in ref_params.tensors.items():
        assert params.tensors[name].tobytes() == arr.tobytes(), name


def test_pass_with_more_chunks_than_batches_matches_the_reference():
    """600 rows in batches of 300: an epoch has 2 batches and its pass 3
    chunks of 256 rows, so each batch queues 2 chunks and a dropped or
    doubled chunk changes the history's accuracy."""
    rng = np.random.default_rng(11)
    data = gaussian_clusters(rng.normal(size=(3, 5)), [250, 200, 150], 0.8, rng, class_names=["a", "b", "c"])
    cfg = tiny_config(epochs=4, batch_size=300, dropout_rate=0.2, seed=1)
    params, history = train(data.features, data.labels, cfg)
    ref_params, ref_history = reference_train(data.features, data.labels, cfg)
    assert format_history(history) == format_history(ref_history) and history == ref_history
    for name, arr in ref_params.tensors.items():
        assert params.tensors[name].tobytes() == arr.tobytes(), name


def test_thread_switches_change_no_byte():
    """With the interpreter switching threads every microsecond, so the
    accuracy pass and the next epoch's steps interleave finely, train()
    still gives the sequential reference's bytes and history."""
    rng = np.random.default_rng(11)
    data = gaussian_clusters(rng.normal(size=(3, 5)), [40, 30, 20], 0.5, rng, class_names=["a", "b", "c"])
    cfg = tiny_config(epochs=4, dropout_rate=0.2, seed=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        params, history = train(data.features, data.labels, cfg)
    finally:
        sys.setswitchinterval(interval)
    ref_params, ref_history = reference_train(data.features, data.labels, cfg)
    assert history == ref_history
    for name, arr in ref_params.tensors.items():
        assert params.tensors[name].tobytes() == arr.tobytes(), name


def test_zero_epochs_returns_initialization_exactly():
    data = blob_data()
    cfg = tiny_config(epochs=0)
    params, history = train(data.features, data.labels, cfg)
    assert history == []
    reference = mdl.init_params(2, ("neg", "pos"), cfg, np.random.default_rng(cfg.seed))
    for name, arr in params.tensors.items():
        assert np.array_equal(arr, reference.tensors[name]), name


def test_training_is_bit_deterministic():
    data = blob_data()
    cfg = tiny_config(epochs=4, seed=42, dropout_rate=0.2)
    p1, h1 = train(data.features, data.labels, cfg)
    p2, h2 = train(data.features, data.labels, cfg)
    assert h1 == h2
    for name, arr in p1.tensors.items():
        assert np.array_equal(arr, p2.tensors[name]), name


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


def test_training_leaves_no_thread_running(monkeypatch):
    """train() runs beside exactly one thread of its own, and none is
    left once it returns, or once it raises a failed pass's error."""
    data = blob_data(n=30)
    before = threading.active_count()
    real_step = losses.loss_and_grads
    running = set()

    def step(*args, **kwargs):
        running.add(threading.active_count() - before)
        return real_step(*args, **kwargs)

    monkeypatch.setattr(losses, "loss_and_grads", step)
    train(data.features, data.labels, tiny_config(epochs=3))
    assert running == {1}
    assert threading.active_count() == before

    def failing_pass(params, x):
        raise ad.NonFiniteError("layer 1: output contains NaN or Inf")

    monkeypatch.setattr(mdl, "class_distances", failing_pass)
    with pytest.raises(ad.NonFiniteError):
        train(data.features, data.labels, tiny_config(epochs=3))
    assert threading.active_count() == before


def test_ctrl_c_does_not_wait_for_the_worker(monkeypatch):
    """A KeyboardInterrupt during epoch 1 leaves train() at once, while
    the worker is still inside the first chunk of epoch 0's accuracy
    pass; the worker then exits on its own without running the second."""
    data = blob_data(n=200)  # 400 rows: 25 batches of 16 an epoch, 2 chunks of 256 a pass
    real_pass, real_step = mdl.class_distances, losses.loss_and_grads
    entered, release, chunks, steps = threading.Event(), threading.Event(), [], []

    def blocked_pass(params, x):
        chunks.append(None)
        entered.set()
        release.wait(10)
        return real_pass(params, x)

    def step(*args, **kwargs):
        steps.append(None)
        if len(steps) > 25:
            assert entered.wait(10)
            raise KeyboardInterrupt
        return real_step(*args, **kwargs)

    monkeypatch.setattr(mdl, "class_distances", blocked_pass)
    monkeypatch.setattr(losses, "loss_and_grads", step)
    before = set(threading.enumerate())
    with pytest.raises(KeyboardInterrupt):
        train(data.features, data.labels, tiny_config(epochs=3))
    assert not release.is_set()
    (worker,) = set(threading.enumerate()) - before
    release.set()
    worker.join(10)
    assert not worker.is_alive()
    assert len(chunks) == 1


def test_ctrl_c_in_the_last_pass_leaves_its_queued_chunks(monkeypatch):
    """The last pass (3 chunks) runs on the worker alone.  A Ctrl-C that
    reaches the training thread while the worker is inside chunk 0 leaves
    train() at once; the worker then exits without running chunks 1
    and 2."""
    data = blob_data(n=300)  # 600 rows
    real_pass = mdl.class_distances
    interrupted, release, chunks = threading.Event(), threading.Event(), []

    def on_sigint(signum, frame):
        if not interrupted.is_set():
            interrupted.set()
            raise KeyboardInterrupt

    def blocked_pass(params, x):
        chunks.append(None)
        # a signal that lands just before the training thread blocks on a
        # result queue is only seen once the queue wakes it, so resend it
        while not interrupted.wait(0.01):
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
        release.wait(10)
        return real_pass(params, x)

    monkeypatch.setattr(mdl, "class_distances", blocked_pass)
    before = set(threading.enumerate())
    previous = signal.signal(signal.SIGINT, on_sigint)
    try:
        with pytest.raises(KeyboardInterrupt):
            train(data.features, data.labels, tiny_config(epochs=1))
        assert not release.is_set()
        (worker,) = set(threading.enumerate()) - before
        release.set()
        worker.join(10)
        assert not worker.is_alive()
    finally:
        release.set()
        signal.signal(signal.SIGINT, previous)  # after the worker's last signal
    assert len(chunks) == 1


def test_every_pass_chunk_runs_on_the_worker_thread(monkeypatch):
    """Over 3 epochs of passes that end in a ragged chunk, every
    class_distances call runs on the worker thread, in pass order: the
    training thread runs no chunk, not even of the last pass."""
    data = blob_data(n=300)  # 600 rows: chunks of 256, 256 and 88
    real_pass = mdl.class_distances
    calls = []

    def recorded_pass(params, x):
        calls.append((threading.current_thread() is threading.main_thread(), len(x)))
        return real_pass(params, x)

    monkeypatch.setattr(mdl, "class_distances", recorded_pass)
    train(data.features, data.labels, tiny_config(epochs=3))
    assert calls == [(False, 256), (False, 256), (False, 88)] * 3


def test_step_error_lets_the_worker_finish_the_pending_pass(monkeypatch):
    """A step error in epoch 1, when epoch 0's pass has one of its two
    chunks queued, runs the other chunk before the worker is stopped and
    joined; the step's error is raised."""
    data = blob_data(n=200)  # 400 rows: 25 batches of 16 an epoch, 2 chunks of 256 a pass
    real_pass, real_step = mdl.class_distances, losses.loss_and_grads
    chunks, steps = [], []

    def counted_pass(params, x):
        chunks.append(len(x))
        return real_pass(params, x)

    def step(*args, **kwargs):
        steps.append(None)
        if len(steps) > 25:
            raise ad.NonFiniteError("logits: output contains NaN or Inf")
        return real_step(*args, **kwargs)

    monkeypatch.setattr(mdl, "class_distances", counted_pass)
    monkeypatch.setattr(losses, "loss_and_grads", step)
    before = threading.active_count()
    with pytest.raises(TrainingDivergedError, match="epoch 1, batch 0"):
        train(data.features, data.labels, tiny_config(epochs=3))
    assert threading.active_count() == before
    assert sorted(chunks) == [144, 256]


class RecordingGenerator:
    """A PCG64 generator that logs each call as (method, steps finished)."""

    real_default_rng = staticmethod(np.random.default_rng)

    def __init__(self, seed, log, steps):
        self._rng, self._log, self._steps = self.real_default_rng(seed), log, steps

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def call(*args, **kwargs):
            self._log.append((name, len(self._steps)))
            return method(*args, **kwargs)

        return call


@pytest.mark.parametrize("batch_size", [16, 23, 90], ids=["four-batches", "ragged", "one-batch"])
def test_generator_is_called_in_the_sequential_order(monkeypatch, batch_size):
    """The worker calls the generator in the sequential reference's order,
    and draws epoch e's permutation only once the training thread has
    taken epoch e-1's last batch: every step before that batch is done."""
    rng = np.random.default_rng(11)
    data = gaussian_clusters(rng.normal(size=(3, 5)), [40, 30, 20], 0.5, rng, class_names=["a", "b", "c"])
    cfg = tiny_config(epochs=4, batch_size=batch_size, dropout_rate=0.2, seed=1)
    batches = -(-90 // batch_size)
    real_step = losses.loss_and_grads
    logs = {}
    for run in ("train", "reference"):
        log, steps = logs.setdefault(run, []), []

        def step(*args, _steps=steps, **kwargs):
            out = real_step(*args, **kwargs)
            _steps.append(None)
            return out

        monkeypatch.setattr(losses, "loss_and_grads", step)
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed, log=log, steps=steps: RecordingGenerator(seed, log, steps))
        (train if run == "train" else reference_train)(data.features, data.labels, cfg)
        monkeypatch.undo()

    assert [name for name, _ in logs["train"]] == [name for name, _ in logs["reference"]]
    assert [name for name, _ in logs["train"]].count("random") == 2 * 4 * batches
    permutations = [done for name, done in logs["train"] if name == "permutation"]
    assert len(permutations) == 4
    for epoch, done in enumerate(permutations):
        assert done >= epoch * batches - 1, (epoch, done)


def test_worker_draw_error_is_raised_as_itself(monkeypatch):
    """An error of a batch draw on the worker (here the third batch's
    dropout masks) is raised by train() as it is, chained to no other
    error, and train() leaves no thread of its own running."""
    data = blob_data(n=30)  # 60 rows, 4 batches of 16 an epoch
    module = sys.modules["rpmnet.train"]  # the package rebinds rpmnet.train to the function
    real_masks, calls = module._dropout_masks, []

    def failing_masks(*args):
        calls.append(None)
        if len(calls) == 3:
            raise RuntimeError("draw failed")
        return real_masks(*args)

    monkeypatch.setattr(module, "_dropout_masks", failing_masks)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="^draw failed$") as info:
        train(data.features, data.labels, tiny_config(dropout_rate=0.2))
    assert info.value.__cause__ is None and info.value.__context__ is None
    assert len(calls) == 3
    assert threading.active_count() == before


@pytest.mark.parametrize("next_epoch_fails", [False, True], ids=["next-epoch-runs", "next-epoch-diverges"])
def test_accuracy_pass_error_is_raised_as_itself(monkeypatch, next_epoch_fails):
    """The accuracy pass of epoch 0 runs beside epoch 1's steps; its
    NonFiniteError is raised as it is, not as a TrainingDivergedError,
    also when epoch 1 diverges meanwhile (a sequential run would never
    have reached it), and train() returns no thread still running."""
    data = blob_data(n=30)  # 60 rows, 4 batches of 16 an epoch
    cfg = tiny_config(epochs=3)
    real_step = losses.loss_and_grads
    steps = []

    def failing_pass(params, x):
        raise ad.NonFiniteError("layer 1: output contains NaN or Inf")

    def step(*args, **kwargs):
        steps.append(None)
        if next_epoch_fails and len(steps) > 4:
            raise ad.NonFiniteError("logits: output contains NaN or Inf")
        return real_step(*args, **kwargs)

    monkeypatch.setattr(mdl, "class_distances", failing_pass)
    monkeypatch.setattr(losses, "loss_and_grads", step)
    before = threading.active_count()
    with pytest.raises(ad.NonFiniteError, match="^layer 1: output contains NaN or Inf$") as info:
        train(data.features, data.labels, cfg)
    assert type(info.value) is ad.NonFiniteError
    assert threading.active_count() == before
    assert len(steps) <= 8  # no step of epoch 2


@pytest.mark.parametrize("epochs", [0, 2])
def test_a_label_count_other_than_the_row_count_is_refused(monkeypatch, epochs):
    """60 labels for 100 feature rows is a ValueError naming both counts,
    raised before the generator is seeded or the worker thread starts:
    else the worker's clipped gathers train on the wrong labels, and with
    no epoch a model comes back."""
    data = blob_data(n=50)  # 100 rows
    module = sys.modules["rpmnet.train"]  # the package rebinds rpmnet.train to the function
    started = []
    monkeypatch.setattr(module, "_BatchWorker", lambda *args: started.append("worker"))
    monkeypatch.setattr(mdl, "init_params", lambda *args: started.append("init"))
    with pytest.raises(ValueError, match=r"^training needs one label per feature row: got 60 labels for 100 rows$"):
        train(data.features, data.labels[:60], tiny_config(epochs=epochs))
    assert started == []


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
