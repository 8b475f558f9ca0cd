"""Acceptance gate: one test per criterion, each printing a PASS line
(run with ``pytest tests/test_acceptance.py -v -s``).

Criteria 7 and 8 need the real CICIDS2017 / UNSW-NB15 flow CSVs and are
skipped unless RPMNET_DATASET_DIR points at them (see REPRODUCING.md);
CI exercises criteria 1-6 only.
"""
import json
import os
import time

import numpy as np
import pytest

import rpmnet.dataio as dio
import rpmnet.losses as ls
import rpmnet.metrics as mx
import rpmnet.model as mdl
import rpmnet.openset as osr
from conftest import finite_difference, max_rel_err
from rpmnet.cli import main
from rpmnet.config import TrainConfig
from rpmnet.synthetic import gaussian_clusters, open_set_fixture
from rpmnet.train import train
from test_metrics import aupr_threshold_sweep, auroc_all_pairs
from test_openset import brute_force_best_f1, detection_f1

DATASET_DIR = os.environ.get("RPMNET_DATASET_DIR")


def report(n, text):
    print(f"\n[acceptance] criterion {n}: PASS - {text}")


# ---------------------------------------------------------------------------
# 1. gradient correctness


def test_criterion_1_gradient_correctness():
    started = time.monotonic()
    cfg = TrainConfig(hidden_dims=(10, 8), embed_dim=8, dropout_rate=0.0, seed=0)
    master = np.random.default_rng(1234)
    checked = 0
    attempts = 0
    worst = 0.0
    while checked < 50:
        attempts += 1
        assert attempts < 500, "too many redraws near kinks"
        rng = np.random.default_rng(master.integers(2**63))
        params = mdl.init_params(10, ["a", "b", "c"], cfg, rng)
        x = rng.uniform(-2.0, 2.0, size=(6, 10))
        y = rng.integers(0, 3, size=6)

        # skip draws within 1e-4 of a ReLU kink or the margin hinge, and
        # draws with a near-zero embedding or point norm (the guarded
        # cosine denominator is the clamp kink: curvature ~ 1/norm^3
        # there makes finite differences meaningless)
        w1, w2, _ = params.weights
        b1, b2, _ = params.biases
        h1 = x @ w1 + b1
        h2 = np.maximum(h1, 0.0) @ w2 + b2
        z = mdl.embed(params, x)
        own = params.reciprocal_points[y]
        de = np.sum((z - own) ** 2, axis=1) / params.embed_dim
        hinge = de - params.margins[y]
        if min(np.abs(h1).min(), np.abs(h2).min(), np.abs(hinge).min()) < 1e-4:
            continue
        norms = np.minimum(
            np.linalg.norm(z, axis=1).min(),
            np.linalg.norm(params.reciprocal_points, axis=1).min(),
        )
        if norms < 0.05:
            continue

        # the step training runs; the tape is checked against it bit for
        # bit in test_losses and op by op in test_autodiff
        _, analytic = ls.loss_and_grads(params, x, y, cfg)
        tr = params.tensors
        names = list(tr)

        def value():
            return ls.loss_and_grads(params, x, y, cfg)[0].total

        numeric = finite_difference(value, [tr[n] for n in names])
        for name, num in zip(names, numeric):
            err = max_rel_err(analytic[name], num)
            worst = max(worst, err)
            assert err < 1e-4, f"{name}: rel err {err:.2e}"
        checked += 1

    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"gradient sweep took {elapsed:.1f}s"
    report(1, f"50 draws, worst rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. loss-value oracles


def test_criterion_2_loss_value_oracles(rng):
    def margin_fixture(margins):
        points = np.zeros((len(margins), 2))
        raw = np.log(np.expm1(np.asarray(margins, dtype=np.float64)))[:, None]
        eye = np.eye(2)
        return mdl.ModelParams(
            tensors=dict(W1=eye, b1=np.zeros(2), W2=eye, b2=np.zeros(2), W3=eye, b3=np.zeros(2),
                         points=points, raw_margins=raw), logit_scale=1.0,
            class_names=tuple("ab"[: len(margins)]),
        )

    p = margin_fixture([1.0])
    assert ls.margin_loss(np.array([[0.5, 0.5]]), [0], p) == pytest.approx(0.0, abs=1e-12)
    assert ls.margin_loss(np.array([[1.0, np.sqrt(2.0)]]), [0], p) == pytest.approx(0.5, abs=1e-12)
    assert ls.margin_loss(np.array([[1.0, np.sqrt(2.0)], [0.1, 0.2]]), [0, 0], p) == pytest.approx(
        0.25, abs=1e-12
    )

    assert ls.fisher_loss(np.array([[0.0, 0.0], [2.0, 2.0], [1.0, 1.0], [1.0, 1.0]]), [0, 0, 1, 1]) == 1.0
    assert ls.fisher_loss(np.array([[0.0], [2.0], [4.0], [6.0]]), [0, 0, 1, 1]) == pytest.approx(
        0.2, abs=1e-12
    )
    collapsed = ls.fisher_loss(np.array([[0.0], [0.0], [1.0], [1.0]]), [0, 0, 1, 1])
    assert collapsed == pytest.approx(ls.FISHER_EPS / (ls.FISHER_EPS + 1.0), rel=1e-9)

    for _ in range(1000):
        n = int(rng.integers(1, 16))
        z = rng.normal(scale=rng.uniform(0.01, 10.0), size=(n, int(rng.integers(1, 6))))
        y = rng.integers(0, int(rng.integers(1, 5)), size=n)
        v = ls.fisher_loss(z, y, num_classes=int(y.max()) + 1)
        assert 0.0 < v <= 1.0
    report(2, "hand-computed margin/fisher values within 1e-12; fisher in (0,1] on 1000 batches")


# ---------------------------------------------------------------------------
# 3. metric oracles


def test_criterion_3_metric_oracles():
    rng = np.random.default_rng(777)
    for i in range(200):
        n = int(rng.integers(4, 201))
        if i % 2 == 0:  # tie-heavy
            scores = rng.integers(0, 4, size=n).astype(np.float64)
        else:
            scores = rng.normal(size=n)
        flags = rng.random(n) < rng.uniform(0.15, 0.85)
        flags[0], flags[1] = True, False
        assert mx.auroc(scores, flags) == auroc_all_pairs(scores, flags)
        assert mx.aupr(scores, flags) == aupr_threshold_sweep(scores, flags)
        assert mx.aupr(scores, ~flags, higher_means_positive=False) == aupr_threshold_sweep(
            scores, ~flags, higher_means_positive=False
        )
    report(3, "auroc and aupr match brute-force oracles exactly on 200 instances")


# ---------------------------------------------------------------------------
# 4. calibration optimality


def test_criterion_4_calibration_optimality():
    rng = np.random.default_rng(4242)
    for i in range(100):
        n_known = int(rng.integers(1, 501))
        n_unknown = int(rng.integers(1, 501))
        if i % 3 == 0:  # heavy ties on a small grid
            known = rng.integers(-5, 6, size=n_known).astype(np.float64)
            unknown = rng.integers(-5, 6, size=n_unknown).astype(np.float64)
        else:
            known = rng.normal(loc=rng.uniform(-1, 2), size=n_known)
            unknown = rng.normal(loc=rng.uniform(-2, 1), size=n_unknown)
        thr = osr.calibrate(known, unknown)
        achieved = detection_f1(known, unknown, thr.tau)
        assert achieved >= brute_force_best_f1(known, unknown)
    report(4, "calibrated tau attains the exhaustive-scan optimum on 100 score sets")


# ---------------------------------------------------------------------------
# 5. synthetic open-set end to end


def test_criterion_5_synthetic_end_to_end():
    started = time.monotonic()
    known, unknown = open_set_fixture(seed=42)
    roles = dio.ClassRoles(known=tuple(sorted(set(known.labels))))
    part = dio.make_split(known.labels, roles, ratio=0.8, seed=42)
    labels = np.array(known.labels)
    train_x = known.features[part == 0]
    scaler = dio.fit_scaler(train_x)
    config = TrainConfig(seed=42)  # all defaults
    params, history = train(scaler.transform(train_x), labels[part == 0].tolist(), config)
    # half the unknown cluster calibrates tau, the other half is evaluated
    known_scores = osr.score(params, scaler.transform(train_x)).scores
    cal_scores = osr.score(params, scaler.transform(unknown[:200])).scores
    threshold = osr.calibrate(known_scores, cal_scores)

    y = np.array([params.class_names.index(l) for l in labels[part == 1]])
    known_test = osr.score(params, scaler.transform(known.features[part == 1]))
    result = mx.evaluate(
        params.class_names,
        threshold,
        known_test.scores,
        known_test.predicted,
        y,
        osr.score(params, scaler.transform(unknown[200:])).scores,
    )
    elapsed = time.monotonic() - started
    assert result.macro.f1 >= 0.95, f"macro F1 {result.macro.f1:.4f}"
    assert result.auroc >= 0.95, f"AUROC {result.auroc:.4f}"
    assert result.aupr_out >= 0.90, f"AUPR-OUT {result.aupr_out:.4f}"
    assert elapsed <= 60.0, f"end-to-end took {elapsed:.1f}s"
    report(
        5,
        f"macro F1 {result.macro.f1:.3f}, AUROC {result.auroc:.3f}, "
        f"AUPR-OUT {result.aupr_out:.3f} in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 6. determinism through the CLI


def _cli_fixture(base):
    rng = np.random.default_rng(99)
    means = np.array(
        [[4.0, 0, 0, 0], [0, 4.0, 0, 0], [0, 0, 4.0, 0], [0, 0, 0, 0], [1.3, 1.3, 1.3, 0]]
    )
    ds = gaussian_clusters(means, [60, 40, 30, 30, 30], 0.25, rng,
                           class_names=["k0", "k1", "k2", "val_u", "test_u"])
    data = base / "flows.csv"
    dio.save_csv(data, ds)
    roles = base / "roles.json"
    roles.write_text(json.dumps({"known": ["k0", "k1", "k2"],
                                 "validation_unknown": ["val_u"],
                                 "test_unknown": ["test_u"]}))
    config = base / "train.json"
    config.write_text(json.dumps({"epochs": 10, "batch_size": 32, "hidden_dims": [16, 8],
                                  "embed_dim": 6, "seed": 3}))
    return data, roles, config


def test_criterion_6_cli_determinism(tmp_path):
    data, roles, config = _cli_fixture(tmp_path)

    def run(tag):
        out = tmp_path / tag
        out.mkdir()
        bundle = out / "model.bundle"
        calibrated = out / "model.cal.bundle"
        rep = out / "report.json"
        assert main(["train", "--data", str(data), "--roles", str(roles),
                     "--config", str(config), "--out", str(bundle)]) == 0
        assert main(["calibrate", "--bundle", str(bundle), "--data", str(data),
                     "--roles", str(roles), "--out", str(calibrated)]) == 0
        assert main(["eval", "--bundle", str(calibrated), "--data", str(data),
                     "--roles", str(roles), "--report", str(rep)]) == 0
        return bundle.read_bytes(), calibrated.read_bytes(), rep.read_bytes()

    first = run("run1")
    second = run("run2")
    for a, b, what in zip(first, second, ("bundle", "calibrated bundle", "report")):
        assert a == b, f"{what} differs between identical runs"
    report(6, "train+calibrate+eval twice: bundles and reports byte-identical")


# ---------------------------------------------------------------------------
# 7-8. paper-scale reproduction (dataset-gated; see REPRODUCING.md)

TABLE1_TARGETS = {
    "cicids2017": {"f1_score": 0.9987, "auroc": 0.9601, "aupr_out": 0.6523},
    "unsw_nb15": {"f1_score": 0.7950, "auroc": 0.8675},
}


def _dataset_path(name):
    path = os.path.join(DATASET_DIR, f"{name}.csv")
    if not os.path.exists(path):
        pytest.skip(f"dataset file {path} not present")
    return path


def _run_pipeline(name, tmp_path, fisher_weight=1.0):
    data = _dataset_path(name)
    roles = dio.preset_roles_path(name)
    # best configuration from the sweep recorded in REPRODUCING.md
    config = tmp_path / f"{name}_config.json"
    config.write_text(json.dumps({"epochs": 30, "batch_size": 256, "seed": 42,
                                  "fisher_weight": fisher_weight}))
    bundle = tmp_path / f"{name}.bundle"
    calibrated = tmp_path / f"{name}.cal.bundle"
    rep = tmp_path / f"{name}.report.json"
    assert main(["train", "--data", data, "--roles", str(roles),
                 "--config", str(config), "--out", str(bundle)]) == 0
    assert main(["calibrate", "--bundle", str(bundle), "--data", data,
                 "--roles", str(roles), "--out", str(calibrated)]) == 0
    assert main(["eval", "--bundle", str(calibrated), "--data", data,
                 "--roles", str(roles), "--report", str(rep)]) == 0
    return json.loads(rep.read_text())


@pytest.mark.skipif(DATASET_DIR is None, reason="RPMNET_DATASET_DIR not set; paper-scale datasets not bundled")
@pytest.mark.parametrize("name", ["cicids2017", "unsw_nb15"])
def test_criterion_7_table_reproduction(name, tmp_path):
    doc = _run_pipeline(name, tmp_path)
    targets = TABLE1_TARGETS[name]
    assert abs(doc["f1_score"] - targets["f1_score"]) <= 0.02
    assert abs(doc["auroc"] - targets["auroc"]) <= 0.05
    if "aupr_out" in targets:
        assert abs(doc["aupr_out"] - targets["aupr_out"]) <= 0.05
    report(7, f"{name}: F1 {doc['f1_score']:.4f} AUROC {doc['auroc']:.4f}")


@pytest.mark.skipif(DATASET_DIR is None, reason="RPMNET_DATASET_DIR not set; paper-scale datasets not bundled")
@pytest.mark.parametrize("name", ["cicids2017", "unsw_nb15"])
def test_criterion_8_fisher_ablation_direction(name, tmp_path):
    with_fisher = _run_pipeline(name, tmp_path, fisher_weight=1.0)
    without = _run_pipeline(name, tmp_path, fisher_weight=0.0)
    assert with_fisher["auroc"] >= without["auroc"]
    report(8, f"{name}: AUROC {with_fisher['auroc']:.4f} (fisher) >= {without['auroc']:.4f} (base)")
