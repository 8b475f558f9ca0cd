import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rpmnet.model as mdl
import rpmnet.openset as osr
from rpmnet.config import TrainConfig


def test_threshold_from_dict_inverts_to_dict():
    thr = osr.Threshold(tau=-2.5, calibration_method="max-unknown-f1", calibration_stats={"f1": 0.75})
    assert osr.Threshold.from_dict(thr.to_dict()) == thr
    assert osr.Threshold.from_dict(dict(thr.to_dict(), tau=3)).tau == 3.0


@pytest.mark.parametrize("doc", [
    [1],
    {"tau": "1.0", "calibration_method": "max-unknown-f1", "calibration_stats": {}},
    {"tau": 10**400, "calibration_method": "max-unknown-f1", "calibration_stats": {}},
], ids=["list", "string-tau", "tau-past-float-range"])
def test_threshold_from_dict_rejects_other_types(doc):
    with pytest.raises(ValueError, match="finite number tau"):
        osr.Threshold.from_dict(doc)


def identity_params(points):
    points = np.asarray(points, dtype=np.float64)
    k, m = points.shape
    eye = np.eye(m)
    return mdl.ModelParams(
        tensors=dict(W1=eye.copy(), b1=np.zeros(m), W2=eye.copy(), b2=np.zeros(m), W3=eye.copy(), b3=np.zeros(m),
                     points=points, raw_margins=np.full((k, 1), np.log(np.e - 1.0))),
        logit_scale=1.0,
        class_names=tuple(f"c{i}" for i in range(k)),
    )


def brute_force_best_f1(known, unknown):
    """Independent oracle: scan every partition a threshold can realize
    (each score value, midpoints, and both extremes) and return the best
    achievable unknown-as-positive F1."""
    known = np.asarray(known, dtype=np.float64)
    unknown = np.asarray(unknown, dtype=np.float64)
    values = np.concatenate([known, unknown])
    candidates = list(values) + [values.min() - 1.0, values.max() + 1.0]
    values_sorted = np.sort(np.unique(values))
    candidates += list((values_sorted[:-1] + values_sorted[1:]) / 2.0)
    best = 0.0
    for tau in candidates:
        tp = int(np.sum(unknown < tau))
        fp = int(np.sum(known < tau))
        fn = unknown.size - tp
        f1 = 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
        best = max(best, f1)
    return best


def detection_f1(known, unknown, tau):
    tp = int(np.sum(np.asarray(unknown) < tau))
    fp = int(np.sum(np.asarray(known) < tau))
    fn = len(unknown) - tp
    return 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0


# ---------------------------------------------------------------------------
# scoring


def test_sample_at_its_own_point_scores_on_others():
    # embedding lands exactly on P^0; its class-0 distance is the floor -1,
    # so the max comes from the far point and the argmax is not class 0
    points = np.array([[2.0, 1.0], [-6.0, -6.0]])
    p = identity_params(points)
    batch = osr.score(p, points[:1])
    assert mdl.class_distances(p, points[:1])[0, 0] == pytest.approx(-1.0, abs=1e-12)
    assert batch.scores[0] > 0
    assert batch.predicted[0] == 1
    assert batch.is_unknown is None


def test_single_class_score_is_that_distance():
    p = identity_params(np.array([[1.5, 0.5]]))
    x = np.array([[0.3, 0.9], [2.0, 2.0]])
    batch = osr.score(p, x)
    assert np.array_equal(batch.scores, mdl.class_distances(p, x)[:, 0])
    assert np.array_equal(batch.predicted, [0, 0])


def test_scale_preserves_argmax_and_ordering(rng):
    cfg = TrainConfig(hidden_dims=(8, 6), embed_dim=4, dropout_rate=0.0)
    p1 = mdl.init_params(5, ["a", "b", "c"], cfg, rng)
    x = rng.normal(size=(40, 5))
    base = osr.score(p1, x)
    for scale in (0.5, 3.0):
        scaled = osr.score(dataclasses.replace(p1, logit_scale=scale), x)
        # the raw-distance score ignores the logit scale entirely
        assert np.array_equal(scaled.scores, base.scores)
        assert np.array_equal(scaled.predicted, base.predicted)
        assert np.array_equal(np.argsort(scaled.scores), np.argsort(base.scores))


# ---------------------------------------------------------------------------
# detection


def test_score_equal_to_tau_stays_known():
    scored = osr.ScoredBatch(
        scores=np.array([1.0, 2.0]),
        predicted=np.array([0, 0]),
    )
    out = osr.detect(scored, osr.Threshold(1.0, "manual", {}))
    assert out.is_unknown.tolist() == [False, False]
    assert np.array_equal(out.predicted, scored.predicted)


def test_infinite_taus_are_all_or_nothing():
    scored = osr.ScoredBatch(
        scores=np.array([-5.0, 0.0, 5.0]),
        predicted=np.zeros(3, dtype=np.int64),
    )
    nothing = osr.detect(scored, osr.Threshold(float("-inf"), "manual", {}))
    everything = osr.detect(scored, osr.Threshold(float("inf"), "manual", {}))
    assert not nothing.is_unknown.any()
    assert everything.is_unknown.all()


def test_tau_between_clusters_splits_exactly():
    scored = osr.ScoredBatch(
        scores=np.array([0.1, 0.2, 3.1, 3.4]),
        predicted=np.zeros(4, dtype=np.int64),
    )
    out = osr.detect(scored, osr.Threshold(1.0, "manual", {}))
    assert out.is_unknown.tolist() == [True, True, False, False]


# ---------------------------------------------------------------------------
# calibration


def test_calibrate_separated_clusters_picks_midpoint():
    thr = osr.calibrate([2.0, 3.0], [0.0, 1.0])
    assert thr.tau == 1.5
    assert thr.calibration_stats["f1"] == 1.0
    assert thr.calibration_method == "max-unknown-f1"


def test_calibrate_single_pair():
    assert osr.calibrate([1.0], [0.0]).tau == 0.5


def test_calibrate_identical_scores_rejects_everything():
    # all scores equal: only the extremes are candidates, and flagging
    # everything unknown wins with F1 = 2u / (2u + k)
    thr = osr.calibrate([1.0, 1.0], [1.0, 1.0, 1.0])
    assert thr.tau == 2.0
    assert thr.calibration_stats["f1"] == pytest.approx(6 / 8)


def test_calibrate_empty_inputs_rejected():
    with pytest.raises(ValueError):
        osr.calibrate([], [1.0])
    with pytest.raises(ValueError):
        osr.calibrate([1.0], [])


def test_calibrate_tau_is_finite():
    thr = osr.calibrate([5.0, 5.0], [5.0, 5.0])
    assert np.isfinite(thr.tau)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(-20, 20), min_size=1, max_size=30),
    st.lists(st.integers(-20, 20), min_size=1, max_size=30),
)
def test_calibrate_beats_every_candidate(known, unknown):
    known = [float(v) / 2.0 for v in known]
    unknown = [float(v) / 2.0 for v in unknown]
    thr = osr.calibrate(known, unknown)
    achieved = detection_f1(known, unknown, thr.tau)
    assert achieved == thr.calibration_stats["f1"]
    assert achieved >= brute_force_best_f1(known, unknown)


def test_calibrate_ties_pick_smallest_tau():
    # craft a two-way tie: tau=0.5 and tau=1.5 both give F1 = 2/3 and the
    # smaller candidate must win
    known = [1.0]
    unknown = [0.0, 2.0]
    thr = osr.calibrate(known, unknown)
    candidates = [-1.0, 0.5, 1.5, 3.0]
    f1s = [detection_f1(known, unknown, t) for t in candidates]
    best = max(f1s)
    smallest_best = candidates[f1s.index(best)]
    assert thr.tau == smallest_best


def test_monotone_transform_recalibration_preserves_partition(rng):
    known = rng.normal(2.0, 1.0, size=40)
    unknown = rng.normal(-1.0, 1.0, size=25)
    all_scores = np.concatenate([known, unknown])
    base = all_scores < osr.calibrate(known, unknown).tau
    transformed = all_scores * 4.0 + 1.0  # strictly increasing
    again = transformed < osr.calibrate(known * 4.0 + 1.0, unknown * 4.0 + 1.0).tau
    assert np.array_equal(base, again)


# ---------------------------------------------------------------------------
# max-softmax-probability baseline


def test_msp_uniform_logits():
    p = identity_params(np.zeros((5, 3)))
    # all points identical: every distance equal, softmax uniform over K=5
    out = osr.msp_score(p, np.array([[1.0, 2.0, 3.0]]))
    assert out[0] == pytest.approx(0.2, abs=1e-12)


def test_msp_dominant_logit(rng):
    # one point far away on a large-scale model: near-one confidence
    points = np.array([[10.0, 10.0], [-10.0, -10.0]])
    p = dataclasses.replace(identity_params(points), logit_scale=10.0)
    out = osr.msp_score(p, np.array([[10.0, 10.0]]))
    assert out[0] > 0.999


def test_msp_shift_invariance_of_softmax(rng):
    logits = rng.normal(size=(6, 4))
    base = osr.max_softmax(logits)
    shifted = osr.max_softmax(logits + 7.3)
    assert base == pytest.approx(shifted, rel=1e-12)


def test_msp_direction_opposite_of_distance_score():
    # msp is high where the model is confident; the distance score is
    # high for knowns as well, but msp lives in (0, 1]
    p = identity_params(np.array([[3.0, 0.0], [0.0, 3.0]]))
    out = osr.msp_score(p, np.array([[3.0, 0.0], [1.5, 1.5]]))
    assert np.all((out > 0) & (out <= 1))
