import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rpmnet.metrics as mx
import rpmnet.openset as osr
from rpmnet.config import TrainConfig
from rpmnet.synthetic import gaussian_clusters
from rpmnet.train import train

# ---------------------------------------------------------------------------
# brute-force oracles (independent of the library code paths)


def auroc_all_pairs(scores, is_known, higher_means_known=True):
    s = np.asarray(scores, dtype=np.float64)
    if not higher_means_known:
        s = -s
    flags = np.asarray(is_known, dtype=bool)
    pos, neg = s[flags], s[~flags]
    wins = ties = 0
    for a in pos:
        for b in neg:
            if a > b:
                wins += 1
            elif a == b:
                ties += 1
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def aupr_threshold_sweep(scores, is_positive, higher_means_positive=True):
    s = np.asarray(scores, dtype=np.float64)
    if not higher_means_positive:
        s = -s
    flags = np.asarray(is_positive, dtype=bool)
    total_pos = int(flags.sum())
    area, prev_recall = 0.0, 0.0
    for tau in sorted(set(s.tolist()), reverse=True):
        predicted = s >= tau
        tp = int(np.sum(predicted & flags))
        fp = int(np.sum(predicted & ~flags))
        recall = tp / total_pos
        precision = tp / (tp + fp)
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


def macro_prf_per_class_passes(preds, truth, num_classes):
    """Per-class (precision, recall, f1), three boolean passes per class."""
    preds, truth = np.asarray(preds), np.asarray(truth)
    per_class = []
    for k in range(num_classes):
        tp = int(np.sum((preds == k) & (truth == k)))
        fp = int(np.sum((preds == k) & (truth != k)))
        fn = int(np.sum((preds != k) & (truth == k)))
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        per_class.append((p, r, 2.0 * p * r / (p + r) if p + r > 0 else 0.0))
    return per_class


def random_instance(rng, max_n=200):
    n = int(rng.integers(4, max_n + 1))
    tie_heavy = rng.random() < 0.5
    if tie_heavy:
        scores = rng.integers(0, 5, size=n).astype(np.float64)
    else:
        scores = rng.normal(size=n)
    flags = rng.random(n) < rng.uniform(0.2, 0.8)
    # both classes present
    flags[0], flags[1] = True, False
    return scores, flags


# ---------------------------------------------------------------------------
# macro precision/recall/F1


def test_macro_perfect_predictions():
    per_class, macro = mx.macro_prf([0, 1, 2], [0, 1, 2], 3)
    assert macro == mx.MacroMetrics(1.0, 1.0, 1.0)
    assert all(m == (1.0, 1.0, 1.0) for m in per_class)


def test_macro_hand_example():
    # truths [0,0,1,1], preds [0,1,1,1]: class0 P=1 R=.5 F1=2/3,
    # class1 P=2/3 R=1 F1=.8 -> macro F1 = 11/15
    per_class, macro = mx.macro_prf([0, 1, 1, 1], [0, 0, 1, 1], 2)
    assert per_class[0] == pytest.approx((1.0, 0.5, 2.0 / 3.0), rel=1e-12)
    assert per_class[1] == pytest.approx((2.0 / 3.0, 1.0, 0.8), rel=1e-12)
    assert macro.f1 == pytest.approx(11.0 / 15.0, rel=1e-12)


def test_macro_zero_support_class_drags_average():
    per_class, macro = mx.macro_prf([0, 0], [0, 0], 2)
    assert per_class[1] == (0.0, 0.0, 0.0)
    assert macro.f1 == 0.5


def test_macro_rejected_predictions_count_against_recall_only():
    # one class-0 sample rejected: recall halves, no precision hit anywhere
    per_class, _ = mx.macro_prf([0, mx.REJECTED, 1], [0, 0, 1], 2)
    assert per_class[0] == pytest.approx((1.0, 0.5, 2.0 / 3.0))
    assert per_class[1] == (1.0, 1.0, 1.0)


def test_macro_length_mismatch():
    with pytest.raises(ValueError):
        mx.macro_prf([0, 1], [0], 2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: mx.macro_prf([0, 1], [0, 2], 2), "truth labels must lie in [0, 2)"),
        (lambda: mx.macro_prf([0, 1], [0, -1], 2), "truth labels must lie in [0, 2)"),
        (lambda: mx.macro_prf([0, 2], [0, 1], 2), "predictions must lie in [0, 2) or be REJECTED"),
        (lambda: mx.macro_prf([0, -2], [0, 1], 2), "predictions must lie in [0, 2) or be REJECTED"),
        (lambda: mx.auroc([1.0, 2.0, 3.0], [True, False]), "scores and flags must have equal length"),
        (lambda: mx.aupr([1.0, 2.0], [True, False, True]), "scores and flags must have equal length"),
    ],
    ids=["truth too large", "truth negative", "prediction too large", "prediction below REJECTED",
         "auroc lengths", "aupr lengths"],
)
def test_metrics_reject_out_of_range_inputs(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=40))
def test_macro_invariant_under_relabeling(pairs):
    preds = [p for p, _ in pairs]
    truths = [t for _, t in pairs]
    perm = [2, 3, 1, 0]
    _, macro = mx.macro_prf(preds, truths, 4)
    _, macro_permuted = mx.macro_prf([perm[p] for p in preds], [perm[t] for t in truths], 4)
    assert macro_permuted.precision == pytest.approx(macro.precision, abs=1e-12)
    assert macro_permuted.recall == pytest.approx(macro.recall, abs=1e-12)
    assert macro_permuted.f1 == pytest.approx(macro.f1, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.lists(st.tuples(st.integers(mx.REJECTED, k - 1), st.integers(0, k - 1)), max_size=60),
        )
    )
)
def test_macro_matches_per_class_passes_exactly(case):
    k, pairs = case
    preds = [p for p, _ in pairs]
    truths = [t for _, t in pairs]
    want = macro_prf_per_class_passes(preds, truths, k)
    per_class, macro = mx.macro_prf(preds, truths, k)
    assert per_class == want
    assert macro == mx.MacroMetrics(*(float(np.mean([m[i] for m in want])) for i in range(3)))


# ---------------------------------------------------------------------------
# auroc


def test_auroc_perfect_separation():
    assert mx.auroc([3.0, 4.0, 1.0, 0.0], [True, True, False, False]) == 1.0


def test_auroc_all_ties_is_half():
    assert mx.auroc([2.0, 2.0, 2.0], [True, False, True]) == 0.5


def test_auroc_hand_example():
    # knowns {3,1}, unknowns {2,0}: wins (3,2),(3,0),(1,0); loss (1,2)
    assert mx.auroc([3.0, 1.0, 2.0, 0.0], [True, True, False, False]) == 0.75


def test_auroc_requires_both_classes():
    with pytest.raises(ValueError):
        mx.auroc([1.0, 2.0], [True, True])


def test_auroc_direction_flag():
    scores = [0.0, 1.0, 2.0, 3.0]
    flags = [True, True, False, False]
    assert mx.auroc(scores, flags, higher_means_known=False) == 1.0


def test_auroc_matches_all_pairs_oracle_exactly(rng):
    for _ in range(200):
        scores, flags = random_instance(rng)
        assert mx.auroc(scores, flags) == auroc_all_pairs(scores, flags)


def test_auroc_complement_without_ties(rng):
    scores = rng.permutation(np.arange(30.0))
    flags = rng.random(30) < 0.5
    flags[0], flags[1] = True, False
    a = mx.auroc(scores, flags)
    b = mx.auroc(scores, ~flags)
    assert a == pytest.approx(1.0 - b, abs=1e-12)


# ---------------------------------------------------------------------------
# aupr


def test_aupr_perfect_separation():
    assert mx.aupr([4.0, 3.0, 1.0, 0.0], [True, True, False, False]) == 1.0


def test_aupr_single_positive_ranked_first():
    assert mx.aupr([0.9, 0.1, 0.2], [True, False, False]) == 1.0


def test_aupr_requires_a_positive():
    with pytest.raises(ValueError):
        mx.aupr([1.0, 2.0], [False, False])


def test_aupr_random_scorer_approaches_positive_rate(rng):
    n, p = 100_000, 0.3
    scores = rng.random(n)
    flags = rng.random(n) < p
    assert mx.aupr(scores, flags) == pytest.approx(p, abs=0.02)


def test_aupr_matches_threshold_sweep_oracle_exactly(rng):
    for _ in range(200):
        scores, flags = random_instance(rng)
        assert mx.aupr(scores, flags) == aupr_threshold_sweep(scores, flags)
        assert mx.aupr(scores, ~flags, higher_means_positive=False) == aupr_threshold_sweep(
            scores, ~flags, higher_means_positive=False
        )


def test_ranking_metrics_invariant_under_monotone_transform(rng):
    scores = rng.integers(-10, 10, size=60).astype(np.float64)
    flags = rng.random(60) < 0.4
    flags[0], flags[1] = True, False
    transformed = scores * 2.5 + 3.0  # exact on these values, strictly increasing
    assert mx.auroc(scores, flags) == mx.auroc(transformed, flags)
    assert mx.aupr(scores, flags) == mx.aupr(transformed, flags)


# ---------------------------------------------------------------------------
# evaluate


def trained_toy_model():
    rng = np.random.default_rng(3)
    data = gaussian_clusters([[2.0, 2.0], [-2.0, -2.0]], [60, 60], 0.15, rng, class_names=["a", "b"])
    cfg = TrainConfig(hidden_dims=(16, 8), embed_dim=4, epochs=60, batch_size=32, seed=1)
    params, _ = train(data.features, data.labels, cfg)
    return params, data


def evaluate_model(params, threshold, known_x, y, unknown_x=None):
    """``evaluate`` on the scores of a model's known and unknown rows."""
    known = osr.score(params, known_x)
    unknown = () if unknown_x is None else osr.score(params, unknown_x).scores
    return mx.evaluate(params.class_names, threshold, known.scores, known.predicted, y, unknown)


def test_evaluate_reads_scores_predictions_and_codes_only():
    """A known row scoring below tau is rejected (no prediction), while its
    argmax still fills the confusion matrix."""
    thr = osr.Threshold(0.5, "manual", {})
    report = mx.evaluate(("a", "b"), thr, [1.0, 0.2, 0.9, 0.7], [0, 1, 0, 0], [0, 1, 1, 0], [0.1, 0.8])
    assert report.confusion.tolist() == [[2, 0], [1, 1]]
    assert report.counts == {"known_test": 4, "unknown_test": 2, "rejected_known": 1}
    assert report.per_class["a"] == {"precision": 2 / 3, "recall": 1.0, "f1": 0.8, "support": 2}
    assert report.per_class["b"] == {"precision": 0.0, "recall": 0.0, "f1": 0.0, "support": 2}
    assert report.auroc == 0.75  # 6 of the 8 known/unknown pairs rank the known row higher


def test_evaluate_without_unknowns_flags_ranking_metrics():
    params, data = trained_toy_model()
    thr = osr.Threshold(float(-1e9), "manual", {})
    y = np.array([params.class_names.index(l) for l in data.labels])
    report = evaluate_model(params, thr, data.features, y)
    assert report.auroc is None and report.aupr_in is None and report.aupr_out is None
    assert report.macro.f1 == 1.0
    assert report.counts["unknown_test"] == 0
    doc = report.to_dict()
    assert doc["auroc"] is None and doc["f1_score"] == 1.0


def test_evaluate_memorized_fixture_scores_perfectly():
    params, data = trained_toy_model()
    rng = np.random.default_rng(9)
    unknown = rng.normal(0.0, 0.15, size=(50, 2)) + np.array([2.0, -2.0])  # far third cluster
    y = np.array([params.class_names.index(l) for l in data.labels])
    known_scores = osr.score(params, data.features).scores
    unknown_scores = osr.score(params, unknown).scores
    thr = osr.calibrate(known_scores, unknown_scores)
    report = evaluate_model(params, thr, data.features, y, unknown)
    assert report.macro.precision == 1.0
    assert report.macro.recall == 1.0
    assert report.macro.f1 == 1.0
    assert report.auroc == 1.0
    assert report.aupr_in == 1.0
    assert report.aupr_out == 1.0


def test_evaluate_confusion_rows_sum_to_support():
    params, data = trained_toy_model()
    thr = osr.Threshold(float(1e9), "manual", {})  # reject everything
    y = np.array([params.class_names.index(l) for l in data.labels])
    report = evaluate_model(params, thr, data.features, y)
    support = np.array([np.sum(y == i) for i in range(2)])
    assert np.array_equal(report.confusion.sum(axis=1), support)
    assert report.counts["rejected_known"] == len(y)
    # every known rejected: zero recall everywhere
    assert report.macro.recall == 0.0
