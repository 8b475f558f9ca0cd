"""Closed-set macro metrics and open-set ranking metrics.

AUROC uses the Mann-Whitney formulation (win + half-tie counting) and
AUPR a descending-score sweep with tie groups collapsed and step
(non-trapezoidal) area accumulation.  Both paths keep their counts as
exact integers, and AUPR adds up its area strictly left to right
(``np.add.accumulate``, not the pairwise summation of ``np.sum``), so a
brute-force oracle that follows the same definition reproduces them
bit-for-bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import openset as osr

__all__ = ["REJECTED", "MacroMetrics", "EvalReport", "macro_prf", "auroc", "aupr", "evaluate"]

# Prediction index meaning "rejected as unknown": not a class, never a
# true label, and never counted as a prediction of any class.
REJECTED = -1


@dataclass(frozen=True)
class MacroMetrics:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class EvalReport:
    """Everything a run reports: per-class and macro P/R/F1 over known
    test samples, the known-vs-unknown ranking metrics, the closed-set
    confusion matrix (argmax predictions, before rejection), and raw
    counts.  Ranking fields are None when no unknown test data exists.
    """

    class_names: tuple
    per_class: dict  # name -> {precision, recall, f1, support}
    macro: MacroMetrics
    auroc: float | None
    aupr_in: float | None
    aupr_out: float | None
    confusion: np.ndarray  # (K, K) truth x argmax-prediction
    counts: dict

    def to_dict(self) -> dict:
        """JSON-ready report; headline keys match the usual metric-table
        column names."""
        return {
            "precision": self.macro.precision,
            "recall": self.macro.recall,
            "f1_score": self.macro.f1,
            "auroc": self.auroc,
            "aupr_in": self.aupr_in,
            "aupr_out": self.aupr_out,
            "per_class": self.per_class,
            "confusion": [[int(v) for v in row] for row in self.confusion],
            "counts": self.counts,
            "class_names": list(self.class_names),
        }


def _rate(num: int, denom: int) -> float:
    # 0/0 is defined as 0 (affects macro averages; documented contract)
    return num / denom if denom else 0.0


def macro_prf(predictions, truths, num_classes: int):
    """Per-class and macro precision/recall/F1.

    Parameters
    ----------
    predictions : int sequence
        Predicted class indices; ``REJECTED`` (-1) marks samples
        rejected as unknown, which count as no prediction at all.
    truths : int sequence
        True class indices in [0, num_classes).
    num_classes : int
        Number of classes averaged over (absent classes score 0).

    Returns
    -------
    (per_class, macro) where per_class is a list of
    (precision, recall, f1) and macro a :class:`MacroMetrics`.
    """
    preds = np.asarray(predictions, dtype=np.int64)
    truth = np.asarray(truths, dtype=np.int64)
    if preds.shape != truth.shape or preds.ndim != 1:
        raise ValueError(f"predictions/truths must be equal-length vectors, got {preds.shape} vs {truth.shape}")
    if truth.size and (truth.min() < 0 or truth.max() >= num_classes):
        raise ValueError(f"truth labels must lie in [0, {num_classes})")
    if preds.size and (preds.min() < REJECTED or preds.max() >= num_classes):
        raise ValueError(f"predictions must lie in [0, {num_classes}) or be REJECTED")

    # REJECTED never equals a truth, so a hit is always a class prediction
    tp = np.bincount(truth[preds == truth], minlength=num_classes).tolist()
    predicted = np.bincount(preds[preds != REJECTED], minlength=num_classes).tolist()
    support = np.bincount(truth, minlength=num_classes).tolist()
    per_class = []
    for tp_k, predicted_k, support_k in zip(tp, predicted, support):
        p = _rate(tp_k, predicted_k)
        r = _rate(tp_k, support_k)
        f1 = 2.0 * p * r / (p + r) if p + r > 0 else 0.0
        per_class.append((p, r, f1))
    macro = MacroMetrics(
        precision=float(np.mean([m[0] for m in per_class])),
        recall=float(np.mean([m[1] for m in per_class])),
        f1=float(np.mean([m[2] for m in per_class])),
    )
    return per_class, macro


def auroc(scores, is_known, higher_means_known: bool = True) -> float:
    """P(score of a known > score of an unknown) + half the tie mass.

    Parameters
    ----------
    scores : float sequence
    is_known : bool sequence
        True for the known (positive-ranking) class.
    higher_means_known : bool
        Flip scores first when False.
    """
    s = np.asarray(scores, dtype=np.float64).ravel()
    flags = np.asarray(is_known, dtype=bool).ravel()
    if s.shape != flags.shape:
        raise ValueError("scores and flags must have equal length")
    if not higher_means_known:
        s = -s
    pos = np.sort(s[flags])
    neg = np.sort(s[~flags])
    if pos.size == 0 or neg.size == 0:
        raise ValueError("auroc needs both known and unknown samples")
    lo = np.searchsorted(neg, pos, side="left")
    hi = np.searchsorted(neg, pos, side="right")
    wins = int(lo.sum())
    ties = int((hi - lo).sum())
    return (wins + 0.5 * ties) / (pos.size * neg.size)


def _sweep_groups(s: np.ndarray, positive: np.ndarray):
    """Cumulative (tp, fp) after each distinct-score group, descending."""
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    pos_sorted = positive[order].astype(np.int64)
    boundaries = np.nonzero(np.diff(s_sorted))[0]
    ends = np.append(boundaries, s_sorted.size - 1)
    cum_tp = np.cumsum(pos_sorted)[ends]
    cum_all = ends + 1
    return cum_tp, cum_all - cum_tp


def aupr(scores, is_positive, higher_means_positive: bool = True) -> float:
    """Area under the precision-recall curve, step interpolation.

    The sweep walks distinct score values from best to worst (tie
    groups collapsed); each group that raises recall contributes
    (delta recall) * (precision at that group).
    """
    s = np.asarray(scores, dtype=np.float64).ravel()
    flags = np.asarray(is_positive, dtype=bool).ravel()
    if s.shape != flags.shape:
        raise ValueError("scores and flags must have equal length")
    if not higher_means_positive:
        s = -s
    total_pos = int(flags.sum())
    if total_pos == 0:
        raise ValueError("aupr needs at least one positive sample")

    tp, fp = _sweep_groups(s, flags)
    recall = tp / total_pos
    precision = tp / (tp + fp)
    return float(np.add.accumulate(np.diff(recall, prepend=0.0) * precision)[-1])


def evaluate(class_names, threshold: osr.Threshold, known_scores, known_predicted, known_labels,
             unknown_scores) -> EvalReport:
    """Full open-set evaluation from the scores and argmax predictions
    of :func:`openset.score` on known test samples, their true class
    indices, and the scores of unknown test samples.

    Known test samples rejected as unknown count as misclassifications
    of their true class (their prediction lands in the REJECTED bucket,
    outside the K classes).  The confusion matrix records raw argmax
    predictions so its rows always sum to the class supports.  Ranking
    metrics are None when there are no unknown scores.
    """
    k = len(class_names)
    y = np.asarray(known_labels, dtype=np.int64)
    known = osr.detect(osr.ScoredBatch(np.asarray(known_scores), np.asarray(known_predicted)), threshold)
    preds = np.where(known.is_unknown, REJECTED, known.predicted)
    per_class_prf, macro = macro_prf(preds, y, k)

    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (y, known.predicted), 1)

    unknown = np.asarray(unknown_scores, dtype=np.float64)
    if unknown.size:
        all_scores = np.concatenate([known.scores, unknown])
        known_flag = np.concatenate([np.ones(len(known), dtype=bool), np.zeros(unknown.size, dtype=bool)])
        roc = auroc(all_scores, known_flag, higher_means_known=True)
        pr_in = aupr(all_scores, known_flag, higher_means_positive=True)
        pr_out = aupr(all_scores, ~known_flag, higher_means_positive=False)
    else:
        roc = pr_in = pr_out = None

    support = np.bincount(y, minlength=k).tolist()
    per_class = {
        name: {
            "precision": per_class_prf[i][0],
            "recall": per_class_prf[i][1],
            "f1": per_class_prf[i][2],
            "support": support[i],
        }
        for i, name in enumerate(class_names)
    }
    counts = {
        "known_test": int(y.size),
        "unknown_test": int(unknown.size),
        "rejected_known": int(np.sum(known.is_unknown)),
    }
    return EvalReport(
        class_names=class_names,
        per_class=per_class,
        macro=macro,
        auroc=roc,
        aupr_in=pr_in,
        aupr_out=pr_out,
        confusion=confusion,
        counts=counts,
    )
