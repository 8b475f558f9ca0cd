"""Inference-time scoring, unknown detection, and threshold calibration.

The open-set score of a sample is its maximum hybrid distance over all
reciprocal points.  Known traffic sits far from every point it belongs
to "not being", so it scores high; unknown traffic tends to land near
the points and scores low.  A sample is flagged unknown when its score
falls strictly below the calibrated threshold.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, replace

import numpy as np

from . import model as mdl

__all__ = ["ScoredBatch", "Threshold", "score", "detect", "calibrate", "max_softmax", "msp_score"]


@dataclass(frozen=True)
class ScoredBatch:
    """Per-sample max-distance scores and argmax predictions.

    ``is_unknown`` stays None until :func:`detect` applies a threshold.
    """

    scores: np.ndarray  # (N,)
    predicted: np.ndarray  # (N,) int, argmax over distances
    is_unknown: np.ndarray | None = None

    def __len__(self) -> int:
        return self.scores.shape[0]


@dataclass(frozen=True)
class Threshold:
    """A calibrated rejection cutoff plus an audit trail of how it was
    chosen."""

    tau: float
    calibration_method: str
    calibration_stats: dict

    def to_dict(self) -> dict:
        return {
            "tau": self.tau,
            "calibration_method": self.calibration_method,
            "calibration_stats": self.calibration_stats,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Threshold":
        """Inverse of :meth:`to_dict`; a field of another type, or a ``tau`` that is not finite, is a ValueError."""
        tau = d.get("tau") if isinstance(d, dict) else None
        if not (isinstance(tau, (int, float)) and not isinstance(tau, bool) and abs(tau) <= sys.float_info.max
                and isinstance(d.get("calibration_method"), str) and isinstance(d.get("calibration_stats"), dict)):
            raise ValueError("a threshold must be an object with a finite number tau, a string calibration_method "
                             f"and an object calibration_stats, got {d!r}")
        return cls(float(tau), d["calibration_method"], dict(d["calibration_stats"]))


def score(params: mdl.ModelParams, x: np.ndarray) -> ScoredBatch:
    """Score a feature batch: max distance over reciprocal points.

    The score is the raw hybrid distance (no logit scaling), so a
    sample sitting exactly on some reciprocal point is maximally *not*
    that class and its score comes from the remaining points.
    """
    distances = mdl.class_distances(params, x)
    return ScoredBatch(
        scores=np.max(distances, axis=1),
        predicted=np.argmax(distances, axis=1),
    )


def detect(scored: ScoredBatch, threshold: Threshold) -> ScoredBatch:
    """Flag samples whose score falls strictly below tau as unknown."""
    return replace(scored, is_unknown=scored.scores < threshold.tau)


def _summary(values: np.ndarray) -> dict:
    with np.errstate(over="ignore", invalid="ignore"):
        mean = values.mean()
    if not np.isfinite(mean):  # the sum overflowed (near 1e308), or hit inf - inf with mixed signs
        mean = (values / values.size).sum()
    return {
        "count": int(values.size),
        "min": float(values.min()),
        "max": float(values.max()),
        "mean": float(mean),
    }


def calibrate(known_val_scores, unknown_val_scores) -> Threshold:
    """Pick tau maximizing F1 of unknown-as-positive detection.

    Each candidate realizes one partition ``score < tau``: the midpoint
    of each pair of adjacent distinct validation scores, or the upper
    score where the midpoint rounds onto the lower one; one sentinel
    below the minimum (reject nothing); and one above the maximum
    (reject everything), ``max + 1`` or, where that rounds back onto the
    maximum, the next float above it, left out if that is not finite.
    So every candidate is finite.  Ties pick the smallest tau.
    """
    known = np.asarray(known_val_scores, dtype=np.float64).ravel()
    unknown = np.asarray(unknown_val_scores, dtype=np.float64).ravel()
    if known.size == 0 or unknown.size == 0:
        raise ValueError("calibrate: both known and unknown validation scores are required")

    distinct = np.unique(np.concatenate([known, unknown]))
    lower, upper = distinct[:-1], distinct[1:]
    middle = lower / 2.0 + upper / 2.0  # (lower + upper) / 2 where that sum does not overflow
    top = distinct[-1] + 1.0
    if top == distinct[-1] < sys.float_info.max:
        top = np.nextafter(top, np.inf)
    candidates = np.concatenate(
        [[distinct[0] - 1.0], np.where(middle > lower, middle, upper), [top] if top > distinct[-1] else []]
    )

    known_sorted = np.sort(known)
    unknown_sorted = np.sort(unknown)
    # predicted unknown <=> score < tau
    tp = np.searchsorted(unknown_sorted, candidates, side="left")
    fp = np.searchsorted(known_sorted, candidates, side="left")
    fn = unknown.size - tp
    denom = 2 * tp + fp + fn
    f1 = np.where(denom > 0, 2 * tp / np.maximum(denom, 1), 0.0)

    best = int(np.argmax(f1))  # first maximum = smallest tau
    tau = float(candidates[best])
    return Threshold(
        tau=tau,
        calibration_method="max-unknown-f1",
        calibration_stats={
            "known": _summary(known),
            "unknown": _summary(unknown),
            "f1": float(f1[best]),
            "candidates": int(candidates.size),
        },
    )


def max_softmax(logits: np.ndarray) -> np.ndarray:
    """Rowwise maximum softmax probability (shift-invariant, stable)."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(shifted)
    p /= p.sum(axis=1, keepdims=True)
    return p.max(axis=1)


def msp_score(params: mdl.ModelParams, x: np.ndarray) -> np.ndarray:
    """Maximum softmax probability over the distance logits.

    Comparison scorer: HIGHER means more confidently known, the
    opposite direction from :func:`score`.
    """
    return max_softmax(mdl.logits(params, x))
