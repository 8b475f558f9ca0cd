"""Mini-batch Adam training of the reciprocal-point model.

Everything random (initialization, epoch shuffles, dropout masks) is
drawn from one PCG64 generator seeded by the config, so identical
(data, config) runs produce bit-identical parameters and history.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import losses
from . import model as mdl
from .config import TrainConfig
from .dataio import encode_labels

__all__ = [
    "TrainConfig",
    "TrainingDivergedError",
    "EpochStats",
    "adam_step",
    "train",
    "format_history",
]

HISTORY_COLUMNS = ("epoch", "ce", "margin", "fisher", "total", "acc")


class TrainingDivergedError(RuntimeError):
    """The loss went NaN/Inf; message names the epoch and batch."""


@dataclass(frozen=True)
class EpochStats:
    """Mean loss terms over an epoch's batches plus end-of-epoch
    training accuracy (inference mode, argmax over distances)."""

    ce: float
    margin: float
    fisher: float
    total: float
    accuracy: float


# elements of the flat parameter vector that adam_step updates at once, so
# each of its temporaries is 64 KB.  Whole-vector temporaries (about ten of
# 494 KB a step with the default dims) made glibc's malloc map or trim
# memory at every step unless an earlier, larger free had raised its
# thresholds: 8 times the page faults and about 0.3 s more on a 4000-row,
# 8-epoch train (2 vCPUs)
_ADAM_BLOCK = 8192


def adam_step(theta: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray, t: int, config: TrainConfig):
    """One bias-corrected Adam update of the flat parameter vector
    ``theta`` and its moments ``m`` and ``v``, all in place; ``t`` counts
    steps from 1.  Each element goes through the same operations,
    ``_ADAM_BLOCK`` elements at a time."""
    if grad.shape != theta.shape:  # a broadcast gradient would pass silently
        raise ad.ShapeError(f"adam_step: gradient shape {grad.shape} != parameter shape {theta.shape}")
    b1, b2 = config.adam_beta1, config.adam_beta2
    for start in range(0, theta.size, _ADAM_BLOCK):
        p, g, mb, vb = (a[start : start + _ADAM_BLOCK] for a in (theta, grad, m, v))
        mb *= b1
        mb += (1.0 - b1) * g
        vb *= b2
        vb += (1.0 - b2) * (g * g)
        p -= config.lr * (mb / (1.0 - b1 ** t)) / (np.sqrt(vb / (1.0 - b2 ** t)) + config.adam_eps)


def _dropout_masks(rng: np.random.Generator, n: int, hidden_dims, rate: float):
    keep = 1.0 - rate
    return tuple((rng.random((n, h)) < keep) / keep for h in hidden_dims)


def train(features: np.ndarray, labels, config: TrainConfig, class_names=None):
    """Train on a normalized feature matrix with string labels.

    ``class_names`` fixes the label vocabulary (and logit order); by
    default it is the sorted set of observed labels.  Returns the final
    ``ModelParams`` and the per-epoch history.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.size == 0:
        raise ValueError(f"training features must be a non-empty 2-D matrix, got shape {x.shape}")
    class_names = tuple(sorted(set(labels)) if class_names is None else class_names)
    y = encode_labels(labels, class_names)
    for name, count in zip(class_names, np.bincount(y, minlength=len(class_names))):
        if not count:
            warnings.warn(f"class {name!r} has no training samples; keeping it in the vocabulary")

    rng = np.random.default_rng(config.seed)
    theta, params = mdl.flat_params(mdl.init_params(x.shape[1], class_names, config, rng))
    m, v, t = np.zeros_like(theta), np.zeros_like(theta), 0
    n = x.shape[0]
    history: list[EpochStats] = []

    for epoch in range(config.epochs):
        order = rng.permutation(n)
        batch_stats = []
        for bi, start in enumerate(range(0, n, config.batch_size)):
            idx = order[start : start + config.batch_size]
            masks = None
            if config.dropout_rate > 0.0:
                masks = _dropout_masks(rng, idx.size, config.hidden_dims, config.dropout_rate)
            try:
                breakdown, grads = losses.loss_and_grads(params, x[idx], y[idx], config, masks)
            except ad.NonFiniteError as e:
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch {bi}: {e}"
                ) from e
            t += 1
            adam_step(theta, np.concatenate([grads[name].ravel() for name in mdl.PARAM_NAMES]), m, v, t, config)
            batch_stats.append(breakdown)

        preds = np.argmax(mdl.class_distances(params, x), axis=1)
        history.append(
            EpochStats(
                ce=float(np.mean([b.ce for b in batch_stats])),
                margin=float(np.mean([b.margin for b in batch_stats])),
                fisher=float(np.mean([b.fisher for b in batch_stats])),
                total=float(np.mean([b.total for b in batch_stats])),
                accuracy=float(np.mean(preds == y)),
            )
        )

    return params, history


def format_history(history) -> str:
    """Fixed-order plain-text table: epoch ce margin fisher total acc."""
    lines = ["\t".join(HISTORY_COLUMNS)]
    for i, h in enumerate(history):
        lines.append(
            f"{i}\t{h.ce:.6f}\t{h.margin:.6f}\t{h.fisher:.6f}\t{h.total:.6f}\t{h.accuracy:.6f}"
        )
    return "\n".join(lines) + "\n"
