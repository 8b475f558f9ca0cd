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

__all__ = [
    "TrainConfig",
    "TrainingDivergedError",
    "EpochStats",
    "AdamState",
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


@dataclass
class AdamState:
    """First/second moment estimates per trainable tensor."""

    m: dict
    v: dict
    step: int = 0

    @classmethod
    def for_values(cls, values: dict) -> "AdamState":
        return cls(
            m={k: np.zeros_like(a) for k, a in values.items()},
            v={k: np.zeros_like(a) for k, a in values.items()},
        )


def adam_step(values: dict, grads: dict, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """One bias-corrected Adam update; returns (new values, new state)."""
    t = state.step + 1
    new_values, new_m, new_v = {}, {}, {}
    for name, theta in values.items():
        g = grads[name]
        if g.shape != theta.shape:
            raise ad.ShapeError(f"adam_step: gradient shape {g.shape} != parameter shape {theta.shape} for {name}")
        m = beta1 * state.m[name] + (1.0 - beta1) * g
        v = beta2 * state.v[name] + (1.0 - beta2) * (g * g)
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        new_values[name] = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
        new_m[name], new_v[name] = m, v
    return new_values, AdamState(m=new_m, v=new_v, step=t)


def _dropout_masks(rng: np.random.Generator, n: int, hidden_dims, rate: float):
    keep = 1.0 - rate
    return tuple((rng.random((n, h)) < keep) / keep for h in hidden_dims)


def _encode_labels(labels, class_names):
    if class_names is None:
        class_names = sorted(set(labels))
    class_names = tuple(class_names)
    index = {c: i for i, c in enumerate(class_names)}
    try:
        y = np.array([index[l] for l in labels], dtype=np.int64)
    except KeyError as e:
        raise ValueError(f"label {e.args[0]!r} is not in the class vocabulary") from None
    return y, class_names


def train(features: np.ndarray, labels, config: TrainConfig, class_names=None):
    """Train on a normalized feature matrix with string labels.

    ``class_names`` fixes the label vocabulary (and logit order); by
    default it is the sorted set of observed labels.  Returns the final
    ``ModelParams`` and the per-epoch history.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError(f"training features must be a non-empty 2-D matrix, got shape {x.shape}")
    y, class_names = _encode_labels(labels, class_names)
    for k, name in enumerate(class_names):
        if not np.any(y == k):
            warnings.warn(f"class {name!r} has no training samples; keeping it in the vocabulary")

    rng = np.random.default_rng(config.seed)
    params = mdl.init_params(x.shape[1], class_names, config, rng)
    values = params.trainable()
    state = AdamState.for_values(values)
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
            values, state = adam_step(
                values, grads, state, config.lr,
                config.adam_beta1, config.adam_beta2, config.adam_eps,
            )
            params = params.with_values(values)
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
