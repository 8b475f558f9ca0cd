"""Mini-batch Adam training of the reciprocal-point model.

Everything random (initialization, epoch shuffles, dropout masks) is
drawn from one PCG64 generator seeded by the config, so identical
(data, config) runs produce bit-identical parameters and history.
"""
from __future__ import annotations

import threading
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


def adam_step(theta: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray, t: int, config: TrainConfig,
              work=None):
    """One bias-corrected Adam update of the flat parameter vector
    ``theta`` and its moments ``m`` and ``v``, all in place; ``t`` counts
    steps from 1.  ``work`` is a pair of vectors of ``theta``'s shape that
    hold the temporaries (allocated here when not given), so a step run
    with them allocates nothing."""
    if grad.shape != theta.shape:  # a broadcast gradient would pass silently
        raise ad.ShapeError(f"adam_step: gradient shape {grad.shape} != parameter shape {theta.shape}")
    b1, b2 = config.adam_beta1, config.adam_beta2
    step, denom = (np.empty_like(theta), np.empty_like(theta)) if work is None else work
    # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2
    m *= b1
    np.multiply(grad, 1.0 - b1, out=step)
    m += step
    v *= b2
    np.multiply(grad, grad, out=step)
    step *= 1.0 - b2
    v += step
    # theta -= lr * m_hat / (sqrt(v_hat) + eps)
    np.divide(m, 1.0 - b1 ** t, out=step)
    step *= config.lr
    np.divide(v, 1.0 - b2 ** t, out=denom)
    np.sqrt(denom, out=denom)
    denom += config.adam_eps
    step /= denom
    theta -= step


def _dropout_masks(rng: np.random.Generator, buffers, n: int, rate: float):
    """Inverted-dropout masks for a batch of ``n`` rows, drawn into the
    first ``n`` rows of each of ``buffers`` (one per hidden layer)."""
    keep = 1.0 - rate
    masks = tuple(buf[:n] for buf in buffers)
    for mask in masks:
        rng.random(out=mask)
        np.divide(mask < keep, keep, out=mask)
    return masks


class _AccuracyPass:
    """One epoch's training accuracy, computed on a daemon thread from a
    copy of the parameters, so the next epoch's steps (whose BLAS calls
    release the GIL) run beside it.  A daemon thread never holds up
    Ctrl-C or the interpreter's exit."""

    def __init__(self, params: mdl.ModelParams, x: np.ndarray, y: np.ndarray, loss_means: tuple):
        self._loss_means = loss_means
        self._result = None
        self._thread = threading.Thread(target=self._run, args=(mdl.flat_params(params)[1], x, y), daemon=True)
        self._thread.start()

    def _run(self, snapshot, x, y):
        try:
            self._result = float(np.mean(np.argmax(mdl.class_distances(snapshot, x), axis=1) == y))
        except Exception as e:  # raised on the training thread by stats()
            self._result = e

    def stats(self) -> EpochStats:
        """Wait for the pass; its error, if it failed, is raised here."""
        self._thread.join()
        if isinstance(self._result, Exception):
            raise self._result from None  # not chained to an error of the next epoch
        return EpochStats(*self._loss_means, accuracy=self._result)


def train(features: np.ndarray, labels, config: TrainConfig, class_names=None):
    """Train on a normalized feature matrix with string labels.

    ``class_names`` fixes the label vocabulary (and logit order); by
    default it is the sorted set of observed labels.  Returns the final
    ``ModelParams`` and the per-epoch history.

    Each epoch's accuracy pass runs beside the next epoch's steps (see
    :class:`_AccuracyPass`) and is collected before the next pass starts.
    An error of that pass is raised in place of any error of the next
    epoch, which a sequential run would never have reached.

    The steps run in arrays allocated once per run: the flat gradient,
    Adam's temporaries, the dropout draws, and the hidden activations and
    their gradients.  What a step still allocates is at most the size of
    its batch's embeddings, so its speed no longer depends on where
    malloc's trim and mmap thresholds happen to stand.
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
    grad, grad_params = mdl.flat_params(params)  # the gradient, in theta's layout
    grads = grad_params.tensors  # name -> view of grad
    m, v, t = np.zeros_like(theta), np.zeros_like(theta), 0
    work = (np.empty_like(theta), np.empty_like(theta))
    n = x.shape[0]
    rows = min(n, config.batch_size)
    draws = tuple(np.empty((rows, h)) for h in config.hidden_dims)
    buffers = losses.step_buffers(rows, config.hidden_dims)
    history: list[EpochStats] = []
    pending = None  # the last epoch's accuracy pass

    try:
        for epoch in range(config.epochs):
            order = rng.permutation(n)
            batch_stats = []
            for bi, start in enumerate(range(0, n, config.batch_size)):
                idx = order[start : start + config.batch_size]
                masks = None
                if config.dropout_rate > 0.0:
                    masks = _dropout_masks(rng, draws, idx.size, config.dropout_rate)
                try:
                    breakdown, _ = losses.loss_and_grads(params, x[idx], y[idx], config, masks, grads, buffers)
                except ad.NonFiniteError as e:
                    raise TrainingDivergedError(
                        f"non-finite loss at epoch {epoch}, batch {bi}: {e}"
                    ) from e
                t += 1
                adam_step(theta, grad, m, v, t, config, work)
                batch_stats.append(breakdown)

            loss_means = tuple(float(np.mean([getattr(b, term) for b in batch_stats]))
                               for term in ("ce", "margin", "fisher", "total"))
            if pending is not None:
                history.append(pending.stats())
            pending = _AccuracyPass(params, x, y, loss_means)
        if pending is not None:
            history.append(pending.stats())
    except Exception:
        if pending is not None:
            pending.stats()  # waits; its own error wins
        raise

    return params, history


def format_history(history) -> str:
    """Fixed-order plain-text table: epoch ce margin fisher total acc."""
    lines = ["\t".join(HISTORY_COLUMNS)]
    for i, h in enumerate(history):
        lines.append(
            f"{i}\t{h.ce:.6f}\t{h.margin:.6f}\t{h.fisher:.6f}\t{h.total:.6f}\t{h.accuracy:.6f}"
        )
    return "\n".join(lines) + "\n"
