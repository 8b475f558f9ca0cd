"""Mini-batch Adam training of the reciprocal-point model.

Everything random (initialization, epoch shuffles, dropout masks) is
drawn from one PCG64 generator seeded by the config, so identical
(data, config) runs produce bit-identical parameters and history.  The
shuffles and masks are drawn on a worker thread a batch ahead of the
steps (:class:`_BatchWorker`), in the order a sequential run draws them.
"""
from __future__ import annotations

import collections
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


@dataclass
class _Pass:
    """One epoch's accuracy pass, on the parameters copied at the epoch's
    end: the rows handed out in chunks so far, the rows whose chunk has
    finished, and the hits among them."""

    params: mdl.ModelParams
    claimed: int = 0
    done: int = 0
    hits: int = 0


class _BatchWorker:
    """The one helper thread of a training run.

    It draws every batch one step ahead of the training thread, in the
    order of a sequential run's draws: an epoch's permutation, then each
    batch's dropout masks in batch order.  It writes the masks and the
    batch's gathered rows and labels into one of two slots allocated once
    per run; the training thread steps on one slot while the next is
    filled.  The permutation of epoch e+1 is drawn only once the training
    thread has taken epoch e's last batch (that frees the slot it needs),
    so the generator's state just before it is a sequential run's at the
    end of epoch e.

    Whenever no slot is free, it runs the pending epoch's accuracy pass,
    one ``mdl.INFER_ROWS``-row chunk at a time; the training thread runs
    chunks too while it waits for the pass.  Each chunk's product has the
    shape it has in one ``class_distances`` call over all rows, and the
    hits are an integer sum, so the accuracy has that call's bits.  An
    error of the thread ends every wait of the training thread and is
    raised there as itself.  A daemon thread never holds up Ctrl-C or the
    interpreter's exit.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, config: TrainConfig, rng: np.random.Generator):
        self._x, self._y, self._config, self._rng = x, y, config, rng
        rows = min(x.shape[0], config.batch_size)
        self._slots = tuple((np.empty((rows, x.shape[1])), np.empty(rows, dtype=y.dtype),
                             tuple(np.empty((rows, h)) for h in config.hidden_dims)) for _ in range(2))
        self._cond = threading.Condition()  # guards every field below
        self._free, self._ready, self._held = [0, 1], collections.deque(), None
        self._pass = None  # the pending _Pass
        self._stop = self._abandon = False
        self._error = None
        self._thread = threading.Thread(target=self._run, name="rpmnet-train-worker", daemon=True)
        self._thread.start()

    # -- on the worker thread

    def _run(self):
        try:
            n, size = self._x.shape[0], self._config.batch_size
            for _ in range(self._config.epochs):
                order = None
                for start in range(0, n, size):
                    if (slot := self._free_slot()) is None:
                        return
                    if order is None:  # drawn once the previous epoch's last batch is taken
                        order = self._rng.permutation(n)
                    self._draw(slot, order[start : start + size])
            self._free_slot(drawing=False)  # runs the remaining passes until close()
        except BaseException as e:  # raised on the training thread
            with self._cond:
                self._error = e
                self._cond.notify_all()

    def _free_slot(self, drawing: bool = True):
        """Run chunks of the pending pass until a slot is free to draw the
        next batch into, and return it; None once the thread is stopped."""
        while True:
            with self._cond:
                while True:
                    if self._abandon:
                        return None
                    if drawing and self._free and not self._stop:
                        return self._free.pop()
                    if (chunk := self._claim()) is not None:
                        break
                    if self._stop:
                        return None
                    self._cond.wait()
            self._run_chunk(*chunk)

    def _draw(self, slot: int, idx: np.ndarray):
        x, y, draws = self._slots[slot]
        if self._config.dropout_rate > 0.0:
            _dropout_masks(self._rng, draws, idx.size, self._config.dropout_rate)
        # a permutation's slice never needs the clip; mode="raise" would
        # gather through a temporary
        np.take(self._x, idx, axis=0, out=x[: idx.size], mode="clip")
        np.take(self._y, idx, out=y[: idx.size], mode="clip")
        with self._cond:
            self._ready.append((slot, idx.size))
            self._cond.notify_all()

    # -- on either thread

    def _claim(self):
        """Under the lock: ``(pass, first row)`` of the pending pass's next
        chunk, or None when no chunk is left to hand out."""
        p = self._pass
        if p is None or p.claimed >= self._x.shape[0]:
            return None
        p.claimed += mdl.INFER_ROWS
        return p, p.claimed - mdl.INFER_ROWS

    def _run_chunk(self, p: _Pass, start: int):
        rows = slice(start, start + mdl.INFER_ROWS)
        predicted = np.argmax(mdl.class_distances(p.params, self._x[rows]), axis=1)
        hits = int(np.count_nonzero(predicted == self._y[rows]))
        with self._cond:
            p.hits += hits
            p.done += predicted.size
            if p.done == self._x.shape[0]:
                self._cond.notify_all()

    # -- on the training thread

    def _wait(self, ready):
        """Under the lock: wait until ``ready()`` holds; an error of the
        worker is raised here."""
        while self._error is None and not ready():
            self._cond.wait()
        if self._error is not None:
            raise self._error from None  # not chained to an error of the training thread

    def next_batch(self):
        """``(x, y, dropout masks or None)`` of the next batch; the slot of
        the batch before it goes back to the worker."""
        with self._cond:
            self._wait(lambda: self._ready)
            slot, rows = self._ready.popleft()
            if self._held is not None:
                self._free.append(self._held)
                self._cond.notify_all()
            self._held = slot
        x, y, draws = self._slots[slot]
        masks = tuple(d[:rows] for d in draws) if self._config.dropout_rate > 0.0 else None
        return x[:rows], y[:rows], masks

    def start_pass(self, params: mdl.ModelParams):
        """Queue the accuracy pass of the epoch that just ended, on a copy
        of ``params``; the pass before it must have been collected."""
        p = _Pass(mdl.flat_params(params)[1])
        with self._cond:
            self._pass = p
            self._cond.notify_all()

    def accuracy(self) -> float:
        """The training accuracy of the queued pass, which the calling
        thread helps to finish."""
        n = self._x.shape[0]
        while True:
            with self._cond:
                self._wait(lambda: self._pass.done == n or self._pass.claimed < n)
                if self._pass.done == n:
                    p, self._pass = self._pass, None
                    return p.hits / n  # the bits of np.mean over the hits
                chunk = self._claim()
            self._run_chunk(*chunk)

    def close(self, wait: bool = True):
        """Stop the thread.  With ``wait`` it first finishes the pending
        pass, is joined, and an error it had is raised here; without, it
        is left to exit on its own after its current task."""
        with self._cond:
            self._stop, self._abandon = True, not wait
            self._cond.notify_all()
        if wait:
            self._thread.join()
            if self._error is not None:
                raise self._error from None  # not chained to an error of the training thread


def train(features: np.ndarray, labels, config: TrainConfig, class_names=None):
    """Train on a normalized feature matrix with string labels.

    ``class_names`` fixes the label vocabulary (and logit order); by
    default it is the sorted set of observed labels.  Returns the final
    ``ModelParams`` and the per-epoch history.

    The steps run on the calling thread, and one :class:`_BatchWorker`
    thread draws their batches a step ahead and runs each epoch's
    accuracy pass between them.  Epoch e's accuracy is collected at the
    end of epoch e+1, before epoch e+1's pass is queued.  An error of a
    pass is raised in place of any error of the next epoch, which a
    sequential run would never have reached.  An exception (not Ctrl-C)
    waits for the worker to end, so none is left running.

    The steps run in arrays allocated once per run: the flat gradient,
    Adam's temporaries, the worker's two batch slots, and the hidden
    activations and their gradients.  What a step still allocates is at
    most the size of its batch's embeddings, so its speed no longer
    depends on where malloc's trim and mmap thresholds happen to stand.
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
    buffers = losses.step_buffers(min(x.shape[0], config.batch_size), config.hidden_dims)
    batches = len(range(0, x.shape[0], config.batch_size))  # the worker's batches an epoch
    history: list[EpochStats] = []
    loss_means = None  # of the epoch whose pass is pending

    worker = _BatchWorker(x, y, config, rng)  # the only user of rng from here on
    try:
        for epoch in range(config.epochs):
            batch_stats = []
            for bi in range(batches):
                xb, yb, masks = worker.next_batch()
                try:
                    breakdown, _ = losses.loss_and_grads(params, xb, yb, config, masks, grads, buffers)
                except ad.NonFiniteError as e:
                    raise TrainingDivergedError(
                        f"non-finite loss at epoch {epoch}, batch {bi}: {e}"
                    ) from e
                t += 1
                adam_step(theta, grad, m, v, t, config, work)
                batch_stats.append(breakdown)

            if loss_means is not None:
                history.append(EpochStats(*loss_means, accuracy=worker.accuracy()))
            worker.start_pass(params)
            loss_means = tuple(float(np.mean([getattr(b, term) for b in batch_stats]))
                               for term in ("ce", "margin", "fisher", "total"))
        if loss_means is not None:
            history.append(EpochStats(*loss_means, accuracy=worker.accuracy()))
    except BaseException as e:
        worker.close(wait=isinstance(e, Exception))  # a pass's own error wins
        raise
    worker.close()
    return params, history


def format_history(history) -> str:
    """Fixed-order plain-text table: epoch ce margin fisher total acc."""
    lines = ["\t".join(HISTORY_COLUMNS)]
    for i, h in enumerate(history):
        lines.append(
            f"{i}\t{h.ce:.6f}\t{h.margin:.6f}\t{h.fisher:.6f}\t{h.total:.6f}\t{h.accuracy:.6f}"
        )
    return "\n".join(lines) + "\n"
