"""Mini-batch Adam training of the reciprocal-point model.

Everything random (initialization, epoch shuffles, dropout masks) is
drawn from one PCG64 generator seeded by the config, so identical
(data, config) runs produce bit-identical parameters and history.  The
shuffles and masks are drawn a batch ahead of the steps by tasks queued
on one worker thread (:class:`_BatchWorker`), which runs them in the
order they were queued: the order a sequential run draws them.
"""
from __future__ import annotations

import itertools
import queue
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


class _BatchWorker:
    """The one helper thread of a training run.

    It runs the tasks queued on it one at a time, in the order they were
    queued, and hands each task's result, or the exception it raised, back
    through a result queue: a drawn batch's ``(slot, rows)``, or a pass
    chunk's hit count.  Only the training thread queues tasks, and every
    wait of it is a read of a result that a queued task will produce.

    Every generator call is a task, so the queue's order is the
    generator's order, a sequential run's: an epoch's permutation (drawn
    with the epoch's first batch), then each batch's dropout masks in
    batch order.  A draw writes the masks and the batch's gathered rows
    and labels into one of two slots allocated once per run.
    :meth:`next_batch` returns batch k from one slot and queues the draw
    of batch k+1 into the other, whose step has just finished.  So epoch
    e+1's permutation is queued only when the training thread takes epoch
    e's last batch, and the generator's state just before it is a
    sequential run's at the end of epoch e.

    Behind each draw, ``next_batch`` queues a share of the pending
    epoch's accuracy pass, in ``mdl.INFER_ROWS``-row chunks, so the whole
    pass is queued within the next epoch; :meth:`accuracy` queues what is
    left of it, which for the last epoch is the whole pass.  So every pass
    runs on the worker alone, and the training thread only runs the steps
    and reads results.  Each chunk's product has the shape it has in one
    ``class_distances`` call over all rows, and the hits are an integer
    sum, so the accuracy has that call's bits.  A daemon thread never
    holds up Ctrl-C or the interpreter's exit.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, config: TrainConfig, rng: np.random.Generator):
        self._x, self._y, self._config, self._rng = x, y, config, rng
        n = x.shape[0]
        rows = min(n, config.batch_size)
        self._slots = tuple((np.empty((rows, x.shape[1])), np.empty(rows, dtype=y.dtype),
                             tuple(np.empty((rows, h)) for h in config.hidden_dims)) for _ in range(2))
        self.batches = len(range(0, n, config.batch_size))  # an epoch's
        self._chunks = range(0, n, mdl.INFER_ROWS)  # a pass's chunks, by first row
        self._share = -(-len(self._chunks) // self.batches)  # pass chunks queued behind each draw
        self._tasks, self._drawn, self._hits = queue.SimpleQueue(), queue.SimpleQueue(), queue.SimpleQueue()
        self._order = None  # the epoch's permutation, written by the worker's tasks only
        # written by the training thread only
        self._abandon = False
        self._taken = 0  # batches taken by next_batch
        # the pending pass: its θ copy and its chunks not yet queued
        self._pass, self._left = None, iter(())
        self._thread = threading.Thread(target=self._run, name="rpmnet-train-worker", daemon=True)
        self._thread.start()
        if config.epochs:
            self._tasks.put((self._drawn, self._draw, 0, 0))

    def _run(self):
        for results, task, *args in iter(self._tasks.get, None):
            if self._abandon:
                return
            try:
                results.put(task(*args))
            except BaseException as e:  # raised on the training thread
                results.put(e)

    # -- the tasks

    def _draw(self, slot: int, start: int):
        if start == 0:
            self._order = self._rng.permutation(self._x.shape[0])
        idx = self._order[start : start + self._config.batch_size]
        x, y, draws = self._slots[slot]
        if self._config.dropout_rate > 0.0:
            _dropout_masks(self._rng, draws, idx.size, self._config.dropout_rate)
        # a permutation's slice never needs the clip; mode="raise" would
        # gather through a temporary
        np.take(self._x, idx, axis=0, out=x[: idx.size], mode="clip")
        np.take(self._y, idx, out=y[: idx.size], mode="clip")
        return slot, idx.size

    def _count_hits(self, params: mdl.ModelParams, start: int) -> int:
        rows = slice(start, start + mdl.INFER_ROWS)
        predicted = np.argmax(mdl.class_distances(params, self._x[rows]), axis=1)
        return int(np.count_nonzero(predicted == self._y[rows]))

    # -- on the training thread

    def _queue_chunks(self, starts):
        for start in starts:
            self._tasks.put((self._hits, self._count_hits, self._pass, start))

    def next_batch(self):
        """``(x, y, dropout masks or None)`` of the next batch.  It queues
        the draw of the batch after it, then its share of the pending
        pass; an error of the batch's draw is raised here."""
        drawn = self._drawn.get()
        if isinstance(drawn, BaseException):
            raise drawn from None  # not chained to an error of the training thread
        slot, rows = drawn
        self._taken += 1
        if self._taken < self._config.epochs * self.batches:
            start = self._taken % self.batches * self._config.batch_size
            self._tasks.put((self._drawn, self._draw, 1 - slot, start))
        self._queue_chunks(itertools.islice(self._left, self._share))
        x, y, draws = self._slots[slot]
        masks = tuple(d[:rows] for d in draws) if self._config.dropout_rate > 0.0 else None
        return x[:rows], y[:rows], masks

    def start_pass(self, params: mdl.ModelParams):
        """Begin the accuracy pass of the epoch that just ended, on a copy
        of ``params``; the pass before it must have been collected."""
        self._pass = mdl.flat_params(params)[1]
        self._left = iter(self._chunks)

    def accuracy(self) -> float:
        """The training accuracy of the pending pass.  It queues the
        pass's chunks still left and collects every chunk's outcome before
        the first error is raised."""
        self._queue_chunks(self._left)
        self._pass = None
        outcomes = [self._hits.get() for _ in self._chunks]
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                raise outcome from None  # not chained to an error of the training thread
        return sum(outcomes) / self._x.shape[0]  # the bits of np.mean over the hits

    def close(self, wait: bool = True):
        """Stop the thread.  With ``wait`` it first finishes the pending
        pass, whose error is raised here, and is joined; without, it is
        left to exit on its own after its current task."""
        if not wait:
            self._abandon = True
            self._tasks.put(None)
            return
        try:
            if self._pass is not None:
                self.accuracy()
        finally:
            self._tasks.put(None)  # behind every task the pass queued
            self._thread.join()


def train(features: np.ndarray, labels, config: TrainConfig, class_names=None):
    """Train on a normalized feature matrix with string labels.

    ``class_names`` fixes the label vocabulary (and logit order); by
    default it is the sorted set of observed labels.  Returns the final
    ``ModelParams`` and the per-epoch history.

    The steps run on the calling thread, and one :class:`_BatchWorker`
    thread runs the tasks they queue: it draws their batches a step ahead
    and runs each epoch's accuracy pass between them, and the last epoch's
    pass while the calling thread waits for it.  Epoch e's accuracy is
    collected at the end of epoch e+1, before epoch e+1's pass begins.
    An error of a pass is raised in place of any error of the next epoch,
    which a sequential run would never have reached.  An exception (not
    Ctrl-C) waits for the worker to end, so none is left running.

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
    history: list[EpochStats] = []
    loss_means = None  # of the epoch whose pass is pending

    worker = _BatchWorker(x, y, config, rng)  # the only user of rng from here on
    try:
        for epoch in range(config.epochs):
            batch_stats = []
            for bi in range(worker.batches):
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
