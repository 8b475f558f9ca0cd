"""The three training objectives and their weighted combination.

* cross-entropy over the distance logits (classification)
* margin loss: hinge on the squared-Euclidean part of the distance from
  each sample to its own class's reciprocal point, capped by that
  class's learnable margin (bounds the feature space)
* Fisher loss: 1 / (1 + between-class scatter / within-class scatter),
  computed per mini-batch, driving class clusters tight and apart

Class membership enters the batch formulas through constant selector
matrices, so everything stays inside the autodiff op set.

Training runs :func:`loss_and_grads`: the plain-numpy forward of
``model`` plus a hand-written backward that replays the tape's reverse
topological order, so the loss breakdown and all eight gradients are
bit-identical to :func:`total_loss` followed by ``autodiff.gradient``,
without building a tape or differentiating constants.  The graph
builders stay as the reference the tests compare it against, and back
the plain-array :func:`ce_loss`, :func:`margin_loss` and
:func:`fisher_loss`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import model as mdl
from .config import TrainConfig

# Guard for batches whose classes all collapse to their means.
FISHER_EPS = 1e-12


@dataclass(frozen=True)
class LossBreakdown:
    """One batch's loss terms; ``total`` is the exact weighted sum."""

    ce: float
    margin: float
    fisher: float
    total: float
    ce_weight: float
    margin_weight: float
    fisher_weight: float


def _labels_array(labels, num_classes: int) -> np.ndarray:
    y = np.asarray(labels, dtype=np.int64)
    if y.ndim != 1:
        raise ad.ShapeError(f"labels must be a 1-D index vector, got shape {y.shape}")
    if y.size and (y.min() < 0 or y.max() >= num_classes):
        raise ValueError(f"labels must lie in [0, {num_classes})")
    return y


def _one_hot(y: np.ndarray, num_classes: int) -> np.ndarray:
    m = np.zeros((y.size, num_classes))
    m[np.arange(y.size), y] = 1.0
    return m


# ---------------------------------------------------------------------------
# graph builders


def ce_graph(logit_node: ad.Tensor, y: np.ndarray) -> ad.Tensor:
    return ad.softmax_cross_entropy(logit_node, y)


def margin_graph(leaves: dict, z: ad.Tensor, y: np.ndarray, embed_dim: int) -> ad.Tensor:
    """Mean hinge violation of the per-class Euclidean margin.

    Only the squared-Euclidean part of the distance is constrained; the
    cosine term plays no role here.
    """
    onehot = ad.constant(_one_hot(y, leaves["points"].value.shape[0]))
    own_point = ad.matmul(onehot, leaves["points"])  # (N, m)
    own_margin = ad.matmul(onehot, ad.softplus(leaves["raw_margins"]))  # (N, 1)
    sq_dist = ad.div(
        ad.reduce_sum(ad.square(ad.sub(z, own_point)), axis=1, keepdims=True),
        float(embed_dim),
    )
    return ad.reduce_mean(ad.relu(ad.sub(sq_dist, own_margin)))


def fisher_graph(z: ad.Tensor, y: np.ndarray, num_classes: int) -> ad.Tensor:
    """1 / (1 + S_b / S_w) over the batch.

    S_w sums squared deviations from per-class means, S_b sums
    count-weighted squared deviations of class means from the global
    mean.  Classes absent from the batch contribute nothing; S_w = 0
    (all classes collapsed) is guarded by ``FISHER_EPS``.
    """
    n = z.value.shape[0]
    onehot = _one_hot(_labels_array(y, num_classes), num_classes)
    counts = onehot.sum(axis=0)  # (K,)
    # rows of absent classes are all-zero, so the max() below never lies
    mean_sel = onehot.T / np.maximum(counts, 1.0)[:, None]  # (K, N)

    class_means = ad.matmul(ad.constant(mean_sel), z)  # (K, m)
    within = ad.reduce_sum(ad.square(ad.sub(z, ad.matmul(ad.constant(onehot), class_means))))
    global_mean = ad.matmul(ad.constant(np.full((1, n), 1.0 / n)), z)  # (1, m)
    between = ad.reduce_sum(
        ad.mul(ad.constant(counts[:, None]), ad.square(ad.sub(class_means, global_mean)))
    )
    ratio = ad.div(between, ad.add(within, FISHER_EPS))
    return ad.div(ad.constant(1.0), ad.add(ad.constant(1.0), ratio))


def total_loss(
    params: mdl.ModelParams,
    x: np.ndarray,
    labels,
    config: TrainConfig,
    dropout_masks=None,
):
    """Differentiable total objective for one batch, on the tape (the
    reference that :func:`loss_and_grads` is tested against).

    Returns ``(LossBreakdown, root, leaves)`` where ``root`` is the
    scalar graph node (gradients via ``autodiff.gradient(root,
    leaves.values())``) and ``leaves`` maps parameter names to their
    graph leaves.
    """
    x = np.asarray(x, dtype=np.float64)
    y = _labels_array(labels, params.num_classes)
    leaves = mdl.as_leaves(params)
    z = mdl.embed_graph(leaves, ad.constant(x), dropout_masks)
    logit_node = mdl.logits_graph(leaves, z, params.embed_dim, params.logit_scale)

    ce = ce_graph(logit_node, y)
    margin = margin_graph(leaves, z, y, params.embed_dim)
    fisher = fisher_graph(z, y, params.num_classes)

    root = ad.add(
        ad.add(ad.mul(ce, config.ce_weight), ad.mul(margin, config.margin_weight)),
        ad.mul(fisher, config.fisher_weight),
    )
    breakdown = LossBreakdown(
        ce=ce.item(),
        margin=margin.item(),
        fisher=fisher.item(),
        total=root.item(),
        ce_weight=config.ce_weight,
        margin_weight=config.margin_weight,
        fisher_weight=config.fisher_weight,
    )
    return breakdown, root, leaves


# ---------------------------------------------------------------------------
# fused training step


def loss_and_grads(
    params: mdl.ModelParams,
    x: np.ndarray,
    labels,
    config: TrainConfig,
    dropout_masks=None,
):
    """Loss breakdown and d(total)/d(parameter) for one batch.

    Returns ``(LossBreakdown, {name: gradient})`` in ``PARAM_NAMES``
    order, bit-identical to :func:`total_loss` + ``autodiff.gradient``:
    every expression below is the tape op's own, and a node fed by
    several consumers sums their contributions in the tape's order.
    Broadcast gradients are reduced with the tape's own
    ``_unbroadcast``, which leaves a size-1 axis unsummed (a sum would
    turn -0.0 into +0.0).  NaN/Inf in any value a later op could mask,
    in a loss term or in a gradient raises ``NonFiniteError``.
    """
    x = np.asarray(x, dtype=np.float64)
    y = _labels_array(labels, params.num_classes)
    n, k, m = x.shape[0], params.num_classes, params.embed_dim
    p = params.reciprocal_points
    scale = float(params.logit_scale)
    cw, mw, fw = config.ce_weight, config.margin_weight, config.fisher_weight

    # ---- forward
    hidden = []
    z = mdl.forward_embed(params, x, dropout_masks, hidden)
    r1, r2 = hidden
    dist, (row_sq, col_sq, cross, z_norm, p_norm, denom) = mdl.forward_distances(z, p, m)
    logit = mdl.check_finite("logits", dist * scale)

    shifted = logit - np.max(logit, axis=1, keepdims=True)
    expv = np.exp(shifted)
    sumexp = np.sum(expv, axis=1, keepdims=True)
    ce = mdl.check_finite("ce", -np.mean((shifted - np.log(sumexp))[np.arange(n), y]))

    onehot = _one_hot(y, k)
    sp = np.logaddexp(0.0, params.raw_margins)
    d = z - onehot @ p
    hinge = mdl.check_finite(
        "margin hinge", np.sum(d * d, axis=1, keepdims=True) / float(m) - onehot @ sp
    )
    margin = mdl.check_finite("margin", np.mean(np.where(hinge > 0.0, hinge, 0.0), axis=(0, 1)))

    counts = onehot.sum(axis=0)
    mean_sel = onehot.T / np.maximum(counts, 1.0)[:, None]
    class_means = mean_sel @ z
    dev = z - onehot @ class_means
    within = mdl.check_finite("fisher within", np.sum(dev * dev, axis=(0, 1)))
    global_sel = np.full((1, n), 1.0 / n)
    gd = class_means - global_sel @ z
    between = mdl.check_finite("fisher between", np.sum(counts[:, None] * (gd * gd), axis=(0, 1)))
    within_eps = within + FISHER_EPS
    ratio = mdl.check_finite("fisher ratio", between / within_eps)
    one_plus = 1.0 + ratio
    fisher = mdl.check_finite("fisher", 1.0 / one_plus)
    total = mdl.check_finite("total", (ce * cw + margin * mw) + fisher * fw)

    # ---- backward: CE through the distance logits
    floor = mdl.NORM_GUARD * mdl.NORM_GUARD
    prob = expv / sumexp
    prob[np.arange(n), y] -= 1.0
    g_dist = cw * prob / n * scale
    g_cos = -g_dist
    g_denom = -g_cos * cross / (denom * denom)
    g_sq = g_dist / float(m)
    g_cross = -g_sq * 2.0 + g_cos / denom
    g_row_sq = ad._unbroadcast(g_sq, row_sq.shape)
    g_row_sq = g_row_sq + g_denom @ p_norm * (0.5 / z_norm) * (row_sq > floor)
    g_col_sq = ad._unbroadcast(g_sq, (1, k)).T
    g_col_sq = g_col_sq + (z_norm.T @ g_denom).T * (0.5 / p_norm) * (col_sq > floor)
    g_points = (z.T @ g_cross).T
    g_points = g_points + np.broadcast_to(g_col_sq, p.shape) * (2.0 * p)
    g_z = g_cross @ p
    g_z = g_z + np.broadcast_to(g_row_sq, z.shape) * (2.0 * z)

    # margin hinge
    g_hinge = np.broadcast_to(np.full((1, 1), mw) / n, (n, 1)) * (hinge > 0.0)
    g_d = np.broadcast_to(g_hinge / float(m), d.shape) * (2.0 * d)
    g_z = g_z + g_d
    g_points = g_points + onehot.T @ -g_d
    raw = params.raw_margins
    sigmoid = np.where(
        raw >= 0.0,
        1.0 / (1.0 + np.exp(-np.abs(raw))),
        np.exp(-np.abs(raw)) / (1.0 + np.exp(-np.abs(raw))),
    )
    g_raw_margins = (onehot.T @ -g_hinge) * sigmoid

    # Fisher ratio
    g_one_plus = -fw * 1.0 / (one_plus * one_plus)
    g_between = g_one_plus / within_eps
    g_within = -g_one_plus * between / (within_eps * within_eps)
    g_gd = np.broadcast_to(np.reshape(g_between, (1, 1)), gd.shape) * counts[:, None] * (2.0 * gd)
    g_z = g_z + global_sel.T @ ad._unbroadcast(-g_gd, (1, m))
    g_dev = np.broadcast_to(np.reshape(g_within, (1, 1)), dev.shape) * (2.0 * dev)
    g_z = g_z + g_dev
    g_z = g_z + mean_sel.T @ (g_gd + onehot.T @ -g_dev)

    # MLP, output layer first
    grads = {"W3": r2.T @ g_z, "b3": g_z.sum(axis=0), "points": g_points, "raw_margins": g_raw_margins}
    g = g_z
    for layer, inputs, out in ((2, r1, r2), (1, x, r1)):
        g = g @ params.weights[layer].T * (out > 0.0)
        if dropout_masks is not None:
            g = g * dropout_masks[layer - 1]
        grads[f"W{layer}"] = inputs.T @ g
        grads[f"b{layer}"] = g.sum(axis=0)

    breakdown = LossBreakdown(
        ce=float(ce), margin=float(margin), fisher=float(fisher), total=float(total),
        ce_weight=cw, margin_weight=mw, fisher_weight=fw,
    )
    return breakdown, {name: mdl.check_finite(f"gradient of {name}", grads[name]) for name in mdl.PARAM_NAMES}


# ---------------------------------------------------------------------------
# plain-array entry points (single implementation: thin graph wrappers)


def ce_loss(logits: np.ndarray, labels) -> float:
    """Mean softmax cross-entropy of a logit batch against labels."""
    logit_node = ad.constant(np.asarray(logits, dtype=np.float64))
    y = _labels_array(labels, logit_node.value.shape[1])
    return ce_graph(logit_node, y).item()


def margin_loss(embeddings: np.ndarray, labels, params: mdl.ModelParams) -> float:
    """Mean margin violation of an embedding batch under ``params``."""
    z = ad.constant(np.asarray(embeddings, dtype=np.float64))
    y = _labels_array(labels, params.num_classes)
    leaves = mdl.as_leaves(params)
    return margin_graph(leaves, z, y, params.embed_dim).item()


def fisher_loss(embeddings: np.ndarray, labels, num_classes: int | None = None) -> float:
    """Scatter-ratio loss of an embedding batch; always in (0, 1]."""
    z = np.asarray(embeddings, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if num_classes is None:
        num_classes = int(y.max()) + 1 if y.size else 1
    return fisher_graph(ad.constant(z), y, num_classes).item()
