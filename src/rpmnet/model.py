"""Reciprocal-point model: MLP feature extractor, per-class reciprocal
points, learnable margins, and hybrid-distance logits.

A reciprocal point is a learnable vector representing what a class is
*not*: the logit of class k grows with the distance between the
embedding and that class's reciprocal point, so samples of class k are
pushed away from it during training while unknown traffic tends to land
near the points, i.e. in the low-score center of the space.

The forward pass exists twice, on purpose.  :func:`embed_graph` and
:func:`distance_graph` build it on the autodiff tape; they are the
reference the tests check the production path against, and they back
the plain-array loss functions.  Inference (:func:`embed`,
:func:`class_distances`) and training (``losses.loss_and_grads``) run
:func:`forward_embed` and :func:`forward_distances` instead: plain
numpy that performs the tape's own float operations in the tape's
order, so its results are bit-identical to the graph's ``.value``.  It
builds no tape, and at inference it drops each activation once the next
layer has used it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .config import TrainConfig

# Floor for embedding/point norms inside the cosine term; zero vectors
# are reachable early in training.
NORM_GUARD = 1e-12

# Leaf order is the canonical parameter order used by the optimizer and
# the bundle format.
PARAM_NAMES = ("W1", "b1", "W2", "b2", "W3", "b3", "points", "raw_margins")


@dataclass(frozen=True)
class ModelParams:
    """Complete learnable state plus the metadata needed to use it.

    ``raw_margins`` has shape (K, 1); the effective per-class margin is
    ``softplus(raw_margins)``, which keeps margins positive with live
    gradients.  ``logit_scale`` is fixed (not trained).
    """

    weights: tuple  # three (fan_in, fan_out) matrices
    biases: tuple  # three (fan_out,) vectors
    reciprocal_points: np.ndarray  # (K, embed_dim)
    raw_margins: np.ndarray  # (K, 1)
    logit_scale: float
    input_dim: int
    embed_dim: int
    class_names: tuple

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    @property
    def margins(self) -> np.ndarray:
        """Positive per-class margins, shape (K,)."""
        return np.logaddexp(0.0, self.raw_margins).ravel()

    def trainable(self) -> dict:
        """name -> array for every trainable tensor, in canonical order."""
        w1, w2, w3 = self.weights
        b1, b2, b3 = self.biases
        return {
            "W1": w1,
            "b1": b1,
            "W2": w2,
            "b2": b2,
            "W3": w3,
            "b3": b3,
            "points": self.reciprocal_points,
            "raw_margins": self.raw_margins,
        }

    def with_values(self, values: dict) -> "ModelParams":
        """New params with trainable arrays replaced (metadata kept)."""
        return replace(
            self,
            weights=(values["W1"], values["W2"], values["W3"]),
            biases=(values["b1"], values["b2"], values["b3"]),
            reciprocal_points=values["points"],
            raw_margins=values["raw_margins"],
        )


def init_params(input_dim: int, class_names, config: TrainConfig, rng: np.random.Generator) -> ModelParams:
    """He-initialized extractor, small-normal reciprocal points, margins
    starting at 1.0."""
    class_names = tuple(class_names)
    h1, h2 = config.hidden_dims
    dims = [int(input_dim), h1, h2, config.embed_dim]
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(rng.normal(0.0, math.sqrt(2.0 / fan_in), size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    points = rng.normal(0.0, 0.1, size=(len(class_names), config.embed_dim))
    raw_margins = np.full((len(class_names), 1), math.log(math.e - 1.0))  # softplus -> 1.0
    return ModelParams(
        weights=tuple(weights),
        biases=tuple(biases),
        reciprocal_points=points,
        raw_margins=raw_margins,
        logit_scale=float(config.logit_scale),
        input_dim=int(input_dim),
        embed_dim=int(config.embed_dim),
        class_names=class_names,
    )


def as_leaves(params: ModelParams) -> dict:
    """Fresh autodiff leaves for one forward/backward pass."""
    return {name: ad.parameter(arr, name=name) for name, arr in params.trainable().items()}


# ---------------------------------------------------------------------------
# forward path (autodiff graph, the reference)


def embed_graph(leaves: dict, x: ad.Tensor, dropout_masks=None) -> ad.Tensor:
    """Three-layer MLP: affine -> dropout -> ReLU, twice, then affine.

    ``dropout_masks`` are externally drawn inverted-dropout masks (one
    per hidden layer); passing None runs the inference path.
    """
    h = ad.add(ad.matmul(x, leaves["W1"]), leaves["b1"])
    if dropout_masks is not None:
        h = ad.mul(h, ad.constant(dropout_masks[0]))
    h = ad.relu(h)
    h = ad.add(ad.matmul(h, leaves["W2"]), leaves["b2"])
    if dropout_masks is not None:
        h = ad.mul(h, ad.constant(dropout_masks[1]))
    h = ad.relu(h)
    return ad.add(ad.matmul(h, leaves["W3"]), leaves["b3"])


def distance_graph(leaves: dict, z: ad.Tensor, embed_dim: int) -> ad.Tensor:
    """Hybrid distance from each embedding to each reciprocal point:
    squared Euclidean distance averaged over dimensions, minus cosine
    similarity.  Shape (N, K); each entry lies in [-1, inf)."""
    p = leaves["points"]
    row_sq = ad.reduce_sum(ad.square(z), axis=1, keepdims=True)  # (N, 1)
    col_sq = ad.reduce_sum(ad.square(p), axis=1, keepdims=True)  # (K, 1)
    cross = ad.matmul(z, ad.transpose(p))  # (N, K)
    sq_dist = ad.div(
        ad.sub(ad.add(row_sq, ad.transpose(col_sq)), ad.mul(cross, 2.0)),
        float(embed_dim),
    )
    z_norm = ad.sqrt(ad.clamp_min(row_sq, NORM_GUARD * NORM_GUARD))  # (N, 1)
    p_norm = ad.sqrt(ad.clamp_min(col_sq, NORM_GUARD * NORM_GUARD))  # (K, 1)
    cos_sim = ad.div(cross, ad.matmul(z_norm, ad.transpose(p_norm)))
    return ad.sub(sq_dist, cos_sim)


def logits_graph(leaves: dict, z: ad.Tensor, embed_dim: int, logit_scale: float) -> ad.Tensor:
    return ad.mul(distance_graph(leaves, z, embed_dim), float(logit_scale))


# ---------------------------------------------------------------------------
# forward path (plain numpy, bit-identical to the graph)


def check_finite(stage: str, value):
    """Return ``value``; raise ``NonFiniteError`` naming ``stage`` if it
    holds NaN or Inf (the tape's guarantee, kept by the fused code)."""
    if not np.isfinite(value).all():
        raise ad.NonFiniteError(f"{stage}: output contains NaN or Inf")
    return value


def forward_embed(params: ModelParams, x: np.ndarray, dropout_masks=None, hidden=None) -> np.ndarray:
    """The float operations of :func:`embed_graph` on plain arrays.

    Each pre-ReLU array is checked for NaN/Inf before ReLU could mask
    it.  When ``hidden`` is a list, the two post-ReLU activations are
    appended to it (the training backward reads them); otherwise each is
    dropped once the next layer has used it.
    """
    h = x
    for layer, (w, b) in enumerate(zip(params.weights[:2], params.biases[:2])):
        h = h @ w
        h += b
        if dropout_masks is not None:
            h *= dropout_masks[layer]
        check_finite(f"layer {layer + 1}", h)
        # ReLU as the tape's np.where(h > 0, h, 0.0): numpy documents
        # maximum(-0.0, 0.0) as -0.0 (dropout makes -0.0 entries), and
        # adding +0.0 turns that into +0.0 while leaving all else as is
        np.maximum(h, 0.0, out=h)
        h += 0.0
        if hidden is not None:
            hidden.append(h)
    z = h @ params.weights[2]
    z += params.biases[2]
    return check_finite("embedding", z)


def forward_distances(z: np.ndarray, points: np.ndarray, embed_dim: int):
    """The float operations of :func:`distance_graph` on plain arrays.

    Returns ``(distances, parts)``; ``parts`` is ``(row_sq, col_sq,
    cross, z_norm, p_norm, denom)``, the intermediates the training
    backward reads.
    """
    row_sq = np.sum(z * z, axis=1, keepdims=True)
    col_sq = np.sum(points * points, axis=1, keepdims=True)
    cross = z @ points.T
    sq_dist = (row_sq + col_sq.T - cross * 2.0) / float(embed_dim)
    z_norm = np.sqrt(np.maximum(row_sq, NORM_GUARD * NORM_GUARD))
    p_norm = np.sqrt(np.maximum(col_sq, NORM_GUARD * NORM_GUARD))
    denom = z_norm @ p_norm.T
    dist = check_finite("distance", sq_dist - cross / denom)
    return dist, (row_sq, col_sq, cross, z_norm, p_norm, denom)


# ---------------------------------------------------------------------------
# inference wrappers (plain arrays in, plain arrays out)


def _check_batch(params: ModelParams, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ad.ShapeError(
            f"embed: expected a batch of width {params.input_dim}, got shape {x.shape}"
        )
    return x


def embed(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Inference-mode embeddings, shape (N, embed_dim)."""
    return forward_embed(params, _check_batch(params, x))


def class_distances(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Hybrid distance of each sample to every reciprocal point, (N, K)."""
    z = forward_embed(params, _check_batch(params, x))
    return forward_distances(z, params.reciprocal_points, params.embed_dim)[0]


def logits(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Scaled distance logits, (N, K); column order matches class_names."""
    return params.logit_scale * class_distances(params, x)


def reciprocal_distance(z: np.ndarray, p: np.ndarray) -> float:
    """Hybrid distance between one embedding and one reciprocal point.

    Reference single-pair form of :func:`distance_graph`: squared
    Euclidean distance over the dimension count, minus cosine
    similarity (norms floored at ``NORM_GUARD``).
    """
    z = np.asarray(z, dtype=np.float64).ravel()
    p = np.asarray(p, dtype=np.float64).ravel()
    if z.shape != p.shape:
        raise ad.ShapeError(f"reciprocal_distance: shapes differ, {z.shape} vs {p.shape}")
    diff = z - p
    sq_dist = float(diff @ diff) / z.size
    denom = max(float(np.linalg.norm(z)), NORM_GUARD) * max(float(np.linalg.norm(p)), NORM_GUARD)
    return sq_dist - float(z @ p) / denom
