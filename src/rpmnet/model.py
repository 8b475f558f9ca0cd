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

INFER_ROWS = 256  # rows in every product of class_distances

# Leaf order is the canonical parameter order: of the optimizer's flat
# vector (flat_params) and of the bundle format.
PARAM_NAMES = ("W1", "b1", "W2", "b2", "W3", "b3", "points", "raw_margins")


def param_shapes(input_dim, hidden_dims, embed_dim, num_classes) -> dict:
    """name -> shape (a list) of each trainable tensor, in ``PARAM_NAMES``
    order: the one statement of the model's parameter layout."""
    h1, h2 = hidden_dims
    return {"W1": [input_dim, h1], "b1": [h1], "W2": [h1, h2], "b2": [h2], "W3": [h2, embed_dim], "b3": [embed_dim],
            "points": [num_classes, embed_dim], "raw_margins": [num_classes, 1]}


@dataclass(frozen=True)
class ModelParams:
    """Complete learnable state plus the metadata needed to use it.

    ``tensors`` maps each of ``PARAM_NAMES`` to its array, stored in that
    order; a missing or extra name is a ValueError.  The read-only
    ``weights`` are the three (fan_in, fan_out) matrices, ``biases`` the
    three (fan_out,) vectors, ``reciprocal_points`` is (K, embed_dim)
    and ``raw_margins`` (K, 1); the effective per-class margin is
    ``softplus(raw_margins)``, which keeps margins positive with live
    gradients.  ``logit_scale`` is fixed (not trained).  ``input_dim``
    and ``embed_dim`` are read off the tensors that define them.
    """

    tensors: dict
    logit_scale: float
    class_names: tuple

    def __post_init__(self):
        missing = [name for name in PARAM_NAMES if name not in self.tensors]
        extra = [name for name in self.tensors if name not in PARAM_NAMES]
        if missing or extra:
            raise ValueError(f"ModelParams needs the tensors {PARAM_NAMES}; missing {missing}, unexpected {extra}")
        object.__setattr__(self, "tensors", {name: self.tensors[name] for name in PARAM_NAMES})

    @property
    def weights(self) -> tuple:
        return self.tensors["W1"], self.tensors["W2"], self.tensors["W3"]

    @property
    def biases(self) -> tuple:
        return self.tensors["b1"], self.tensors["b2"], self.tensors["b3"]

    @property
    def reciprocal_points(self) -> np.ndarray:
        return self.tensors["points"]

    @property
    def raw_margins(self) -> np.ndarray:
        return self.tensors["raw_margins"]

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def embed_dim(self) -> int:
        return self.reciprocal_points.shape[1]

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    @property
    def margins(self) -> np.ndarray:
        """Positive per-class margins, shape (K,)."""
        return np.logaddexp(0.0, self.raw_margins).ravel()


def flat_params(params: ModelParams):
    """``(theta, view)``: the trainable tensors copied into one float64
    vector in ``PARAM_NAMES`` order, and ``params`` with each tensor a
    view of that vector, so updating ``theta`` in place updates them."""
    values = params.tensors
    theta = np.concatenate([a.ravel() for a in values.values()])
    ends = np.cumsum([a.size for a in values.values()])
    views = {name: theta[end - a.size : end].reshape(a.shape) for (name, a), end in zip(values.items(), ends)}
    return theta, replace(params, tensors=views)


def init_params(input_dim: int, class_names, config: TrainConfig, rng: np.random.Generator) -> ModelParams:
    """He-initialized extractor, small-normal reciprocal points, margins
    starting at 1.0; drawn in ``PARAM_NAMES`` order."""
    class_names = tuple(class_names)
    tensors = {}
    for name, shape in param_shapes(int(input_dim), config.hidden_dims, config.embed_dim, len(class_names)).items():
        if name.startswith("W"):
            tensors[name] = rng.normal(0.0, math.sqrt(2.0 / shape[0]), size=shape)
        elif name == "points":
            tensors[name] = rng.normal(0.0, 0.1, size=shape)
        elif name == "raw_margins":
            tensors[name] = np.full(shape, math.log(math.e - 1.0))  # softplus -> 1.0
        else:
            tensors[name] = np.zeros(shape)
    return ModelParams(tensors, float(config.logit_scale), class_names)


def as_leaves(params: ModelParams) -> dict:
    """Fresh autodiff leaves for one forward/backward pass."""
    return {name: ad.parameter(arr, name=name) for name, arr in params.tensors.items()}


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
    it.  When ``hidden`` is given, it holds one array per hidden layer,
    of shape ``(len(x), width)``, and each layer's activation is computed
    in its array (the training backward reads them there); otherwise each
    is dropped once the next layer has used it.
    """
    h = x
    for layer, (w, b) in enumerate(zip(params.weights[:2], params.biases[:2])):
        h = np.matmul(h, w, out=None if hidden is None else hidden[layer])
        h += b
        if dropout_masks is not None:
            h *= dropout_masks[layer]
        check_finite(f"layer {layer + 1}", h)
        # ReLU as the tape's np.where(h > 0, h, 0.0): numpy documents
        # maximum(-0.0, 0.0) as -0.0 (dropout makes -0.0 entries), and
        # adding +0.0 turns that into +0.0 while leaving all else as is
        np.maximum(h, 0.0, out=h)
        h += 0.0
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
    """Hybrid distance of each sample to every reciprocal point, (N, K).

    Every product has ``INFER_ROWS`` rows, the last chunk zero-padded: a
    BLAS may round a short product differently from a long one, so a
    row's bits never depend on the call it is scored in.
    """
    x = _check_batch(params, x)
    out = np.empty((x.shape[0], params.num_classes))
    for start in range(0, x.shape[0], INFER_ROWS):
        rows = x[start : start + INFER_ROWS]
        chunk = np.zeros((INFER_ROWS, x.shape[1]))
        chunk[: len(rows)] = rows
        z = forward_embed(params, chunk)
        dist = forward_distances(z, params.reciprocal_points, params.embed_dim)[0]
        out[start : start + len(rows)] = dist[: len(rows)]
    return out


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
