"""Training-side math: matching costs, sample selection, and the
contrastive embedding loss with closed-form gradients.

Everything operates on serialized detections and ground truth; there is
no autograd. Gradients come from the analytic form and are verified
against central finite differences by ``gradient_check_suite``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BBox, Detection, Embedding, box_giou
from .errors import (
    ConfigError,
    DimensionMismatch,
    DuplicateInstanceId,
    NonFiniteInput,
)

NEAR_TIE_DELTA = 1e-6


@dataclass(frozen=True)
class MatchWeights:
    """Weights of the class/box-L1/box-GIoU terms of the matching cost."""

    w_cls: float = 2.0
    w_l1: float = 5.0
    w_giou: float = 2.0

    def __post_init__(self):
        terms = (self.w_cls, self.w_l1, self.w_giou)
        if any(not math.isfinite(w) or w < 0.0 for w in terms):
            raise ConfigError("matching weights must be finite and non-negative")
        if all(w == 0.0 for w in terms):
            raise ConfigError("at least one matching weight must be positive")


@dataclass(frozen=True)
class LossWeights:
    """lambda1 scales box and mask losses, lambda2 the embedding loss."""

    lambda1: float = 2.0
    lambda2: float = 2.0

    def __post_init__(self):
        if any(not math.isfinite(w) or w < 0.0 for w in (self.lambda1, self.lambda2)):
            raise ConfigError("loss weights must be finite and non-negative")


@dataclass(frozen=True)
class SamplePartition:
    """Positive/negative embedding sets selected for one key instance."""

    key_instance: int
    positives: tuple[Embedding, ...]
    negatives: tuple[Embedding, ...]


def _normalized(box: BBox, image_size: tuple[float, float]) -> BBox:
    w, h = image_size
    if w <= 0 or h <= 0:
        raise ConfigError("image_size must be positive")
    return BBox(box.x / w, box.y / h, box.w / w, box.h / h)


def matching_cost(
    predictions: list[Detection],
    gt: list[tuple[int, BBox]],
    weights: MatchWeights,
    image_size: tuple[float, float] = (1.0, 1.0),
) -> np.ndarray:
    """Pairwise prediction-to-ground-truth cost matrix.

    cost[i, j] = w_cls * (1 - p_i[c_j]) + w_l1 * |b_i - g_j|_1
               + w_giou * (1 - GIoU(b_i, g_j))

    Boxes are normalized by ``image_size`` (width, height) into [0, 1]
    before the geometric terms. ``class_probs`` is indexed by category
    id; an id beyond the vector raises DimensionMismatch. Empty ground
    truth yields a zero-column matrix.
    """
    n = len(predictions)
    if not gt:
        return np.zeros((n, 0), dtype=np.float64)
    cost = np.zeros((n, len(gt)), dtype=np.float64)
    pred_boxes = [_normalized(p.bbox, image_size) for p in predictions]
    gt_boxes = [_normalized(b, image_size) for _, b in gt]
    for i, pred in enumerate(predictions):
        pb = pred_boxes[i]
        for j, (cat, _) in enumerate(gt):
            if cat < 0 or cat >= len(pred.class_probs):
                raise DimensionMismatch("class_probs has no entry for the ground-truth category id")
            gb = gt_boxes[j]
            l1 = abs(pb.x - gb.x) + abs(pb.y - gb.y) + abs(pb.w - gb.w) + abs(pb.h - gb.h)
            cost[i, j] = (
                weights.w_cls * (1.0 - pred.class_probs[cat])
                + weights.w_l1 * l1
                + weights.w_giou * (1.0 - box_giou(pb, gb))
            )
    return cost


def _optimal_assignment(cost: np.ndarray) -> dict[int, int]:
    """Minimum-total-cost one-to-one assignment of size min(rows, columns),
    as {column -> row}, by the Hungarian method.

    scipy is imported here, not at module level: importing
    ``scipy.optimize`` costs most of the CLI's cold start, and only
    ``select_samples`` needs it."""
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(cost)
    return {int(c): int(r) for r, c in zip(rows, cols)}


def select_samples(
    ref_predictions: list[Detection],
    ref_gt: list[tuple[int, int, BBox]],
    key_instance: int,
    weights: MatchWeights,
    image_size: tuple[float, float] = (1.0, 1.0),
) -> SamplePartition | None:
    """Split reference-frame predictions into positives/negatives for one
    key instance.

    Ground truth rows are (instance_id, category_id, bbox). Returns None
    when the key instance does not appear on the reference frame. The
    positives are the prediction assigned to the key instance by the
    optimal matching plus any unassigned prediction whose cost against
    the key instance is within ``NEAR_TIE_DELTA`` of the assigned cost;
    every other prediction is a negative.
    """
    ids = [i for i, _, _ in ref_gt]
    if len(ids) != len(set(ids)):
        raise DuplicateInstanceId("reference ground-truth instance ids must be unique")
    if key_instance not in ids:
        return None
    cost = matching_cost(ref_predictions, [(c, b) for _, c, b in ref_gt], weights, image_size)
    assignment = _optimal_assignment(cost)
    key_col = ids.index(key_instance)
    assigned = assignment.get(key_col)
    taken = set(assignment.values())
    positive_idx: list[int] = []
    if assigned is not None:
        positive_idx.append(assigned)
        threshold = cost[assigned, key_col] + NEAR_TIE_DELTA
        for p in range(len(ref_predictions)):
            if p not in taken and cost[p, key_col] <= threshold:
                positive_idx.append(p)
    negative_idx = [p for p in range(len(ref_predictions)) if p not in positive_idx]
    return SamplePartition(
        key_instance=key_instance,
        positives=tuple(ref_predictions[p].embedding for p in positive_idx),
        negatives=tuple(ref_predictions[p].embedding for p in negative_idx),
    )


# ---------------------------------------------------------------------------
# Embedding loss


def _gap_matrix(v: Embedding, positives, negatives) -> np.ndarray:
    vec = v.vector
    pos = np.stack([k.vector for k in positives])
    neg = np.stack([k.vector for k in negatives])
    if pos.shape[1] != vec.size or neg.shape[1] != vec.size:
        raise DimensionMismatch("positive/negative embeddings must match the anchor length")
    # gaps[p, q] = v . k_neg[q] - v . k_pos[p]
    return (neg @ vec)[None, :] - (pos @ vec)[:, None]


def embed_loss(v: Embedding, positives: list[Embedding], negatives: list[Embedding]) -> float:
    """log(1 + sum over positive/negative pairs of exp(v.k- - v.k+)).

    Computed through a shifted log-sum-exp, so dot products up to the
    float64 exponent range stay finite. Empty positives or negatives
    give 0.
    """
    if not positives or not negatives:
        return 0.0
    gaps = _gap_matrix(v, positives, negatives)
    shift = max(0.0, float(gaps.max()))
    return float(shift + np.log(np.exp(-shift) + np.exp(gaps - shift).sum()))


def embed_loss_grad(
    v: Embedding, positives: list[Embedding], negatives: list[Embedding]
) -> tuple[Embedding, list[Embedding], list[Embedding]]:
    """Analytic gradients of ``embed_loss`` for the anchor and both sets.

    With w[p, q] = exp(gap[p, q]) / (1 + sum exp(gap)):
      d/dv      = sum_pq w[p, q] * (k-[q] - k+[p])
      d/dk-[q]  = (sum_p w[p, q]) * v
      d/dk+[p]  = -(sum_q w[p, q]) * v
    """
    dim = len(v)
    if not positives or not negatives:
        zero = Embedding((0.0,) * dim)
        return (
            zero,
            [Embedding((0.0,) * len(k)) for k in positives],
            [Embedding((0.0,) * len(k)) for k in negatives],
        )
    gaps = _gap_matrix(v, positives, negatives)
    shift = max(0.0, float(gaps.max()))
    scaled = np.exp(gaps - shift)
    denom = np.exp(-shift) + scaled.sum()
    w = scaled / denom
    pos = np.stack([k.vector for k in positives])
    neg = np.stack([k.vector for k in negatives])
    grad_v = w.sum(axis=0) @ neg - w.sum(axis=1) @ pos
    vec = v.vector
    grad_pos = [Embedding(tuple(-w[p, :].sum() * vec)) for p in range(len(positives))]
    grad_neg = [Embedding(tuple(w[:, q].sum() * vec)) for q in range(len(negatives))]
    return Embedding(tuple(grad_v)), grad_pos, grad_neg


def total_loss(l_cls: float, l_box: float, l_mask: float, l_embed: float, w: LossWeights) -> float:
    """Weighted sum: l_cls + lambda1 * (l_box + l_mask) + lambda2 * l_embed."""
    terms = (l_cls, l_box, l_mask, l_embed)
    if any(not math.isfinite(t) for t in terms):
        raise NonFiniteInput("loss terms must be finite")
    return l_cls + w.lambda1 * l_box + w.lambda1 * l_mask + w.lambda2 * l_embed


# ---------------------------------------------------------------------------
# Gradient verification


def _numeric_grad(fn, values: np.ndarray, h: float) -> np.ndarray:
    grad = np.zeros_like(values)
    for i in range(values.size):
        bumped = values.copy()
        bumped[i] += h
        hi = fn(bumped)
        bumped[i] -= 2.0 * h
        lo = fn(bumped)
        grad[i] = (hi - lo) / (2.0 * h)
    return grad


def _compare(analytic: np.ndarray, numeric: np.ndarray, near_zero: float = 1e-3):
    """Return (worst relative error, worst absolute error near zero)."""
    worst_rel = 0.0
    worst_abs = 0.0
    for a, n in zip(analytic.ravel(), numeric.ravel()):
        scale = max(abs(a), abs(n))
        if scale < near_zero:
            worst_abs = max(worst_abs, abs(a - n))
        else:
            worst_rel = max(worst_rel, abs(a - n) / scale)
    return worst_rel, worst_abs


def gradient_check_suite(
    samples: int = 100,
    seed: int = 7,
    h: float = 1e-5,
    max_dim: int = 16,
    max_set: int = 5,
) -> tuple[float, float]:
    """Compare analytic gradients against central finite differences on
    random instances (embedding length <= max_dim, set sizes <= max_set,
    entries in [-2, 2]). Returns the worst relative error and the worst
    absolute error among near-zero components.
    """
    from .rng import SplitMix64

    rng = SplitMix64(seed)
    worst_rel = 0.0
    worst_abs = 0.0

    def draw(count: int) -> np.ndarray:
        return np.array([rng.next_float() * 4.0 - 2.0 for _ in range(count)])

    for _ in range(samples):
        dim = rng.randint(2, max_dim)
        n_pos = rng.randint(1, max_set)
        n_neg = rng.randint(1, max_set)
        v = draw(dim)
        pos = [draw(dim) for _ in range(n_pos)]
        neg = [draw(dim) for _ in range(n_neg)]

        anchor0 = Embedding(tuple(v))
        ps0 = [Embedding(tuple(p)) for p in pos]
        ns0 = [Embedding(tuple(n)) for n in neg]

        def loss_with(vv=None, pp=None, nn=None):
            # only the bumped vector is rebuilt; the others are reused
            anchor = anchor0 if vv is None else Embedding(tuple(vv))
            ps, ns = list(ps0), list(ns0)
            if pp is not None:
                idx, vals = pp
                ps[idx] = Embedding(tuple(vals))
            if nn is not None:
                idx, vals = nn
                ns[idx] = Embedding(tuple(vals))
            return embed_loss(anchor, ps, ns)

        grad_v, grad_pos, grad_neg = embed_loss_grad(anchor0, ps0, ns0)
        rel, ab = _compare(grad_v.vector, _numeric_grad(lambda x: loss_with(vv=x), v.copy(), h))
        worst_rel = max(worst_rel, rel)
        worst_abs = max(worst_abs, ab)
        for idx in range(n_pos):
            num = _numeric_grad(lambda x, i=idx: loss_with(pp=(i, x)), pos[idx].copy(), h)
            rel, ab = _compare(grad_pos[idx].vector, num)
            worst_rel = max(worst_rel, rel)
            worst_abs = max(worst_abs, ab)
        for idx in range(n_neg):
            num = _numeric_grad(lambda x, i=idx: loss_with(nn=(i, x)), neg[idx].copy(), h)
            rel, ab = _compare(grad_neg[idx].vector, num)
            worst_rel = max(worst_rel, rel)
            worst_abs = max(worst_abs, ab)
    return worst_rel, worst_abs
