"""Training-side math: matching costs, sample selection, and the
contrastive embedding loss with closed-form gradients.

Everything operates on serialized detections and ground truth; there is
no autograd. Gradients come from the analytic form and are verified
against central finite differences by ``gradient_check_suite``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._numpy import np
from .core import BBox, Detection, Embedding, box_giou, config_numbers, embedding_rows, reals
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
        config_numbers(self, reals, "w_cls", "w_l1", "w_giou")
        terms = (self.w_cls, self.w_l1, self.w_giou)
        if any(w < 0.0 for w in terms):
            raise ConfigError("matching weights must be non-negative")
        if all(w == 0.0 for w in terms):
            raise ConfigError("at least one matching weight must be positive")


@dataclass(frozen=True)
class LossWeights:
    """lambda1 scales box and mask losses, lambda2 the embedding loss."""

    lambda1: float = 2.0
    lambda2: float = 2.0

    def __post_init__(self):
        config_numbers(self, reals, "lambda1", "lambda2")
        if self.lambda1 < 0.0 or self.lambda2 < 0.0:
            raise ConfigError("loss weights must be non-negative")


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


def _gap_matrix(v, positives, negatives) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The anchor as a (D,) array, the sets as (P, D) and (N, D) arrays,
    and the (P, N) gaps ``v.k-[q] - v.k+[p]``."""
    vec = embedding_rows([v])[0]
    pos = embedding_rows(positives)
    neg = embedding_rows(negatives)
    if pos.shape[1] != vec.size or neg.shape[1] != vec.size:
        raise DimensionMismatch("positive/negative embeddings must match the anchor length")
    return vec, pos, neg, (neg @ vec)[None, :] - (pos @ vec)[:, None]


def embed_loss(v, positives, negatives) -> float:
    """log(1 + sum over positive/negative pairs of exp(v.k- - v.k+)).

    ``v`` has shape (D,), ``positives`` (P, D) and ``negatives`` (N, D), as
    Embeddings, lists of reals or float arrays. Computed through a shifted
    log-sum-exp, so dot products up to the float64 exponent range stay
    finite. Empty positives or negatives give 0.
    """
    if not len(positives) or not len(negatives):
        return 0.0
    *_, gaps = _gap_matrix(v, positives, negatives)
    shift = max(0.0, float(gaps.max()))
    return float(shift + np.log(np.exp(-shift) + np.exp(gaps - shift).sum()))


def embed_loss_grad(v, positives, negatives) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic gradients of ``embed_loss`` for the anchor and both sets,
    as float64 arrays ``(grad_v (D,), grad_pos (P, D), grad_neg (N, D))``.
    Takes the inputs of ``embed_loss``; an empty set gives zero arrays.

    With w[p, q] = exp(gap[p, q]) / (1 + sum exp(gap)):
      d/dv      = sum_pq w[p, q] * (k-[q] - k+[p])
      d/dk-[q]  = (sum_p w[p, q]) * v
      d/dk+[p]  = -(sum_q w[p, q]) * v
    """
    if not len(positives) or not len(negatives):
        dim = len(v)
        return np.zeros(dim), np.zeros((len(positives), dim)), np.zeros((len(negatives), dim))
    vec, pos, neg, gaps = _gap_matrix(v, positives, negatives)
    shift = max(0.0, float(gaps.max()))
    scaled = np.exp(gaps - shift)
    w = scaled / (np.exp(-shift) + scaled.sum())
    w_pos, w_neg = w.sum(axis=1), w.sum(axis=0)
    return w_neg @ neg - w_pos @ pos, -w_pos[:, None] * vec, w_neg[:, None] * vec


def total_loss(l_cls: float, l_box: float, l_mask: float, l_embed: float, w: LossWeights) -> float:
    """Weighted sum: l_cls + lambda1 * (l_box + l_mask) + lambda2 * l_embed."""
    reals((l_cls, l_box, l_mask, l_embed), "loss terms", NonFiniteInput)
    return l_cls + w.lambda1 * l_box + w.lambda1 * l_mask + w.lambda2 * l_embed


# ---------------------------------------------------------------------------
# Gradient verification


def _numeric_grad(fn, values: np.ndarray, h: float) -> np.ndarray:
    """Central differences of ``fn`` in each element of ``values`` (any shape), bumped on one copy."""
    bumped = values.copy()
    grad = np.zeros_like(values)
    for i in np.ndindex(values.shape):
        bumped[i] += h
        hi = fn(bumped)
        bumped[i] -= 2.0 * h
        lo = fn(bumped)
        bumped[i] = values[i]
        grad[i] = (hi - lo) / (2.0 * h)
    return grad


def _compare(analytic: np.ndarray, numeric: np.ndarray, near_zero: float = 1e-3) -> tuple[float, float]:
    """Return (worst relative error, worst absolute error near zero)."""
    err = np.abs(analytic - numeric)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    near = scale < near_zero
    return float(np.max(err[~near] / scale[~near], initial=0.0)), float(np.max(err[near], initial=0.0))


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
    analytic = [np.empty(0)]  # so that samples=0 gives (0.0, 0.0)
    numeric = [np.empty(0)]

    def draw(count: int) -> np.ndarray:
        return np.array([rng.next_float() * 4.0 - 2.0 for _ in range(count)])

    for _ in range(samples):
        dim = rng.randint(2, max_dim)
        n_pos = rng.randint(1, max_set)
        n_neg = rng.randint(1, max_set)
        v = draw(dim)
        pos = np.array([draw(dim) for _ in range(n_pos)])
        neg = np.array([draw(dim) for _ in range(n_neg)])
        analytic += embed_loss_grad(v, pos, neg)
        numeric.append(_numeric_grad(lambda x: embed_loss(x, pos, neg), v, h))
        numeric.append(_numeric_grad(lambda x: embed_loss(v, x, neg), pos, h))
        numeric.append(_numeric_grad(lambda x: embed_loss(v, pos, x), neg, h))
    return _compare(*(np.concatenate([g.ravel() for g in grads]) for grads in (analytic, numeric)))
