"""The contrastive embedding loss with closed-form gradients.

There is no autograd: gradients come from the analytic form and are
verified against central finite differences by ``gradient_check_suite``.
"""

from __future__ import annotations

from ._numpy import np
from .core import embedding_rows, ints
from .errors import ToolkitError

# The fixed instance sizes and finite-difference step of gradient_check_suite.
MAX_DIM = 16
MAX_SET = 5
STEP = 1e-5

# ---------------------------------------------------------------------------
# Embedding loss


def _rows(v, positives, negatives) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The anchor as a (D,) array and the sets as (P, D) and (N, D) arrays."""
    vec = embedding_rows([v])[0]
    pos = embedding_rows(positives)
    neg = embedding_rows(negatives)
    if pos.shape[1] != vec.size or neg.shape[1] != vec.size:
        raise ToolkitError("positive/negative embeddings must match the anchor length")
    return vec, pos, neg


def _gaps(vecs: np.ndarray, pos: np.ndarray, neg: np.ndarray) -> np.ndarray:
    """The (B, P, N) gaps ``v.k-[q] - v.k+[p]`` of B anchors (B, D) against
    sets (B, P, D) and (B, N, D); the batch axes broadcast. The dots are
    stacked matrix-vector products, which round as one ``pos @ v`` does."""
    col = vecs[:, :, None]
    return np.matmul(neg, col)[:, None, :, 0] - np.matmul(pos, col)


def _losses(vecs: np.ndarray, pos: np.ndarray, neg: np.ndarray) -> np.ndarray:
    """``embed_loss`` of each of B anchors against its sets, as a (B,)
    array; takes the arrays of ``_gaps``. Row b is computed with the same
    float steps as a call on row b alone."""
    gaps = _gaps(vecs, pos, neg)
    gaps = gaps.reshape(len(gaps), -1)
    shift = np.maximum(gaps.max(axis=1), 0.0)
    return shift + np.log(np.exp(-shift) + np.exp(gaps - shift[:, None]).sum(axis=1))


def embed_loss(v, positives, negatives) -> float:
    """log(1 + sum over positive/negative pairs of exp(v.k- - v.k+)).

    ``v`` has shape (D,), ``positives`` (P, D) and ``negatives`` (N, D), as
    sequences of reals or float arrays. Computed through a shifted
    log-sum-exp, so dot products up to the float64 exponent range stay
    finite. Empty positives or negatives give 0.
    """
    if not len(positives) or not len(negatives):
        return 0.0
    vec, pos, neg = _rows(v, positives, negatives)
    return float(_losses(vec[None], pos, neg)[0])


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
    vec, pos, neg = _rows(v, positives, negatives)
    gaps = _gaps(vec[None], pos, neg)[0]
    shift = max(0.0, float(gaps.max()))
    scaled = np.exp(gaps - shift)
    w = scaled / (np.exp(-shift) + scaled.sum())
    w_pos, w_neg = w.sum(axis=1), w.sum(axis=0)
    return w_neg @ neg - w_pos @ pos, -w_pos[:, None] * vec, w_neg[:, None] * vec


# ---------------------------------------------------------------------------
# Gradient verification


def _numeric_grad(losses, values: np.ndarray, h: float) -> np.ndarray:
    """Central differences in each element of ``values`` (any shape, K
    elements). ``losses`` maps K copies of ``values``, stacked on a new
    first axis with copy i bumped in element i, to their K losses. The
    "-h" copies are the "+h" ones stepped back by 2h, so each bumped
    element rounds as it would on one copy bumped in place."""
    k = values.size
    bumped = np.repeat(values[None], k, axis=0)
    diagonal = bumped.reshape(-1)[:: k + 1]  # element i of copy i
    diagonal += h
    hi = losses(bumped)
    diagonal -= 2.0 * h
    return ((hi - losses(bumped)) / (2.0 * h)).reshape(values.shape)


def _compare(analytic: np.ndarray, numeric: np.ndarray, near_zero: float = 1e-3) -> tuple[float, float]:
    """Return (worst relative error, worst absolute error near zero)."""
    err = np.abs(analytic - numeric)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    near = scale < near_zero
    return float(np.max(err[~near] / scale[~near], initial=0.0)), float(np.max(err[near], initial=0.0))


def gradient_check_suite(samples: int = 100, seed: int = 7) -> tuple[float, float]:
    """Compare analytic gradients against central finite differences of
    step ``STEP`` (1e-5) on ``samples`` >= 1 random instances: embedding
    length 2 to ``MAX_DIM`` (16), positive and negative set sizes 1 to
    ``MAX_SET`` (5), entries in [-2, 2]. Returns the worst relative error
    and the worst absolute error among near-zero components.
    """
    from .rng import SplitMix64

    (samples,) = ints((samples,), f"samples {samples!r}")
    if samples < 1:  # a check of no instances would pass
        raise ValueError(f"samples must be at least 1, got {samples}")
    rng = SplitMix64(seed)
    analytic, numeric = [], []

    def draw(count: int) -> np.ndarray:
        return np.array([rng.next_float() * 4.0 - 2.0 for _ in range(count)])

    for _ in range(samples):
        dim = rng.randint(2, MAX_DIM)
        n_pos = rng.randint(1, MAX_SET)
        n_neg = rng.randint(1, MAX_SET)
        v = draw(dim)
        pos = np.array([draw(dim) for _ in range(n_pos)])
        neg = np.array([draw(dim) for _ in range(n_neg)])
        analytic += embed_loss_grad(v, pos, neg)
        numeric.append(_numeric_grad(lambda x: _losses(x, pos, neg), v, STEP))
        numeric.append(_numeric_grad(lambda x: _losses(v[None], x, neg), pos, STEP))
        numeric.append(_numeric_grad(lambda x: _losses(v[None], pos, x), neg, STEP))
    return _compare(*(np.concatenate([g.ravel() for g in grads]) for grads in (analytic, numeric)))
