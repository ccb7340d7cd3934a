"""The contrastive loss and its analytic gradients against finite
differences."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vistrack import (
    ToolkitError,
    embed_loss,
    embed_loss_grad,
    gradient_check_suite,
    similarity,
)
from vistrack.contrastive import _gaps, _losses, _numeric_grad
from helpers import (
    gap_matrix,
    loop_numeric_grad,
    reference_embed_loss,
    reference_embed_loss_grad,
    scalar_embed_loss,
)


def bits(x) -> np.ndarray:
    """The float64 values of ``x`` as raw 64-bit patterns, so that == compares bit for bit."""
    return np.asarray(x, dtype=np.float64).view(np.uint64)


# ---------------------------------------------------------------------------
# embed_loss values


def test_loss_empty_sets():
    v = (1.0, 0.0)
    assert embed_loss(v, [], [(1.0, 0.0)]) == 0.0
    assert embed_loss(v, [(1.0, 0.0)], []) == 0.0


def test_loss_symmetric_pair_is_ln2():
    v = (1.0, 0.0)
    k = (0.3, 0.7)
    assert embed_loss(v, [k], [k]) == pytest.approx(math.log(2.0), abs=1e-12)


def test_loss_two_gap():
    v = (2.0, 0.0)
    kp = (1.0, 0.0)  # v.k+ = 2
    kn = (0.0, 1.0)  # v.k- = 0
    assert embed_loss(v, [kp], [kn]) == pytest.approx(math.log(1.0 + math.exp(-2.0)), abs=1e-12)


def test_loss_overflow_safe():
    v = (30.0,)
    kp = (-30.0,)
    kn = (30.0,)
    expected = 1800.0  # log(1 + e^1800) ~= 1800 exactly at float64 precision
    assert embed_loss(v, [kp], [kn]) == pytest.approx(expected)
    assert math.isfinite(embed_loss(v, [kp] * 5, [kn] * 5))


@given(
    st.integers(2, 6),
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=80)
def test_loss_nonnegative_and_permutation_invariant(dim, n_pos, n_neg, seed):
    rng = np.random.default_rng(seed)
    v = tuple(rng.uniform(-2, 2, dim))
    pos = [tuple(rng.uniform(-2, 2, dim)) for _ in range(n_pos)]
    neg = [tuple(rng.uniform(-2, 2, dim)) for _ in range(n_neg)]
    base = embed_loss(v, pos, neg)
    assert base >= 0.0
    assert embed_loss(v, pos[::-1], neg[::-1]) == pytest.approx(base, rel=1e-15)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_loss_monotone_in_dots(seed):
    """Strengthening a positive dot lowers the loss; strengthening a
    negative dot raises it."""
    rng = np.random.default_rng(seed)
    dim = 4
    v_vec = rng.uniform(-2, 2, dim)
    if np.linalg.norm(v_vec) < 1e-3:
        v_vec[0] = 1.0
    v = tuple(v_vec)
    pos = [tuple(rng.uniform(-2, 2, dim)) for _ in range(2)]
    neg = [tuple(rng.uniform(-2, 2, dim)) for _ in range(2)]
    base = embed_loss(v, pos, neg)
    bump = 0.1 * v_vec / float(v_vec @ v_vec)  # raises the dot by 0.1
    pos_up = [tuple(np.asarray(pos[0]) + bump), pos[1]]
    neg_up = [tuple(np.asarray(neg[0]) + bump), neg[1]]
    assert embed_loss(v, pos_up, neg) < base
    assert embed_loss(v, pos, neg_up) > base


# ---------------------------------------------------------------------------
# gradients


def test_grad_fixture():
    v = (1.0, 0.0)
    kp = (1.0, 0.0)
    kn = (0.0, 0.0)
    w = math.exp(-1.0) / (1.0 + math.exp(-1.0))
    grad_v, grad_pos, grad_neg = embed_loss_grad(v, [kp], [kn])
    assert grad_v[0] == pytest.approx(-w, abs=1e-12)
    assert grad_v[1] == pytest.approx(0.0, abs=1e-15)
    assert tuple(grad_pos[0]) == pytest.approx((-w, 0.0), abs=1e-12)
    assert tuple(grad_neg[0]) == pytest.approx((w, 0.0), abs=1e-12)


def test_grad_empty_sets_zero():
    v = (1.0, 2.0)
    grad_v, grad_pos, grad_neg = embed_loss_grad(v, [], [(3.0, 4.0)])
    assert tuple(grad_v) == (0.0, 0.0)
    assert grad_pos.tolist() == []
    assert tuple(grad_neg[0]) == (0.0, 0.0)


def _forms(v, rows_pos, rows_neg):
    """The same anchor and sets as tuples (the form of a detection's
    embedding), as lists and as float arrays."""
    dim = len(v)

    def array(rows):
        return np.array(rows, dtype=np.float64).reshape(len(rows), dim)

    return [
        (tuple(v), [tuple(r) for r in rows_pos], [tuple(r) for r in rows_neg]),
        (list(v), [list(r) for r in rows_pos], [list(r) for r in rows_neg]),
        (np.array(v), array(rows_pos), array(rows_neg)),
    ]


@st.composite
def loss_inputs(draw):
    dim = draw(st.integers(1, 16))
    row = st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=dim, max_size=dim)
    return draw(row), draw(st.lists(row, max_size=5)), draw(st.lists(row, max_size=5))


@given(loss_inputs())
@settings(max_examples=150, deadline=None)
def test_loss_and_grad_equal_reference(inputs):
    """Loss and all three gradients against the pair-by-pair oracle, for
    every input form. The abs floor covers gradient components that
    cancel to ~0, where the matrix route keeps only rounding noise."""
    v, pos, neg = inputs
    dim = len(v)
    close = dict(rel=1e-9, abs=1e-12)
    ref_loss = reference_embed_loss(v, pos, neg)
    ref_v, ref_pos, ref_neg = reference_embed_loss_grad(v, pos, neg)
    losses = set()
    for args in _forms(v, pos, neg):
        loss = embed_loss(*args)
        losses.add(loss)
        assert loss == pytest.approx(ref_loss, **close)
        grad_v, grad_pos, grad_neg = embed_loss_grad(*args)
        assert [g.dtype for g in (grad_v, grad_pos, grad_neg)] == [np.float64] * 3
        assert (grad_v.shape, grad_pos.shape, grad_neg.shape) == ((dim,), (len(pos), dim), (len(neg), dim))
        assert grad_v.tolist() == pytest.approx(ref_v, **close)
        assert grad_pos.ravel().tolist() == pytest.approx([x for r in ref_pos for x in r], **close)
        assert grad_neg.ravel().tolist() == pytest.approx([x for r in ref_neg for x in r], **close)
    assert len(losses) == 1  # one conversion: every form gives the same float


def test_loss_of_embedding_tuples_needs_no_conversion():
    positives, negatives = ((1.0, 0.5),), ((0.0, 1.0),)
    anchor = (1.0, 0.0)
    expected = reference_embed_loss([1.0, 0.0], [[1.0, 0.5]], [[0.0, 1.0]])
    assert embed_loss(anchor, positives, negatives) == pytest.approx(expected, rel=1e-12)
    assert embed_loss_grad(anchor, positives, negatives)[1].shape == (1, 2)


# ---------------------------------------------------------------------------
# the input contract of the array entry points

_BANK = np.array([[1.0, 0.0]])
_SETS = {
    "similarity": lambda rows: similarity(rows, _BANK),
    "similarity memory": lambda rows: similarity([[1.0, 0.0]], rows),
    "embed_loss positives": lambda rows: embed_loss([1.0, 0.0], rows, [[0.0, 1.0]]),
    "embed_loss negatives": lambda rows: embed_loss([1.0, 0.0], [[0.0, 1.0]], rows),
    "embed_loss_grad positives": lambda rows: embed_loss_grad([1.0, 0.0], rows, [[0.0, 1.0]]),
    "embed_loss_grad negatives": lambda rows: embed_loss_grad([1.0, 0.0], [[0.0, 1.0]], rows),
}
_ANCHORS = {
    "embed_loss anchor": lambda rows: embed_loss(rows[0], [[1.0, 0.0]], [[0.0, 1.0]]),
    "embed_loss_grad anchor": lambda rows: embed_loss_grad(rows[0], [[1.0, 0.0]], [[0.0, 1.0]]),
}
_NON_REAL_ROWS = [
    [["a", "b"]],
    [[True, False]],
    [[None, 1.0]],
    [[1j, 1.0]],
    [[True, 0.5]],
    np.array([["a", "b"]]),
    np.array([[True, False]]),
    np.array([[None, 1.0]], dtype=object),
    np.array([[1j, 1.0]]),
    [np.array([True, False]), np.array([0.5, 0.0])],
]
_NON_FINITE_ROWS = [[[float("nan"), 0.0]], [[0.0, float("inf")]], np.array([[1.0, -np.inf]])]


@pytest.mark.parametrize("call", _SETS.values(), ids=_SETS)
@pytest.mark.parametrize("rows", [[[1.0, 0.0], [1.0]], [(1.0,), (1.0, 0.0)]])
def test_ragged_rows_raise_dimension_mismatch(call, rows):
    with pytest.raises(ToolkitError, match="share one length"):
        call(rows)


@pytest.mark.parametrize("call", [*_SETS.values(), *_ANCHORS.values()], ids=[*_SETS, *_ANCHORS])
@pytest.mark.parametrize("rows", _NON_REAL_ROWS, ids=range(len(_NON_REAL_ROWS)))
def test_non_real_rows_raise_naming_the_embeddings(call, rows):
    with pytest.raises(ValueError, match="embedding: expected a number"):
        call(rows)


@pytest.mark.parametrize("call", [*_SETS.values(), *_ANCHORS.values()], ids=[*_SETS, *_ANCHORS])
@pytest.mark.parametrize("rows", _NON_FINITE_ROWS, ids=range(len(_NON_FINITE_ROWS)))
def test_non_finite_rows_raise_non_finite_input(call, rows):
    with pytest.raises(ToolkitError, match="embedding entries must be finite"):
        call(rows)


@pytest.mark.parametrize("v", [(1.0, 0.0), [1.0, 0.0], np.array([1.0, 0.0])], ids=["tuple", "list", "array"])
def test_empty_sets_give_zero_loss_and_zero_arrays(v):
    assert embed_loss(v, [], []) == 0.0
    assert embed_loss(v, np.empty((0, 2)), [[1.0, 0.0]]) == 0.0
    grad_v, grad_pos, grad_neg = embed_loss_grad(v, [], [[1.0, 0.0]])
    assert grad_v.tolist() == [0.0, 0.0]
    assert grad_pos.shape == (0, 2)
    assert grad_neg.tolist() == [[0.0, 0.0]]


def test_gradient_suite_bounds():
    worst_rel, worst_abs = gradient_check_suite(samples=30, seed=12)
    assert worst_rel <= 1e-4
    assert worst_abs <= 1e-7


# ---------------------------------------------------------------------------
# the batched loss and finite differences against the one-at-a-time oracles


@st.composite
def wide_loss_inputs(draw):
    dim = draw(st.integers(1, 32))
    row = st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=dim, max_size=dim)
    return draw(row), draw(st.lists(row, max_size=8)), draw(st.lists(row, max_size=8))


@given(wide_loss_inputs())
@settings(max_examples=300, deadline=None)
def test_loss_equals_scalar_oracle_bit_for_bit(inputs):
    """Entries up to 1e3 in up to 32 dimensions, so gaps reach ~6e7 and
    the log-sum-exp shift is taken far from zero as well as at zero."""
    v, pos, neg = inputs
    assert bits(embed_loss(v, pos, neg)) == bits(scalar_embed_loss(v, pos, neg))


_SIZES = [(2, 1, 1), (5, 3, 2), (16, 5, 5), (7, 1, 20), (32, 20, 3), (128, 20, 20)]


@pytest.mark.parametrize("dim,n_pos,n_neg", _SIZES, ids=map(str, _SIZES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_numeric_gradients_equal_the_loop_bit_for_bit(seed, dim, n_pos, n_neg):
    """Every bumped copy in one batched call gives the same bytes as a
    loop that bumps one element of one copy and calls the loss twice."""
    rng = np.random.default_rng(seed)
    v = rng.uniform(-2, 2, dim)
    pos = rng.uniform(-2, 2, (n_pos, dim))
    neg = rng.uniform(-2, 2, (n_neg, dim))
    h = 1e-5
    assert (bits(_gaps(v[None], pos, neg)[0]) == bits(gap_matrix(v, pos, neg))).all()  # embed_loss_grad's gaps
    batched = [
        _numeric_grad(lambda x: _losses(x, pos, neg), v, h),
        _numeric_grad(lambda x: _losses(v[None], x, neg), pos, h),
        _numeric_grad(lambda x: _losses(v[None], pos, x), neg, h),
    ]
    loop = [
        loop_numeric_grad(lambda x: scalar_embed_loss(x, pos, neg), v, h),
        loop_numeric_grad(lambda x: scalar_embed_loss(v, x, neg), pos, h),
        loop_numeric_grad(lambda x: scalar_embed_loss(v, pos, x), neg, h),
    ]
    for got, want in zip(batched, loop):
        assert got.shape == want.shape
        assert (bits(got) == bits(want)).all()


@pytest.mark.parametrize(
    "seed,expected",
    [
        (7, (7.58824920621058e-08, 1.7814673600698226e-10)),
        (0, (6.826158178397618e-08, 1.6841401412554316e-10)),
        (1, (1.1724629443717e-07, 1.692203908398057e-10)),
        (42, (1.0395290857649437e-07, 1.7230645835380858e-10)),
    ],
)
def test_gradient_suite_golden_values(seed, expected):
    """The worst errors of the one-at-a-time loop, recorded before the
    finite differences were batched: any change of rounding shows here,
    since a one-ulp change of the loss moves a difference by 5e4 ulp."""
    assert gradient_check_suite(100, seed) == expected


@pytest.mark.parametrize("samples", [0, -3])
def test_gradient_suite_needs_a_sample(samples):
    with pytest.raises(ValueError, match=f"samples must be at least 1, got {samples}"):
        gradient_check_suite(samples=samples)


@pytest.mark.parametrize("samples", [True, np.bool_(True), 2.5, 2.0, "2", None], ids=repr)
def test_gradient_suite_takes_only_integer_samples(samples):
    with pytest.raises(ValueError, match=f"samples {re.escape(repr(samples))}: expected an integer"):
        gradient_check_suite(samples=samples)


def test_gradient_suite_takes_numpy_integer_samples():
    assert gradient_check_suite(samples=np.int64(3), seed=5) == gradient_check_suite(samples=3, seed=5)

