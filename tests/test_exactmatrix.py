"""The coordinate-array ExactMatrix against the plain-dict reference
`DictMatrix` of tests/_oracles.py: every operation, on every shape down
to 0 rows or 0 columns, with Fraction entries and ints up to 2^70, and on
int64 operands whose exact results pass 2^63."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syzygy.exactla import ExactMatrix

from _oracles import DictMatrix, column, entry, to_dense, zeros

_EDGE = (2**31, 2**62 + 1, 2**63 - 1, -(2**63), -(2**62) - 3)
_VALUES = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
    st.integers(-(2**70), 2**70),
    st.sampled_from(_EDGE))
# int64 operands only, so that the overflow bound decides the dtype
_INT64_VALUES = st.one_of(st.integers(-3, 3), st.sampled_from(_EDGE))


@st.composite
def _pairs(draw, rows=None, cols=None, values=_VALUES):
    """(ExactMatrix, DictMatrix) of the same entries, built from a
    (rows, cols, values) triple with repeated coordinates, some of which
    cancel to zero."""
    rows = draw(st.integers(0, 4)) if rows is None else rows
    cols = draw(st.integers(0, 4)) if cols is None else cols
    n = draw(st.integers(0, 10)) if rows and cols else 0
    r = [draw(st.integers(0, rows - 1)) for _ in range(n)]
    c = [draw(st.integers(0, cols - 1)) for _ in range(n)]
    v = [draw(values) for _ in range(n)]
    for k in draw(st.lists(st.integers(0, n - 1), max_size=3)) if n else ():
        r.append(r[k])
        c.append(c[k])
        v.append(-v[k])
    summed = {}
    for key, x in zip(zip(r, c), v):
        summed[key] = summed.get(key, 0) + x
    return ExactMatrix(rows, cols, (r, c, v)), DictMatrix(rows, cols, summed)


def _same(m, d):
    """m and the reference d agree on every accessor, value types included."""
    assert m.shape == d.shape
    assert repr(sorted(m.items())) == repr(sorted(d.items()))
    assert m.nnz == len(d.items())
    assert repr(to_dense(m)) == repr(d.to_dense())
    for c in range(m.cols):
        assert repr(column(m, c)) == repr(d.column(c))
        for r in range(m.rows):
            assert repr(entry(m, r, c)) == repr(d.entry(r, c))
    assert m == ExactMatrix(m.rows, m.cols, dict(d.items()))


_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


@_SETTINGS
@given(_pairs())
def test_constructor_matches_reference(pair):
    m, d = pair
    _same(m, d)
    _same(ExactMatrix(m.rows, m.cols, dict(d.items())), d)
    _same(m.transpose(), d.transpose())
    dense = d.to_dense()
    _same(ExactMatrix.from_rows(dense), DictMatrix.from_rows(dense))
    columns = [d.column(c) for c in range(d.cols)]
    _same(ExactMatrix.from_columns(columns, d.rows),
          DictMatrix.from_columns(columns, d.rows))


@st.composite
def _products(draw, values=_VALUES):
    m, k, n = (draw(st.integers(0, 4)) for _ in range(3))
    return (draw(_pairs(m, k, values)), draw(_pairs(k, n, values)),
            draw(_pairs(m, k, values)))


@_SETTINGS
@given(st.one_of(_products(), _products(_INT64_VALUES)),
       st.one_of(st.integers(-3, 3), st.sampled_from(_EDGE),
                 st.fractions(min_value=-3, max_value=3, max_denominator=4)))
def test_operations_match_reference(case, a):
    (m1, d1), (m2, d2), (m3, d3) = case
    _same(m1 @ m2, d1 @ d2)
    _same(m1.kron(m3), d1.kron(d3))
    _same(m1 + m3, d1 + d3)
    _same(m1 - m3, d1 - d3)
    _same(m1.scaled(a), d1.scaled(a))
    _same(ExactMatrix.hstack([m1, m3, m1]), DictMatrix.hstack([d1, d3, d1]))
    for x, y, dx, dy in ((m1, m3, d1, d3), (m1, m1.scaled(1), d1, d1)):
        assert (x == y) == (not (dx - dy).entries) == (not y != x)


@_SETTINGS
@given(_products())
def test_kept_column_starts_and_bound(case):
    # a product reads both operands' column starts and largest magnitude,
    # found once per matrix and kept for the next product
    (m1, d1), (m2, d2), _ = case
    for m, d in ((m1, d1), (m2, d2)):
        counts = [sum(c == k for _, c in d.entries) for k in range(d.cols)]
        assert m.starts.tolist() == [sum(counts[:k]) for k in range(d.cols + 1)]
        assert m.bound == max((abs(v) for v in d.entries.values()), default=0)
    _same(m1 @ m2, d1 @ d2)
    assert m1.starts is m1.starts
    _same(m1 @ m2, d1 @ d2)


def test_shape_errors_match_reference():
    a, b = zeros(2, 3), zeros(2, 2)
    with pytest.raises(ValueError):
        a @ b
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        ExactMatrix.hstack([a, zeros(3, 1)])
    with pytest.raises(ValueError):
        ExactMatrix(2, 2, ([0, 2], [0, 0], [1, 1]))
    with pytest.raises(ValueError):
        ExactMatrix(-1, 2)
    assert a != b


def test_accessors_reject_indices_out_of_range():
    # as the constructor rejects such coordinates, and no index wraps
    m = ExactMatrix.from_rows([[1, 2], [3, 4]])
    for r, c in ((5, 0), (0, 7), (-1, 0), (0, -1), (2, 1)):
        with pytest.raises(IndexError):
            entry(m, r, c)
    for c in (9, -1, 2):
        with pytest.raises(IndexError):
            column(m, c)
    assert entry(m, 1, 0) == 3 and column(m, 1) == [2, 4] and column(zeros(0, 2), 1) == []


def test_int64_operands_with_results_beyond_int64():
    big = [[2**62, 2**62 - 1], [-(2**63), 5]]
    other = [[3, 2**40], [2**62, -7]]
    a, b = ExactMatrix.from_rows(big), ExactMatrix.from_rows(other)
    assert a.val.dtype == b.val.dtype == np.int64
    da, db = DictMatrix.from_rows(big), DictMatrix.from_rows(other)
    prod = a @ b
    assert prod.val.dtype == object
    assert max(abs(v) for _, v in prod.items()) > 2**100
    _same(prod, da @ db)
    _same(a.kron(b), da.kron(db))
    _same(a + a, da + da)
    _same(a - b.scaled(2**62), da - db.scaled(2**62))
    _same(a.scaled(-1), da.scaled(-1))
    assert (a - a).is_zero() and (a - a).val.dtype == np.int64
    # a sum that cancels back into int64 range returns to int64
    back = (a + a) - a
    assert back == a and back.val.dtype == np.int64


def test_accessors_yield_python_ints_and_fractions():
    small = ExactMatrix.from_rows([[1, 0, -2], [0, 3, 0]])
    mixed = ExactMatrix.from_rows([[Fraction(1, 2), 0, 2**70], [0, 3, 0]])
    assert small.val.dtype == np.int64 and mixed.val.dtype == object
    for m in (small, mixed):
        values = [v for _, v in m.items()]
        values += [entry(m, r, c) for r in range(m.rows) for c in range(m.cols)]
        values += [v for c in range(m.cols) for v in column(m, c)]
        values += [v for row in to_dense(m) for v in row]
        assert all(type(v) in (int, Fraction) for v in values)
        assert all(type(i) is int for (r, c), _ in m.items() for i in (r, c))
        assert all(type(i) is int for i in m.shape)
