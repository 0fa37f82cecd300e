from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from symplab import linalg

from oracles import sympy_rank

fractions = st.builds(
    Fraction, st.integers(-6, 6), st.integers(1, 4)
)


def mat(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_rank_hand_cases():
    assert linalg.rank(mat([[1, 2], [2, 4]])) == 1
    assert linalg.rank(mat([[1, 0], [0, 1]])) == 2
    assert linalg.rank([]) == 0
    assert linalg.rank(mat([[0, 0], [0, 0]])) == 0


def test_nullspace_canonical():
    ns = linalg.nullspace(mat([[1, 2, 3]]))
    assert len(ns) == 2
    for v in ns:
        assert sum(c * x for c, x in zip(mat([[1, 2, 3]])[0], v)) == 0
    # empty matrix: nullspace is the whole space
    assert len(linalg.nullspace([], cols=3)) == 3


def test_inverse_roundtrip():
    m = mat([[2, 1], [1, 1]])
    inv = linalg.inverse(m)
    assert linalg.matmul(m, inv) == linalg.identity(2)
    with pytest.raises(linalg.SingularMatrixError):
        linalg.inverse(mat([[1, 2], [2, 4]]))


def test_int_input_stays_exact():
    # the pivot reciprocal is a Fraction, so int entries never turn into
    # floats
    def exact(rows):
        return all(type(x) is Fraction for row in rows for x in row)

    red, pivots = linalg.rref([[3, 1]])
    assert (red, pivots) == ([[1, Fraction(1, 3)]], [0]) and exact(red)
    ns = linalg.nullspace([[3, 1]])
    assert ns == [[Fraction(-1, 3), 1]] and exact(ns)
    inv = linalg.inverse([[2, 0], [0, 1]])
    assert inv == [[Fraction(1, 2), 0], [0, 1]] and exact(inv)


def test_column_stack():
    a = mat([[1], [2]])
    b = mat([[3], [4]])
    assert linalg.column_stack(a, b) == mat([[1, 3], [2, 4]])
    assert linalg.column_stack([], a) == a


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.data(),
)
def test_rank_matches_sympy(rows, cols, data):
    m = [
        [data.draw(fractions) for _ in range(cols)]
        for _ in range(rows)
    ]
    assert linalg.rank(m) == sympy_rank(m)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.data())
def test_nullspace_dimension_matches_rank(ncols, data):
    m = [
        [data.draw(fractions) for _ in range(ncols)]
        for _ in range(data.draw(st.integers(1, 4)))
    ]
    ns = linalg.nullspace(m)
    assert len(ns) == ncols - linalg.rank(m)
    for v in ns:
        for row in m:
            assert sum(c * x for c, x in zip(row, v)) == 0


# sparse entries: two draws in three are zero, and whole rows and columns
# are zeroed on top of that
sparse_entries = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), fractions)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 7), st.integers(0, 7), st.data())
def test_rref_matches_sympy(rows, cols, data):
    import sympy

    zero_rows = data.draw(st.sets(st.integers(0, max(rows - 1, 0))))
    zero_cols = data.draw(st.sets(st.integers(0, max(cols - 1, 0))))
    m = [
        [Fraction(0) if i in zero_rows or j in zero_cols else data.draw(sparse_entries)
         for j in range(cols)]
        for i in range(rows)
    ]
    before = [row[:] for row in m]
    reduced, pivots = linalg.rref(m)
    want, want_pivots = sympy.Matrix(rows, cols, [x for row in m for x in row]).rref()
    assert m == before  # rref works on a copy
    assert pivots == list(want_pivots)
    assert reduced == [
        [Fraction(int(x.p), int(x.q)) for x in want.row(i)] for i in range(rows)
    ]
    assert linalg.rank(m) == len(want_pivots)
