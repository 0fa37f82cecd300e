"""Exact linear algebra over the rationals.

Matrices are plain lists of lists of ``fractions.Fraction``.  Their sizes
are binomial coefficients C(dim, m) of exterior degrees: up to C(12, 6) =
924 rows and columns for the 12-dimensional algebras that ``MAX_INPUT_N``
admits, where ``harmonic_dim`` in the middle degree of nilm6 (+) nilm6 takes
about a second (0.8 s on a 2-core x86-64 Xeon).  Gaussian elimination with
exact pivots is free of any tolerance questions, and the differentials and
wedge maps behind the matrices are sparse, so ``rref`` works over each
pivot row's nonzero columns only.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[Fraction]]


class SingularMatrixError(ValueError):
    pass


def zeros(rows: int, cols: int) -> Matrix:
    return [[Fraction(0)] * cols for _ in range(rows)]


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("matmul: inner dimensions differ")
    rows, inner = len(a), len(b)
    cols = len(b[0]) if b else 0
    out = zeros(rows, cols)
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            x = ai[k]
            if x:
                bk = b[k]
                for j in range(cols):
                    if bk[j]:
                        oi[j] += x * bk[j]
    return out


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row-echelon form (on a copy) and the pivot column list.

    Pivots are chosen scanning columns left to right, which makes every
    derived basis (rank, nullspace, representatives) deterministic.  Each
    step normalises the pivot row and eliminates the other rows only over
    the pivot row's nonzero columns; the other entries would be left
    unchanged anyway, so entries and pivots are those of whole-row updates.
    The pivot reciprocal is a Fraction, so int input stays exact.
    """
    a = [row[:] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        pivot = a[r]
        inv = Fraction(1) / pivot[c]
        support = [j for j in range(c, cols) if pivot[j]]
        for j in support:
            pivot[j] *= inv
        for i in range(rows):
            row = a[i]
            f = row[c]
            if f and i != r:
                for j in support:
                    row[j] -= f * pivot[j]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def rank(m: Matrix) -> int:
    if not m or not m[0]:
        return 0
    return len(rref(m)[1])


def nullspace(m: Matrix, cols: int | None = None) -> list[list[Fraction]]:
    """Canonical nullspace basis: one vector per free column, in column order."""
    if not m:
        n = cols if cols is not None else 0
        return [unit_vector(n, i) for i in range(n)]
    a, pivots = rref(m)
    n = len(m[0])
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -a[r][fc]
        basis.append(v)
    return basis


def unit_vector(n: int, i: int) -> list[Fraction]:
    v = [Fraction(0)] * n
    v[i] = Fraction(1)
    return v


def inverse(m: Matrix) -> Matrix:
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("inverse: matrix not square")
    aug = [row[:] + unit_vector(n, i) for i, row in enumerate(m)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return [row[n:] for row in red]


def column_stack(*blocks: Matrix) -> Matrix:
    """Concatenate matrices with equal row counts side by side."""
    present = [b for b in blocks if b and b[0]]
    if not present:
        return []
    rows = len(present[0])
    if any(len(b) != rows for b in present):
        raise ValueError("column_stack: row counts differ")
    return [sum((b[i] for b in present), []) for i in range(rows)]
