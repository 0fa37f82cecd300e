"""Computations made apart from symplab, against which its outputs are checked.

Nothing here imports the package.  Blades are bitmasks over the generators
and every sign is the parity of the sorting permutation, counted afresh;
ranks and nullspaces are sympy's exact ones over QQ; polynomial forms carry
sympy polynomials over QQ.  The symplectic form follows the package's documented
convention omega = sum_i dp_i ^ dq^i over the frame order q^1..q^n, p_1..p_n.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import sympy
from sympy import QQ
from sympy.polys.matrices import DomainMatrix


# ---------------------------------------------------------------------------
# constant-coefficient exterior algebra
# ---------------------------------------------------------------------------

def bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def merge_sign(a: int, b: int) -> int:
    """Sign of a ^ b for disjoint ascending blades: (-1)^(#pairs i in a > j in b)."""
    inversions = sum(1 for i in bits(a) for j in bits(b) if i > j)
    return -1 if inversions % 2 else 1


def wedge(x: dict, y: dict) -> dict:
    out: dict = {}
    for ma, ca in x.items():
        for mb, cb in y.items():
            if ma & mb:
                continue
            key = ma | mb
            out[key] = out.get(key, 0) + merge_sign(ma, mb) * ca * cb
    return {k: v for k, v in out.items() if v}


def wedge_power(x: dict, k: int) -> dict:
    acc = {0: Fraction(1)}
    for _ in range(k):
        acc = wedge(acc, x)
    return acc


def basis(dim: int, degree: int) -> list[int]:
    return [sum(1 << i for i in c) for c in combinations(range(dim), degree)]


def omega_darboux(n: int) -> dict:
    return {(1 << i) | (1 << (n + i)): Fraction(-1) for i in range(n)}


def generator_differentials(dim: int, structure) -> list[dict]:
    """d theta^k = sum c theta^i ^ theta^j over 1-based rows (i, j, k, c), i < j."""
    dgen = [dict() for _ in range(dim)]
    for i, j, k, c in structure:
        mask = (1 << (i - 1)) | (1 << (j - 1))
        dgen[k - 1][mask] = dgen[k - 1].get(mask, 0) + Fraction(c)
    return dgen


def differential(form: dict, dgen: list[dict]) -> dict:
    """Anti-derivation: d(t1^...^tm) = sum_s (-1)^s t1^..^d(ts)^..^tm."""
    out: dict = {}
    for mask, coeff in form.items():
        gens = bits(mask)
        for s, g in enumerate(gens):
            before = sum(1 << x for x in gens[:s])
            after = sum(1 << x for x in gens[s + 1:])
            term = wedge(wedge({before: Fraction(1)}, dgen[g]), {after: Fraction(1)})
            for key, c in term.items():
                out[key] = out.get(key, 0) + (-1) ** s * coeff * c
    return {k: v for k, v in out.items() if v}


def _qq(value) -> QQ:
    f = Fraction(value)
    return QQ(f.numerator, f.denominator)


def matrix(columns: list[dict], row_basis: list[int]) -> DomainMatrix:
    """Matrix whose columns are the given forms in the blade basis ``row_basis``."""
    index = {m: r for r, m in enumerate(row_basis)}
    rows = [[QQ(0)] * len(columns) for _ in row_basis]
    for c, form in enumerate(columns):
        for mask, coeff in form.items():
            rows[index[mask]][c] = _qq(coeff)
    return DomainMatrix(rows, (len(row_basis), len(columns)), QQ)


def rank(mat: DomainMatrix) -> int:
    rows, cols = mat.shape
    return mat.rank() if rows and cols else 0


class Complex:
    """The Chevalley-Eilenberg complex rebuilt from structure constants."""

    def __init__(self, dim: int, structure):
        self.dim = dim
        self.dgen = generator_differentials(dim, structure)
        self.bases = [basis(dim, m) for m in range(dim + 1)]
        self.d = [
            matrix(
                [differential({mask: Fraction(1)}, self.dgen) for mask in self.bases[m]],
                self.bases[m + 1] if m < dim else [],
            )
            for m in range(dim + 1)
        ]
        self.ranks = [rank(d) for d in self.d]

    def betti(self) -> list[int]:
        return [
            len(self.bases[m]) - self.ranks[m] - (self.ranks[m - 1] if m else 0)
            for m in range(self.dim + 1)
        ]

    def class_rank(self, forms: list[dict], degree: int) -> int:
        """Dimension of the span of the classes of closed ``forms`` in H^degree."""
        vecs = matrix(forms, self.bases[degree])
        if degree == 0:
            return rank(vecs)
        boundary = self.d[degree - 1]
        both = boundary.hstack(vecs) if boundary.shape[1] else vecs
        return rank(both) - self.ranks[degree - 1]

    def closed_one_forms(self) -> list[dict]:
        null = self.d[1].nullspace().to_Matrix()
        return [
            {mask: Fraction(int(v.p), int(v.q)) for mask, v in zip(self.bases[1], row) if v}
            for row in null.tolist()
        ]

    def lefschetz_rank(self, omega: dict, k: int) -> int:
        """Rank of [a] -> [a ^ omega^(k-1)] from H^1 to H^(2k-1)."""
        wk = wedge_power(omega, k - 1)
        return self.class_rank([wedge(a, wk) for a in self.closed_one_forms()], 2 * k - 1)

    def is_closed(self, form: dict) -> bool:
        return not differential(form, self.dgen)


def kunneth(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def torus_betti(dim: int) -> list[int]:
    return [math.comb(dim, m) for m in range(dim + 1)]


# ---------------------------------------------------------------------------
# forms with polynomial coefficients (sympy polynomials over QQ)
# ---------------------------------------------------------------------------

def coords(n: int):
    return sympy.symbols(" ".join([f"q{i + 1}" for i in range(n)] + [f"p{i + 1}" for i in range(n)]))


def poly(terms: dict, syms) -> sympy.Poly:
    """{exponent tuple: rational} -> sympy polynomial over QQ."""
    return sympy.Poly.from_dict({e: _qq(c) for e, c in terms.items()}, *syms, domain=QQ)


def constant(value, syms) -> sympy.Poly:
    return sympy.Poly.from_dict({(0,) * len(syms): _qq(value)}, *syms, domain=QQ)


def _nonzero(form: dict) -> dict:
    return {k: v for k, v in form.items() if not v.is_zero}


def sym_d(form: dict, syms) -> dict:
    """Exterior derivative of {mask: polynomial} by formal partials."""
    out: dict = {}
    for mask, c in form.items():
        for v, x in enumerate(syms):
            if mask >> v & 1:
                continue
            dc = c.diff(x)
            if dc.is_zero:
                continue
            key = mask | (1 << v)
            term = dc if merge_sign(1 << v, mask) > 0 else -dc
            out[key] = out[key] + term if key in out else term
    return _nonzero(out)


def sym_interior(field: list, form: dict) -> dict:
    """i_X of {mask: polynomial}; removing generator j costs (-1)^(#below j)."""
    out: dict = {}
    for mask, c in form.items():
        for j in bits(mask):
            key = mask ^ (1 << j)
            term = field[j] * c
            if bin(mask & ((1 << j) - 1)).count("1") % 2:
                term = -term
            out[key] = out[key] + term if key in out else term
    return _nonzero(out)


def hamiltonian_components(h: sympy.Poly, syms, n: int) -> list:
    """Canonical equations: dq/dt = dH/dp, dp/dt = -dH/dq."""
    q, p = syms[:n], syms[n:]
    return [h.diff(x) for x in p] + [-h.diff(x) for x in q]


# ---------------------------------------------------------------------------
# chains and flows
# ---------------------------------------------------------------------------

def omega_pair(u, v, n: int) -> Fraction:
    """omega(u, v) for omega = sum dp_i ^ dq^i."""
    return sum(u[n + i] * v[i] - u[i] * v[n + i] for i in range(n))


def pfaffian(a: list[list[Fraction]]) -> Fraction:
    size = len(a)
    if size == 0:
        return Fraction(1)
    total = Fraction(0)
    rest = list(range(1, size))
    for pos, j in enumerate(rest):
        if a[0][j]:
            keep = [r for r in rest if r != j]
            minor = [[a[r][c] for c in keep] for r in keep]
            total += (-1) ** pos * a[0][j] * pfaffian(minor)
    return total


def affine_patch_value(axes, n: int) -> Fraction:
    """(1/l!) int omega^l over origin + sum u_j axes[j], u in [0,1]^(2l):
    the Pfaffian of the Gram matrix omega(axes_i, axes_j)."""
    gram = [[omega_pair(u, v, n) for v in axes] for u in axes]
    return pfaffian(gram)


def rk4(rhs, x0: list[float], t_final: float, steps: int) -> list[float]:
    """Plain fixed-step RK4 in double precision."""
    h = t_final / steps
    x = list(x0)
    for _ in range(steps):
        k1 = rhs(x)
        k2 = rhs([a + h / 2 * b for a, b in zip(x, k1)])
        k3 = rhs([a + h / 2 * b for a, b in zip(x, k2)])
        k4 = rhs([a + h * b for a, b in zip(x, k3)])
        x = [a + h / 6 * (b + 2 * c + 2 * d + e) for a, b, c, d, e in zip(x, k1, k2, k3, k4)]
    return x


def det(mat: list[list[Fraction]]) -> Fraction:
    size = len(mat)
    value = DomainMatrix([[_qq(x) for x in row] for row in mat], (size, size), QQ).det()
    return Fraction(int(value.numerator), int(value.denominator))
