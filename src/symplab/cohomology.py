"""Invariant cohomology of nilpotent Lie algebras with a symplectic form.

The complex of invariant forms is the exterior algebra on the dual basis
theta^1..theta^{2n} with the differential determined by the structure
constants, d theta^k = sum_{i<j} c^k_{ij} theta^i ^ theta^j, extended as an
anti-derivation.  For a nilmanifold G/Gamma this complex computes the de Rham
cohomology, so Betti numbers, Lefschetz ranks, Euler-Lagrange dimensions and
symplectically harmonic dimensions are all exact rational rank computations.

Sign decision: the codifferential is fixed as delta = f.d - d.f where f is
the bivector contraction dual to the given symplectic form.  The opposite
convention only flips delta's sign and changes none of the dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from . import linalg
from .exterior import (
    Form,
    Frame,
    blade_basis,
    contraction_sign,
    interior,
    wedge,
    wedge_power,
)
from .polynomials import InputError, _as_fraction, _as_int, check_input_n, decode_json, reading


class StructureError(InputError):
    """The presented structure constants do not define a Lie algebra."""


class SymplecticError(InputError):
    """The distinguished 2-form is not closed or is degenerate."""


@dataclass(frozen=True)
class LieAlgebra:
    """A Lie algebra given by structure constants plus a symplectic 2-form.

    ``structure`` lists (i, j, k, c) with 0-based i < j, meaning
    d theta^k += c * theta^i ^ theta^j.
    """

    dim: int
    structure: tuple[tuple[int, int, int, Fraction], ...]
    omega: Form

    def __post_init__(self):
        if self.dim < 2 or self.dim % 2:
            raise ValueError("algebra dimension must be even and >= 2")
        for i, j, k, _ in self.structure:
            if not (0 <= i < j < self.dim and 0 <= k < self.dim):
                raise ValueError(f"structure triple ({i},{j},{k}) out of range")
        if self.omega.frame.dim != self.dim:
            raise ValueError("symplectic form frame does not match dimension")

    @property
    def frame(self) -> Frame:
        return self.omega.frame


def generator_differentials(alg: LieAlgebra) -> list[Form]:
    """d theta^k as a 2-form, for each generator k."""
    frame = alg.frame
    dgen = [dict() for _ in range(alg.dim)]
    for i, j, k, c in alg.structure:
        mask = (1 << i) | (1 << j)
        dgen[k][mask] = dgen[k].get(mask, Fraction(0)) + c
    return [Form(frame, t) for t in dgen]


def differential(cx: CEComplex, form: Form) -> Form:
    """The Chevalley-Eilenberg differential, extended as an anti-derivation."""
    frame = form.frame
    out = Form.zero(frame)
    for mask, coeff in form.terms.items():
        pos = 0
        for g in range(frame.dim):
            if mask >> g & 1:
                rest = Form(frame, {mask ^ (1 << g): coeff})
                term = wedge(cx._dgen[g], rest)
                out = out + (term if pos % 2 == 0 else -term)
                pos += 1
    return out


class CEComplex:
    """Blade bases and exact differential matrices for every degree."""

    def __init__(self, alg: LieAlgebra):
        self.alg = alg
        self.frame = alg.frame
        self._dgen = generator_differentials(alg)
        dim = alg.dim
        self.bases = [blade_basis(dim, m) for m in range(dim + 1)]
        self._index = [
            {mask: i for i, mask in enumerate(basis)} for basis in self.bases
        ]
        # d[m]: matrix of d restricted to degree m (rows: degree m+1 basis)
        self.d = []
        for m in range(dim + 1):
            rows = len(self.bases[m + 1]) if m < dim else 0
            mat = linalg.zeros(rows, len(self.bases[m]))
            if m < dim:
                for col, mask in enumerate(self.bases[m]):
                    image = differential(self, Form(self.frame, {mask: Fraction(1)}))
                    for bm, c in image.terms.items():
                        mat[self._index[m + 1][bm]][col] = c
            self.d.append(mat)
        self._poisson = None

    # -- vector/form conversions ------------------------------------------

    def to_vector(self, form: Form, degree: int) -> list[Fraction]:
        v = [Fraction(0)] * len(self.bases[degree])
        for mask, coeff in form.terms.items():
            v[self._index[degree][mask]] = coeff
        return v

    def to_form(self, vector, degree: int) -> Form:
        return Form(
            self.frame,
            {m: c for m, c in zip(self.bases[degree], vector) if c},
        )

    # -- the bivector contraction dual to omega ----------------------------

    @property
    def poisson(self) -> linalg.Matrix:
        """Inverse of the Gram matrix of omega (exists: omega nondegenerate)."""
        if self._poisson is None:
            dim = self.alg.dim
            gram = linalg.zeros(dim, dim)
            for mask, coeff in self.alg.omega.terms.items():
                bits = [i for i in range(dim) if mask >> i & 1]
                a, b = bits
                gram[a][b] = coeff
                gram[b][a] = -coeff
            try:
                self._poisson = linalg.inverse(gram)
            except linalg.SingularMatrixError:
                raise SymplecticError("symplectic form is degenerate") from None
        return self._poisson

    def bivector_contraction(self, form: Form) -> Form:
        """f-hat: contraction with the Poisson bivector inverse to omega."""
        p = self.poisson
        dim = self.alg.dim
        out = Form.zero(self.frame)
        for a in range(dim):
            for b in range(a + 1, dim):
                if p[a][b]:
                    out = out + p[a][b] * interior(a, interior(b, form))
        return out

    def delta_matrix(self, m: int) -> linalg.Matrix:
        """delta = f.d - d.f restricted to degree m (maps to degree m-1)."""
        rows = len(self.bases[m - 1]) if m >= 1 else 0
        mat = linalg.zeros(rows, len(self.bases[m]))
        if m < 1:
            return mat
        for col, mask in enumerate(self.bases[m]):
            b = Form(self.frame, {mask: Fraction(1)})
            image = self.bivector_contraction(differential(self, b))
            if m >= 2:
                image = image - differential(self, self.bivector_contraction(b))
            for bm, c in image.terms.items():
                mat[self._index[m - 1][bm]][col] = c
        return mat


def build_complex(alg: LieAlgebra) -> CEComplex:
    """Build the complex, rejecting inconsistent or non-symplectic input.

    Validates d.d = 0 on every degree (Jacobi identity), d omega = 0 and
    omega^{dim/2} != 0.
    """
    cx = CEComplex(alg)
    for m in range(alg.dim - 1):
        prod = linalg.matmul(cx.d[m + 1], cx.d[m])
        if any(any(row) for row in prod):
            raise StructureError(
                f"d.d != 0 from degree {m}: structure constants violate Jacobi"
            )
    if not differential(cx, alg.omega).is_zero:
        raise SymplecticError("distinguished 2-form is not closed")
    if wedge_power(alg.omega, alg.dim // 2).is_zero:
        raise SymplecticError("distinguished 2-form is degenerate: omega^n = 0")
    return cx


# ---------------------------------------------------------------------------
# dimensions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CohomologySpace:
    """A cohomology space in one degree with chosen closed representatives."""

    degree: int
    dimension: int
    representatives: tuple[Form, ...]


def betti(cx: CEComplex, m: int) -> int:
    """dim ker d_m - rank d_{m-1}, by exact ranks."""
    if not 0 <= m <= cx.alg.dim:
        raise ValueError("degree out of range")
    dim_m = len(cx.bases[m])
    rank_dm = linalg.rank(cx.d[m]) if m < cx.alg.dim else 0
    rank_prev = linalg.rank(cx.d[m - 1]) if m >= 1 else 0
    return dim_m - rank_dm - rank_prev


def cohomology_space(cx: CEComplex, m: int) -> CohomologySpace:
    """Representatives by column-pivot order on the canonical blade basis.

    One rref of [d_{m-1} | closed]: a closed vector is kept exactly when its
    column is a pivot, i.e. when its class is new given the boundaries and
    the closed vectors before it in basis order.  Their count is the
    dimension: rank [d_{m-1} | closed] - rank d_{m-1}.
    """
    if not 0 <= m <= cx.alg.dim:
        raise ValueError("degree out of range")
    closed = (
        linalg.nullspace(cx.d[m], cols=len(cx.bases[m]))
        if m < cx.alg.dim
        else [linalg.unit_vector(len(cx.bases[m]), i) for i in range(len(cx.bases[m]))]
    )
    reps = []
    if closed:
        boundary = cx.d[m - 1] if m >= 1 else []
        width = len(boundary[0]) if boundary else 0
        _, pivots = linalg.rref(linalg.column_stack(boundary, _vectors_as_columns(closed)))
        reps = [cx.to_form(closed[c - width], m) for c in pivots if c >= width]
    return CohomologySpace(m, len(reps), tuple(reps))


def _vectors_as_columns(vectors) -> linalg.Matrix:
    if not vectors:
        return []
    rows = len(vectors[0])
    return [[v[r] for v in vectors] for r in range(rows)]


def exactness_rank(cx: CEComplex, forms, degree: int) -> int:
    """Dimension of the span of the classes of closed ``forms`` in H^degree.

    Decided by augmenting the column space of d_{degree-1} and comparing
    ranks; exact, no tolerance.
    """
    boundary = cx.d[degree - 1] if degree >= 1 else []
    vecs = [cx.to_vector(f, degree) for f in forms]
    base_rank = linalg.rank(boundary)
    full = linalg.column_stack(boundary, _vectors_as_columns(vecs))
    return linalg.rank(full) - base_rank


def is_exact(cx: CEComplex, form: Form, degree: int) -> bool:
    return exactness_rank(cx, [form], degree) == 0


def lefschetz_rank(cx: CEComplex, k: int) -> int:
    """Rank of the cup product map [a] -> [a ^ omega^{k-1}], H^1 -> H^{2k-1}."""
    n = cx.alg.dim // 2
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
    h1 = [cx.to_form(v, 1) for v in linalg.nullspace(cx.d[1], cols=cx.alg.dim)]
    wk = wedge_power(cx.alg.omega, k - 1)
    wedged = [wedge(a, wk) for a in h1]
    return exactness_rank(cx, wedged, 2 * k - 1)


def el_dim(cx: CEComplex, k: int) -> int:
    """Dimension of the degree-(2k-1) Euler-Lagrange cohomology.

    For k < n this is the rank of the Lefschetz map out of H^1 (the first
    Euler-Lagrange group maps onto the k-th one, and its image in de Rham
    cohomology is the cup product with omega^{k-1}); for k = n it equals the
    (2n-1)-st Betti number.
    """
    n = cx.alg.dim // 2
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if k == n:
        return betti(cx, 2 * n - 1)
    return lefschetz_rank(cx, k)


def harmonic_dim(cx: CEComplex, m: int) -> int:
    """Dimension of the symplectically harmonic cohomology in degree m.

    dim(ker d  /\\ ker delta) - dim(im d /\\ ker delta), with
    delta = f.d - d.f built from the bivector dual to omega.
    """
    if not 0 <= m <= cx.alg.dim:
        raise ValueError("degree out of range")
    dmat = cx.d[m] if m < cx.alg.dim else []
    delta = cx.delta_matrix(m)
    ncols = len(cx.bases[m])
    stacked = dmat + delta
    kernel_both = len(linalg.nullspace(stacked, cols=ncols))
    # im d_{m-1} intersect ker delta: restrict delta to the column space
    if m == 0:
        exact_harmonic = 0
    else:
        prev = cx.d[m - 1]
        exact_harmonic = linalg.rank(prev) - linalg.rank(linalg.matmul(delta, prev))
    return kernel_both - exact_harmonic


# ---------------------------------------------------------------------------
# presentations: files and bundled examples
# ---------------------------------------------------------------------------

class AlgebraFileError(InputError):
    """Malformed Lie-algebra spec file."""


def algebra_from_data(data: dict) -> LieAlgebra:
    with reading(AlgebraFileError):
        dim = _as_int(data["dim"])
        check_input_n(dim // 2, "dim / 2")
        frame = Frame.invariant(dim)
        structure = []
        for row in data.get("d", []):
            if len(row) != 4:
                raise AlgebraFileError(f"structure row {row!r} needs [i, j, k, c]")
            i, j, k = (_as_int(x) for x in row[:3])
            structure.append((i - 1, j - 1, k - 1, _as_fraction(row[3])))
        omega_terms: dict[int, Fraction] = {}
        for row in data.get("omega", []):
            if len(row) != 3:
                raise AlgebraFileError(f"omega row {row!r} needs [i, j, c]")
            i, j = _as_int(row[0]), _as_int(row[1])
            if not 1 <= i < j <= dim:
                raise AlgebraFileError(f"omega pair ({i},{j}) needs 1 <= i < j <= dim")
            mask = (1 << (i - 1)) | (1 << (j - 1))
            omega_terms[mask] = omega_terms.get(mask, Fraction(0)) + _as_fraction(row[2])
        if not omega_terms:
            raise AlgebraFileError("missing 'omega'")
        return LieAlgebra(dim, tuple(structure), Form(frame, omega_terms))


def parse_algebra(text: str) -> LieAlgebra:
    return algebra_from_data(decode_json(text, AlgebraFileError))


def bundled_algebra_text(name: str) -> str:
    """Raw text of a bundled example ('nilm6' or 'torus6'); byte-stable."""
    fname = name if name.endswith(".alg") else f"{name}.alg"
    return resources.files("symplab.data").joinpath(fname).read_text("utf-8")


def bundled_algebra(name: str) -> LieAlgebra:
    return parse_algebra(bundled_algebra_text(name))
