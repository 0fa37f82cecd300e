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
    image_matrix,
    interior,
    wedge,
    wedge_power,
)
from .polynomials import InputError, _as_fraction, _as_int, check_input_n, decode_json, reading


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
        if self.omega.degrees() - {2}:
            raise ValueError("symplectic form must be a 2-form")

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
    """The Chevalley-Eilenberg differential as the anti-derivation
    d a = sum_g d theta^g ^ i_g a; generators with d theta^g = 0 add nothing."""
    out = Form.zero(form.frame)
    for g, dg in enumerate(cx._dgen):
        if not dg.is_zero:
            out = out + wedge(dg, interior(g, form))
    return out


class CEComplex:
    """Blade bases, exact differential matrices for every degree and the
    Poisson bivector: the inverse of omega's Gram matrix, which exists iff
    omega^n != 0, the one nondegeneracy decision."""

    def __init__(self, alg: LieAlgebra):
        self.alg = alg
        self.frame = alg.frame
        self._dgen = generator_differentials(alg)
        dim = alg.dim
        self.bases = [blade_basis(dim, m) for m in range(dim + 1)]
        # d[m]: matrix of d restricted to degree m (rows: degree m+1 basis)
        self.d = [
            image_matrix(self.frame, [differential(self, b) for b in self._blades(m)], m + 1)
            for m in range(dim + 1)
        ]
        gram = linalg.zeros(dim, dim)
        for mask, coeff in alg.omega.terms.items():
            if mask.bit_count() == 2:
                a, b = (i for i in range(dim) if mask >> i & 1)
                gram[a][b], gram[b][a] = coeff, -coeff
        try:
            self.poisson = linalg.inverse(gram)
        except linalg.SingularMatrixError:
            raise InputError("distinguished 2-form is degenerate: omega^n = 0") from None

    # -- vector/form conversions ------------------------------------------

    def _blades(self, degree: int) -> list[Form]:
        return [Form(self.frame, {mask: Fraction(1)}) for mask in self.bases[degree]]

    def to_form(self, vector, degree: int) -> Form:
        return Form(
            self.frame,
            {m: c for m, c in zip(self.bases[degree], vector) if c},
        )

    # -- the bivector contraction dual to omega ----------------------------

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
        if m < 1:
            return []
        f = self.bivector_contraction
        images = [f(differential(self, b)) - differential(self, f(b)) for b in self._blades(m)]
        return image_matrix(self.frame, images, m - 1)


def build_complex(alg: LieAlgebra) -> CEComplex:
    """Build the complex, rejecting inconsistent or non-symplectic input.

    Validates omega^{dim/2} != 0 (CEComplex inverts omega), then d.d = 0 on
    every degree (Jacobi identity) and d omega = 0.
    """
    cx = CEComplex(alg)
    for m in range(alg.dim - 1):
        prod = linalg.matmul(cx.d[m + 1], cx.d[m])
        if any(any(row) for row in prod):
            raise InputError(
                f"d.d != 0 from degree {m}: structure constants violate Jacobi"
            )
    if not differential(cx, alg.omega).is_zero:
        raise InputError("distinguished 2-form is not closed")
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
    """dim ker d_m - rank d_{m-1}, by exact ranks (d_dim has no rows)."""
    if not 0 <= m <= cx.alg.dim:
        raise ValueError("degree out of range")
    rank_prev = linalg.rank(cx.d[m - 1]) if m >= 1 else 0
    return len(cx.bases[m]) - linalg.rank(cx.d[m]) - rank_prev


def _new_classes(cx: CEComplex, forms, degree: int) -> list[int]:
    """Indices of the closed ``forms`` whose class in H^degree is new given
    the boundaries and the forms before them: the pivot columns of one rref
    of [d_{degree-1} | forms]; exact, no tolerance."""
    boundary = cx.d[degree - 1] if degree >= 1 else []
    width = len(boundary[0]) if boundary else 0
    columns = image_matrix(cx.frame, forms, degree)
    _, pivots = linalg.rref(linalg.column_stack(boundary, columns))
    return [c - width for c in pivots if c >= width]


def cohomology_space(cx: CEComplex, m: int) -> CohomologySpace:
    """Representatives by column-pivot order on the canonical blade basis:
    the canonical closed vectors (the nullspace basis of d_m) whose classes
    are new given the boundaries and the closed vectors before them."""
    if not 0 <= m <= cx.alg.dim:
        raise ValueError("degree out of range")
    closed = [cx.to_form(v, m) for v in linalg.nullspace(cx.d[m], cols=len(cx.bases[m]))]
    reps = tuple(closed[i] for i in _new_classes(cx, closed, m))
    return CohomologySpace(m, len(reps), reps)


def exactness_rank(cx: CEComplex, forms, degree: int) -> int:
    """Dimension of the span of the classes of closed ``forms`` in H^degree."""
    return len(_new_classes(cx, forms, degree))


def lefschetz_map_rank(cx: CEComplex, k: int, j: int) -> int:
    """Rank of the Lefschetz map [a] -> [a ^ omega^j], H^k -> H^{k+2j}."""
    if not (0 <= k and 0 <= j and k + 2 * j <= cx.alg.dim):
        raise ValueError("need 0 <= k, 0 <= j and k + 2j <= dim")
    wj = wedge_power(cx.alg.omega, j)
    images = [wedge(a, wj) for a in cohomology_space(cx, k).representatives]
    return exactness_rank(cx, images, k + 2 * j)


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
    return lefschetz_map_rank(cx, 1, k - 1)


def harmonic_dim(cx: CEComplex, m: int) -> int:
    """Dimension of the symplectically harmonic cohomology in degree m.

    dim(ker d  /\\ ker delta) - dim(im d /\\ ker delta), with
    delta = f.d - d.f built from the bivector dual to omega.
    """
    if not 0 <= m <= cx.alg.dim:
        raise ValueError("degree out of range")
    delta = cx.delta_matrix(m)
    kernel_both = len(cx.bases[m]) - linalg.rank(cx.d[m] + delta)
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

def algebra_from_data(data: dict) -> LieAlgebra:
    with reading():
        dim = _as_int(data["dim"])
        check_input_n(dim // 2, "dim / 2")
        frame = Frame.invariant(dim)
        structure = []
        for row in data.get("d", []):
            if len(row) != 4:
                raise InputError(f"structure row {row!r} needs [i, j, k, c]")
            i, j, k = (_as_int(x) for x in row[:3])
            structure.append((i - 1, j - 1, k - 1, _as_fraction(row[3])))
        omega_terms: dict[int, Fraction] = {}
        for row in data.get("omega", []):
            if len(row) != 3:
                raise InputError(f"omega row {row!r} needs [i, j, c]")
            i, j = _as_int(row[0]), _as_int(row[1])
            if not 1 <= i < j <= dim:
                raise InputError(f"omega pair ({i},{j}) needs 1 <= i < j <= dim")
            mask = (1 << (i - 1)) | (1 << (j - 1))
            omega_terms[mask] = omega_terms.get(mask, Fraction(0)) + _as_fraction(row[2])
        if not omega_terms:
            raise InputError("missing 'omega'")
        return LieAlgebra(dim, tuple(structure), Form(frame, omega_terms))


def parse_algebra(text: str) -> LieAlgebra:
    return algebra_from_data(decode_json(text))


def bundled_algebra_text(name: str) -> str:
    """Raw text of a bundled example ('nilm6' or 'torus6'); byte-stable."""
    fname = name if name.endswith(".alg") else f"{name}.alg"
    return resources.files("symplab.data").joinpath(fname).read_text("utf-8")


def bundled_algebra(name: str) -> LieAlgebra:
    return parse_algebra(bundled_algebra_text(name))
