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

import numpy as np

from . import exterior, linalg
from .exterior import (
    Form,
    Frame,
    blade_basis,
    image_matrix,
    interior,
    wedge,
    wedge_power,
)
from .polynomials import (
    InputError, _as_fraction, _as_int, check_input_n, decode_json, reading, sum_terms,
)


@dataclass(frozen=True)
class LieAlgebra:
    """A Lie algebra given by structure constants plus a symplectic 2-form.

    ``structure`` lists (i, j, k, c) with 0-based i < j, meaning
    d theta^k += c * theta^i ^ theta^j.  The dimension is omega's frame's.
    """

    structure: tuple[tuple[int, int, int, Fraction], ...]
    omega: Form

    def __post_init__(self):
        for i, j, k, _ in self.structure:
            if not (0 <= i < j < self.dim and 0 <= k < self.dim):
                raise ValueError(f"structure triple ({i},{j},{k}) out of range")
        if self.omega.degrees() - {2}:
            raise ValueError("symplectic form must be a 2-form")

    @property
    def frame(self) -> Frame:
        return self.omega.frame

    @property
    def dim(self) -> int:
        return self.omega.frame.dim


def generator_differentials(alg: LieAlgebra) -> list[Form]:
    """d theta^k as a 2-form, for each generator k."""
    return [
        Form(alg.frame, sum_terms(((1 << i) | (1 << j), c) for i, j, g, c in alg.structure if g == k))
        for k in range(alg.dim)
    ]


def differential(cx: CEComplex, form: Form) -> Form:
    """The Chevalley-Eilenberg differential as the anti-derivation
    d a = sum_g d theta^g ^ i_g a; generators with d theta^g = 0 add nothing."""
    return Form(form.frame, sum_terms(
        term
        for g, dg in enumerate(cx._dgen)
        if not dg.is_zero
        for term in wedge(dg, interior(g, form)).terms.items()
    ))


class CEComplex:
    """Blade bases, exact differential matrices for every degree and
    omega's Poisson bivector, whose existence is the one nondegeneracy
    decision; the batch kernels are looked up in :mod:`symplab.exterior`."""

    def __init__(self, alg: LieAlgebra):
        self.alg = alg
        self.frame = alg.frame
        self._dgen = generator_differentials(alg)
        dim = alg.dim
        self.bases = [blade_basis(dim, m) for m in range(dim + 1)]
        # d[m]: matrix of d restricted to degree m (rows: degree m+1 basis)
        self.d = [
            image_matrix(self.frame, [
                differential(self, Form(self.frame, {mask: Fraction(1)})) for mask in self.bases[m]
            ], m + 1)
            for m in range(dim + 1)
        ]
        try:
            self.poisson = tuple(map(tuple, exterior._poisson(alg.omega)))
        except linalg.SingularMatrixError:
            raise InputError("distinguished 2-form is degenerate: omega^n = 0") from None

    def to_form(self, vector, degree: int) -> Form:
        return Form(self.frame, dict(zip(self.bases[degree], vector)))

    # -- the bivector contraction dual to omega and delta -----------------

    def bivector_contraction(self, form: Form) -> Form:
        """f-hat: contraction with the Poisson bivector inverse to omega."""
        image = exterior._contract_batch(exterior._batch(form), self.poisson)
        return exterior._form(self.frame, image)

    def _d_batch(self, degree: int, batch):
        """d on a batch of degree-``degree`` entries, each blade's image
        read off the nonzero entries of its column of d[degree]."""
        rows, masks, coeffs = batch
        images = blade_basis(self.alg.dim, degree + 1)
        columns = dict(zip(self.bases[degree], zip(*self.d[degree])))
        terms = np.array([
            (j, images[i], c)
            for j, m in enumerate(masks.tolist()) for i, c in enumerate(columns.get(m, ())) if c
        ], object).reshape(-1, 3)
        entry = terms[:, 0].astype(np.intp)
        return rows[entry], terms[:, 1].astype(masks.dtype), coeffs[entry] * terms[:, 2]

    def delta_matrix(self, m: int) -> linalg.Matrix:
        """delta = f.d - d.f restricted to degree m (maps to degree m-1), from
        one batch of every degree-m blade, each in the row of its column: d
        read off d[m] and d[m-2], f the contraction kernel."""
        if m < 1:
            return []
        pi, size = self.poisson, len(self.bases[m])
        masks = np.array(self.bases[m], exterior._mask_type(self.frame))
        blades = (np.arange(size), masks, np.ones(size, object))
        terms = [(1, exterior._contract_batch(self._d_batch(m, blades), pi))]
        if m >= 2:
            terms.append((-1, self._d_batch(m - 2, exterior._contract_batch(blades, pi))))
        cols, images, coeffs = exterior._sum(*terms)
        index = {mask: i for i, mask in enumerate(self.bases[m - 1])}
        mat = linalg.zeros(len(index), size)
        for (col, mask), c in sum_terms(zip(zip(cols.tolist(), images.tolist()), coeffs)).items():
            mat[index[mask]][col] = c
        return mat


def build_complex(alg: LieAlgebra) -> CEComplex:
    """Build the complex, rejecting inconsistent or non-symplectic input.

    Validates omega^{dim/2} != 0 (CEComplex inverts omega), then d.d = 0
    (Jacobi) on each theta^k, which suffices as d.d is a derivation, and
    d omega = 0.
    """
    cx = CEComplex(alg)
    if any(not differential(cx, dg).is_zero for dg in cx._dgen):
        raise InputError("d.d != 0 from degree 1: structure constants violate Jacobi")
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
    representatives: tuple[Form, ...]

    @property
    def dimension(self) -> int:
        return len(self.representatives)


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
    return CohomologySpace(m, reps)


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
    # dim(im d_{m-1} /\ ker delta) = rank d_{m-1} - rank(delta d_{m-1})
    prev = cx.d[m - 1] if m else []
    return kernel_both - linalg.rank(prev) + linalg.rank(linalg.matmul(delta, prev))


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
        omega_pairs = []
        for row in data.get("omega", []):
            if len(row) != 3:
                raise InputError(f"omega row {row!r} needs [i, j, c]")
            i, j = _as_int(row[0]), _as_int(row[1])
            if not 1 <= i < j <= dim:
                raise InputError(f"omega pair ({i},{j}) needs 1 <= i < j <= dim")
            mask = (1 << (i - 1)) | (1 << (j - 1))
            omega_pairs.append((mask, _as_fraction(row[2])))
        if not omega_pairs:
            raise InputError("missing 'omega'")
        return LieAlgebra(tuple(structure), Form(frame, sum_terms(omega_pairs)))


def parse_algebra(text: str) -> LieAlgebra:
    return algebra_from_data(decode_json(text))


def bundled_algebra_text(name: str) -> str:
    """Raw text of a bundled example ('nilm6' or 'torus6'); byte-stable."""
    fname = name if name.endswith(".alg") else f"{name}.alg"
    return resources.files("symplab.data").joinpath(fname).read_text("utf-8")


def bundled_algebra(name: str) -> LieAlgebra:
    return parse_algebra(bundled_algebra_text(name))
