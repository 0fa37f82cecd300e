"""Exact exterior algebra over a 2n-dimensional symplectic frame.

Conventions, fixed once and tested:

* A frame has 2n ordered generators.  For a Darboux frame the order is
  dq^1 < ... < dq^n < dp_1 < ... < dp_n; generator index i < n is dq^{i+1}
  and index n+i is dp_{i+1}.
* ``Frame.coordinates`` are the generator names without their leading d;
  polynomial coefficients print in them.
* A blade is a bitmask over the generators, read in ascending order.  For
  disjoint blades, a ^ b has sign (-1)^(pairs i in a, j in b with i > j),
  counted as popcount(a & _above(b)); for dx_j ^ b it is
  ``contraction_sign(b, j)``, which signs i_j and d as well.
* The symplectic form is stored from the local formula omega = dp_i ^ dq^i,
  i.e. with coefficient -1 on each canonical blade dq^i ^ dp_i.
* Coefficients are exact: ``fractions.Fraction`` for constant forms, or any
  ring element supporting +, -, * and truth testing (the polynomial
  coefficients of :mod:`symplab.fields` plug in unchanged).

Everything is immutable after construction and every operation is a pure
function, so values can be shared freely across threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np

from . import linalg
from .polynomials import Poly, format_poly, sum_terms


@dataclass(frozen=True)
class Frame:
    """An ordered basis of 2n covector generators.

    ``darboux`` frames carry the symplectic pairing used by ``omega`` and the
    sl(2) operators; ``invariant`` frames name the dual basis of a Lie
    algebra and have no preferred pairing.
    """

    n: int
    names: tuple[str, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("frame needs n >= 1")
        if len(self.names) != 2 * self.n:
            raise ValueError("frame needs exactly 2n generators")

    @classmethod
    def darboux(cls, n: int) -> "Frame":
        names = tuple(f"dq{i + 1}" for i in range(n)) + tuple(
            f"dp{i + 1}" for i in range(n)
        )
        return cls(n, names)

    @classmethod
    def invariant(cls, dim: int) -> "Frame":
        if dim < 2 or dim % 2:
            raise ValueError("invariant frame needs even dimension >= 2")
        return cls(dim // 2, tuple(f"th{i + 1}" for i in range(dim)))

    @property
    def dim(self) -> int:
        return 2 * self.n

    @property
    def coordinates(self) -> tuple[str, ...]:
        """The coordinate names: each generator name without its leading d."""
        return tuple(n.removeprefix("d") for n in self.names)


# ---------------------------------------------------------------------------
# blade (bitmask) primitives
# ---------------------------------------------------------------------------

def _above(mask: int) -> int:
    """The XOR, over the generators j of a blade, of the (negative, so
    unbounded) masks above j: the merge sign's parity mask."""
    above = 0
    while mask:
        low = mask & -mask
        above ^= -(low << 1)
        mask ^= low
    return above


def contraction_sign(mask: int, j: int) -> int:
    """Sign of dx_j ^ blade, or of removing dx_j from a blade holding it."""
    return -1 if (mask & ((1 << j) - 1)).bit_count() & 1 else 1


def blade_basis(dim: int, degree: int) -> tuple[int, ...]:
    """All degree-``degree`` blade masks over ``dim`` generators, ascending."""
    masks = [
        sum(1 << i for i in combo)
        for combo in itertools.combinations(range(dim), degree)
    ]
    return tuple(sorted(masks))


def blade_name(mask: int, frame: Frame) -> str:
    if mask == 0:
        return "1"
    return "^".join(frame.names[i] for i in range(frame.dim) if mask >> i & 1)


# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------

class Form:
    """A sparse exterior form: blade mask -> coefficient, no stored zeros."""

    __slots__ = ("frame", "terms")

    def __init__(self, frame: Frame, terms=None):
        object.__setattr__(self, "frame", frame)
        clean = {}
        if terms:
            dim = frame.dim
            for mask, coeff in terms.items():
                if mask >> dim:
                    raise ValueError("blade uses generators outside the frame")
                if coeff:
                    clean[mask] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *_):
        raise AttributeError("Form is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, frame: Frame) -> "Form":
        return cls(frame)

    @classmethod
    def scalar(cls, frame: Frame, value) -> "Form":
        return cls(frame, {0: value})

    @classmethod
    def generator(cls, frame: Frame, index: int, coeff=Fraction(1)) -> "Form":
        if not 0 <= index < frame.dim:
            raise ValueError("generator index out of range")
        return cls(frame, {1 << index: coeff})

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> set[int]:
        return {m.bit_count() for m in self.terms}

    @property
    def homogeneous_degree(self) -> int | None:
        degs = self.degrees()
        return degs.pop() if len(degs) == 1 else None

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "Form"):
        if self.frame != other.frame:
            raise ValueError("forms live over different frames")

    def __add__(self, other: "Form") -> "Form":
        self._check(other)
        return Form(self.frame, sum_terms([*self.terms.items(), *other.terms.items()]))

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def __neg__(self) -> "Form":
        return Form(self.frame, {m: -c for m, c in self.terms.items()})

    def __rmul__(self, scalar) -> "Form":
        return Form(self.frame, {m: scalar * c for m, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Form)
            and self.frame == other.frame
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.frame, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Form({format_form(self)!r})"


def wedge(a: Form, b: Form) -> Form:
    """Graded-anticommutative associative product of two forms."""
    a._check(b)
    right = [(mb, _above(mb), cb) for mb, cb in b.terms.items()]
    return Form(a.frame, sum_terms(
        (ma | mb, -(ca * cb) if (ma & above).bit_count() & 1 else ca * cb)
        for mb, above, cb in right
        for ma, ca in a.terms.items()
        if not ma & mb
    ))


def wedge_power(a: Form, k: int) -> Form:
    if k < 0:
        raise ValueError("negative wedge power")
    acc = Form.scalar(a.frame, Fraction(1))
    for _ in range(k):
        acc = wedge(acc, a)
    return acc


def interior(direction, a: Form) -> Form:
    """Interior product i_X a.

    ``direction`` is either a generator index (contraction with the dual
    vector of that generator) or any vector field exposing ``frame`` and
    ``components`` attributes, in which case the contraction is the
    coefficient-weighted sum of generator contractions.
    """
    if isinstance(direction, int):
        j = direction
        if not 0 <= j < a.frame.dim:
            raise ValueError("generator index out of range")
        # removing one generator is injective on the blades holding it
        bit = 1 << j
        return Form(a.frame, {
            mask ^ bit: coeff if contraction_sign(mask, j) > 0 else -coeff
            for mask, coeff in a.terms.items()
            if mask & bit
        })

    if direction.frame != a.frame:
        raise ValueError("vector field and form frames differ")
    return Form(a.frame, sum_terms(
        term
        for j, comp in enumerate(direction.components)
        if comp
        for term in (comp * interior(j, a)).terms.items()
    ))


# ---------------------------------------------------------------------------
# the symplectic frame data: omega and the sl(2) triple
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def omega(frame: Frame) -> Form:
    """omega = dp_i ^ dq^i, stored as -1 times each canonical q^i p_i blade."""
    return Form(
        frame,
        {(1 << i) | (1 << (frame.n + i)): Fraction(-1) for i in range(frame.n)},
    )


@lru_cache(maxsize=None)
def omega_power(frame: Frame, k: int) -> Form:
    return wedge_power(omega(frame), k)


def _toggle_pairs(a: Form, held: bool) -> Form:
    """Sum over i of the map that removes (``held``) or adds the pair
    dq^i, dp_i on every blade holding both or neither, in one pass over the
    terms.  Either way the sign is -1 to the power 1 + (number of generators
    strictly between dq^i and dp_i): for removal it is the sign of the two
    contractions, for addition the sign of wedging with -dq^i ^ dp_i."""
    n = a.frame.n
    between = (1 << (n - 1)) - 1
    pairs = [(i, (1 << i) | (1 << (n + i))) for i in range(n)]
    return Form(a.frame, sum_terms(
        (mask ^ pair, coeff if ((mask >> (i + 1)) & between).bit_count() & 1 else -coeff)
        for mask, coeff in a.terms.items()
        for i, pair in pairs
        if mask & pair == (pair if held else 0)
    ))


def op_e(a: Form) -> Form:
    """e-hat: wedge with omega."""
    return _toggle_pairs(a, held=False)


def op_f(a: Form) -> Form:
    """f-hat: sum over i of i_{d/dq^i} i_{d/dp_i}."""
    return _toggle_pairs(a, held=True)


def op_h(a: Form) -> Form:
    """h-hat: multiplication by (degree - n), homogeneous input only."""
    if a.is_zero:
        return a
    deg = a.homogeneous_degree
    if deg is None:
        raise ValueError("h-hat is defined degreewise only")
    return Fraction(deg - a.frame.n) * a


@dataclass(frozen=True)
class CommutatorReport:
    """Blade-by-blade verdict for [h,e] = 2e, [h,f] = -2f, [e,f] = h and
    [e^k,f] = k e^{k-1}(h+k-1); [e,f^k] = k f^{k-1}(h-k+1) follows, as the
    difference of its sides telescopes into sums of f^a D f^c over the
    defects D of [h,f] = -2f and [e,f] = h."""

    n: int
    k: int
    passed: bool
    blades_checked: int
    failed_identity: str | None = None
    failed_blade: int | None = None

    def __str__(self):
        if self.passed:
            return (
                f"sl2 n={self.n} k={self.k}: all identities hold on "
                f"{self.blades_checked} blades"
            )
        return (
            f"sl2 n={self.n} k={self.k}: FAILED {self.failed_identity} "
            f"on blade mask {self.failed_blade}"
        )


def _mask_type(frame: Frame) -> np.dtype:
    return np.min_scalar_type((1 << frame.dim) - 1)


# A blade table of a linear map is a (masks, coefficients) pair: row m of
# the two (2^dim, width) arrays lists the image of blade m, padded with zero
# coefficients.  Coefficients are exact Python numbers in object arrays:
# ints, or Fractions where a value is not an integer.

def _table(frame: Frame, images):
    """The blade table of a map from its images of the basis blades, given
    in mask order as tuples of (mask, coefficient) pairs."""
    width = max(map(len, images))
    pad = ((0, 0),) * width
    flat = [term for image in images for term in image + pad[len(image):]]
    masks = np.array([m for m, _ in flat], dtype=_mask_type(frame)).reshape(len(images), width)
    coeffs = np.array(
        [c.numerator if c.denominator == 1 else c for _, c in flat], dtype=object
    )
    return masks, coeffs.reshape(masks.shape)


def _op_images(frame: Frame, op) -> list[tuple]:
    """``op`` applied once to every basis blade."""
    one = Fraction(1)
    return [tuple(op(Form(frame, {blade: one})).terms.items()) for blade in range(1 << frame.dim)]


def _wedge_images(frame: Frame, form: Form) -> list[tuple]:
    """The images of every basis blade under a -> a ^ form, signed as in
    ``wedge``."""
    terms = [(t, _above(t), (c, -c)) for t, c in form.terms.items()]
    return [
        tuple((m | t, signed[(m & above).bit_count() & 1]) for t, above, signed in terms if not m & t)
        for m in range(1 << frame.dim)
    ]


# A batch of sparse forms is a (rows, masks, coefficients) triple of equal-
# length arrays: entry j adds coefficients[j] * blade masks[j] to form
# rows[j].  Entries are not merged, so a sum of batches is a concatenation.

def _apply(table, batch):
    """The batch image of a linear map given by its blade table."""
    masks, coeffs = table
    rows, cols, vals = batch
    out = vals[:, None] * coeffs[cols]
    keep = out != 0
    return np.broadcast_to(rows[:, None], keep.shape)[keep], masks[cols][keep], out[keep]


def _sum(*terms):
    """The batch sum of c * batch over ``(c, batch)`` pairs."""
    return (
        np.concatenate([b[0] for _, b in terms]),
        np.concatenate([b[1] for _, b in terms]),
        np.concatenate([c * b[2] for c, b in terms]),
    )


def _first_nonzero_row(batch, size: int) -> int | None:
    """The smallest row of a batch whose merged coefficients are not all
    zero, or None; ``size`` bounds the masks."""
    rows, cols, vals = batch
    if not rows.size:
        return None
    key = rows * size + cols
    # any order of equal keys would do; numpy's stable integer sort touches
    # less of its library than the default one, which shows in peak RSS
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    nonzero = starts[np.add.reduceat(vals[order], starts) != 0]
    return int(key[nonzero[0]]) // size if nonzero.size else None


def commutator_check(n: int, k: int) -> CommutatorReport:
    """Verify [h,e]=2e, [h,f]=-2f, [e,f]=h and the k-th power recursion
    [e^k,f] = k e^{k-1}(h+k-1) on every basis blade of the 2n-dimensional
    Darboux frame.  [e,f^k] = k f^{k-1}(h-k+1) then holds too: the
    difference of its sides telescopes into sums of f^a D f^c over the
    defects D of [h,f] = -2f and [e,f] = h.

    The same pass as ``commutator_checks``, for one k.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    return _sl2_reports(n, (k,))[0]


def commutator_checks(n: int) -> list[CommutatorReport]:
    """``commutator_check(n, k)`` for every k = 1..n, from one pass."""
    return _sl2_reports(n, range(1, n + 1))


def _sl2_reports(n: int, ks) -> list[CommutatorReport]:
    """One report per k in ``ks``, from one pass over the blades.

    ``op_e``, ``op_f`` and ``op_h`` are applied once per blade, and each
    e^p = omega^p ^ is tabulated once from ``omega_power``; every composite
    is then evaluated from those tables for all blades of one degree at
    once, on exact Python ints and Fractions, so no coefficient can
    overflow.  The three k-free identities are evaluated once per degree
    and the recursion once per degree and k, its right-hand side expanded
    by linearity.  A report names the smallest failing blade mask and the
    first identity that fails on it.
    """
    frame = Frame.darboux(n)
    size = 1 << frame.dim
    e, f, h = (partial(_apply, _table(frame, _op_images(frame, op))) for op in (op_e, op_f, op_h))
    powers = {
        p: partial(_apply, _table(frame, _wedge_images(frame, omega_power(frame, p))))
        for p in {p for k in ks for p in (k - 1, k)}
    }
    found = {k: [] for k in ks}  # per k: (blade mask, identity) of each failure

    def failure(basis, diff, identity):
        row = _first_nonzero_row(diff, size)
        return [] if row is None else [(int(basis[row]), identity)]

    for degree in range(frame.dim + 1):
        basis = np.array(blade_basis(frame.dim, degree), dtype=_mask_type(frame))
        b = (np.arange(basis.size), basis, np.ones(basis.size, object))
        eb, fb, hb = e(b), f(b), h(b)
        common = failure(basis, _sum((1, h(eb)), (-1, e(hb)), (-2, eb)), 0)
        common += failure(basis, _sum((1, h(fb)), (-1, f(hb)), (2, fb)), 1)
        common += failure(basis, _sum((1, e(fb)), (-1, f(eb)), (-1, hb)), 2)
        wb = {p: w(b) for p, w in powers.items()}
        for k in ks:
            found[k] += common
            found[k] += failure(basis, _sum(
                (1, powers[k](fb)), (-1, f(wb[k])), (-k, powers[k - 1](hb)), (-k * (k - 1), wb[k - 1]),
            ), 3)
    reports = []
    for k, fails in found.items():
        if not fails:
            reports.append(CommutatorReport(n, k, True, size))
            continue
        mask, identity = min(fails)
        name = (
            "[h,e] = 2e",
            "[h,f] = -2f",
            "[e,f] = h",
            f"[e^{k},f] = {k} e^{k - 1}(h+{k - 1})",
        )[identity]
        reports.append(CommutatorReport(n, k, False, mask + 1, name, mask))
    return reports


# ---------------------------------------------------------------------------
# rank certificates
# ---------------------------------------------------------------------------

def image_matrix(frame: Frame, images, degree: int) -> linalg.Matrix:
    """The exact matrix whose column j holds the coefficients of the form
    ``images[j]`` on the degree-``degree`` blade basis (rows, ascending
    masks); a degree above the frame's has no rows."""
    index = {m: i for i, m in enumerate(blade_basis(frame.dim, degree))}
    mat = linalg.zeros(len(index), len(images))
    for col, image in enumerate(images):
        for m, c in image.terms.items():
            mat[index[m]][col] = c
    return mat


def iota_rank(n: int, k: int) -> int:
    """Rank of the map sending a 2-form to its wedge with omega^k.

    Full rank C(2n, 2) for every 0 <= k <= n-2 certifies that the map is
    injective, and at k = n-2 an isomorphism onto the (2n-2)-forms.
    """
    if not 0 <= k <= n - 2:
        raise ValueError("need 0 <= k <= n-2")
    frame = Frame.darboux(n)
    wk = omega_power(frame, k)
    images = [wedge(Form(frame, {m: Fraction(1)}), wk) for m in blade_basis(frame.dim, 2)]
    return linalg.rank(image_matrix(frame, images, 2 * k + 2))


def contraction_rank(n: int, k: int) -> int:
    """Rank of the map sending a constant vector X to i_X(omega^k).

    Rank 2n for every 1 <= k <= n certifies i_X(omega^k) = 0 iff X = 0.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    frame = Frame.darboux(n)
    wk = omega_power(frame, k)
    images = [interior(j, wk) for j in range(frame.dim)]
    return linalg.rank(image_matrix(frame, images, 2 * k - 1))


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------

def format_form(form: Form) -> str:
    """Canonical text: terms sorted by blade mask, exact coefficients.

    Fraction coefficients print as num/den; polynomial coefficients print as
    parenthesized monomial sums in the frame's coordinate names.
    """
    if form.is_zero:
        return "0"
    parts = []
    for mask in sorted(form.terms):
        coeff = form.terms[mask]
        if isinstance(coeff, Poly):
            text = format_poly(coeff, form.frame.coordinates)
            if " " in text or text.lstrip("-").count("*"):
                text = f"({text})"
        else:
            text = str(coeff)
        if mask:
            parts.append(f"{text}*{blade_name(mask, form.frame)}")
        else:
            parts.append(text)
    return " + ".join(parts)
