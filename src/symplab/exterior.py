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
    return tuple(sorted(sum(1 << i for i in c) for c in itertools.combinations(range(dim), degree)))


def blade_name(mask: int, frame: Frame) -> str:
    if mask == 0:
        return "1"
    return "^".join(frame.names[i] for i in range(frame.dim) if mask >> i & 1)


# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------

class Form:
    """A sparse exterior form: blade mask -> coefficient, no stored zeros."""

    __slots__ = ("frame", "terms", "_hash")

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
        if not hasattr(self, "_hash"):  # formed once: omega's powers key caches
            object.__setattr__(self, "_hash", hash((self.frame, frozenset(self.terms.items()))))
        return self._hash

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


def _poisson(w: Form) -> linalg.Matrix:
    """The Poisson bivector pi^{ab} of the 2-form ``w``: the inverse of its
    Gram matrix w(e_a, e_b) = +-(coefficient of blade {a, b}), which exists
    iff w^n != 0, the one nondegeneracy decision (else SingularMatrixError)."""
    axes = range(w.frame.dim)
    gram = [[w.terms.get(1 << a | 1 << b, 0) * (-1 if a > b else 1) for b in axes] for a in axes]
    return linalg.inverse(gram)


@lru_cache(maxsize=None)
def _darboux_poisson(frame: Frame) -> tuple[tuple, ...]:
    """omega's Poisson bivector as immutable rows of ints, a cheap cache key."""
    return tuple(tuple(int(v) for v in row) for row in _poisson(omega(frame)))


# A batch of sparse forms is a (rows, masks, coefficients) triple of equal-
# length arrays: entry j adds coefficients[j] * blade masks[j] to form
# rows[j].  Masks are arrays of ``_mask_type``, unsigned integers up to 64
# generators and Python ints past that; coefficients are exact Python
# numbers, or any ring element, in object arrays.  Entries are not merged,
# so a sum of batches is a concatenation, and a linear map acts entry by
# entry.  e-hat and e^p are ``_wedge_batch``; f-hat, the contraction with
# the Poisson bivector of omega or of any 2-form, is ``_contract_batch``;
# i_j is ``_interior_batch``, which with ``_wedge_batch`` makes the
# Chevalley-Eilenberg differential of :mod:`symplab.cohomology`.

def _mask_type(frame: Frame) -> np.dtype:
    return np.min_scalar_type((1 << frame.dim) - 1)


def _odd(x, bits: int):
    """Whether each entry of ``x``, below 2^bits, has an odd popcount, by
    xor-folding its bits onto bit 0."""
    shift = 1
    while shift < bits:
        x = x ^ (x >> shift)
        shift <<= 1
    return (x & 1).astype(bool)


def _batch(a: Form):
    """A form as a one-row batch."""
    size = len(a.terms)
    return (
        np.zeros(size, np.intp),
        np.fromiter(a.terms, _mask_type(a.frame), size),
        np.fromiter(a.terms.values(), object, size),
    )


def _form(frame: Frame, batch) -> Form:
    """The form of a one-row batch, equal masks merged in entry order."""
    _, masks, coeffs = batch
    return Form(frame, sum_terms(zip(masks.tolist(), coeffs)))


def _read_only(*arrays):
    """The arrays, made read-only: a cached table serves every caller."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _exact(values, size: int):
    """Exact scalars as an object array, integral Fractions as ints, so int batches stay ints."""
    exact = (c.numerator if isinstance(c, Fraction) and c.denominator == 1 else c for c in values)
    return np.fromiter(exact, object, size)


@lru_cache(maxsize=None)
def _contract_table(pi: tuple[tuple, ...], dtype: np.dtype):
    """(held, between, scale) of each pair a < b with pi^{ab} != 0, read-
    only, built once per bivector (immutable skew rows) and mask type."""
    pairs = [(a, b) for a, row in enumerate(pi) for b in range(a + 1, len(pi)) if row[b]]
    held = np.array([1 << a | 1 << b for a, b in pairs], dtype)
    between = np.array([(1 << b) - (2 << a) for a, b in pairs], dtype)
    return _read_only(held, between, _exact((pi[a][b] for a, b in pairs), len(pairs)))


def _contract_batch(batch, pi):
    """The batch image of the contraction with the bivector whose skew
    matrix is ``pi`` (immutable rows), the sum over a < b of pi^{ab} i_a
    i_b.  Removing generators a < b from a blade holding both has sign -1
    to the power 1 + (number of its generators strictly between a and b)."""
    rows, masks, coeffs = batch
    held, between, scale = _contract_table(pi, masks.dtype)
    entry, pair = np.nonzero((masks[:, None] & held) == held)
    masks = masks[entry]
    out = coeffs[entry] * scale[pair]
    np.negative(out, out=out, where=~_odd(masks & between[pair], len(pi)))
    return rows[entry], masks ^ held[pair], out


def _e_batch(frame: Frame, batch):
    """e-hat on a batch: wedge with omega."""
    return _wedge_batch(batch, omega(frame))


def _f_batch(frame: Frame, batch):
    """f-hat on a batch: contraction with omega's Poisson bivector."""
    return _contract_batch(batch, _darboux_poisson(frame))


def _h_batch(frame: Frame, batch):
    """h-hat on a batch: each entry times (its blade's degree - n)."""
    rows, masks, coeffs = batch
    degree = sum((masks >> i) & 1 for i in range(frame.dim))
    return rows, masks, coeffs * (degree.astype(np.intp) - frame.n)


@lru_cache(maxsize=None)
def _wedge_table(form: Form):
    """(right, above, scale) of ``form``'s terms, read-only, built once per
    form."""
    frame, size = form.frame, len(form.terms)
    dtype = _mask_type(frame)
    right = np.fromiter(form.terms, dtype, size)
    above = np.fromiter((_above(t) & ((1 << frame.dim) - 1) for t in form.terms), dtype, size)
    return _read_only(right, above, _exact(form.terms.values(), size))


def _wedge_batch(batch, form: Form):
    """The batch image of a -> a ^ form, signed as in ``wedge``."""
    rows, masks, coeffs = batch
    right, above, scale = _wedge_table(form)
    entry, term = np.nonzero((masks[:, None] & right) == 0)
    masks = masks[entry]
    out = coeffs[entry] * scale[term]
    np.negative(out, out=out, where=_odd(masks & above[term], form.frame.dim))
    return rows[entry], masks | right[term], out


def _interior_batch(batch, j: int, dim: int):
    """The batch image of a -> i_j a over ``dim`` generators, signed as
    ``contraction_sign``: the entries holding generator j, with it removed."""
    rows, masks, coeffs = batch
    bit = 1 << j
    entry = np.flatnonzero(masks & bit)
    masks = masks[entry]
    out = coeffs[entry]
    np.negative(out, out=out, where=_odd(masks & (bit - 1), dim))
    return rows[entry], masks ^ bit, out


def op_e(a: Form) -> Form:
    """e-hat: wedge with omega."""
    return _form(a.frame, _e_batch(a.frame, _batch(a)))


def op_f(a: Form) -> Form:
    """f-hat: sum over i of i_{d/dq^i} i_{d/dp_i}."""
    return _form(a.frame, _f_batch(a.frame, _batch(a)))


def op_h(a: Form) -> Form:
    """h-hat: multiplication by (degree - n), homogeneous input only."""
    if len(a.degrees()) > 1:
        raise ValueError("h-hat is defined degreewise only")
    return _form(a.frame, _h_batch(a.frame, _batch(a)))


@dataclass(frozen=True)
class CommutatorReport:
    """Verdict of the sl(2) certificate at one (n, k), from one evaluation
    over every basis blade: [h,e] = 2e, [h,f] = -2f, [e,f] = h and
    [e^k,f] = k e^{k-1}(h+k-1); [e,f^k] = k f^{k-1}(h-k+1) follows, as the
    difference of its sides telescopes into sums of f^a D f^c over the
    defects D of [h,f] = -2f and [e,f] = h.  A failure names the smallest
    failing blade mask and the first identity that fails on it, and counts
    the blades up to it as checked."""

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
    """The sl(2) certificate (see ``CommutatorReport``) at one k, on every
    basis blade of the 2n-dimensional Darboux frame."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    return _sl2_reports(n, (k,))[0]


def commutator_checks(n: int) -> list[CommutatorReport]:
    """``commutator_check(n, k)`` for every k = 1..n, from one pass."""
    return _sl2_reports(n, range(1, n + 1))


def _sl2_reports(n: int, ks) -> list[CommutatorReport]:
    """One report per k in ``ks``, from one batch holding every basis
    blade, its row its mask.  The pass applies ``_e_batch`` (the wedge with
    omega), ``_f_batch`` (the contraction kernel the codifferential of
    :mod:`symplab.cohomology` uses too) and ``_h_batch``, which ``op_e``,
    ``op_f`` and ``op_h`` wrap, and ``_wedge_batch`` with ``omega_power``
    for e^p, all looked up in the module when it runs.  Each side of an
    identity is one batch expression on exact Python ints and Fractions:
    the k-free identities once, the recursion once per k."""
    frame = Frame.darboux(n)
    size = 1 << frame.dim
    rows = np.arange(size)
    b = (rows, rows.astype(_mask_type(frame)), np.ones(size, object))
    e, f, h = (partial(kernel, frame) for kernel in (_e_batch, _f_batch, _h_batch))

    def first_failure(*terms):
        return _first_nonzero_row(_sum(*terms), size)

    powers = {p: omega_power(frame, p) for p in {p for k in ks for p in (k - 1, k)}}
    wb = {p: _wedge_batch(b, w) for p, w in powers.items()}
    eb, fb, hb = e(b), f(b), h(b)
    common = (
        first_failure((1, h(eb)), (-1, e(hb)), (-2, eb)),
        first_failure((1, h(fb)), (-1, f(hb)), (2, fb)),
        first_failure((1, e(fb)), (-1, f(eb)), (-1, hb)),
    )
    reports = []
    for k in ks:
        failures = [*common, first_failure(
            (1, _wedge_batch(fb, powers[k])), (-1, f(wb[k])),
            (-k, _wedge_batch(hb, powers[k - 1])), (-k * (k - 1), wb[k - 1]),
        )]
        fails = [(mask, identity) for identity, mask in enumerate(failures) if mask is not None]
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
        parts.append(f"{text}*{blade_name(mask, form.frame)}" if mask else text)
    return " + ".join(parts)
