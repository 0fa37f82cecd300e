"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial over ``nvars`` variables maps exponent tuples to nonzero
``Fraction`` coefficients.  On a Darboux frame with half-dimension n the
variable order is q^1..q^n, p_1..p_n, matching the frame's generator order.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from fractions import Fraction


class InputError(ValueError):
    """Refused outside input: a malformed, out-of-range or oversized file
    entry, command-line value or validated parameter.  The command line
    exits 2 on exactly this class."""


MAX_INPUT_DEGREE = 12
# desk-scale bound on an input half-dimension n (an algebra's dim / 2, a
# chain's l): the sl(2) check and the invariant complex grow like 4^n
MAX_INPUT_N = 6


def check_input_n(n: int, what: str = "n") -> int:
    """Refuse a half-dimension outside [1, MAX_INPUT_N] before anything
    sized by it is built."""
    if not 1 <= n <= MAX_INPUT_N:
        raise InputError(f"{what} = {n} is outside [1, {MAX_INPUT_N}]; desk-scale inputs only")
    return n


@contextmanager
def reading():
    """Refuse, as one InputError, what decoding or walking untrusted JSON
    raises: a syntax error (with its line and column), nesting too deep to
    decode, a missing key, a wrong type, an unreadable number or a zero
    denominator.  A refusal already made, an InputError, passes unchanged."""
    try:
        yield
    except InputError:
        raise
    except json.JSONDecodeError as exc:
        raise InputError(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except KeyError as exc:
        raise InputError(f"missing key {exc}") from None
    except ZeroDivisionError:
        raise InputError("rational with a zero denominator") from None
    except (OverflowError, RecursionError, TypeError, ValueError) as exc:
        raise InputError(str(exc)) from None


def decode_json(text: str | bytes):
    """The one JSON decoder of every file format (UTF-8, -16 or -32)."""
    with reading():
        return json.loads(text)


def sum_terms(pairs) -> dict:
    """The one merge rule of sparse sums: ``(key, value)`` pairs into a
    dict, the values of equal keys added in the order given.  A sum that
    cancels stays, for the ``Poly`` or ``Form`` constructor to drop."""
    out = {}
    for key, value in pairs:
        acc = out.get(key)
        out[key] = value if acc is None else acc + value
    return out


def _as_fraction(value) -> Fraction:
    """The reader of file rationals and of exact values in code: a
    Fraction, an int or a string such as "-1/2".  A float is refused, being
    inexact.  ``ChainPatch.affine`` and ``build_linear_system`` read a float
    through its decimal text instead."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def _as_int(value) -> int:
    """The one reader of integers in files (exponents, indices, sizes and
    orders): an int.  A float or a bool is refused, even an integral one,
    as is any other type."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"not an integer: {value!r}")
    return value


class Poly:
    """Immutable-by-convention sparse polynomial."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != nvars:
                    raise ValueError("exponent tuple has wrong length")
                coeff = _as_fraction(coeff)
                if coeff:
                    clean[tuple(exps)] = coeff
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value) -> "Poly":
        return cls(nvars, {(0,) * nvars: _as_fraction(value)})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Poly":
        if not 0 <= index < nvars:
            raise ValueError("variable index out of range")
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {exps: Fraction(1)})

    # -- structure ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, Fraction(0))

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Poly"):
        if self.nvars != other.nvars:
            raise ValueError("polynomials over different variable counts")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        return Poly(self.nvars, sum_terms([*self.terms.items(), *other.terms.items()]))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, Poly) else Poly.constant(self.nvars, -_as_fraction(other)))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Poly.zero(self.nvars)
            return Poly(self.nvars, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        return Poly(self.nvars, sum_terms(
            (tuple(x + y for x, y in zip(ea, eb)), ca * cb)
            for ea, ca in self.terms.items()
            for eb, cb in other.terms.items()
        ))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = Poly.constant(self.nvars, 1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.nvars, other)
        return isinstance(other, Poly) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        # a constant equals its constant term, so it hashes as that number
        if self.total_degree() <= 0:
            return hash(self.constant_term())
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- calculus ----------------------------------------------------------

    def diff(self, index: int) -> "Poly":
        """Formal partial derivative with respect to variable ``index``;
        lowering one exponent is injective, so no two terms meet."""
        return Poly(self.nvars, {
            exps[:index] + (exps[index] - 1,) + exps[index + 1:]: coeff * exps[index]
            for exps, coeff in self.terms.items()
            if exps[index]
        })

    def eval(self, point) -> Fraction:
        """Exact evaluation at a point of Fractions/ints."""
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            v = coeff
            for x, e in zip(point, exps):
                if e:
                    v *= _as_fraction(x) ** e
            total += v
        return total

    # -- canonical text ----------------------------------------------------

    def sorted_terms(self):
        """Monomials sorted lexicographically by exponent tuple."""
        return sorted(self.terms.items())

    def monomial_list(self) -> list[list]:
        """Canonical file form: ``[coeff, e_1, ..., e_nvars]`` per monomial."""
        return [[str(c), *exps] for exps, c in self.sorted_terms()]

    def __repr__(self):
        return f"Poly({self.nvars}, {format_poly(self, None)!r})"


def poly_from_monomials(nvars: int, monomials) -> Poly:
    """Parse the ``[coeff, e_1, ..., e_nvars]`` monomial-list file form."""
    pairs = []
    for row in monomials:
        if len(row) != nvars + 1:
            raise InputError(
                f"monomial {row!r} needs 1 coefficient + {nvars} exponents"
            )
        coeff = _as_fraction(row[0])
        exps = tuple(_as_int(e) for e in row[1:])
        if any(e < 0 for e in exps):
            raise InputError("negative exponent")
        pairs.append((exps, coeff))
    return Poly(nvars, sum_terms(pairs))


def check_input_degree(poly: Poly, what: str = "polynomial"):
    if poly.total_degree() > MAX_INPUT_DEGREE:
        raise InputError(
            f"{what} has total degree {poly.total_degree()} > "
            f"{MAX_INPUT_DEGREE}; desk-scale inputs only"
        )


def format_poly(poly: Poly, names=None) -> str:
    """Canonical text, monomials in lexicographic exponent order."""
    if poly.is_zero:
        return "0"
    if names is None:
        names = [f"x{i + 1}" for i in range(poly.nvars)]
    parts = []
    for exps, coeff in poly.sorted_terms():
        factors = [
            names[i] if e == 1 else f"{names[i]}^{e}"
            for i, e in enumerate(exps)
            if e
        ]
        if not factors:
            parts.append(str(coeff))
        elif coeff == 1:
            parts.append("*".join(factors))
        elif coeff == -1:
            parts.append("-" + "*".join(factors))
        else:
            parts.append(f"{coeff}*" + "*".join(factors))
    return " + ".join(parts).replace("+ -", "- ")
