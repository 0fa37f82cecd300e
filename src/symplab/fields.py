"""Symbolic calculus for polynomial vector fields on R^{2n}.

Fields, forms and 2-form data all live over a Darboux frame; coefficients
are sparse rational polynomials in (q^1..q^n, p_1..p_n).  Closedness is
always decided exactly, and exactness on R^{2n} is decided constructively by
the radial homotopy, which also produces the potential that reports show.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exterior import (
    Form,
    Frame,
    contraction_sign,
    interior,
    merge_sign,
    omega_power,
    wedge,
)
from .polynomials import (
    InputError,
    Poly,
    _as_int,
    check_input_degree,
    check_input_n,
    poly_from_monomials,
    reading,
)


def _as_poly(value, nvars: int) -> Poly:
    if isinstance(value, Poly):
        if value.nvars != nvars:
            raise ValueError("polynomial over wrong variable count")
        return value
    return Poly.constant(nvars, value)


@dataclass(frozen=True)
class PolyVectorField:
    """X = Q^i d/dq^i + P_i d/dp_i with polynomial components.

    ``components`` lists (Q^1..Q^n, P_1..P_n) in frame order.
    """

    frame: Frame
    components: tuple[Poly, ...]

    def __post_init__(self):
        if len(self.components) != self.frame.dim:
            raise ValueError("need one component per generator")
        for comp in self.components:
            if comp.nvars != self.frame.dim:
                raise ValueError("component variable count != 2n")
            check_input_degree(comp, "vector field component")

    def __add__(self, other: "PolyVectorField") -> "PolyVectorField":
        if self.frame != other.frame:
            raise ValueError("vector fields over different frames")
        return PolyVectorField(
            self.frame,
            tuple(a + b for a, b in zip(self.components, other.components)),
        )

    def __rmul__(self, scalar) -> "PolyVectorField":
        return PolyVectorField(
            self.frame, tuple(scalar * c for c in self.components)
        )

    def __neg__(self) -> "PolyVectorField":
        return Fraction(-1) * self

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)

    @classmethod
    def zero(cls, frame: Frame) -> "PolyVectorField":
        z = Poly.zero(frame.dim)
        return cls(frame, (z,) * frame.dim)


def hamiltonian_field(frame: Frame, h: Poly) -> PolyVectorField:
    """The canonical-equations field: dq^i/dt = dH/dp_i, dp_i/dt = -dH/dq^i."""
    n = frame.n
    h = _as_poly(h, frame.dim)
    comps = [h.diff(n + i) for i in range(n)] + [-h.diff(i) for i in range(n)]
    return PolyVectorField(frame, tuple(comps))


# ---------------------------------------------------------------------------
# exterior calculus with polynomial coefficients
# ---------------------------------------------------------------------------

def exterior_derivative(a: Form) -> Form:
    """d acting on polynomial coefficients by formal partials; d.d = 0."""
    frame = a.frame
    terms: dict = {}
    for mask, coeff in a.terms.items():
        coeff = _as_poly(coeff, frame.dim)
        for v in range(frame.dim):
            if mask >> v & 1:
                continue
            dc = coeff.diff(v)
            if dc.is_zero:
                continue
            if merge_sign(1 << v, mask) < 0:
                dc = -dc
            new = mask | (1 << v)
            acc = terms.get(new)
            terms[new] = dc if acc is None else acc + dc
    return Form(frame, terms)


def lie_derivative(x: PolyVectorField, a: Form) -> Form:
    """Cartan formula: L_X = i_X d + d i_X."""
    return interior(x, exterior_derivative(a)) + exterior_derivative(interior(x, a))


def el_form(x: PolyVectorField, k: int) -> Form:
    """The degree-(2k-1) contraction -i_X(omega^k); linear in X."""
    n = x.frame.n
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    return -interior(x, omega_power(x.frame, k))


@dataclass(frozen=True)
class Classification:
    """Closedness/exactness verdict for -i_X(omega^k), with a potential.

    On R^{2n} closed forms are exact, so a symplectic-like field is also
    Hamiltonian-like: ``potential`` is a radial-homotopy witness with
    d(potential) = -i_X(omega^k); it is None for a non-closed contraction.
    """

    k: int
    symplectic_like: bool
    potential: Form | None


def classify(x: PolyVectorField, k: int) -> Classification:
    """Decide whether X is symplectic(-like)/Hamiltonian(-like) at degree 2k-1."""
    e = el_form(x, k)
    closed = exterior_derivative(e).is_zero
    return Classification(k, closed, _radial_primitive(e) if closed else None)


def radial_potential(a: Form) -> Form:
    """A primitive of a closed form of positive degree on R^{2n}.

    Radial homotopy: on a monomial term c x^b dx_I of degree k = |I| the
    primitive is sum_j (+/-) c x^b x_j dx_{I minus j} / (|b| + k); applying d
    returns the input exactly.  Raises ValueError otherwise.
    """
    if 0 in a.degrees():
        raise ValueError("0-form component has no primitive")
    if not exterior_derivative(a).is_zero:
        raise ValueError("radial homotopy needs a closed form")
    return _radial_primitive(a)


def _radial_primitive(a: Form) -> Form:
    """The radial-homotopy primitive of a form already known to be closed
    and free of a 0-form component."""
    frame = a.frame
    nvars = frame.dim
    terms: dict = {}
    for mask, coeff in a.terms.items():
        k = mask.bit_count()
        coeff = _as_poly(coeff, nvars)
        removals = [
            (j, contraction_sign(mask, j), mask ^ (1 << j))
            for j in range(nvars) if mask >> j & 1
        ]
        for exps, c in coeff.terms.items():
            weight = Fraction(1, sum(exps) + k)
            for j, sign, new_mask in removals:
                new_exps = exps[:j] + (exps[j] + 1,) + exps[j + 1:]
                mono = Poly(nvars, {new_exps: c * weight * sign})
                acc = terms.get(new_mask)
                terms[new_mask] = mono if acc is None else acc + mono
    return Form(frame, terms)


# ---------------------------------------------------------------------------
# the 2-form <-> volume-preserving-field dictionary
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwoFormData:
    """alpha = Q_ij/2 dq^i^dq^j + A^i_j dp_i^dq^j + P^ij/2 dp_i^dp_j.

    Q and P are antisymmetric n x n polynomial matrices, A is arbitrary.
    """

    frame: Frame
    q: tuple[tuple[Poly, ...], ...]
    a: tuple[tuple[Poly, ...], ...]
    p: tuple[tuple[Poly, ...], ...]

    def __post_init__(self):
        n = self.frame.n
        if n < 2:
            raise ValueError("two-form dictionary needs n >= 2")
        for name, mat in (("Q", self.q), ("A", self.a), ("P", self.p)):
            if len(mat) != n or any(len(row) != n for row in mat):
                raise ValueError(f"{name} must be {n} x {n}")
            for row in mat:
                for entry in row:
                    check_input_degree(entry, f"{name} entry")
        for name, mat in (("Q", self.q), ("P", self.p)):
            for i in range(n):
                for j in range(n):
                    if mat[i][j] != -mat[j][i]:
                        raise InputError(
                            f"{name}[{i + 1}][{j + 1}] != -{name}[{j + 1}][{i + 1}]"
                        )

    @classmethod
    def build(cls, frame: Frame, q=None, a=None, p=None) -> "TwoFormData":
        n = frame.n
        zero = Poly.zero(frame.dim)

        def fill(mat):
            if mat is None:
                return tuple((zero,) * n for _ in range(n))
            return tuple(
                tuple(_as_poly(entry, frame.dim) for entry in row) for row in mat
            )

        return cls(frame, fill(q), fill(a), fill(p))

    def to_form(self) -> Form:
        n = self.frame.n
        terms: dict = {}

        def add(mask, poly):
            if poly.is_zero:
                return
            acc = terms.get(mask)
            terms[mask] = poly if acc is None else acc + poly

        for i in range(n):
            for j in range(i + 1, n):
                add((1 << i) | (1 << j), self.q[i][j])
                add((1 << (n + i)) | (1 << (n + j)), self.p[i][j])
        for i in range(n):
            for j in range(n):
                # dp_i ^ dq^j = -(dq^j ^ dp_i) on the canonical blade
                add((1 << j) | (1 << (n + i)), -self.a[i][j])
        return Form(self.frame, terms)


def hamiltonian_two_form(frame: Frame, h: Poly) -> TwoFormData:
    """alpha = H omega / (n-1), the 2-form that reproduces X_H."""
    n = frame.n
    if n < 2:
        raise ValueError("two-form dictionary needs n >= 2")
    h = _as_poly(h, frame.dim)
    scale = Fraction(1, n - 1)
    a = [
        [scale * h if i == j else Poly.zero(frame.dim) for j in range(n)]
        for i in range(n)
    ]
    return TwoFormData.build(frame, a=a)


def vector_from_two_form(alpha: TwoFormData) -> PolyVectorField:
    """The volume-preserving field determined by a 2-form.

    Components (sum over j):
        dq^i/dt = dP^{ij}/dq^j + d(tr A)/dp_i - dA^i_j/dp_j
        dp_i/dt = dQ_{ij}/dp_j - d(tr A)/dq^i + dA^j_i/dq^j
    The defining contraction identity
        i_X(omega^n) + n(n-1) d(alpha) ^ omega^{n-2} = 0
    is re-verified symbolically on every call.
    """
    frame = alpha.frame
    n = frame.n
    tr_a = Poly.zero(frame.dim)
    for j in range(n):
        tr_a = tr_a + alpha.a[j][j]
    comps = []
    for i in range(n):
        acc = tr_a.diff(n + i)
        for j in range(n):
            acc = acc + alpha.p[i][j].diff(j) - alpha.a[i][j].diff(n + j)
        comps.append(acc)
    for i in range(n):
        acc = -tr_a.diff(i)
        for j in range(n):
            acc = acc + alpha.q[i][j].diff(n + j) + alpha.a[j][i].diff(j)
        comps.append(acc)
    x = PolyVectorField(frame, tuple(comps))

    residual = interior(x, omega_power(frame, n)) + Fraction(n * (n - 1)) * wedge(
        exterior_derivative(alpha.to_form()), omega_power(frame, n - 2)
    )
    if not residual.is_zero:
        raise AssertionError("contraction identity violated; construction bug")
    return x


# ---------------------------------------------------------------------------
# linear systems without potential
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearSystemSpec:
    """q-double-dot = -k q split into symmetric + antisymmetric parts.

    s = (k + k^T)/2 feeds the Hamiltonian H = p.p/2 + q.s.q/2; a nonzero
    a = (k - k^T)/2 adds the non-potential force -a q on dp/dt.
    """

    k: tuple[tuple[Fraction, ...], ...]
    s: tuple[tuple[Fraction, ...], ...]
    a: tuple[tuple[Fraction, ...], ...]
    hamiltonian_h: Poly

    @property
    def n(self) -> int:
        return len(self.k)

    @property
    def is_hamiltonian(self) -> bool:
        return all(not entry for row in self.a for entry in row)


def build_linear_system(
    kmat, masses=None
) -> tuple[LinearSystemSpec, PolyVectorField]:
    """Build the phase-space field of q-double-dot = -k q.

    ``masses = (m1, m2, coupling)`` instead builds the two linearly coupled
    oscillators m_i q_i'' = -coupling (q_other - q_i); their k matrix is
    asymmetric (hence the system non-Hamiltonian) exactly when m1 != m2.
    """
    if masses is not None:
        m1, m2, c = (Fraction(str(v)) for v in masses)
        kmat = [[-c / m1, c / m1], [c / m2, -c / m2]]
    k = tuple(tuple(Fraction(str(v)) for v in row) for row in kmat)
    n = len(k)
    if any(len(row) != n for row in k):
        raise ValueError("k matrix must be square")
    half = Fraction(1, 2)
    s = tuple(
        tuple(half * (k[i][j] + k[j][i]) for j in range(n)) for i in range(n)
    )
    a = tuple(
        tuple(half * (k[i][j] - k[j][i]) for j in range(n)) for i in range(n)
    )
    frame = Frame.darboux(n)
    nvars = frame.dim
    q = [Poly.variable(nvars, i) for i in range(n)]
    p = [Poly.variable(nvars, n + i) for i in range(n)]
    h = Poly.zero(nvars)
    for i in range(n):
        h = h + half * p[i] * p[i]
        for j in range(n):
            if s[i][j]:
                h = h + half * s[i][j] * q[i] * q[j]
    field = hamiltonian_field(frame, h)
    extra = []
    for i in range(n):
        acc = Poly.zero(nvars)
        for j in range(n):
            if a[i][j]:
                acc = acc - a[i][j] * q[j]
        extra.append(acc)
    comps = tuple(
        c if i < n else c + extra[i - n] for i, c in enumerate(field.components)
    )
    return LinearSystemSpec(k, s, a, h), PolyVectorField(frame, comps)


def linear_system_two_form(spec: LinearSystemSpec) -> TwoFormData:
    """alpha = H omega/(n-1) - (p.q/2) a_ij dq^i^dq^j, mapping back to the
    linear-system field under ``vector_from_two_form``."""
    n = spec.n
    frame = Frame.darboux(n)
    nvars = frame.dim
    base = hamiltonian_two_form(frame, spec.hamiltonian_h)
    pq = Poly.zero(nvars)
    for kk in range(n):
        pq = pq + Poly.variable(nvars, n + kk) * Poly.variable(nvars, kk)
    qmat = [
        [-pq * spec.a[i][j] if spec.a[i][j] else Poly.zero(nvars) for j in range(n)]
        for i in range(n)
    ]
    return TwoFormData(frame, tuple(tuple(r) for r in qmat), base.a, base.p)


# ---------------------------------------------------------------------------
# spec files
# ---------------------------------------------------------------------------

def field_from_data(data: dict) -> PolyVectorField:
    with reading():
        n = check_input_n(_as_int(data["n"]))
        comps = data.get("components")
        if not isinstance(comps, list) or len(comps) != 2 * n:
            raise InputError("'components' must list 2n monomial lists")
        polys = tuple(poly_from_monomials(2 * n, c) for c in comps)
    return PolyVectorField(Frame.darboux(n), polys)


def two_form_from_data(data: dict) -> TwoFormData:
    with reading():
        n = check_input_n(_as_int(data["n"]))
        nvars = 2 * n
        zero = Poly.zero(nvars)

        def read(name: str, antisym: bool):
            mat = [[zero] * n for _ in range(n)]
            for row in data.get(name, []):
                if len(row) != 3:
                    raise InputError(f"{name} entry {row!r} needs [i, j, monomials]")
                i, j = _as_int(row[0]) - 1, _as_int(row[1]) - 1
                if not (0 <= i < n and 0 <= j < n):
                    raise InputError(f"{name} index ({i + 1},{j + 1}) out of range")
                poly = poly_from_monomials(nvars, row[2])
                mat[i][j] = mat[i][j] + poly
                if antisym:
                    if i == j and poly:
                        raise InputError(f"{name} diagonal entry must vanish")
                    mat[j][i] = mat[j][i] - poly
            return tuple(tuple(row) for row in mat)

        return TwoFormData(Frame.darboux(n), read("Q", True), read("A", False), read("P", True))
