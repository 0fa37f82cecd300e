"""Independent oracles for the test suite.

Everything here re-derives expected values through a *different* code path
than the package: blades are ascending index tuples (not bitmasks), signs
come from explicit insertion-sort parity, matrix ranks come from sympy, and
RK4 determinants of linear fields and RK4 runs of any polynomial field are
exact rationals.  The dense polynomial evaluator and the one-step-at-a-time
RK4 loop the package used before its kernels were batched are kept here as
bitwise references, and so is the all-degree d.d product check the complex
made before it checked Jacobi on the generators.  The Chevalley-Eilenberg
differential is the Form-level anti-derivation the complex used before one
batch kernel built d, with each d theta^g read off the structure rows; the
invariant-field dimensions are built from it and the package's exterior
algebra, along a route (contractions i_X omega^k) that ``el_dim`` does not
take, and the Poisson contraction is the sum of double ``interior``
products the complex used before one batch kernel served it and the sl(2)
operators.  Nilpotent algebras are also generated here, as seeded iterated
central extensions with seeded symplectic forms, for property tests.
"""

import decimal
from fractions import Fraction

import numpy as np
import sympy

from symplab import linalg
from symplab.cohomology import LieAlgebra, exactness_rank
from symplab.exterior import Form, Frame, blade_basis, image_matrix, interior, wedge, wedge_power

# -- tuple-based exterior algebra -------------------------------------------


def sort_parity(seq):
    """(sorted tuple, parity sign); None if a repeated index appears."""
    items = list(seq)
    if len(set(items)) != len(items):
        return None, 0
    sign = 1
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            items[j - 1], items[j] = items[j], items[j - 1]
            sign = -sign
            j -= 1
    return tuple(items), sign


def tform(terms=None):
    """A form as {ascending index tuple: Fraction}, zeros dropped."""
    out = {}
    for blade, coeff in (terms or {}).items():
        if coeff:
            out[tuple(blade)] = Fraction(coeff)
    return out


def tadd(a, b):
    out = dict(a)
    for blade, coeff in b.items():
        s = out.get(blade, Fraction(0)) + coeff
        if s:
            out[blade] = s
        else:
            out.pop(blade, None)
    return out


def tscale(c, a):
    return {bl: c * co for bl, co in a.items() if c * co}


def twedge(a, b):
    out = {}
    for ba, ca in a.items():
        for bb, cb in b.items():
            blade, sign = sort_parity(ba + bb)
            if blade is None:
                continue
            acc = out.get(blade, Fraction(0)) + sign * ca * cb
            if acc:
                out[blade] = acc
            else:
                out.pop(blade, None)
    return out


def tcontract(j, a):
    """Interior product with the vector dual to generator j."""
    out = {}
    for blade, coeff in a.items():
        if j not in blade:
            continue
        pos = blade.index(j)
        rest = blade[:pos] + blade[pos + 1:]
        acc = out.get(rest, Fraction(0)) + (-1) ** pos * coeff
        if acc:
            out[rest] = acc
        else:
            out.pop(rest, None)
    return out


def tomega(n):
    """omega = dp_i ^ dq^i over generators (q: 0..n-1, p: n..2n-1)."""
    out = {}
    for i in range(n):
        out = tadd(out, twedge(tform({(n + i,): 1}), tform({(i,): 1})))
    return out


def tomega_power(n, k):
    acc = tform({(): 1})
    w = tomega(n)
    for _ in range(k):
        acc = twedge(acc, w)
    return acc


# the fermionic generators, composed exactly as the operator definitions read
def psi_q(n, i):
    return lambda a: tcontract(i, a)


def psi_p(n, i):
    return lambda a: tcontract(n + i, a)


def chi_p(n, i):
    return lambda a: twedge(tform({(n + i,): 1}), a)


def chi_q(n, i):
    return lambda a: twedge(tform({(i,): 1}), a)


def t_e(n):
    def run(a):
        out = {}
        for i in range(n):
            out = tadd(out, chi_p(n, i)(chi_q(n, i)(a)))
        return out

    return run


def t_f(n):
    def run(a):
        out = {}
        for i in range(n):
            out = tadd(out, psi_q(n, i)(psi_p(n, i)(a)))
        return out

    return run


def t_h(n):
    def run(a):
        out = {}
        for i in range(n):
            out = tadd(out, chi_p(n, i)(psi_p(n, i)(a)))
            out = tadd(out, chi_q(n, i)(psi_q(n, i)(a)))
        return tadd(out, tscale(Fraction(-n), a))

    return run


def all_blades(dim):
    blades = [()]
    for g in range(dim):
        blades += [b + (g,) for b in blades]
    return sorted(blades, key=lambda b: (len(b), b))


# -- exact rank oracle -------------------------------------------------------


def sympy_rank(rows):
    if not rows or not rows[0]:
        return 0
    mat = sympy.Matrix(
        [[sympy.Rational(c.numerator, c.denominator) for c in row] for row in rows]
    )
    return mat.rank()


def form_to_tuple(form):
    """Convert a package Form over a frame into the tuple representation."""
    out = {}
    for mask, coeff in form.terms.items():
        blade = tuple(i for i in range(form.frame.dim) if mask >> i & 1)
        out[blade] = Fraction(coeff)
    return out


# -- the 2-form dictionary in coordinates ------------------------------------


def two_form_field_components(alpha):
    """The field of alpha = Q_ij/2 dq^i^dq^j + A^i_j dp_i^dq^j + P^ij/2
    dp_i^dp_j by its hand-derived coordinate formula (sum over j):

        dq^i/dt = dP^{ij}/dq^j + d(tr A)/dp_i - dA^i_j/dp_j
        dp_i/dt = dQ_{ij}/dp_j - d(tr A)/dq^i + dA^j_i/dq^j

    The package reads the field off i_X(omega^n) = -n(n-1) d(alpha) ^
    omega^{n-2} instead; this works on the Q, A, P matrices alone.
    """
    n = alpha.frame.n
    tr_a = sum((alpha.a[j][j] for j in range(1, n)), alpha.a[0][0])
    dq = [
        sum(
            (alpha.p[i][j].diff(j) - alpha.a[i][j].diff(n + j) for j in range(n)),
            tr_a.diff(n + i),
        )
        for i in range(n)
    ]
    dp = [
        sum(
            (alpha.q[i][j].diff(n + j) + alpha.a[j][i].diff(j) for j in range(n)),
            -tr_a.diff(i),
        )
        for i in range(n)
    ]
    return tuple(dq + dp)


# -- cohomology: d, generated algebras, prefix ranks, d.d products and ------
# -- invariant fields ---------------------------------------------------------


def ce_differential(alg, form):
    """d a = sum_g d theta^g ^ i_g a, one structure row (i, j, g, c) at a
    time: d theta^g gains c theta^i ^ theta^j, so d a gains
    c theta^i ^ theta^j ^ i_g a."""
    f = alg.frame
    out = Form.zero(f)
    for i, j, g, c in alg.structure:
        out = out + c * wedge(wedge(Form.generator(f, i), Form.generator(f, j)), interior(g, form))
    return out


def closed_two_form(rng, alg, generators):
    """A seeded integer combination, coefficients in [-2, 2], of a basis of
    the closed 2-forms in theta^1..theta^generators."""
    blades = [m for m in blade_basis(alg.dim, 2) if m < 1 << generators]
    images = [ce_differential(alg, Form(alg.frame, {m: Fraction(1)})) for m in blades]
    basis = linalg.nullspace(image_matrix(alg.frame, images, 3), cols=len(blades))
    weights = [rng.randint(-2, 2) for _ in basis]
    return Form(alg.frame, {m: sum(w * v[r] for w, v in zip(weights, basis)) for r, m in enumerate(blades)})


def central_extension(rng, dim, abelian):
    """A seeded nilpotent Lie algebra of dimension ``dim`` as an iterated
    central extension of R^abelian: each further d theta^k is a
    ``closed_two_form`` in the generators before it, so d.d = 0 holds by
    construction.  Its omega is zero; pair its structure with
    ``symplectic_form``."""
    alg = LieAlgebra((), Form.zero(Frame.invariant(dim)))
    for k in range(abelian, dim):
        rows = tuple(
            (*(i for i in range(dim) if m >> i & 1), k, Fraction(c))
            for m, c in closed_two_form(rng, alg, k).terms.items()
        )
        alg = LieAlgebra(alg.structure + rows, alg.omega)
    return alg


def symplectic_form(rng, alg):
    """A seeded ``closed_two_form`` of ``alg`` with omega^n != 0, or None
    when ten draws give none."""
    for _ in range(10):
        omega = closed_two_form(rng, alg, alg.dim)
        if not wedge_power(omega, alg.dim // 2).is_zero:
            return omega
    return None


def prefix_rank_representatives(cx, m):
    """Closed representatives of H^m, one rank per closed vector.

    The canonical closed vectors of degree m are taken in basis order; each
    is kept when appending it to the columns of d_{m-1} and the closed
    vectors before it raises the rank.  The package picks the same vectors
    from the pivots of one rref.
    """
    size = len(cx.bases[m])
    closed = (
        linalg.nullspace(cx.d[m], cols=size)
        if m < cx.alg.dim
        else [linalg.unit_vector(size, i) for i in range(size)]
    )
    boundary = cx.d[m - 1] if m >= 1 else []
    reps = []
    current = linalg.rank(boundary)
    for idx in range(len(closed)):
        prefix = [
            (boundary[r] if boundary else []) + [v[r] for v in closed[: idx + 1]]
            for r in range(size)
        ]
        rank = linalg.rank(prefix)
        if rank > current:
            reps.append(cx.to_form(closed[idx], m))
            current = rank
    return tuple(reps)


def dd_product_failure(cx):
    """The first degree m with d_{m+1} d_m != 0, by exact matrix products
    over every degree, or None.  This is the Jacobi check ``build_complex``
    made before it checked d(d theta^k) = 0 on the generators alone."""
    for m in range(cx.alg.dim - 1):
        if any(any(row) for row in linalg.matmul(cx.d[m + 1], cx.d[m])):
            return m
    return None


def bivector_contraction(cx, form):
    """f-hat: the sum over a < b of pi^{ab} i_a i_b, pi the complex's
    Poisson bivector, one ``interior`` pair at a time."""
    p = cx.poisson
    out = Form.zero(cx.frame)
    for a in range(cx.alg.dim):
        for b in range(a + 1, cx.alg.dim):
            if p[a][b]:
                out = out + p[a][b] * interior(a, interior(b, form))
    return out


def invariant_field_dims(cx, k):
    """(dim S_k, dim H_k) over the invariant fields X of (g, omega).

    S_k holds the X with d(i_X omega^k) = 0, the symplectic-like fields of
    order k; H_k holds those whose i_X omega^k is exact, the
    Hamiltonian-like ones.  X -> [i_X omega^k] maps S_k into H^{2k-1} with
    kernel H_k, so dim H_k is dim S_k less the rank of its classes.
    """
    wk = wedge_power(cx.alg.omega, k)
    contractions = [interior(g, wk) for g in range(cx.alg.dim)]
    d_matrix = image_matrix(cx.frame, [ce_differential(cx.alg, a) for a in contractions], 2 * k)
    s_basis = linalg.nullspace(d_matrix, cols=cx.alg.dim)
    forms = [
        sum((c * a for c, a in zip(v, contractions) if c), Form.zero(cx.frame))
        for v in s_basis
    ]
    return len(s_basis), len(s_basis) - exactness_rank(cx, forms, 2 * k - 1)


# -- exact RK4 determinant oracle for linear fields ---------------------------


def constant_jacobian(field):
    """The rational matrix A of a linear field X(x) = A x, read through sympy.

    Each component's monomials are rebuilt as a sympy expression and
    differentiated there; a Jacobian entry that still depends on a
    coordinate means the field is not affine, and is rejected.
    """
    dim = len(field.components)
    xs = sympy.symbols(f"x0:{dim}")
    exprs = []
    for comp in field.components:
        expr = sympy.Integer(0)
        for exps, coeff in comp.terms.items():
            term = sympy.Rational(coeff.numerator, coeff.denominator)
            for var, e in zip(xs, exps):
                term *= var**e
            expr += term
        exprs.append(expr)
    jac = sympy.Matrix(exprs).jacobian(xs)
    if jac.free_symbols:
        raise ValueError("field Jacobian is not constant")
    return [[Fraction(int(e.p), int(e.q)) for e in row] for row in jac.tolist()]


def rk4_stability_matrix(a, h):
    """R(hA) for R(z) = sum_{k<=4} z^k/k!, in Fractions: the exact one-step
    RK4 map J -> R(hA) J of the tangent flow of X(x) = A x + b."""
    h = Fraction(h)
    dim = len(a)
    ha = [[h * entry for entry in row] for row in a]
    term = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    r = [row[:] for row in term]
    for k in range(1, 5):
        term = [
            [sum(term[i][m] * ha[m][j] for m in range(dim)) / k for j in range(dim)]
            for i in range(dim)
        ]
        r = [[r[i][j] + term[i][j] for j in range(dim)] for i in range(dim)]
    return r


def rk4_stability_det(a, h):
    """det R(hA), by sympy."""
    r = rk4_stability_matrix(a, h)
    det = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row] for row in r])
    det = det.det()
    return Fraction(int(det.p), int(det.q))


def rk4_stability_power(a, h, steps):
    """R(hA)^steps, the tangent map after ``steps`` RK4 steps, as 60-digit
    Decimals: the exact R(hA) squared and multiplied left to right along
    the bits of ``steps`` (exact Fraction powers grow too long)."""
    with decimal.localcontext(decimal.Context(prec=60)):
        r = [[decimal.Decimal(v.numerator) / v.denominator for v in row]
             for row in rk4_stability_matrix(a, h)]
        power = [[decimal.Decimal(int(i == j)) for j in range(len(r))] for i in range(len(r))]
        for bit in bin(steps)[2:]:
            power = [[sum(x * y for x, y in zip(row, col)) for col in zip(*power)] for row in power]
            if bit == "1":
                power = [[sum(x * y for x, y in zip(row, col)) for col in zip(*r)] for row in power]
    return power


def rk4_det_power_drift(a, h, steps):
    """|det R(hA)^steps - 1|, the exact det drift of ``steps`` RK4 steps of
    X(x) = A x + b, from rk4_stability_det raised in 60-digit decimal (too
    many steps for rk4_linear_det_drift's Fractions)."""
    det = rk4_stability_det(a, h)
    with decimal.localcontext(decimal.Context(prec=60)):
        return float(abs((decimal.Decimal(det.numerator) / det.denominator) ** steps - 1))


def rk4_linear_det_drift(a, h, steps):
    """max_{1<=n<=steps} |det R(hA)^n - 1| in exact rationals: the RK4
    truncation part of the tangent-flow det drift of X(x) = A x."""
    det = rk4_stability_det(a, h)
    power, drift = Fraction(1), Fraction(0)
    for _ in range(steps):
        power *= det
        drift = max(drift, abs(power - 1))
    return drift


# -- exact RK4 of any polynomial field ----------------------------------------


def rk4_exact(field, x0, h, steps):
    """Classical RK4 in Fractions through Poly.eval: the state after
    ``steps`` steps of width ``h`` from ``x0``."""

    def rate(x):
        return [comp.eval(x) for comp in field.components]

    def shift(x, k, w):
        return [xi + w * ki for xi, ki in zip(x, k)]

    x = [Fraction(v) for v in x0]
    for _ in range(steps):
        k1 = rate(x)
        k2 = rate(shift(x, k1, h / 2))
        k3 = rate(shift(x, k2, h / 2))
        k4 = rate(shift(x, k3, h))
        x = [xi + h / 6 * (a + 2 * b + 2 * c + d) for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]
    return x


# -- the full-row LU determinant ----------------------------------------------


def full_row_batch_det(mats):
    """Determinants of a (m, d, d) batch by partially pivoted LU on whole
    rows: every pivot step swaps whole rows of every matrix and eliminates
    every column from c on, and a zero pivot divides by 1.  The package's
    batch_det must give the same bits."""
    work = np.longdouble
    a = np.array(mats, dtype=work, copy=True)
    m, d, _ = a.shape
    det = np.ones(m, dtype=work)
    rows = np.arange(m)
    for c in range(d):
        piv = c + np.argmax(np.abs(a[:, c:, c]), axis=1)
        swapped = piv != c
        if swapped.any():
            tmp = a[rows, piv, :].copy()
            a[rows, piv, :] = a[:, c, :]
            a[:, c, :] = tmp
            det[swapped] = -det[swapped]
        pivval = a[:, c, c].copy()
        det *= pivval
        if c + 1 < d:
            safe = np.where(pivval == 0, work(1), pivval)
            factors = a[:, c + 1:, c] / safe[:, None]
            a[:, c + 1:, c:] -= factors[:, :, None] * a[:, None, c, c:]
    return det


# -- the dense polynomial evaluator and the per-step RK4 loop -----------------


def dense_evaluate(polys, xs):
    """Values (m, k) and Jacobians (m, k, nvars) of a polynomial tuple by
    the dense formula: every monomial x ** e over all term rows (the sorted
    terms of each polynomial, then of each partial), multiplied out along
    the variables and by its coefficient, then added into its output slot
    one row at a time, from +0.  (A (rows, slots) scatter-matrix product
    gives the same sums for finite monomials, but multiplies an inf or NaN
    one by the zeros of every other slot.)"""
    work = np.longdouble
    k, nvars = len(polys), polys[0].nvars
    rows = [(i, e, c) for i, p in enumerate(polys) for e, c in p.sorted_terms()]
    rows += [
        (k + i * nvars + j, e, c)
        for i, p in enumerate(polys)
        for j in range(nvars)
        for e, c in p.diff(j).sorted_terms()
    ]
    m, out_dim = xs.shape[0], k + k * nvars
    stacked = np.zeros((m, out_dim), dtype=work)
    if rows:
        exps = np.array([e for _, e, _ in rows], dtype=np.int64)
        monomials = (xs[:, None, :] ** exps[None, :, :]).prod(axis=2)
        for row, (slot, _, c) in enumerate(rows):
            stacked[:, slot] += monomials[:, row] * (work(c.numerator) / work(c.denominator))
    return stacked[:, :k], stacked[:, k:].reshape(m, k, nvars)


def _batch_det_drift(flows, js):
    return np.max(np.abs(flows.batch_det(js) - 1))


def rk4_stage_loop(flows, field, xs, cfg, tangents=None):
    """Four-stage RK4 of a field and its tangents V' = DX V from V(0) =
    tangents (m, dim, c), the identity by default, one step at a time:
    dense_evaluate, einsum stage products, one batch_det per step when V
    starts at the identity, a norm test per step.  Returns (final states,
    final tangents, states path, tangent path, max |det J - 1|, blow-up
    step), with every path kept, where the package's _rk4_run keeps a
    tangent flow's states path and final tangents alone."""
    polys = field.components
    work = np.longdouble
    dt = work(cfg.effective_dt)
    half = work(0.5) * dt
    sixth = dt / work(6.0)
    two = work(2.0)
    m, dim = xs.shape
    js = np.broadcast_to(np.eye(dim, dtype=work), (m, dim, dim)) if tangents is None else tangents
    states, jacs = [xs.copy()], [js.copy()]
    from_identity = tangents is None
    max_det = _batch_det_drift(flows, js) if from_identity else work(0.0)
    blow_step = None
    for step in range(cfg.steps):
        v1, j1 = dense_evaluate(polys, xs)
        k1j = np.einsum("mij,mjk->mik", j1, js)
        v2, j2 = dense_evaluate(polys, xs + half * v1)
        k2j = np.einsum("mij,mjk->mik", j2, js + half * k1j)
        v3, j3 = dense_evaluate(polys, xs + half * v2)
        k3j = np.einsum("mij,mjk->mik", j3, js + half * k2j)
        v4, j4 = dense_evaluate(polys, xs + dt * v3)
        k4j = np.einsum("mij,mjk->mik", j4, js + dt * k3j)
        xs = xs + sixth * (v1 + two * v2 + two * v3 + v4)
        js = js + sixth * (k1j + two * k2j + two * k3j + k4j)
        states.append(xs.copy())
        jacs.append(js.copy())
        if from_identity:
            max_det = max(max_det, _batch_det_drift(flows, js))
        if not np.sqrt(np.max(np.sum(xs * xs, axis=1))) <= flows.NORM_CAP:
            blow_step = step + 1
            break
    return xs, js, np.array(states), np.array(jacs), float(max_det), blow_step
