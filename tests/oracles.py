"""Independent oracles for the test suite.

Everything here re-derives expected values through a *different* code path
than the package: blades are ascending index tuples (not bitmasks), signs
come from explicit insertion-sort parity, matrix ranks come from sympy, and
RK4 determinants of linear fields are exact rationals.  The dense
polynomial evaluator and the one-step-at-a-time RK4 loops the package used
before its kernels were batched are kept here as bitwise references.
"""

from fractions import Fraction

import numpy as np
import sympy

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


# -- cohomology representatives by prefix ranks ------------------------------


def prefix_rank_representatives(cx, m):
    """Closed representatives of H^m, one rank per closed vector.

    The canonical closed vectors of degree m are taken in basis order; each
    is kept when appending it to the columns of d_{m-1} and the closed
    vectors before it raises the rank.  The package picks the same vectors
    from the pivots of one rref.
    """
    from symplab import linalg

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


def rk4_stability_det(a, h):
    """det R(hA) for R(z) = sum_{k<=4} z^k/k!, the exact one-step RK4 map
    J -> R(hA) J of the tangent flow of X(x) = A x."""
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
    det = sympy.Matrix(
        [[sympy.Rational(c.numerator, c.denominator) for c in row] for row in r]
    ).det()
    return Fraction(int(det.p), int(det.q))


def rk4_linear_det_drift(a, h, steps):
    """max_{1<=n<=steps} |det R(hA)^n - 1| in exact rationals: the RK4
    truncation part of the tangent-flow det drift of X(x) = A x."""
    det = rk4_stability_det(a, h)
    power, drift = Fraction(1), Fraction(0)
    for _ in range(steps):
        power *= det
        drift = max(drift, abs(power - 1))
    return drift


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
    starts at the identity, a norm test per step.  Returns what the
    package's _rk4_run returns, with every path kept."""
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


def rk4_affine_step_loop(flows, field, xs, cfg):
    """RK4 of an affine field through the package's rounded one-step
    propagator R~ = [[R, c], [0, 1]], one step at a time: x -> fl(fl(x R^T)
    + c) and J -> fl(R J) as two products, one batch_det per step folded
    with np.maximum, a norm test per step.  Returns what the package's
    _rk4_run returns, with every path kept."""
    work = np.longdouble
    aug = flows._affine_propagator(field, Fraction(cfg.effective_dt))
    r = np.array([[flows._round_work(v) for v in row[:-1]] for row in aug[:-1]], dtype=work)
    c = np.array([flows._round_work(row[-1]) for row in aug[:-1]], dtype=work)
    r_t = r.T.copy()
    m, dim = xs.shape
    js = np.eye(dim, dtype=work)[None]
    states, jacs = [xs.copy()], [js.copy()]
    max_det = _batch_det_drift(flows, js)
    blow_step = None
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(cfg.steps):
            xs = xs @ r_t + c
            js = r @ js
            states.append(xs.copy())
            jacs.append(js.copy())
            max_det = np.maximum(max_det, _batch_det_drift(flows, js))
            if not np.sqrt(np.max(np.sum(xs * xs, axis=1))) <= flows.NORM_CAP:
                blow_step = step + 1
                break
    js = np.broadcast_to(js, (m, dim, dim))
    return xs, js, np.array(states), np.array(jacs), float(max_det), blow_step
