"""Numerical verification of volume- and area-preservation along flows.

Fixed-step classical RK4 is a measurement instrument here, not a
structure-preserving scheme: trajectories, the variational (tangent) flow
J' = DX(x(t)) J and transported chain integrals are all computed with it and
compared against the exact predictions of the symbolic layer.  On an affine
field one RK4 step is an exact rational map, so the det drift and J after N
steps come from its exact N-th power: they are RK4's truncation, free of
the rounding a stepped J piles up (det J_N at condition number ~5e10).

All floating-point work uses numpy's extended-precision ``longdouble``: the
det of a stepped J loses to rounding about as many digits as its condition
number has, and extended precision keeps three more than double does.
``numpy.linalg`` refuses longdouble, hence the small pivoted-LU determinant
below.
"""

from __future__ import annotations

import decimal
import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .exterior import Frame, omega_power
from .fields import PolyVectorField, lie_derivative
from .polynomials import InputError, Poly, check_input_degree, sum_terms

WORK_DTYPE = np.longdouble
NORM_CAP = 1e9
# bound on the Gauss-Legendre nodes of one chain patch (the product of its
# orders), which the chain quadrature evaluates at once: at 4096 nodes a
# chain integral takes about 0.02 s; 100000 x 100000 nodes would need
# 75 GiB.  MAX_FLOW_WORK bounds the RK4 transport of the nodes
MAX_CHAIN_NODES = 4096
# RK4 runs go in blocks of max(1, DET_BATCH // m) steps (m nodes).  A
# nonlinear run that steps J (a tangent flow, or a transport with some l = n
# chain) checks its det with one batch_det call per block, of m maps a step:
# at most DET_BATCH matrices, or one step's m where m > DET_BATCH
DET_BATCH = 1024
# one budget on a flow run, in longdouble values: both its RK4 work,
# steps x (STEP_VALUES + nodes x (field term rows + dim^2)), and the values
# its kept paths hold are refused above it.  dim^2 counts a full tangent
# map per node, so how a run steps (fewer columns, or no step on a proven
# affine transport) moves no refusal.  STEP_VALUES is a step's fixed cost:
# the stage loop stepping full tangent maps takes at most about 46 + 0.19 x
# values us per step for the Duffing field and 77 + 0.25 x values for a
# quartic at n = 2 (2-core x86-64), so at 5e7 it runs at most about 10 to
# 20 s, and kept paths take at most 800 MB
MAX_FLOW_WORK = 5 * 10**7
STEP_VALUES = 250


@dataclass(frozen=True)
class FlowConfig:
    """Fixed-step classical RK4 run to t_final.

    The step count is round(t_final / dt) and the uniform step width is
    nudged to t_final / steps so the run lands exactly on t_final (when
    t_final is a multiple of dt the width is dt itself).  MAX_FLOW_WORK
    alone bounds a run: a step costs at least STEP_VALUES + 4 values, so
    more than about 2e5 steps are refused before the first one.
    """

    t_final: float
    dt: float

    def __post_init__(self):
        if not (math.isfinite(self.t_final) and math.isfinite(self.dt)):
            raise InputError("t_final and dt must be finite")
        if self.dt <= 0:
            raise InputError("dt must be positive")
        if self.t_final < 0:
            raise InputError("t_final must be nonnegative")
        if not math.isfinite(self.t_final / self.dt):
            raise InputError("t_final / dt must be finite")

    @property
    def steps(self) -> int:
        if self.t_final == 0:
            return 0
        return max(1, int(round(self.t_final / self.dt)))

    @property
    def effective_dt(self) -> float:
        if self.t_final == 0:
            return self.dt
        return self.t_final / self.steps


# ---------------------------------------------------------------------------
# compiled evaluation of a polynomial map and its Jacobian
# ---------------------------------------------------------------------------

class CompiledField:
    """Batched values and Jacobians of a polynomial map.

    The map is a vector field (its components) or any sequence of k
    polynomials in nvars variables, such as a chain's parametrization.
    Every value and Jacobian entry is a sum of coefficient-weighted
    monomials, one term row each, in sorted term order.  A call builds a
    table of the powers x_i^p the rows use: first the x_i^1 rows, plain
    copies of the coordinates, then the x_0^0 pad and the powers p >= 2,
    formed in place with the same ``powl`` as ``x ** p`` (``powl`` makes x^1
    = x and x^0 = 1, NaN included, so the copies agree with it to the bit).
    It multiplies each row's nonzero-power factors in variable order
    (skipping x^0 = 1 is exact) and adds the rows into their output slots
    in row order, from +0, with one flat ``np.add.at``: the sums a
    dense evaluation forms (every monomial, each slot's rows added in row
    order), so the results agree to the bit.  The flat index of a call is
    built once per node count, and a call writes only arrays it allocates,
    so one instance serves several threads.  It is the one place an input
    coefficient is rounded and refused (see _round_coefficient).
    """

    def __init__(self, x):
        self.field = x
        polys = tuple(x.components if isinstance(x, PolyVectorField) else x)
        k, nvars = len(polys), polys[0].nvars
        self.k, self.nvars = k, nvars
        rows = _term_rows(polys)
        self.out_dim = k + k * nvars
        # factors (i, p) of x_i^p; x_0^0 = 1 pads rows with fewer factors
        factors = [[(i, p) for i, p in enumerate(e) if p] for _, e, _ in rows]
        width = max(1, max(map(len, factors), default=0))
        padded = [f + [(0, 0)] * (width - len(f)) for f in factors]
        # the x_i^1 rows first, then the pad and the powers powl forms
        powers = sorted({pair for f in padded for pair in f}, key=lambda f: (f[1] != 1, f))
        row_of = {pair: r for r, pair in enumerate(powers)}
        self.table_vars = np.array([i for i, _ in powers], dtype=np.intp)
        self._linear = sum(p == 1 for _, p in powers)
        self.table_exps = np.array(
            [p for _, p in powers[self._linear:]], dtype=WORK_DTYPE).reshape(-1, 1)
        self.factors = [
            np.array([row_of[f[col]] for f in padded], dtype=np.intp) for col in range(width)
        ]
        self.coeffs = np.array(
            [_round_coefficient(c, lambda: _term_name(s, k, nvars)) for s, _, c in rows],
            dtype=WORK_DTYPE,
        ).reshape(len(rows), 1)
        self.slots = np.array([s for s, _, _ in rows], dtype=np.intp)
        # node count m -> the flat index of a call's scatter into its sums
        self._scatter = {}

    def __call__(self, xs: np.ndarray):
        """xs (m, nvars) -> (values (m, k), jacobians (m, k, nvars)).  xs
        may be any strided (m, nvars) view of any real dtype; it is
        evaluated in WORK_DTYPE."""
        m = xs.shape[0]
        if xs.dtype != WORK_DTYPE:
            xs = xs.astype(WORK_DTYPE)  # the powers below are formed in place
        table = xs.T.take(self.table_vars, axis=0)
        powered = table[self._linear:]
        np.power(powered, self.table_exps, powered)
        terms = table.take(self.factors[0], axis=0)
        for factor in self.factors[1:]:
            terms *= table.take(factor, axis=0)
        terms *= self.coeffs
        index = self._scatter.get(m)
        if index is None:
            # the row-major (rows, m) terms: entry (row, node) adds into
            # (node, slot), and a flat np.add.at adds in that order, so every
            # slot gains its rows in row order
            index = self._scatter[m] = (np.arange(m) * self.out_dim + self.slots[:, None]).ravel()
        sums = np.zeros(self.out_dim * m, dtype=WORK_DTYPE)
        np.add.at(sums, index, terms.ravel())
        stacked = sums.reshape(m, self.out_dim)
        return stacked[:, : self.k], stacked[:, self.k:].reshape(m, self.k, self.nvars)


def _term_rows(polys):
    """(output slot, exponents, coefficient) of every value and Jacobian
    term of a polynomial tuple: the values' sorted terms, then those of each
    partial derivative."""
    k, nvars = len(polys), polys[0].nvars
    rows = [(i, e, c) for i, p in enumerate(polys) for e, c in p.sorted_terms()]
    rows += [
        (k + i * nvars + j, e, c)
        for i, p in enumerate(polys)
        for j in range(nvars)
        for e, c in p.diff(j).sorted_terms()
    ]
    return rows


def _term_name(slot, k, nvars):
    """How a refusal names a term row's coefficient: a Jacobian one by its
    partial derivative, a value one by nothing."""
    i, j = divmod(slot - k, nvars)
    return f" of the partial derivative of component {i + 1} in x{j + 1}" if i >= 0 else ""


def batch_det(mats: np.ndarray) -> np.ndarray:
    """Determinants of a (m, d, d) batch via partially pivoted LU, in
    WORK_DTYPE.

    Bit for bit a full-row LU: the same pivots (the first largest |entry|
    of the column, a NaN before any number) and the same operations on
    every entry that reaches the determinant.  Rows are swapped from column
    c on and only the trailing columns are eliminated; the entries left out
    are never read again.  A zero pivot divides by 1 (its column below is
    all zeros, so they stay as they are), and singular, NaN and inf inputs
    give the same bits too.  The batch runs along the last axis, so every
    array operation loops over the m matrices innermost.
    """
    a = np.asarray(mats, dtype=WORK_DTYPE).transpose(1, 2, 0).copy()
    d, _, m = a.shape
    det = np.ones(m, dtype=WORK_DTYPE)
    every = np.arange(m)
    for c in range(d - 1):
        piv = c + np.argmax(np.abs(a[c:, c]), axis=0)
        swapped = piv != c
        if swapped.any():
            # rows piv and c of every matrix; an unmoved one swaps c with c
            pivot_rows = a[piv, c:, every]
            a[piv, c:, every] = a[c, c:].T
            a[c, c:] = pivot_rows.T
            np.negative(det, out=det, where=swapped)
        pivval = a[c, c]
        det *= pivval
        # the multipliers overwrite column c below the pivot, read no more
        factors = a[c + 1:, c]
        np.divide(factors, pivval, out=factors, where=pivval != 0)
        a[c + 1:, c + 1:] -= factors[:, None] * a[None, c, c + 1:]
    # the last column has one candidate row: no pivot search
    return det * a[d - 1, d - 1] if d else det


# ---------------------------------------------------------------------------
# trajectories and the variational flow
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """The states at every step; a run that blew up stops at blow_up_step."""

    states: np.ndarray
    blow_up_step: int | None = None

    @property
    def blew_up(self) -> bool:
        return self.blow_up_step is not None


@dataclass
class TangentFlow:
    """A tangent flow; det_drift is max |det J - 1| over its steps, exact
    on an affine field (see _rk4_run)."""

    trajectory: Trajectory
    jacobians: np.ndarray
    det_drift: float

    def max_det_drift(self) -> float:
        return self.det_drift


def _rk4_run(compiled: CompiledField, xs, cfg: FlowConfig, frames=None):
    """The one RK4 run: a batch of m states and their tangents, stepped by
    _stage_blocks in blocks of at most max(1, DET_BATCH // m) steps.

    ``frames`` decides the run.  None makes it a tangent flow: it steps J
    from J(0) = I and keeps its paths.  Otherwise frames lists the tangent
    frames (m_i, dim, c_i) of the chains whose nodes are stacked in xs, in
    that order, and the run is a transport: it keeps no paths and pushes
    each chain's frames to J . dsigma/du with one einsum at the end, or, on
    a nonlinear field with no square frame (c_i = dim, l = n), rides their
    columns, V' = DX V, stacked into one (m, dim, c) array.  After each
    block every node is tested at every step for a blow-up: the first step
    past NORM_CAP (a NaN norm included) cuts the run.  A nonlinear run that
    steps J takes one batch_det call per block and folds each call's max
    |det J - 1| with np.maximum, so a NaN determinant makes the drift NaN.

    On an affine field one RK4 step is the exact R~ of _affine_propagator,
    so the run reports J_N = R^N (_propagator_power) and the drift of det
    J_N = (det R)^N (_det_change), N the steps taken.  A tangent flow steps
    J to keep its path; a transport steps its states alone, for the blow-up
    test, or none at all where _proven clears it.

    A run whose work or kept paths exceed MAX_FLOW_WORK values is refused
    before anything is allocated.

    Returns (paths, drift, blow_step).  A tangent flow's paths are its
    states (samples, m, dim) and tangent maps (samples, m, dim, dim), with
    samples = steps + 1, or blow_step + 1 after a blow-up; a transport's
    are the list of each chain's pushed frames (m_i, dim, c_i).  drift is
    the max |det J - 1| of a nonlinear run (0 where it takes no det), or
    the exact det J_N - 1 of an affine one, signed, whose size is that max
    as det R > 0 makes (det R)^n monotone."""
    m, dim = xs.shape
    per_node = len(compiled.slots) + dim * dim
    work = cfg.steps * (STEP_VALUES + m * per_node)
    kept = (cfg.steps + 1) * m * (dim + dim * dim) if frames is None else 0
    if max(work, kept) > MAX_FLOW_WORK:
        raise InputError(
            f"{_count(cfg.steps)} steps x ({STEP_VALUES} + {m} nodes x {per_node} values per "
            f"node) = {_count(work)} values of RK4 work, and {_count(kept)} values of kept "
            f"paths; the budget is {MAX_FLOW_WORK} of each"
        )
    affine = _is_affine(compiled.field)
    step = _affine_propagator(compiled.field, Fraction(cfg.effective_dt)) if affine else None
    check_det = not affine and (frames is None or any(f.shape[2] == dim for f in frames))
    ride = frames is not None and not (affine or check_det)
    # an affine transport steps J's first 0 columns: its states alone
    columns = 0 if frames is not None and affine else dim
    vs = np.concatenate(frames) if ride else np.eye(dim, dtype=WORK_DTYPE)[None, :, :columns]
    samples = cfg.steps + 1
    if frames is None:
        states_path = np.empty((samples, m, dim), dtype=WORK_DTYPE)
        tangent_path = np.empty((samples, m, dim, dim), dtype=WORK_DTYPE)
        states_path[0], tangent_path[0] = xs, vs
    max_det = WORK_DTYPE(0.0)  # |det I - 1|
    block = max(1, min(cfg.steps, DET_BATCH // m))
    # nodes whose squares overflow (N0 = inf), states stepped past a blow-up
    # (discarded) and an overflowed J_N warn about nothing
    with np.errstate(over="ignore", invalid="ignore"):
        proven = affine and frames is not None and _proven(*_step_bound(step), xs.T, cfg.steps)
        blocks = () if proven else _stage_blocks(compiled, xs, vs, cfg, block)
        taken, blow_step = cfg.steps if proven else 0, None
        for xb, vb in blocks:
            norms = np.sqrt(np.max(np.sum(xb * xb, axis=2), axis=1))
            past = np.flatnonzero(~(norms <= NORM_CAP))
            done = int(past[0]) + 1 if len(past) else len(xb)
            if frames is None:
                states_path[taken + 1:taken + 1 + done] = xb[:done]
                tangent_path[taken + 1:taken + 1 + done] = vb[:done]
            if check_det:
                dets = batch_det(vb[:done].reshape(-1, dim, dim))
                max_det = np.maximum(max_det, np.max(np.abs(dets - 1)))
            vs = vb[done - 1].copy()
            taken += done
            if len(past):
                blow_step, samples = taken, taken + 1
                break
        if affine:
            max_det = _det_change(step, taken)
        if frames is None:
            return (states_path[:samples], tangent_path[:samples]), float(max_det), blow_step
        if affine:
            vs = _propagator_power(step, taken)[None]
        # each chain's rows of the stepped columns, or of J
        vs = np.broadcast_to(vs, (m,) + vs.shape[1:])
        parts = np.split(vs, np.cumsum([len(f) for f in frames[:-1]]))
        pushed = parts if ride else [np.einsum("mij,mjl->mil", j, f) for j, f in zip(parts, frames)]
    return pushed, float(max_det), blow_step


def _count(value: int) -> str:
    """A count as a refusal prints it: whole below 10^15, else as %.3e,
    rounded from the exact integer (a step count near the float range times
    a step's values passes it)."""
    return str(value) if value < 10**15 else f"{decimal.Decimal(value):.3e}"


def _stage_blocks(compiled: CompiledField, xs, tangents, cfg: FlowConfig, block):
    """The four-stage RK4 loop, for any polynomial field, from the states xs
    (m, dim) and the tangents (m or 1, dim, c).  Both step as one array
    Y = [x | V] of shape (m, dim, 1 + c), whose stage derivative is
    [X(x) | DX(x) V], so each RK4 combination is one numpy call on both.
    Yields each block's states (count, m, dim) and tangents (count, m, dim,
    c), views of a buffer the next block overwrites."""
    dt = WORK_DTYPE(cfg.effective_dt)
    half = WORK_DTYPE(0.5) * dt
    sixth = dt / WORK_DTYPE(6.0)
    two = WORK_DTYPE(2.0)
    m, dim = xs.shape
    c = tangents.shape[2]
    ybuf = np.empty((block, m, dim, 1 + c), dtype=WORK_DTYPE)
    y = np.empty((m, dim, 1 + c), dtype=WORK_DTYPE)
    y[:, :, 0], y[:, :, 1:] = xs, tangents
    # a buffer for each stage derivative, with its two column views made once
    k1p, k2p, k3p, k4p = [(k, k[:, :, 0], k[:, :, 1:]) for k in np.empty((4,) + y.shape, y.dtype)]

    def derivative(y, buffer):
        k, kx, kv = buffer
        v, a = compiled(y[:, :, 0])
        kx[...] = v
        np.matmul(a, y[:, :, 1:], out=kv)
        return k

    for start in range(0, cfg.steps, block):
        count = min(block, cfg.steps - start)
        for s in range(count):
            k1 = derivative(y, k1p)
            k2 = derivative(y + half * k1, k2p)
            k3 = derivative(y + half * k2, k3p)
            k4 = derivative(y + dt * k3, k4p)
            y = np.add(y, sixth * (k1 + two * k2 + two * k3 + k4), out=ybuf[s])
        yield ybuf[:count, :, :, 0], ybuf[:count, :, :, 1:]


# ---------------------------------------------------------------------------
# exact one-step propagator of an affine field
# ---------------------------------------------------------------------------

def _is_affine(x: PolyVectorField) -> bool:
    return all(comp.total_degree() <= 1 for comp in x.components)


def _affine_propagator(x: PolyVectorField, h: Fraction):
    """Exact one-step RK4 map of the affine field X(x) = A x + b, as the
    augmented R~ = [[R, c], [0, 1]] with x -> R x + c.

    With the augmented M = [[A, b], [0, 0]], one RK4 step is the truncated
    exponential R~ = sum_{k<=4} (hM)^k / k! (the RK4 stability function),
    summed here in Fractions.  Returns R~ as rows of Fractions.
    """
    hm = [
        [h * comp.diff(j).constant_term() for j in range(x.frame.dim)] + [h * comp.constant_term()]
        for comp in x.components
    ]
    hm.append([Fraction(0)] * len(hm[0]))
    total = term = [linalg.unit_vector(len(hm), i) for i in range(len(hm))]
    for k in range(1, 5):
        term = [[v / k for v in row] for row in linalg.matmul(term, hm)]
        total = [[t + v for t, v in zip(rt, rv)] for rt, rv in zip(total, term)]
    return total


_MANT_BITS = np.finfo(WORK_DTYPE).nmant + 1
# 2^-_QUANTUM_SHIFT is the subnormal quantum, WORK_DTYPE's finest spacing
_QUANTUM_SHIFT = np.finfo(WORK_DTYPE).nmant - np.finfo(WORK_DTYPE).minexp


def _round_work(q: Fraction):
    """q rounded once, to nearest with ties to even, into WORK_DTYPE (to
    +-inf past its range)."""
    num, den = abs(q.numerator), q.denominator
    if not num:
        return WORK_DTYPE(0)
    shift = min(_MANT_BITS - (num.bit_length() - den.bit_length()), _QUANTUM_SHIFT)
    a, b = (num << shift, den) if shift >= 0 else (num, den << -shift)
    if a >= b << _MANT_BITS:
        shift, b = shift - 1, b << 1
    # a / b = |q| 2^shift now lies in [2^(MANT_BITS-1), 2^MANT_BITS), or
    # below it where shift stops at the subnormal quantum: its nearest
    # integer is at most 2^MANT_BITS and converts exactly, and ldexp is exact
    whole, rest = divmod(a, b)
    whole += 2 * rest > b or (2 * rest == b and whole & 1)
    with np.errstate(over="ignore"):
        return np.ldexp(WORK_DTYPE(whole if q > 0 else -whole), -shift)


def _round_coefficient(c: Fraction, term):
    """An input coefficient rounded into WORK_DTYPE; a nonzero one that
    rounds to +-inf or to 0 is refused, with the text ``term()`` after the
    number (called only then)."""
    value = _round_work(c)
    if c and not (np.isfinite(value) and value):
        size = math.log10(abs(c.numerator)) - math.log10(c.denominator)
        raise InputError(
            f"coefficient ~{'-' if c < 0 else ''}1e{size:.0f}{term()} rounds to "
            f"{'inf' if value else '0'} in {WORK_DTYPE.__name__}"
        )
    return value


# the step bound's relative margin, far above the eps / 2 that rounds each
# entry of R~ into WORK_DTYPE and the float64 rounding of the bound; and its
# absolute floor, far above what underflow can lose in either
_BOUND_MARGIN = 1 + 2.0**-30
_BOUND_FLOOR = 2.0**-900


def _step_bound(step):
    """(r, g) with |R x + c| <= r |x| + g (2-norms) for every state x and
    the exact affine RK4 step R~ = [[R, c], [0, 1]] of _affine_propagator,
    from its entries rounded once into WORK_DTYPE (to +-inf past it):
    ||R||_2 <= sqrt(||R||_1 ||R||_inf), and _BOUND_MARGIN and _BOUND_FLOOR
    cover that rounding, underflow and the float64 arithmetic here.  An
    entry past the range makes r or g non-finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        mag = np.abs(np.array([[_round_work(v) for v in row] for row in step[:-1]], WORK_DTYPE))
        col_sum = float(np.max(np.sum(mag[:, :-1], axis=0)))
        row_sum = float(np.max(np.sum(mag[:, :-1], axis=1)))
        shift = float(np.sqrt(np.sum(mag[:, -1] * mag[:, -1])))
    r = math.sqrt(col_sum) * math.sqrt(row_sum)
    return r * _BOUND_MARGIN + _BOUND_FLOOR, shift * _BOUND_MARGIN + _BOUND_FLOOR


def _proven(r, g, nodes, k) -> bool:
    """Whether k exact affine steps from the nodes (dim, m) keep every
    node's norm within NORM_CAP / 2, by the step bound |x_{j+1}| <= r |x_j|
    + g: by induction |x_j| <= max(1, r)^j (N0 + j g), with N0 the largest
    norm of the nodes.  The other half of the cap covers the rounding of
    N0, of the bound and of the stage loop.  A non-finite r, g or N0 (N0 =
    inf where the nodes' squares overflow), or a power past the float
    range, proves nothing."""
    n0 = float(np.sqrt(np.max(np.sum(nodes * nodes, axis=0))))
    if not (math.isfinite(r) and math.isfinite(g) and math.isfinite(n0)):
        return False
    try:
        growth = max(1.0, r) ** k
    except OverflowError:
        return False
    return growth * (n0 + k * g) <= NORM_CAP / 2


def _exact_det(rows) -> Fraction:
    """The determinant of a square matrix of Fractions, by elimination."""
    a, det = [list(row) for row in rows], Fraction(1)
    for c in range(len(a)):
        pivot = next((r for r in range(c, len(a)) if a[r][c]), c)
        if pivot != c:
            a[c], a[pivot], det = a[pivot], a[c], -det
        det *= a[c][c]
        if not det:
            return det
        for row in a[c + 1:]:
            factor = row[c] / a[c][c]
            row[c:] = [v - factor * p for v, p in zip(row[c:], a[c][c:])]
    return det


def _det_change(step, n: int) -> float:
    """(det R)^n - 1 for the exact affine RK4 step R~ = [[R, c], [0, 1]],
    as expm1(n log det R): log det R is log1p(det R - 1) near 1, so no
    digit cancels, and the logs of its numerator and denominator elsewhere;
    inf past the float range.  det R >= 0, as RK4's quartic stability
    function has no real root; it is 0 only where an eigenvalue of hA is
    one of its complex roots."""
    det = _exact_det([row[:-1] for row in step[:-1]])
    if not det:
        return -1.0 if n else 0.0
    if abs(det - 1) < Fraction(1, 2):
        log_det = math.log1p(float(det - 1))
    else:
        log_det = math.log(det.numerator) - math.log(det.denominator)
    with np.errstate(over="ignore"):
        return float(np.expm1(n * log_det))


# R^n at 80 significant digits (120 give the same figures), over the widest
# exponent range and with no trap: Infinity and NaN round as inf and NaN
_POWER_CONTEXT = decimal.Context(prec=80, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN, traps=[])


def _propagator_power(step, n: int):
    """R^n (dim, dim) for the exact affine RK4 step R~ = [[R, c], [0, 1]]:
    the tangent map J_n of n steps, by binary powering in decimal at
    _POWER_CONTEXT, each entry rounded once into WORK_DTYPE."""
    def times(a, b):
        return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]

    dim = len(step) - 1
    with decimal.localcontext(_POWER_CONTEXT) as ctx:
        base = [[ctx.divide(v.numerator, v.denominator) for v in row[:-1]] for row in step[:-1]]
        power = [[decimal.Decimal(int(i == j)) for j in range(dim)] for i in range(dim)]
        while n:
            if n & 1:
                power = times(power, base)
            n >>= 1
            if n:
                base = times(base, base)
    return np.array([[_round_decimal(v) for v in row] for row in power], dtype=WORK_DTYPE)


def _round_decimal(d: decimal.Decimal):
    """d rounded once into WORK_DTYPE; past 10^+-5000, beyond its range,
    as float's +-inf or +-0, without forming d's integer ratio."""
    if not d.is_finite() or abs(d.adjusted()) > 5000:
        return WORK_DTYPE(float(d))
    return _round_work(Fraction(d))


def tangent_flow(x: PolyVectorField, x0, cfg: FlowConfig) -> TangentFlow:
    """RK4 from one point with a sample at every step: the trajectory plus
    the variational flow J(t), J(0) = identity, and the run's max
    |det J - 1|.  Blow-up is flagged, not raised (state norm cap
    NORM_CAP)."""
    xs = np.array([x0], dtype=WORK_DTYPE)
    if xs.shape != (1, x.frame.dim):
        raise ValueError("x0 must have one coordinate per generator")
    (path, jpath), drift, blow = _rk4_run(CompiledField(x), xs, cfg)
    return TangentFlow(Trajectory(path[:, 0], blow), jpath[:, 0], abs(drift))


def divergence(x: PolyVectorField) -> Poly:
    """Exact divergence; the zero polynomial iff X preserves phase volume."""
    return Poly(x.frame.dim, sum_terms(
        term for i, comp in enumerate(x.components) for term in comp.diff(i).terms.items()
    ))


# ---------------------------------------------------------------------------
# chains and transported integrals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainPatch:
    """A parametrized 2l-cube [0,1]^{2l} -> R^{2n} with quadrature orders.

    ``maps`` lists one polynomial per phase-space coordinate, all in the
    same 2l parameter variables, so the maps fix both n and the half-degree
    l; ``orders`` gives the Gauss-Legendre point count per axis.  A map
    component above MAX_INPUT_DEGREE is refused, and so is an order too
    small to integrate the omega^l pullback exactly along its axis (see
    ``pullback_degree_bound``).
    """

    maps: tuple[Poly, ...]
    orders: tuple[int, ...]

    def __post_init__(self):
        if not self.maps or len(self.maps) % 2:
            raise InputError("need one map component per phase-space coordinate")
        nvars = self.maps[0].nvars
        if nvars < 2 or nvars % 2 or any(p.nvars != nvars for p in self.maps):
            raise InputError("map components must share one even, positive parameter count")
        for poly in self.maps:
            check_input_degree(poly, "chain map component")
        if len(self.orders) != 2 * self.l:
            raise InputError("need one quadrature order per parameter axis")
        if any(o < 1 for o in self.orders):
            raise InputError("quadrature orders must be >= 1")
        nodes = math.prod(self.orders)
        if nodes > MAX_CHAIN_NODES:
            raise InputError(
                f"orders {list(self.orders)} give {nodes} quadrature nodes, "
                f"above the budget of {MAX_CHAIN_NODES}; desk-scale inputs only"
            )
        if len(self.maps) < 2 * self.l:
            raise InputError(
                f"a 2l-chain needs l <= n, but l = {self.l} and n = {len(self.maps) // 2}"
            )
        for axis, (order, degree) in enumerate(zip(self.orders, self.pullback_degree_bound())):
            if 2 * order - 1 < degree:
                raise InputError(
                    f"axis {axis}: {order} Gauss-Legendre points are exact up to degree "
                    f"{2 * order - 1}, but the omega^{self.l} pullback may reach degree "
                    f"{degree}; need an order of at least {degree // 2 + 1}"
                )

    @property
    def l(self) -> int:
        """The half-degree: half the maps' parameter count."""
        return self.maps[0].nvars // 2

    def pullback_degree_bound(self) -> list[int]:
        """Per-axis bound on the degree of the omega^l pullback.

        The pullback is a sum of 2l x 2l minors of the map's Jacobian, each
        term a product of entries from 2l distinct map rows.  So along axis
        a its degree is at most the sum of the 2l largest, over map rows, of
        the row's highest degree in u_a among its partials.
        """
        nvars = 2 * self.l
        partials = [[p.diff(j) for j in range(nvars)] for p in self.maps]
        bound = []
        for axis in range(nvars):
            per_row = sorted(
                (max((e[axis] for part in row for e in part.terms), default=0)
                 for row in partials),
                reverse=True,
            )
            bound.append(sum(per_row[:nvars]))
        return bound

    @classmethod
    def affine(cls, l: int, origin, axes, orders) -> "ChainPatch":
        """Patch origin + sum_j u_j * axes[j] over the unit 2l-cube."""
        dim = len(origin)
        nvars = 2 * l
        if len(axes) != nvars or any(len(a) != dim for a in axes):
            raise ValueError("need 2l axis vectors of the ambient dimension")
        maps = []
        for coord in range(dim):
            poly = Poly.constant(nvars, Fraction(str(origin[coord])))
            for j, axis in enumerate(axes):
                c = Fraction(str(axis[coord]))
                if c:
                    poly = poly + c * Poly.variable(nvars, j)
            maps.append(poly)
        return cls(tuple(maps), tuple(orders))

    def nodes_and_weights(self):
        """Tensor Gauss-Legendre rule on [0,1]^{2l}, fixed axis order: the
        last axis varies fastest, and each weight is the product of its
        axis weights in axis order."""
        rules = [_gauss_legendre(order) for order in self.orders]
        points = np.array(list(itertools.product(*(t for t, _ in rules))), dtype=WORK_DTYPE)
        weights = functools.reduce(np.multiply.outer, (w for _, w in rules))
        return points, weights.reshape(-1)


def _legendre(n: int, x: np.ndarray):
    """P_n(x) and P_n'(x) by the three-term recurrence
    k P_k = (2k - 1) x P_{k-1} - (k - 1) P_{k-2}."""
    prev, cur = np.ones_like(x), x
    for k in range(2, n + 1):
        prev, cur = cur, ((2 * k - 1) * x * cur - (k - 1) * prev) / k
    return cur, n * (x * cur - prev) / (x * x - 1)


def _gauss_legendre(order: int):
    """Gauss-Legendre nodes and weights on [0, 1] in WORK_DTYPE.

    numpy's ``leggauss`` nodes are good to double precision only; two
    Newton steps on P_n in WORK_DTYPE take them to its own precision, and
    the weights 2 / ((1 - x^2) P_n'(x)^2) come from the same recurrence.
    """
    x = np.polynomial.legendre.leggauss(order)[0].astype(WORK_DTYPE)
    for _ in range(2):
        p, dp = _legendre(order, x)
        x = x - p / dp
    _, dp = _legendre(order, x)
    w = 2 / ((1 - x * x) * dp * dp)
    return (x + 1) / 2, w / 2


@dataclass(frozen=True)
class ChainIntegral:
    value: float
    degenerate: bool


def _chain_quadrature(chain, n: int | None = None, l: int | None = None):
    """Validate a nonempty chain of integer-signed patches against one
    R^{2n} and one half-degree l (where not given, the first patch's) and
    build each patch's rule and chain map once and the omega^l blades once.

    Returns the rule (l, blades, [(sign, weights)] in patch order), with
    blades as (coefficient, row indices) pairs of omega^l over a Darboux
    frame, and the mapped nodes (M, 2n) and tangent frames (M, 2n, 2l) of
    all patches stacked in patch order.
    """
    patches = [(1, chain)] if isinstance(chain, ChainPatch) else list(chain)
    if not patches:
        raise InputError("empty chain")
    parts, points, frames = [], [], []
    for sign, patch in patches:
        if isinstance(sign, bool) or not isinstance(sign, numbers.Integral):
            raise InputError(f"chain coefficient {sign!r} is not an integer")
        n = len(patch.maps) // 2 if n is None else n
        l = patch.l if l is None else l
        if patch.l != l:
            raise InputError("patch half-degree differs from l")
        if len(patch.maps) != 2 * n:
            raise InputError("patch ambient dimension != 2n")
        nodes, weights = patch.nodes_and_weights()
        mapped, tangents = CompiledField(patch.maps)(nodes)
        parts.append((int(sign), weights))
        points.append(mapped)
        frames.append(tangents)
    blades = [
        (_round_work(coeff), [i for i in range(2 * n) if mask >> i & 1])
        for mask, coeff in sorted(omega_power(Frame.darboux(n), l).terms.items())
    ]
    return (l, blades, parts), np.concatenate(points), np.concatenate(frames)


def _signed_integral(rule, frames: np.ndarray):
    """Sum of sign * (1/l!) int omega^l over the patches, from the stacked
    tangent frames: one batch_det per blade over all nodes, then a weighted
    sum within each patch, /l!, and the signed sum in patch order.

    A pullback past the longdouble range gives an inf or NaN value, which
    the callers report; it warns about nothing."""
    l, blades, parts = rule
    pullback = np.zeros(len(frames), dtype=WORK_DTYPE)
    total, start = WORK_DTYPE(0.0), 0
    with np.errstate(over="ignore", invalid="ignore"):
        for coeff, rows in blades:
            pullback += coeff * batch_det(frames[:, rows, :])
        for sign, weights in parts:
            value = np.sum(pullback[start:start + len(weights)] * weights)
            total += WORK_DTYPE(sign) * (value / WORK_DTYPE(math.factorial(l)))
            start += len(weights)
    return total


def chain_integral(chain, n: int | None = None) -> ChainIntegral:
    """(1/l!) integral of omega^l over a patch or a nonempty signed list of
    patches, all in one R^{2n} (R^{2n} of the first patch when n is not
    given) and of one half-degree l.

    A parametrization whose Jacobian vanishes at every quadrature node is
    reported as degenerate with value 0 rather than an error.
    """
    rule, _, frames = _chain_quadrature(chain, n)
    return ChainIntegral(float(_signed_integral(rule, frames)), not np.any(frames != 0))


# ---------------------------------------------------------------------------
# conservation reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConservationReport:
    """Before/after comparison of a transported chain integral."""

    quantity: str
    l: int
    t_final: float
    dt: float
    initial: float
    final: float
    abs_drift: float
    rel_drift: float | None  # None when the initial integral is 0
    per_step_max_det_drift: float | None
    hypothesis_ok: bool
    hypothesis_note: str
    blew_up: bool = False


def _hypothesis(x: PolyVectorField, l: int):
    """The theorem hypothesis L_X omega^l = 0, decided exactly, and its
    note (div X = 0 for l = n; for l < n, L_X omega = 0, as the wedge with
    omega^(l-1) is injective on 2-forms)."""
    ok = lie_derivative(x, omega_power(x.frame, l)).is_zero
    note = {
        (True, True): "symplectic field: omega^l conserved for every l",
        (False, True): "theorem not applicable: X is not symplectic and l < n",
        (True, False): "divergence-free field: phase volume conserved",
        (False, False): "theorem not applicable: X has nonzero divergence",
    }[ok, l < x.frame.n]
    return ok, note


def verify_area_preservation(
    x: PolyVectorField, chain, l: int, cfg: FlowConfig
) -> ConservationReport:
    """Transport a 2l-chain along the flow of X and recompute (1/l!) int omega^l.

    Quadrature nodes ride the RK4 flow; their tangent frames are pushed
    forward to J . dsigma/du, so quadrature error and integration error stay
    separate (which tangents the run steps, and when it checks det J or
    reports RK4's exact J_N, is _rk4_run's rule).  The
    chain is a patch or a nonempty signed list of patches, each of
    half-degree l in the R^{2n} of X; all patches share one RK4 run, and
    the integral before and after is one quadrature over the stacked
    frames.  The theorem hypothesis L_X omega^l = 0 is decided exactly
    first and reported (see _hypothesis); a violation flags the report as
    not applicable instead of failing.  This is verify_area_laws with one
    chain.
    """
    return verify_area_laws(x, [(chain, l)], cfg)[0]


def verify_area_laws(x: PolyVectorField, chains, cfg: FlowConfig) -> list[ConservationReport]:
    """verify_area_preservation for each (chain, l) of ``chains``, any
    iterable: one report per chain, in order.

    On an affine field every chain shares one RK4 run, as its one J serves
    every node, with the bits of lone verify_area_preservation calls, and
    reports RK4's exact figures (see _rk4_run): l < n frames are pushed by
    J_N, and an l = n integral is scaled by det J_N, so its rel_drift is
    the det drift.  An affine run that steps stops at the first step where
    any node passes NORM_CAP, so a blow-up flags every report of the call,
    a chain that alone stays below the cap included; MAX_FLOW_WORK bounds
    it as if it stepped every node of every chain.  On any other field each
    chain runs alone: one stage run would check the det of every chain's
    node maps together.  Each distinct l's hypothesis is decided once.
    """
    n = x.frame.n
    chains = list(chains)
    if not all(1 <= l <= n for _, l in chains):
        raise InputError("need 1 <= l <= n")
    hypotheses = {l: _hypothesis(x, l) for _, l in chains}
    quadratures = [_chain_quadrature(chain, n, l) for chain, l in chains]
    initials = [_signed_integral(rule, frames) for rule, _, frames in quadratures]
    compiled = CompiledField(x)
    affine = _is_affine(x)
    # the chains that share a run: all of them on an affine field, else each alone
    groups = [quadratures] if quadratures and affine else [[q] for q in quadratures]
    runs = []  # (pushed frames, det drift, blow-up step) per chain
    for group in groups:
        pushed, max_det, blow = _rk4_run(
            compiled, np.concatenate([q[1] for q in group]), cfg, frames=[q[2] for q in group])
        runs += [(frames, max_det, blow) for frames in pushed]

    reports = []
    # each drift is formed in WORK_DTYPE and rounded once; integrals past
    # its range warn about nothing
    with np.errstate(over="ignore", invalid="ignore"):
        for (_, l), (rule, _, _), initial, (pushed, det_drift, blow) in zip(
                chains, quadratures, initials, runs):
            blew_up = blow is not None
            if affine and l == n and not blew_up and np.isfinite(initial):
                # a constant J scales the integral by det J_N: the change
                # from the exact det drift, with no digit cancelled
                change = initial * WORK_DTYPE(det_drift)
                final, drift = initial + change, abs(change)
            else:
                final = WORK_DTYPE("nan") if blew_up else _signed_integral(rule, pushed)
                drift = abs(final - initial)
            ok, note = hypotheses[l]
            reports.append(ConservationReport(
                quantity=f"(1/{l}!) int omega^{l}",
                l=l,
                t_final=cfg.t_final,
                dt=cfg.dt,
                initial=float(initial),
                final=float(final),
                abs_drift=float(drift),
                rel_drift=float(drift / abs(initial)) if float(initial) else None,
                per_step_max_det_drift=abs(det_drift) if l == n and not blew_up else None,
                hypothesis_ok=ok,
                hypothesis_note=note,
                blew_up=blew_up,
            ))
    return reports
