"""Numerical verification of volume- and area-preservation along flows.

Fixed-step classical RK4 is a measurement instrument here, not a
structure-preserving scheme: trajectories, the variational (tangent) flow
J' = DX(x(t)) J and transported chain integrals are all computed with it and
compared against the exact predictions of the symbolic layer.

All floating-point work uses numpy's extended-precision ``longdouble``.
Tangent flows of the bundled linear systems stretch by ~1e5 over t = 10, so
det J sits at condition number ~1e10; double precision would bury the 1e-6
drift budget under rounding (measured: ~1e-5), extended precision keeps the
measurement honest (~1e-8).  ``numpy.linalg`` refuses longdouble, hence the
small pivoted-LU determinant below.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .exterior import Frame, omega_power
from .fields import PolyVectorField, lie_derivative
from .polynomials import InputError, Poly

WORK_DTYPE = np.longdouble
NORM_CAP = 1e9
# bound on the Gauss-Legendre nodes of one chain patch (the product of its
# orders), which the chain quadrature evaluates at once: at 4096 nodes a
# chain integral takes about 0.02 s; 100000 x 100000 nodes would need
# 75 GiB.  MAX_FLOW_WORK bounds the RK4 transport of the nodes
MAX_CHAIN_NODES = 4096
# RK4 runs go in blocks of max(1, DET_BATCH // m) steps (m nodes), with one
# blow-up test per block and, where a det check runs, one batch_det call.  A
# call gets at most DET_BATCH matrices while m <= DET_BATCH; above that a
# block is one step, and the stage loop's call gets all m tangent maps (the
# affine path shares one map among the nodes, so it sends one per step, and
# with a one-step buffer each step's np.dot reads the whole buffer and writes
# its first dim rows).  A run that steps chain frames has no det check, and
# its blocks only batch the blow-up test
DET_BATCH = 1024
# one budget on a flow run, in longdouble values: both its RK4 work,
# steps x (STEP_VALUES + nodes x (field term rows + dim^2)), and the values
# its kept paths hold are refused above it.  The dim^2 counts a full tangent
# map per node, an upper bound for a run that steps only the 2l < dim
# columns of chain frames, so which tangents a run steps moves no refusal.
# STEP_VALUES is a step's fixed cost in values: the stage loop stepping full
# tangent maps takes at most about 46 + 0.19 x values us per step for the
# Duffing field and 77 + 0.25 x values for a quartic at n = 2 (2-core
# x86-64).  At 5e7 the stage loop runs at most about 10 to 20 s and kept
# paths take at most 800 MB; the largest bundled run (area-laws, 16 nodes
# for 10^4 steps at dim 4) needs 7.0e6
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
    table of the powers x_i^p the rows use, with the same ``powl`` as
    ``x ** p``, multiplies each row's nonzero-power factors in variable
    order (skipping x^0 = 1 is exact) and adds the rows into their output
    slots in row order, from +0, with one flat ``np.add.at``: the sums a
    dense evaluation forms (every monomial, each slot's rows added in row
    order), so the results agree to the bit.  The flat index of a call is
    built once per node count.  It is the one place an input coefficient is
    rounded and refused (see _round_coefficient).
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
        powers = sorted({pair for f in padded for pair in f})
        row_of = {pair: r for r, pair in enumerate(powers)}
        self.table_vars = np.array([i for i, _ in powers], dtype=np.intp)
        self.table_exps = np.array([p for _, p in powers], dtype=WORK_DTYPE).reshape(-1, 1)
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
        may be any strided (m, nvars) view."""
        m = xs.shape[0]
        table = xs.T.take(self.table_vars, axis=0) ** self.table_exps
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
    times: np.ndarray
    states: np.ndarray
    blew_up: bool = False
    blow_up_step: int | None = None


@dataclass
class TangentFlow:
    """A tangent flow; det_drift is max |det J - 1| over the kept samples,
    folded by the RK4 run that made them."""

    trajectory: Trajectory
    jacobians: np.ndarray
    det_drift: float

    def max_det_drift(self) -> float:
        return self.det_drift


def _rk4_run(compiled: CompiledField, xs, cfg: FlowConfig, keep_paths=False,
             tangents=None):
    """The one RK4 loop: a batch of m states and their tangents, in blocks
    of at most max(1, DET_BATCH // m) steps.  A block generator takes the
    steps: _affine_blocks for fields of degree <= 1 (the exact one-step
    propagator applied to [J~ | x~^T]), _stage_blocks for all others.

    ``tangents`` are the initial tangents V(0), (m, dim, c); None is the
    identity.  A run of square tangents (None, or c = dim) checks det J:
    it steps J from J(0) = I, as the affine path always does, and the
    result is J V(0), one einsum at the end.  Otherwise the stage loop
    steps V' = DX V on those c columns alone.

    After each block: one blow-up test, and for square tangents one
    batch_det call over its tangent maps, folded with np.maximum so that a
    NaN determinant makes the max drift NaN.  A blow-up cuts the run at the
    first step past the cap; the later steps of its block are discarded.
    Kept paths are filled block by block.

    A run whose work, steps x (STEP_VALUES + m x (field term rows + dim^2))
    values, or whose kept paths exceed MAX_FLOW_WORK values is refused
    before anything is allocated; dim^2 tangent values per node bound a run
    that steps fewer columns too.

    Returns (xs, vs, states_path, tangent_path, max_det_drift, blow_step),
    vs (m, dim, c); with keep_paths the paths are arrays of shape
    (samples, m, dim) and (samples, m or 1, dim, c or dim) of what was
    stepped (the shared J on the affine path), with samples = steps + 1,
    or blow_step + 1 after a blow-up.
    """
    m, dim = xs.shape
    per_node = len(compiled.slots) + dim * dim
    work = cfg.steps * (STEP_VALUES + m * per_node)
    kept = (cfg.steps + 1) * m * (dim + dim * dim) if keep_paths else 0
    if max(work, kept) > MAX_FLOW_WORK:
        raise InputError(
            f"{cfg.steps} steps x ({STEP_VALUES} + {m} nodes x {per_node} values per node) "
            f"= {work} values of RK4 work, and {kept} values of kept paths; the budget "
            f"is {MAX_FLOW_WORK} of each"
        )
    block = max(1, min(cfg.steps, DET_BATCH // m))
    affine = _is_affine(compiled.field)
    # the tangents ride V' = DX V where neither a det nor a shared J needs J
    square = tangents is None or tangents.shape[2] == dim
    ride = not (affine or square)
    vs = tangents if ride else np.eye(dim, dtype=WORK_DTYPE)[None]
    if affine:
        blocks = _affine_blocks(compiled, xs, cfg, block)
    else:
        blocks = _stage_blocks(compiled, xs, vs, cfg, block)
    samples = cfg.steps + 1
    if keep_paths:
        states_path = np.empty((samples, m, dim), dtype=WORK_DTYPE)
        tangent_path = np.empty((samples, 1 if affine else m) + vs.shape[1:], dtype=WORK_DTYPE)
        states_path[0], tangent_path[0] = xs, vs
    max_det = WORK_DTYPE(0.0)  # |det I - 1|
    taken, blow_step = 0, None
    # states stepped past a blow-up may overflow; they are discarded
    with np.errstate(over="ignore", invalid="ignore"):
        for xb, vb in blocks:
            # steps whose largest node norm passes the cap, a NaN norm included
            norms = np.sqrt(np.max(np.sum(xb * xb, axis=2), axis=1))
            past = np.flatnonzero(~(norms <= NORM_CAP))
            done = int(past[0]) + 1 if past.size else len(xb)
            if keep_paths:
                states_path[taken + 1:taken + 1 + done] = xb[:done]
                tangent_path[taken + 1:taken + 1 + done] = vb[:done]
            if square:
                dets = batch_det(vb[:done].reshape(-1, dim, dim))
                max_det = np.maximum(max_det, np.max(np.abs(dets - 1)))
            xs, vs = xb[done - 1].copy(), vb[done - 1].copy()
            taken += done
            if past.size:
                blow_step, samples = taken, taken + 1
                break
    vs = np.broadcast_to(vs, (m,) + vs.shape[1:])
    if tangents is not None and not ride:
        vs = np.einsum("mij,mjl->mil", vs, tangents)
    if not keep_paths:
        return xs, vs, None, None, float(max_det), blow_step
    return xs, vs, states_path[:samples], tangent_path[:samples], float(max_det), blow_step


def _stage_blocks(compiled: CompiledField, xs, tangents, cfg: FlowConfig, block):
    """The four-stage RK4 loop, for any polynomial field, from the states xs
    (m, dim) and the tangents (m or 1, dim, c).  Both step as one array
    Y = [x | V] of shape (m, dim, 1 + c), whose stage derivative is
    [X(x) | DX(x) V], so each RK4 combination is one numpy call on both.
    Yields each block's states (count, m, dim) and tangents
    (count, m, dim, c), views of a buffer the next block overwrites."""
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


def _round_work(q: Fraction):
    """q rounded once, to nearest with ties to even, into WORK_DTYPE (to
    +-inf past its range)."""
    num, den = abs(q.numerator), q.denominator
    if not num:
        return WORK_DTYPE(0)
    shift = _MANT_BITS - (num.bit_length() - den.bit_length())
    a, b = (num << shift, den) if shift >= 0 else (num, den << -shift)
    if a >= b << _MANT_BITS:
        shift, b = shift - 1, b << 1
    # a / b = |q| 2^shift now lies in [2^(MANT_BITS-1), 2^MANT_BITS): its
    # nearest integer is at most 2^MANT_BITS and converts exactly, and ldexp
    # is exact inside the normal range
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


def _affine_blocks(compiled: CompiledField, xs, cfg: FlowConfig, block):
    """RK4 of an affine field as one 2-D np.dot per step, with R~ rounded
    once from exact rationals.  Yields each block's states (count, m, dim)
    and tangent maps (count, 1, dim, dim).

    Z = [J | x~^T] is (dim + 1, dim + m): the tangent map from the identity
    over a zero row, then one column x~ = (x, 1) per node.  J does not
    depend on x, so one (dim, dim) map serves every node.  A step computes
    only the first dim rows, R~[:dim] Z; the last row stays the constant
    [0...0 | 1...1] of the buffer.  numpy has no longdouble BLAS and sums
    each entry of a longdouble product in index order from +0, so each
    state is fl(fl(R x) + c * 1) and each J entry gains c * 0: the bits of
    x -> R x + c and J -> R J taken apart, an overflowed J included.  np.dot
    takes an out that overlaps its input, as it does when a block is one
    step.
    """
    aug = np.array(
        [[_round_work(v) for v in row]
         for row in _affine_propagator(compiled.field, Fraction(cfg.effective_dt))[:-1]],
        dtype=WORK_DTYPE,
    )
    m, dim = xs.shape
    z = np.eye(dim + 1, dim + m, dtype=WORK_DTYPE)
    z[:dim, dim:] = xs.T
    z[dim, dim:] = 1
    zb = np.empty((block,) + z.shape, dtype=WORK_DTYPE)
    zb[:, dim] = z[dim]
    # (the rows a step writes, the Z it leaves) for each step of a block
    steps = [(zs[:dim], zs) for zs in zb]
    for start in range(0, cfg.steps, block):
        count = min(block, cfg.steps - start)
        for rows, zs in steps[:count]:
            np.dot(aug, z, out=rows)
            z = zs
        # C-ordered states, so the norm test sums each one in index order
        yield zb[:count, :dim, dim:].transpose(0, 2, 1).copy(), zb[:count, None, :dim, :dim]


def tangent_flow(x: PolyVectorField, x0, cfg: FlowConfig) -> TangentFlow:
    """RK4 from one point with a sample at every step: the trajectory plus
    the variational flow J(t), J(0) = identity, and the run's max
    |det J - 1|.  Blow-up is flagged, not raised (state norm cap
    NORM_CAP)."""
    xs = np.array([x0], dtype=WORK_DTYPE)
    if xs.shape != (1, x.frame.dim):
        raise ValueError("x0 must have one coordinate per generator")
    _, _, path, jpath, drift, blow = _rk4_run(CompiledField(x), xs, cfg, keep_paths=True)
    times = np.arange(path.shape[0], dtype=WORK_DTYPE) * WORK_DTYPE(cfg.effective_dt)
    return TangentFlow(Trajectory(times, path[:, 0], blow is not None, blow), jpath[:, 0], drift)


def divergence(x: PolyVectorField) -> Poly:
    """Exact divergence; the zero polynomial iff X preserves phase volume."""
    out = Poly.zero(x.frame.dim)
    for i, comp in enumerate(x.components):
        out = out + comp.diff(i)
    return out


# ---------------------------------------------------------------------------
# chains and transported integrals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainPatch:
    """A parametrized 2l-cube [0,1]^{2l} -> R^{2n} with quadrature orders.

    ``maps`` lists one polynomial per phase-space coordinate, in 2l
    parameter variables; ``orders`` gives the Gauss-Legendre point count per
    axis.  An order too small to integrate the omega^l pullback exactly
    along its axis is refused (see ``pullback_degree_bound``).
    """

    l: int
    maps: tuple[Poly, ...]
    orders: tuple[int, ...]

    def __post_init__(self):
        if self.l < 1:
            raise InputError("need l >= 1")
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
        if len(self.maps) % 2 or len(self.maps) < 2 * self.l:
            raise InputError("need one map component per phase-space coordinate")
        for p in self.maps:
            if p.nvars != 2 * self.l:
                raise InputError("map component over wrong parameter count")
        for axis, (order, degree) in enumerate(zip(self.orders, self.pullback_degree_bound())):
            if 2 * order - 1 < degree:
                raise InputError(
                    f"axis {axis}: {order} Gauss-Legendre points are exact up to degree "
                    f"{2 * order - 1}, but the omega^{self.l} pullback may reach degree "
                    f"{degree}; need an order of at least {degree // 2 + 1}"
                )

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
        return cls(l, tuple(maps), tuple(orders))

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
    """Validate a nonempty chain against one R^{2n} and one half-degree l
    (where not given, the first patch's) and build each patch's rule and
    chain map once and the omega^l blades once.

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


def verify_area_preservation(
    x: PolyVectorField, chain, l: int, cfg: FlowConfig
) -> ConservationReport:
    """Transport a 2l-chain along the flow of X and recompute (1/l!) int omega^l.

    Quadrature nodes ride the RK4 flow; their tangent frames are pushed
    forward to J . dsigma/du, so quadrature error and integration error stay
    separate.  For l < n the 2l frame columns ride the variational equation
    V' = DX V themselves; for l = n, whose per-step det check needs J, and
    on the affine path, whose one J serves every node, the run steps J and
    then forms J . dsigma/du.  The chain is a patch or a nonempty
    signed list of patches, each of half-degree l in the R^{2n} of X; the
    nodes of all patches ride one RK4 run, and the integral before and
    after is one quadrature over the stacked frames.  The theorem
    hypothesis L_X omega^l = 0 (div X = 0 for l = n; for l < n,
    L_X omega = 0, as the wedge with omega^(l-1) is injective on 2-forms) is
    decided exactly first and reported; a violation flags the report as not
    applicable instead of failing.
    """
    n = x.frame.n
    if not 1 <= l <= n:
        raise InputError("need 1 <= l <= n")
    ok = lie_derivative(x, omega_power(x.frame, l)).is_zero
    note = {
        (True, True): "symplectic field: omega^l conserved for every l",
        (False, True): "theorem not applicable: X is not symplectic and l < n",
        (True, False): "divergence-free field: phase volume conserved",
        (False, False): "theorem not applicable: X has nonzero divergence",
    }[ok, l < n]

    rule, points, frames = _chain_quadrature(chain, n, l)
    initial = float(_signed_integral(rule, frames))
    _, pushed, _, _, max_det, blow = _rk4_run(CompiledField(x), points, cfg, tangents=frames)
    blew_up = blow is not None

    if blew_up:
        final_f = abs_drift = float("nan")
    else:
        final_f = float(_signed_integral(rule, pushed))
        abs_drift = abs(final_f - initial)
    rel_drift = abs_drift / abs(initial) if initial else None
    return ConservationReport(
        quantity=f"(1/{l}!) int omega^{l}",
        l=l,
        t_final=cfg.t_final,
        dt=cfg.dt,
        initial=initial,
        final=final_f,
        abs_drift=abs_drift,
        rel_drift=rel_drift,
        per_step_max_det_drift=max_det if l == n and not blew_up else None,
        hypothesis_ok=ok,
        hypothesis_note=note,
        blew_up=blew_up,
    )
