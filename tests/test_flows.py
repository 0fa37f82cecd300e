import functools
import math
import random
import re
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

import oracles
from symplab import flows
from symplab.exterior import Frame, omega
from symplab.fields import (
    PolyVectorField,
    build_linear_system,
    hamiltonian_field,
)
from symplab.flows import (
    WORK_DTYPE,
    ChainPatch,
    CompiledField,
    FlowConfig,
    batch_det,
    chain_integral,
    divergence,
    tangent_flow,
    verify_area_preservation,
)
from symplab.polynomials import InputError, Poly


def var(nvars, i):
    return Poly.variable(nvars, i)


def standard_h(n):
    nv = 2 * n
    return sum(
        (Fraction(1, 2) * var(nv, i) ** 2 for i in range(nv)), Poly.zero(nv)
    )


def unit_square():
    # oriented so the symplectic area is +1
    return ChainPatch.affine(
        1, [0, 0, 0, 0], [[0, 0, 1, 0], [1, 0, 0, 0]], orders=(4, 4)
    )


def unit_cube():
    return ChainPatch.affine(
        2,
        [0, 0, 0, 0],
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
        orders=(2, 2, 2, 2),
    )


# ---------------------------------------------------------------------------
# configuration and helpers
# ---------------------------------------------------------------------------

def test_flow_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(t_final=1.0, dt=0.0)
    with pytest.raises(ValueError, match="^t_final must be nonnegative$"):
        FlowConfig(t_final=-1.0, dt=0.1)
    with pytest.raises(ValueError):
        FlowConfig(t_final=math.inf, dt=0.1)
    cfg = FlowConfig(t_final=1.0, dt=0.1)
    assert cfg.steps == 10 and cfg.effective_dt == 0.1
    assert FlowConfig(t_final=0.0, dt=0.1).steps == 0


@pytest.mark.parametrize(
    "t_final, dt",
    [(math.nan, 0.1), (1.0, math.nan), (1.0, math.inf), (-math.inf, 0.1)],
)
def test_flow_config_rejects_non_finite(t_final, dt):
    with pytest.raises(ValueError, match="^t_final and dt must be finite$"):
        FlowConfig(t_final=t_final, dt=dt)


@pytest.mark.parametrize("keep", [False, True])
def test_flow_work_budget_boundary(monkeypatch, keep):
    # q' = q^2, p' = p has 4 term rows (2 values, 2 Jacobian entries), so a
    # step of 3 nodes computes STEP_VALUES + 3 x (4 + 2^2) values; a tangent
    # flow keeps 3 x (2 + 2^2) per sample, a transport of frames keeps none
    x = PolyVectorField(Frame.darboux(1), (var(2, 0) ** 2, var(2, 1)))
    compiled = CompiledField(x)
    assert len(compiled.slots) == 4
    xs = np.full((3, 2), 0.1, dtype=WORK_DTYPE)
    frames = None if keep else [_frames(3, 2, 1)]
    cfg = FlowConfig(t_final=1.0, dt=0.1)
    step = flows.STEP_VALUES
    work, kept = 10 * (step + 3 * 8), 11 * 3 * 6
    assert kept < work
    monkeypatch.setattr(flows, "MAX_FLOW_WORK", work)
    flows._rk4_run(compiled, xs, cfg, frames)
    monkeypatch.setattr(flows, "MAX_FLOW_WORK", work - 1)
    want = f"10 steps x ({step} + 3 nodes x 8 values per node) = {work} values of RK4 " \
           f"work, and {kept if keep else 0} values of kept paths; the budget is {work - 1} of each"
    with pytest.raises(InputError) as err:
        flows._rk4_run(compiled, xs, cfg, frames)
    assert str(err.value) == want
    # kept paths alone can pass the budget: the zero field has no term rows,
    # and a tangent flow of STEP_VALUES nodes keeps 6 values each per sample
    # but computes 4
    zero = CompiledField(PolyVectorField.zero(Frame.darboux(1)))
    many = np.full((step, 2), 0.1, dtype=WORK_DTYPE)
    zero_work, kept = 10 * (step + step * 4), 11 * step * 6
    assert zero_work < kept
    monkeypatch.setattr(flows, "MAX_FLOW_WORK", kept)
    flows._rk4_run(zero, many, cfg)
    monkeypatch.setattr(flows, "MAX_FLOW_WORK", kept - 1)
    with pytest.raises(InputError, match=f"= {zero_work} values of RK4 work, and {kept} values "):
        flows._rk4_run(zero, many, cfg)


def test_flow_work_budget_refuses_before_allocating():
    # a linear field at n = 6 over 10^6 steps would keep (10^6 + 1) x 156
    # longdoubles of paths, 2.5 GB.  The Duffing field q' = p, p' = -q - q^3
    # computes only 10 values a step, but a stage-loop step on one node
    # takes about 50 us, a minute at 10^6 steps.  Both are refused before
    # the first step
    linear = hamiltonian_field(Frame.darboux(6), standard_h(6))
    duffing = PolyVectorField(Frame.darboux(1), (var(2, 1), -var(2, 0) - var(2, 0) ** 3))
    cases = [
        (linear, [0.5] * 12, r"^1000000 steps x \(250 \+ 1 nodes x 168 values per node\) "
                             r"= 418000000 values of RK4 work, and 156000156 values of kept"),
        (duffing, [0.5, 0.0], r"^1000000 steps x \(250 \+ 1 nodes x 10 values per node\) "
                              r"= 260000000 values of RK4 work"),
    ]
    for x, x0, message in cases:
        start = time.perf_counter()
        with pytest.raises(InputError, match=message):
            tangent_flow(x, x0, FlowConfig(t_final=10**6, dt=1.0))
        assert time.perf_counter() - start < 1.0


def test_flow_work_refusal_prints_large_counts_in_e_notation():
    # counts below 10^15 print whole, as the messages above; larger ones as
    # %.3e, rounded from the exact integer, past the float range too
    assert flows._count(10**15 - 1) == "999999999999999"
    assert flows._count(10**15) == "1.000e+15"
    assert flows._count(123456 * 10**300) == "1.235e+305"
    assert flows._count(10**400 - 1) == "1.000e+400"
    osc = PolyVectorField(Frame.darboux(1), (var(2, 1), -var(2, 0)))
    with pytest.raises(InputError) as err:
        tangent_flow(osc, [1.0, 0.0], FlowConfig(t_final=1.0, dt=1e-300))
    assert str(err.value) == (
        "1.000e+300 steps x (250 + 1 nodes x 8 values per node) = 2.580e+302 values of "
        f"RK4 work, and 6.000e+300 values of kept paths; the budget is {flows.MAX_FLOW_WORK} "
        "of each"
    )


def test_flow_config_step_budget():
    # a ratio that overflows to inf is refused by the config itself, before
    # int(round(...)) could raise OverflowError
    for t_final, dt in ((1e300, 1e-300), (1.0, 5e-324)):
        with pytest.raises(InputError, match=r"^t_final / dt must be finite$"):
            FlowConfig(t_final=t_final, dt=dt)
    # above 10^6 steps the run budget alone refuses, before the first step:
    # the cheapest step, the zero field on one node at n = 1, costs
    # STEP_VALUES + 4 values
    zero = PolyVectorField.zero(Frame.darboux(1))
    for t_final, dt in ((10**6 + 1.0, 1.0), (1e9, 1e-9), (1e200, 1e-100)):
        cfg = FlowConfig(t_final=t_final, dt=dt)
        assert cfg.steps > 10**6
        start = time.perf_counter()
        with pytest.raises(InputError, match=r"values of RK4 work.*the budget is"):
            tangent_flow(zero, [0.5, 0.0], cfg)
        assert time.perf_counter() - start < 1.0
    largest = flows.MAX_FLOW_WORK // (flows.STEP_VALUES + 4)
    with pytest.raises(InputError, match=f"^{largest + 1} steps x "):
        flows._rk4_run(CompiledField(zero), np.zeros((1, 2), dtype=WORK_DTYPE),
                          FlowConfig(largest + 1.0, 1.0))


def test_batch_det_against_exact_fractions():
    rng = np.random.default_rng(7)
    mats = rng.uniform(-3, 3, size=(20, 4, 4))
    got = batch_det(mats)

    def exact_det(m):
        rows = [[Fraction(float(x)) for x in row] for row in m]

        def det(rs):
            if len(rs) == 1:
                return rs[0][0]
            return sum(
                (-1) ** j * rs[0][j] * det([r[:j] + r[j + 1:] for r in rs[1:]])
                for j in range(len(rs))
            )

        return det(rows)

    for i in range(20):
        assert abs(float(got[i]) - float(exact_det(mats[i]))) < 1e-12


def _det_cases(rng, d, count):
    # small integers give exact pivot ties and zeros, thirds do not; a
    # quarter of the batch gets NaN or +-inf, and zero rows, duplicate rows
    # and -0 entries are spread over the rest
    mats = rng.integers(-3, 4, (count, d, d)).astype(WORK_DTYPE)
    smooth = rng.random(count) < 0.5
    mats[smooth] = rng.standard_normal((int(smooth.sum()), d, d)) / WORK_DTYPE(3)
    for k in range(count):
        kind = rng.integers(8)
        i, j = rng.integers(d, size=2)
        if kind == 0:
            mats[k, i, j] = rng.choice([np.nan, np.inf, -np.inf])
        elif kind == 1:
            mats[k][rng.random((d, d)) < 0.3] = rng.choice([np.nan, np.inf, -np.inf])
        elif kind == 2:
            mats[k, i] = rng.choice([0.0, -0.0])
        elif kind == 3:
            mats[k, i] = mats[k, j]
        elif kind == 4:
            mats[k, :, j] = -mats[k, :, i]
    mats[mats == 0] = np.where(rng.random(int((mats == 0).sum())) < 0.5, -0.0, 0.0)
    if d >= 4:
        # inf x 0 makes det NaN at column 1; column 2 then swaps, and the
        # NaN's sign bit shows whether the swap negated it
        mats[0] = 0
        mats[0, 0, 0], mats[0, 3, 2] = np.inf, 1
    return mats


@pytest.mark.parametrize("d", range(1, 7))
@pytest.mark.parametrize("m", [1, 64, 1024])
def test_batch_det_matches_full_row_lu(d, m):
    # the same pivots and the same operations on every entry that reaches
    # the determinant: bit for bit the full-row LU, sign bits and NaNs
    # included, one call per m matrices
    mats = _det_cases(np.random.default_rng(100 * d + m), d, max(m, 64))
    with np.errstate(all="ignore"):
        for start in range(0, len(mats), m):
            batch = mats[start:start + m]
            _same_bits(batch_det(batch), oracles.full_row_batch_det(batch))


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


def test_circular_orbit_returns():
    frame = Frame.darboux(1)
    x = hamiltonian_field(frame, standard_h(1))
    traj = tangent_flow(x, [1.0, 0.0], FlowConfig(t_final=2 * math.pi, dt=1e-3)).trajectory
    assert not traj.blew_up
    err = float(np.max(np.abs(traj.states[-1] - np.array([1.0, 0.0]))))
    assert err < 1e-8


def test_zero_field_constant_trajectory():
    frame = Frame.darboux(2)
    traj = tangent_flow(
        PolyVectorField.zero(frame), [1.0, 2.0, 3.0, 4.0], FlowConfig(2.0, 0.01)
    ).trajectory
    assert not traj.blew_up
    assert np.all(traj.states == traj.states[0])


def test_bounded_trajectory_for_positive_definite_coupling():
    # eigenvalue oracle: for symmetric positive-definite k the energy
    # surface bounds |q| and |p|
    spec, x = build_linear_system([[2, 1], [1, 2]])
    assert spec.is_hamiltonian
    kmat = np.array([[2.0, 1.0], [1.0, 2.0]])
    lam_min = float(np.min(np.linalg.eigvalsh(kmat)))
    x0 = np.array([0.7, -0.4, 0.2, 0.5])
    energy = 0.5 * float(x0[2:] @ x0[2:]) + 0.5 * float(x0[:2] @ kmat @ x0[:2])
    traj = tangent_flow(x, list(x0), FlowConfig(t_final=20.0, dt=1e-2)).trajectory
    assert not traj.blew_up
    q_norms = np.sqrt(np.sum(np.asarray(traj.states, float)[:, :2] ** 2, axis=1))
    p_norms = np.sqrt(np.sum(np.asarray(traj.states, float)[:, 2:] ** 2, axis=1))
    assert float(np.max(q_norms)) <= math.sqrt(2 * energy / lam_min) * (1 + 1e-9)
    assert float(np.max(p_norms)) <= math.sqrt(2 * energy) * (1 + 1e-9)


def test_blow_up_flagged_not_raised():
    frame = Frame.darboux(1)
    dilation = PolyVectorField(frame, (var(2, 0), Poly.zero(2)))
    traj = tangent_flow(dilation, [1.0, 0.0], FlowConfig(t_final=25.0, dt=0.01)).trajectory
    assert traj.blew_up
    assert traj.blow_up_step is not None
    assert len(traj.states) == traj.blow_up_step + 1
    # the flagged state is past the cap, earlier ones are not
    assert float(np.abs(traj.states[-1]).max()) > 1e9


def test_integrate_deterministic():
    _, x = build_linear_system(None, masses=(1, 2, 1))
    cfg = FlowConfig(t_final=1.0, dt=1e-2)
    t1 = tangent_flow(x, [1.0, 0.5, 0.25, -0.3], cfg).trajectory
    t2 = tangent_flow(x, [1.0, 0.5, 0.25, -0.3], cfg).trajectory
    assert np.array_equal(t1.states, t2.states)


# ---------------------------------------------------------------------------
# tangent flow
# ---------------------------------------------------------------------------

def test_dilation_det_is_exp_t():
    frame = Frame.darboux(1)
    dilation = PolyVectorField(frame, (var(2, 0), Poly.zero(2)))
    flow = tangent_flow(dilation, [1.0, 0.0], FlowConfig(t_final=1.0, dt=1e-3))
    assert abs(float(batch_det(flow.jacobians[-1:])[0]) - math.e) < 1e-6


def test_hamiltonian_det_one():
    frame = Frame.darboux(2)
    x = hamiltonian_field(frame, standard_h(2))
    flow = tangent_flow(x, [1.0, 0.0, 0.0, 1.0], FlowConfig(t_final=10.0, dt=1e-3))
    assert flow.max_det_drift() < 1e-8


def test_coupled_oscillator_det_one():
    # non-Hamiltonian but volume preserving; divergence oracle agrees
    _, x = build_linear_system(None, masses=(1, 2, 1))
    assert divergence(x).is_zero
    flow = tangent_flow(x, [1.0, 0.5, 0.25, -0.3], FlowConfig(t_final=5.0, dt=1e-3))
    assert flow.max_det_drift() < 1e-8


def test_variational_consistency_bound():
    # |det J(t) - exp(int tr DX)| = O(dt^4); for the traceless coupled
    # oscillator the reference is exactly 1
    _, x = build_linear_system(None, masses=(1, 2, 1))
    for dt in (0.1, 0.05):
        flow = tangent_flow(x, [1.0, 0.5, 0.25, -0.3], FlowConfig(10.0, dt))
        assert abs(float(batch_det(flow.jacobians[-1:])[0]) - 1.0) <= dt ** 4


def test_hamiltonian_det_drift_at_least_fourth_order():
    # halving dt must improve the det-J drift at least 4th-order fast on a
    # Hamiltonian system; the quadratic oscillator actually converges at
    # 5th order (ratio ~32, trace-free cancellation), which satisfies the
    # bound with room
    frame = Frame.darboux(2)
    x = hamiltonian_field(frame, standard_h(2))
    x0 = [1.0, 0.0, 0.0, 1.0]
    drifts = [
        tangent_flow(x, x0, FlowConfig(10.0, dt)).max_det_drift()
        for dt in (0.1, 0.05)
    ]
    assert drifts[0] / drifts[1] >= 12
    for dt, drift in zip((0.1, 0.05), drifts):
        assert drift <= dt ** 4


def test_fourth_order_det_convergence_generic_system():
    # closed-form dissipative system: dq/dt = q^2, dp/dt = p gives
    # det J(t) = (1 - q0 t)^-2 e^t; the halving ratio of the error sits at
    # the generic RK4 value 2^4 = 16
    frame = Frame.darboux(1)
    x = PolyVectorField(frame, (var(2, 0) ** 2, var(2, 1)))
    q0, t_final = 0.3, 2.0
    exact = (1 - q0 * t_final) ** -2 * math.exp(t_final)
    errors = []
    for dt in (0.02, 0.01, 0.005):
        flow = tangent_flow(x, [q0, 1.0], FlowConfig(t_final, dt))
        errors.append(abs(float(batch_det(flow.jacobians[-1:])[0]) - exact))
    for coarse, fine in zip(errors, errors[1:]):
        assert 12 <= coarse / fine <= 20


def _pin_triangular_rk4(x, x0):
    """For a strictly triangular X, DX is strictly lower triangular, so J
    stays exactly unit lower triangular and det J is exactly 1.  RK4 in
    Fractions from the stepped longdouble x0, with the run's own h, pins the
    stage path's rounding, and the exact finals show order 4."""
    dim = x.frame.dim
    eps = float(np.finfo(WORK_DTYPE).eps)
    finals = []
    for steps in (16, 32, 64, 128, 256):
        cfg = FlowConfig(1.0, 1 / steps)
        flow = tangent_flow(x, x0, cfg)
        start = [Fraction(*v.as_integer_ratio()) for v in flow.trajectory.states[0]]
        exact = oracles.rk4_exact(x, start, Fraction(cfg.effective_dt), cfg.steps)
        got = [Fraction(*v.as_integer_ratio()) for v in flow.trajectory.states[-1]]
        assert max(abs(g - e) for g, e in zip(got, exact)) <= steps * eps
        js = flow.jacobians
        assert js.shape == (steps + 1, dim, dim)
        assert np.all(np.triu(js, 1) == 0) and np.all(np.diagonal(js, axis1=1, axis2=2) == 1)
        # det J is exactly 1: the drift is batch_det's own rounding
        assert flow.max_det_drift() <= 4 * eps
        finals.append(exact)
    diffs = [float(max(abs(a - b) for a, b in zip(coarse, fine)))
             for coarse, fine in zip(finals, finals[1:])]
    for coarse, fine in zip(diffs, diffs[1:]):
        assert 3.9 <= math.log2(coarse / fine) <= 4.1


def _rounded_point(nums, dens):
    return np.array(nums, dtype=WORK_DTYPE) / np.array(dens, dtype=WORK_DTYPE)


def test_stage_path_against_exact_rk4():
    x1, x2, x3 = (var(4, i) for i in range(3))
    x = PolyVectorField(Frame.darboux(2), (Poly.constant(4, 1), x1 ** 2, x1 * x2, x2 ** 2 - x3))
    _pin_triangular_rk4(x, _rounded_point([1, -1, 1, 1], [3, 2, 5, 7]))


@pytest.mark.parametrize("dim", [4, 6])
def test_stage_path_against_exact_rk4_on_more_triangular_fields(dim):
    # cubic entries on R^4; on R^6 each component past the first reads two
    # earlier coordinates
    y = [var(dim, i) for i in range(dim)]
    one = Poly.constant(dim, 1)
    if dim == 4:
        comps = (one, y[0] ** 3 - y[0], y[0] * y[1] + y[1] ** 2, y[1] * y[2] - y[0] ** 2)
        x0 = _rounded_point([-1, 1, 1, -2], [2, 3, 7, 5])
    else:
        comps = (one, 2 * y[0] ** 2 - 1, 3 * y[0] * y[1] + y[0], y[1] * y[2] - y[0] ** 3,
                 y[2] ** 2 + y[0] * y[3], y[3] * y[4] - 2 * y[1] ** 2)
        x0 = _rounded_point([-1, 2, 3, -1, 2, 5], [2, 3, 5, 7, 11, 13])
    _pin_triangular_rk4(PolyVectorField(Frame.darboux(dim // 2), comps), x0)


@pytest.mark.parametrize("case", ["criterion-7", "quartic", "blow-up"])
@pytest.mark.parametrize("det_batch", [16, 1024])
def test_tangent_flow_det_drift_is_the_whole_path_max(monkeypatch, case, det_batch):
    # on the stage loop the drift the run folds block by block is, bit for
    # bit, the max of |det J - 1| over every kept sample in one batch_det
    # call.  The criterion 7 field is affine, so it is sent down the stage
    # loop by hand (its own run reports the exact drift:
    # test_affine_det_drift_is_exact)
    _, coupled = build_linear_system(None, masses=(1, 2, 1))
    if case == "criterion-7":
        monkeypatch.setattr(flows, "_is_affine", lambda field: False)
    x, x0, cfg = {
        "criterion-7": (coupled, [1.0, 0.5, 0.25, -0.3], FlowConfig(10.0, 0.05)),
        "quartic": (*_stage_cases()["quartic"], FlowConfig(2.0, 0.01)),
        "blow-up": (PolyVectorField(Frame.darboux(1), (var(2, 0) ** 2, -var(2, 1))),
                    [1.0, 0.5], FlowConfig(2.0, 0.01)),
    }[case]
    monkeypatch.setattr(flows, "DET_BATCH", det_batch)
    flow = tangent_flow(x, x0, cfg)
    assert flow.trajectory.blew_up == (case == "blow-up")
    whole = float(np.max(np.abs(batch_det(flow.jacobians) - 1)))
    assert flow.max_det_drift() == whole > 0


def test_tangent_flow_symplecticity():
    # J^T Omega J - Omega stays below 1e-7 at every sample for symplectic X
    frame = Frame.darboux(2)
    x = hamiltonian_field(frame, standard_h(2) + var(4, 0) ** 2 * var(4, 1))
    flow = tangent_flow(x, [0.3, -0.2, 0.4, 0.1], FlowConfig(10.0, 1e-3))
    gram = np.zeros((4, 4))
    for mask, coeff in omega(frame).terms.items():
        i, j = [b for b in range(4) if mask >> b & 1]
        gram[i, j] = float(coeff)
        gram[j, i] = -float(coeff)
    j_t = np.asarray(flow.jacobians, dtype=float)
    residual = np.einsum("tji,jk,tkl->til", j_t, gram, j_t) - gram
    assert float(np.max(np.abs(residual))) < 1e-7


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("degree", [1, 3])
def test_non_finite_state_is_blow_up(bad, degree):
    # a NaN state norm is not > NORM_CAP, so the test must be written as
    # not (norm <= NORM_CAP); checked on the affine and the stage-loop path
    frame = Frame.darboux(1)
    x = hamiltonian_field(frame, standard_h(1) + (var(2, 0) ** 4 if degree == 3 else 0))
    assert flows._is_affine(x) == (degree == 1)
    with np.errstate(invalid="ignore"):
        flow = tangent_flow(x, [bad, 0.0], FlowConfig(t_final=1.0, dt=0.1))
    assert flow.trajectory.blew_up
    assert flow.trajectory.blow_up_step == 1


# ---------------------------------------------------------------------------
# the affine-field propagator against the stage loop
# ---------------------------------------------------------------------------

EPS = float(np.finfo(WORK_DTYPE).eps)


def _affine_cases():
    frame2, frame1 = Frame.darboux(2), Frame.darboux(1)
    _, coupled = build_linear_system(None, masses=(1, 2, 1))  # criterion 7
    ham = hamiltonian_field(frame2, standard_h(2))
    osc = PolyVectorField(frame1, (var(2, 1), -var(2, 0)))
    shifted = PolyVectorField(
        frame1, (var(2, 1) + Fraction(1, 3), -var(2, 0) + 2 + Fraction(1, 7) * var(2, 1))
    )
    return {
        "criterion-7": (coupled, [[1.0, 0.5, 0.25, -0.3]]),
        "ham": (ham, [[1.0, 0.0, 0.0, 1.0], [0.2, 0.3, -0.1, 0.5]]),
        "osc": (osc, [[1.0, 0.0]]),
        "inhomogeneous": (shifted, [[1.0, 0.0], [0.5, -0.5], [0.0, 2.0]]),
    }


def _both_paths(x, x0s, cfg):
    compiled = CompiledField(x)
    xs = np.array(x0s, dtype=WORK_DTYPE)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flows, "_is_affine", lambda field: False)  # force the stage loop
        ref = flows._rk4_run(compiled, xs, cfg)
    got = flows._rk4_run(compiled, xs, cfg)
    return ref, got


def _exact_drift(x, cfg, steps):
    """RK4's exact det drift |(det R)^steps - 1| on the affine field x, from
    the stability oracle."""
    a = oracles.constant_jacobian(x)
    return oracles.rk4_det_power_drift(a, Fraction(cfg.effective_dt), steps)


def _exact_power(x, cfg, steps):
    """RK4's tangent map R^steps on the affine field x, from the stability
    oracle's 60 digits, each entry rounded once into WORK_DTYPE."""
    power = oracles.rk4_stability_power(
        oracles.constant_jacobian(x), Fraction(cfg.effective_dt), steps)
    return np.array([[flows._round_work(Fraction(v)) for v in row] for row in power],
                    dtype=WORK_DTYPE)


@pytest.mark.parametrize("case", ["criterion-7", "ham", "osc", "inhomogeneous"])
def test_affine_propagator_matches_stage_loop(case):
    # an affine tangent flow steps its states and J through the stage loop,
    # to the bit, but reports the exact det drift of its N steps; the
    # stepped maps' drift is within 4 * steps * eps * max cond(J) of it,
    # since a relative change delta in J moves det J by up to cond(J) delta
    x, x0s = _affine_cases()[case]
    assert flows._is_affine(x)
    cfg = FlowConfig(t_final=10.0, dt=1e-2)
    ((states_ref, jac_ref), drift_ref, blow_ref), ((states_got, jac_got), drift, blow) = \
        _both_paths(x, x0s, cfg)
    assert states_ref.shape == (cfg.steps + 1,) + np.shape(x0s)
    _same_bits(states_got, states_ref)
    _same_bits(jac_got, jac_ref)
    assert abs(drift) == pytest.approx(_exact_drift(x, cfg, cfg.steps), rel=1e-12)
    cond = float(np.max(np.linalg.cond(np.asarray(jac_ref[:, 0], dtype=float))))
    assert abs(abs(drift) - drift_ref) <= 4 * cfg.steps * EPS * cond
    assert drift_ref > 0 and drift != 0
    assert blow_ref is None and blow is None


def test_affine_propagator_blow_up_matches_stage_loop():
    # the blow-up test reads the stage loop's states, so an affine run
    # blows up at its step; the drift is the exact one up to that step
    frame = Frame.darboux(1)
    expanding = PolyVectorField(frame, (var(2, 0) + 1, Fraction(1, 2) * var(2, 1)))
    cfg = FlowConfig(25.0, 1e-2)
    ((states_ref, _), _, blow), ((states_got, _), drift, blow_got) = \
        _both_paths(expanding, [[1.0, 1.0], [0.5, 0.0]], cfg)
    assert blow is not None and blow_got == blow
    assert states_got.shape == (blow + 1, 2, 2)
    _same_bits(states_got, states_ref)
    assert drift == pytest.approx(_exact_drift(expanding, cfg, blow), rel=1e-12)


def test_affine_det_drift_is_exact():
    # the criterion 7 field's tangent flow and l = n transport, and the
    # ham cube, report RK4's det truncation |(det R)^N - 1| from the
    # stability oracle, to 1e-12 relative; the tangent flow takes no det
    _, coupled = build_linear_system(None, masses=(1, 2, 1))
    ham = hamiltonian_field(Frame.darboux(2), standard_h(2))
    cfg = FlowConfig(10.0, 1e-2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flows, "batch_det", _no_det)
        flow = tangent_flow(coupled, [1.0, 0.5, 0.25, -0.3], cfg)
    assert flow.max_det_drift() == pytest.approx(_exact_drift(coupled, cfg, cfg.steps), rel=1e-12)
    (volume,) = flows.verify_area_laws(coupled, [(unit_cube(), 2)], cfg)
    assert volume.per_step_max_det_drift == flow.max_det_drift() == volume.rel_drift
    (cube,) = flows.verify_area_laws(ham, [(unit_cube(), 2)], cfg)
    assert cube.rel_drift == pytest.approx(_exact_drift(ham, cfg, cfg.steps), rel=1e-12)


@pytest.mark.parametrize("det_batch", [16, 40, 1024])
def test_area_law_det_drift_is_the_tangent_flow_drift(monkeypatch, det_batch):
    # an affine field's tangent map does not depend on the state, so the
    # area-laws cube's 16 nodes share the J of a one-point tangent flow, and
    # the l = n report gives that flow's exact det drift whatever DET_BATCH is
    x, _ = _affine_cases()["criterion-7"]
    cfg = FlowConfig(10.0, 1e-2)
    monkeypatch.setattr(flows, "DET_BATCH", det_batch)
    report = verify_area_preservation(x, unit_cube(), 2, cfg)
    flow = tangent_flow(x, [0.3, -0.2, 0.1, 0.5], cfg)
    assert report.per_step_max_det_drift == flow.max_det_drift()
    # paper-verify's liouville-drift reads its osc cube's det drift for the
    # tangent flow of the same field from x0 = [1.0, 0.5, 0.25, -0.3] at
    # t = 10, dt = 1e-3: the same number
    cfg = FlowConfig(10.0, 1e-3)
    report = flows.verify_area_laws(x, [(unit_cube(), 2)], cfg)[0]
    flow = tangent_flow(x, [1.0, 0.5, 0.25, -0.3], cfg)
    assert report.per_step_max_det_drift == flow.max_det_drift() > 0


def _lone_reports(x, chains, cfg):
    return [verify_area_preservation(x, chain, l, cfg) for chain, l in chains]


def _assert_same_reports(got, want):
    # every field; a float's repr round-trips, so equal reprs are equal bits
    # (and a NaN equals a NaN)
    assert [repr(g) for g in got] == [repr(w) for w in want]


def _n1_squares():
    # two 2-chains at n = 1, so both have l = n
    return [(ChainPatch.affine(1, [0, 0], [[1, 0], [0, 1]], orders=(4, 4)), 1),
            (ChainPatch.affine(1, ["1/2", "-1/4"], [[0, 1], [1, "1/2"]], orders=(3, 3)), 1)]


@pytest.mark.parametrize("case", ["criterion-7", "ham", "inhomogeneous"])
@pytest.mark.parametrize("det_batch", [16, 40, 1024])
def test_area_laws_share_an_affine_run_to_the_bit(monkeypatch, case, det_batch):
    # the chains of one affine field ride one RK4 run, and each report is
    # the lone verify_area_preservation call's, field by field
    x, _ = _affine_cases()[case]
    cfg = FlowConfig(10.0, 1e-2)
    monkeypatch.setattr(flows, "DET_BATCH", det_batch)
    if x.frame.n == 1:
        chains = _n1_squares()
    else:
        chains = [(unit_square(), 1), (unit_cube(), 2), (_two_patch_chain(1), 1)]
    runs = []
    rk4_run = flows._rk4_run
    monkeypatch.setattr(flows, "_rk4_run", lambda *a, **k: runs.append(1) or rk4_run(*a, **k))
    shared = flows.verify_area_laws(x, chains, cfg)
    assert len(runs) == 1
    _assert_same_reports(shared, _lone_reports(x, chains, cfg))
    assert all(r.per_step_max_det_drift > 0 for r in shared if r.l == x.frame.n)
    if x.frame.n == 2:
        # with no l = n chain, no tangent map's det is taken: only the 16-
        # and 18-node pullbacks before and after, two blades each
        chains = [(unit_square(), 1), (_two_patch_chain(1), 1)]
        sizes = _count_det_calls(monkeypatch)
        shared = flows.verify_area_laws(x, chains, cfg)
        assert sorted(sizes) == [16] * 4 + [18] * 4
        monkeypatch.setattr(flows, "batch_det", batch_det)
        _assert_same_reports(shared, _lone_reports(x, chains, cfg))


@pytest.mark.parametrize("which, m", [("l < n", 34), ("l = n", 16), ("both", 50)])
def test_proven_affine_transport_takes_no_step(monkeypatch, which, m):
    # the step bound clears the ham transport of m chain nodes, which takes
    # no RK4 step; run unproven it steps its m nodes' states alone (no
    # tangent column) through the stage loop, and every report field has
    # the same bits, as both push the frames by the exact J_N
    x, _ = _affine_cases()["ham"]
    cfg = FlowConfig(10.0, 1e-2)
    chains = {
        "l < n": [(unit_square(), 1), (_two_patch_chain(1), 1)],
        "l = n": [(unit_cube(), 2)],
        "both": [(unit_square(), 1), (unit_cube(), 2), (_two_patch_chain(1), 1)],
    }[which]
    decisions, runs = _record_runs(monkeypatch)
    got = flows.verify_area_laws(x, chains, cfg)
    assert decisions == [True] and runs == []
    monkeypatch.undo()
    monkeypatch.setattr(flows, "_proven", lambda *args: False)
    _, runs = _record_runs(monkeypatch)
    _assert_same_reports(got, flows.verify_area_laws(x, chains, cfg))
    assert runs == [(m, 0, -(-cfg.steps // (flows.DET_BATCH // m)))]
    assert all(r.per_step_max_det_drift > 0 for r in got if r.l == 2)


def test_area_laws_run_each_chain_alone_on_the_stage_path(monkeypatch):
    # a shared stage run would check the det of every chain's node maps
    # together, so each chain runs alone, and its report is its own call's
    x, _ = _stage_cases()["quartic"]
    cfg = FlowConfig(0.5, 0.01)
    chains = [(unit_square(), 1), (unit_cube(), 2)]
    runs = []
    rk4_run = flows._rk4_run
    monkeypatch.setattr(flows, "_rk4_run", lambda *a, **k: runs.append(len(a[1])) or rk4_run(*a, **k))
    shared = flows.verify_area_laws(x, chains, cfg)
    assert runs == [16, 16]
    _assert_same_reports(shared, _lone_reports(x, chains, cfg))
    assert shared[1].per_step_max_det_drift > 0 and shared[0].per_step_max_det_drift is None


def test_area_laws_blow_up_flags_every_chain_of_the_run():
    # x' = x grows like e^t: the unit square at the origin reaches node
    # norms near 6e8 by t = 20, below NORM_CAP, the cube from [1, 1, 1, 1]
    # passes it near t = 19.5.  Their shared run stops there, so both
    # reports are flagged; each keeps the hypothesis and note of its own l
    x = PolyVectorField(Frame.darboux(2), tuple(var(4, i) for i in range(4)))
    cube = ChainPatch.affine(
        2, [1, 1, 1, 1], [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
        orders=(2, 2, 2, 2))
    chains = [(unit_square(), 1), (cube, 2)]
    cfg = FlowConfig(20.0, 0.01)
    lone_square, lone_cube = _lone_reports(x, chains, cfg)
    assert not lone_square.blew_up and lone_cube.blew_up
    shared = flows.verify_area_laws(x, chains, cfg)
    for got, lone in zip(shared, (lone_square, lone_cube)):
        assert got.blew_up and math.isnan(got.final) and math.isnan(got.abs_drift)
        assert got.per_step_max_det_drift is None
        assert got.initial == lone.initial
        assert (got.hypothesis_ok, got.hypothesis_note) == (
            lone.hypothesis_ok, lone.hypothesis_note)
    assert [r.hypothesis_note for r in shared] == [
        "theorem not applicable: X is not symplectic and l < n",
        "theorem not applicable: X has nonzero divergence",
    ]
    _assert_same_reports(flows.verify_area_laws(x, chains[1:], cfg), [lone_cube])


def test_area_laws_of_no_chain_and_bad_l():
    x, _ = _affine_cases()["ham"]
    cfg = FlowConfig(1.0, 0.1)
    assert flows.verify_area_laws(x, [], cfg) == []
    with pytest.raises(InputError, match="^need 1 <= l <= n$"):
        flows.verify_area_laws(x, [(unit_square(), 1), (unit_cube(), 3)], cfg)


@pytest.mark.parametrize("stage", [False, True])
def test_area_laws_take_any_iterable_of_chains(stage):
    # chains is read once, so a generator gives the reports of a list
    x, _ = _stage_cases()["quartic"] if stage else _affine_cases()["ham"]
    cfg = FlowConfig(1.0, 0.1)
    chains = [(unit_square(), 1), (unit_cube(), 2)]
    listed = flows.verify_area_laws(x, chains, cfg)
    assert len(listed) == 2
    _assert_same_reports(flows.verify_area_laws(x, (pair for pair in chains), cfg), listed)


@pytest.mark.parametrize("path", ["affine", "stage"])
@pytest.mark.parametrize("given, checked", [
    ("none", True), ("square", True), ("non-square", False), ("non-square, square", True)])
def test_frames_decide_the_det_check(monkeypatch, path, given, checked):
    # _rk4_run's one rule: on a nonlinear field the J maps' dets are taken
    # exactly when no frames are given or some frame is square (l = n); an
    # affine run takes none and reports the exact det drift, whatever the
    # frames
    if path == "affine":
        x, (x0, _) = _affine_cases()["ham"]
    else:
        x, x0 = _stage_cases()["quartic"]
    assert flows._is_affine(x) == (path == "affine")
    dim, m = len(x0), 3
    square, flat = _frames(m, dim, dim), _frames(m, dim, dim // 2)
    frames = {"none": None, "square": [square], "non-square": [flat],
              "non-square, square": [flat, square]}[given]
    xs = _starts(x0, m if frames is None else m * len(frames))
    sizes = _count_det_calls(monkeypatch)
    cfg = FlowConfig(0.5, 0.01)
    pushed, drift, blow = flows._rk4_run(CompiledField(x), xs, cfg, frames)
    assert blow is None
    if path == "affine":
        assert not sizes and abs(drift) == pytest.approx(_exact_drift(x, cfg, 50), rel=1e-12)
    else:
        assert bool(sizes) == checked and (drift > 0) == checked
    if frames is not None:
        assert [p.shape for p in pushed] == [f.shape for f in frames]


@pytest.mark.parametrize("case", ["criterion-7", "ham", "inhomogeneous"])
@pytest.mark.parametrize("h", [Fraction(1, 10), Fraction(1e-3)])
def test_affine_propagator_exact(case, h):
    # det R equals the test-side stability oracle, and R x + c is one RK4
    # step taken in exact rationals
    x, _ = _affine_cases()[case]
    aug = flows._affine_propagator(x, h)
    assert aug[-1] == [0] * x.frame.dim + [1]
    r, c = [row[:-1] for row in aug[:-1]], [row[-1] for row in aug[:-1]]
    a = oracles.constant_jacobian(x)
    det = oracles.sympy.Matrix(
        [[oracles.sympy.Rational(v.numerator, v.denominator) for v in row] for row in r]
    ).det()
    assert Fraction(int(det.p), int(det.q)) == oracles.rk4_stability_det(a, h)
    p0 = [Fraction(i + 1, 3) * (-1) ** i for i in range(x.frame.dim)]
    assert oracles.rk4_exact(x, p0, h, 1) == [
        sum(rv * pv for rv, pv in zip(row, p0)) + cv for row, cv in zip(r, c)
    ]


def test_round_work_is_nearest():
    x, _ = _affine_cases()["inhomogeneous"]
    values = [v for row in flows._affine_propagator(x, Fraction(1e-3)) for v in row]
    values += [Fraction(1, 3), Fraction(-2, 7), Fraction(10**30 + 1, 3), Fraction(1, 10**40)]
    for q in values:
        got = flows._round_work(q)
        assert abs(Fraction(*got.as_integer_ratio()) - q) <= Fraction(
            *np.spacing(abs(got)).as_integer_ratio()
        ) / 2
    assert flows._round_work(Fraction(0)) == 0
    assert flows._round_work(Fraction(1e-3)) == WORK_DTYPE(1e-3)


def test_round_work_is_nearest_below_the_normal_range():
    """Below 2^minexp the grid is the subnormal quantum 2^-(nmant - minexp);
    the reference is Fraction's round, which ties to even."""
    info = np.finfo(WORK_DTYPE)
    quantum = Fraction(1, 2 ** (info.nmant - info.minexp))
    rng = random.Random(5)
    values = [Fraction(8, 10**4933), Fraction(-8, 10**4933), quantum / 2, quantum * 3 / 2,
              quantum * 5 / 2, quantum * (2 ** info.nmant - Fraction(1, 3)),
              quantum * (2 ** info.nmant - Fraction(1, 2)), quantum * Fraction(1, 2 ** 70)]
    values += [
        Fraction(rng.getrandbits(80) + 1, rng.getrandbits(80) + 1) * quantum * 2 ** rng.randrange(70)
        * rng.choice((1, -1))
        for _ in range(2000)
    ]
    for q in values:
        whole = round(abs(q) / quantum)
        if whole > 2 ** info.nmant:  # normal: test_round_work_is_nearest
            continue
        got = flows._round_work(q)
        assert Fraction(*got.as_integer_ratio()) == (whole if q > 0 else -whole) * quantum, q


# ---------------------------------------------------------------------------
# the compiled evaluator and the block stage loop against dense references
# ---------------------------------------------------------------------------

def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _random_poly(rng, nvars, degree):
    # non-dyadic coefficients: thirds, sevenths, ninths, ...
    terms = {}
    for d in [degree] + [rng.randint(0, degree) for _ in range(5)]:
        e = [0] * nvars
        for _ in range(d):
            e[rng.randrange(nvars)] += 1
        terms[tuple(e)] = Fraction(rng.choice([-7, -2, 1, 4, 5]), rng.choice([3, 7, 9, 11]))
    return Poly(nvars, terms)


def _evaluator_cases():
    rng = random.Random(20)
    cases = {}
    for degree in range(1, 6):
        frame = Frame.darboux(2 if degree % 2 else 1)
        dim = frame.dim
        cases[f"degree-{degree}"] = PolyVectorField(
            frame, tuple(_random_poly(rng, dim, degree) for _ in range(dim))
        )
    frame = Frame.darboux(2)
    x0, x3 = var(4, 0), var(4, 3)
    # a constant row and rows that skip variables: all-zero Jacobian slots
    cases["zero-slots"] = PolyVectorField(frame, (
        Poly.constant(4, Fraction(2, 3)),
        Fraction(1, 7) * x0 ** 3,
        Poly.zero(4),
        x0 * x3 ** 2 - Fraction(1, 3) * x3,
    ))
    cases["zero-field"] = PolyVectorField.zero(frame)
    u, v = var(2, 0), var(2, 1)
    # a chain parametrization: 2 variables into 4 coordinates
    cases["chain-map"] = (
        Fraction(1, 3) * u ** 3 + Fraction(5, 7) * v + Fraction(2, 9),
        u * v - Fraction(1, 3) * v ** 2,
        Poly.constant(2, Fraction(5, 9)),
        v ** 2 - Fraction(1, 3) * u + u * u * v,
    )
    # every exponent from 0 to 6 in each variable: pad, x^1 and powl rows
    q, p = var(2, 0), var(2, 1)
    cases["powers-0-to-6"] = PolyVectorField(Frame.darboux(1), (
        sum((Fraction(a + 1, 3) * q ** a * p ** (6 - a) for a in range(7)), Poly.zero(2)),
        q ** 6 - Fraction(2, 7) * q * p ** 5 + p ** 2 - Fraction(5, 9),
    ))
    return cases


@pytest.mark.parametrize("case", sorted(_evaluator_cases()))
def test_compiled_evaluator_matches_dense_formula(case):
    x = _evaluator_cases()[case]
    polys = x.components if isinstance(x, PolyVectorField) else x
    nvars = polys[0].nvars
    compiled = CompiledField(x)
    rng = np.random.default_rng(5)
    for m in (1, 7, 33):
        xs = rng.standard_normal((m, nvars)).astype(WORK_DTYPE) / WORK_DTYPE(3)
        xs[0, 0] = -0.0
        values, jacobians = compiled(xs)
        want_values, want_jacobians = oracles.dense_evaluate(polys, xs)
        assert values.shape == (m, len(polys)) and jacobians.shape == (m, len(polys), nvars)
        _same_bits(values, want_values)
        _same_bits(jacobians, want_jacobians)


@pytest.mark.parametrize("case", sorted(_evaluator_cases()))
def test_compiled_evaluator_serves_each_node_count(case):
    # one evaluator called at 33, 1, 7 and 33 nodes in turn: the flat scatter
    # index it keeps per node count must never serve another count.  The
    # last node carries inf, -inf and NaN coordinates, the first a -0.0
    x = _evaluator_cases()[case]
    polys = x.components if isinstance(x, PolyVectorField) else x
    nvars = polys[0].nvars
    compiled = CompiledField(x)
    rng = np.random.default_rng(6)
    for m in (33, 1, 7, 33):
        xs = rng.standard_normal((m, nvars)).astype(WORK_DTYPE) / WORK_DTYPE(3)
        xs[0, -1] = -0.0
        xs[-1, :3] = [np.inf, -np.inf, np.nan][:nvars]
        # inf - inf and inf * 0 make NaN in both evaluations
        with np.errstate(invalid="ignore"):
            values, jacobians = compiled(xs)
            want_values, want_jacobians = oracles.dense_evaluate(polys, xs)
        _same_bits(values, want_values)
        _same_bits(jacobians, want_jacobians)
        # a float64 input is evaluated in WORK_DTYPE, as its exact copy is
        narrow = xs.astype(np.float64)
        with np.errstate(invalid="ignore"):
            values, jacobians = compiled(narrow)
            want_values, want_jacobians = oracles.dense_evaluate(polys, narrow.astype(WORK_DTYPE))
        assert values.dtype == jacobians.dtype == WORK_DTYPE
        _same_bits(values, want_values)
        _same_bits(jacobians, want_jacobians)


def test_compiled_evaluator_special_inputs():
    # -0.0, +-inf, NaN, subnormals, powers that overflow (2^3000 to the 6th)
    # and that underflow (2^-3000 to the 6th), each at every node position
    polys = _evaluator_cases()["powers-0-to-6"].components
    compiled = CompiledField(polys)
    big, small = np.ldexp(WORK_DTYPE(1.5), 3000), np.ldexp(WORK_DTYPE(1), -3000)
    tiny = np.finfo(WORK_DTYPE).smallest_subnormal
    pool = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, tiny, -3 * tiny,
                     big, -big, small, -small, 0.7, -1.3], dtype=WORK_DTYPE)
    for m in (1, 7, 33):
        for shift in range(len(pool)):
            xs = np.resize(np.roll(pool, shift), (m, 2))
            with np.errstate(over="ignore", invalid="ignore"):
                values, jacobians = compiled(xs)
                want_values, want_jacobians = oracles.dense_evaluate(polys, xs)
            _same_bits(values, want_values)
            _same_bits(jacobians, want_jacobians)


def _stage_cases():
    frame1, frame2 = Frame.darboux(1), Frame.darboux(2)
    quartic = hamiltonian_field(frame2, standard_h(2) + Fraction(1, 4) * var(4, 0) ** 4
                                + Fraction(2, 7) * var(4, 0) ** 2 * var(4, 1) ** 2)
    dissipative = PolyVectorField(frame1, (var(2, 0) ** 2, var(2, 1)))
    return {
        "quartic": (quartic, [0.3, -0.2, 0.4, 0.1]),
        "dissipative": (dissipative, [0.3, 1.0]),
    }


def _starts(x0, m):
    # x0 and m - 1 nearby points
    xs = np.array([x0] * m, dtype=WORK_DTYPE)
    xs[1:] += np.random.default_rng(11).uniform(-0.05, 0.05, (m - 1, len(x0)))
    return xs


def _assert_same_run(got, want):
    """A run's (paths, max drift, blow-up step) against an oracle loop's
    (states, tangents, state path, tangent path, max drift, blow-up step),
    bit for bit: a tangent flow's paths, whose last samples are the loop's
    final states and tangents, or the pushed frames of a transport of one
    chain riding its frames, which are the loop's final tangents."""
    paths, drift, blow = got
    if isinstance(paths, tuple):
        _same_bits(paths[0], want[2])
        _same_bits(paths[1], want[3])
    else:
        (pushed,) = paths
        _same_bits(pushed, want[1])
    _same_bits(drift, want[4])
    assert blow == want[5]


def _count_det_calls(monkeypatch):
    """Wrap flows.batch_det: the list returned gets each call's matrix count."""
    sizes = []

    def counted(mats):
        sizes.append(len(mats))
        return batch_det(mats)

    monkeypatch.setattr(flows, "batch_det", counted)
    return sizes


@pytest.mark.parametrize("case", ["quartic", "dissipative"])
@pytest.mark.parametrize("m", [1, 16, 17])
@pytest.mark.parametrize("det_batch", [16, 40, 1024])
def test_stage_loop_matches_per_step_loop(monkeypatch, case, m, det_batch):
    # per-block det check and blow-up test, stacked paths: the same bits as
    # one einsum step, one batch_det and one norm test at a time; 50 steps
    # leave a partial last block at m = 1 for DET_BATCH = 16 and 40, and at
    # m = 17 > DET_BATCH = 16 a block is one step, its call all 17 maps
    x, x0 = _stage_cases()[case]
    assert not flows._is_affine(x)
    xs = _starts(x0, m)
    cfg = FlowConfig(t_final=0.5, dt=0.01)
    monkeypatch.setattr(flows, "DET_BATCH", det_batch)
    sizes = _count_det_calls(monkeypatch)
    got = flows._rk4_run(CompiledField(x), xs, cfg)
    # one call per block of max(1, DET_BATCH // m) steps: at most DET_BATCH
    # matrices, or one step's m where m > DET_BATCH
    block = max(1, min(det_batch // m, cfg.steps))
    full, rest = divmod(cfg.steps, block)
    assert sizes == [block * m] * full + ([rest * m] if rest else [])
    monkeypatch.setattr(flows, "batch_det", batch_det)
    want = oracles.rk4_stage_loop(flows, x, xs, cfg)
    _assert_same_run(got, want)
    assert want[4] > 0 and want[5] is None
    # a transport of square frames steps the same J and checks its det,
    # keeping no paths: the same max drift
    square = flows._rk4_run(CompiledField(x), xs, cfg, [_frames(m, len(x0), len(x0))])
    assert square[1:] == (want[4], None)


def _frames(m, dim, c):
    # c tangent columns per node, non-dyadic and no identity block
    rng = np.random.default_rng(12)
    return rng.uniform(-1, 1, (m, dim, c)).astype(WORK_DTYPE) / WORK_DTYPE(3)


def _no_det(mats):
    raise AssertionError("a run of given tangents takes no determinant")


@pytest.mark.parametrize("case", ["quartic", "dissipative"])
@pytest.mark.parametrize("m", [1, 16])
@pytest.mark.parametrize("det_batch", [16, 1024])
def test_stage_loop_steps_given_tangents_like_per_step_loop(monkeypatch, case, m, det_batch):
    # tangents (m, dim, dim / 2) ride V' = DX V on their own columns:
    # pushed tangents and blow-up step are the bits of the per-step loop
    # started from the same tangents, and so are the states, which a
    # tangent flow of the same nodes steps as the transport does
    x, x0 = _stage_cases()[case]
    dim = len(x0)
    xs, frames = _starts(x0, m), _frames(m, dim, dim // 2)
    cfg = FlowConfig(t_final=0.5, dt=0.01)
    monkeypatch.setattr(flows, "DET_BATCH", det_batch)
    monkeypatch.setattr(flows, "batch_det", _no_det)
    got = flows._rk4_run(CompiledField(x), xs, cfg, [frames])
    want = oracles.rk4_stage_loop(flows, x, xs, cfg, tangents=frames)
    _assert_same_run(got, want)
    assert got[0][0].shape == (m, dim, dim // 2) and want[5] is None
    monkeypatch.setattr(flows, "batch_det", batch_det)
    _same_bits(flows._rk4_run(CompiledField(x), xs, cfg)[0][0], want[2])


@pytest.mark.parametrize("m", [1, 3])
def test_stage_loop_given_tangents_blow_up_inside_block(monkeypatch, m):
    # q' = q^2 from q = 1 passes the norm cap near t = 1, in the middle of a
    # block; the tangent column stepped with it stops at the same step
    x = PolyVectorField(Frame.darboux(1), (var(2, 0) ** 2, -var(2, 1)))
    xs, frames = _starts([1.0, 0.5], m), _frames(m, 2, 1)
    cfg = FlowConfig(t_final=2.0, dt=0.01)
    want = oracles.rk4_stage_loop(flows, x, xs, cfg, tangents=frames)
    blow = want[5]
    assert blow is not None and blow > 10
    monkeypatch.setattr(flows, "DET_BATCH", (blow // 2 + 3) * m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = flows._rk4_run(CompiledField(x), xs, cfg, [frames])
        (states, _), _, flow_blow = flows._rk4_run(CompiledField(x), xs, cfg)
    _assert_same_run(got, want)
    # the tangent flow of the same nodes steps the transport's states
    assert flow_blow == blow
    _same_bits(states, want[2])


def test_pushed_frames_match_full_tangent_map_within_rounding():
    # an l < n stage transport steps its 2l frame columns, which rounds
    # otherwise than stepping J and forming J . dsigma from the last sample
    # of the tangent flow of the same nodes; the pushed frames differ by at
    # most one rounding of each of the 4 stage products per step, relative
    # to the largest entry
    x, _ = _stage_cases()["quartic"]
    _, points, frames = flows._chain_quadrature(_two_patch_chain(1), 2, 1)
    compiled = CompiledField(x)
    cfg = FlowConfig(t_final=2.0, dt=0.005)
    (pushed,), _, blow = flows._rk4_run(compiled, points, cfg, [frames])
    (_, jpath), _, flow_blow = flows._rk4_run(compiled, points, cfg)
    want = np.einsum("mij,mjl->mil", jpath[-1], frames)
    assert blow is None and flow_blow is None
    gap = np.max(np.abs(pushed - want))
    assert 0 < gap <= 4 * cfg.steps * EPS * np.max(np.abs(want))
    # the affine path, whose one J serves every node, pushes the frames by
    # RK4's exact J_N, rounded once
    ham, _ = _affine_cases()["ham"]
    js = np.broadcast_to(_exact_power(ham, cfg, cfg.steps), (len(frames), 4, 4))
    _same_bits(flows._rk4_run(CompiledField(ham), points, cfg, [frames])[0][0],
               np.einsum("mij,mjl->mil", js, frames))


def _affine_oracle_cases():
    cases = {name: (x, x0s[0], FlowConfig(2.5, 0.01))
             for name, (x, x0s) in _affine_cases().items() if name != "osc"}
    frame = Frame.darboux(1)
    expanding = PolyVectorField(frame, (var(2, 0) + 1, Fraction(1, 2) * var(2, 1)))
    cases["expanding"] = (expanding, [1.0, 1.0], FlowConfig(25.0, 1e-2))
    return cases


def _stage_oracle(x, xs, cfg):
    """oracles.rk4_stage_loop, whose overflowed maps warn about nothing."""
    with np.errstate(over="ignore", invalid="ignore"):
        return oracles.rk4_stage_loop(flows, x, xs, cfg)


@functools.cache
def _affine_case_oracle(case, m):
    x, x0, cfg = _affine_oracle_cases()[case]
    return _stage_oracle(x, _starts(x0, m), cfg)


def _assert_same_affine_run(x, cfg, got, want):
    """An affine tangent flow against the stage-loop oracle: its paths and
    blow-up step, bit for bit, and the exact det drift of the steps taken."""
    (states, jacobians), drift, blow = got
    _same_bits(states, want[2])
    _same_bits(jacobians, want[3])
    assert blow == want[5]
    assert abs(drift) == pytest.approx(_exact_drift(x, cfg, blow or cfg.steps), rel=1e-12)


@pytest.mark.parametrize("case", ["criterion-7", "ham", "inhomogeneous", "expanding"])
@pytest.mark.parametrize("m", [1, 3, 16, 17])
@pytest.mark.parametrize("det_batch", [16, 40, 1024])
def test_affine_step_matches_per_step_loop(monkeypatch, case, m, det_batch):
    # an affine tangent flow steps in blocks of max(1, DET_BATCH // m) steps
    # the bits of the one-step-at-a-time stage loop, blow-up step included,
    # and takes no det.  At m >= DET_BATCH = 16 a block is one step.  A
    # transport of square frames reports the same
    # drift and blow-up step, and pushes the frames by the exact J_N; the
    # step bound clears it but on the expanding field, where it steps its
    # states alone in the tangent flow's blocks
    x, x0, cfg = _affine_oracle_cases()[case]
    assert flows._is_affine(x)
    xs = _starts(x0, m)
    want = _affine_case_oracle(case, m)
    monkeypatch.setattr(flows, "DET_BATCH", det_batch)
    monkeypatch.setattr(flows, "batch_det", _no_det)
    got = flows._rk4_run(CompiledField(x), xs, cfg)
    _assert_same_affine_run(x, cfg, got, want)
    assert (want[5] is not None) == (case == "expanding")
    frames = _frames(m, len(x0), len(x0))
    decisions, runs = _record_runs(monkeypatch)
    (pushed,), drift, blow = flows._rk4_run(CompiledField(x), xs, cfg, [frames])
    assert (drift, blow) == got[1:]
    assert decisions == [case != "expanding"]
    if blow is None:
        assert runs == []
        j = np.broadcast_to(_exact_power(x, cfg, cfg.steps), frames.shape)
        _same_bits(pushed, np.einsum("mij,mjl->mil", j, frames))
    else:
        block = max(1, min(det_batch // m, cfg.steps))
        assert runs == [(m, 0, -(-blow // block))]


def test_affine_step_saddle_overflow_matches_stage_loop():
    # q' = q, p' = -p at dt = 1: R = diag(65/24, 3/8), so the stepped J
    # overflows to inf near step 11400 (NaN after it) and underflows to 0,
    # while the states stay exactly 0; no false blow-up may be flagged, and
    # the drift is the exact (195/192)^12000 - 1 ~ 2e80, not a NaN det
    x = PolyVectorField(Frame.darboux(1), (var(2, 0), -var(2, 1)))
    cfg = FlowConfig(12000, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        (want, _, blow_ref), got = _both_paths(x, [[0.0, 0.0]], cfg)
    _same_bits(got[0][0], want[0])
    _same_bits(got[0][1], want[1])
    (states, jacobians), drift, blow = got
    assert blow_ref is None
    assert drift == pytest.approx(_exact_drift(x, cfg, cfg.steps), rel=1e-12)
    assert 1e80 < drift < 1e81 and blow is None
    assert np.isinf(jacobians).any() and np.isnan(jacobians[-1]).any() and not np.any(states)


def test_affine_step_full_overflow_matches_stage_loop():
    # q' = q + p, p' = q + p at dt = 1: every entry of R is positive, so
    # the stepped J overflows to inf and stays inf, with no entry NaN, while
    # the states stay exactly 0; det R = R(0) R(2) = 7, so the exact drift
    # 7^12000 - 1 is inf
    x = PolyVectorField(Frame.darboux(1), (var(2, 0) + var(2, 1), var(2, 0) + var(2, 1)))
    cfg = FlowConfig(12000, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        (want, _, blow_ref), got = _both_paths(x, [[0.0, 0.0]], cfg)
    _same_bits(got[0][0], want[0])
    _same_bits(got[0][1], want[1])
    (states, jacobians), drift, blow = got
    assert blow_ref is None
    assert blow is None and not np.any(states) and drift == math.inf
    assert np.isinf(jacobians[-1]).all() and not np.isnan(jacobians).any()


def _random_affine_field(rng, n, diagonal):
    # X = A x + b, entries in [-2, 2]; a diagonal one is linear (b = 0)
    dim = 2 * n

    def entry():
        return Fraction(rng.randint(-20, 20), 10)

    comps = []
    for i in range(dim):
        comp = Poly.zero(dim) if diagonal else Poly.constant(dim, entry())
        for j in range(dim):
            if i == j or not diagonal:
                comp = comp + entry() * var(dim, j)
        comps.append(comp)
    return PolyVectorField(Frame.darboux(n), tuple(comps))


def _record_runs(monkeypatch):
    """Wrap flows._proven and flows._stage_blocks: the lists returned get
    each affine transport's decision, True where the step bound clears it
    and it takes no step, and each stepped run's (nodes, tangent columns,
    blocks)."""
    decisions, runs = [], []
    proven, stage_blocks = flows._proven, flows._stage_blocks

    def decided(*args):
        decisions.append(proven(*args))
        return decisions[-1]

    def counted(compiled, xs, tangents, *args):
        nodes, columns, blocks = len(xs), tangents.shape[2], 0
        runs.append((nodes, columns, blocks))
        for block in stage_blocks(compiled, xs, tangents, *args):
            blocks += 1
            runs[-1] = (nodes, columns, blocks)
            yield block

    monkeypatch.setattr(flows, "_proven", decided)
    monkeypatch.setattr(flows, "_stage_blocks", counted)
    return decisions, runs


@pytest.mark.parametrize("dt", [1e-3, 0.1, 1.0])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_affine_step_bound_holds_on_every_step(n, dt):
    # every computed step of a seeded random affine field (dense, and
    # diagonal and linear, where sqrt(||R||_1 ||R||_inf) is the 2-norm of R,
    # so the bound is tight up to its margin) meets |x_{j+1}| <= r |x_j| + g
    # with the package's own r and g, from seeded states of scales 1e-3 to
    # 1e6, some of them on a coordinate axis; a run stops past NORM_CAP
    rng = random.Random(n * 1000 + round(1 / dt))
    states = np.random.default_rng(n * 1000 + round(1 / dt))
    cfg = FlowConfig(40 * dt, dt)
    dim = 2 * n
    for diagonal in (False, True):
        for _ in range(4):
            x = _random_affine_field(rng, n, diagonal)
            r, g = flows._step_bound(flows._affine_propagator(x, Fraction(cfg.effective_dt)))
            assert math.isfinite(r) and math.isfinite(g)
            xs = np.concatenate([
                states.uniform(-1, 1, (6, dim)) * 10.0 ** states.uniform(-3, 6, (6, 1)),
                np.eye(dim) * 10.0 ** states.uniform(-3, 6, (dim, 1)),
            ]).astype(WORK_DTYPE)
            path = flows._rk4_run(CompiledField(x), xs, cfg)[0][0]
            norms = np.sqrt(np.sum(path * path, axis=2))
            assert np.all(norms[1:] <= WORK_DTYPE(r) * norms[:-1] + WORK_DTYPE(g))


def test_step_bound_proves_nothing_it_cannot_bound():
    # an entry of R~ past the longdouble range (rounding to +-inf) or past
    # the float64 one makes r or g non-finite, and a power max(1, r)^k past
    # the float range proves nothing either: the run takes the exact test,
    # and nothing raises or warns
    def step(rows):
        return [[Fraction(v) for v in row] for row in rows] + [[0, 0, 1]]

    nodes = np.ones((2, 3), dtype=WORK_DTYPE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (Fraction(10) ** 5000, -Fraction(10) ** 5000, Fraction(10) ** 4000):
            for where in ((0, 1), (1, 2)):
                rows = [[1, 0, 0], [0, 1, 0]]
                rows[where[0]][where[1]] = bad
                r, g = flows._step_bound(step(rows))
                assert not (math.isfinite(r) and math.isfinite(g))
                assert not flows._proven(r, g, nodes, 1)
        r, g = flows._step_bound(step([[2, 0, 0], [0, 2, 0]]))
        # the nodes' norm is sqrt(2): 2^28 sqrt(2) < NORM_CAP / 2 < 2^29 sqrt(2)
        assert flows._proven(r, g, nodes, 28)
        assert not flows._proven(r, g, nodes, 29)
        assert not flows._proven(r, g, nodes, 1100)  # 2.0 ** 1100 overflows
        for bad in (np.inf, np.nan):
            assert not flows._proven(1.0, 0.0, np.full((2, 3), bad, dtype=WORK_DTYPE), 1)


def test_affine_run_with_an_infinite_propagator_is_tested(monkeypatch):
    # X = a (p, q) with a = 10^2000: (h a)^4 / 24 overflows longdouble, so
    # the rounded R is all inf and no transport is proven; the stage loop
    # flags the inf states at step 1, as the per-step loop does, the exact
    # drift is inf, and nothing warns or raises
    big = Fraction(10) ** 2000
    x = PolyVectorField(Frame.darboux(1), (big * var(2, 1), big * var(2, 0)))
    xs = np.array([[1.0, 0.5]], dtype=WORK_DTYPE)
    cfg = FlowConfig(5, 1)
    assert flows._step_bound(flows._affine_propagator(x, Fraction(1)))[0] == math.inf
    want = _stage_oracle(x, xs, cfg)
    decisions, runs = _record_runs(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = flows._rk4_run(CompiledField(x), xs, cfg)
        transport = flows._rk4_run(CompiledField(x), xs, cfg, [_frames(1, 2, 2)])
    _assert_same_affine_run(x, cfg, got, want)
    assert got[1:] == transport[1:] == (math.inf, 1)
    assert decisions == [False] and runs == [(1, 2, 1), (1, 0, 1)]


def test_affine_power_past_the_range_warns_about_nothing(monkeypatch):
    # the saddle q' = q, p' = -p at n = 2, from a square collapsed to the
    # origin: its one node steps (r^12000 overflows, proving nothing) and
    # stays at 0, no blow-up, while R^12000 = diag(65/24, 65/24, 3/8,
    # 3/8)^12000 is past the longdouble range both ways; J_N rounds to inf
    # and 0, the pushed zero frames to NaN, and nothing warns or raises
    x = PolyVectorField(Frame.darboux(2), (var(4, 0), var(4, 1), -var(4, 2), -var(4, 3)))
    chain = ChainPatch.affine(1, [0] * 4, [[0] * 4, [0] * 4], orders=(1, 1))
    decisions, runs = _record_runs(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify_area_preservation(x, chain, 1, FlowConfig(12000, 1))
        power = flows._propagator_power(flows._affine_propagator(x, Fraction(1)), 12000)
    assert decisions == [False] and runs == [(1, 0, 12)]
    assert not report.blew_up and report.initial == 0 and math.isnan(report.final)
    _same_bits(power, np.diag(np.array([np.inf, np.inf, 0, 0], dtype=WORK_DTYPE)))


def test_affine_step_with_a_singular_propagator():
    # X = A x with A the companion matrix of 24 R(z) = z^4 + 4z^3 + 12z^2 +
    # 24z + 24, RK4's stability polynomial: at dt = 1, R(A) = 0 by
    # Cayley-Hamilton, so det R = 0 and every state and J is 0 after one
    # step.  The exact det drift is |0^N - 1| = 1, and an l = n integral is
    # scaled to 0, with no log of 0 taken
    y = [var(4, i) for i in range(4)]
    last = -24 * y[0] - 24 * y[1] - 12 * y[2] - 4 * y[3]
    x = PolyVectorField(Frame.darboux(2), (y[1], y[2], y[3], last))
    cfg = FlowConfig(3.0, 1.0)
    flow = tangent_flow(x, [1.0, 0.5, 0.25, -0.3], cfg)
    assert flow.max_det_drift() == 1.0 and not np.any(flow.jacobians[1:])
    (cube,) = flows.verify_area_laws(x, [(unit_cube(), 2)], cfg)
    assert (cube.initial, cube.final, cube.per_step_max_det_drift) == (1.0, 0.0, 1.0)


def test_affine_run_from_overflowing_nodes_is_tested(monkeypatch):
    # nodes near 1e2500, whose squares overflow longdouble: a transport's
    # proof sees N0 = inf and proves nothing, warning about nothing; the
    # stage loop flags step 1, with the per-step loop's bits
    x = hamiltonian_field(Frame.darboux(1), standard_h(1))
    xs = np.array([[WORK_DTYPE("1e2500"), WORK_DTYPE("-2e2500")]])
    cfg = FlowConfig(1, 0.1)
    want = _stage_oracle(x, xs, cfg)
    decisions, runs = _record_runs(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = flows._rk4_run(CompiledField(x), xs, cfg)
        transport = flows._rk4_run(CompiledField(x), xs, cfg, [_frames(1, 2, 1)])
    _assert_same_affine_run(x, cfg, got, want)
    assert got[2] == transport[2] == 1
    assert decisions == [False] and runs == [(1, 2, 1), (1, 0, 1)]


def test_tested_affine_run_sums_norms_of_c_ordered_states(monkeypatch):
    # the zero field at n = 4 keeps its two nodes, the first
    # (1e9, 1/8, ..., 1/8), whose exact norm^2 is 1e18 + 7/64.  Summed over
    # the C-ordered states, as the per-step loop does, it rounds to
    # 1e18 + 1/16 and the node is past NORM_CAP at step 1 (summed in index
    # order it would round to 1e18 and pass).  N0 > NORM_CAP / 2: a
    # transport is tested too
    x = PolyVectorField(Frame.darboux(4), (Poly.zero(8),) * 8)
    xs = np.array([[1e9] + [0.125] * 7, [0.5] * 8], dtype=WORK_DTYPE)
    cfg = FlowConfig(0.3, 0.1)
    decisions, _ = _record_runs(monkeypatch)
    got = flows._rk4_run(CompiledField(x), xs, cfg)
    _assert_same_affine_run(x, cfg, got, _stage_oracle(x, xs, cfg))
    assert got[2] == flows._rk4_run(CompiledField(x), xs, cfg, [_frames(2, 8, 8)])[2] == 1
    assert decisions == [False]


@pytest.mark.parametrize("keep", [True, False])
def test_long_affine_run_past_the_bound_is_tested_on_every_block(monkeypatch, keep):
    # the ham rotation from 32 nodes near (1, 1, 1, 1) for t = 20 at
    # dt = 0.01: each step keeps |x|, but the crude whole-run bound
    # max(1, r)^2000 N0 with r ~ 1 + dt passes NORM_CAP / 2, so a transport
    # is not proven: all 63 blocks take the exact test, with no blow-up.  A
    # tangent flow that keeps its paths steps J too, with the per-step
    # loop's bits; a transport of square frames steps the states alone and
    # pushes the frames by the exact J_N
    x = hamiltonian_field(Frame.darboux(2), standard_h(2))
    xs = _starts([1.0] * 4, 32)
    frames = _frames(32, 4, 4)
    cfg = FlowConfig(20, 0.01)
    decisions, runs = _record_runs(monkeypatch)
    got = flows._rk4_run(CompiledField(x), xs, cfg, None if keep else [frames])
    monkeypatch.undo()
    if keep:
        _assert_same_affine_run(x, cfg, got, _stage_oracle(x, xs, cfg))
    else:
        j = np.broadcast_to(_exact_power(x, cfg, cfg.steps), frames.shape)
        _same_bits(got[0][0], np.einsum("mij,mjl->mil", j, frames))
        assert abs(got[1]) == pytest.approx(_exact_drift(x, cfg, cfg.steps), rel=1e-12)
        assert decisions == [False]
    assert runs == [(32, 4 if keep else 0, 63)] and got[2] is None


def test_contraction_identity_fields_conserve_volume_at_rk4_order():
    # paper-verify's 50 seeded divergence-free fields (15 of them affine:
    # the 2 zero fields, the constant one and 12 more), each flowed along
    # the volume cube of side 0.2 at (0.1, 0.2, ...) for t = 0.2, and the 8
    # symplectic ones also along the (q1, p1) square of side 0.2 there, in
    # the same verify_area_laws call.  The theorem says the volume and the
    # symplectic area stay; RK4's error is C h^4 + O(h^5), so halving dt
    # divides a drift by 16 as h -> 0.  The bound allows a factor 2 for the
    # O(h^5) term at 10 and 20 steps: each drift shrinks by at least
    # 8 = 2^3, unless it sits below the rounding floor steps x eps (float64
    # eps, relative), which covers the one float64 rounding of the reported
    # drift and, far below it, the longdouble steps; so a zero drift passes
    from symplab import cli
    from symplab.fields import lie_derivative, vector_from_two_form

    eps = float(np.finfo(np.float64).eps)
    cfgs = FlowConfig(0.2, 0.02), FlowConfig(0.2, 0.01)
    rng = random.Random(20040812)
    affine = symplectic = 0
    for n in (2, 3):
        dim = 2 * n
        origin = [0.1 * (i + 1) for i in range(dim)]
        side = 0.2 * np.eye(dim)
        cube = ChainPatch.affine(n, origin, side.tolist(), (2,) * dim)
        # oriented so its symplectic area is +0.04, as unit_square's is +1
        square = ChainPatch.affine(1, origin, side[[n, 0]].tolist(), (2, 2))
        for _ in range(25):
            x = vector_from_two_form(cli._random_two_form(rng, n))
            affine += flows._is_affine(x)
            chains = [(cube, n)]
            if lie_derivative(x, omega(x.frame)).is_zero:
                symplectic += 1
                chains.append((square, 1))
            runs = [flows.verify_area_laws(x, chains, cfg) for cfg in cfgs]
            for coarse, fine in zip(*runs):
                assert coarse.hypothesis_ok and fine.hypothesis_ok
                assert not (coarse.blew_up or fine.blew_up)
                assert fine.rel_drift <= max(coarse.rel_drift / 8, cfgs[1].steps * eps)
    assert affine == 15 and symplectic == 8


@pytest.mark.parametrize("position", ["first", "middle", "last"])
@pytest.mark.parametrize("m", [1, 3])
def test_stage_loop_blow_up_inside_block(monkeypatch, position, m):
    # q' = q^2 from q = 1 passes the norm cap near t = 1; the block length
    # puts that step first, in the middle or last in its block.  The states
    # stepped past it in the block overflow and must warn about nothing.
    x = PolyVectorField(Frame.darboux(1), (var(2, 0) ** 2, -var(2, 1)))
    xs = _starts([1.0, 0.5], m)
    cfg = FlowConfig(t_final=2.0, dt=0.01)
    want = oracles.rk4_stage_loop(flows, x, xs, cfg)
    blow = want[5]
    assert blow is not None and blow > 10
    block = {"first": blow - 1, "middle": blow // 2 + 3, "last": blow}[position]
    offset = (blow - 1) % block
    assert position == ("first" if offset == 0 else "last" if offset == block - 1 else "middle")
    monkeypatch.setattr(flows, "DET_BATCH", block * m)
    sizes = _count_det_calls(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = flows._rk4_run(CompiledField(x), xs, cfg)
    _assert_same_run(got, want)
    assert got[0][0].shape[0] == blow + 1
    # one call per block, the last holding only the maps up to the blow-up step
    full, rest = divmod(blow, block)
    assert sizes == [block * m] * full + ([rest * m] if rest else [])
    if m == 1:
        traj = tangent_flow(x, [1.0, 0.5], cfg).trajectory
        assert traj.blow_up_step == blow and len(traj.states) == blow + 1


def _two_patch_chain(l):
    # the region origin + span(axes) as two signed halves, the second with
    # its first two axes swapped
    origin = [Fraction(1, 10), Fraction(-1, 5), Fraction(3, 10), Fraction(0)]
    axes = [[Fraction(1, 2), Fraction(1, 50), Fraction(0), Fraction(-1, 25)],
            [Fraction(1, 100), Fraction(0), Fraction(3, 5), Fraction(1, 50)],
            [Fraction(0), Fraction(2, 5), Fraction(-1, 50), Fraction(0)],
            [Fraction(1, 25), Fraction(0), Fraction(0), Fraction(9, 20)]][: 2 * l]
    half = [a / 2 for a in axes[0]]
    mid = [o + h for o, h in zip(origin, half)]
    orders = (3,) * (2 * l)
    return [(1, ChainPatch.affine(l, origin, [half] + axes[1:], orders)),
            (-1, ChainPatch.affine(l, mid, [axes[1], half] + axes[2:], orders))]


@pytest.mark.parametrize("l", [1, 2])
def test_stacked_chain_run_matches_per_patch_runs(l):
    x, _ = _stage_cases()["quartic"]
    chain = _two_patch_chain(l)
    cfg = FlowConfig(t_final=0.5, dt=0.01)
    report = verify_area_preservation(x, chain, l, cfg)
    # the transport as one RK4 run per patch, each pushing its frames the
    # way the stacked run does: riding V' = DX V for l = 1 < n, as J . dsigma
    # after a J run with its det check for l = n = 2
    compiled = CompiledField(x)
    # (the stacked quadrature adds the patches' signed integrals in patch
    # order from 0, so these sums have its bits)
    initial = final = WORK_DTYPE(0.0)
    max_det = 0.0
    for part in chain:
        rule, points, tangents = flows._chain_quadrature([part], 2, l)
        (pushed,), drift, blow = flows._rk4_run(compiled, points, cfg, [tangents])
        assert blow is None
        max_det = max(max_det, drift)
        initial += flows._signed_integral(rule, tangents)
        final += flows._signed_integral(rule, pushed)
    assert report.hypothesis_ok and not report.blew_up
    assert report.initial == chain_integral(chain, 2).value == float(initial)
    assert report.final == float(final)
    # both drifts are formed in WORK_DTYPE and rounded once
    assert report.abs_drift == float(abs(final - initial))
    assert report.rel_drift == float(abs(final - initial) / abs(initial))
    if l == 2:
        assert report.per_step_max_det_drift == max_det > 0
    else:
        assert report.per_step_max_det_drift is None


@pytest.mark.parametrize("patches", [1, 2])
@pytest.mark.parametrize("l", [1, 2])
def test_transport_builds_each_rule_and_map_once(monkeypatch, patches, l):
    # one transport of a P-patch chain compiles the field and each chain map
    # once (P + 1 builds) and each patch axis's Gauss-Legendre rule once
    builds, rules = [], []
    gauss = flows._gauss_legendre

    class Counted(CompiledField):
        def __init__(self, x):
            builds.append(x)
            super().__init__(x)

    def counted_rule(order):
        rules.append(order)
        return gauss(order)

    monkeypatch.setattr(flows, "CompiledField", Counted)
    monkeypatch.setattr(flows, "_gauss_legendre", counted_rule)
    x, _ = _stage_cases()["quartic"]
    verify_area_preservation(x, _two_patch_chain(l)[:patches], l, FlowConfig(0.05, 0.01))
    assert len(builds) == patches + 1
    assert len(rules) == patches * 2 * l


@pytest.mark.parametrize("stage_loop", [False, True])
def test_nan_determinant_makes_det_drift_nan(monkeypatch, stage_loop):
    # the saddle q' = q, p' = -p keeps the origin fixed while J overflows.
    # Stepped by the stage loop, det J turns NaN (inf times 0) long before
    # t = 12000, and the max drift must not keep the last finite block
    # maximum.  As the affine field it is, its drift is the exact
    # (195/192)^12000 - 1, which scales the zero integral to 0
    x = PolyVectorField(Frame.darboux(1), (var(2, 0), -var(2, 1)))
    if stage_loop:
        monkeypatch.setattr(flows, "_is_affine", lambda field: False)
    chain = ChainPatch.affine(1, [0, 0], [[0, 0], [0, 0]], orders=(1, 1))
    cfg = FlowConfig(12000, 1)
    report = verify_area_preservation(x, chain, 1, cfg)
    assert report.hypothesis_ok and not report.blew_up
    if stage_loop:
        assert math.isnan(report.final)
        assert math.isnan(report.per_step_max_det_drift)
    else:
        assert report.final == 0
        exact = _exact_drift(x, cfg, 12000)
        assert report.per_step_max_det_drift == pytest.approx(exact, rel=1e-12)


def test_transport_blow_up_report():
    # q' = q^2, p' = -2qp is divergence-free, and from q = 1 it passes the
    # norm cap near t = 1: the square [1, 2]^2 blows up inside the run.
    # The report says so, with NaN values and no det drift, and warns about
    # nothing (warnings are errors in this suite)
    x = PolyVectorField(Frame.darboux(1), (var(2, 0) ** 2, -2 * var(2, 0) * var(2, 1)))
    assert divergence(x).is_zero
    square = ChainPatch.affine(1, [1, 1], [[1, 0], [0, 1]], orders=(2, 2))
    report = verify_area_preservation(x, square, 1, FlowConfig(2.0, 0.01))
    assert report.blew_up and report.hypothesis_ok
    assert report.initial == chain_integral(square).value != 0
    assert all(math.isnan(v) for v in (report.final, report.abs_drift, report.rel_drift))
    assert report.per_step_max_det_drift is None


# ---------------------------------------------------------------------------
# divergence
# ---------------------------------------------------------------------------

def test_divergence_values():
    frame = Frame.darboux(1)
    dilation = PolyVectorField(frame, (var(2, 0), Poly.zero(2)))
    assert divergence(dilation) == Poly.constant(2, 1)
    h_any = standard_h(2) + var(4, 0) ** 3 * var(4, 3) + var(4, 1) * var(4, 2) ** 2
    assert divergence(hamiltonian_field(Frame.darboux(2), h_any)).is_zero


def test_divergence_agrees_with_top_degree_classification():
    # zero divergence iff d(i_X omega^n) = 0, i.e. the top-degree
    # classification; exercised on fields of every kind
    from symplab.fields import classify

    frame = Frame.darboux(2)
    _, osc = build_linear_system(None, masses=(1, 2, 1))
    samples = [
        osc,
        hamiltonian_field(frame, standard_h(2)),
        PolyVectorField(frame, (var(4, 0), Poly.zero(4), Poly.zero(4), Poly.zero(4))),
        PolyVectorField(frame, (var(4, 3) ** 2, Poly.zero(4), Poly.zero(4), var(4, 0) ** 2)),
    ]
    for x in samples:
        assert divergence(x).is_zero == classify(x, 2).symplectic_like


@functools.lru_cache(maxsize=None)
def _hypothesis_fields():
    """The vector fields of the test suite and of the bundled paper-verify
    suite, by name."""
    from symplab import cli
    from symplab.fields import field_from_data, vector_from_two_form

    frame1, frame2 = Frame.darboux(1), Frame.darboux(2)
    q, p = var(2, 0), var(2, 1)
    fields = {f"affine-{k}": x for k, (x, _) in _affine_cases().items()}
    fields.update({f"stage-{k}": x for k, (x, _) in _stage_cases().items()})
    fields.update({
        f"evaluator-{k}": x for k, x in _evaluator_cases().items()
        if isinstance(x, PolyVectorField)
    })
    fields.update({
        "duffing": PolyVectorField(frame1, (p, -q - q ** 3)),
        "q-squared": PolyVectorField(frame1, (q ** 2, p)),
        "saddle-blow-up": PolyVectorField(frame1, (q ** 2, -p)),
        "saddle": PolyVectorField(frame1, (q, -p)),
        "expanding-saddle": PolyVectorField(frame1, (q, p)),
        "shear": PolyVectorField(frame1, (q + p, q + p)),
        "dilation-n1": PolyVectorField(frame1, (q, Poly.zero(2))),
        "dilation-n2": PolyVectorField(frame2, (var(4, 0),) + (Poly.zero(4),) * 3),
        "squares-n2": PolyVectorField(
            frame2, (var(4, 3) ** 2, Poly.zero(4), Poly.zero(4), var(4, 0) ** 2)),
        "d/dq1": PolyVectorField(frame2, (Poly.constant(4, 1),) + (Poly.zero(4),) * 3),
        "expanding": PolyVectorField(frame1, (q + 1, Fraction(1, 2) * p)),
        "ham-cubic": hamiltonian_field(frame2, standard_h(2) + var(4, 0) ** 2 * var(4, 1)),
        "ham-quartic-n1": hamiltonian_field(frame1, standard_h(1) + q ** 4),
        "ham-n6": hamiltonian_field(Frame.darboux(6), standard_h(6)),
        "linear-2112": build_linear_system([[2, 1], [1, 2]])[1],
        "linear-nonsymmetric": build_linear_system([[1, 2], [5, Fraction(-1, 3)]])[1],
        "masses-225": build_linear_system(None, masses=(2, 2, 5))[1],
        "cli-osc-n1": field_from_data({"n": 1, "components": [[["1", 0, 1]], [["-1", 1, 0]]]}),
        "cli-oscillator": field_from_data({"n": 2, "components": [
            [["1", 0, 0, 1, 0]], [["1", 0, 0, 0, 1]],
            [["1", 1, 0, 0, 0], ["-1", 0, 1, 0, 0]],
            [["-1/2", 1, 0, 0, 0], ["1/2", 0, 1, 0, 0]],
        ]}),
    })
    for n in (1, 2, 3):
        fields[f"ham-n{n}"] = hamiltonian_field(Frame.darboux(n), standard_h(n))
    # the bundled suite: coupled oscillators, liouville-drift and area-laws,
    # and the 50 seeded contraction-identity fields
    fields["suite-coupled-oscillators"] = build_linear_system(None, masses=(1, 2, 1))[1]
    rng = random.Random(20040812)
    for n in (2, 3):
        for i in range(25):
            fields[f"suite-contraction-n{n}-{i}"] = vector_from_two_form(
                cli._random_two_form(rng, n))
    return fields


@pytest.mark.parametrize("name", sorted(_hypothesis_fields()))
def test_lie_derivative_hypothesis_equals_classify_and_divergence(name):
    # the one exact test L_X omega^l = 0 decides what classify(x, 1) decided
    # for l < n and the divergence for l = n, on every field of the suite,
    # and a transport report (zero steps) carries it with its note
    from symplab.exterior import omega_power
    from symplab.fields import classify, lie_derivative

    x = _hypothesis_fields()[name]
    n = x.frame.n
    for l in range(1, n + 1):
        new = lie_derivative(x, omega_power(x.frame, l)).is_zero
        old = classify(x, 1).symplectic_like if l < n else divergence(x).is_zero
        assert new == old, (name, l)
        assert classify(x, l).symplectic_like == new, (name, l)
        axes = np.eye(x.frame.dim)[: 2 * l].tolist()
        cube = ChainPatch.affine(l, [0] * x.frame.dim, axes, orders=(1,) * (2 * l))
        report = verify_area_preservation(x, cube, l, FlowConfig(0.0, 0.1))
        assert report.hypothesis_ok == old
        assert report.hypothesis_note == {
            (True, True): "symplectic field: omega^l conserved for every l",
            (False, True): "theorem not applicable: X is not symplectic and l < n",
            (True, False): "divergence-free field: phase volume conserved",
            (False, False): "theorem not applicable: X has nonzero divergence",
        }[old, l < n]


# ---------------------------------------------------------------------------
# chain integrals
# ---------------------------------------------------------------------------

def test_unit_square_signed_area():
    assert abs(chain_integral(unit_square()).value - 1.0) < 1e-12
    # reversing one axis flips the orientation
    flipped = ChainPatch.affine(
        1, [0, 0, 0, 0], [[1, 0, 0, 0], [0, 0, 1, 0]], orders=(4, 4)
    )
    assert abs(chain_integral(flipped).value + 1.0) < 1e-12


def test_lagrangian_square_vanishes():
    lagrangian = ChainPatch.affine(
        1, [0, 0, 0, 0], [[1, 0, 0, 0], [0, 1, 0, 0]], orders=(4, 4)
    )
    result = chain_integral(lagrangian)
    assert result.value == 0.0
    assert not result.degenerate


def test_unit_cube_volume():
    # blade expansion oracle: omega^2 = 2 dp1^dq1^dp2^dq2, whose pullback
    # through the axis ordering (q1, p1, q2, p2) is the constant 2, so
    # (1/2!) times the integral over the unit cube is exactly 1
    assert abs(chain_integral(unit_cube()).value - 1.0) < 1e-12


def test_degenerate_patch_flagged():
    constant = ChainPatch.affine(
        1, [1, 1, 1, 1], [[0, 0, 0, 0], [0, 0, 0, 0]], orders=(2, 2)
    )
    result = chain_integral(constant)
    assert result.value == 0.0
    assert result.degenerate


def test_reparametrization_invariance():
    # orientation-preserving cubic reparametrization s(u) = 3u^2 - 2u^3
    def smooth(nvars, i):
        u = var(nvars, i)
        return 3 * u ** 2 - 2 * u ** 3

    maps = (
        smooth(2, 1),  # q1 = s(v)
        Poly.zero(2),
        smooth(2, 0),  # p1 = s(u)
        Poly.zero(2),
    )
    patch = ChainPatch(maps, (8, 8))
    assert abs(chain_integral(patch).value - chain_integral(unit_square()).value) < 1e-8


def test_quadrature_orders_against_pullback_degree():
    # along u the pullback 12 u^11 needs 2m - 1 >= 11 Gauss-Legendre points
    maps = (var(2, 0) ** 12, var(2, 1))
    assert ChainPatch(maps, (6, 1)).pullback_degree_bound() == [11, 0]
    assert abs(chain_integral(ChainPatch(maps, (6, 1))).value + 1.0) < 1e-12
    with pytest.raises(ValueError, match="at least 6"):
        ChainPatch(maps, (5, 1))
    # the bound adds the 2l largest per-row degrees: rows u^2 and u^3 give
    # 1 + 2 along u, though this pullback is only 2u
    maps = (var(2, 0) ** 2, var(2, 0) ** 3, var(2, 1), Poly.zero(2))
    assert ChainPatch(maps, (2, 1)).pullback_degree_bound() == [3, 0]
    with pytest.raises(ValueError):
        ChainPatch(maps, (1, 1))
    assert unit_cube().pullback_degree_bound() == [0, 0, 0, 0]


def test_gauss_legendre_rules_exact_in_longdouble():
    # an order-n rule integrates u^d over [0, 1] for d < 2n: weights and
    # moments within a few WORK_DTYPE eps (leggauss's double nodes miss by
    # hundreds of them)
    for order in range(1, 21):
        t, w = flows._gauss_legendre(order)
        assert t.dtype == w.dtype == WORK_DTYPE
        assert abs(np.sum(w) - 1) <= 4 * EPS
        for d in range(2 * order):
            assert abs(np.sum(w * t ** d) - WORK_DTYPE(1) / (d + 1)) <= 4 * EPS
    cube = ChainPatch.affine(2, [0, 0, 0, 0], np.eye(4).tolist(), orders=(3, 5, 7, 4))
    nodes, weights = cube.nodes_and_weights()
    assert nodes.shape == (3 * 5 * 7 * 4, 4) and nodes.dtype == weights.dtype == WORK_DTYPE
    assert abs(np.sum(weights) - 1) <= 8 * EPS


def test_exact_degree_rule_gives_exact_value():
    # the degree-11 pullback of (u^12, v) is integrated exactly by 6 points
    maps = (var(2, 0) ** 12, var(2, 1))
    assert chain_integral(ChainPatch(maps, (6, 1))).value == -1.0


def test_chain_of_signed_patches():
    total = chain_integral([(1, unit_square()), (-1, unit_square())])
    assert total.value == 0.0


def test_chain_of_mixed_degree_is_refused():
    # a square (l = 1) and a 4-cube (l = 2) integrate forms of different
    # degree; their sum once read 2.0.  l comes from the first patch
    for chain in ([(1, unit_square()), (1, unit_cube())], [(1, unit_cube()), (1, unit_square())]):
        with pytest.raises(InputError, match="^patch half-degree differs from l$"):
            chain_integral(chain)
    assert chain_integral([(1, unit_cube()), (1, unit_cube())]).value == 2.0


def test_chain_of_mixed_ambient_dimension_is_refused():
    # a unit square in R^2 and one in R^4 once summed to 2.0; n comes from the
    # first patch, or from the field in a transport
    plane = ChainPatch.affine(1, [0, 0], [[0, 1], [1, 0]], orders=(4, 4))
    x = hamiltonian_field(Frame.darboux(2), standard_h(2))
    for chain in ([(1, plane), (1, unit_square())], [(1, unit_square()), (1, plane)]):
        with pytest.raises(InputError, match=r"^patch ambient dimension != 2n$"):
            chain_integral(chain)
        with pytest.raises(InputError, match=r"^patch ambient dimension != 2n$"):
            verify_area_preservation(x, chain, 1, FlowConfig(1.0, 1e-2))
    assert chain_integral([(1, plane), (1, plane)]).value == 2.0


@pytest.mark.parametrize("sign", [0.5, 1.9, "1", math.nan, 1.0, True, Fraction(1)])
def test_chain_coefficient_must_be_an_integer(sign):
    # int(sign) once read 0.5 as 0 and 1.9 as 1, accepted "1" and raised a
    # plain ValueError on a NaN; as in files, a float or a bool is refused
    # even when integral
    x = hamiltonian_field(Frame.darboux(2), standard_h(2))
    chain = [(1, unit_square()), (sign, unit_square())]
    message = f"^{re.escape(f'chain coefficient {sign!r} is not an integer')}$"
    with pytest.raises(InputError, match=message):
        chain_integral(chain)
    with pytest.raises(InputError, match=message):
        verify_area_preservation(x, chain, 1, FlowConfig(1.0, 1e-2))


def test_chain_coefficient_of_any_integer_type():
    assert chain_integral([(np.int64(3), unit_square()), (-1, unit_square())]).value == 2.0


def test_empty_chain_is_refused():
    # once a degenerate 0.0 from chain_integral and a numpy concatenate
    # error from the transport
    x = hamiltonian_field(Frame.darboux(2), standard_h(2))
    with pytest.raises(InputError, match="^empty chain$"):
        chain_integral([])
    with pytest.raises(InputError, match="^empty chain$"):
        verify_area_preservation(x, [], 1, FlowConfig(1.0, 1e-2))


def test_compiled_field_names_a_refused_coefficient():
    # 10^4931 fits a longdouble, but 12 x 10^4931, the coefficient of the
    # partial derivative of the first component in x1, does not
    big = Fraction(10) ** 4931
    q, p = var(2, 0), var(2, 1)
    cases = [
        (PolyVectorField(Frame.darboux(1), (big * q ** 12, -q)),
         "coefficient ~1e4932 of the partial derivative of component 1 in x1 rounds to inf"),
        ((q, big * p ** 12, q, p),
         "coefficient ~1e4932 of the partial derivative of component 2 in x2 rounds to inf"),
        ((q, Fraction(1, 10 ** 5000) * p), "coefficient ~1e-5000 rounds to 0"),
        ((q, -(Fraction(10) ** 5000) * p), "coefficient ~-1e5000 rounds to inf"),
    ]
    for polys, message in cases:
        with pytest.raises(InputError) as err:
            CompiledField(polys)
        assert str(err.value) == f"{message} in {WORK_DTYPE.__name__}"


def test_chain_degree_is_read_from_the_maps():
    # l is half the one parameter count the maps share; no second copy of it
    # is stated, so none can disagree
    assert (unit_square().l, unit_cube().l) == (1, 2)
    message = "^map components must share one even, positive parameter count$"
    for maps in ((var(2, 0), var(4, 1)), (var(3, 0), var(3, 1)), (Poly.zero(0),) * 2):
        with pytest.raises(InputError, match=message):
            ChainPatch(maps, (2, 2))


def test_chain_validation():
    with pytest.raises(InputError, match="^quadrature orders must be >= 1$"):
        ChainPatch((Poly.zero(2),) * 4, (0, 2))
    with pytest.raises(ValueError, match="Gauss-Legendre"):
        ChainPatch((var(2, 0) ** 12, var(2, 1)), (4, 4))
    with pytest.raises(InputError, match=r"patch ambient dimension != 2n"):
        chain_integral(unit_cube(), n=3)


# ---------------------------------------------------------------------------
# transported conservation laws
# ---------------------------------------------------------------------------

def test_hamiltonian_transport_preserves_area():
    frame = Frame.darboux(2)
    x = hamiltonian_field(frame, standard_h(2))
    report = verify_area_preservation(x, unit_square(), 1, FlowConfig(3.0, 1e-3))
    assert report.hypothesis_ok
    assert report.abs_drift < 1e-6
    assert report.per_step_max_det_drift is None


def test_nonsymplectic_flagged_and_drifts():
    _, x = build_linear_system(None, masses=(1, 2, 1))
    report = verify_area_preservation(x, unit_square(), 1, FlowConfig(3.0, 1e-3))
    assert not report.hypothesis_ok
    assert "not applicable" in report.hypothesis_note
    assert report.rel_drift > 1e-3  # omega genuinely not preserved
    volume = verify_area_preservation(x, unit_cube(), 2, FlowConfig(3.0, 1e-3))
    assert volume.hypothesis_ok
    assert volume.rel_drift < 1e-6
    assert volume.per_step_max_det_drift is not None
    assert volume.per_step_max_det_drift < 1e-6


def test_zero_field_zero_drift():
    frame = Frame.darboux(2)
    report = verify_area_preservation(
        PolyVectorField.zero(frame), unit_square(), 1, FlowConfig(1.0, 1e-2)
    )
    assert report.abs_drift == 0.0
    assert report.hypothesis_ok


def test_report_fields_consistent():
    frame = Frame.darboux(2)
    x = hamiltonian_field(frame, standard_h(2))
    cfg = FlowConfig(1.0, 1e-2)
    report = verify_area_preservation(x, unit_square(), 1, cfg)
    # the integrals and both drifts in WORK_DTYPE, each rounded once
    rule, points, frames = flows._chain_quadrature(unit_square(), 2, 1)
    (pushed,) = flows._rk4_run(CompiledField(x), points, cfg, [frames])[0]
    initial, final = flows._signed_integral(rule, frames), flows._signed_integral(rule, pushed)
    assert (report.initial, report.final) == (float(initial), float(final))
    assert report.abs_drift == float(abs(final - initial))
    assert report.rel_drift == float(abs(final - initial) / abs(initial))
    assert report.l == 1 and not hasattr(report, "k")
    assert report.t_final == 1.0 and report.dt == 1e-2


def test_transport_with_infinite_integrals_warns_about_nothing():
    # the square c (u - 1/2) with c = 10^3000 and one node per axis: the
    # node maps to 0 exactly, so the run stays below the cap, but its
    # pullback c^2 overflows longdouble, before and after.  inf - inf makes
    # the drifts NaN, with no warning
    x = hamiltonian_field(Frame.darboux(1), standard_h(1))
    c = Fraction(10) ** 3000
    patch = ChainPatch.affine(1, [-c / 2, -c / 2], [[c, 0], [0, c]], (1, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify_area_preservation(x, patch, 1, FlowConfig(0.1, 0.01))
    assert not report.blew_up and math.isinf(report.initial) and math.isinf(report.final)
    assert math.isnan(report.abs_drift) and math.isnan(report.rel_drift)


def test_transport_of_signed_patch_sum():
    frame = Frame.darboux(2)
    x = hamiltonian_field(frame, standard_h(2))
    chain = [(1, unit_square()), (-1, unit_square())]
    report = verify_area_preservation(x, chain, 1, FlowConfig(1.0, 1e-2))
    assert report.initial == 0.0
    assert report.abs_drift < 1e-9
    assert report.rel_drift is None


def test_transport_validates_patch():
    frame = Frame.darboux(2)
    x = hamiltonian_field(frame, standard_h(2))
    with pytest.raises(InputError, match="patch half-degree differs from l"):
        verify_area_preservation(x, unit_square(), 2, FlowConfig(1.0, 1e-2))
    for l in (0, 3):
        with pytest.raises(ValueError, match="^need 1 <= l <= n$"):
            verify_area_preservation(x, unit_square(), l, FlowConfig(1.0, 1e-2))


def test_nonlinear_symplectic_transport():
    # quartic Hamiltonian: still symplectic, area preserved within budget
    frame = Frame.darboux(2)
    h = standard_h(2) + Fraction(1, 4) * var(4, 0) ** 4
    x = hamiltonian_field(frame, h)
    report = verify_area_preservation(
        x, unit_square(), 1, FlowConfig(t_final=2.0, dt=1e-3)
    )
    assert report.hypothesis_ok
    assert report.abs_drift < 1e-6
