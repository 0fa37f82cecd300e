import functools
import math
import random
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
    with pytest.raises(ValueError):
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
    with pytest.raises(ValueError, match="finite"):
        FlowConfig(t_final=t_final, dt=dt)


@pytest.mark.parametrize("keep", [False, True])
def test_flow_work_budget_boundary(monkeypatch, keep):
    # q' = q^2, p' = p has 4 term rows (2 values, 2 Jacobian entries), so a
    # step of 3 nodes computes STEP_VALUES + 3 x (4 + 2^2) values and keeps
    # 3 x (2 + 2^2)
    x = PolyVectorField(Frame.darboux(1), (var(2, 0) ** 2, var(2, 1)))
    compiled = CompiledField(x)
    assert len(compiled.slots) == 4
    xs = np.full((3, 2), 0.1, dtype=WORK_DTYPE)
    cfg = FlowConfig(t_final=1.0, dt=0.1)
    step = flows.STEP_VALUES
    work, kept = 10 * (step + 3 * 8), 11 * 3 * 6
    assert kept < work
    monkeypatch.setattr(flows, "MAX_FLOW_WORK", work)
    flows._rk4_run(compiled, xs, cfg, keep_paths=keep)
    monkeypatch.setattr(flows, "MAX_FLOW_WORK", work - 1)
    want = f"10 steps x ({step} + 3 nodes x 8 values per node) = {work} values of RK4 " \
           f"work, and {kept if keep else 0} values of kept paths; the budget is {work - 1} of each"
    with pytest.raises(InputError) as err:
        flows._rk4_run(compiled, xs, cfg, keep_paths=keep)
    assert str(err.value) == want
    # kept paths alone can pass the budget: the zero field has no term rows,
    # and STEP_VALUES nodes keep 6 values each per sample but compute 4
    zero = CompiledField(PolyVectorField.zero(Frame.darboux(1)))
    many = np.full((step, 2), 0.1, dtype=WORK_DTYPE)
    zero_work, kept = 10 * (step + step * 4), 11 * step * 6
    assert zero_work < kept
    monkeypatch.setattr(flows, "MAX_FLOW_WORK", kept)
    flows._rk4_run(zero, many, cfg, keep_paths=True)
    monkeypatch.setattr(flows, "MAX_FLOW_WORK", kept - 1)
    with pytest.raises(InputError, match=f"= {zero_work} values of RK4 work, and {kept} values "):
        flows._rk4_run(zero, many, cfg, keep_paths=True)


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


@pytest.mark.parametrize("case", ["criterion-7", "quartic", "blow-up"])
@pytest.mark.parametrize("det_batch", [16, 1024])
def test_tangent_flow_det_drift_is_the_whole_path_max(monkeypatch, case, det_batch):
    # the drift the run folds block by block is, bit for bit, the max of
    # |det J - 1| over every kept sample in one batch_det call
    _, coupled = build_linear_system(None, masses=(1, 2, 1))
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
        ref = flows._rk4_run(compiled, xs, cfg, keep_paths=True)
    got = flows._rk4_run(compiled, xs, cfg, keep_paths=True)
    return ref, got


@pytest.mark.parametrize("case", ["criterion-7", "ham", "osc", "inhomogeneous"])
def test_affine_propagator_matches_stage_loop(case):
    # states and J agree within steps * eps times their largest entry (one
    # rounding per step); the det drift within 4 * steps * eps * max cond(J),
    # since a relative change delta in J moves det J by up to cond(J) delta
    x, x0s = _affine_cases()[case]
    assert flows._is_affine(x)
    cfg = FlowConfig(t_final=10.0, dt=1e-2)
    ref, got = _both_paths(x, x0s, cfg)
    steps = cfg.steps
    states_ref, states_got = np.array(ref[2]), np.array(got[2])
    jac_ref, jac_got = np.array(ref[3]), np.array(got[3])
    assert states_ref.shape == states_got.shape == (steps + 1,) + np.shape(x0s)
    assert jac_got.shape[1] == 1 and jac_ref.shape[1] == len(x0s)
    tol = steps * EPS
    assert np.max(np.abs(states_got - states_ref)) <= tol * np.max(np.abs(states_ref))
    assert np.max(np.abs(jac_got - jac_ref)) <= tol * np.max(np.abs(jac_ref))
    assert np.array_equal(got[0], states_got[-1]) and np.array_equal(got[1][0], jac_got[-1, 0])
    cond = float(np.max(np.linalg.cond(np.asarray(jac_ref[:, 0], dtype=float))))
    assert abs(got[4] - ref[4]) <= 4 * tol * cond
    assert ref[4] > 0 and got[4] > 0
    assert ref[5] is None and got[5] is None


def test_affine_propagator_blow_up_matches_stage_loop():
    frame = Frame.darboux(1)
    expanding = PolyVectorField(frame, (var(2, 0) + 1, Fraction(1, 2) * var(2, 1)))
    ref, got = _both_paths(expanding, [[1.0, 1.0], [0.5, 0.0]], FlowConfig(25.0, 1e-2))
    assert ref[5] is not None and got[5] == ref[5]
    states_ref, states_got = np.array(ref[2]), np.array(got[2])
    assert states_got.shape == states_ref.shape == (ref[5] + 1, 2, 2)
    scale = np.max(np.abs(states_ref), axis=(1, 2))
    assert np.all(np.max(np.abs(states_got - states_ref), axis=(1, 2)) <= ref[5] * EPS * scale)
    assert abs(got[4] - ref[4]) <= ref[5] * EPS * abs(ref[4])


def test_affine_det_check_batches_samples(monkeypatch):
    # the per-step det check, batched across a partial last batch, gives the
    # same max drift as one batch_det call per step
    _, x = build_linear_system(None, masses=(1, 2, 1))
    cfg = FlowConfig(t_final=2.5, dt=1e-2)
    compiled = CompiledField(x)
    xs = np.array([[1.0, 0.5, 0.25, -0.3]], dtype=WORK_DTYPE)
    _, _, _, path, whole, _ = flows._rk4_run(compiled, xs, cfg, keep_paths=True)
    monkeypatch.setattr(flows, "DET_BATCH", 16)
    _, _, _, _, batched, _ = flows._rk4_run(compiled, xs, cfg)
    per_step = max(float(abs(batch_det(j)[0] - 1)) for j in path)
    assert whole == batched == per_step


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

    def field(p):
        return [comp.eval(p) for comp in x.components]

    def shift(p, k, w):
        return [pi + w * ki for pi, ki in zip(p, k)]

    p0 = [Fraction(i + 1, 3) * (-1) ** i for i in range(x.frame.dim)]
    k1 = field(p0)
    k2 = field(shift(p0, k1, h / 2))
    k3 = field(shift(p0, k2, h / 2))
    k4 = field(shift(p0, k3, h))
    step = [
        p + h / 6 * (a1 + 2 * a2 + 2 * a3 + a4)
        for p, a1, a2, a3, a4 in zip(p0, k1, k2, k3, k4)
    ]
    assert step == [sum(rv * pv for rv, pv in zip(row, p0)) + cv for row, cv in zip(r, c)]


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
    for g, w in zip(got[:5], want[:5]):
        _same_bits(g, w)
    assert got[5] == want[5]


@pytest.mark.parametrize("case", ["quartic", "dissipative"])
@pytest.mark.parametrize("m", [1, 16])
@pytest.mark.parametrize("det_batch", [16, 40, 1024])
def test_stage_loop_matches_per_step_loop(monkeypatch, case, m, det_batch):
    # per-block det check and blow-up test, stacked paths: the same bits as
    # one einsum step, one batch_det and one norm test at a time; 50 steps
    # leave a partial last block for every DET_BATCH // m but 16 // 16
    x, x0 = _stage_cases()[case]
    assert not flows._is_affine(x)
    xs = _starts(x0, m)
    cfg = FlowConfig(t_final=0.5, dt=0.01)
    monkeypatch.setattr(flows, "DET_BATCH", det_batch)
    sizes = []

    def counted(mats):
        sizes.append(len(mats))
        return batch_det(mats)

    monkeypatch.setattr(flows, "batch_det", counted)
    got = flows._rk4_run(CompiledField(x), xs, cfg, keep_paths=True)
    # one call per block of DET_BATCH // m steps, never more than DET_BATCH matrices
    block = min(det_batch // m, cfg.steps)
    full, rest = divmod(cfg.steps, block)
    assert sizes == [block * m] * full + ([rest * m] if rest else [])
    monkeypatch.setattr(flows, "batch_det", batch_det)
    want = oracles.rk4_stage_loop(flows, x, xs, cfg)
    _assert_same_run(got, want)
    assert want[4] > 0 and want[5] is None
    # the det check alone, without kept paths, gives the same max drift
    alone = flows._rk4_run(CompiledField(x), xs, cfg)
    assert alone[4] == want[4]


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
    # states, pushed tangents, kept paths and blow-up step are the bits of
    # the per-step loop started from the same tangents
    x, x0 = _stage_cases()[case]
    dim = len(x0)
    xs, frames = _starts(x0, m), _frames(m, dim, dim // 2)
    cfg = FlowConfig(t_final=0.5, dt=0.01)
    monkeypatch.setattr(flows, "DET_BATCH", det_batch)
    monkeypatch.setattr(flows, "batch_det", _no_det)
    got = flows._rk4_run(CompiledField(x), xs, cfg, keep_paths=True, tangents=frames)
    want = oracles.rk4_stage_loop(flows, x, xs, cfg, tangents=frames)
    _assert_same_run(got, want)
    assert got[3].shape == (cfg.steps + 1, m, dim, dim // 2) and want[5] is None
    alone = flows._rk4_run(CompiledField(x), xs, cfg, tangents=frames)
    _assert_same_run(alone[:2] + got[2:4] + alone[4:], want)


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
        got = flows._rk4_run(CompiledField(x), xs, cfg, keep_paths=True, tangents=frames)
    _assert_same_run(got, want)
    assert got[2].shape[0] == blow + 1


def test_pushed_frames_match_full_tangent_map_within_rounding():
    # an l < n stage transport steps its 2l frame columns, which rounds
    # otherwise than stepping J and forming J . dsigma; the states are the
    # same bits, and the pushed frames differ by at most one rounding of
    # each of the 4 stage products per step, relative to the largest entry
    x, _ = _stage_cases()["quartic"]
    _, points, frames = flows._chain_quadrature(_two_patch_chain(1), 2, 1)
    compiled = CompiledField(x)
    cfg = FlowConfig(t_final=2.0, dt=0.005)
    xs, pushed, _, _, _, blow = flows._rk4_run(compiled, points, cfg, tangents=frames)
    full_xs, js, _, _, _, _ = flows._rk4_run(compiled, points, cfg)
    want = np.einsum("mij,mjl->mil", js, frames)
    assert blow is None
    _same_bits(xs, full_xs)
    gap = np.max(np.abs(pushed - want))
    assert 0 < gap <= 4 * cfg.steps * EPS * np.max(np.abs(want))
    # the affine path, whose one J serves every node, forms J . dsigma itself
    ham, _ = _affine_cases()["ham"]
    affine = CompiledField(ham)
    js = flows._rk4_run(affine, points, cfg)[1]
    _same_bits(flows._rk4_run(affine, points, cfg, tangents=frames)[1],
               np.einsum("mij,mjl->mil", js, frames))


def _affine_oracle_cases():
    cases = {name: (x, x0s[0], FlowConfig(2.5, 0.01))
             for name, (x, x0s) in _affine_cases().items() if name != "osc"}
    frame = Frame.darboux(1)
    expanding = PolyVectorField(frame, (var(2, 0) + 1, Fraction(1, 2) * var(2, 1)))
    cases["expanding"] = (expanding, [1.0, 1.0], FlowConfig(25.0, 1e-2))
    return cases


@pytest.mark.parametrize("case", ["criterion-7", "ham", "inhomogeneous", "expanding"])
@pytest.mark.parametrize("m", [1, 3, 16, 17])
@pytest.mark.parametrize("det_batch", [16, 40, 1024])
def test_affine_step_matches_per_step_loop(monkeypatch, case, m, det_batch):
    # one joint product per step on [J~ | x~^T], per-block det check and
    # blow-up test: the same bits as x R^T + c and R J one step at a time.
    # At m = 17 > DET_BATCH = 16 a block is one step, so the block buffer
    # holds one Z and each step's np.dot writes into the Z it reads
    x, x0, cfg = _affine_oracle_cases()[case]
    assert flows._is_affine(x)
    xs = _starts(x0, m)
    monkeypatch.setattr(flows, "DET_BATCH", det_batch)
    sizes = []

    def counted(mats):
        sizes.append(len(mats))
        return batch_det(mats)

    monkeypatch.setattr(flows, "batch_det", counted)
    got = flows._rk4_run(CompiledField(x), xs, cfg, keep_paths=True)
    monkeypatch.setattr(flows, "batch_det", batch_det)
    want = oracles.rk4_affine_step_loop(flows, x, xs, cfg)
    _assert_same_run(got, want)
    assert want[4] > 0
    assert (want[5] is not None) == (case == "expanding")
    # J is shared by the nodes: one matrix per step, one call per block,
    # the last one cut at the blow-up step
    block = max(1, min(det_batch // m, cfg.steps))
    steps = want[5] or cfg.steps
    full, rest = divmod(steps, block)
    assert sizes == [block] * full + ([rest] if rest else [])
    # the det check alone, without kept paths, gives the same run
    alone = flows._rk4_run(CompiledField(x), xs, cfg)
    _assert_same_run(alone[:2] + got[2:4] + alone[4:], want)


def test_affine_step_saddle_overflow_matches_per_step_loop():
    # q' = q, p' = -p at dt = 1: R = diag(65/24, 3/8), so J overflows to inf
    # at step 11399 (NaN from 11400 on) and underflows to 0 at step 11623,
    # while the states stay exactly 0; det J turns NaN, and no false blow-up
    # may be flagged
    x = PolyVectorField(Frame.darboux(1), (var(2, 0), -var(2, 1)))
    xs = np.zeros((1, 2), dtype=WORK_DTYPE)
    cfg = FlowConfig(12000, 1)
    got = flows._rk4_run(CompiledField(x), xs, cfg, keep_paths=True)
    want = oracles.rk4_affine_step_loop(flows, x, xs, cfg)
    _assert_same_run(got, want)
    assert math.isnan(got[4]) and got[5] is None
    assert np.isinf(got[3]).any() and np.isnan(got[3][-1]).any() and not np.any(got[2])


def test_affine_step_full_overflow_matches_per_step_loop():
    # q' = q + p, p' = q + p at dt = 1: every entry of R is positive, so J
    # overflows to inf at step 5837 and stays inf; no product term is
    # 0 * inf, and no entry may turn NaN, while the states stay exactly 0
    x = PolyVectorField(Frame.darboux(1), (var(2, 0) + var(2, 1), var(2, 0) + var(2, 1)))
    xs = np.zeros((1, 2), dtype=WORK_DTYPE)
    cfg = FlowConfig(12000, 1)
    got = flows._rk4_run(CompiledField(x), xs, cfg, keep_paths=True)
    want = oracles.rk4_affine_step_loop(flows, x, xs, cfg)
    _assert_same_run(got, want)
    assert got[5] is None and not np.any(got[2])
    assert np.isinf(got[3][-1]).all() and not np.isnan(got[3]).any()


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
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = flows._rk4_run(CompiledField(x), xs, cfg, keep_paths=True)
    _assert_same_run(got, want)
    assert got[2].shape[0] == blow + 1
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
    final, max_det = WORK_DTYPE(0.0), 0.0
    for part in chain:
        rule, points, tangents = flows._chain_quadrature([part], 2, l)
        _, pushed, _, _, drift, blow = flows._rk4_run(compiled, points, cfg, tangents=tangents)
        assert blow is None
        max_det = max(max_det, drift)
        final += flows._signed_integral(rule, pushed)
    assert report.hypothesis_ok and not report.blew_up
    assert report.initial == chain_integral(chain, 2).value
    assert report.final == float(final)
    assert report.abs_drift == abs(float(final) - report.initial)
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
    # the saddle q' = q, p' = -p keeps the origin fixed while J overflows:
    # det J turns NaN (inf times 0) long before t = 12000, and the max drift
    # must not keep the last finite block maximum
    x = PolyVectorField(Frame.darboux(1), (var(2, 0), -var(2, 1)))
    if stage_loop:
        monkeypatch.setattr(flows, "_is_affine", lambda field: False)
    chain = ChainPatch.affine(1, [0, 0], [[0, 0], [0, 0]], orders=(1, 1))
    report = verify_area_preservation(x, chain, 1, FlowConfig(12000, 1))
    assert report.hypothesis_ok and not report.blew_up
    assert math.isnan(report.final)
    assert math.isnan(report.per_step_max_det_drift)


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
    patch = ChainPatch(1, maps, (8, 8))
    assert abs(chain_integral(patch).value - chain_integral(unit_square()).value) < 1e-8


def test_quadrature_orders_against_pullback_degree():
    # along u the pullback 12 u^11 needs 2m - 1 >= 11 Gauss-Legendre points
    maps = (var(2, 0) ** 12, var(2, 1))
    assert ChainPatch(1, maps, (6, 1)).pullback_degree_bound() == [11, 0]
    assert abs(chain_integral(ChainPatch(1, maps, (6, 1))).value + 1.0) < 1e-12
    with pytest.raises(ValueError, match="at least 6"):
        ChainPatch(1, maps, (5, 1))
    # the bound adds the 2l largest per-row degrees: rows u^2 and u^3 give
    # 1 + 2 along u, though this pullback is only 2u
    maps = (var(2, 0) ** 2, var(2, 0) ** 3, var(2, 1), Poly.zero(2))
    assert ChainPatch(1, maps, (2, 1)).pullback_degree_bound() == [3, 0]
    with pytest.raises(ValueError):
        ChainPatch(1, maps, (1, 1))
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
    assert chain_integral(ChainPatch(1, maps, (6, 1))).value == -1.0


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


def test_chain_validation():
    with pytest.raises(ValueError):
        ChainPatch(1, (Poly.zero(2),) * 4, (0, 2))
    with pytest.raises(ValueError, match="Gauss-Legendre"):
        ChainPatch(1, (var(2, 0) ** 12, var(2, 1)), (4, 4))
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
    report = verify_area_preservation(x, unit_square(), 1, FlowConfig(1.0, 1e-2))
    assert report.abs_drift == abs(report.final - report.initial)
    assert report.rel_drift == report.abs_drift / abs(report.initial)
    assert report.l == 1 and not hasattr(report, "k")
    assert report.t_final == 1.0 and report.dt == 1e-2


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
        with pytest.raises(ValueError, match="1 <= l <= n"):
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
