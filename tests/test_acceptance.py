"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  Tolerances and time budgets are pinned here, not calibrated
elsewhere.
"""

import math
import random
import time
from fractions import Fraction

from symplab.cohomology import (
    betti,
    build_complex,
    bundled_algebra,
    differential,
    el_dim,
    harmonic_dim,
)
from symplab.exterior import (
    Form,
    Frame,
    commutator_check,
    contraction_rank,
    interior,
    iota_rank,
    omega,
    omega_power,
    op_f,
    wedge,
    wedge_power,
)
from symplab.fields import (
    PolyVectorField,
    TwoFormData,
    build_linear_system,
    classify,
    exterior_derivative,
    hamiltonian_field,
    hamiltonian_two_form,
    vector_from_two_form,
)
from symplab.flows import (
    ChainPatch,
    FlowConfig,
    divergence,
    tangent_flow,
    verify_area_preservation,
)
from symplab.polynomials import Poly

import oracles


def _report(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def _standard_h(n):
    nv = 2 * n
    return sum(
        (Fraction(1, 2) * Poly.variable(nv, i) ** 2 for i in range(nv)),
        Poly.zero(nv),
    )


def _unit_square():
    return ChainPatch.affine(
        1, [0, 0, 0, 0], [[0, 0, 1, 0], [1, 0, 0, 0]], orders=(4, 4)
    )


def _unit_cube():
    return ChainPatch.affine(
        2,
        [0, 0, 0, 0],
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
        orders=(2, 2, 2, 2),
    )


def test_criterion_1_sl2_identities():
    start = time.monotonic()
    ok = True
    blades = 0
    for n in range(1, 5):
        for k in range(1, n + 1):
            result = commutator_check(n, k)
            ok = ok and result.passed
            blades += result.blades_checked
        frame = Frame.darboux(n)
        ok = ok and op_f(omega(frame)) == Form.scalar(frame, Fraction(n))
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5.0
    _report(
        1,
        ok,
        f"sl(2) identities on {blades} blade checks for n=1..4, "
        f"f-hat(omega)=n exact, {elapsed:.2f}s < 5s",
    )


def test_criterion_2_injectivity_ranks():
    start = time.monotonic()
    ok = True
    for n in range(1, 5):
        for k in range(1, n + 1):
            ok = ok and contraction_rank(n, k) == 2 * n
        for k in range(0, n - 1):
            ok = ok and iota_rank(n, k) == math.comb(2 * n, 2)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5.0
    _report(
        2,
        ok,
        f"contraction rank 2n and wedge rank C(2n,2) for n<=4, exact, "
        f"{elapsed:.2f}s < 5s",
    )


def test_criterion_3_nilmanifold():
    start = time.monotonic()
    alg = bundled_algebra("nilm6")
    cx = build_complex(alg)  # validates d.d = 0 and d omega = 0
    f = alg.frame
    theta = lambda i: Form.generator(f, i - 1)
    ok = not wedge_power(alg.omega, 3).is_zero
    ok = ok and betti(cx, 1) == 3 and betti(cx, 2) == 4
    witness = wedge(theta(2), theta(5)) + wedge(theta(3), theta(6))
    residual = wedge(alg.omega, theta(1)) - differential(cx, witness)
    ok = ok and residual.is_zero
    el1, el2 = el_dim(cx, 1), el_dim(cx, 2)
    # el_dim(2) pinned at 2 by the exact rank computation
    ok = ok and el1 == 3 and el2 == 2 and el2 < el1
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5.0
    _report(
        3,
        ok,
        f"nilmanifold M6: d2=0, dF=0, F^3!=0, betti=(3,4), F^th1 exact, "
        f"el_dim(2)={el2} < el_dim(1)={el1}, {elapsed:.2f}s < 5s",
    )


def test_criterion_4_torus():
    start = time.monotonic()
    alg = bundled_algebra("torus6")
    cx = build_complex(alg)
    ok = all(betti(cx, m) == math.comb(6, m) for m in range(7))
    el2, b3, h3 = el_dim(cx, 2), betti(cx, 3), harmonic_dim(cx, 3)
    ok = ok and el2 == 6 and b3 == 20 and el2 < b3
    ok = ok and h3 == b3
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5.0
    _report(
        4,
        ok,
        f"torus T6: betti=C(6,k), el_dim(2)={el2} < betti(3)={b3}, "
        f"harmonic(3)={h3}=betti(3), {elapsed:.2f}s < 5s",
    )


def test_criterion_5_canonical_recovery():
    ok = True
    for n in (2, 3):
        frame = Frame.darboux(n)
        h = _standard_h(n)
        got = vector_from_two_form(hamiltonian_two_form(frame, h))
        ok = ok and got.components == hamiltonian_field(frame, h).components
    _report(5, ok, "H omega/(n-1) reproduces the canonical equations, n=2,3, exact")


def _random_poly(rng, nvars):
    terms = {}
    for _ in range(rng.randint(0, 2)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, 3)):
            exps[rng.randrange(nvars)] += 1
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + Fraction(
            rng.randint(-4, 4), rng.randint(1, 3)
        )
    return Poly(nvars, terms)


def _random_two_form(rng, n):
    frame = Frame.darboux(n)
    nv = 2 * n
    zero = Poly.zero(nv)
    q = [[zero] * n for _ in range(n)]
    p = [[zero] * n for _ in range(n)]
    a = [[_random_poly(rng, nv) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            q[i][j] = _random_poly(rng, nv)
            q[j][i] = -q[i][j]
            p[i][j] = _random_poly(rng, nv)
            p[j][i] = -p[i][j]
    return TwoFormData(
        frame,
        tuple(tuple(r) for r in q),
        tuple(tuple(r) for r in a),
        tuple(tuple(r) for r in p),
    )


def test_criterion_6_contraction_identity():
    start = time.monotonic()
    rng = random.Random(64206)
    ok = True
    cases = 0
    for n in (2, 3):
        frame = Frame.darboux(n)
        for _ in range(25):
            alpha = _random_two_form(rng, n)
            x = vector_from_two_form(alpha)
            residual = interior(x, omega_power(frame, n)) + Fraction(
                n * (n - 1)
            ) * wedge(
                exterior_derivative(alpha.to_form()), omega_power(frame, n - 2)
            )
            ok = ok and residual.is_zero
            ok = ok and divergence(x).is_zero
            cases += 1
    elapsed = time.monotonic() - start
    ok = ok and cases == 50 and elapsed < 30.0
    _report(
        6,
        ok,
        f"contraction identity and zero divergence on {cases} random 2-forms "
        f"(n=2,3, degree<=3), exact, {elapsed:.2f}s < 30s",
    )


def test_criterion_7_liouville_drift():
    start = time.monotonic()
    spec, x = build_linear_system(None, masses=(1, 2, 1))
    ok = not classify(x, 1).symplectic_like
    ok = ok and divergence(x).is_zero
    flow = tangent_flow(x, [1.0, 0.5, 0.25, -0.3], FlowConfig(10.0, 1e-3))
    drift = flow.max_det_drift()
    ok = ok and drift < 1e-6
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    _report(
        7,
        ok,
        f"coupled oscillators (m=1,2, k=1): non-symplectic, divergence 0, "
        f"max|det J - 1| = {drift:.2e} < 1e-6 on [0,10], {elapsed:.2f}s < 10s",
    )


def test_criterion_8_area_laws():
    start = time.monotonic()
    frame = Frame.darboux(2)
    ham = hamiltonian_field(frame, _standard_h(2))
    _, osc = build_linear_system(None, masses=(1, 2, 1))
    cfg = FlowConfig(10.0, 1e-3)
    r_sq = verify_area_preservation(ham, _unit_square(), 1, cfg)
    r_cube = verify_area_preservation(ham, _unit_cube(), 2, cfg)
    ok = r_sq.hypothesis_ok and r_sq.rel_drift < 1e-6
    ok = ok and r_cube.hypothesis_ok and r_cube.rel_drift < 1e-6
    r_bad = verify_area_preservation(osc, _unit_square(), 1, cfg)
    r_vol = verify_area_preservation(osc, _unit_cube(), 2, cfg)
    ok = ok and not r_bad.hypothesis_ok
    ok = ok and r_vol.hypothesis_ok and r_vol.rel_drift < 1e-6
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    _report(
        8,
        ok,
        f"area laws: hamiltonian square/cube drift "
        f"{r_sq.rel_drift:.2e}/{r_cube.rel_drift:.2e} < 1e-6; non-symplectic "
        f"l=1 flagged, l=n drift {r_vol.rel_drift:.2e} < 1e-6, "
        f"{elapsed:.1f}s < 60s",
    )


def test_criterion_9_convergence_order():
    # X(x) = A x, eig(A) = +/-l, 0, 0 with l^2 = 3/2; an RK4 step is J -> R(hA) J
    # with R(z) = sum_{k<=4} z^k/k!, so det R(hA) = R(lh) R(-lh) exactly equals
    # 1 + (lh)^6/72 + (lh)^8/576: per-step error O(h^6), drift O(h^5), ratio 2^5.
    # (The generic 4th-order band is covered in test_flows.py.)  The drifts are
    # pinned to that exact oracle; an off-by-one step count moves a drift by
    # only 1/steps, so the Jacobian sample count is checked exactly.
    start = time.monotonic()
    _, x = build_linear_system(None, masses=(1, 2, 1))
    a = oracles.constant_jacobian(x)
    x0 = [1.0, 0.5, 0.25, -0.3]
    t_final = Fraction(10)
    ok = True
    measured, exact = [], []
    for h in (Fraction(1, 10), Fraction(1, 20)):
        z2 = Fraction(3, 2) * h**2
        ok = ok and oracles.rk4_stability_det(a, h) == 1 + z2**3 / 72 + z2**4 / 576
        steps = int(t_final / h)
        flow = tangent_flow(x, x0, FlowConfig(float(t_final), float(h)))
        ok = ok and len(flow.jacobians) == steps + 1
        measured.append(flow.max_det_drift())
        exact.append(float(oracles.rk4_linear_det_drift(a, h, steps)))
    ratio = measured[0] / measured[1]
    exact_ratio = exact[0] / exact[1]
    order = math.log2(exact_ratio)
    gap = max(
        abs(ratio / exact_ratio - 1),
        *(abs(m / e - 1) for m, e in zip(measured, exact)),
    )
    ok = ok and 4.9 <= order <= 5.1 and gap <= 0.02
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1.0
    _report(
        9,
        ok,
        f"halving dt changes det-J drift by {ratio:.3f} "
        f"({measured[0]:.3e} -> {measured[1]:.3e}); exact det R(hA) ratio "
        f"{exact_ratio:.3f}, order {order:.3f} in [4.9, 5.1]; largest "
        f"relative gap {gap:.2%} <= 2%, {elapsed:.2f}s < 1s",
    )
