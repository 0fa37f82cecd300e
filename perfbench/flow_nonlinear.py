"""Workload flow-nonlinear: RK4 on polynomial Hamiltonian fields of degree 3.

H = |p|^2/2 + |q|^2/2 + sum a_i q_i^4/4 + sum c_ij q_i^2 q_j^2 at n = 2 and
n = 3, with seeded a_i in [1/2, 1] and c_ij in [1/10, 1/2].  The quartic
part confines every orbit, so nothing blows up.  Node batches differ in
size: single trajectories (m = 1) beside chains of 16 and 81 nodes per patch,
for l < n and for l = n (where the per-step det check runs).  Every seed
gives the same monomials, step counts and node counts; only the values move.
"""

from __future__ import annotations

import inspect
import random
from fractions import Fraction

import numpy as np


T_FINAL = 2.0
DT = 0.005
REF_REFINE = 4          # the reference RK4 takes this many steps per program step
STATE_TOL = 1e-9        # program final state vs the finer reference RK4 (seen: <= 5.2e-11)
ENERGY_TOL = 1e-10       # |H(x_T) - H(x_0)| (seen: <= 4.3e-12)
DRIFT_TOL = 1e-6
VALUE_TOL = 1e-12       # t = 0 chain integrals vs their exact rational values
KERNEL_POINTS = 16
# (name, n, l, orders per axis, patches)
CHAINS = (
    ("n2-l1-m16", 2, 1, (4, 4), 2),
    ("n2-l2-m16", 2, 2, (2, 2, 2, 2), 2),
    ("n2-l2-m81", 2, 2, (3, 3, 3, 3), 1),
    ("n3-l1-m16", 3, 1, (4, 4), 2),
)


def _rational(rng, lo, hi, den):
    return Fraction(rng.randint(lo, hi), den)


def _hamiltonian(rng, n) -> dict:
    """{exponent tuple: coefficient} of H over (q_1..q_n, p_1..p_n)."""
    nv = 2 * n

    def exps(*powers):
        """Exponent tuple from (variable, power) pairs."""
        e = [0] * nv
        for var, power in powers:
            e[var] = power
        return tuple(e)

    terms = {exps((i, 2)): Fraction(1, 2) for i in range(nv)}
    for i in range(n):
        terms[exps((i, 4))] = _rational(rng, 4, 8, 8) / 4
        for j in range(i + 1, n):
            terms[exps((i, 2), (j, 2))] = _rational(rng, 2, 10, 20)
    return terms


def _point(rng, dim, den=10, half=5):
    return [_rational(rng, -half, half, den) for _ in range(dim)]


def _region(rng, n, l):
    """Origin and 2l axes, axis 2i along q_i and 2i+1 along p_i, perturbed."""
    origin = _point(rng, 2 * n, 10, 3)
    axes = []
    for i in range(l):
        for coord in (i, n + i):
            v = [_rational(rng, -2, 2, 100) for _ in range(2 * n)]
            v[coord] += _rational(rng, 4, 6, 10)
            axes.append(v)
    return origin, axes


def _split(origin, axes):
    """The region as two signed patches: halves along the first axis, the
    second with its first two axes swapped and sign -1."""
    half = [a / 2 for a in axes[0]]
    mid = [o + h for o, h in zip(origin, half)]
    return [(1, origin, [half] + axes[1:]), (-1, mid, [axes[1], half] + axes[2:])]


def transport_args(fw, l, n, cfg):
    """Arguments after the chain; the unused ``k`` is dropped where the
    package no longer takes it."""
    params = inspect.signature(fw.verify_area_preservation).parameters
    return (l, n, cfg) if "k" in params else (l, cfg)


def setup(sl, seed, span):
    rng = random.Random(seed)
    fields, hams = {}, {}
    with span("polynomials.field_build"):
        for n in (2, 3):
            hams[n] = _hamiltonian(rng, n)
            poly = sl.polynomials.Poly(2 * n, hams[n])
            fields[n] = sl.fields.hamiltonian_field(sl.exterior.Frame.darboux(n), poly)
    starts = {(n, tag): _point(rng, 2 * n) for n in (2, 3) for tag in "ab"}
    chains = {}
    for name, n, l, orders, patches in CHAINS:
        origin, axes = _region(rng, n, l)
        parts = _split(origin, axes) if patches == 2 else [(1, origin, axes)]
        chains[name] = {
            "n": n, "l": l, "orders": orders, "origin": origin, "axes": axes, "parts": parts,
            "chain": [(sign, sl.flows.ChainPatch.affine(l, o, a, orders=orders))
                      for sign, o, a in parts],
        }
    # dyadic points, exact in binary, for the compiled-kernel comparison
    kernel_points = {n: [_point(rng, 2 * n, 64, 32) for _ in range(KERNEL_POINTS)] for n in (2, 3)}
    return {
        "hams": hams, "fields": fields, "starts": starts, "chains": chains,
        "kernel_points": kernel_points,
        "cfg": sl.flows.FlowConfig(t_final=T_FINAL, dt=DT),
    }


def warm_up(sl, inputs):
    cfg = sl.flows.FlowConfig(t_final=10 * DT, dt=DT)
    for name, spec in inputs["chains"].items():
        x = inputs["fields"][spec["n"]]
        sl.flows.verify_area_preservation(
            x, spec["chain"], *transport_args(sl.flows, spec["l"], spec["n"], cfg)
        )
    for (n, _), x0 in inputs["starts"].items():
        sl.flows.tangent_flow(inputs["fields"][n], [float(v) for v in x0], cfg).max_det_drift()


def operations(sl, inputs):
    fw = sl.flows
    cfg = inputs["cfg"]
    ops = []

    def tangent(n, x0):
        flow = fw.tangent_flow(inputs["fields"][n], [float(v) for v in x0], cfg)
        traj = flow.trajectory
        return {
            "final": tuple(float(v) for v in traj.states[-1]),
            "samples": len(traj.states),
            "blew_up": traj.blew_up,
            "det_drift": flow.max_det_drift(),
        }

    def integral(spec):
        result = fw.chain_integral(spec["chain"], spec["n"])
        return {"value": result.value, "degenerate": result.degenerate}

    def transport(spec):
        r = fw.verify_area_preservation(
            inputs["fields"][spec["n"]], spec["chain"],
            *transport_args(fw, spec["l"], spec["n"], cfg),
        )
        return {
            "initial": r.initial, "final": r.final, "rel_drift": r.rel_drift,
            "det_drift": r.per_step_max_det_drift, "hypothesis_ok": r.hypothesis_ok,
            "blew_up": r.blew_up,
        }

    def kernel(n):
        compiled = fw.CompiledField(inputs["fields"][n])
        pts = np.array([[float(v) for v in p] for p in inputs["kernel_points"][n]],
                       dtype=np.longdouble)
        values, jacobians = compiled(pts)
        dets = fw.batch_det(jacobians)
        return {
            "values": values.astype(float).tolist(),
            "jacobians": jacobians.astype(float).tolist(),
            "dets": dets.astype(float).tolist(),
        }

    for (n, tag), x0 in inputs["starts"].items():
        ops.append((f"tangent-n{n}{tag}", lambda n=n, x0=x0: tangent(n, x0)))
    for name, spec in inputs["chains"].items():
        ops.append((f"integral-{name}", lambda spec=spec: integral(spec)))
    for name, spec in inputs["chains"].items():
        ops.append((f"transport-{name}", lambda spec=spec: transport(spec)))
    for n in (2, 3):
        ops.append((f"kernel-n{n}", lambda n=n: kernel(n)))
    return ops


def check(sl, inputs, results) -> list[str]:
    # sympy loads only here, after the timed phase: it stays out of peak_rss_mb
    import sympy

    import exact

    bad = []
    syms, rhs, energy = {}, {}, {}
    for n in (2, 3):
        s = exact.coords(n)
        h = exact.poly(inputs["hams"][n], s)
        comps = exact.hamiltonian_components(h, s, n)
        if [exact.poly(c.terms, s) for c in inputs["fields"][n].components] != comps:
            bad.append(f"n={n}: hamiltonian_field differs from the canonical equations")
        syms[n] = s
        rhs[n] = sympy.lambdify([s], [c.as_expr() for c in comps], "math")
        energy[n] = sympy.lambdify([s], h.as_expr(), "math")

    steps = round(T_FINAL / DT)
    for (n, tag), x0 in inputs["starts"].items():
        r = results.get(f"tangent-n{n}{tag}")
        if r is None:
            continue
        label = f"tangent n={n}{tag}"
        if r["blew_up"] or r["samples"] != steps + 1:
            bad.append(f"{label}: blew_up={r['blew_up']} samples={r['samples']}")
            continue
        if not r["det_drift"] <= DRIFT_TOL:
            bad.append(f"{label}: det drift {r['det_drift']:.3e}")
        start = [float(v) for v in x0]
        ref = exact.rk4(lambda x: rhs[n](x), start, T_FINAL, steps * REF_REFINE)
        gap = max(abs(a - b) for a, b in zip(r["final"], ref))
        if not gap <= STATE_TOL:
            bad.append(f"{label}: final state {gap:.3e} from the reference RK4")
        de = abs(energy[n](r["final"]) - energy[n](start))
        if not de <= ENERGY_TOL:
            bad.append(f"{label}: energy moved by {de:.3e}")

    for name, spec in inputs["chains"].items():
        n = spec["n"]
        want = exact.affine_patch_value(spec["axes"], n)
        parts = sum(sign * exact.affine_patch_value(a, n) for sign, _, a in spec["parts"])
        if parts != want:
            bad.append(f"{name}: exact patch values do not add up ({parts} != {want})")
        tol = VALUE_TOL * max(1.0, abs(float(want)))
        r = results.get(f"integral-{name}")
        if r is not None:
            if r["degenerate"] or not abs(r["value"] - float(want)) <= tol:
                bad.append(f"{name}: t=0 integral {r['value']!r}, exact {float(want)!r}")
            whole = sl.flows.ChainPatch.affine(spec["l"], spec["origin"], spec["axes"],
                                               orders=spec["orders"])
            single = sl.flows.chain_integral(whole, n).value
            if not abs(single - r["value"]) <= tol:
                bad.append(f"{name}: one patch {single!r} != signed patches {r['value']!r}")
        t = results.get(f"transport-{name}")
        if t is None:
            continue
        if t["blew_up"] or not t["hypothesis_ok"]:
            bad.append(f"{name}: blew_up={t['blew_up']} hypothesis_ok={t['hypothesis_ok']}")
            continue
        if not abs(t["initial"] - float(want)) <= tol:
            bad.append(f"{name}: transported initial {t['initial']!r}, exact {float(want)!r}")
        if not t["rel_drift"] <= DRIFT_TOL:
            bad.append(f"{name}: transported rel drift {t['rel_drift']:.3e}")
        if spec["l"] == n and not (t["det_drift"] is not None and t["det_drift"] <= DRIFT_TOL):
            bad.append(f"{name}: per-step det drift {t['det_drift']}")

    for n in (2, 3):
        r = results.get(f"kernel-n{n}")
        if r is None:
            continue
        s = syms[n]
        comps = [exact.poly(c.terms, s) for c in inputs["fields"][n].components]
        jac = [[c.diff(x) for x in s] for c in comps]
        for idx, point in enumerate(inputs["kernel_points"][n]):
            at = [sympy.Rational(p.numerator, p.denominator) for p in point]
            v = [Fraction(str(c(*at))) for c in comps]
            j = [[Fraction(str(e(*at))) for e in row] for row in jac]
            d = exact.det(j)
            got = [r["values"][idx]] + r["jacobians"][idx] + [[r["dets"][idx]]]
            want = [v] + j + [[d]]
            for grow, wrow in zip(got, want):
                for g, w in zip(grow, wrow):
                    if not abs(g - float(w)) <= 1e-13 * (1 + abs(float(w))):
                        bad.append(f"kernel n={n} point {idx}: {g!r} != {float(w)!r}")
                        break
    return bad
