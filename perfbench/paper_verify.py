"""Workload paper-verify: the bundled suite, run in-process as users run it.

One operation is one ``symplab paper-verify --format machine``.  The suite's
inputs are fixed by the program, so the seed changes nothing here.  The
parsed report is checked against facts computed apart from the program.
"""

from __future__ import annotations

import contextlib
import io
import math
from fractions import Fraction


ARGV = ["paper-verify", "--format", "machine"]
CHECKS = (
    "sl2-identities", "injectivity-ranks", "nilmanifold-m6", "torus-t6",
    "canonical-recovery", "contraction-identity", "coupled-oscillators",
    "liouville-drift", "area-laws",
)
DRIFT_TOL = 1e-6
# the nilmanifold of the suite: d theta^k = sum c theta^i ^ theta^j, rows (i, j, k, c)
NILM6 = [(1, 2, 4, 1), (1, 4, 5, 1), (2, 3, 5, -1), (1, 5, 6, 1), (3, 4, 6, 1)]
NILM6_OMEGA = {(1 << 0) | (1 << 5): Fraction(1), (1 << 1) | (1 << 3): Fraction(1),
               (1 << 2) | (1 << 4): Fraction(1)}
TORUS6_OMEGA = {(1 << 0) | (1 << 3): Fraction(1), (1 << 1) | (1 << 4): Fraction(1),
                (1 << 2) | (1 << 5): Fraction(1)}
# the coupled oscillators m_i q_i'' = -c (q_other - q_i) with (m1, m2, c)
MASSES = (Fraction(1), Fraction(2), Fraction(1))


def _cli(sl, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = sl.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"symplab {' '.join(argv)} exited {code}")
    return buf.getvalue()


def setup(sl, seed, span):
    frame = sl.exterior.Frame.darboux(2)
    h = sl.polynomials.Poly(4, {
        tuple(2 if j == i else 0 for j in range(4)): Fraction(1, 2) for i in range(4)
    })
    # the suite's "ham" field: H = |q|^2/2 + |p|^2/2 on R^4
    return {"ham": sl.fields.hamiltonian_field(frame, h).components}


def warm_up(sl, inputs):
    _cli(sl, ["sl2-check", "--n", "2", "--format", "machine"])
    _cli(sl, ["cohomology", "torus6", "--el", "--harmonic", "--format", "machine"])
    _, x = sl.fields.build_linear_system(None, masses=(1, 2, 1))
    cfg = sl.flows.FlowConfig(t_final=0.01, dt=1e-3)
    sl.flows.tangent_flow(x, [1.0, 0.5, 0.25, -0.3], cfg).max_det_drift()


def flow_label(inputs):
    def label(x, chain):
        field = "ham" if x.components == inputs["ham"] else "osc"
        l = chain.l if hasattr(chain, "l") else chain[0][1].l
        return f"{field}_{'sq' if l == 1 else 'cube'}"

    return label


def operations(sl, inputs):
    return [("paper-verify", lambda: _cli(sl, ARGV))]


def check(sl, inputs, results) -> list[str]:
    import exact  # loads sympy, after the timed phase: it stays out of peak_rss_mb

    if "paper-verify" not in results:
        return []
    report = {}
    for line in results["paper-verify"].splitlines():
        key, _, value = line.partition("=")
        report[key] = value
    bad = []

    def expect(key, want):
        if report.get(key) != str(want):
            bad.append(f"{key}={report.get(key)!r}, expected {want!r}")

    def small(key):
        try:
            ok = float(report[key]) <= DRIFT_TOL
        except (KeyError, ValueError):
            ok = False
        if not ok:
            bad.append(f"{key}={report.get(key)!r} exceeds {DRIFT_TOL}")

    for name in CHECKS:
        expect(f"{name}.status", "pass")
    expect("suite.status", "pass")
    # sl2: every blade of the exterior algebra of R^2n, for each k <= n <= 4
    expect("sl2-identities.n_max", 4)
    expect("sl2-identities.blade_checks", sum(n * 4 ** n for n in range(1, 5)))
    expect("injectivity-ranks.n_max", 4)
    nil = exact.Complex(6, NILM6)
    b = nil.betti()
    expect("nilmanifold-m6.betti_1", b[1])
    expect("nilmanifold-m6.betti_2", b[2])
    expect("nilmanifold-m6.el_dim_1", nil.lefschetz_rank(NILM6_OMEGA, 1))
    expect("nilmanifold-m6.el_dim_2", nil.lefschetz_rank(NILM6_OMEGA, 2))
    torus = exact.Complex(6, [])
    expect("torus-t6.el_dim_2", torus.lefschetz_rank(TORUS6_OMEGA, 2))
    expect("torus-t6.betti_3", math.comb(6, 3))
    expect("torus-t6.harmonic_3", math.comb(6, 3))
    expect("canonical-recovery.n_values", "2,3")
    expect("contraction-identity.cases", 50)
    m1, m2, c = MASSES
    expect("coupled-oscillators.k12", c / m1)
    expect("coupled-oscillators.k21", c / m2)
    small("liouville-drift.max_det_drift")
    for key in ("ham_sq_drift", "ham_cube_drift", "osc_cube_drift"):
        small(f"area-laws.{key}")
    # k12 != k21: the oscillator field is not symplectic, so the l < n law
    # does not apply to it
    expect("area-laws.osc_sq_hypothesis", "violated")
    extra = [k for k in report if k.split(".")[0] not in CHECKS + ("suite",)]
    if extra:
        bad.append(f"unexpected report keys {extra}")
    return bad
