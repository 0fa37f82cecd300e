"""Workload exact-algebra: rational exterior algebra and cohomology, no flows.

The sl(2) identities at n = 4 and n = 5 with the rank certificates; the
complex with every Betti, Euler-Lagrange and harmonic dimension and every
cohomology space of nilm6, torus6, nilm6 + R^2 (omega + theta7^theta8) and
torus8; ``vector_from_two_form`` on seeded random 2-forms and ``classify``
on seeded Hamiltonian and non-volume-preserving fields, at n = 2 and n = 3.
The algebras are fixed; the seed draws the forms and fields, always with
the same term counts and degrees, so the work per round hardly depends on
the seed.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

NILM6 = [(1, 2, 4, 1), (1, 4, 5, 1), (2, 3, 5, -1), (1, 5, 6, 1), (3, 4, 6, 1)]
NILM6_OMEGA = [(1, 6, 1), (2, 4, 1), (3, 5, 1)]
# name: (dim, structure rows (i, j, k, c), omega rows (i, j, c), kind)
ALGEBRAS = {
    "nilm6": (6, NILM6, NILM6_OMEGA, "nil"),
    "torus6": (6, [], [(1, 4, 1), (2, 5, 1), (3, 6, 1)], "torus"),
    "nilm6xR2": (8, NILM6, NILM6_OMEGA + [(7, 8, 1)], "product"),
    "torus8": (8, [], [(1, 5, 1), (2, 6, 1), (3, 7, 1), (4, 8, 1)], "torus"),
}
SL2_N = (4, 5)
# Seeded inputs per n.  The counts keep the seeded operations off the middle
# of the round's operation times (n = 2 below it, n = 3 above it), so that
# op_median_ms falls on a fixed-input operation and does not move with the seed.
TWO_FORMS = {2: 25, 3: 40}
HAMILTONIANS = {2: 6, 3: 12}    # plus DAMPED fields, which are not volume-preserving
DAMPED = {2: 2, 3: 4}


def _algebra_text(dim, structure, omega):
    return json.dumps({
        "dim": dim,
        "d": [[i, j, k, str(c)] for i, j, k, c in structure],
        "omega": [[i, j, str(c)] for i, j, c in omega],
    })


def _monomial(rng, nv, degree):
    exps = [0] * nv
    for _ in range(degree):
        exps[rng.randrange(nv)] += 1
    return tuple(exps)


def _coeff(rng):
    return Fraction(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]), rng.randint(1, 3))


def _poly_terms(rng, nv, terms, degree):
    """``terms`` random monomials of one total degree, so every seed draws
    polynomials of the same shape."""
    out = {}
    for _ in range(terms):
        key = _monomial(rng, nv, degree)
        out[key] = out.get(key, 0) + _coeff(rng)
    return {k: v for k, v in out.items() if v}


def setup(sl, seed, span):
    rng = random.Random(seed)
    algebras = {
        name: sl.cohomology.parse_algebra(_algebra_text(dim, st, om))
        for name, (dim, st, om, _) in ALGEBRAS.items()
    }
    Poly = sl.polynomials.Poly
    two_forms, fields = {}, {}
    with span("polynomials.field_build"):
        for n in (2, 3):
            nv = 2 * n
            frame = sl.exterior.Frame.darboux(n)
            zero = Poly.zero(nv)
            forms = []
            for _ in range(TWO_FORMS[n]):
                q = [[zero] * n for _ in range(n)]
                p = [[zero] * n for _ in range(n)]
                a = [[Poly(nv, _poly_terms(rng, nv, 2, 3)) for _ in range(n)] for _ in range(n)]
                for i in range(n):
                    for j in range(i + 1, n):
                        q[i][j] = Poly(nv, _poly_terms(rng, nv, 2, 3))
                        q[j][i] = -q[i][j]
                        p[i][j] = Poly(nv, _poly_terms(rng, nv, 2, 3))
                        p[j][i] = -p[i][j]
                forms.append(sl.fields.TwoFormData(
                    frame, tuple(map(tuple, q)), tuple(map(tuple, a)), tuple(map(tuple, p))
                ))
            two_forms[n] = forms
            items = []
            for idx in range(HAMILTONIANS[n] + DAMPED[n]):
                h = sl.fields.hamiltonian_field(frame, Poly(nv, _poly_terms(rng, nv, 4, 4)))
                if idx >= HAMILTONIANS[n]:
                    # dq1/dt gains c q1: divergence c != 0, so no law applies
                    comps = list(h.components)
                    comps[0] = comps[0] + _coeff(rng) * Poly.variable(nv, 0)
                    h = sl.fields.PolyVectorField(frame, tuple(comps))
                items.append(h)
            fields[n] = items
    return {"algebras": algebras, "two_forms": two_forms, "fields": fields}


def warm_up(sl, inputs):
    sl.exterior.commutator_check(2, 2)
    cx = sl.cohomology.build_complex(inputs["algebras"]["nilm6"])
    sl.cohomology.cohomology_space(cx, 2)
    sl.cohomology.harmonic_dim(cx, 3)
    sl.cohomology.el_dim(cx, 2)
    sl.fields.vector_from_two_form(inputs["two_forms"][2][0])
    sl.fields.classify(inputs["fields"][2][0], 1)


def operations(sl, inputs):
    ext, coh, fl = sl.exterior, sl.cohomology, sl.fields
    ops = []
    for n in SL2_N:
        for k in range(1, n + 1):
            ops.append((f"sl2-n{n}-k{k}", lambda n=n, k=k: _commutator(ext, n, k)))

    ops.append(("contraction-ranks", lambda: tuple(
        (n, k, ext.contraction_rank(n, k)) for n in range(1, 5) for k in range(1, n + 1))))
    ops.append(("iota-ranks", lambda: tuple(
        (n, k, ext.iota_rank(n, k)) for n in range(1, 5) for k in range(0, n - 1))))
    complexes = {}
    for name, alg in inputs["algebras"].items():
        dim = alg.dim

        def build(name=name, alg=alg):
            complexes[name] = coh.build_complex(alg)
            return dim

        ops.append((f"{name}-build", build))
        ops.append((f"{name}-betti", lambda name=name, dim=dim: tuple(
            coh.betti(complexes[name], m) for m in range(dim + 1))))
        ops.append((f"{name}-el", lambda name=name, dim=dim: tuple(
            coh.el_dim(complexes[name], k) for k in range(1, dim // 2 + 1))))
        ops.append((f"{name}-harmonic", lambda name=name, dim=dim: tuple(
            coh.harmonic_dim(complexes[name], m) for m in range(dim + 1))))
        ops.append((f"{name}-spaces", lambda name=name, dim=dim: tuple(
            coh.cohomology_space(complexes[name], m) for m in range(dim + 1))))
    for n in (2, 3):
        ops.append((f"from-two-form-n{n}", lambda n=n: tuple(
            fl.vector_from_two_form(a) for a in inputs["two_forms"][n])))
        ops.append((f"classify-n{n}", lambda n=n: tuple(
            fl.classify(x, k) for x in inputs["fields"][n] for k in range(1, n + 1))))
    return ops


def _commutator(ext, n, k):
    r = ext.commutator_check(n, k)
    return (r.passed, r.blades_checked)


def check(sl, inputs, results) -> list[str]:
    import exact  # loads sympy, after the timed phase: it stays out of peak_rss_mb

    bad = []
    for n in SL2_N:
        for k in range(1, n + 1):
            r = results.get(f"sl2-n{n}-k{k}")
            if r is not None and r != (True, 4 ** n):
                bad.append(f"sl2 n={n} k={k}: {r}, expected all {4 ** n} blades to pass")
    for n, k, got in results.get("contraction-ranks", ()):
        if got != 2 * n:
            bad.append(f"contraction_rank({n},{k})={got}, expected {2 * n}")
    for n, k, got in results.get("iota-ranks", ()):
        if got != math.comb(2 * n, 2):
            bad.append(f"iota_rank({n},{k})={got}, expected {math.comb(2 * n, 2)}")

    own_betti = {}
    for name, (dim, structure, omega_rows, kind) in ALGEBRAS.items():
        own = exact.Complex(dim, structure)
        b = own.betti()
        own_betti[name] = b
        omega = {(1 << (i - 1)) | (1 << (j - 1)): Fraction(c) for i, j, c in omega_rows}
        n = dim // 2
        if kind == "torus" and b != exact.torus_betti(dim):
            bad.append(f"{name}: own Betti {b} != binomials")
        if kind == "product" and b != exact.kunneth(own_betti["nilm6"], [1, 2, 1]):
            bad.append(f"{name}: own Betti {b} violates Kunneth")
        got = results.get(f"{name}-betti")
        if got is not None:
            if list(got) != b:
                bad.append(f"{name}: betti {list(got)}, sympy ranks give {b}")
            if list(got) != list(reversed(got)):
                bad.append(f"{name}: betti {list(got)} violates Poincare duality")
            if sum((-1) ** m * v for m, v in enumerate(got)) != 0:
                bad.append(f"{name}: Euler characteristic of {list(got)} is not 0")
        el = results.get(f"{name}-el")
        if el is not None:
            want = [own.lefschetz_rank(omega, k) for k in range(1, n)] + [b[2 * n - 1]]
            if list(el) != want:
                bad.append(f"{name}: el_dim {list(el)}, expected {want}")
        h = results.get(f"{name}-harmonic")
        if h is not None:
            if kind == "torus" and list(h) != b:
                bad.append(f"{name}: harmonic {list(h)} != betti {b} on a torus")
            if any(x > y for x, y in zip(h, b)) or list(h[:3]) != b[:3]:
                # every class of degree <= 2 has a harmonic representative (Yan)
                bad.append(f"{name}: harmonic {list(h)} against betti {b}")
        spaces = results.get(f"{name}-spaces")
        if spaces is not None:
            for m, space in enumerate(spaces):
                reps = [dict(f.terms) for f in space.representatives]
                if space.degree != m or space.dimension != b[m] or len(reps) != b[m]:
                    bad.append(f"{name} H^{m}: dimension {space.dimension}, "
                               f"{len(reps)} representatives, betti {b[m]}")
                    continue
                if not all(own.is_closed(r) for r in reps):
                    bad.append(f"{name} H^{m}: a representative is not closed")
                elif reps and own.class_rank(reps, m) != len(reps):
                    bad.append(f"{name} H^{m}: representatives dependent modulo boundaries")

    for n in (2, 3):
        s = exact.coords(n)
        fields = results.get(f"from-two-form-n{n}")
        if fields is not None:
            for idx, x in enumerate(fields):
                div = sum(exact.poly(c.terms, s).diff(v) for c, v in zip(x.components, s))
                if not div.is_zero:
                    bad.append(f"vector_from_two_form n={n} #{idx}: divergence {div}")
        verdicts = results.get(f"classify-n{n}")
        if verdicts is None:
            continue
        verdicts = iter(verdicts)
        for idx, x in enumerate(inputs["fields"][n]):
            comps = [exact.poly(c.terms, s) for c in x.components]
            for k in range(1, n + 1):
                v = next(verdicts)
                wk = {m: exact.constant(c, s)
                      for m, c in exact.wedge_power(exact.omega_darboux(n), k).items()}
                e = {m: -c for m, c in exact.sym_interior(comps, wk).items()}
                closed = not exact.sym_d(e, s)
                hamiltonian = idx < HAMILTONIANS[n]
                if closed != hamiltonian or v.symplectic_like != closed:
                    bad.append(f"classify n={n} #{idx} k={k}: symplectic_like="
                               f"{v.symplectic_like}, sympy closed={closed}")
                    continue
                if closed:
                    pot = {m: exact.poly(c.terms, s) for m, c in v.potential.terms.items()}
                    if exact.sym_d(pot, s) != e:
                        bad.append(f"classify n={n} #{idx} k={k}: d(potential) != -i_X omega^k")
    return bad
