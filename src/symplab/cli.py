"""Batch front-end: ingest spec files, run verifications, emit reports.

Exit codes are scriptable: 0 all checks pass, 1 numerical or assertion
failure (or an internal fault, with a traceback), 2 input error (exactly an
``InputError``), 3 theorem hypothesis not met.  Identical inputs
produce byte-identical reports; ``--format machine`` swaps the human tables
for stable ``key=value`` lines.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from fractions import Fraction

from . import cohomology as coh
from . import fields as fl
from . import flows as fw
from .exterior import (
    Form,
    Frame,
    commutator_checks,
    contraction_rank,
    format_form,
    iota_rank,
    omega,
    op_f,
    wedge,
)
from .polynomials import (
    InputError,
    Poly,
    _as_int,
    check_input_degree,
    check_input_n,
    decode_json,
    format_poly,
    poly_from_monomials,
    reading,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_HYPOTHESIS = 3

DRIFT_TOL = 1e-6


class Reporter:
    def __init__(self, fmt: str):
        self.fmt = fmt
        self.lines: list[str] = []

    def text(self, line: str = ""):
        if self.fmt == "text":
            self.lines.append(line)

    def kv(self, key: str, value):
        if self.fmt == "machine":
            self.lines.append(f"{key}={value}")

    def both(self, key: str, value):
        self.kv(key, value)
        self.text(f"{key}: {value}")

    def flush(self):
        sys.stdout.write("\n".join(self.lines) + ("\n" if self.lines else ""))


# ---------------------------------------------------------------------------
# file loading
# ---------------------------------------------------------------------------

def _load(path: str, convert):
    """Decode one JSON input file and ``convert`` its data.

    The one place a refusal learns its file: an InputError raised while
    decoding or converting is raised again with the path in front.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None
    try:
        return convert(decode_json(raw))
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def _chain_from_data(data: dict) -> fw.ChainPatch:
    with reading():
        n = check_input_n(_as_int(data["n"]))
        l = check_input_n(_as_int(data["l"]), "l")
        maps = data["maps"]
        if not isinstance(maps, list) or len(maps) != 2 * n:
            raise InputError("'maps' must list 2n monomial lists")
        polys = tuple(poly_from_monomials(2 * l, m) for m in maps)
        orders = tuple(_as_int(o) for o in data.get("orders", [4] * (2 * l)))
    for poly in polys:
        check_input_degree(poly, "chain map component")
    fw.CompiledField(polys)  # refuses a coefficient while the file is named
    return fw.ChainPatch(l, polys, orders)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_sl2_check(args, rep: Reporter) -> int:
    n = check_input_n(_number(args.n, "--n", int), "--n")
    frame = Frame.darboux(n)
    ok = True
    for result in commutator_checks(n):
        rep.kv(f"sl2.n{n}.k{result.k}", "pass" if result.passed else "fail")
        rep.text(str(result))
        ok = ok and result.passed
    fw_ok = op_f(omega(frame)) == Form.scalar(frame, Fraction(n))
    rep.kv(f"sl2.n{n}.f_omega", "pass" if fw_ok else "fail")
    rep.text(f"f-hat(omega) = {n}: {'ok' if fw_ok else 'FAILED'}")
    return EXIT_OK if ok and fw_ok else EXIT_FAIL


def cmd_cohomology(args, rep: Reporter) -> int:
    bundled = args.file in ("nilm6", "torus6", "nilm6.alg", "torus6.alg")
    if bundled and not os.path.exists(args.file):  # a file on disk comes first
        cx = coh.build_complex(coh.bundled_algebra(args.file))
    else:
        cx = _load(args.file, lambda data: coh.build_complex(coh.algebra_from_data(data)))
    alg = cx.alg
    n = alg.dim // 2
    show_all = not (args.betti or args.el or args.harmonic)
    # (name, wanted, dimension function, degrees, text of one entry)
    tables = (
        ("betti", args.betti or show_all, coh.betti, range(alg.dim + 1), "{v}"),
        ("el_dim", args.el, coh.el_dim, range(1, n + 1), "k={d}:{v}"),
        ("harmonic", args.harmonic, coh.harmonic_dim, range(alg.dim + 1), "{v}"),
    )
    for name, wanted, dim_of, degrees, entry in tables:
        if not wanted:
            continue
        values = [(d, dim_of(cx, d)) for d in degrees]
        rep.text(f"{name}: " + " ".join(entry.format(d=d, v=v) for d, v in values))
        for d, v in values:
            rep.kv(f"{name}.{d}", v)
    return EXIT_OK


def cmd_classify(args, rep: Reporter) -> int:
    field = _load(args.file, fl.field_from_data)
    n = field.frame.n
    k = _number(args.k, "--k", int)
    if not 1 <= k <= n:
        raise InputError(f"--k must be in [1, {n}]")
    result = fl.classify(field, k)
    rep.both("symplectic_like", str(result.symplectic_like).lower())
    # on R^{2n} a closed form is exact: Hamiltonian-like iff symplectic-like
    rep.both("hamiltonian_like", str(result.symplectic_like).lower())
    if result.potential is not None:
        rep.both("potential", format_form(result.potential))
    else:
        rep.both("potential", "none")
    return EXIT_OK


def cmd_from_two_form(args, rep: Reporter) -> int:
    field = fl.vector_from_two_form(_load(args.file, fl.two_form_from_data))
    names = [f"d{c}/dt" for c in _coord_names(field.frame)]
    coord = _coord_names(field.frame)
    for name, compo in zip(names, field.components):
        rep.text(f"{name} = {format_poly(compo, coord)}")
    for i, compo in enumerate(field.components):
        rep.kv(f"component.{i}", json.dumps(compo.monomial_list()))
    rep.both("contraction_identity", "verified")
    div = fw.divergence(field)
    rep.both("divergence", format_poly(div, coord))
    return EXIT_OK


def _coord_names(frame: Frame) -> list[str]:
    return [n[1:] for n in frame.names]


def _number(text: str, flag: str, convert=float):
    """A number flag by _point's rule: digit-group underscores, which
    float() and int() would read, are refused.  FlowConfig refuses a
    non-finite --t or --dt."""
    try:
        if "_" not in text:
            return convert(text)
    except ValueError:
        pass
    raise InputError(f"{flag} must be {'an integer' if convert is int else 'a number'}")


def _point(values, dim: int) -> list[float]:
    """An initial point of dim finite coordinates, from --x0 or a file.
    Digit-group underscores, which float() would read, are refused."""
    if any("_" in str(v) for v in values):
        raise InputError("x0 must be a list of numbers")
    try:
        values = [float(v) for v in values]
    except (OverflowError, TypeError, ValueError):
        raise InputError("x0 must be a list of numbers") from None
    if len(values) != dim:
        raise InputError(f"x0 needs {dim} coordinates")
    if not all(math.isfinite(v) for v in values):
        raise InputError("x0 coordinates must be finite")
    return values


def _flow_file(data: dict):
    """A flow file's field, embedded chain and initial point (None where
    absent).  The file's x0 is a JSON list of numbers: no strings, no
    booleans."""
    field = fl.field_from_data(data)
    fw.CompiledField(field)  # refuses a coefficient while the file is named
    chain = _chain_from_data(data["chain"]) if "chain" in data else None
    x0 = None
    if "x0" in data:
        values = data["x0"]
        if not isinstance(values, list) or any(type(v) not in (int, float) for v in values):
            raise InputError("x0 must be a list of numbers")
        x0 = _point(values, field.frame.dim)
    return field, chain, x0


def cmd_flow(args, rep: Reporter) -> int:
    field, chain, x0 = _load(args.file, _flow_file)
    cfg = fw.FlowConfig(t_final=_number(args.t, "--t"), dt=_number(args.dt, "--dt"))
    tol = _number(args.tol, "--tol")
    if not 0 <= tol < math.inf:
        raise InputError("--tol must be finite and nonnegative")
    if args.chain:
        chain = _load(args.chain, _chain_from_data)
    if chain is not None and args.x0 is not None:
        raise InputError("--x0 is for a tangent flow; a chain transport takes no initial point")
    div = fw.divergence(field)
    rep.both("divergence_zero", str(div.is_zero).lower())

    if chain is None:
        if args.x0 is not None:
            x0 = _point(args.x0.split(","), field.frame.dim)
        elif x0 is None:
            raise InputError("no initial point: give --x0 or an 'x0' file entry")
        flow = fw.tangent_flow(field, x0, cfg)
        drift = flow.max_det_drift() if not flow.trajectory.blew_up else float("nan")
        rep.both("blow_up", str(flow.trajectory.blew_up).lower())
        rep.both("max_det_drift", repr(drift))
        if flow.trajectory.blew_up:
            rep.text("trajectory exceeded the norm cap: blow-up")
            return EXIT_FAIL
        if not math.isfinite(drift) or div.is_zero and not drift <= tol:
            return EXIT_FAIL
        return EXIT_OK

    report = fw.verify_area_preservation(field, chain, chain.l, cfg)
    _emit_conservation(report, rep)
    if report.blew_up:
        return EXIT_FAIL
    if not report.hypothesis_ok:
        return EXIT_HYPOTHESIS
    return EXIT_OK if report.abs_drift <= tol else EXIT_FAIL


def _emit_conservation(report: fw.ConservationReport, rep: Reporter):
    rep.text(
        f"{report.quantity} over t in [0, {report.t_final}] at dt={report.dt}:"
    )
    rep.kv("quantity", report.quantity.replace(" ", "_"))
    rep.both("initial", repr(report.initial))
    rep.both("final", repr(report.final))
    rep.both("abs_drift", repr(report.abs_drift))
    if report.rel_drift is not None:
        rep.both("rel_drift", repr(report.rel_drift))
    if report.per_step_max_det_drift is not None:
        rep.both("per_step_max_det_drift", repr(report.per_step_max_det_drift))
    rep.both("hypothesis_ok", str(report.hypothesis_ok).lower())
    rep.both("blow_up", str(report.blew_up).lower())
    rep.text(report.hypothesis_note)


def cmd_chain(args, rep: Reporter) -> int:
    chain = _load(args.file, _chain_from_data)
    result = fw.chain_integral(chain)
    rep.both("value", repr(result.value))
    rep.both("degenerate", str(result.degenerate).lower())
    return EXIT_OK if math.isfinite(result.value) else EXIT_FAIL


# ---------------------------------------------------------------------------
# the bundled verification suite
# ---------------------------------------------------------------------------

def _standard_hamiltonian(n: int) -> Poly:
    nv = 2 * n
    h = Poly.zero(nv)
    for i in range(nv):
        h = h + Fraction(1, 2) * Poly.variable(nv, i) ** 2
    return h


def _random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def _random_poly(rng: random.Random, nvars: int, max_degree: int) -> Poly:
    terms = {}
    for _ in range(rng.randint(0, 2)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(nvars)] += 1
        terms[tuple(exps)] = terms.get(tuple(exps), Fraction(0)) + _random_fraction(rng)
    return Poly(nvars, terms)


def _random_two_form(rng: random.Random, n: int) -> fl.TwoFormData:
    frame = Frame.darboux(n)
    nv = 2 * n
    zero = Poly.zero(nv)
    q = [[zero] * n for _ in range(n)]
    p = [[zero] * n for _ in range(n)]
    a = [[_random_poly(rng, nv, 3) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            q[i][j] = _random_poly(rng, nv, 3)
            q[j][i] = -q[i][j]
            p[i][j] = _random_poly(rng, nv, 3)
            p[j][i] = -p[i][j]
    return fl.TwoFormData(
        frame,
        tuple(tuple(r) for r in q),
        tuple(tuple(r) for r in a),
        tuple(tuple(r) for r in p),
    )


def _bundled_checks():
    """The bundled suite: one (name, callable -> dict) per reproduced result.

    Each callable returns a details dict and raises AssertionError on
    failure; ordering is fixed so reports are byte-stable.
    """

    def sl2():
        blades = 0
        for n in range(1, 5):
            for result in commutator_checks(n):
                assert result.passed, str(result)
                blades += result.blades_checked
            frame = Frame.darboux(n)
            assert op_f(omega(frame)) == Form.scalar(frame, Fraction(n))
        return {"n_max": 4, "blade_checks": blades}

    def injectivity():
        for n in range(1, 5):
            for k in range(1, n + 1):
                assert contraction_rank(n, k) == 2 * n
            for k in range(0, n - 1):
                assert iota_rank(n, k) == math.comb(2 * n, 2)
        return {"n_max": 4}

    def nilmanifold():
        alg = coh.bundled_algebra("nilm6")
        cx = coh.build_complex(alg)  # validates d.d = 0, dF = 0, F^3 != 0
        b = [coh.betti(cx, m) for m in range(7)]
        assert b[1] == 3 and b[2] == 4, b
        theta = lambda i: Form.generator(alg.frame, i - 1)
        f_th1 = wedge(alg.omega, theta(1))
        witness = wedge(theta(2), theta(5)) + wedge(theta(3), theta(6))
        assert f_th1 == coh.differential(cx, witness)
        el1, el2 = coh.el_dim(cx, 1), coh.el_dim(cx, 2)
        assert el1 == 3 and el2 == 2 and el2 < el1
        return {"betti_1": b[1], "betti_2": b[2], "el_dim_1": el1, "el_dim_2": el2}

    def torus():
        alg = coh.bundled_algebra("torus6")
        cx = coh.build_complex(alg)
        b = [coh.betti(cx, m) for m in range(7)]
        assert b == [math.comb(6, m) for m in range(7)], b
        el2 = coh.el_dim(cx, 2)
        h3 = coh.harmonic_dim(cx, 3)
        assert el2 == 6 and b[3] == 20 and el2 < b[3]
        assert h3 == b[3]
        return {"el_dim_2": el2, "betti_3": b[3], "harmonic_3": h3}

    def canonical_recovery():
        for n in (2, 3):
            frame = Frame.darboux(n)
            h = _standard_hamiltonian(n)
            recovered = fl.vector_from_two_form(fl.hamiltonian_two_form(frame, h))
            expected = fl.hamiltonian_field(frame, h)
            assert recovered.components == expected.components
        return {"n_values": "2,3"}

    def contraction_identity():
        rng = random.Random(20040812)
        cases = 0
        for n in (2, 3):
            for _ in range(25):
                alpha = _random_two_form(rng, n)
                x = fl.vector_from_two_form(alpha)  # re-verifies the identity
                assert fw.divergence(x).is_zero
                cases += 1
        return {"cases": cases}

    def coupled_oscillators():
        spec, x = fl.build_linear_system(None, masses=(1, 2, 1))
        assert spec.k[0][1] != spec.k[1][0]
        assert not spec.is_hamiltonian
        assert not fl.classify(x, 1).symplectic_like
        assert fl.classify(x, 2).symplectic_like
        assert fw.divergence(x).is_zero
        roundtrip = fl.vector_from_two_form(fl.linear_system_two_form(spec))
        assert roundtrip.components == x.components
        return {"k12": str(spec.k[0][1]), "k21": str(spec.k[1][0])}

    def liouville_drift():
        _, x = fl.build_linear_system(None, masses=(1, 2, 1))
        cfg = fw.FlowConfig(t_final=10.0, dt=1e-3)
        flow = fw.tangent_flow(x, [1.0, 0.5, 0.25, -0.3], cfg)
        drift = flow.max_det_drift()
        assert drift < DRIFT_TOL, drift
        return {"max_det_drift": f"{drift:.3e}"}

    def area_laws():
        frame = Frame.darboux(2)
        ham = fl.hamiltonian_field(frame, _standard_hamiltonian(2))
        _, osc = fl.build_linear_system(None, masses=(1, 2, 1))
        square = fw.ChainPatch.affine(
            1, [0, 0, 0, 0], [[0, 0, 1, 0], [1, 0, 0, 0]], orders=(4, 4)
        )
        cube = fw.ChainPatch.affine(
            2,
            [0, 0, 0, 0],
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
            orders=(2, 2, 2, 2),
        )
        cfg = fw.FlowConfig(t_final=10.0, dt=1e-3)
        r1 = fw.verify_area_preservation(ham, square, 1, cfg)
        assert r1.hypothesis_ok and r1.rel_drift < DRIFT_TOL, r1
        r2 = fw.verify_area_preservation(ham, cube, 2, cfg)
        assert r2.hypothesis_ok and r2.rel_drift < DRIFT_TOL, r2
        r3 = fw.verify_area_preservation(osc, square, 1, cfg)
        assert not r3.hypothesis_ok
        r4 = fw.verify_area_preservation(osc, cube, 2, cfg)
        assert r4.hypothesis_ok and r4.rel_drift < DRIFT_TOL, r4
        return {
            "ham_sq_drift": f"{r1.rel_drift:.3e}",
            "ham_cube_drift": f"{r2.rel_drift:.3e}",
            "osc_sq_hypothesis": "violated",
            "osc_cube_drift": f"{r4.rel_drift:.3e}",
        }

    return [
        ("sl2-identities", sl2),
        ("injectivity-ranks", injectivity),
        ("nilmanifold-m6", nilmanifold),
        ("torus-t6", torus),
        ("canonical-recovery", canonical_recovery),
        ("contraction-identity", contraction_identity),
        ("coupled-oscillators", coupled_oscillators),
        ("liouville-drift", liouville_drift),
        ("area-laws", area_laws),
    ]


def cmd_paper_verify(args, rep: Reporter) -> int:
    all_ok = True
    for name, check in _bundled_checks():
        try:
            details = check()
            ok = True
        except AssertionError as exc:
            details = {"error": str(exc) or "assertion failed"}
            ok = False
        all_ok = all_ok and ok
        status = "ok" if ok else "FAIL"
        detail_text = " ".join(f"{k}={v}" for k, v in details.items())
        rep.text(f"[{status:>4}] {name}  {detail_text}".rstrip())
        rep.kv(f"{name}.status", "pass" if ok else "fail")
        for k, v in details.items():
            rep.kv(f"{name}.{k}", v)
    rep.text()
    rep.text("all checks passed" if all_ok else "SOME CHECKS FAILED")
    rep.kv("suite.status", "pass" if all_ok else "fail")
    return EXIT_OK if all_ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symplab",
        description="exact symplectic-cohomology checks and flow verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format", choices=("text", "machine"), default="text",
            help="human tables or stable key=value lines",
        )

    p = sub.add_parser("sl2-check", help="verify the operator identities")
    p.add_argument("--n", required=True)
    add_format(p)
    p.set_defaults(func=cmd_sl2_check)

    p = sub.add_parser("cohomology", help="dimension tables of an algebra file")
    p.add_argument("file")
    p.add_argument("--betti", action="store_true")
    p.add_argument("--el", action="store_true")
    p.add_argument("--harmonic", action="store_true")
    add_format(p)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("classify", help="closedness/exactness of -i_X(omega^k)")
    p.add_argument("file")
    p.add_argument("--k", required=True)
    add_format(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("from-two-form", help="volume-preserving field of a 2-form")
    p.add_argument("file")
    add_format(p)
    p.set_defaults(func=cmd_from_two_form)

    p = sub.add_parser("flow", help="tangent-flow and chain conservation reports")
    p.add_argument("file")
    p.add_argument("--t", required=True)
    p.add_argument("--dt", required=True)
    p.add_argument("--chain")
    p.add_argument("--x0")
    p.add_argument("--tol", default=repr(DRIFT_TOL))
    add_format(p)
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("chain", help="(1/l!) integral of omega^l over a chain file")
    p.add_argument("file")
    add_format(p)
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("paper-verify", help="run the full bundled suite")
    add_format(p)
    p.set_defaults(func=cmd_paper_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    rep = Reporter(args.format)
    try:
        code = args.func(args, rep)
    except InputError as exc:
        # a refused input leaves stdout empty: no partial report
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AssertionError as exc:
        rep.flush()
        print(f"assertion failure: {exc}", file=sys.stderr)
        return EXIT_FAIL
    rep.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
