import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import oracles
import pytest

import symplab
from symplab import cli
from symplab.polynomials import check_input_degree, decode_json

try:
    import resource
except ImportError:  # not on Windows
    resource = None


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


OSCILLATOR = {
    "n": 2,
    "components": [
        [["1", 0, 0, 1, 0]],
        [["1", 0, 0, 0, 1]],
        [["1", 1, 0, 0, 0], ["-1", 0, 1, 0, 0]],
        [["-1/2", 1, 0, 0, 0], ["1/2", 0, 1, 0, 0]],
    ],
    "x0": [1.0, 0.5, 0.25, -0.3],
}

SQUARE_CHAIN = {
    "n": 2,
    "l": 1,
    "orders": [4, 4],
    "maps": [[["1", 0, 1]], [], [["1", 1, 0]], []],
}


@pytest.fixture
def oscillator_file(tmp_path):
    path = tmp_path / "osc.field"
    path.write_text(json.dumps(OSCILLATOR))
    return str(path)


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "square.chain"
    path.write_text(json.dumps(SQUARE_CHAIN))
    return str(path)


def test_sl2_check(capsys):
    code, out, _ = run(capsys, ["sl2-check", "--n", "2"])
    assert code == 0
    assert "all identities hold on 16 blades" in out
    assert "f-hat(omega) = 2: ok" in out


def test_cohomology_torus_betti(capsys):
    code, out, _ = run(capsys, ["cohomology", "torus6.alg", "--betti"])
    assert code == 0
    assert out == "betti: 1 6 15 20 15 6 1\n"


def test_cohomology_nilm_el(capsys):
    code, out, _ = run(capsys, ["cohomology", "nilm6.alg", "--el"])
    assert code == 0
    assert "k=1:3" in out and "k=2:2" in out


def test_cohomology_machine_format(capsys):
    code, out, _ = run(
        capsys, ["cohomology", "nilm6", "--betti", "--el", "--format", "machine"]
    )
    assert code == 0
    lines = out.splitlines()
    assert "betti.1=3" in lines
    assert "betti.2=4" in lines
    assert "el_dim.1=3" in lines
    assert "el_dim.2=2" in lines


def _table(prefix, values, start=0):
    return [f"{prefix}.{i}={v}" for i, v in enumerate(values, start)]


# every line of `cohomology NAME --betti --el --harmonic --format machine`
COHOMOLOGY_TABLES = {
    "nilm6": (
        _table("betti", [1, 3, 4, 4, 4, 3, 1])
        + _table("el_dim", [3, 2, 3], 1)
        + _table("harmonic", [1, 3, 4, 2, 2, 0, 1])
    ),
    "torus6": (
        _table("betti", [1, 6, 15, 20, 15, 6, 1])
        + _table("el_dim", [6, 6, 6], 1)
        + _table("harmonic", [1, 6, 15, 20, 15, 6, 1])
    ),
}


@pytest.mark.parametrize("name", sorted(COHOMOLOGY_TABLES))
def test_cohomology_machine_tables_pinned(capsys, name):
    argv = ["cohomology", name, "--betti", "--el", "--harmonic", "--format", "machine"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out.splitlines() == COHOMOLOGY_TABLES[name]


def test_reports_are_byte_identical(capsys):
    argv = ["cohomology", "nilm6", "--betti", "--el", "--harmonic"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_cohomology_missing_file(capsys):
    code, _, err = run(capsys, ["cohomology", "/nonexistent/x.alg"])
    assert code == 2
    assert err.startswith("input error: cannot read /nonexistent/x.alg: ")


def test_cohomology_parse_error_diagnostics(capsys, tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text('{"dim": 6,,}')
    code, _, err = run(capsys, ["cohomology", str(bad)])
    assert code == 2
    assert "line 1" in err and "column" in err


def test_classify(capsys, oscillator_file):
    code, out, _ = run(capsys, ["classify", oscillator_file, "--k", "1"])
    assert code == 0
    assert "symplectic_like: false" in out
    code, out, _ = run(capsys, ["classify", oscillator_file, "--k", "2"])
    assert code == 0
    assert "symplectic_like: true" in out
    assert "potential:" in out


def test_classify_bad_k(capsys, oscillator_file):
    code, _, err = run(capsys, ["classify", oscillator_file, "--k", "5"])
    assert code == 2
    assert err == "input error: --k must be in [1, 2]\n"


def test_from_two_form(capsys, tmp_path):
    h_mono = [
        ["1/2", 2, 0, 0, 0],
        ["1/2", 0, 2, 0, 0],
        ["1/2", 0, 0, 2, 0],
        ["1/2", 0, 0, 0, 2],
    ]
    path = tmp_path / "ham.twoform"
    path.write_text(json.dumps({"n": 2, "A": [[1, 1, h_mono], [2, 2, h_mono]]}))
    code, out, _ = run(capsys, ["from-two-form", str(path)])
    assert code == 0
    assert "dq1/dt = p1" in out
    assert "dp1/dt = -q1" in out
    assert "divergence: 0" in out


def test_from_two_form_antisymmetry_violation(capsys, tmp_path):
    path = tmp_path / "bad.twoform"
    path.write_text(json.dumps({"n": 2, "Q": [[1, 1, [["1", 0, 0, 0, 0]]]]}))
    code, _, err = run(capsys, ["from-two-form", str(path)])
    assert code == 2


def test_chain_command(capsys, chain_file):
    code, out, _ = run(capsys, ["chain", chain_file])
    assert code == 0
    assert "value: 0.999" in out or "value: 1.0" in out
    assert "degenerate: false" in out


def test_flow_tangent_only(capsys, oscillator_file):
    code, out, _ = run(
        capsys, ["flow", oscillator_file, "--t", "2", "--dt", "0.001"]
    )
    assert code == 0
    assert "divergence_zero: true" in out
    assert "max_det_drift:" in out


def test_flow_tolerance_failure_exit(capsys, oscillator_file):
    code, _, _ = run(
        capsys,
        ["flow", oscillator_file, "--t", "2", "--dt", "0.001", "--tol", "1e-20"],
    )
    assert code == 1


def test_flow_missing_x0(capsys, tmp_path):
    data = dict(OSCILLATOR)
    data.pop("x0")
    path = tmp_path / "osc.field"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, ["flow", str(path), "--t", "1", "--dt", "0.01"])
    assert code == 2
    assert "x0" in err


def test_flow_chain_hypothesis_exit(capsys, oscillator_file, chain_file):
    code, out, _ = run(
        capsys,
        ["flow", oscillator_file, "--t", "1", "--dt", "0.001", "--chain", chain_file],
    )
    assert code == 3
    assert "hypothesis_ok: false" in out
    assert "not applicable" in out


def test_flow_has_no_k_option(capsys, oscillator_file, chain_file):
    # the transported quantity depends on the chain's l only
    argv = ["flow", oscillator_file, "--t", "1", "--dt", "0.1", "--chain", chain_file]
    for option in ("--k", "--l"):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + [option, "1"])
        assert exc.value.code == 2
        assert option in capsys.readouterr().err
    code, out, _ = run(capsys, argv)
    assert code == 3  # the oscillator is not symplectic: theorem not applicable
    assert "initial:" in out and "per_step_max_det_drift" not in out


def test_flow_x0_override(capsys, tmp_path):
    data = dict(OSCILLATOR)
    data.pop("x0")
    path = tmp_path / "osc.field"
    path.write_text(json.dumps(data))
    code, out, _ = run(
        capsys,
        ["flow", str(path), "--t", "1", "--dt", "0.01", "--x0", "1,0.5,0.25,-0.3"],
    )
    assert code == 0
    assert "max_det_drift:" in out


def test_flow_embedded_chain(capsys, tmp_path):
    data = dict(OSCILLATOR)
    data["chain"] = SQUARE_CHAIN
    path = tmp_path / "osc.field"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, ["flow", str(path), "--t", "1", "--dt", "0.01"])
    assert code == 3  # the embedded 2-chain hits the symplectic hypothesis
    assert "hypothesis_ok: false" in out


@pytest.mark.parametrize("embedded", [False, True])
def test_flow_refuses_x0_with_a_chain(capsys, tmp_path, chain_file, embedded):
    # a chain transport has no initial point: --x0, even one of the wrong
    # length, is refused rather than ignored, for a chain given by --chain
    # or embedded in the field file
    data = dict(OSCILLATOR, chain=SQUARE_CHAIN) if embedded else OSCILLATOR
    path = _write(tmp_path, "osc.field", data)
    argv = ["flow", path, "--t", "1", "--dt", "0.01", "--x0", "1,2"]
    code, out, err = run(capsys, argv + ([] if embedded else ["--chain", chain_file]))
    assert (code, out) == (2, "")
    assert err == ("input error: --x0 is for a tangent flow; "
                   "a chain transport takes no initial point\n")


def test_chain_degenerate_flag(capsys, tmp_path):
    degenerate = {
        "n": 2,
        "l": 1,
        "orders": [2, 2],
        "maps": [[["1", 0, 0]], [], [], []],
    }
    path = tmp_path / "flat.chain"
    path.write_text(json.dumps(degenerate))
    code, out, _ = run(capsys, ["chain", str(path)])
    assert code == 0
    assert "degenerate: true" in out
    assert "value: 0.0" in out


# q' = p, p' = -q
OSC_N1 = {"n": 1, "components": [[["1", 0, 1]], [["-1", 1, 0]]]}


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("x0", ["nan,0", "inf,0"])
def test_flow_rejects_non_finite_x0(capsys, tmp_path, x0):
    path = _write(tmp_path, "osc.json", OSC_N1)
    code, out, err = run(capsys, ["flow", path, "--t", "1", "--dt", "0.1", "--x0", x0])
    assert code == 2
    assert err == "input error: x0 coordinates must be finite\n"
    assert "max_det_drift" not in out


def test_flow_rejects_underscore_x0(capsys, tmp_path):
    # float() reads "1_0" as 10.0; a coordinate is plain number text
    path = _write(tmp_path, "osc.json", OSC_N1)
    code, out, err = run(capsys, ["flow", path, "--t", "0.1", "--dt", "0.1", "--x0", "1_0,0"])
    assert code == 2
    assert out == ""
    assert err == "input error: x0 must be a list of numbers\n"


NUMBER_FLAGS = {
    # float() and int() read digit-group underscores: "1_0" once ran to
    # t = 10 and "1_0e-1" stepped at dt = 1.0
    "t-underscore": ("flow", ["--t", "1_0", "--dt", "0.1"], "--t must be a number"),
    "dt-underscore": ("flow", ["--t", "1", "--dt", "1_0e-1"], "--dt must be a number"),
    "t-not-a-number": ("flow", ["--t", "ten", "--dt", "0.1"], "--t must be a number"),
    # a NaN or negative tolerance once made a passing run exit 1
    "tol-nan": ("flow", ["--t", "1", "--dt", "0.1", "--tol", "nan"],
                "--tol must be finite and nonnegative"),
    "tol-negative": ("flow", ["--t", "1", "--dt", "0.1", "--tol", "-1"],
                     "--tol must be finite and nonnegative"),
    "tol-underscore": ("flow", ["--t", "1", "--dt", "0.1", "--tol", "1_0"],
                       "--tol must be a number"),
    "n-underscore": ("sl2-check", ["--n", "1_0"], "--n must be an integer"),
    "k-underscore": ("classify", ["--k", "1_0"], "--k must be an integer"),
    "k-not-an-integer": ("classify", ["--k", "1.0"], "--k must be an integer"),
}


@pytest.mark.parametrize("case", sorted(NUMBER_FLAGS))
def test_number_flags_are_refused(capsys, tmp_path, case):
    command, flags, message = NUMBER_FLAGS[case]
    path = _write(tmp_path, "osc.json", OSC_N1)
    argv = [command, *flags] if command == "sl2-check" else [command, path, *flags]
    code, out, err = run(capsys, argv + (["--x0", "1,0"] if command == "flow" else []))
    assert (code, out, err) == (2, "", f"input error: {message}\n")


def test_input_error_writes_no_partial_report(capsys, tmp_path):
    # the symbolic part of the report is built before x0 is refused
    path = _write(tmp_path, "osc.json", OSC_N1)
    code, out, err = run(capsys, ["flow", path, "--t", "1", "--dt", "0.1", "--x0", "nan,0"])
    assert code == 2
    assert out == ""
    assert err.startswith("input error:")


def test_flow_rejects_non_finite_x0_entry(capsys, tmp_path):
    # json writes the float as the literal NaN, which the decoder reads back
    path = _write(tmp_path, "osc.json", dict(OSC_N1, x0=[float("nan"), 0]))
    code, _, err = run(capsys, ["flow", path, "--t", "1", "--dt", "0.1"])
    assert code == 2
    assert "finite" in err


@pytest.mark.parametrize("x0", ["12", [True, False]])
def test_flow_file_x0_must_be_a_list_of_numbers(capsys, tmp_path, x0):
    # a string is not read as its characters, nor a boolean as 0 or 1
    path = _write(tmp_path, "osc.json", dict(OSC_N1, x0=x0))
    code, out, err = run(capsys, ["flow", path, "--t", "1", "--dt", "0.1"])
    assert code == 2
    assert out == ""
    assert err == f"input error: {path}: x0 must be a list of numbers\n"


@pytest.mark.parametrize("t, dt", [("inf", "0.1"), ("1", "nan")])
def test_flow_rejects_non_finite_times(capsys, tmp_path, t, dt):
    path = _write(tmp_path, "osc.json", OSC_N1)
    code, _, err = run(capsys, ["flow", path, "--t", t, "--dt", dt, "--x0", "1,0"])
    assert code == 2
    assert err == "input error: t_final and dt must be finite\n"


def test_flow_nan_det_drift_fails(capsys, tmp_path):
    # from the origin the state stays 0 while the stepped J overflows, so
    # det J turns NaN.  That must not exit 0, whether the divergence is zero
    # (the saddle q' = q + p^2, p' = -p) or not (q' = q + p^2, p' = p, where
    # no tolerance applies), and the run's determinants warn about nothing.
    # The p^2 term makes the fields nonlinear, so the stage loop steps J
    for name, p_coeff, div in (("saddle", "-1", "true"), ("expanding", "1", "false")):
        field = {"n": 1, "components": [[["1", 1, 0], ["1", 0, 2]], [[p_coeff, 0, 1]]]}
        path = _write(tmp_path, f"{name}.json", field)
        for fmt, sep in (("text", ": "), ("machine", "=")):
            code, out, err = run(capsys, [
                "flow", path, "--t", "12000", "--dt", "1", "--x0", "0,0", "--format", fmt,
            ])
            assert code == 1
            assert out.splitlines() == [
                f"divergence_zero{sep}{div}", f"blow_up{sep}false", f"max_det_drift{sep}nan",
            ]
            assert err == ""


def test_chain_non_finite_value_fails(capsys, tmp_path):
    # each coefficient fits a longdouble, but their product overflows in
    # the determinants; the value says so, and no warning reaches stderr
    big = {"n": 1, "l": 1, "orders": [2, 2], "maps": [[["1e3000", 1, 0]], [["1e3000", 0, 1]]]}
    path = _write(tmp_path, "big.chain", big)
    code, out, err = run(capsys, ["chain", path, "--format", "machine"])
    assert (code, out.splitlines(), err) == (1, ["value=-inf", "degenerate=false"], "")


@pytest.mark.parametrize("coeff, rounds_to", [("1e5000", "inf"), ("-1e-5000", "0")])
def test_out_of_range_coefficient_is_an_input_error(capsys, tmp_path, coeff, rounds_to):
    # once a traceback: the exact coefficient does not convert to a
    # longdouble.  The refusal names the file: a chain file, a field file,
    # a chain inside a field file and a --chain file
    reason = f"coefficient ~{coeff} rounds to {rounds_to} in longdouble"
    chain = dict(CHAIN_N1, maps=[[[coeff, 1, 0]], [["1", 0, 1]]])
    chain_path = _write(tmp_path, "c.chain", chain)
    code, out, err = run(capsys, ["chain", chain_path])
    assert (code, out, err) == (2, "", f"input error: {chain_path}: {reason}\n")
    steps = ["--t", "1", "--dt", "0.1"]
    for field, argv, named in (
        ({"n": 1, "components": [[[coeff, 0, 1]], [["-1", 1, 0]]]}, ["--x0", "1,0"], None),
        (dict(OSC_N1, chain=chain), [], None),
        (OSC_N1, ["--chain", chain_path], chain_path),
    ):
        path = _write(tmp_path, "f.json", field)
        code, out, err = run(capsys, ["flow", path, *steps, *argv])
        assert (code, out, err) == (2, "", f"input error: {named or path}: {reason}\n")


def test_out_of_range_derivative_coefficient_names_its_term(capsys, tmp_path):
    # 1e4931 fits a longdouble, but 12 * 1e4931, the coefficient of the
    # partial derivative of component 1 in x1, does not; the refusal names
    # that term, in a field file and in a chain file
    field = {"n": 1, "components": [[["1e4931", 12, 0]], [["-1", 1, 0]]]}
    path = _write(tmp_path, "d.json", field)
    code, out, err = run(capsys, ["flow", path, "--t", "1", "--dt", "0.1", "--x0", "0,0"])
    assert (code, out, err) == (2, "", (
        f"input error: {path}: coefficient ~1e4932 of the partial derivative of "
        "component 1 in x1 rounds to inf in longdouble\n"
    ))
    chain = dict(CHAIN_N1, maps=[[["1", 1, 0]], [["1e4931", 0, 12]]])
    path = _write(tmp_path, "d.chain", chain)
    code, out, err = run(capsys, ["chain", path])
    assert (code, out, err) == (2, "", (
        f"input error: {path}: coefficient ~1e4932 of the partial derivative of "
        "component 2 in x2 rounds to inf in longdouble\n"
    ))


# the Hamiltonian oscillator q' = p, p' = -q at n = 2
HAM_N2 = {"n": 2, "components": [[["1", 0, 0, 1, 0]], [["1", 0, 0, 0, 1]],
                                 [["-1", 1, 0, 0, 0]], [["-1", 0, 1, 0, 0]]]}


def test_flow_chain_zero_initial_integral_omits_rel_drift(capsys, tmp_path):
    # the Lagrangian square on dq1, dq2 has integral 0 and stays Lagrangian
    # under the Hamiltonian oscillator; no relative drift is printed, and
    # abs_drift decides the exit code
    square = {"n": 2, "l": 1, "orders": [1, 1], "maps": [[["1", 1, 0]], [["1", 0, 1]], [], []]}
    argv = ["flow", _write(tmp_path, "ham.json", HAM_N2), "--chain",
            _write(tmp_path, "sq.chain", square), "--t", "1", "--dt", "0.01"]
    code, out, _ = run(capsys, argv + ["--format", "machine"])
    assert code == 0
    assert out.splitlines() == [
        "divergence_zero=true", "quantity=(1/1!)_int_omega^1", "initial=0.0", "final=0.0",
        "abs_drift=0.0", "hypothesis_ok=true", "blow_up=false",
    ]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out.splitlines() == [
        "divergence_zero: true", "(1/1!) int omega^1 over t in [0, 1.0] at dt=0.01:",
        "initial: 0.0", "final: 0.0", "abs_drift: 0.0", "hypothesis_ok: true",
        "blow_up: false", "symplectic field: omega^l conserved for every l",
    ]


def test_chain_rejects_inexact_quadrature(capsys, tmp_path):
    # (u^400, v): 4 Gauss-Legendre points gave -2.4e-11 for the exact -1
    high = {"n": 1, "l": 1, "orders": [4, 4], "maps": [[["1", 400, 0]], [["1", 0, 1]]]}
    code, out, err = run(capsys, ["chain", _write(tmp_path, "u400.chain", high)])
    assert code == 2
    assert "degree 400" in err and "value" not in out
    # within the degree limit, orders too small for the pullback are refused
    low = dict(high, maps=[[["1", 12, 0]], [["1", 0, 1]]])
    code, _, err = run(capsys, ["chain", _write(tmp_path, "u12.chain", low)])
    assert code == 2
    assert "Gauss-Legendre" in err
    code, out, _ = run(
        capsys, ["chain", _write(tmp_path, "u12ok.chain", dict(low, orders=[6, 1]))]
    )
    assert code == 0
    assert abs(float(out.split("value: ")[1].split()[0]) + 1.0) < 1e-12


def test_flow_chain_machine_format(capsys, oscillator_file, chain_file):
    code, out, _ = run(
        capsys,
        [
            "flow", oscillator_file, "--t", "1", "--dt", "0.001",
            "--chain", chain_file, "--format", "machine",
        ],
    )
    assert code == 3
    keys = {line.split("=")[0] for line in out.splitlines()}
    assert {"initial", "final", "abs_drift", "rel_drift", "hypothesis_ok"} <= keys


def test_flow_chain_per_step_det_drift_only_for_l_equal_n(capsys, tmp_path, chain_file):
    # the unit 4-cube (l = n = 2) under the oscillator prints the per-step
    # det drift.  Each of its two rotation blocks has det R(hA) =
    # 1 - h^6/72 + h^8/576 exactly, so after 100 steps of h = 1/100 the
    # drift is 1 - (det R)^200 = 2.78e-12, within the rounding of 4 stage
    # products a step; the square (l = 1 < n) prints none
    ham = _write(tmp_path, "ham.json", HAM_N2)
    argv = ["flow", ham, "--t", "1", "--dt", "0.01", "--format", "machine"]
    code, out, _ = run(capsys, argv + ["--chain", _write(tmp_path, "l2.chain", CHAIN_L2)])
    assert code == 0
    lines = dict(line.split("=", 1) for line in out.splitlines())
    h = Fraction(1, 100)
    exact = 1 - (1 - h**6 / 72 + h**8 / 576) ** 200
    drift = float(lines["per_step_max_det_drift"])
    assert f"{drift:.2e}" == "2.78e-12"
    assert abs(drift - float(exact)) <= 4 * 100 * float(np.finfo(np.longdouble).eps)
    assert lines["hypothesis_ok"] == "true" and lines["blow_up"] == "false"
    code, out, _ = run(capsys, argv + ["--chain", chain_file])
    assert code == 0
    assert "hypothesis_ok=true" in out and "per_step_max_det_drift" not in out


# q' = q^2, p' = -2qp: divergence-free, and past the norm cap near t = 1
# from q = 1
BLOW_UP_N1 = {"n": 1, "components": [[["1", 2, 0]], [["-2", 1, 1]]]}
# the square [1, 2]^2
SQUARE_12 = {"n": 1, "l": 1, "orders": [2, 2],
             "maps": [[["1", 0, 0], ["1", 1, 0]], [["1", 0, 0], ["1", 0, 1]]]}


@pytest.mark.parametrize("fmt, sep", [("text", ": "), ("machine", "=")])
def test_flow_blow_up_exits_1(capsys, tmp_path, fmt, sep):
    # a transport and a tangent flow that blow up both exit 1 with
    # blow_up true and NaN values, no det drift for the transport, and no
    # warning on stderr
    field = _write(tmp_path, "blow.json", BLOW_UP_N1)
    argv = ["flow", field, "--t", "2", "--dt", "0.01", "--format", fmt]
    code, out, err = run(capsys, argv + ["--chain", _write(tmp_path, "sq.chain", SQUARE_12)])
    assert (code, err) == (1, "")
    values = [f"{key}{sep}{value}" for key, value in (
        ("initial", "-1.0"), ("final", "nan"), ("abs_drift", "nan"), ("rel_drift", "nan"),
        ("hypothesis_ok", "true"), ("blow_up", "true"),
    )]
    if fmt == "machine":
        assert out.splitlines() == ["divergence_zero=true", "quantity=(1/1!)_int_omega^1", *values]
    else:
        assert out.splitlines() == [
            "divergence_zero: true", "(1/1!) int omega^1 over t in [0, 2.0] at dt=0.01:",
            *values, "divergence-free field: phase volume conserved",
        ]
    code, out, err = run(capsys, argv + ["--x0", "1,1"])
    assert (code, err) == (1, "")
    lines = [f"divergence_zero{sep}true", f"blow_up{sep}true", f"max_det_drift{sep}nan"]
    if fmt == "text":
        lines.append("trajectory exceeded the norm cap: blow-up")
    assert out.splitlines() == lines


@pytest.mark.parametrize("x0, message", [
    ("1,2,3", "x0 needs 4 coordinates"),
    ("1,a,3,4", "x0 must be a list of numbers"),
])
def test_flow_refuses_malformed_x0_flag(capsys, oscillator_file, x0, message):
    argv = ["flow", oscillator_file, "--t", "1", "--dt", "0.01", "--x0", x0]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"input error: {message}\n"


def test_cohomology_custom_file(capsys, tmp_path):
    path = tmp_path / "kt4.alg"
    path.write_text(
        json.dumps(
            {
                "dim": 4,
                "d": [[1, 2, 4, "1"]],
                "omega": [[1, 3, "1"], [2, 4, "1"]],
            }
        )
    )
    code, out, _ = run(capsys, ["cohomology", str(path), "--betti", "--el"])
    assert code == 0
    assert "betti: 1 3 4 3 1" in out
    assert "k=1:3 k=2:3" in out


def test_cohomology_file_on_disk_shadows_bundled_name(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    torus4 = {"dim": 4, "d": [], "omega": [[1, 3, "1"], [2, 4, "1"]]}
    (tmp_path / "nilm6.alg").write_text(json.dumps(torus4))
    code, out, _ = run(capsys, ["cohomology", "nilm6.alg", "--betti"])
    assert code == 0
    assert out == "betti: 1 4 6 4 1\n"
    # no file named "nilm6" here: the name resolves to the bundled algebra
    code, out, _ = run(capsys, ["cohomology", "nilm6", "--betti"])
    assert code == 0
    assert out == "betti: 1 3 4 4 4 3 1\n"


def test_cohomology_rejects_bad_structure(capsys, tmp_path):
    # d(th3^th4) = -th3^th1^th2 != 0: omega not closed for this structure
    path = tmp_path / "bad.alg"
    path.write_text(
        json.dumps(
            {"dim": 4, "d": [[1, 2, 4, "1"]], "omega": [[1, 2, "1"], [3, 4, "1"]]}
        )
    )
    code, _, err = run(capsys, ["cohomology", str(path)])
    assert code == 2
    assert "not closed" in err


# every line of the suite's machine report, in order; new keys may come in
# between, but none of these lines may change
PAPER_VERIFY_MACHINE = [
    "sl2-identities.status=pass",
    "sl2-identities.n_max=4",
    "sl2-identities.blade_checks=1252",
    "injectivity-ranks.status=pass",
    "injectivity-ranks.n_max=4",
    "nilmanifold-m6.status=pass",
    "nilmanifold-m6.betti_1=3",
    "nilmanifold-m6.betti_2=4",
    "nilmanifold-m6.el_dim_1=3",
    "nilmanifold-m6.el_dim_2=2",
    "torus-t6.status=pass",
    "torus-t6.el_dim_2=6",
    "torus-t6.betti_3=20",
    "torus-t6.harmonic_3=20",
    "canonical-recovery.status=pass",
    "canonical-recovery.n_values=2,3",
    "contraction-identity.status=pass",
    "contraction-identity.cases=50",
    "coupled-oscillators.status=pass",
    "coupled-oscillators.k12=1",
    "coupled-oscillators.k21=1/2",
    "liouville-drift.status=pass",
    "liouville-drift.max_det_drift=4.688e-16",
    "area-laws.status=pass",
    "area-laws.ham_sq_drift=1.389e-16",
    "area-laws.ham_cube_drift=2.778e-16",
    "area-laws.osc_sq_hypothesis=violated",
    "area-laws.osc_cube_drift=4.688e-16",
    "suite.status=pass",
]


def test_paper_verify(capsys):
    code, out, _ = run(capsys, ["paper-verify", "--format", "machine"])
    assert code == 0
    rest = iter(out.splitlines())
    missing = [line for line in PAPER_VERIFY_MACHINE if line not in rest]
    assert not missing


def test_paper_verify_passes_its_drift_checks_in_double_precision(capsys, monkeypatch):
    # every affine drift is RK4's exact truncation, formed from rationals,
    # so with float64 in place of longdouble the suite passes, and its l = n
    # lines (the det drift and the two cube drifts) are the longdouble
    # run's; only the ham square's quadrature rounds otherwise
    code, out, _ = run(capsys, ["paper-verify", "--format", "machine"])
    extended = dict(line.split("=", 1) for line in out.splitlines())
    f64 = np.finfo(np.float64)
    monkeypatch.setattr(cli.fw, "WORK_DTYPE", np.float64)
    monkeypatch.setattr(cli.fw, "_MANT_BITS", f64.nmant + 1)
    monkeypatch.setattr(cli.fw, "_QUANTUM_SHIFT", f64.nmant - f64.minexp)
    code, out, _ = run(capsys, ["paper-verify", "--format", "machine"])
    assert code == 0
    lines = dict(line.split("=", 1) for line in out.splitlines())
    assert lines["suite.status"] == "pass"
    for key in ("liouville-drift.max_det_drift", "area-laws.ham_cube_drift",
                "area-laws.osc_cube_drift"):
        assert lines[key] == extended[key]


def test_paper_verify_affine_figures_match_the_stability_oracle(capsys):
    # paper-verify's affine drifts are RK4's exact det truncation
    # |(det R)^N - 1| at N = 10^4 steps of h = 1e-3, from the test-side
    # stability oracle: the osc cube's det and volume drifts, and the ham
    # cube's volume drift; criterion 7's tangent flow of the osc field
    # reports the same figure to 1e-12 relative
    _, osc = symplab.fields.build_linear_system(None, masses=(1, 2, 1))
    ham = symplab.fields.hamiltonian_field(
        symplab.Frame.darboux(2), cli._standard_hamiltonian(2))
    h = Fraction(1e-3)
    osc_drift, ham_drift = (oracles.rk4_det_power_drift(oracles.constant_jacobian(x), h, 10**4)
                            for x in (osc, ham))
    code, out, _ = run(capsys, ["paper-verify", "--format", "machine"])
    assert code == 0
    lines = dict(line.split("=", 1) for line in out.splitlines())
    assert lines["liouville-drift.max_det_drift"] == f"{osc_drift:.3e}" == "4.688e-16"
    assert lines["area-laws.osc_cube_drift"] == f"{osc_drift:.3e}"
    assert lines["area-laws.ham_cube_drift"] == f"{ham_drift:.3e}" == "2.778e-16"
    flow = symplab.flows.tangent_flow(osc, [1.0, 0.5, 0.25, -0.3],
                                      symplab.flows.FlowConfig(10.0, 1e-3))
    assert flow.max_det_drift() == pytest.approx(osc_drift, rel=1e-12)


def test_paper_verify_transports_only_where_the_hypothesis_holds(capsys, monkeypatch):
    # the osc square violates L_X omega = 0, which is decided exactly, so
    # it is not transported; the three chains that are transported all meet
    # their theorem's hypothesis
    reports = []
    transport = cli.fw.verify_area_laws

    def recording(x, chains, cfg):
        reports.extend(transport(x, chains, cfg))
        return reports[-len(chains):]

    monkeypatch.setattr(cli.fw, "verify_area_laws", recording)
    code, _, _ = run(capsys, ["paper-verify", "--format", "machine"])
    assert code == 0
    assert [report.hypothesis_ok for report in reports] == [True, True, True]


def test_paper_verify_flow_work(capsys, monkeypatch):
    # one run per affine field, each of 10^4 steps: the ham square and cube
    # share one, the osc cube (whose det drift liouville-drift reads) the
    # other.  The step bound clears both, so neither takes an RK4 step, and
    # no det is checked: the only batch_det calls are the pullbacks of the
    # three chains before and of the ham square after, 6 calls of 16 nodes
    # (the cubes' integrals after are scaled by the exact det J_N)
    runs, decisions, sizes = [], [], []
    rk4_run, proven, batch_det = cli.fw._rk4_run, cli.fw._proven, cli.fw.batch_det

    def counted_run(compiled, xs, cfg, *args, **kwargs):
        runs.append(cfg.steps)
        return rk4_run(compiled, xs, cfg, *args, **kwargs)

    def decided(*args):
        decisions.append(proven(*args))
        return decisions[-1]

    def counted_det(mats):
        sizes.append(len(mats))
        return batch_det(mats)

    def no_step(*args):
        raise AssertionError("paper-verify takes no RK4 step")

    monkeypatch.setattr(cli.fw, "_rk4_run", counted_run)
    monkeypatch.setattr(cli.fw, "_proven", decided)
    monkeypatch.setattr(cli.fw, "batch_det", counted_det)
    monkeypatch.setattr(cli.fw, "_stage_blocks", no_step)
    code, _, _ = run(capsys, ["paper-verify", "--format", "machine"])
    assert code == 0
    assert runs == [10**4, 10**4] and decisions == [True, True]
    assert sizes == [16] * 6


def test_area_laws_fails_if_the_oscillator_were_symplectic(capsys, monkeypatch):
    # area-laws asserts the exact test L_X omega != 0 for the osc square
    checks = dict(cli._bundled_checks())
    monkeypatch.setattr(cli, "_bundled_checks", lambda: [("area-laws", checks["area-laws"])])
    monkeypatch.setattr(cli.fl, "lie_derivative", lambda x, a: symplab.Form.zero(a.frame))
    code, out, _ = run(capsys, ["paper-verify", "--format", "machine"])
    assert code == 1
    assert out.splitlines() == [
        "area-laws.status=fail", "area-laws.error=assertion failed", "suite.status=fail",
    ]


def _failing_suite(name, message):
    """The bundled suite with the check ``name`` failing with ``message``."""
    checks = cli._bundled_checks()

    def fail():
        raise AssertionError(message)

    return lambda: [(n, fail if n == name else check) for n, check in checks]


def test_paper_verify_reports_a_failing_check(capsys, monkeypatch):
    # one failing check fails the suite; the checks after it still run
    # and report
    monkeypatch.setattr(cli, "_bundled_checks", _failing_suite("torus-t6", "b3 = 19"))
    code, out, _ = run(capsys, ["paper-verify", "--format", "machine"])
    assert code == 1
    lines = out.splitlines()
    i = lines.index("torus-t6.status=fail")
    assert lines[i + 1] == "torus-t6.error=b3 = 19"
    assert lines[-1] == "suite.status=fail"
    assert "nilmanifold-m6.status=pass" in lines[:i]
    assert "area-laws.status=pass" in lines[i:]
    code, out, _ = run(capsys, ["paper-verify"])
    assert code == 1
    lines = out.splitlines()
    assert "[FAIL] torus-t6  error=b3 = 19" in lines
    assert "[  ok] area-laws" in [line[:16] for line in lines]
    assert lines[-1] == "SOME CHECKS FAILED"


def test_assertion_failure_exits_1_with_partial_report(capsys, monkeypatch, oscillator_file):
    # an AssertionError out of a command prints the report so far and the
    # failure on stderr, and exits 1
    def failing(x, x0, cfg):
        raise AssertionError("det J check failed")

    monkeypatch.setattr(cli.fw, "tangent_flow", failing)
    code, out, err = run(capsys, ["flow", oscillator_file, "--t", "1", "--dt", "0.1"])
    assert (code, out) == (1, "divergence_zero: true\n")
    assert err == "assertion failure: det J check failed\n"


# ---------------------------------------------------------------------------
# the input boundary: exit 2 is exactly symplab.InputError
# ---------------------------------------------------------------------------

ALG4 = {"dim": 4, "d": [[1, 2, 4, "1"]], "omega": [[1, 3, "1"], [2, 4, "1"]]}
CHAIN_N1 = {"n": 1, "l": 1, "orders": [2, 2], "maps": [[["1", 1, 0]], [["1", 0, 1]]]}
CHAIN_L2 = {
    "n": 2,
    "l": 2,
    "orders": [1, 1, 1, 1],
    "maps": [[["1", 1, 0, 0, 0]], [["1", 0, 1, 0, 0]], [["1", 0, 0, 1, 0]], [["1", 0, 0, 0, 1]]],
}

# (command, input file content, the rest of argv, whether the refusal comes
# from the input file and must name it, then any text the refusal must
# contain); l2.chain holds CHAIN_L2
MALFORMED = {
    "float-field-coefficient": (
        "classify", {"n": 1, "components": [[[1.5, 0, 1]], [["-1", 1, 0]]]}, ["--k", "1"], True),
    "float-two-form-coefficient": (
        "from-two-form", {"n": 2, "Q": [[1, 2, [[0.5, 0, 0, 0, 0]]]]}, [], True),
    "zero-denominator-field": (
        "classify", {"n": 1, "components": [[["1/0", 0, 1]], [["-1", 1, 0]]]}, ["--k", "1"], True,
        "rational with a zero denominator"),
    "zero-denominator-alg-d": ("cohomology", dict(ALG4, d=[[1, 2, 4, "1/0"]]), [], True),
    "zero-denominator-alg-omega": (
        "cohomology", dict(ALG4, omega=[[1, 3, "1/0"], [2, 4, "1"]]), [], True),
    "zero-denominator-chain": (
        "chain", dict(CHAIN_N1, maps=[[["1/0", 1, 0]], [["1", 0, 1]]]), [], True),
    "component-not-a-list": ("classify", {"n": 1, "components": [5, []]}, ["--k", "1"], True),
    "x0-not-a-list": (
        "flow", dict(OSC_N1, x0=3), ["--t", "1", "--dt", "0.1"], True),
    "alg-d-row-not-a-list": ("cohomology", dict(ALG4, d=[5]), [], True),
    "two-form-entry-not-a-list": ("from-two-form", {"n": 2, "Q": [[1, 2, 5]]}, [], True),
    "two-form-block-not-a-list": ("from-two-form", {"n": 2, "Q": 7}, [], True),
    "float-alg-omega": ("cohomology", {"dim": 2, "d": [], "omega": [[1, 2, 0.5]]}, [], True),
    "field-n-zero": ("classify", {"n": 0, "components": []}, ["--k", "1"], True,
                     "n = 0 is outside [1, 6]; desk-scale inputs only"),
    "monomial-too-short": (
        "classify", {"n": 1, "components": [[["1", 0]], [["-1", 1, 0]]]}, ["--k", "1"], True,
        "monomial ['1', 0] needs 1 coefficient + 2 exponents"),
    "negative-exponent": (
        "classify", {"n": 1, "components": [[["1", -1, 1]], [["-1", 1, 0]]]}, ["--k", "1"], True,
        "negative exponent"),
    "alg-omega-row-too-short": (
        "cohomology", dict(ALG4, omega=[[1, 3]]), [], True, "omega row [1, 3] needs [i, j, c]"),
    "two-form-entry-too-short": (
        "from-two-form", {"n": 2, "Q": [[1, 2]]}, [], True, "Q entry [1, 2] needs [i, j, monomials]"),
    "no-initial-point": (
        "flow", OSC_N1, ["--t", "1", "--dt", "0.1"], False,
        "no initial point: give --x0 or an 'x0' file entry"),
    "alg-omega-not-a-number": (
        "cohomology", dict(ALG4, omega=[[1, 3, "x"], [2, 4, "1"]]), [], True),
    "x0-entry-not-a-number": (
        "flow", dict(OSC_N1, x0=["a", 0]), ["--t", "1", "--dt", "0.1"], True),
    "alg-not-utf8": ("cohomology", b'\xff\xfe\x00{"dim"', [], True),
    "json-nested-too-deep": ("chain", b"[" * 100000 + b"]" * 100000, [], True),
    "dt-zero": ("flow", OSC_N1, ["--t", "1", "--dt", "0", "--x0", "1,0"], False),
    "over-step-budget": ("flow", OSC_N1, ["--t", "1e7", "--dt", "1", "--x0", "1,0"], False),
    "chain-l-above-field-n": (
        "flow", OSC_N1, ["--t", "1", "--dt", "0.1", "--chain", "l2.chain"], False),
    "chain-maps-not-2n": ("chain", dict(CHAIN_N1, maps=[[], [], []]), [], True,
                          "'maps' must list 2n monomial lists"),
    "chain-order-zero": (
        "chain", dict(CHAIN_N1, orders=[0, 2]), [], True, "quadrature orders must be >= 1"),
    "chain-l-above-own-n": (
        "chain", dict(CHAIN_N1, l=2, orders=[1, 1, 1, 1],
                      maps=[[["1", 1, 0, 0, 0]], [["1", 0, 1, 0, 0]]]), [], True,
        "a 2l-chain needs l <= n, but l = 2 and n = 1"),
    "chain-orders-not-2l": (
        "chain", dict(CHAIN_N1, orders=[2, 2, 2]), [], True,
        "need one quadrature order per parameter axis"),
    "chain-map-degree": (
        "chain", dict(CHAIN_N1, orders=[7, 1], maps=[[["1", 13, 0]], [["1", 0, 1]]]), [], True,
        "chain map component has total degree 13 > 12; desk-scale inputs only"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_an_input_error(capsys, tmp_path, monkeypatch, case):
    command, content, rest, from_file, *texts = MALFORMED[case]
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "l2.chain", CHAIN_L2)
    path = tmp_path / "input.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(json.dumps(content))
    code, out, err = run(capsys, [command, "input.json", *rest])
    assert code == 2, err
    assert out == ""
    assert err.startswith("input error:")
    if from_file:
        assert err.startswith("input error: input.json: ")
    for text in texts:
        assert text in err


def test_internal_fault_is_not_an_input_error(capsys, monkeypatch):
    def broken(cx, m):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli.coh, "betti", broken)
    with pytest.raises(ValueError, match="internal fault") as exc:
        cli.main(["cohomology", "nilm6"])
    assert not isinstance(exc.value, symplab.InputError)


def _theta_wedge(*pairs):
    """Sum of theta^i ^ theta^j over 0-based (i, j) pairs on a 6-dim algebra."""
    frame = symplab.Frame.invariant(6)
    out = symplab.Form.zero(frame)
    for i, j in pairs:
        out = out + symplab.wedge(symplab.Form.generator(frame, i), symplab.Form.generator(frame, j))
    return out


def _nilm_with(structure=(), omega=None):
    alg = symplab.bundled_algebra("nilm6")
    return symplab.LieAlgebra(alg.structure + structure, omega or alg.omega)


def _constants(rows):
    """A matrix of constant polynomials on R^4."""
    return tuple(tuple(symplab.Poly.constant(4, c) for c in row) for row in rows)


def _unit_cube():
    return symplab.ChainPatch.affine(
        2, [0, 0, 0, 0], [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
        orders=(2, 2, 2, 2),
    )


REFUSALS = {
    "field_from_data": (
        lambda: symplab.fields.field_from_data(decode_json('{"n": 2, "components": [[]]}')),
        "'components' must list 2n monomial lists",
    ),
    "two_form_from_data": (
        lambda: symplab.fields.two_form_from_data(
            decode_json('{"n": 2, "Q": [[1, 1, [["1", 0, 0, 0, 0]]]]}')
        ),
        "Q diagonal entry must vanish",
    ),
    "parse_algebra": (
        lambda: symplab.parse_algebra('{"dim": 6,,}'),
        "parse error at line 1, column 11: Expecting property name enclosed in double quotes",
    ),
    "build_complex-jacobi": (
        lambda: symplab.build_complex(_nilm_with(structure=((1, 4, 5, 1),))),
        "d.d != 0 from degree 1: structure constants violate Jacobi",
    ),
    "build_complex-not-closed": (
        lambda: symplab.build_complex(_nilm_with(omega=_theta_wedge((0, 3), (1, 4), (2, 5)))),
        "distinguished 2-form is not closed",
    ),
    "build_complex-degenerate": (
        lambda: symplab.build_complex(symplab.LieAlgebra((), _theta_wedge((0, 1)))),
        "distinguished 2-form is degenerate: omega^n = 0",
    ),
    "TwoFormData-antisymmetry": (
        lambda: symplab.TwoFormData(symplab.Frame.darboux(2), _constants([[0, 1], [1, 0]]),
                                    _constants([[0, 0]] * 2), _constants([[0, 0]] * 2)),
        "Q[1][2] != -Q[2][1]",
    ),
    "check_input_degree": (
        lambda: check_input_degree(symplab.Poly.variable(1, 0) ** 13),
        "polynomial has total degree 13 > 12; desk-scale inputs only",
    ),
    "ChainPatch": (
        lambda: symplab.ChainPatch(
            (symplab.Poly.variable(2, 0) ** 12, symplab.Poly.variable(2, 1)), (4, 4)
        ),
        "axis 0: 4 Gauss-Legendre points are exact up to degree 7, but the omega^1 "
        "pullback may reach degree 11; need an order of at least 6",
    ),
    "ChainPatch-degree": (
        lambda: symplab.ChainPatch(
            (symplab.Poly.variable(2, 0) ** 13, symplab.Poly.variable(2, 1)), (7, 1)
        ),
        "chain map component has total degree 13 > 12; desk-scale inputs only",
    ),
    "ChainPatch-odd-maps": (
        lambda: symplab.ChainPatch((symplab.Poly.variable(2, 0),) * 3, (1, 1)),
        "need one map component per phase-space coordinate",
    ),
    "FlowConfig": (lambda: symplab.FlowConfig(1.0, 0.0), "dt must be positive"),
    "chain_integral-n3": (
        lambda: symplab.chain_integral(_unit_cube(), n=3),
        "patch ambient dimension != 2n",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusals_raise_exactly_input_error(case):
    call, message = REFUSALS[case]
    with pytest.raises(symplab.InputError) as exc:
        call()
    assert type(exc.value) is symplab.InputError
    assert str(exc.value) == message


def _mixed_degree_form():
    frame = symplab.Frame.darboux(1)
    return symplab.Form.scalar(frame, 1) + symplab.Form.generator(frame, 0)


def _zero_field(n, nvars=None):
    frame = symplab.Frame.darboux(n)
    zero = symplab.Poly.zero(2 * n if nvars is None else nvars)
    return symplab.PolyVectorField(frame, (zero,) * 2 * n)


def _abelian_plane():
    # the abelian 2-dimensional algebra with omega = dq1 ^ dp1
    return symplab.build_complex(symplab.LieAlgebra((), _omega1()))


def _omega1():
    return symplab.omega(symplab.Frame.darboux(1))


MISUSES = {
    "frame-mismatch": (
        lambda: symplab.wedge(
            symplab.Form.generator(symplab.Frame.darboux(1), 0),
            symplab.Form.generator(symplab.Frame.darboux(2), 0),
        ),
        "forms live over different frames",
    ),
    "op_h-mixed-degree": (
        lambda: symplab.op_h(_mixed_degree_form()),
        "h-hat is defined degreewise only",
    ),
    "radial_potential-not-closed": (
        lambda: symplab.radial_potential(
            symplab.Form(symplab.Frame.darboux(1), {1: symplab.Poly.variable(2, 1)})
        ),
        "radial homotopy needs a closed form",
    ),
    "betti-degree": (lambda: symplab.betti(_abelian_plane(), 3), "degree out of range"),
    "harmonic_dim-degree": (
        lambda: symplab.harmonic_dim(_abelian_plane(), 3), "degree out of range"),
    "LieAlgebra-triple": (
        lambda: symplab.LieAlgebra(((1, 0, 0, Fraction(1)),), _omega1()),
        "structure triple (1,0,0) out of range",
    ),
    "Frame-generators": (
        lambda: symplab.Frame(1, ("dq1",)), "frame needs exactly 2n generators"),
    "Form.generator-index": (
        lambda: symplab.Form.generator(symplab.Frame.darboux(1), 2),
        "generator index out of range",
    ),
    "wedge_power-negative": (
        lambda: symplab.wedge_power(_omega1(), -1), "negative wedge power"),
    "interior-index": (
        lambda: symplab.interior(2, _omega1()), "generator index out of range"),
    "interior-frame": (
        lambda: symplab.interior(_zero_field(2), _omega1()),
        "vector field and form frames differ",
    ),
    "contraction_rank-k": (lambda: symplab.contraction_rank(1, 2), "need 1 <= k <= n"),
    "el_form-k": (lambda: symplab.el_form(_zero_field(1), 2), "need 1 <= k <= n"),
    "PolyVectorField-components": (
        lambda: symplab.PolyVectorField(
            symplab.Frame.darboux(1), (symplab.Poly.zero(2),)),
        "need one component per generator",
    ),
    "PolyVectorField-nvars": (
        lambda: _zero_field(1, nvars=3), "component variable count != 2n"),
    "PolyVectorField-add-frames": (
        lambda: _zero_field(1) + _zero_field(2), "vector fields over different frames"),
    "TwoFormData-shape": (
        lambda: symplab.TwoFormData(
            symplab.Frame.darboux(2), ((symplab.Poly.zero(4),) * 2,), (), ()),
        "Q must be 2 x 2",
    ),
    "matmul-shape": (
        lambda: symplab.linalg.matmul([[1, 2]], [[1, 2]]), "matmul: inner dimensions differ"),
    "inverse-shape": (
        lambda: symplab.linalg.inverse([[1, 2]]), "inverse: matrix not square"),
    "column_stack-shape": (
        lambda: symplab.linalg.column_stack([[1]], [[1], [2]]),
        "column_stack: row counts differ",
    ),
    "Poly-exponents": (
        lambda: symplab.Poly(2, {(1,): Fraction(1)}), "exponent tuple has wrong length"),
    "Poly.variable-index": (
        lambda: symplab.Poly.variable(2, 2), "variable index out of range"),
    "Poly-nvars": (
        lambda: symplab.Poly.zero(1) + symplab.Poly.zero(2),
        "polynomials over different variable counts",
    ),
    "Poly-negative-power": (
        lambda: symplab.Poly.variable(2, 0) ** -1, "negative power"),
    "hamiltonian_field-nvars": (
        lambda: symplab.hamiltonian_field(symplab.Frame.darboux(1), symplab.Poly.zero(3)),
        "polynomial over wrong variable count",
    ),
    "tangent_flow-x0": (
        lambda: symplab.tangent_flow(_zero_field(1), [0.0], symplab.FlowConfig(1.0, 0.1)),
        "x0 must have one coordinate per generator",
    ),
    "build_linear_system-both": (
        lambda: symplab.build_linear_system([[5, 0], [0, 7]], masses=(1, 2, 1)),
        "give exactly one of kmat and masses",
    ),
    "build_linear_system-neither": (
        lambda: symplab.build_linear_system(None), "give exactly one of kmat and masses"),
    "ChainPatch.affine-axes": (
        lambda: symplab.ChainPatch.affine(1, [0, 0], [[1, 0]], orders=(2, 2)),
        "need 2l axis vectors of the ambient dimension",
    ),
}


@pytest.mark.parametrize("case", sorted(MISUSES))
def test_misuse_raises_exactly_value_error(case):
    call, message = MISUSES[case]
    with pytest.raises(ValueError) as exc:
        call()
    assert type(exc.value) is ValueError
    assert str(exc.value) == message


def test_singular_matrix_is_not_an_input_error():
    with pytest.raises(symplab.linalg.SingularMatrixError) as exc:
        symplab.linalg.inverse([[0, 0], [0, 0]])
    assert not isinstance(exc.value, symplab.InputError)


def _limited_run(argv, tmp_path):
    """Run the CLI in a child process with 1 GiB of address space."""
    src = str(Path(symplab.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run(
        [sys.executable, "-m", "symplab.cli", *argv], capture_output=True, text=True,
        env=env, cwd=tmp_path, timeout=60, preexec_fn=limit,
    )


OVERSIZED = {
    # a 22-byte file once asked for three 300000 x 300000 matrices
    "two-form-n": ("from-two-form", '{"n": 300000, "Q": []}'),
    "field-n": ("classify", '{"n": 10000000, "components": []}'),
    "alg-dim": ("cohomology", '{"dim": 60, "d": [], "omega": [[1, 2, "1"]]}'),
    "chain-l": ("chain", '{"n": 1, "l": 1000000000, "maps": [[], []]}'),
}


@pytest.mark.skipif(resource is None, reason="needs resource limits")
@pytest.mark.parametrize("case", sorted(OVERSIZED))
def test_oversized_input_refused_before_allocating(tmp_path, case):
    command, text = OVERSIZED[case]
    (tmp_path / "big.json").write_text(text)
    argv = [command, "big.json"] + (["--k", "1"] if command == "classify" else [])
    result = _limited_run(argv, tmp_path)
    assert result.returncode == 2, result.stderr[-500:]
    assert result.stdout == ""
    assert result.stderr.startswith("input error: big.json: ")
    assert "desk-scale" in result.stderr


@pytest.mark.skipif(resource is None, reason="needs resource limits")
def test_sl2_check_size_refused(tmp_path):
    result = _limited_run(["sl2-check", "--n", "40"], tmp_path)
    assert result.returncode == 2
    assert result.stderr.startswith("input error: --n = 40")


# integers in files are read exactly: a float or a bool is refused, never
# truncated (a 1.5 exponent once became 1 and the file exited 0)
NOT_AN_INTEGER = {
    "float-exponent": ("classify", {"n": 1, "components": [[["1", 0, 1.5]], [["-1", 1, 0]]]}),
    "bool-exponent": ("classify", {"n": 1, "components": [[["1", 0, True]], [["-1", 1, 0]]]}),
    "float-field-n": ("classify", {"n": 1.0, "components": [[["1", 0, 1]], [["-1", 1, 0]]]}),
    "float-two-form-index": (
        "from-two-form", {"n": 2, "Q": [[1.0, 2, [["1", 0, 0, 0, 0]]]]}),
    "float-alg-dim": ("cohomology", {"dim": 2.0, "d": [], "omega": [[1, 2, "1"]]}),
    "float-alg-d-index": (
        "cohomology", {"dim": 4, "d": [[1, 2, 3.5, "1"]], "omega": [[1, 3, "1"], [2, 4, "1"]]}),
    "bool-alg-omega-index": ("cohomology", {"dim": 2, "d": [], "omega": [[True, 2, "1"]]}),
    "float-chain-n": ("chain", dict(CHAIN_N1, n=1.0)),
    "float-chain-l": ("chain", dict(CHAIN_N1, l=1.5)),
    "float-chain-order": ("chain", dict(CHAIN_N1, orders=[2.5, 2])),
}


@pytest.mark.parametrize("case", sorted(NOT_AN_INTEGER))
def test_non_integer_file_integers_are_refused(capsys, tmp_path, case):
    command, content = NOT_AN_INTEGER[case]
    path = _write(tmp_path, "input.json", content)
    argv = [command, path] + (["--k", "1"] if command == "classify" else [])
    code, out, err = run(capsys, argv)
    assert code == 2, err
    assert out == ""
    assert err.startswith(f"input error: {path}: not an integer: ")


def test_float_exponent_file_exits_2(capsys, tmp_path):
    path = tmp_path / "f15.json"
    path.write_text('{"n":1,"components":[[["1",0,1.5]],[["-1",1,0]]]}')
    code, out, err = run(capsys, ["classify", str(path), "--k", "1", "--format", "machine"])
    assert code == 2
    assert out == ""
    assert err == f"input error: {path}: not an integer: 1.5\n"


def test_chain_node_budget_refused_quickly(capsys, tmp_path):
    # 10^10 Gauss-Legendre nodes once reached numpy as a 74.5 GiB request
    path = _write(tmp_path, "huge.chain", dict(CHAIN_N1, orders=[100000, 100000]))
    start = time.perf_counter()
    code, out, err = run(capsys, ["chain", path])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith(f"input error: {path}: orders [100000, 100000] give 10000000000")
    assert "desk-scale" in err


def test_flow_work_budget_refused_quickly(capsys, tmp_path):
    # 4096 nodes for 10^6 steps: about 22 h of RK4 before the work budget
    field = _write(tmp_path, "osc.json", OSC_N1)
    chain = _write(tmp_path, "big.chain", dict(CHAIN_N1, orders=[64, 64]))
    start = time.perf_counter()
    code, out, err = run(capsys, ["flow", field, "--chain", chain, "--t", "1000000", "--dt", "1"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err == (
        "input error: 1000000 steps x (250 + 4096 nodes x 8 values per node) = 33018000000 "
        f"values of RK4 work, and 0 values of kept paths; the budget is "
        f"{symplab.flows.MAX_FLOW_WORK} of each\n"
    )


def test_flow_work_budget_counts_every_node_of_a_proven_run(capsys, tmp_path, monkeypatch):
    # a proven osc square transport takes no RK4 step, but the budget still
    # counts its 16 nodes' term rows and full tangent maps: 10^5 steps x
    # (250 + 16 x 28) = 6.98e7 values are refused, and 71633 steps
    # (49999834 values, just under the budget) run, taking none
    field = _write(tmp_path, "osc.json", OSCILLATOR)
    chain = _write(tmp_path, "square.chain", SQUARE_CHAIN)
    code, out, err = run(capsys, ["flow", field, "--chain", chain, "--t", "1e5", "--dt", "1"])
    assert (code, out) == (2, "")
    assert err == (
        "input error: 100000 steps x (250 + 16 nodes x 28 values per node) = 69800000 values "
        "of RK4 work, and 0 values of kept paths; the budget is 50000000 of each\n"
    )
    steps = symplab.flows.MAX_FLOW_WORK // (250 + 16 * 28)
    assert steps == 71633
    stepped, stage_blocks = [], cli.fw._stage_blocks
    monkeypatch.setattr(cli.fw, "_stage_blocks",
                        lambda *args: stepped.append(1) or stage_blocks(*args))
    code, out, err = run(capsys, ["flow", field, "--chain", chain, "--t", "7.1633", "--dt", "1e-4"])
    assert code == cli.EXIT_HYPOTHESIS and err == "" and "blow_up: false" in out
    assert stepped == []


def test_flow_work_refusal_is_one_line(capsys, tmp_path):
    # at dt = 1e-300 the counts are about 300 digits long; they print as
    # %.3e, so the refusal stays one short line
    field = _write(tmp_path, "osc.json", OSC_N1)
    code, out, err = run(capsys, ["flow", field, "--t", "1", "--dt", "1e-300", "--x0", "1,0"])
    assert code == 2
    assert out == ""
    assert err == (
        "input error: 1.000e+300 steps x (250 + 1 nodes x 8 values per node) = 2.580e+302 "
        "values of RK4 work, and 6.000e+300 values of kept paths; the budget is "
        f"{symplab.flows.MAX_FLOW_WORK} of each\n"
    )


def test_chain_node_budget_boundary():
    u, v = symplab.Poly.variable(2, 0), symplab.Poly.variable(2, 1)
    budget = symplab.flows.MAX_CHAIN_NODES
    side = math.isqrt(budget)
    assert side * side == budget
    symplab.ChainPatch((u, v), (side, side))
    with pytest.raises(
        symplab.InputError,
        match=rf"^orders \[{side + 1}, {side}\] give {(side + 1) * side} quadrature nodes, "
              rf"above the budget of {budget}; desk-scale inputs only$",
    ):
        symplab.ChainPatch((u, v), (side + 1, side))
