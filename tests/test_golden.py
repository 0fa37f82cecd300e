"""Golden reports: the exact stdout and exit code of each command.

Each file ``tests/golden/<case>.<format>`` holds ``exit=<code>`` on its first
line and the command's stdout, byte for byte, after it; the input files are
in ``tests/golden/inputs``.  The flow and chain reports are longdouble
numerics, so the files are pinned on 80-bit extended precision (a 63-bit
mantissa) only, and the script below refuses to rewrite them elsewhere.
After a deliberate report change, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

import contextlib
import io
import sys
from pathlib import Path

import numpy as np
import pytest

from symplab import cli, flows

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"
HAM2 = str(INPUTS / "ham2.json")  # the field of H = |x|^2/2 + q1^2 p2
SQUARE = str(INPUTS / "square.json")
# the coupled oscillators of tests/test_cli.py, an affine field with div X = 0
# that is not symplectic, and the unit l = 2 cube
OSC = str(INPUTS / "osc.json")
CUBE = str(INPUTS / "cube.json")
TWO_FORM3 = str(INPUTS / "two_form3.json")
FORMATS = ("text", "machine")
# the one test of whether this platform computes the pinned numerics
EXTENDED = np.finfo(np.longdouble).nmant == 63
NOT_EXTENDED = "golden numerics are x87 extended precision (a 63-bit longdouble mantissa)"

CASES = {
    **{f"sl2-check-n{n}": ["sl2-check", "--n", str(n)] for n in range(1, 7)},
    **{
        f"cohomology-{name}{flag}": ["cohomology", name] + ([flag] if flag else [])
        for name in ("nilm6", "torus6")
        for flag in ("", "--betti", "--el", "--harmonic")
    },
    **{f"classify-k{k}": ["classify", HAM2, "--k", str(k)] for k in (1, 2)},
    "from-two-form": ["from-two-form", TWO_FORM3],
    "flow-x0": ["flow", HAM2, "--t", "1", "--dt", "0.01", "--x0", "0.3,-0.2,0.1,0.25"],
    "flow-chain": ["flow", HAM2, "--t", "1", "--dt", "0.01", "--chain", SQUARE],
    "flow-osc-x0": ["flow", OSC, "--t", "1", "--dt", "0.01", "--x0", "1.0,0.5,0.25,-0.3"],
    "flow-osc-square": ["flow", OSC, "--t", "1", "--dt", "0.01", "--chain", SQUARE],
    "flow-osc-cube": ["flow", OSC, "--t", "1", "--dt", "0.01", "--chain", CUBE],
    "chain": ["chain", SQUARE],
    "paper-verify": ["paper-verify"],
}


def golden_path(case: str, fmt: str) -> Path:
    return GOLDEN / f"{case}.{fmt}"


def report(case: str, fmt: str) -> str:
    """The exit code line and stdout of one case."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(CASES[case] + ["--format", fmt])
    return f"exit={code}\n{out.getvalue()}"


@pytest.mark.skipif(not EXTENDED, reason=NOT_EXTENDED)
@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case, fmt):
    assert report(case, fmt) == golden_path(case, fmt).read_text()


@pytest.mark.skipif(not EXTENDED, reason=NOT_EXTENDED)
@pytest.mark.parametrize("det_batch", [16, 40])
def test_paper_verify_batching_moves_no_bit(monkeypatch, det_batch):
    # the suite's affine runs report from the exact propagator power and
    # take no stage step, so a DET_BATCH of 16 or 40 moves no bit of the
    # report; a stepped or det-checked run slipped back in must keep it too
    monkeypatch.setattr(flows, "DET_BATCH", det_batch)
    assert report("paper-verify", "machine") == golden_path("paper-verify", "machine").read_text()


@pytest.mark.skipif(not EXTENDED, reason=NOT_EXTENDED)
@pytest.mark.parametrize("case", ["flow-x0", "flow-chain", "flow-osc-x0"])
@pytest.mark.parametrize("det_batch", [16, 40])
def test_stage_batching_moves_no_bit(monkeypatch, case, det_batch):
    # DET_BATCH cuts the RK4 runs of the cases that step into blocks of 16
    # or 40 steps at one node, or of 1 or 2 steps at the square's 16 nodes,
    # and the tangent flows' det checks into calls of 16 or 40 maps, which
    # moves no bit of any report
    monkeypatch.setattr(flows, "DET_BATCH", det_batch)
    assert report(case, "machine") == golden_path(case, "machine").read_text()


if __name__ == "__main__":
    if not EXTENDED:
        sys.exit(f"not rewriting the golden files: {NOT_EXTENDED}")
    for case in CASES:
        for fmt in FORMATS:
            golden_path(case, fmt).write_text(report(case, fmt))
