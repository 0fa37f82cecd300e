"""The contract says every symbolic value is immutable and every operation
a pure function, so concurrent evaluation must agree with serial results."""

import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from symplab.cohomology import betti, build_complex, bundled_algebra
from symplab.exterior import Form, Frame, commutator_check, omega_power, wedge
from symplab.fields import hamiltonian_field
from symplab.flows import WORK_DTYPE, CompiledField
from symplab.polynomials import Poly


def test_forms_are_immutable():
    frame = Frame.darboux(2)
    w = omega_power(frame, 1)
    with pytest.raises(AttributeError):
        w.terms = {}


def test_concurrent_symbolic_work_matches_serial():
    frame = Frame.darboux(3)
    blades = [Form(frame, {m: Fraction(1)}) for m in range(1, 40)]
    w2 = omega_power(frame, 2)
    serial = [wedge(b, w2) for b in blades]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda b: wedge(b, w2), blades))
    assert serial == parallel


def test_concurrent_reports_and_dimensions():
    cx = build_complex(bundled_algebra("nilm6"))
    with ThreadPoolExecutor(max_workers=6) as pool:
        checks = list(pool.map(lambda k: commutator_check(3, k), [1, 2, 3] * 2))
        bettis = list(pool.map(lambda m: betti(cx, m), range(7)))
    assert all(c.passed for c in checks)
    assert bettis == [1, 3, 4, 4, 4, 3, 1]


def test_concurrent_field_evaluation_matches_serial():
    # one evaluator shared by 8 threads that start together, each calling it
    # at 1, 7 and 33 nodes from a different first node count: its
    # per-node-count scatter index is filled concurrently, and no call may
    # see another's intermediate values
    frame = Frame.darboux(2)
    q1, p1 = Poly.variable(4, 0), Poly.variable(4, 2)
    h = (Fraction(1, 2) * (q1 ** 2 + p1 ** 2) + Fraction(1, 4) * q1 ** 4
         + Fraction(2, 7) * q1 ** 3 * p1)
    x = hamiltonian_field(frame, h)
    rng = np.random.default_rng(8)
    inputs = [rng.standard_normal((m, 4)).astype(WORK_DTYPE) for m in (1, 7, 33) for _ in range(3)]
    serial = [CompiledField(x)(xs) for xs in inputs]
    shared = CompiledField(x)
    start = threading.Barrier(8)

    def run(thread):
        first = 3 * (thread % 3)
        order = list(range(first, len(inputs))) + list(range(first))
        start.wait()
        return [(i, shared(inputs[i])) for i in order]

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(run, range(8)))
    for got in results:
        for i, (values, jacobians) in got:
            want_values, want_jacobians = serial[i]
            assert np.array_equal(values, want_values)
            assert np.array_equal(jacobians, want_jacobians)
