import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symplab import exterior, linalg
from symplab.exterior import (
    CommutatorReport,
    Form,
    Frame,
    blade_basis,
    commutator_check,
    commutator_checks,
    contraction_rank,
    contraction_sign,
    format_form,
    interior,
    iota_rank,
    omega,
    omega_power,
    op_e,
    op_f,
    op_h,
    wedge,
    wedge_power,
)
from symplab.fields import exterior_derivative
from symplab.polynomials import Poly

import oracles


def frames(max_n=4):
    return st.integers(1, max_n).map(Frame.darboux)


def forms_over(frame, max_terms=3, degrees=None):
    masks = st.integers(0, 2 ** frame.dim - 1)
    if degrees is not None:
        masks = masks.filter(lambda m: m.bit_count() in degrees)
    coeff = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))
    return st.dictionaries(masks, coeff, max_size=max_terms).map(
        lambda t: Form(frame, t)
    )


def to_tuple(form):
    return oracles.form_to_tuple(form)


# ---------------------------------------------------------------------------
# frames and blades
# ---------------------------------------------------------------------------

def test_frame_validation():
    f = Frame.darboux(2)
    assert f.dim == 4
    assert f.names == ("dq1", "dq2", "dp1", "dp2")
    with pytest.raises(ValueError):
        Frame.darboux(0)
    with pytest.raises(ValueError):
        Frame.invariant(5)


def test_form_rejects_foreign_blades():
    f = Frame.darboux(1)
    with pytest.raises(ValueError):
        Form(f, {1 << 2: Fraction(1)})


def test_frame_mismatch():
    a = Form.generator(Frame.darboux(1), 0)
    b = Form.generator(Frame.darboux(2), 0)
    with pytest.raises(ValueError, match="different frames"):
        wedge(a, b)


# ---------------------------------------------------------------------------
# wedge
# ---------------------------------------------------------------------------

def test_wedge_repeated_generator_vanishes():
    f = Frame.darboux(2)
    dq1 = Form.generator(f, 0)
    assert wedge(dq1, dq1).is_zero


@pytest.mark.parametrize("n", [1, 2, 3])
def test_top_degree_saturation(n):
    f = Frame.darboux(n)
    w = omega(f)
    top = wedge(w, omega_power(f, n - 1))
    assert top == omega_power(f, n)
    assert not top.is_zero
    assert wedge_power(w, n + 1).is_zero


def test_nilmanifold_f_cubed_nonzero():
    # F = th1^th6 + th2^th4 + th3^th5 on six relabeled generators
    f = Frame.invariant(6)
    F = Form(
        f,
        {
            (1 << 0) | (1 << 5): Fraction(1),
            (1 << 1) | (1 << 3): Fraction(1),
            (1 << 2) | (1 << 4): Fraction(1),
        },
    )
    assert not wedge_power(F, 3).is_zero


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_wedge_bilinear_associative(data):
    frame = data.draw(frames())
    a = data.draw(forms_over(frame))
    b = data.draw(forms_over(frame))
    c = data.draw(forms_over(frame))
    s = data.draw(st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))
    assert wedge(a + b, c) == wedge(a, c) + wedge(b, c)
    assert wedge(s * a, b) == s * wedge(a, b)
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_wedge_graded_anticommutative(data):
    frame = data.draw(frames())
    da = data.draw(st.integers(0, frame.dim))
    db = data.draw(st.integers(0, frame.dim))
    a = data.draw(forms_over(frame, degrees={da}))
    b = data.draw(forms_over(frame, degrees={db}))
    sign = Fraction(-1) ** (da * db)
    assert wedge(a, b) == sign * wedge(b, a)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_wedge_matches_tuple_oracle(data):
    frame = data.draw(frames())
    a = data.draw(forms_over(frame))
    b = data.draw(forms_over(frame))
    assert to_tuple(wedge(a, b)) == oracles.twedge(to_tuple(a), to_tuple(b))


def test_every_sign_is_the_sort_parity():
    """wedge, the batch wedge of the sl(2) pass and d share one sign rule:
    check it on every disjoint pair of blades, and every d(x_v blade), at
    n = 3."""
    frame = Frame.darboux(3)
    one = Fraction(1)
    rows = np.arange(1 << frame.dim)
    every = (rows, rows.astype(exterior._mask_type(frame)), np.ones(rows.size, object))

    def indices(mask):
        return tuple(i for i in range(frame.dim) if mask >> i & 1)

    for mb in range(1 << frame.dim):
        right = Form(frame, {mb: one})
        images = {}
        for row, mask, coeff in zip(*exterior._wedge_batch(every, right)):
            images.setdefault(int(row), []).append((int(mask), coeff))
        for ma in range(1 << frame.dim):
            if ma & mb:
                continue
            _, sign = oracles.sort_parity(indices(ma) + indices(mb))
            assert wedge(Form(frame, {ma: one}), right).terms == {ma | mb: sign}
            assert images[ma] == [(ma | mb, sign)]
        for v in range(frame.dim):
            d = exterior_derivative(Form(frame, {mb: Poly.variable(frame.dim, v)}))
            _, sign = oracles.sort_parity((v,) + indices(mb))
            assert d.terms == ({mb | 1 << v: Poly.constant(frame.dim, sign)} if sign else {})


def test_frame_coordinates_drop_the_leading_d():
    assert Frame.darboux(2).coordinates == ("q1", "q2", "p1", "p2")
    assert Frame.invariant(2).coordinates == ("th1", "th2")


# ---------------------------------------------------------------------------
# interior product
# ---------------------------------------------------------------------------

def test_interior_leading_factor():
    f = Frame.darboux(1)
    dq_dp = Form(f, {0b11: Fraction(1)})
    assert interior(0, dq_dp) == Form.generator(f, 1)


def test_interior_squares_to_zero():
    f = Frame.darboux(2)
    a = omega_power(f, 2)
    for j in range(f.dim):
        assert interior(j, interior(j, a)).is_zero


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_interior_antiderivation(data):
    frame = data.draw(frames())
    da = data.draw(st.integers(0, frame.dim))
    a = data.draw(forms_over(frame, degrees={da}))
    b = data.draw(forms_over(frame))
    j = data.draw(st.integers(0, frame.dim - 1))
    lhs = interior(j, wedge(a, b))
    rhs = wedge(interior(j, a), b) + Fraction(-1) ** da * wedge(a, interior(j, b))
    assert lhs == rhs


def test_interior_omega_square_against_blade_expansion():
    # i_{d/dp1}(omega^2) for n = 2, cross-checked against the brute-force
    # expansion of omega^2 into blades done by the tuple oracle
    n = 2
    frame = Frame.darboux(n)
    got = interior(n + 0, omega_power(frame, 2))
    expected = oracles.tcontract(n + 0, oracles.tomega_power(n, 2))
    assert to_tuple(got) == expected
    # and the classical value: omega^2 = 2 dp1^dq1^dp2^dq2, so the
    # contraction is 2 dq1^dp2^dq2 rearranged as -2 dq1^dq2^dp2
    assert got == Form(
        frame, {(1 << 0) | (1 << 1) | (1 << 3): Fraction(-2)}
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_contraction_injectivity(n):
    for k in range(1, n + 1):
        assert contraction_rank(n, k) == 2 * n


# ---------------------------------------------------------------------------
# the sl(2) triple
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_f_hat_on_omega(n):
    f = Frame.darboux(n)
    assert op_f(omega(f)) == Form.scalar(f, Fraction(n))


def test_f_hat_vanishes_low_degree():
    f = Frame.darboux(2)
    assert op_f(Form.scalar(f, Fraction(1))).is_zero
    assert op_f(Form.generator(f, 0)).is_zero


@pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (3, 2)])
def test_h_hat_on_omega_powers(n, k):
    f = Frame.darboux(n)
    wk = omega_power(f, k)
    assert op_h(wk) == Fraction(2 * k - n) * wk


def test_h_hat_rejects_mixed_degree():
    f = Frame.darboux(1)
    mixed = Form.scalar(f, Fraction(1)) + Form.generator(f, 0)
    with pytest.raises(ValueError, match="degreewise only"):
        op_h(mixed)


def test_operators_match_fermionic_composition():
    # e = chi_i chi^i, f = psi_i psi^i, h = chi psi + chi psi - n, built on
    # the independent tuple representation
    for n in (1, 2, 3, 4):
        frame = Frame.darboux(n)
        oe, of, oh = oracles.t_e(n), oracles.t_f(n), oracles.t_h(n)
        for blade in oracles.all_blades(2 * n):
            b_pkg = Form(frame, {sum(1 << i for i in blade): Fraction(1)})
            b_tup = oracles.tform({blade: 1})
            assert to_tuple(op_e(b_pkg)) == oe(b_tup)
            assert to_tuple(op_f(b_pkg)) == of(b_tup)
            assert to_tuple(op_h(b_pkg)) == oh(b_tup)


def test_commutators_n1_degree_one():
    # on dq1 at n = 1 the eigenvalue of h is zero and [e,f] agrees with it
    frame = Frame.darboux(1)
    dq1 = Form.generator(frame, 0)
    assert op_h(dq1).is_zero
    assert op_e(op_f(dq1)) - op_f(op_e(dq1)) == op_h(dq1)
    report = commutator_check(1, 1)
    assert report.passed and report.blades_checked == 4


def test_commutators_n3_all_blades():
    report = commutator_check(3, 2)
    assert report.passed
    assert report.blades_checked == 64


def test_commutator_recursions_n4_k3_against_oracle():
    # direct operator-composition oracle on the tuple representation
    n, k = 4, 3
    oe, of, oh = oracles.t_e(n), oracles.t_f(n), oracles.t_h(n)

    def e_pow(p, a):
        for _ in range(p):
            a = oe(a)
        return a

    def f_pow(p, a):
        for _ in range(p):
            a = of(a)
        return a

    for blade in oracles.all_blades(2 * n):
        b = oracles.tform({blade: 1})
        lhs1 = oracles.tadd(e_pow(k, of(b)), oracles.tscale(-1, of(e_pow(k, b))))
        rhs1 = oracles.tscale(
            Fraction(k),
            e_pow(k - 1, oracles.tadd(oh(b), oracles.tscale(Fraction(k - 1), b))),
        )
        assert lhs1 == rhs1
        lhs2 = oracles.tadd(oe(f_pow(k, b)), oracles.tscale(-1, f_pow(k, oe(b))))
        rhs2 = oracles.tscale(
            Fraction(k),
            f_pow(k - 1, oracles.tadd(oh(b), oracles.tscale(Fraction(-(k - 1)), b))),
        )
        assert lhs2 == rhs2
    report = commutator_check(n, k)
    assert report.passed and report.blades_checked == 256


# Faults injected into the batch kernels behind op_e, op_f and op_h, which
# the pass and the Form operators both look up when called; each fault keeps
# forms homogeneous.  The expected reports (first failing identity, blade
# and count) were recorded from the direct operator-composition check.

def _entries(batch, keep):
    return tuple(part[keep] for part in batch)


def _degrees(masks):
    return np.array([m.bit_count() for m in masks.tolist()], dtype=int)


def _f_without_first_pair():
    # f less its first pair's term i_{d/dq^1} i_{d/dp_1}, whose sign is that
    # of contracting dp_1 first
    f = exterior._f_batch

    def faulted(frame, batch):
        pair = 1 | 1 << frame.n
        held = _entries(batch, (batch[1] & pair) == pair)
        signs = [contraction_sign(m, frame.n) for m in held[1].tolist()]
        first = (held[0], held[1] ^ pair, held[2] * np.array(signs, dtype=int))
        return exterior._sum((1, f(frame, batch)), (-1, first))

    return faulted


def _flipped_omega_power(k):
    # omega^k with its sign flipped
    power = exterior.omega_power

    def flipped(frame, p):
        return -power(frame, p) if p == k else power(frame, p)

    return flipped


def _scaled_e(scale):
    # e scaled by ``scale`` on blades holding the first and the last generator
    e = exterior._e_batch

    def scaled(frame, batch):
        masks = batch[1]
        hit = ((masks & 1) != 0) & ((masks >> (frame.dim - 1)) != 0)
        return exterior._sum((1, e(frame, batch)), (scale - 1, e(frame, _entries(batch, hit))))

    return scaled


def _shifted_h():
    # h shifted by one on degree n + 1
    h = exterior._h_batch

    def shifted(frame, batch):
        hit = _degrees(batch[1]) == frame.n + 1
        return exterior._sum((1, h(frame, batch)), (1, _entries(batch, hit)))

    return shifted


def _thirded_e():
    # e scaled by 1/3 on blades of degree n or more holding dp1
    e = exterior._e_batch

    def thirded(frame, batch):
        masks = batch[1]
        hit = (((masks >> frame.n) & 1) != 0) & (_degrees(masks) >= frame.n)
        return exterior._sum(
            (1, e(frame, batch)), (Fraction(-2, 3), e(frame, _entries(batch, hit)))
        )

    return thirded


@pytest.mark.parametrize("n, k", [(2, 1), (3, 2), (3, 3)])
def test_commutator_check_reports_f_fault(monkeypatch, n, k):
    monkeypatch.setattr(exterior, "_f_batch", _f_without_first_pair())
    assert commutator_check(n, k) == CommutatorReport(n, k, False, 1, "[e,f] = h", 0)


@pytest.mark.parametrize("n, k, identity", [
    (1, 1, "[e^1,f] = 1 e^0(h+0)"),
    (3, 2, "[e^2,f] = 2 e^1(h+1)"),
    (4, 4, "[e^4,f] = 4 e^3(h+3)"),
])
def test_commutator_check_reports_omega_power_fault(monkeypatch, n, k, identity):
    monkeypatch.setattr(exterior, "omega_power", _flipped_omega_power(k))
    assert commutator_check(n, k) == CommutatorReport(n, k, False, 1, identity, 0)


@pytest.mark.parametrize("n, k, blade", [(3, 1, 33), (3, 3, 33), (4, 2, 129)])
def test_commutator_check_reports_late_e_fault(monkeypatch, n, k, blade):
    # e scaled by 3/2: the first failure is a blade past 0, and images carry
    # non-integral coefficients
    monkeypatch.setattr(exterior, "_e_batch", _scaled_e(Fraction(3, 2)))
    assert commutator_check(n, k) == CommutatorReport(
        n, k, False, blade + 1, "[e,f] = h", blade
    )


@pytest.mark.parametrize("scale", [3, 2 ** 31 + 1, 2 ** 62 + 1, 2 ** 70 + 1])
@pytest.mark.parametrize("n, k, blade", [(3, 1, 33), (4, 2, 129), (5, 5, 513)])
def test_commutator_check_reports_big_integer_e_fault(monkeypatch, scale, n, k, blade):
    # the late-e fault with integer scales: coefficients reach and pass
    # 2^31, 2^63 and beyond, and every scale gives the same report
    monkeypatch.setattr(exterior, "_e_batch", _scaled_e(scale))
    assert commutator_check(n, k) == CommutatorReport(
        n, k, False, blade + 1, "[e,f] = h", blade
    )


@pytest.mark.parametrize("n, k, blade", [(2, 1, 1), (3, 2, 3), (4, 3, 7)])
def test_commutator_check_reports_h_fault(monkeypatch, n, k, blade):
    # [h,e] = 2e first fails on the first blade of degree n - 1
    monkeypatch.setattr(exterior, "_h_batch", _shifted_h())
    assert commutator_check(n, k) == CommutatorReport(
        n, k, False, blade + 1, "[h,e] = 2e", blade
    )


@pytest.mark.parametrize("n, k, blade", [(2, 1, 5), (3, 2, 11), (4, 4, 23), (5, 3, 47)])
def test_commutator_check_reports_third_e_fault(monkeypatch, n, k, blade):
    # every image coefficient of the thirded blades is a non-integral
    # rational, so the check runs on exact rationals; recorded from the
    # blade-by-blade check
    monkeypatch.setattr(exterior, "_e_batch", _thirded_e())
    assert commutator_check(n, k) == CommutatorReport(
        n, k, False, blade + 1, "[e,f] = h", blade
    )


FAULTS = {
    "f": lambda k: ("_f_batch", _f_without_first_pair()),
    "omega-sign": lambda k: ("omega_power", _flipped_omega_power(k)),
    "late-e": lambda k: ("_e_batch", _scaled_e(Fraction(3, 2))),
    "big-integer-e": lambda k: ("_e_batch", _scaled_e(2 ** 70 + 1)),
    "h": lambda k: ("_h_batch", _shifted_h()),
    "third-e": lambda k: ("_e_batch", _thirded_e()),
}


@pytest.mark.parametrize("fault", [None, *FAULTS])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_commutator_checks_match_per_k_checks(monkeypatch, n, fault):
    # the one pass over every k gives each per-k report, with or without a
    # fault; the omega sign fault flips omega^k for a middle k
    if fault is not None:
        monkeypatch.setattr(exterior, *FAULTS[fault]((n + 1) // 2))
    reports = commutator_checks(n)
    assert reports == [commutator_check(n, k) for k in range(1, n + 1)]


def _seeded_fault(seed, n):
    # the kernel of op_e, op_f or op_h rescaled on a few blades, or a foreign
    # blade (not a submask of the input) added to f's image of a few blades
    rng = random.Random(seed)
    name = rng.choice(("op_e", "op_f", "op_h", "op_f"))
    foreign = name == "op_f" and rng.random() < 0.5
    scales = (Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 2), Fraction(3))
    edits = {
        rng.randrange(1 << 2 * n): (rng.choice(scales), rng.randrange(1 << 2 * n))
        for _ in range(rng.randint(1, 3))
    }
    kernel = {"op_e": "_e_batch", "op_f": "_f_batch", "op_h": "_h_batch"}[name]
    op = getattr(exterior, kernel)

    def faulted(frame, batch):
        rows, masks, coeffs = _entries(batch, [m in edits for m in batch[1].tolist()])
        scale = np.array([edits[m][0] for m in masks.tolist()], dtype=object)
        if foreign:
            extra = np.array([edits[m][1] for m in masks.tolist()], dtype=masks.dtype)
            return exterior._sum((1, op(frame, batch)), (1, (rows, extra, coeffs * scale)))
        return exterior._sum((1, op(frame, batch)), (1, op(frame, (rows, masks, coeffs * (scale - 1)))))

    return kernel, faulted


def _reference_reports(n):
    """(passed, blades_checked, failed_identity, failed_blade) for k = 1..n
    from all five identities, [e,f^k] = k f^{k-1}(h-k+1) included, checked
    blade by blade in mask order on the linear extensions of exterior's
    operators, looked up when called."""
    frame = Frame.darboux(n)

    def linear(op):
        def apply(a):
            out = Form.zero(frame)
            for mask, c in a.terms.items():
                out = out + c * op(Form(frame, {mask: Fraction(1)}))
            return out
        return apply

    e, f, h = (linear(getattr(exterior, name)) for name in ("op_e", "op_f", "op_h"))

    def e_pow(p, a):
        return wedge(a, exterior.omega_power(frame, p))

    def f_pow(p, a):
        for _ in range(p):
            a = f(a)
        return a

    reports = []
    for k in range(1, n + 1):
        names = (
            "[h,e] = 2e",
            "[h,f] = -2f",
            "[e,f] = h",
            f"[e^{k},f] = {k} e^{k - 1}(h+{k - 1})",
            f"[e,f^{k}] = {k} f^{k - 1}(h-{k - 1})",
        )
        report = (True, 1 << frame.dim, None, None)
        for mask in range(1 << frame.dim):
            b = Form(frame, {mask: Fraction(1)})
            defects = (
                h(e(b)) - e(h(b)) - 2 * e(b),
                h(f(b)) - f(h(b)) + 2 * f(b),
                e(f(b)) - f(e(b)) - h(b),
                e_pow(k, f(b)) - f(e_pow(k, b)) - k * e_pow(k - 1, h(b) + (k - 1) * b),
                e(f_pow(k, b)) - f_pow(k, e(b)) - k * f_pow(k - 1, h(b) - (k - 1) * b),
            )
            failed = [name for name, defect in zip(names, defects) if not defect.is_zero]
            if failed:
                report = (False, mask + 1, failed[0], mask)
                break
        reports.append(report)
    return reports


@pytest.mark.parametrize("fault", [None, *FAULTS, *range(30)])
def test_four_identity_pass_matches_five_identity_reference(monkeypatch, fault):
    # [e,f^k] - k f^{k-1}(h-k+1) telescopes into sums of f^a D f^c over the
    # defects D of [h,f] = -2f and [e,f] = h, on blades at most the input
    # blade when f only removes generators; so the pass, which leaves
    # [e,f^k] out, gives the reports of all five identities.  Integer faults
    # are seeded, foreign op_f blades among them.
    for n in (1, 2, 3):
        with monkeypatch.context() as patch:
            if isinstance(fault, int):
                patch.setattr(exterior, *_seeded_fault(fault, n))
            elif fault is not None:
                patch.setattr(exterior, *FAULTS[fault]((n + 1) // 2))
            reports = [
                (r.passed, r.blades_checked, r.failed_identity, r.failed_blade)
                for r in commutator_checks(n)
            ]
            assert reports == _reference_reports(n)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_commutators_n5_all_blades(k):
    assert commutator_check(5, k) == CommutatorReport(5, k, True, 1024)


def test_single_pass_operators_match_interior_composition():
    # op_e and op_f against wedge and the two contractions, and op_h against
    # (degree - n) times each homogeneous part, on sums of blades with
    # distinct Fraction or polynomial coefficients, up to n = 5; every
    # image coefficient keeps its type
    for n in range(1, 6):
        frame = Frame.darboux(n)
        masks = range(0, 1 << (2 * n), 7)
        x = Poly.variable(2 * n, 0)
        for coeff in (lambda m: Fraction(m + 1, 3), lambda m: Fraction(m + 1, 3) * x + m):
            a = Form(frame, {m: coeff(m) for m in masks})
            f = Form.zero(frame)
            for i in range(n):
                f = f + interior(i, interior(n + i, a))
            assert op_f(a) == f
            assert op_e(a) == wedge(a, omega(frame))
            kind = type(coeff(1))
            for degree in range(2 * n + 1):
                part = Form(frame, {m: c for m, c in a.terms.items() if m.bit_count() == degree})
                assert op_h(part) == Fraction(degree - n) * part
                for image in (op_e(part), op_f(part), op_h(part)):
                    assert all(type(c) is kind for c in image.terms.values())


@pytest.mark.parametrize("n", [17, 33])
def test_operators_on_wide_frames(n):
    # masks past 32 bits are uint64 arrays, past 64 bits object arrays of ints
    frame = Frame.darboux(n)
    top = 1 << (2 * n - 1)
    a = Form(frame, {0b100001 | top: Fraction(2, 3), 0b1000 | 1 << (n + 3): Fraction(1), 0: Fraction(5)})
    f = Form.zero(frame)
    for i in range(n):
        f = f + interior(i, interior(n + i, a))
    assert op_f(a) == f
    assert op_e(a) == wedge(a, omega(frame))
    b = Form(frame, {0b1000 | 1 << (n + 3) | top: Fraction(1)})
    assert op_h(b) == Fraction(3 - n) * b


def test_sl2_pass_builds_no_form_per_blade(monkeypatch):
    # the pass evaluates every blade in one batch: the forms it builds are
    # omega and its powers (16 at n = 4, 22 at n = 5, from cold caches), not
    # one or more per blade
    init = Form.__init__
    counts = []
    for n in (4, 5):
        calls = []

        def counted(self, *args, **kwargs):
            calls.append(None)
            init(self, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(Form, "__init__", counted)
            omega.cache_clear()
            omega_power.cache_clear()
            commutator_checks(n)
        counts.append(len(calls))
    assert max(counts) < 32


def test_commutator_check_validates_range():
    with pytest.raises(ValueError):
        commutator_check(2, 3)
    with pytest.raises(ValueError):
        commutator_check(2, 0)


# ---------------------------------------------------------------------------
# rank certificates
# ---------------------------------------------------------------------------

def test_iota_rank_identity_case():
    assert iota_rank(2, 0) == 6


@pytest.mark.parametrize("n,k,expected", [(3, 1, 15), (4, 2, 28)])
def test_iota_rank_against_sympy_oracle(n, k, expected):
    # build the blade matrix of wedging with omega^k independently and rank
    # it with sympy
    wk = oracles.tomega_power(n, k)
    domain = [b for b in oracles.all_blades(2 * n) if len(b) == 2]
    image_basis = [b for b in oracles.all_blades(2 * n) if len(b) == 2 * k + 2]
    index = {b: i for i, b in enumerate(image_basis)}
    mat = [[Fraction(0)] * len(domain) for _ in image_basis]
    for col, blade in enumerate(domain):
        out = oracles.twedge(oracles.tform({blade: 1}), wk)
        for b, c in out.items():
            mat[index[b]][col] = c
    assert oracles.sympy_rank(mat) == expected
    assert iota_rank(n, k) == expected
    assert expected == comb(2 * n, 2)


def test_iota_rank_range():
    with pytest.raises(ValueError):
        iota_rank(3, 2)
    with pytest.raises(ValueError):
        iota_rank(3, -1)


def test_iota_top_is_isomorphism_dimension_count():
    # at k = n-2 the target space of (2n-2)-forms has the same dimension
    for n in (2, 3, 4):
        assert comb(2 * n, 2) == comb(2 * n, 2 * n - 2)
        assert iota_rank(n, n - 2) == comb(2 * n, 2)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_format_form_canonical():
    f = Frame.darboux(1)
    w = omega(f)
    assert format_form(w) == "-1*dq1^dp1"
    assert format_form(Form.zero(f)) == "0"
    two = Form.scalar(f, Fraction(2)) + Form.generator(f, 1, Fraction(1, 3))
    assert format_form(two) == "2 + 1/3*dp1"
