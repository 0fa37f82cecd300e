import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from symplab import cli, fields
from symplab.exterior import (
    Form,
    Frame,
    format_form,
    interior,
    omega,
    omega_power,
    wedge,
)
from symplab.fields import (
    PolyVectorField,
    TwoFormData,
    build_linear_system,
    classify,
    el_form,
    exterior_derivative,
    field_from_data,
    hamiltonian_field,
    hamiltonian_two_form,
    lie_derivative,
    linear_system_two_form,
    radial_potential,
    two_form_from_data,
    vector_from_two_form,
)
from symplab.polynomials import MAX_INPUT_N, InputError, Poly, decode_json

import oracles


def var(nvars, i):
    return Poly.variable(nvars, i)


def standard_h(n):
    nv = 2 * n
    return sum(
        (Fraction(1, 2) * var(nv, i) ** 2 for i in range(nv)), Poly.zero(nv)
    )


def small_poly(nvars):
    exps = st.tuples(*(st.integers(0, 2) for _ in range(nvars)))
    coeff = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))
    return st.dictionaries(exps, coeff, max_size=2).map(lambda t: Poly(nvars, t))


def two_form(frame, q=None, a=None, p=None):
    """TwoFormData from n x n matrices of numbers or polynomials; a matrix
    not given is zero."""
    n, nv = frame.n, frame.dim

    def fill(mat):
        return tuple(
            tuple(e if isinstance(e, Poly) else Poly.constant(nv, e) for e in row)
            for row in mat or [[0] * n] * n
        )

    return TwoFormData(frame, fill(q), fill(a), fill(p))


def poly_forms(frame, degrees, max_terms=2):
    from symplab.exterior import blade_basis

    masks = st.sampled_from(
        [m for d in degrees for m in blade_basis(frame.dim, d)]
    )
    return st.dictionaries(masks, small_poly(frame.dim), max_size=max_terms).map(
        lambda t: Form(frame, t)
    )


def fields_over(frame):
    return st.tuples(
        *(small_poly(frame.dim) for _ in range(frame.dim))
    ).map(lambda comps: PolyVectorField(frame, comps))


# ---------------------------------------------------------------------------
# exterior derivative
# ---------------------------------------------------------------------------

def test_d_basic():
    frame = Frame.darboux(1)
    q, p = var(2, 0), var(2, 1)
    a = Form(frame, {1 << 1: q})  # q^1 dp_1
    got = exterior_derivative(a)
    assert got == Form(frame, {0b11: Poly.constant(2, 1)})
    assert exterior_derivative(omega(frame)).is_zero


def test_d_leibniz_oracle():
    # d(H omega) = dH ^ omega, the right side expanded independently
    frame = Frame.darboux(2)
    nv = 4
    h = var(nv, 0) * var(nv, 2) + Fraction(2, 3) * var(nv, 1) ** 3
    lhs = exterior_derivative(h * omega(frame))
    dh = Form(frame, {1 << v: h.diff(v) for v in range(nv)})
    assert lhs == wedge(dh, omega(frame))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_d_squared_zero(data):
    frame = Frame.darboux(data.draw(st.integers(1, 2)))
    a = data.draw(poly_forms(frame, degrees={0, 1, 2}))
    assert exterior_derivative(exterior_derivative(a)).is_zero


# ---------------------------------------------------------------------------
# Euler-Lagrange forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_el_form_of_hamiltonian_field_is_dh(n):
    frame = Frame.darboux(n)
    h = standard_h(n) + var(2 * n, 0) * var(2 * n, 2 * n - 1)
    x = hamiltonian_field(frame, h)
    dh = exterior_derivative(Form.scalar(frame, h))
    assert el_form(x, 1) == dh


def test_el_form_zero_field():
    frame = Frame.darboux(2)
    assert el_form(PolyVectorField.zero(frame), 1).is_zero
    assert el_form(PolyVectorField.zero(frame), 2).is_zero


def test_el_form_partial_q1_against_blade_expansion():
    # n=2, X = d/dq1: -i_X(omega^2) cross-checked on the tuple oracle
    n = 2
    frame = Frame.darboux(n)
    x = PolyVectorField(
        frame,
        (Poly.constant(4, 1), Poly.zero(4), Poly.zero(4), Poly.zero(4)),
    )
    got = el_form(x, 2)
    expected = oracles.tscale(-1, oracles.tcontract(0, oracles.tomega_power(n, 2)))
    stripped = {
        tuple(i for i in range(4) if mask >> i & 1): coeff.constant_term()
        for mask, coeff in got.terms.items()
    }
    assert stripped == expected


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_el_form_linear(data):
    frame = Frame.darboux(2)
    x = data.draw(fields_over(frame))
    y = data.draw(fields_over(frame))
    a = data.draw(st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2)))
    k = data.draw(st.integers(1, 2))
    combo = a * x + y
    assert el_form(combo, k) == a * el_form(x, k) + el_form(y, k)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_hamiltonian_field_symplectic_all_k():
    frame = Frame.darboux(2)
    x = hamiltonian_field(frame, standard_h(2))
    for k in (1, 2):
        result = classify(x, k)
        assert result.symplectic_like and result.potential is not None
        assert exterior_derivative(result.potential) == el_form(x, k)


def test_linear_system_classification():
    _, x = build_linear_system(None, masses=(1, 2, 1))
    assert not classify(x, 1).symplectic_like
    assert classify(x, 1).potential is None
    assert classify(x, 2).symplectic_like


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_low_degree_classification_is_preserving_omega(data):
    # for k < n the closedness verdict must coincide with L_X omega = 0
    frame = Frame.darboux(2)
    x = data.draw(fields_over(frame))
    verdict = classify(x, 1).symplectic_like
    assert verdict == lie_derivative(x, omega(frame)).is_zero


def test_dilation_not_volume_preserving():
    from symplab.flows import divergence

    frame = Frame.darboux(2)
    dilation = PolyVectorField(
        frame, (var(4, 0), Poly.zero(4), Poly.zero(4), Poly.zero(4))
    )
    assert divergence(dilation) == Poly.constant(4, 1)
    assert not classify(dilation, 2).symplectic_like


# ---------------------------------------------------------------------------
# Lie derivative
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(small_poly(4))
def test_hamiltonian_fields_preserve_omega(h):
    frame = Frame.darboux(2)
    x = hamiltonian_field(frame, h)
    assert lie_derivative(x, omega(frame)).is_zero


def test_linear_system_lie_derivative():
    spec, x = build_linear_system(None, masses=(1, 2, 1))
    frame = x.frame
    got = lie_derivative(x, omega(frame))
    # Cartan oracle: L_X omega = sum a_ij dq^i ^ dq^j
    expected = Form.zero(frame)
    for i in range(2):
        for j in range(2):
            expected = expected + spec.a[i][j] * wedge(
                Form.generator(frame, i), Form.generator(frame, j)
            )
    assert got == expected
    assert not got.is_zero
    assert lie_derivative(x, omega_power(frame, 2)).is_zero


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_lie_derivative_power_rule(data):
    frame = Frame.darboux(2)
    x = data.draw(fields_over(frame))
    k = data.draw(st.integers(1, 2))
    lhs = lie_derivative(x, omega_power(frame, k))
    rhs = Fraction(k) * wedge(
        lie_derivative(x, omega(frame)), omega_power(frame, k - 1)
    )
    assert lhs == rhs


# ---------------------------------------------------------------------------
# radial potentials
# ---------------------------------------------------------------------------

def test_radial_potential_constant_two_form():
    frame = Frame.darboux(1)
    a = Form(frame, {0b11: Poly.constant(2, 1)})
    beta = radial_potential(a)
    q, p = var(2, 0), var(2, 1)
    assert beta == Form(
        frame, {1 << 1: Fraction(1, 2) * q, 1 << 0: Fraction(-1, 2) * p}
    )
    assert exterior_derivative(beta) == a


def test_radial_potential_of_dh_recovers_h():
    frame = Frame.darboux(2)
    h = standard_h(2) + 3 * var(4, 0) * var(4, 1) + 7
    dh = exterior_derivative(Form.scalar(frame, h))
    beta = radial_potential(dh)
    assert beta == Form.scalar(frame, h - h.constant_term())


def test_radial_potential_rejects_nonclosed():
    frame = Frame.darboux(1)
    not_closed = Form(frame, {1 << 0: var(2, 1)})  # p dq, d != 0
    with pytest.raises(ValueError, match="needs a closed form"):
        radial_potential(not_closed)
    with pytest.raises(ValueError, match="0-form component has no primitive"):
        radial_potential(Form.scalar(frame, Poly.constant(2, 5)))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_radial_potential_inverts_d(data):
    frame = Frame.darboux(data.draw(st.integers(1, 2)))
    raw = data.draw(poly_forms(frame, degrees={1, 2}))
    closed = exterior_derivative(raw)  # exact, hence closed
    beta = radial_potential(closed)
    assert exterior_derivative(beta) == closed


@pytest.mark.parametrize("k", [1, 2])
def test_radial_primitive_adds_no_polys(monkeypatch, k):
    # the primitive's terms merge by (blade, exponents) in one sum_terms and
    # are grouped per blade afterwards: no Poly.__add__ call, each of which
    # would copy the growing sum, making the merge quadratic in the
    # monomials per blade.  A dense H makes many terms meet
    frame = Frame.darboux(2)
    h = (var(4, 0) + 2 * var(4, 1) - var(4, 2) + Fraction(1, 3) * var(4, 3) + 1) ** 5
    e = el_form(hamiltonian_field(frame, h), k)
    adds = []
    add = Poly.__add__

    def counted(self, other):
        adds.append(other)
        return add(self, other)

    monkeypatch.setattr(Poly, "__add__", counted)
    monkeypatch.setattr(Poly, "__radd__", counted)
    beta = fields._radial_primitive(e)
    monkeypatch.undo()
    assert adds == []
    assert exterior_derivative(beta) == e


# ---------------------------------------------------------------------------
# the 2-form dictionary
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3])
def test_canonical_equations_recovered(n):
    frame = Frame.darboux(n)
    h = standard_h(n)
    x = vector_from_two_form(hamiltonian_two_form(frame, h))
    assert x.components == hamiltonian_field(frame, h).components


def test_closed_two_form_maps_to_zero():
    frame = Frame.darboux(2)
    alpha = two_form(
        frame,
        q=[[0, Fraction(3)], [Fraction(-3), 0]],
        p=[[0, Fraction(-1, 2)], [Fraction(1, 2), 0]],
        a=[[Fraction(5), 0], [Fraction(1), Fraction(2)]],
    )
    assert vector_from_two_form(alpha).is_zero


def test_field_matches_coordinate_formula_on_paper_verify_forms():
    # the 50 seeded forms of paper-verify's contraction-identity check
    rng = random.Random(20040812)
    for n in (2, 3):
        for _ in range(25):
            alpha = cli._random_two_form(rng, n)
            x = vector_from_two_form(alpha)
            assert x.components == oracles.two_form_field_components(alpha)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_field_matches_coordinate_formula_up_to_the_input_bound(n):
    # from-two-form reads n up to MAX_INPUT_N; ten seeded forms per n, each
    # also meeting the defining identity i_X(omega^n) = -n(n-1) d alpha ^
    # omega^(n-2) that X is read off
    assert MAX_INPUT_N == 6
    rng = random.Random(n)
    for _ in range(10):
        alpha = cli._random_two_form(rng, n)
        x = vector_from_two_form(alpha)
        assert x.components == oracles.two_form_field_components(alpha)
        beta = Fraction(-n * (n - 1)) * wedge(
            exterior_derivative(alpha.to_form()), omega_power(alpha.frame, n - 2)
        )
        assert interior(x, omega_power(alpha.frame, n)) == beta


def test_linear_system_alpha_reproduces_field():
    spec, x = build_linear_system(None, masses=(1, 2, 1))
    assert vector_from_two_form(linear_system_two_form(spec)).components == x.components


def test_linear_system_alpha_needs_n_at_least_2():
    with pytest.raises(ValueError, match="^two-form dictionary needs n >= 2$"):
        linear_system_two_form(build_linear_system([[1]])[0])


def test_antisymmetry_enforced():
    frame = Frame.darboux(2)
    with pytest.raises(InputError, match=r"Q\[1\]\[2\] != -Q\[2\]\[1\]"):
        two_form(frame, q=[[0, 1], [1, 0]])


def test_two_form_needs_n_at_least_two():
    with pytest.raises(ValueError, match="^two-form dictionary needs n >= 2$"):
        two_form(Frame.darboux(1))


def _two_form_from_form(form):
    """Repackage a polynomial 2-form into Q/A/P data (test helper)."""
    n = form.frame.n
    nv = 2 * n
    zero = Poly.zero(nv)
    q = [[zero] * n for _ in range(n)]
    a = [[zero] * n for _ in range(n)]
    p = [[zero] * n for _ in range(n)]
    for mask, coeff in form.terms.items():
        bits = [i for i in range(nv) if mask >> i & 1]
        i, j = bits
        if j < n:  # dq^i ^ dq^j
            q[i][j] = q[i][j] + coeff
            q[j][i] = q[j][i] - coeff
        elif i >= n:  # dp ^ dp
            p[i - n][j - n] = p[i - n][j - n] + coeff
            p[j - n][i - n] = p[j - n][i - n] - coeff
        else:  # canonical dq^i ^ dp_j = -dp_j ^ dq^i
            a[j - n][i] = a[j - n][i] - coeff
    return TwoFormData(
        form.frame,
        tuple(tuple(r) for r in q),
        tuple(tuple(r) for r in a),
        tuple(tuple(r) for r in p),
    )


def _data_add(x: TwoFormData, y: TwoFormData) -> TwoFormData:
    n = x.frame.n
    return TwoFormData(
        x.frame,
        tuple(tuple(x.q[i][j] + y.q[i][j] for j in range(n)) for i in range(n)),
        tuple(tuple(x.a[i][j] + y.a[i][j] for j in range(n)) for i in range(n)),
        tuple(tuple(x.p[i][j] + y.p[i][j] for j in range(n)) for i in range(n)),
    )


def test_two_form_data_assembles_correctly():
    # to_form and the test-side unpacking must be mutually inverse
    frame = Frame.darboux(2)
    alpha = two_form(
        frame,
        q=[[0, var(4, 2)], [-var(4, 2), 0]],
        a=[[var(4, 0), Fraction(2)], [0, var(4, 3)]],
        p=[[0, Fraction(1, 3)], [Fraction(-1, 3), 0]],
    )
    again = _two_form_from_form(alpha.to_form())
    assert again.q == alpha.q and again.a == alpha.a and again.p == alpha.p


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_field_invariant_under_closed_shift(data):
    # vector_from_two_form(alpha + theta) = vector_from_two_form(alpha)
    # for closed theta (here: an exact d(1-form))
    frame = Frame.darboux(2)
    alpha = _random_two_form_data(data, frame)
    one_form = data.draw(poly_forms(frame, degrees={1}))
    theta = _two_form_from_form(exterior_derivative(one_form))
    shifted = _data_add(alpha, theta)
    assert (
        vector_from_two_form(shifted).components
        == vector_from_two_form(alpha).components
    )


def _random_two_form_data(data, frame):
    n = frame.n
    nv = 2 * n
    zero = Poly.zero(nv)
    q = [[zero] * n for _ in range(n)]
    p = [[zero] * n for _ in range(n)]
    a = [[data.draw(small_poly(nv)) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            q[i][j] = data.draw(small_poly(nv))
            q[j][i] = -q[i][j]
            p[i][j] = data.draw(small_poly(nv))
            p[j][i] = -p[i][j]
    return TwoFormData(
        frame,
        tuple(tuple(r) for r in q),
        tuple(tuple(r) for r in a),
        tuple(tuple(r) for r in p),
    )


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_contraction_identity_holds(data):
    # the nunX identity is asserted inside vector_from_two_form; drive it
    # with random data and double-check the divergence vanishes
    from symplab.flows import divergence

    frame = Frame.darboux(2)
    alpha = _random_two_form_data(data, frame)
    x = vector_from_two_form(alpha)
    assert divergence(x).is_zero


# ---------------------------------------------------------------------------
# linear systems
# ---------------------------------------------------------------------------

def test_symmetric_k_is_hamiltonian():
    spec, x = build_linear_system([[2, 1], [1, 2]])
    assert spec.is_hamiltonian
    assert classify(x, 1).symplectic_like
    assert all(not entry for row in spec.a for entry in row)


def test_linear_system_split_invariants():
    spec, _ = build_linear_system([[1, 2], [5, Fraction(-1, 3)]])
    n = spec.n
    for i in range(n):
        for j in range(n):
            assert spec.s[i][j] == spec.s[j][i]
            assert spec.a[i][j] == -spec.a[j][i]
            assert spec.s[i][j] + spec.a[i][j] == spec.k[i][j]
    # H carries the symmetric part: dp_i/dt of X_H is -s q
    h = spec.hamiltonian_h
    assert h.diff(0) == spec.s[0][0] * var(4, 0) + spec.s[0][1] * var(4, 1)
    assert h.diff(2) == var(4, 2)


def test_equal_masses_hamiltonian():
    spec, _ = build_linear_system(None, masses=(2, 2, 5))
    assert spec.k[0][1] == spec.k[1][0]
    assert spec.is_hamiltonian


def test_unequal_masses_non_hamiltonian():
    spec, x = build_linear_system(None, masses=(1, 2, 1))
    assert spec.k == ((-1, 1), (Fraction(1, 2), Fraction(-1, 2)))
    assert spec.k[0][1] != spec.k[1][0]
    assert not spec.is_hamiltonian
    # equations of motion: dq = p, dp = -k q
    nv = 4
    assert x.components[0] == var(nv, 2)
    assert x.components[1] == var(nv, 3)
    assert x.components[2] == var(nv, 0) - var(nv, 1)
    assert x.components[3] == Fraction(-1, 2) * var(nv, 0) + Fraction(1, 2) * var(nv, 1)


def test_nonsymmetric_3x3_field_is_p_and_minus_k_q():
    kmat = [[1, 2, -3], [0, Fraction(5, 2), 4], [-7, Fraction(1, 3), 0]]
    spec, x = build_linear_system(kmat)
    assert not spec.is_hamiltonian
    q1, q2, q3, p1, p2, p3 = (var(6, i) for i in range(6))
    assert x.components == (
        p1,
        p2,
        p3,
        -q1 - 2 * q2 + 3 * q3,
        Fraction(-5, 2) * q2 - 4 * q3,
        7 * q1 - Fraction(1, 3) * q2,
    )


def test_nonsquare_rejected():
    with pytest.raises(ValueError):
        build_linear_system([[1, 2, 3], [4, 5, 6]])


# ---------------------------------------------------------------------------
# files and limits
# ---------------------------------------------------------------------------

def test_field_file_roundtrip():
    _, x = build_linear_system(None, masses=(1, 2, 1))
    # the monomial lists that `from-two-form` prints read back as a field file
    data = {"n": x.frame.n, "components": [c.monomial_list() for c in x.components]}
    again = field_from_data(data)
    assert again.components == x.components


def test_field_parse_errors():
    with pytest.raises(InputError, match="line"):
        field_from_data(decode_json("{bad json"))
    with pytest.raises(InputError, match="'components' must list 2n monomial lists"):
        field_from_data(decode_json('{"n": 2, "components": [[]]}'))
    with pytest.raises(InputError, match="missing key 'n'"):
        field_from_data(decode_json('{"components": []}'))


def test_two_form_parse():
    alpha = two_form_from_data(
        decode_json('{"n": 2, "Q": [[1, 2, [["1", 0, 0, 0, 0]]]], "A": [], "P": []}')
    )
    assert alpha.q[0][1] == Poly.constant(4, 1)
    assert alpha.q[1][0] == Poly.constant(4, -1)
    with pytest.raises(InputError, match="Q diagonal entry must vanish"):
        two_form_from_data(decode_json('{"n": 2, "Q": [[1, 1, [["1", 0, 0, 0, 0]]]]}'))
    with pytest.raises(InputError, match=r"Q index \(1,3\) out of range"):
        two_form_from_data(decode_json('{"n": 2, "Q": [[1, 3, [["1", 0, 0, 0, 0]]]]}'))


def test_degree_cap_enforced():
    frame = Frame.darboux(1)
    big = var(2, 0) ** 13
    with pytest.raises(InputError, match="total degree 13 > 12"):
        PolyVectorField(frame, (big, Poly.zero(2)))
