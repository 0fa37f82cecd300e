from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from symplab.exterior import Form, Frame
from symplab.polynomials import (
    InputError,
    Poly,
    check_input_degree,
    format_poly,
    poly_from_monomials,
    sum_terms,
)


def small_polys(nvars):
    exps = st.tuples(*(st.integers(0, 2) for _ in range(nvars)))
    coeff = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))
    return st.dictionaries(exps, coeff, max_size=4).map(lambda t: Poly(nvars, t))


def test_basic_arithmetic():
    q = Poly.variable(2, 0)
    p = Poly.variable(2, 1)
    h = Fraction(1, 2) * (q * q + p * p)
    assert h.eval([1, 1]) == 1
    assert h.diff(0) == q
    assert h.diff(1) == p
    assert (q + p) * (q - p) == q * q - p * p
    assert q ** 3 == q * q * q
    assert (q - q).is_zero


def test_constant_interop():
    q = Poly.variable(2, 0)
    assert q + 1 == Poly(2, {(1, 0): 1, (0, 0): 1})
    assert 2 * q == q + q
    assert q * Fraction(0) == Poly.zero(2)
    assert Poly.constant(2, Fraction(3, 2)) == Fraction(3, 2)


def test_constant_polys_hash_as_their_constant():
    assert Poly.constant(2, 3) == 3 and hash(Poly.constant(2, 3)) == hash(3)
    assert Poly.zero(2) == 0 and hash(Poly.zero(2)) == hash(0)
    frame = Frame.darboux(1)
    a, b = Form(frame, {1: Fraction(3)}), Form(frame, {1: Poly.constant(2, 3)})
    assert a == b and len({a, b}) == 1


def test_sum_terms_adds_equal_keys_in_the_given_order():
    # string concatenation does not commute, so it shows the order
    merged = sum_terms([("a", "x"), ("b", "y"), ("a", "z"), ("a", "w")])
    assert merged == {"a": "xzw", "b": "y"} and list(merged) == ["a", "b"]
    assert sum_terms([]) == {}
    assert sum_terms(iter([(1, Fraction(1, 2)), (1, Fraction(1, 3))])) == {1: Fraction(5, 6)}


def test_sum_terms_leaves_a_cancelling_sum_for_poly_and_form_to_drop():
    merged = sum_terms([((1, 0), Fraction(2)), ((0, 1), Fraction(1)), ((1, 0), Fraction(-2))])
    assert merged == {(1, 0): 0, (0, 1): 1}
    assert Poly(2, merged) == Poly.variable(2, 1)
    frame = Frame.darboux(1)
    assert Form(frame, sum_terms([(1, Fraction(1)), (1, Fraction(-1))])).is_zero


def test_sum_terms_merges_poly_coefficients_of_a_form():
    frame = Frame.darboux(1)
    q, p = Poly.variable(2, 0), Poly.variable(2, 1)
    merged = Form(frame, sum_terms([(1, q), (2, p), (1, q), (2, -p), (3, p)]))
    assert merged.terms == {1: 2 * q, 3: p}


def test_monomial_list_roundtrip():
    poly = Poly(3, {(2, 0, 1): Fraction(1, 3), (0, 1, 0): Fraction(-2)})
    listed = poly.monomial_list()
    assert listed == sorted(listed)  # lexicographic canonical order
    assert poly_from_monomials(3, listed) == poly


def test_monomial_parse_errors():
    with pytest.raises(ValueError):
        poly_from_monomials(2, [["1", 0]])
    with pytest.raises(ValueError):
        poly_from_monomials(2, [["1", -1, 0]])
    with pytest.raises(TypeError):
        poly_from_monomials(2, [[1.5, 0, 0]])


def test_degree_cap():
    q = Poly.variable(1, 0)
    check_input_degree(q ** 12)
    with pytest.raises(InputError, match="total degree 13 > 12"):
        check_input_degree(q ** 13)


def test_format_lexicographic():
    poly = Poly(2, {(0, 1): Fraction(1), (1, 0): Fraction(-1)})
    assert format_poly(poly, ["q", "p"]) == "p - q"
    assert format_poly(Poly.zero(2)) == "0"


@settings(max_examples=40, deadline=None)
@given(small_polys(3), small_polys(3), small_polys(3))
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@settings(max_examples=40, deadline=None)
@given(small_polys(3), small_polys(3), st.integers(0, 2))
def test_diff_is_a_derivation(a, b, i):
    assert (a * b).diff(i) == a.diff(i) * b + a * b.diff(i)


@settings(max_examples=30, deadline=None)
@given(small_polys(2), st.lists(st.integers(-3, 3), min_size=2, max_size=2))
def test_eval_homomorphism(a, point):
    b = Poly.variable(2, 0) + 1
    assert (a * b).eval(point) == a.eval(point) * b.eval(point)
    assert (a + b).eval(point) == a.eval(point) + b.eval(point)
