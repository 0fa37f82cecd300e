from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from symplab.polynomials import (
    InputError,
    Poly,
    check_input_degree,
    format_poly,
    poly_from_monomials,
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
