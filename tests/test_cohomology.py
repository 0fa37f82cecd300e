import json
from fractions import Fraction
from math import comb

import pytest

from symplab import linalg
from symplab.cohomology import (
    AlgebraFileError,
    CEComplex,
    LieAlgebra,
    StructureError,
    SymplecticError,
    algebra_from_data,
    betti,
    build_complex,
    bundled_algebra,
    bundled_algebra_text,
    cohomology_space,
    differential,
    el_dim,
    exactness_rank,
    harmonic_dim,
    is_exact,
    lefschetz_rank,
    parse_algebra,
)
from symplab.exterior import Form, Frame, wedge, wedge_power

import oracles


def theta(frame, i):
    """1-based generator form."""
    return Form.generator(frame, i - 1)


@pytest.fixture(scope="module")
def nilm():
    alg = bundled_algebra("nilm6")
    return alg, build_complex(alg)


@pytest.fixture(scope="module")
def torus():
    alg = bundled_algebra("torus6")
    return alg, build_complex(alg)


# ---------------------------------------------------------------------------
# building the complex
# ---------------------------------------------------------------------------

def test_abelian_differentials_vanish(torus):
    _, cx = torus
    for m in range(6):
        assert all(not entry for row in cx.d[m] for entry in row)


def test_nilmanifold_differentials(nilm):
    alg, cx = nilm
    f = alg.frame
    assert differential(cx, theta(f, 1)).is_zero
    assert differential(cx, theta(f, 2)).is_zero
    assert differential(cx, theta(f, 3)).is_zero
    assert differential(cx, theta(f, 4)) == wedge(theta(f, 1), theta(f, 2))
    assert differential(cx, theta(f, 5)) == wedge(theta(f, 1), theta(f, 4)) - wedge(
        theta(f, 2), theta(f, 3)
    )
    assert differential(cx, theta(f, 6)) == wedge(theta(f, 1), theta(f, 5)) + wedge(
        theta(f, 3), theta(f, 4)
    )
    assert differential(cx, alg.omega).is_zero


def test_jacobi_violation_rejected(nilm):
    alg, _ = nilm
    # perturb d theta^6 by theta^2 ^ theta^5: d.d on theta^6 then fails
    bad = LieAlgebra(
        alg.dim,
        alg.structure + ((1, 4, 5, Fraction(1)),),
        alg.omega,
    )
    with pytest.raises(StructureError):
        build_complex(bad)
    # oracle for the same fact: expand d(d theta^6) directly (the CEComplex
    # constructor does not validate)
    bad_cx = CEComplex(bad)
    dd = differential(bad_cx, differential(bad_cx, theta(alg.frame, 6)))
    assert not dd.is_zero


def test_nonclosed_omega_rejected(nilm):
    alg, _ = nilm
    f = alg.frame
    bad_omega = wedge(theta(f, 1), theta(f, 4)) + wedge(theta(f, 2), theta(f, 5)) + wedge(
        theta(f, 3), theta(f, 6)
    )
    with pytest.raises(SymplecticError):
        build_complex(LieAlgebra(alg.dim, alg.structure, bad_omega))


def test_degenerate_omega_rejected():
    frame = Frame.invariant(6)
    degenerate = wedge(theta(frame, 1), theta(frame, 2))
    with pytest.raises(SymplecticError):
        build_complex(LieAlgebra(6, (), degenerate))


def test_dd_zero_everywhere(nilm):
    _, cx = nilm
    for m in range(5):
        prod = linalg.matmul(cx.d[m + 1], cx.d[m])
        assert all(not entry for row in prod for entry in row)


# ---------------------------------------------------------------------------
# Betti numbers
# ---------------------------------------------------------------------------

def test_torus_betti_binomials(torus):
    _, cx = torus
    assert [betti(cx, m) for m in range(7)] == [comb(6, m) for m in range(7)]
    assert betti(cx, 3) == 20


def test_nilmanifold_betti(nilm):
    _, cx = nilm
    assert betti(cx, 1) == 3
    assert betti(cx, 2) == 4
    reps = cohomology_space(cx, 1).representatives
    f = cx.frame
    assert reps == (theta(f, 1), theta(f, 2), theta(f, 3))


def test_cohomology_space_invariants(nilm, torus):
    # representatives are closed cocycles and there are exactly betti of
    # them, in every degree
    for _, cx in (nilm, torus):
        for m in range(7):
            space = cohomology_space(cx, m)
            assert space.dimension == betti(cx, m)
            assert len(space.representatives) == space.dimension
            for rep in space.representatives:
                assert differential(cx, rep).is_zero
                assert not is_exact(cx, rep, m)
        for m in (-1, 7):
            with pytest.raises(ValueError, match="degree out of range"):
                cohomology_space(cx, m)


def nilm6_times_flat(extra):
    """nilm6 + R^extra with omega + theta^7^theta^8 + ..., as a complex."""
    data = json.loads(bundled_algebra_text("nilm6"))
    data["dim"] = 6 + extra
    data["omega"] += [[i, i + 1, "1"] for i in range(7, 7 + extra, 2)]
    return build_complex(algebra_from_data(data))


def test_cohomology_space_matches_prefix_ranks(nilm, torus):
    # the pivots of one rref pick the closed vectors the per-vector prefix
    # ranks pick, in every degree
    cases = [(nilm[1], range(7)), (torus[1], range(7)), (nilm6_times_flat(2), range(4))]
    for cx, degrees in cases:
        for m in degrees:
            assert cohomology_space(cx, m).representatives == (
                oracles.prefix_rank_representatives(cx, m)
            )


def test_cohomology_space_dimension_ten():
    # H^5 of nilm6 + R^4: Kunneth gives 3 + 4*4 + 6*4 + 4*4 + 3 = 62
    cx = nilm6_times_flat(4)
    space = cohomology_space(cx, 5)
    assert space.dimension == betti(cx, 5) == 62
    assert len(space.representatives) == 62
    assert all(differential(cx, rep).is_zero for rep in space.representatives)
    assert exactness_rank(cx, space.representatives, 5) == 62


def test_nilmanifold_poincare_duality(nilm):
    _, cx = nilm
    b = [betti(cx, m) for m in range(7)]
    assert b == b[::-1]
    assert sum((-1) ** m * v for m, v in enumerate(b)) == 0


# ---------------------------------------------------------------------------
# Lefschetz ranks and Euler-Lagrange dimensions
# ---------------------------------------------------------------------------

def test_lefschetz_k1_is_identity(nilm, torus):
    for _, cx in (nilm, torus):
        assert lefschetz_rank(cx, 1) == betti(cx, 1)


def test_torus_lefschetz_rank_oracle(torus):
    alg, cx = torus
    # independent oracle: the 6 -> 20 matrix of wedging closed generators
    # with omega, ranked by sympy (nothing is exact on the abelian complex)
    w = oracles.form_to_tuple(alg.omega)
    rows = [b for b in oracles.all_blades(6) if len(b) == 3]
    index = {b: i for i, b in enumerate(rows)}
    mat = [[Fraction(0)] * 6 for _ in rows]
    for col in range(6):
        out = oracles.twedge(oracles.tform({(col,): 1}), w)
        for b, c in out.items():
            mat[index[b]][col] = c
    assert oracles.sympy_rank(mat) == 6
    assert lefschetz_rank(cx, 2) == 6


def test_nilmanifold_omega_wedge_theta1_exact(nilm):
    alg, cx = nilm
    f = alg.frame
    lhs = wedge(alg.omega, theta(f, 1))
    witness = wedge(theta(f, 2), theta(f, 5)) + wedge(theta(f, 3), theta(f, 6))
    assert (lhs - differential(cx, witness)).is_zero
    assert is_exact(cx, lhs, 3)


def test_nilmanifold_lefschetz_rank_pinned(nilm):
    alg, cx = nilm
    f = alg.frame
    # th1^F is exact; th2^F and th3^F have independent nonzero classes,
    # so the rank oracle pins el_dim(2) = 2 (and it is <= 2 by exactness
    # of the first image)
    assert lefschetz_rank(cx, 2) == 2
    w2 = wedge(theta(f, 2), alg.omega)
    w3 = wedge(theta(f, 3), alg.omega)
    assert not is_exact(cx, w2, 3)
    assert not is_exact(cx, w3, 3)
    assert exactness_rank(cx, [w2, w3], 3) == 2


def test_el_dims(nilm, torus):
    _, cxn = nilm
    _, cxt = torus
    # pi_1 is an isomorphism: el_dim(1) = betti(1)
    assert el_dim(cxn, 1) == betti(cxn, 1) == 3
    assert el_dim(cxt, 1) == betti(cxt, 1) == 6
    # top case equals the (2n-1)-st Betti number
    assert el_dim(cxn, 3) == betti(cxn, 5) == 3
    assert el_dim(cxt, 3) == betti(cxt, 5) == 6
    # strict gaps certifying the nontrivial statements
    assert el_dim(cxt, 2) == 6 < betti(cxt, 3) == 20
    assert el_dim(cxn, 2) == 2 < el_dim(cxn, 1) == 3


def test_el_dims_nonincreasing_below_top(nilm, torus):
    # the groups below the top degree form a surjection chain, so their
    # dimensions cannot increase with k
    for _, cx in (nilm, torus):
        n = cx.alg.dim // 2
        dims = [el_dim(cx, k) for k in range(1, n)]
        assert all(a >= b for a, b in zip(dims, dims[1:]))


def test_el_dim_range(nilm):
    _, cx = nilm
    with pytest.raises(ValueError):
        el_dim(cx, 0)
    with pytest.raises(ValueError):
        el_dim(cx, 4)


def test_representative_independence(nilm):
    alg, cx = nilm
    f = alg.frame
    # adding any boundary to a wedged representative leaves its class
    # membership decisions unchanged
    w2 = wedge(theta(f, 2), alg.omega)
    boundary = differential(cx, wedge(theta(f, 4), theta(f, 5)))
    assert exactness_rank(cx, [w2], 3) == exactness_rank(cx, [w2 + boundary], 3)
    w1 = wedge(theta(f, 1), alg.omega)
    assert is_exact(cx, w1, 3) and is_exact(cx, w1 + boundary, 3)


# ---------------------------------------------------------------------------
# symplectically harmonic dimensions
# ---------------------------------------------------------------------------

def test_torus_harmonic_equals_betti(torus):
    _, cx = torus
    # on the abelian complex d = 0 forces delta = 0: kernel computation
    # collapses to the whole space in each degree
    for m in range(7):
        assert harmonic_dim(cx, m) == betti(cx, m)
    assert harmonic_dim(cx, 0) == 1
    assert harmonic_dim(cx, 3) == 20 != el_dim(cx, 2)


def test_bivector_contraction_normalization(nilm, torus):
    for alg, cx in (nilm, torus):
        n = alg.dim // 2
        value = cx.bivector_contraction(alg.omega)
        assert value == Form.scalar(alg.frame, Fraction(n))


def test_delta_squares_to_zero(nilm):
    _, cx = nilm
    for m in range(2, 7):
        product = linalg.matmul(cx.delta_matrix(m - 1), cx.delta_matrix(m))
        assert all(not entry for row in product for entry in row)


def test_matrices_match_form_level_maps(nilm, torus):
    # every column of d_m and delta_m is the Form-level image of its blade
    for cx in (nilm[1], torus[1], nilm6_times_flat(2)):
        dim = cx.alg.dim
        f = cx.bivector_contraction
        for m in range(dim + 1):
            for col, mask in enumerate(cx.bases[m]):
                b = Form(cx.frame, {mask: Fraction(1)})
                d_col = [row[col] for row in cx.d[m]]
                if m < dim:
                    assert d_col == cx.to_vector(differential(cx, b), m + 1)
                else:
                    assert d_col == [] and differential(cx, b).is_zero
                delta_col = [row[col] for row in cx.delta_matrix(m)]
                image = f(differential(cx, b)) - differential(cx, f(b))
                if m >= 1:
                    assert delta_col == cx.to_vector(image, m - 1)
                else:
                    assert delta_col == [] and image.is_zero


def test_nilmanifold_harmonic_bounded_by_betti(nilm):
    _, cx = nilm
    for m in range(7):
        assert 0 <= harmonic_dim(cx, m) <= betti(cx, m)
    assert harmonic_dim(cx, 1) == betti(cx, 1)
    assert harmonic_dim(cx, 0) == 1


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------

def test_parse_error_has_line_and_column():
    with pytest.raises(AlgebraFileError, match=r"line \d+, column \d+"):
        parse_algebra('{"dim": 6,,}')


def test_algebra_data_validation():
    with pytest.raises(AlgebraFileError):
        algebra_from_data({"dim": 6, "d": [], "omega": []})
    with pytest.raises(AlgebraFileError):
        algebra_from_data({"dim": 6, "d": [[1, 2, 4]], "omega": [[1, 4, "1"]]})
    with pytest.raises(AlgebraFileError):
        algebra_from_data({"dim": 6, "d": [], "omega": [[4, 1, "1"]]})
    with pytest.raises(AlgebraFileError):
        algebra_from_data({"d": [], "omega": [[1, 2, "1"]]})


def test_four_dimensional_nilpotent_algebra():
    # dim-4 algebra with d th4 = th1^th2 and omega = th1^th3 + th2^th4:
    # closed, nondegenerate, with first Betti number 3
    alg = algebra_from_data(
        {
            "dim": 4,
            "d": [[1, 2, 4, "1"]],
            "omega": [[1, 3, "1"], [2, 4, "1"]],
        }
    )
    cx = build_complex(alg)
    assert [betti(cx, m) for m in range(5)] == [1, 3, 4, 3, 1]
    assert el_dim(cx, 1) == 3
    assert el_dim(cx, 2) == betti(cx, 3) == 3
    for m in range(5):
        assert 0 <= harmonic_dim(cx, m) <= betti(cx, m)


def test_differential_is_an_antiderivation(nilm):
    alg, cx = nilm
    f = alg.frame
    samples = [
        (theta(f, 1), theta(f, 5)),
        (theta(f, 4), wedge(theta(f, 2), theta(f, 5))),
        (alg.omega, theta(f, 6)),
        (wedge(theta(f, 4), theta(f, 6)), wedge(theta(f, 3), theta(f, 5))),
    ]
    for a, b in samples:
        da = a.homogeneous_degree
        lhs = differential(cx, wedge(a, b))
        rhs = wedge(differential(cx, a), b) + Fraction(-1) ** da * wedge(
            a, differential(cx, b)
        )
        assert lhs == rhs


def test_bundled_files_byte_stable():
    text1 = bundled_algebra_text("nilm6")
    text2 = bundled_algebra_text("nilm6.alg")
    assert text1 == text2
    assert text1.startswith("{")
    alg = parse_algebra(text1)
    assert alg.dim == 6
    assert len(alg.structure) == 5
    torus_text = bundled_algebra_text("torus6")
    assert parse_algebra(torus_text).structure == ()
