import json
from fractions import Fraction
from math import comb

import pytest

from symplab import linalg
from symplab.cohomology import (
    CEComplex,
    LieAlgebra,
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
    lefschetz_map_rank,
    parse_algebra,
)
from symplab.exterior import Form, Frame, image_matrix, wedge, wedge_power
from symplab.polynomials import InputError

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
    with pytest.raises(InputError, match="structure constants violate Jacobi"):
        build_complex(bad)
    # oracle for the same fact: expand d(d theta^6) directly (the CEComplex
    # constructor checks only that omega is nondegenerate)
    bad_cx = CEComplex(bad)
    dd = differential(bad_cx, differential(bad_cx, theta(alg.frame, 6)))
    assert not dd.is_zero


def test_nonclosed_omega_rejected(nilm):
    alg, _ = nilm
    f = alg.frame
    bad_omega = wedge(theta(f, 1), theta(f, 4)) + wedge(theta(f, 2), theta(f, 5)) + wedge(
        theta(f, 3), theta(f, 6)
    )
    with pytest.raises(InputError, match="distinguished 2-form is not closed"):
        build_complex(LieAlgebra(alg.dim, alg.structure, bad_omega))


def test_degenerate_omega_rejected():
    frame = Frame.invariant(6)
    degenerate = wedge(theta(frame, 1), theta(frame, 2))
    with pytest.raises(InputError, match="distinguished 2-form is degenerate"):
        build_complex(LieAlgebra(6, (), degenerate))
    # the one decision is the Poisson bivector's, made when the complex is
    # built; a nondegenerate omega gets the inverse of its Gram matrix
    with pytest.raises(InputError, match=r"^distinguished 2-form is degenerate: omega\^n = 0$"):
        CEComplex(LieAlgebra(6, (), degenerate))
    f4 = Frame.invariant(4)
    darboux = wedge(theta(f4, 1), theta(f4, 2)) + wedge(theta(f4, 3), theta(f4, 4))
    poisson = CEComplex(LieAlgebra(4, (), darboux)).poisson
    assert poisson == [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]


def test_omega_of_mixed_degree_rejected():
    # harmonic_dim once read 1, 4, 6, 4, 1 off the 2-form part alone
    f4 = Frame.invariant(4)
    darboux = wedge(theta(f4, 1), theta(f4, 2)) + wedge(theta(f4, 3), theta(f4, 4))
    with pytest.raises(ValueError, match="^symplectic form must be a 2-form$"):
        LieAlgebra(4, (), darboux + wedge(wedge(theta(f4, 1), theta(f4, 2)), theta(f4, 3)))


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
                assert exactness_rank(cx, [rep], m) == 1
        for m in (-1, 7):
            with pytest.raises(ValueError, match="degree out of range"):
                cohomology_space(cx, m)


def nilm6_times_flat(extra):
    """nilm6 + R^extra with omega + theta^7^theta^8 + ..., as a complex."""
    data = json.loads(bundled_algebra_text("nilm6"))
    data["dim"] = 6 + extra
    data["omega"] += [[i, i + 1, "1"] for i in range(7, 7 + extra, 2)]
    return build_complex(algebra_from_data(data))


@pytest.fixture(scope="module")
def nilm_flat():
    return nilm6_times_flat(2)


def test_nilm6_times_flat_tables_pinned(nilm_flat):
    cx = nilm_flat
    assert [betti(cx, m) for m in range(9)] == [1, 5, 11, 15, 16, 15, 11, 5, 1]
    assert [el_dim(cx, k) for k in range(1, 5)] == [5, 5, 4, 5]
    assert [harmonic_dim(cx, m) for m in range(9)] == [1, 5, 11, 13, 10, 6, 3, 2, 1]


def test_cohomology_space_matches_prefix_ranks(nilm, torus, nilm_flat):
    # the pivots of one rref pick the closed vectors the per-vector prefix
    # ranks pick, in every degree
    cases = [(nilm[1], range(7)), (torus[1], range(7)), (nilm_flat, range(4))]
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
        assert lefschetz_map_rank(cx, 1, 0) == betti(cx, 1)


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
    assert lefschetz_map_rank(cx, 1, 1) == 6


def test_nilmanifold_omega_wedge_theta1_exact(nilm):
    alg, cx = nilm
    f = alg.frame
    lhs = wedge(alg.omega, theta(f, 1))
    witness = wedge(theta(f, 2), theta(f, 5)) + wedge(theta(f, 3), theta(f, 6))
    assert (lhs - differential(cx, witness)).is_zero
    assert exactness_rank(cx, [lhs], 3) == 0


def test_nilmanifold_lefschetz_rank_pinned(nilm):
    alg, cx = nilm
    f = alg.frame
    # th1^F is exact; th2^F and th3^F have independent nonzero classes,
    # so the rank oracle pins el_dim(2) = 2 (and it is <= 2 by exactness
    # of the first image)
    assert lefschetz_map_rank(cx, 1, 1) == 2
    w2 = wedge(theta(f, 2), alg.omega)
    w3 = wedge(theta(f, 3), alg.omega)
    assert exactness_rank(cx, [w2], 3) == exactness_rank(cx, [w3], 3) == 1
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


@pytest.fixture(scope="module")
def torus8():
    omega = [[i, i + 4, "1"] for i in range(1, 5)]
    return build_complex(algebra_from_data({"dim": 8, "d": [], "omega": omega}))


@pytest.fixture(scope="module")
def benchmark_algebras(nilm, torus, nilm_flat, torus8):
    """The four algebras the benchmark builds, by name."""
    return {"nilm6": nilm[1], "torus6": torus[1], "nilm6xR2": nilm_flat, "torus8": torus8}


def top_lefschetz_ranks(cx):
    """Ranks of L^{n-k}: H^k -> H^{2n-k} for k = 0..n."""
    n = cx.alg.dim // 2
    return [lefschetz_map_rank(cx, k, n - k) for k in range(n + 1)]


def test_yan_harmonic_dims_from_lefschetz_ranks(benchmark_algebras):
    # Yan (1996): a symplectically harmonic class exists in every class of
    # degree <= 2, and in degree 2n - k the harmonic classes are the image
    # of L^{n-k} on H^k
    for cx in benchmark_algebras.values():
        n = cx.alg.dim // 2
        for k in range(3):
            assert harmonic_dim(cx, k) == betti(cx, k)
            assert harmonic_dim(cx, 2 * n - k) == lefschetz_map_rank(cx, k, n - k)


def test_hard_lefschetz_on_tori(benchmark_algebras):
    for name in ("torus6", "torus8"):
        cx = benchmark_algebras[name]
        n = cx.alg.dim // 2
        assert top_lefschetz_ranks(cx) == [comb(2 * n, k) for k in range(n + 1)]


def test_benson_gordon_nilmanifolds_fail_hard_lefschetz(benchmark_algebras):
    # Benson-Gordon (1988): a non-toral nilmanifold is not hard Lefschetz
    for name in ("nilm6", "nilm6xR2"):
        cx = benchmark_algebras[name]
        ranks = top_lefschetz_ranks(cx)
        assert any(r < betti(cx, k) for k, r in enumerate(ranks))
    nilm6 = benchmark_algebras["nilm6"]
    assert top_lefschetz_ranks(nilm6)[1:3] == [0, 2]
    assert [betti(nilm6, k) for k in (1, 2)] == [3, 4]


def test_poincare_duality_on_benchmark_algebras(benchmark_algebras):
    for cx in benchmark_algebras.values():
        b = [betti(cx, m) for m in range(cx.alg.dim + 1)]
        assert b == b[::-1]


def test_lefschetz_map_rank_range(nilm):
    _, cx = nilm
    for k, j in ((-1, 0), (0, -1), (1, 3), (7, 0)):
        with pytest.raises(ValueError, match="k \\+ 2j <= dim"):
            lefschetz_map_rank(cx, k, j)
    assert lefschetz_map_rank(cx, 0, 3) == 1
    assert lefschetz_map_rank(cx, 6, 0) == 1


def test_representative_independence(nilm):
    alg, cx = nilm
    f = alg.frame
    # adding any boundary to a wedged representative leaves its class
    # membership decisions unchanged
    w2 = wedge(theta(f, 2), alg.omega)
    boundary = differential(cx, wedge(theta(f, 4), theta(f, 5)))
    assert exactness_rank(cx, [w2], 3) == exactness_rank(cx, [w2 + boundary], 3)
    w1 = wedge(theta(f, 1), alg.omega)
    assert exactness_rank(cx, [w1], 3) == exactness_rank(cx, [w1 + boundary], 3) == 0


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


def column(cx, form, degree):
    """The coefficients of ``form`` on the degree's blade basis."""
    return [row[0] for row in image_matrix(cx.frame, [form], degree)]


def test_matrices_match_form_level_maps(nilm, torus, nilm_flat):
    # every column of d_m and delta_m is the Form-level image of its blade
    for cx in (nilm[1], torus[1], nilm_flat):
        dim = cx.alg.dim
        f = cx.bivector_contraction
        for m in range(dim + 1):
            delta = cx.delta_matrix(m)
            for col, mask in enumerate(cx.bases[m]):
                b = Form(cx.frame, {mask: Fraction(1)})
                d_col = [row[col] for row in cx.d[m]]
                if m < dim:
                    assert d_col == column(cx, differential(cx, b), m + 1)
                else:
                    assert d_col == [] and differential(cx, b).is_zero
                delta_col = [row[col] for row in delta]
                image = f(differential(cx, b)) - differential(cx, f(b))
                if m >= 1:
                    assert delta_col == column(cx, image, m - 1)
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
    with pytest.raises(InputError, match=r"line \d+, column \d+"):
        parse_algebra('{"dim": 6,,}')


def test_algebra_data_validation():
    with pytest.raises(InputError, match="missing 'omega'"):
        algebra_from_data({"dim": 6, "d": [], "omega": []})
    with pytest.raises(InputError, match=r"structure row \[1, 2, 4\] needs \[i, j, k, c\]"):
        algebra_from_data({"dim": 6, "d": [[1, 2, 4]], "omega": [[1, 4, "1"]]})
    with pytest.raises(InputError, match=r"omega pair \(4,1\) needs 1 <= i < j <= dim"):
        algebra_from_data({"dim": 6, "d": [], "omega": [[4, 1, "1"]]})
    with pytest.raises(InputError, match="missing key 'dim'"):
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


def structure_differential(alg, k):
    """d theta^k read off the structure rows by wedges of generators."""
    f = alg.frame
    out = Form.zero(f)
    for i, j, target, c in alg.structure:
        if target == k:
            out = out + c * wedge(Form.generator(f, i), Form.generator(f, j))
    return out


def leibniz_holds(cx, a, b):
    """d(a ^ b) = da ^ b + (-1)^deg(a) a ^ db for a homogeneous a."""
    rhs = wedge(differential(cx, a), b) + Fraction(-1) ** a.homogeneous_degree * wedge(
        a, differential(cx, b)
    )
    return differential(cx, wedge(a, b)) == rhs


def test_differential_is_an_antiderivation(nilm, nilm_flat):
    alg, cx = nilm
    f = alg.frame
    samples = [
        (theta(f, 1), theta(f, 5)),
        (theta(f, 4), wedge(theta(f, 2), theta(f, 5))),
        (alg.omega, theta(f, 6)),
        (wedge(theta(f, 4), theta(f, 6)), wedge(theta(f, 3), theta(f, 5))),
    ]
    assert all(leibniz_holds(cx, a, b) for a, b in samples)
    # d is fixed by its values on the generators and the Leibniz rule;
    # check both, the rule on every pair of blades of degree <= 2
    for c in (cx, nilm_flat):
        assert differential(c, Form.scalar(c.frame, Fraction(1))).is_zero
        for k in range(c.alg.dim):
            assert differential(c, Form.generator(c.frame, k)) == structure_differential(c.alg, k)
        blades = [Form(c.frame, {mask: Fraction(1)}) for m in range(3) for mask in c.bases[m]]
        assert all(leibniz_holds(c, a, b) for a in blades for b in blades)


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
