import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poismodp.deriv import (
    Derivation,
    apply_derivation,
    divergence,
    euler,
    is_alpha_derivation,
    is_poisson_derivation,
    is_unimodular,
    modular_derivation,
)
from poismodp.errors import ArityMismatch
from poismodp.fieldpoly import MultiPoly, format_poly, parse_poly
from poismodp.structure import (
    SkewMatrix,
    explicit_structure,
    from_potential,
    from_skew_matrix,
    trivial_structure,
)

from conftest import random_poly


def jordan_plane(p):
    return explicit_structure(p, 2, {(0, 1): parse_poly("x1^2", p, 2)})


@st.composite
def polys(draw, p, n):
    """Up to 6 terms with exponents up to 2p and coefficients in [0, p):
    zero, constant and non-homogeneous polynomials among them."""
    exps = st.tuples(*[st.integers(0, 2 * p)] * n)
    return MultiPoly(p, n, draw(st.dictionaries(exps, st.integers(0, p - 1), max_size=6)))


def leibniz_reference(d, f):
    """sum_j (df/dx_j) d(x_j), built from `partial`, `*` and `+`."""
    out = MultiPoly.zero(d.p, d.n)
    for j, g in enumerate(d.images):
        out = out + f.partial(j) * g
    return out


class TestApply:
    def test_constants_die(self):
        d = Derivation(5, 2, [parse_poly("x2", 5, 2), parse_poly("x1", 5, 2)])
        assert apply_derivation(d, MultiPoly.const(5, 2, 3)).is_zero

    def test_euler_scales_by_degree(self):
        s = trivial_structure(5, 2)
        e = euler(s)
        f = parse_poly("x1^2*x2", 5, 2)
        assert apply_derivation(e, f) == 3 * f

    def test_euler_kills_pth_power(self):
        s = trivial_structure(5, 1)
        e = euler(s)
        assert apply_derivation(e, parse_poly("x1^5", 5, 1)).is_zero

    def test_leibniz_from_images(self):
        # x1 -> 0, x2 -> -x1 applied to x1 x2
        d = Derivation(5, 2, [MultiPoly.zero(5, 2), parse_poly("-x1", 5, 2)])
        assert apply_derivation(d, parse_poly("x1*x2", 5, 2)) == parse_poly(
            "-x1^2", 5, 2
        )

    def test_leibniz_random(self, rng):
        d = Derivation(5, 3, [random_poly(rng, 5, 3, 2) for _ in range(3)])
        for _ in range(200):
            f = random_poly(rng, 5, 3, 3)
            g = random_poly(rng, 5, 3, 3)
            assert apply_derivation(d, f * g) == apply_derivation(
                d, f
            ) * g + f * apply_derivation(d, g)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.data())
    def test_against_partials(self, data):
        # exponents up to 2p reach e_j = p and 2p, whose partials vanish;
        # coefficients 0 leave some images zero, and exponents of mixed
        # degree make images and inputs non-homogeneous.  The Hamiltonian
        # derivation of f in x1, x2 kills f: its products cancel to 0
        p = data.draw(st.sampled_from([2, 3, 5, 7]))
        n = data.draw(st.integers(1, 4))
        f = data.draw(polys(p, n))
        hamiltonian = n > 1 and data.draw(st.booleans())
        if hamiltonian:
            images = [f.partial(1), -f.partial(0)] + [MultiPoly.zero(p, n)] * (n - 2)
        else:
            images = [data.draw(polys(p, n)) for _ in range(n)]
        d = Derivation(p, n, images)
        out = apply_derivation(d, f)
        assert out == leibniz_reference(d, f)
        assert all(0 < c < p for c in out.terms.values())
        assert out.is_zero or not hamiltonian

    def test_arity_mismatch(self):
        d = Derivation.zero(5, 2)
        with pytest.raises(ArityMismatch):
            apply_derivation(d, MultiPoly.variable(5, 3, 0))


class TestModularDerivation:
    def test_skew_row_sums(self):
        # phi(x_i) = (sum_j c_ij) x_i
        p = 7
        c = SkewMatrix.from_rows(p, [[0, 2, 3], [-2, 0, 1], [-3, -1, 0]])
        s = from_skew_matrix(c)
        phi = modular_derivation(s)
        for i, image in enumerate(phi.images):
            expected = sum(c[i, j] for j in range(3)) % p
            assert image == expected * MultiPoly.variable(p, 3, i)

    def test_jordan_plane(self):
        # row convention: phi = (0, -2 x1)
        phi = modular_derivation(jordan_plane(5))
        assert [format_poly(g) for g in phi.images] == ["0", "3*x1"]

    def test_potential_structures_unimodular(self):
        for text in ["x1^3", "x1^2*x2", "2*x1*x2*x3", "x1^3 + x2^2*x3"]:
            s = from_potential(parse_poly(text, 5, 3))
            assert modular_derivation(s).is_zero()
            assert is_unimodular(s)

    def test_unimodular_iff_row_sums_vanish(self):
        # every 3x3 skew matrix at p = 3 and 5 and every 4x4 at p = 3: the
        # definition agrees with the paper's row-sum criterion
        for p, n in [(3, 3), (5, 3), (3, 4)]:
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            for upper in itertools.product(range(p), repeat=len(pairs)):
                c = SkewMatrix.from_upper(p, n, dict(zip(pairs, upper)))
                assert is_unimodular(from_skew_matrix(c)) == all(
                    s == 0 for s in c.row_sums()
                )

    def test_circulant_unimodular(self):
        c = SkewMatrix.from_rows(5, [[0, 2, -2], [-2, 0, 2], [2, -2, 0]])
        assert is_unimodular(from_skew_matrix(c))

    def test_example_regular_not_unimodular(self):
        c = SkewMatrix.from_rows(5, [[0, 2, 0], [-2, 0, 0], [0, 0, 0]])
        assert not is_unimodular(from_skew_matrix(c))

    def test_trivial_unimodular(self):
        assert is_unimodular(trivial_structure(5, 3))


class TestDivergence:
    def test_euler(self):
        assert divergence(euler(trivial_structure(5, 3))) == MultiPoly.const(5, 3, 3)

    def test_x3_image_without_x3(self):
        d = Derivation(
            5,
            3,
            [MultiPoly.zero(5, 3), MultiPoly.zero(5, 3), parse_poly("x1 + 2*x2", 5, 3)],
        )
        assert divergence(d).is_zero

    def test_zero(self):
        assert divergence(Derivation.zero(5, 2)).is_zero


class TestPoissonDerivation:
    def test_euler_on_graded(self):
        for s in [
            jordan_plane(5),
            from_skew_matrix(SkewMatrix.from_rows(5, [[0, 1], [-1, 0]])),
            from_potential(parse_poly("2*x1*x2*x3", 5, 3)),
        ]:
            assert is_poisson_derivation(s, euler(s))

    def test_hamiltonian_flavor(self):
        # a |-> {a, f} is always a Poisson derivation (Jacobi)
        s = from_potential(parse_poly("x1^2*x2 + x1*x2^2", 5, 3))
        f = parse_poly("x1*x2", 5, 3)
        d = Derivation(5, 3, [s.bracket_with_gen(i, f) for i in range(3)])
        assert is_poisson_derivation(s, d)

    def test_rotation_fails_on_skew(self):
        s = from_skew_matrix(SkewMatrix.from_rows(5, [[0, 2], [-2, 0]]))
        d = Derivation(5, 2, [parse_poly("x2", 5, 2), MultiPoly.zero(5, 2)])
        assert not is_poisson_derivation(s, d)

    def test_modular_derivation_is_poisson(self):
        for s in [
            jordan_plane(5),
            from_skew_matrix(SkewMatrix.from_rows(5, [[0, 2, 0], [-2, 0, 0], [0, 0, 0]])),
        ]:
            assert is_poisson_derivation(s, modular_derivation(s))


class TestAlphaDerivation:
    def test_plain_derivation_when_alpha_zero(self):
        p = 5
        base = trivial_structure(p, 2)
        beta = Derivation(
            p, 2, [parse_poly("-x1^2 - 2*x1*x2", p, 2), parse_poly("2*x1*x2 + x2^2", p, 2)]
        )
        assert is_alpha_derivation(base, Derivation.zero(p, 2), beta)

    def test_alpha_term_matters(self):
        p = 5
        base = from_skew_matrix(SkewMatrix.from_rows(p, [[0, 1], [-1, 0]]))
        alpha = euler(base)
        beta = Derivation(p, 2, [parse_poly("x1", p, 2), MultiPoly.zero(p, 2)])
        lhs = is_alpha_derivation(base, alpha, beta)
        plain = is_alpha_derivation(base, Derivation.zero(p, 2), beta)
        assert lhs != plain


class TestDerivationArithmetic:
    def test_group_operations(self):
        d1 = Derivation(5, 2, [parse_poly("x1", 5, 2), MultiPoly.zero(5, 2)])
        d2 = Derivation(5, 2, [MultiPoly.zero(5, 2), parse_poly("x2", 5, 2)])
        s = d1 + d2
        assert s.images[0] == parse_poly("x1", 5, 2)
        assert (s - d2) == d1
        assert (d1 * 5).is_zero()

    def test_matrix_roundtrip(self):
        d = Derivation(5, 2, [parse_poly("x1 + 2*x2", 5, 2), parse_poly("3*x1", 5, 2)])
        assert Derivation.from_matrix(5, d.matrix()) == d
        # entries are read mod p, whatever their representative
        assert Derivation.from_matrix(5, [[6, -3], [13, -10]]) == d

    def test_matrix_on_degree_needs_degree_zero(self):
        z = MultiPoly.zero(5, 3)
        d = Derivation(5, 3, [parse_poly("x2^2 + x1", 5, 3), z, z])
        with pytest.raises(ArityMismatch):
            d.matrix_on_degree(4)

    def test_graded_degree_zero_flag(self):
        assert Derivation(5, 2, [parse_poly("x2", 5, 2), MultiPoly.zero(5, 2)]).is_graded_degree_zero()
        assert not Derivation(5, 2, [parse_poly("x2^2", 5, 2), MultiPoly.zero(5, 2)]).is_graded_degree_zero()
