import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poismodp import linalg
from poismodp.deriv import (
    Derivation,
    euler,
    is_alpha_derivation,
    is_poisson_derivation,
    modular_derivation,
)
from poismodp.errors import (
    ArityMismatch,
    JacobiViolation,
    ModulusMismatch,
    ModulusTooLarge,
    NotAlphaDerivation,
    NotGraded,
    NotPoissonDerivation,
    NotSkewSymmetric,
    ParseError,
    WrongArity,
)
from poismodp.fieldpoly import MultiPoly, monomials_of_degree, parse_poly
from poismodp.loz import pder0_matrix_space
from poismodp.structure import (
    SkewMatrix,
    explicit_structure,
    from_ore,
    from_potential,
    from_skew_matrix,
    tensor,
    trivial_structure,
    twist,
)

from conftest import random_poly


def jordan_plane(p):
    return explicit_structure(p, 2, {(0, 1): parse_poly("x1^2", p, 2)})


def draw_poly(data, p, n, degree, max_terms=4):
    """A polynomial of degree <= `degree` with at most `max_terms` terms."""
    monos = [e for d in range(degree + 1) for e in monomials_of_degree(n, d)]
    terms = data.draw(st.dictionaries(st.sampled_from(monos), st.integers(0, p - 1),
                                      max_size=max_terms))
    return MultiPoly(p, n, terms)


def draw_skew(data, p, n):
    upper = {(i, j): data.draw(st.integers(0, p - 1))
             for i in range(n) for j in range(i + 1, n)}
    return from_skew_matrix(SkewMatrix.from_upper(p, n, upper))


def draw_cubic_potential(data, p):
    coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=10, max_size=10))
    return from_potential(MultiPoly(p, 3, dict(zip(monomials_of_degree(3, 3), coeffs))))


def draw_structure(data, p):
    """Skew, potential, Jordan plane, non-graded explicit, Ore or tensor."""
    kind = data.draw(st.sampled_from(
        ["skew", "potential", "jordan", "explicit", "ore", "tensor"]))
    if kind == "skew":
        return draw_skew(data, p, data.draw(st.integers(2, 4)))
    if kind == "potential":
        return from_potential(draw_poly(data, p, 3, 4))
    if kind == "jordan":
        return jordan_plane(p)
    if kind == "explicit":
        # every table on two variables satisfies Jacobi; the Heisenberg
        # bracket {x1, x2} = x3 is linear
        if data.draw(st.booleans()):
            return explicit_structure(p, 3, {(0, 1): MultiPoly.variable(p, 3, 2)})
        return explicit_structure(p, 2, {(0, 1): draw_poly(data, p, 2, 3)})
    if kind == "ore":
        # {x_i, t} = a x_i t + beta(x_i): Euler is a Poisson derivation of a
        # graded base and beta = 0 is an alpha-derivation; on k[x] every
        # pair (alpha, beta) is allowed
        if data.draw(st.booleans()):
            base = draw_skew(data, p, 2)
            alpha = euler(base) * data.draw(st.integers(0, p - 1))
            return from_ore(base, alpha, Derivation.zero(p, 2))
        base = trivial_structure(p, 1)
        alpha, beta = (Derivation(p, 1, [draw_poly(data, p, 1, 2)]) for _ in "ab")
        return from_ore(base, alpha, beta)
    left = data.draw(st.sampled_from(["skew", "jordan"]))
    a = draw_skew(data, p, 2) if left == "skew" else jordan_plane(p)
    return tensor(a, jordan_plane(p))


def pairwise_bracket(s, f, g):
    """sum_{i<j} (df/dx_i dg/dx_j - df/dx_j dg/dx_i) {x_i, x_j}, read from
    the upper-triangle table."""
    out = MultiPoly.zero(s.p, s.n)
    for (i, j), h in s.table.items():
        out = out + (f.partial(i) * g.partial(j) - f.partial(j) * g.partial(i)) * h
    return out


def pairwise_alpha_derivation(s, alpha, beta):
    """The alpha-derivation identity on generator pairs, through the general
    pairwise bracket; alpha = 0 gives the Poisson-derivation identity."""
    xs, a, b = s.gens(), alpha.images, beta.images
    return all(
        beta(pairwise_bracket(s, xs[i], xs[j]))
        == pairwise_bracket(s, b[i], xs[j]) + pairwise_bracket(s, xs[i], b[j])
        + a[i] * b[j] - b[i] * a[j]
        for i in range(s.n)
        for j in range(i + 1, s.n)
    )


class TestSkewMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(NotSkewSymmetric):
            SkewMatrix.from_rows(5, [[0, 1], [1, 0]])
        with pytest.raises(NotSkewSymmetric, match="not square"):
            SkewMatrix.from_rows(5, [[0, 1], [-1]])

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(NotSkewSymmetric):
            SkewMatrix.from_rows(5, [[1, 0], [0, 0]])

    def test_char_two_symmetric_allowed(self):
        c = SkewMatrix.from_rows(2, [[0, 1], [1, 0]])
        assert c[0, 1] == c[1, 0] == 1

    def test_permuted(self):
        c = SkewMatrix.from_rows(5, [[0, 1, 2], [-1, 0, 3], [-2, -3, 0]])
        cp = c.permuted((2, 1, 0))
        assert cp[0, 1] == c[2, 1]

    @pytest.mark.parametrize("rows", [5, [5], [[0, 1.5], [-1.5, 0]], [[0, True], [-1, 0]],
                                      np.zeros((2, 2), dtype=np.int64)])
    def test_rejects_non_integer_rows(self, rows):
        with pytest.raises(ParseError):
            SkewMatrix.from_rows(5, rows)

    def test_no_variables_rejected(self):
        with pytest.raises(ArityMismatch):
            from_skew_matrix(SkewMatrix.from_rows(5, []))


class TestModulusBound:
    # n^2 (p-1)^2 < 2^63: for n = 3 the largest prime below the bound is
    # 1012333499 and the next prime is 1012333519; at p = 2^31 - 1, int64
    # squares the all-(p-1) 3x3 matrix wrongly
    def test_largest_prime_accepted_and_exact(self):
        p = 1012333499
        assert trivial_structure(p, 3).p == p
        a = np.full((3, 3), p - 1, dtype=np.int64)
        assert linalg.mat_mul(a, a, p).tolist() == [[3 * (p - 1) ** 2 % p] * 3] * 3

    @pytest.mark.parametrize("p", [1012333519, 2**31 - 1])
    def test_larger_prime_rejected(self, p):
        with pytest.raises(ModulusTooLarge):
            trivial_structure(p, 3)


class TestConstructors:
    def test_zero_matrix_trivial(self):
        s = from_skew_matrix(SkewMatrix.from_rows(5, [[0, 0], [0, 0]]))
        assert not s.table and s.graded

    def test_two_var_skew(self):
        s = from_skew_matrix(SkewMatrix.from_rows(5, [[0, 2], [-2, 0]]))
        assert s.entry(0, 1) == parse_poly("2*x1*x2", 5, 2)
        assert s.entry(1, 0) == parse_poly("3*x1*x2", 5, 2)

    def test_circulant(self):
        c = SkewMatrix.from_rows(5, [[0, 2, -2], [-2, 0, 2], [2, -2, 0]])
        s = from_skew_matrix(c)
        assert s.graded and s.check_jacobi()

    def test_potential_example(self):
        s = from_potential(parse_poly("x1^3 + x2^2*x3", 5, 3))
        assert s.entry(0, 1) == parse_poly("x2^2", 5, 3)
        assert s.entry(1, 2) == parse_poly("3*x1^2", 5, 3)
        assert s.entry(2, 0) == parse_poly("2*x2*x3", 5, 3)

    def test_potential_two_lines(self):
        s = from_potential(parse_poly("x1^2*x2 + x1*x2^2", 5, 3))
        assert s.entry(0, 1).is_zero
        assert s.entry(1, 2) == parse_poly("2*x1*x2 + x2^2", 5, 3)
        assert s.entry(2, 0) == parse_poly("x1^2 + 2*x1*x2", 5, 3)

    def test_potential_zero(self):
        assert not from_potential(MultiPoly.zero(5, 3)).table

    def test_potential_needs_three_vars(self):
        with pytest.raises(WrongArity):
            from_potential(parse_poly("x1^2", 5, 2))

    def test_jacobi_violation_rejected(self):
        # {x1,x2} = x2, {x2,x3} = x1: the cyclic sum is -x1 != 0
        p = 5
        table = {
            (0, 1): parse_poly("x2", p, 3),
            (1, 2): parse_poly("x1", p, 3),
        }
        with pytest.raises(JacobiViolation):
            explicit_structure(p, 3, table)

    def test_jacobi_on_lie_type_table(self):
        p = 5
        table = {
            (0, 1): parse_poly("x3", p, 3),
            (1, 2): parse_poly("x1", p, 3),
            (0, 2): parse_poly("-x2", p, 3),
        }
        s = explicit_structure(p, 3, table)
        assert s.check_jacobi()


class TestBracket:
    def test_antisymmetry_random(self, rng):
        s = from_potential(parse_poly("x1^2*x2 + x1*x2^2", 5, 3))
        for _ in range(200):
            f = random_poly(rng, 5, 3, 3)
            g = random_poly(rng, 5, 3, 3)
            assert s.bracket(f, g) == -s.bracket(g, f)
            assert s.bracket(f, f).is_zero

    def test_leibniz_random(self, rng):
        structures = [
            jordan_plane(5),
            from_skew_matrix(SkewMatrix.from_rows(5, [[0, 1], [-1, 0]])),
        ]
        for s in structures:
            for _ in range(150):
                f = random_poly(rng, 5, 2, 3)
                g = random_poly(rng, 5, 2, 3)
                h = random_poly(rng, 5, 2, 3)
                assert s.bracket(f, g * h) == g * s.bracket(f, h) + h * s.bracket(f, g)

    def test_bracket_with_gen_agrees(self, rng):
        s = from_potential(parse_poly("2*x1*x2*x3", 5, 3))
        xs = s.gens()
        for _ in range(100):
            f = random_poly(rng, 5, 3, 4)
            for i in range(3):
                assert s.bracket_with_gen(i, f) == s.bracket(xs[i], f)

    def test_monomial_bracket_two_var(self):
        # {x1, x1^i x2^j} = j c x1^{i+1} x2^j
        p, c = 7, 3
        s = from_skew_matrix(SkewMatrix.from_rows(p, [[0, c], [-c, 0]]))
        x1, x2 = s.gens()
        for i, j in [(0, 1), (1, 2), (3, 4)]:
            assert s.bracket(x1, x1**i * x2**j) == (j * c) * x1 ** (i + 1) * x2**j

    def test_central_equations_on_potential(self, rng):
        # f central iff the three wedge equations vanish
        p = 5
        omega = parse_poly("x1^3 + x2^2*x3", p, 3)
        s = from_potential(omega)
        o = [omega.partial(i) for i in range(3)]
        for _ in range(150):
            f = random_poly(rng, p, 3, 3)
            fs = [f.partial(i) for i in range(3)]
            eqs = [
                fs[0] * o[1] - fs[1] * o[0],
                fs[0] * o[2] - fs[2] * o[0],
                fs[2] * o[1] - fs[1] * o[2],
            ]
            central = all(s.bracket_with_gen(i, f).is_zero for i in range(3))
            assert central == all(e.is_zero for e in eqs)


class TestHamiltonianDerivations:
    """The bracket as the derivations ad_i = {x_i, -} against the pairwise
    biderivation formula over the upper-triangle table."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.data())
    def test_against_pairwise_formula(self, data):
        p = data.draw(st.sampled_from([2, 3, 5, 7]))
        s = draw_structure(data, p)
        n, xs = s.n, s.gens()
        f, g = (draw_poly(data, p, n, 3) for _ in "fg")
        assert s.bracket(f, g) == pairwise_bracket(s, f, g)
        for i in range(n):
            assert s.bracket_with_gen(i, f) == pairwise_bracket(s, xs[i], f)
            for j in range(n):
                assert s.entry(i, j) == pairwise_bracket(s, xs[i], xs[j])

        # Poisson derivations (Hamiltonian, modular, Euler when graded) and
        # maps that mostly are not
        hamiltonian = Derivation(p, n, [s.bracket(x, f) for x in xs])
        candidates = [hamiltonian, modular_derivation(s), euler(s),
                      Derivation(p, n, [draw_poly(data, p, n, 2) for _ in xs])]
        candidates.append(candidates[-1] + hamiltonian)
        zero = Derivation.zero(p, n)
        for d in candidates:
            assert is_poisson_derivation(s, d) == pairwise_alpha_derivation(s, zero, d)
        alpha = data.draw(st.sampled_from(candidates))
        for beta in candidates + [zero]:
            assert is_alpha_derivation(s, alpha, beta) == pairwise_alpha_derivation(
                s, alpha, beta)


class TestTensor:
    def test_trivial_tensor_trivial(self):
        t = tensor(trivial_structure(5, 1), trivial_structure(5, 2))
        assert not t.table and t.n == 3

    def test_skew_tensor_line(self):
        s = from_skew_matrix(SkewMatrix.from_rows(5, [[0, 2], [-2, 0]]))
        t = tensor(s, trivial_structure(5, 1))
        assert t.n == 3
        assert t.entry(0, 1) == parse_poly("2*x1*x2", 5, 3)
        assert t.entry(0, 2).is_zero and t.entry(1, 2).is_zero

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatch):
            tensor(trivial_structure(5, 1), trivial_structure(7, 1))


class TestOre:
    def test_jordan_plane_as_ore(self):
        p = 5
        base = trivial_structure(p, 1)
        beta = Derivation(p, 1, [parse_poly("x1^2", p, 1)])
        s = from_ore(base, Derivation.zero(p, 1), beta)
        assert s.table == {(0, 1): parse_poly("x1^2", p, 2)}

    def test_zero_maps_give_tensor(self):
        p = 5
        base = jordan_plane(p)
        s = from_ore(base, Derivation.zero(p, 2), Derivation.zero(p, 2))
        assert s.table == tensor(base, trivial_structure(p, 1)).table

    def test_alpha_term(self):
        p = 5
        base = trivial_structure(p, 1)
        alpha = Derivation(p, 1, [parse_poly("x1", p, 1)])
        s = from_ore(base, alpha, Derivation.zero(p, 1))
        assert s.entry(0, 1) == parse_poly("x1*x2", p, 2)

    def test_bad_beta_rejected(self):
        p = 5
        base = from_skew_matrix(SkewMatrix.from_rows(p, [[0, 1], [-1, 0]]))
        bad = Derivation(p, 2, [parse_poly("x2", p, 2), MultiPoly.zero(p, 2)])
        with pytest.raises(NotAlphaDerivation):
            from_ore(base, Derivation.zero(p, 2), bad)

    def test_bad_alpha_rejected(self):
        p = 5
        base = from_skew_matrix(SkewMatrix.from_rows(p, [[0, 1], [-1, 0]]))
        bad = Derivation(p, 2, [parse_poly("x2", p, 2), MultiPoly.zero(p, 2)])
        with pytest.raises(NotPoissonDerivation):
            from_ore(base, bad, Derivation.zero(p, 2))


class TestTwist:
    def test_zero_twist(self):
        s = jordan_plane(5)
        assert twist(s, Derivation.zero(5, 2)).table == s.table

    def test_euler_twist_identity(self):
        s = from_skew_matrix(SkewMatrix.from_rows(5, [[0, 2, 1], [-2, 0, 0], [-1, 0, 0]]))
        assert twist(s, euler(s)).table == s.table

    def test_twist_to_circulant(self):
        p, a = 5, 2
        s = from_skew_matrix(SkewMatrix.from_rows(p, [[0, a, 0], [-a, 0, 0], [0, 0, 0]]))
        delta = modular_derivation(s) * pow(3, -1, p)
        t = twist(s, delta)
        b = (a * pow(3, -1, p)) % p
        expected = from_skew_matrix(
            SkewMatrix.from_rows(p, [[0, b, -b], [-b, 0, b], [b, -b, 0]])
        )
        assert t.table == expected.table

    def test_twist_involution(self):
        # twisting is additive on generators, so the opposite derivation
        # undoes a twist
        p = 5
        s = from_skew_matrix(
            SkewMatrix.from_rows(p, [[0, 2, 0], [-2, 0, 0], [0, 0, 0]])
        )
        delta = modular_derivation(s) * pow(3, -1, p)
        assert twist(twist(s, delta), -delta).table == s.table

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.data())
    def test_twist_involution_random(self, data):
        p = data.draw(st.sampled_from([3, 5, 7]))
        if data.draw(st.booleans()):
            s = draw_skew(data, p, data.draw(st.integers(2, 4)))
        else:
            s = draw_cubic_potential(data, p)
        mat = np.zeros((s.n, s.n), dtype=np.int64)
        for m in pder0_matrix_space(s):
            mat = mat + data.draw(st.integers(0, p - 1)) * m
        delta = Derivation.from_matrix(p, mat)
        assert twist(twist(s, delta), -delta).table == s.table

    def test_requires_graded(self):
        p = 5
        s = explicit_structure(p, 2, {(0, 1): parse_poly("x1^3", p, 2)})
        with pytest.raises(NotGraded):
            twist(s, Derivation.zero(p, 2))

    def test_requires_poisson_derivation(self):
        s = jordan_plane(5)
        bad = Derivation(5, 2, [parse_poly("x2", 5, 2), MultiPoly.zero(5, 2)])
        with pytest.raises(NotPoissonDerivation):
            twist(s, bad)
