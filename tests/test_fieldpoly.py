import itertools

import numpy as np
import pytest

from poismodp import linalg
from poismodp.errors import (
    ArityMismatch,
    IndexOutOfRange,
    ModulusMismatch,
    ParseError,
    ZeroDivisor,
    ZeroInput,
    ZeroInverse,
)
from poismodp.fieldpoly import (
    MultiPoly,
    UniPoly,
    divides,
    ff_inv,
    format_poly,
    monomials_of_degree,
    monomials_upto_degree,
    parse_poly,
    poly_divmod,
    poly_mul,
    squarefree,
)

from conftest import random_nonzero_poly, random_poly


def homogeneous_components(f):
    """f split into (degree, component) pairs, by increasing degree."""
    buckets = {}
    for e, c in f.terms.items():
        buckets.setdefault(sum(e), {})[e] = c
    return [(d, MultiPoly(f.p, f.n, buckets[d])) for d in sorted(buckets)]


class TestFieldArithmetic:
    def test_inverse_identity(self):
        assert ff_inv(1, 5) == 1

    def test_inverse_two_mod_five(self):
        assert ff_inv(2, 5) == 3
        assert (2 * 3) % 5 == 1

    def test_zero_inverse_rejected(self):
        with pytest.raises(ZeroInverse):
            ff_inv(0, 7)

    def test_all_inverses_small_primes(self):
        for p in (2, 3, 5, 7, 11, 13):
            for a in range(1, p):
                assert (a * ff_inv(a, p)) % p == 1


class TestMultiPolyBasics:
    def test_zero_absorbs(self):
        p, n = 5, 2
        x1 = MultiPoly.variable(p, n, 0)
        assert (x1 * MultiPoly.zero(p, n)).is_zero

    def test_frobenius_square_mod_two(self):
        f = parse_poly("x1 + x2", 2, 2)
        assert f * f == parse_poly("x1^2 + x2^2", 2, 2)

    def test_monomial_product(self):
        x1, x2 = MultiPoly.gens(5, 2)
        assert x1 * x2**2 == parse_poly("x1*x2^2", 5, 2)

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatch):
            poly_mul(MultiPoly.variable(5, 2, 0), MultiPoly.variable(7, 2, 0))

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            poly_mul(MultiPoly.variable(5, 2, 0), MultiPoly.variable(5, 3, 0))

    def test_degree_of_zero_is_none(self):
        assert MultiPoly.zero(5, 2).degree() is None

    def test_product_above_degree_64(self):
        # no term degree cap: only the engines' Limits bound the work
        x1 = MultiPoly.variable(5, 1, 0)
        assert (x1**32) * (x1**33) == MultiPoly.monomial(5, 1, (65,))

    def test_power_rule(self):
        x1 = MultiPoly.variable(5, 3, 0)
        assert (x1**3).partial(0) == 3 * x1**2

    def test_partial_kills_pth_powers(self):
        f = parse_poly("x1^3", 3, 3)
        assert f.partial(0).is_zero

    def test_partial_other_variable(self):
        f = parse_poly("x1^2*x2", 5, 3)
        assert f.partial(1) == parse_poly("x1^2", 5, 3)

    def test_partial_index_range(self):
        with pytest.raises(IndexOutOfRange):
            MultiPoly.variable(5, 2, 0).partial(2)

    def test_homogeneous_components(self):
        f = parse_poly("x1 + x1^3", 5, 2)
        comps = homogeneous_components(f)
        assert [(d, format_poly(g)) for d, g in comps] == [(1, "x1"), (3, "x1^3")]
        assert homogeneous_components(parse_poly("x1^2 + x1*x2", 5, 2)) == [
            (2, parse_poly("x1^2 + x1*x2", 5, 2))
        ]
        assert homogeneous_components(MultiPoly.zero(5, 2)) == []


class TestDivision:
    def test_linear_divisor(self):
        p, n = 5, 2
        x1, x2 = MultiPoly.gens(p, n)
        q = divides(x1, x1**2 + 2 * x1 * x2)
        assert q == x1 + 2 * x2

    def test_zero_dividend(self):
        f = MultiPoly.variable(5, 2, 0)
        assert divides(f, MultiPoly.zero(5, 2)).is_zero

    def test_disjoint_variables(self):
        x1, x2 = MultiPoly.gens(5, 2)
        assert divides(x1, x2**2) is None

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisor):
            divides(MultiPoly.zero(5, 2), MultiPoly.variable(5, 2, 0))

    def test_quotient_reconstructs(self, rng):
        for _ in range(300):
            p = rng.choice([2, 3, 5])
            n = rng.randint(1, 3)
            f = random_nonzero_poly(rng, p, n, 2)
            q = random_poly(rng, p, n, 2)
            g = f * q
            got = divides(f, g)
            assert got is not None
            assert got * f == g

    def test_brute_force_oracle(self, rng):
        # literal enumeration of quotient candidates on tiny instances
        for _ in range(60):
            p = rng.choice([2, 3])
            n = rng.randint(1, 2)
            f = random_nonzero_poly(rng, p, n, 2)
            g = random_poly(rng, p, n, 4)
            if g.is_zero or g.degree() < f.degree():
                continue
            monos = monomials_upto_degree(n, g.degree() - f.degree())
            oracle = None
            for coeffs in itertools.product(range(p), repeat=len(monos)):
                q = MultiPoly(p, n, dict(zip(monos, coeffs)))
                if q * f == g:
                    oracle = q
                    break
            got = divides(f, g)
            if oracle is None:
                assert got is None
            else:
                assert got is not None and got * f == g

    def test_linear_solver_oracle(self, rng):
        # independent oracle: solve q*f = g as a linear system in q
        for _ in range(200):
            p = rng.choice([2, 3, 5])
            n = rng.randint(1, 3)
            f = random_nonzero_poly(rng, p, n, 2)
            g = random_poly(rng, p, n, 4)
            if g.is_zero or g.degree() < f.degree():
                continue
            qmonos = monomials_upto_degree(n, g.degree() - f.degree())
            tmonos = monomials_upto_degree(n, g.degree() + 0)
            extra = g.degree()
            tmonos = monomials_upto_degree(n, extra + f.degree())
            idx = {e: k for k, e in enumerate(tmonos)}
            cols = []
            for m in qmonos:
                prod = MultiPoly.monomial(p, n, m) * f
                v = np.zeros(len(tmonos), dtype=np.int64)
                for e, c in prod.terms.items():
                    v[idx[e]] = c
                cols.append(v)
            target = np.zeros(len(tmonos), dtype=np.int64)
            for e, c in g.terms.items():
                target[idx[e]] = c
            sol = linalg.solve(np.stack(cols, axis=1), target, p)
            got = divides(f, g)
            assert (sol is not None) == (got is not None)
            if got is not None:
                assert got * f == g

    def test_divmod_remainder_not_divisible(self):
        p, n = 5, 2
        x1, x2 = MultiPoly.gens(p, n)
        q, r = poly_divmod(x1**2 + x2, x1)
        assert q == x1 and r == x2


class TestAlgebraProperties:
    def test_commutative_associative(self, rng):
        for _ in range(300):
            p = rng.choice([2, 3, 5])
            n = rng.randint(1, 3)
            f = random_poly(rng, p, n, 3)
            g = random_poly(rng, p, n, 3)
            h = random_poly(rng, p, n, 3)
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h

    def test_partial_leibniz(self, rng):
        for _ in range(300):
            p = rng.choice([3, 5])
            n = rng.randint(1, 3)
            f = random_poly(rng, p, n, 3)
            g = random_poly(rng, p, n, 3)
            i = rng.randrange(n)
            assert (f * g).partial(i) == f.partial(i) * g + f * g.partial(i)

    def test_frobenius_partials_vanish(self, rng):
        for _ in range(100):
            p = rng.choice([2, 3, 5])
            n = rng.randint(1, 2)
            f = random_poly(rng, p, n, 3)
            fp = f**p
            for i in range(n):
                assert fp.partial(i).is_zero


class TestUniPoly:
    def test_squarefree_two_roots(self):
        # t(t-1) over F_5
        assert squarefree(UniPoly(5, [0, -1, 1]))

    def test_square_not_squarefree(self):
        assert not squarefree(UniPoly(5, [0, 0, 1]))

    def test_pth_power_detected(self):
        # t^3 - 1 = (t-1)^3 over F_3; derivative vanishes
        assert not squarefree(UniPoly(3, [-1, 0, 0, 1]))

    def test_zero_rejected(self):
        with pytest.raises(ZeroInput):
            squarefree(UniPoly(5, []))

    def test_gcd(self):
        f = UniPoly(5, [0, -1, 1])  # t^2 - t
        g = UniPoly(5, [0, 1])  # t
        assert f.gcd(g).coeffs == [0, 1]


class TestTextGrammar:
    def test_example_text(self):
        f = parse_poly("x1^3 + 2*x2^2*x3", 5, 3)
        assert format_poly(f) == "x1^3 + 2*x2^2*x3"

    def test_whitespace_and_signs(self):
        f = parse_poly(" - x1 + 3 * x2 ^ 2 - 4", 5, 2)
        assert f == MultiPoly(5, 2, {(1, 0): 4, (0, 2): 3, (0, 0): 1})

    def test_coefficients_reduced(self):
        assert parse_poly("7*x1", 5, 1) == parse_poly("2*x1", 5, 1)

    def test_unknown_variable(self):
        with pytest.raises(ParseError):
            parse_poly("y1", 5, 2)

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("   ", 5, 2)

    def test_trailing_sign_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("x1 +", 5, 2)

    def test_roundtrip(self, rng):
        for _ in range(200):
            p = rng.choice([2, 3, 5, 7])
            n = rng.randint(1, 4)
            f = random_poly(rng, p, n, 4)
            assert parse_poly(format_poly(f), p, n) == f

    def test_custom_names(self):
        f = parse_poly("a^2*b", 5, 2, ["a", "b"])
        assert format_poly(f, ["a", "b"]) == "a^2*b"


class TestMonomialBases:
    def test_degree_counts(self):
        for n in (1, 2, 3, 4):
            for d in range(6):
                import math

                assert len(monomials_of_degree(n, d)) == math.comb(d + n - 1, n - 1)

    def test_lex_descending(self):
        monos = monomials_of_degree(3, 2)
        assert monos[0] == (2, 0, 0)
        assert list(monos) == sorted(monos, reverse=True)
