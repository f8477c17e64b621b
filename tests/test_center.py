import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poismodp import linalg
from poismodp.center import (
    center_generators_skew,
    center_oracle,
    classify_skew3,
    expand_over_pth_powers,
    find_beta,
    gorenstein_skew,
    gorenstein_via_theorem38,
    graded_span_dims,
    hilbert_skew,
    is_central,
    numerator_from_hilbert,
    palindromic_numerator,
    rank_over_subring,
    reduce_generators,
    skew_monoid,
)
from poismodp.errors import (
    CapExceeded,
    DegreeBoundTooLarge,
    Limits,
    SmallCharacteristic,
    WrongArity,
)
from poismodp.fieldpoly import MultiPoly, format_poly, parse_poly
from poismodp.structure import (
    SkewMatrix,
    explicit_structure,
    from_potential,
    from_skew_matrix,
    tensor,
    trivial_structure,
)

def upper3(p, u):
    return SkewMatrix.from_upper(p, 3, {(0, 1): u[0], (0, 2): u[1], (1, 2): u[2]})


class TestSkewMonoid:
    def test_cyclic_p3(self):
        m = skew_monoid(SkewMatrix.from_rows(3, [[0, 1, -1], [-1, 0, 1], [1, -1, 0]]))
        assert m.B == [(0, 0, 0), (1, 1, 1), (2, 2, 2)]
        assert m.I == [0, 1, 2] and m.J == []
        assert m.u == (1, 1, 1)

    def test_second_p3(self):
        m = skew_monoid(SkewMatrix.from_rows(3, [[0, 1, 1], [-1, 0, -1], [-1, 1, 0]]))
        assert m.B == [(0, 0, 0), (1, 1, 2), (2, 2, 1)]

    def test_zero_matrix(self):
        m = skew_monoid(SkewMatrix.from_rows(3, [[0, 0], [0, 0]]))
        assert len(m.B) == 9
        assert m.B == sorted(itertools.product(range(3), repeat=2))

    def test_box_size_is_p_power(self):
        for p in (3, 5):
            for u in itertools.product(range(p), repeat=3):
                m = skew_monoid(upper3(p, u))
                size = len(m.B)
                while size % p == 0:
                    size //= p
                assert size == 1

    def test_kernel_cap(self):
        with pytest.raises(CapExceeded):
            skew_monoid(SkewMatrix.from_rows(3, [[0, 0], [0, 0]]), Limits(kernel=5))


def box_by_vector_loop(c):
    """Reference for the box: the kernel's combinations summed one
    vector at a time."""
    p, n = c.p, c.n
    kern = linalg.nullspace(np.array(c.entries, dtype=np.int64) % p, p)
    box = set()
    for coeffs in itertools.product(range(p), repeat=len(kern)):
        v = np.zeros(n, dtype=np.int64)
        for a, k in zip(coeffs, kern):
            v = (v + a * k) % p
        box.add(tuple(int(x) for x in v))
    return sorted(box)


@pytest.mark.parametrize("p, n", [(5, 3), (3, 4)])
def test_box_matches_vector_loop_exhaustively(p, n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for upper in itertools.product(range(p), repeat=len(pairs)):
        c = SkewMatrix.from_upper(p, n, dict(zip(pairs, upper)))
        assert skew_monoid(c).B == box_by_vector_loop(c), upper


class TestGorenstein:
    def test_cyclic_witness(self):
        m = skew_monoid(SkewMatrix.from_rows(3, [[0, 1, -1], [-1, 0, 1], [1, -1, 0]]))
        assert gorenstein_skew(m) == (True, (2, 2, 2))

    def test_unimodular_witness_all_p(self):
        for p in (5, 7):
            c = SkewMatrix.from_rows(p, [[0, 1, -1], [-1, 0, 1], [1, -1, 0]])
            m = skew_monoid(c)
            gor, witness = gorenstein_skew(m)
            assert gor and witness == ((p - 1),) * 3

    def test_not_gorenstein(self):
        m = skew_monoid(SkewMatrix.from_rows(3, [[0, 1, 1], [-1, 0, -1], [-1, 1, 0]]))
        assert gorenstein_skew(m) == (False, None)

    def test_beta_values(self):
        m1 = skew_monoid(SkewMatrix.from_rows(3, [[0, 1, -1], [-1, 0, 1], [1, -1, 0]]))
        assert find_beta(m1) == (1, 1, 1)
        m2 = skew_monoid(SkewMatrix.from_rows(3, [[0, 1, 1], [-1, 0, -1], [-1, 1, 0]]))
        assert find_beta(m2) == (1, 1, 2)

    def test_beta_missing_4x4(self):
        c = SkewMatrix.from_rows(
            3, [[0, 1, -1, -1], [-1, 0, 1, -1], [1, -1, 0, -1], [1, 1, 1, 0]]
        )
        m = skew_monoid(c)
        assert len(m.B) == 9
        assert find_beta(m) is None
        assert gorenstein_via_theorem38(m) is None

    def test_criteria_agree_exhaustively(self):
        for p in (3, 5):
            for u in itertools.product(range(p), repeat=3):
                m = skew_monoid(upper3(p, u))
                t38 = gorenstein_via_theorem38(m)
                if t38 is not None:
                    assert t38 == gorenstein_skew(m)[0]


class TestCenterGenerators:
    def test_regular_example(self):
        p = 5
        m = skew_monoid(SkewMatrix.from_rows(p, [[0, 2, 0], [-2, 0, 0], [0, 0, 0]]))
        report = center_generators_skew(m)
        names = {format_poly(g) for g in report.generators}
        assert {"x1^5", "x2^5", "x3^5", "x3"} <= names
        reduced = reduce_generators(p, 3, report.generators)
        assert {format_poly(g) for g in reduced} == {"x1^5", "x2^5", "x3"}

    def test_generators_verified_central(self):
        p = 3
        m = skew_monoid(SkewMatrix.from_rows(p, [[0, 1, -1], [-1, 0, 1], [1, -1, 0]]))
        report = center_generators_skew(m)
        s = from_skew_matrix(m.c)
        assert all(is_central(s, g) for g in report.generators)


class TestHilbert:
    def test_zero_matrix_full_ring(self):
        p = 3
        m = skew_monoid(SkewMatrix.from_rows(p, [[0, 0], [0, 0]]))
        series = hilbert_skew(m, 6)
        assert series.numerator == [1, 2, 3, 2, 1]
        # center is everything: dims of k[x1, x2]
        assert series.coefficients == [d + 1 for d in range(7)]
        assert series.rank == "1"

    def test_cyclic_numerator(self):
        m = skew_monoid(SkewMatrix.from_rows(3, [[0, 1, -1], [-1, 0, 1], [1, -1, 0]]))
        series = hilbert_skew(m, 12)
        assert series.numerator == [1, 0, 0, 1, 0, 0, 1]
        assert series.rank == "9" and series.rank_exact

    def test_regular_example_rank(self):
        p = 5
        m = skew_monoid(SkewMatrix.from_rows(p, [[0, 2, 0], [-2, 0, 0], [0, 0, 0]]))
        series = hilbert_skew(m, 6)
        assert len(m.B) == p
        assert series.rank == str(p * p)

    def test_expand_round_trip(self):
        numer = [1, 0, 0, 2]
        coeffs = expand_over_pth_powers(numer, 3, 3, 12)
        assert numerator_from_hilbert(coeffs, 3, 3) == numer

    def test_palindromic_flags(self):
        assert palindromic_numerator(
            expand_over_pth_powers([1, 0, 0, 1, 0, 0, 1], 3, 3, 12), 3, 3
        )[1]
        assert not palindromic_numerator(
            expand_over_pth_powers([1, 0, 0, 2], 3, 3, 12), 3, 3
        )[1]


class TestClassify:
    def test_case2a(self):
        assert classify_skew3(upper3(5, (2, 0, 0))) == "Case2a"

    def test_case2b(self):
        c = SkewMatrix.from_rows(5, [[0, 2, -2], [-2, 0, 0], [2, 0, 0]])
        assert classify_skew3(c) == "Case2b"

    def test_case2c_iff_unimodular(self):
        from poismodp.deriv import is_unimodular

        for u in itertools.product(range(5), repeat=3):
            c = upper3(5, u)
            label = classify_skew3(c)
            assert (label == "Case2c") == is_unimodular(from_skew_matrix(c))

    def test_gorenstein_iff_case(self):
        for u in itertools.product(range(5), repeat=3):
            c = upper3(5, u)
            gor, _ = gorenstein_skew(skew_monoid(c))
            assert gor == (classify_skew3(c) != "NotGorenstein")

    def test_permutation_needed(self):
        # the 2a pattern sitting on variables (1, 3)
        c = SkewMatrix.from_rows(5, [[0, 0, 1], [0, 0, 0], [-1, 0, 0]])
        assert classify_skew3(c) == "Case2a"

    def test_requires_p_gt_3(self):
        with pytest.raises(SmallCharacteristic):
            classify_skew3(upper3(3, (1, 0, 0)))

    def test_requires_n_3(self):
        with pytest.raises(WrongArity):
            classify_skew3(SkewMatrix.from_rows(5, [[0, 1], [-1, 0]]))


class TestOracle:
    def test_jordan_p3(self):
        p = 3
        s = explicit_structure(p, 2, {(0, 1): parse_poly("x1^2", p, 2)})
        report = center_oracle(s, 9)
        assert report.hilbert == [1, 0, 0, 2, 0, 0, 3, 0, 0, 4]

    def test_two_lines_double_p3_degree3(self):
        p = 3
        s = from_potential(parse_poly("x1^2*x2 + x1*x2^2", p, 3))
        report = center_oracle(s, 3)
        assert report.hilbert[3] == 5
        expected = {
            parse_poly(t, p, 3).key()
            for t in ("x1^3", "x2^3", "x3^3", "x1^2*x2", "x1*x2^2")
        }
        got = {f.key() for f in report.graded_basis[3]}
        # compare spans, not raw bases: both sets are reduced monomial-wise here
        assert got == expected

    def test_trivial_bracket(self):
        s = trivial_structure(5, 2)
        report = center_oracle(s, 4)
        assert report.hilbert == [1, 2, 3, 4, 5]

    def test_column_cap(self):
        s = trivial_structure(5, 3)
        with pytest.raises(DegreeBoundTooLarge):
            center_oracle(s, 10, Limits(columns=10))

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(st.data())
    def test_monoid_hilbert_on_random_skew_matrices(self, data):
        # degrees up to p + 2 keep the oracle's 4-variable solves at most
        # 220 columns wide
        p = data.draw(st.sampled_from([2, 3, 5, 7]))
        n = data.draw(st.integers(2, 4))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        upper = data.draw(st.lists(st.integers(0, p - 1), min_size=len(pairs),
                                   max_size=len(pairs)))
        c = SkewMatrix.from_upper(p, n, dict(zip(pairs, upper)))
        monoid = center_generators_skew(skew_monoid(c), p + 2)
        assert monoid.hilbert == center_oracle(from_skew_matrix(c), p + 2).hilbert

    def test_is_central_examples(self):
        p = 5
        omega = parse_poly("x1^2*x2 + x1*x2^2", p, 3)
        s = from_potential(omega)
        assert is_central(s, omega)
        assert is_central(s, parse_poly("x1^5", p, 3))
        assert not is_central(s, parse_poly("x3", p, 3))

    def test_engine_agreement_spot(self):
        for p, u in [(3, (1, 2, 0)), (5, (1, 0, 4)), (5, (3, 3, 3))]:
            c = upper3(p, u)
            series = hilbert_skew(skew_monoid(c), 2 * p)
            oracle = center_oracle(from_skew_matrix(c), 2 * p)
            assert oracle.hilbert == series.coefficients

    def test_nongraded_filtration(self):
        # {x1,x2} = product of three distinct linear forms (p=5)
        p = 5
        bracket = MultiPoly.const(p, 2, 1)
        for a in (1, 2, 3):
            bracket = bracket * parse_poly(f"x1 + {a}*x2", p, 2)
        s = explicit_structure(p, 2, {(0, 1): bracket})
        report = center_oracle(s, 5)
        # Z = k[x1^5, x2^5]: inside degree <= 5 only constants and two quintics
        assert report.hilbert[4] == 1
        assert report.hilbert[5] == 3

    def test_nongraded_rows_are_the_reached_targets(self):
        # a bracket of degree 200 reaches few monomials of degree <= 205;
        # listing all of them (about 1.5 million) peaked at 261 MiB
        p = 5
        s = explicit_structure(p, 3, {(0, 1): parse_poly("x3^200", p, 3)})
        tracemalloc.start()
        try:
            report = center_oracle(s, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.hilbert == [1, 2, 3, 4, 5, 8, 11]
        assert peak < 5 * 2**20

    def test_tensor_center_is_product(self):
        p = 3
        a = explicit_structure(p, 2, {(0, 1): parse_poly("x1^2", p, 2)})
        prod = tensor(a, a)
        report = center_oracle(prod, 6)
        gens = [MultiPoly.variable(p, 4, i) ** p for i in range(4)]
        dims, _ = graded_span_dims(p, 4, gens, 6)
        assert report.hilbert == dims


class TestOracleAgainstDefinition:
    def test_membership_matches_is_central(self, rng):
        # random elements lie in the oracle's span exactly when every
        # generator bracket vanishes
        from poismodp import linalg
        from poismodp.fieldpoly import monomials_of_degree
        from poismodp.linalg import coeff_matrix

        structures = [
            from_skew_matrix(upper3(3, (1, 2, 0))),
            from_potential(parse_poly("x1^2*x2 + x1*x2^2", 3, 3)),
        ]
        for s in structures:
            report = center_oracle(s, 6)
            for _ in range(100):
                d = rng.randint(1, 6)
                monos = monomials_of_degree(s.n, d)
                f = MultiPoly(
                    s.p, s.n, {rng.choice(monos): rng.randrange(1, s.p)}
                ) + MultiPoly(
                    s.p, s.n, {rng.choice(monos): rng.randrange(0, s.p)}
                )
                if f.is_zero:
                    continue
                basis = report.graded_basis[d]
                if basis:
                    mat = coeff_matrix(basis, monos).T
                    member = linalg.in_row_space(mat, coeff_matrix([f], monos)[:, 0], s.p)
                else:
                    member = False
                assert member == is_central(s, f)


class TestRank:
    def test_jordan_rank(self):
        p = 3
        s = explicit_structure(p, 2, {(0, 1): parse_poly("x1^2", p, 2)})
        report = center_oracle(s, 3 * p)
        rank, notes = rank_over_subring(p, 2, report.graded_basis, 3 * p)
        assert rank == p * p
        assert notes

    def test_two_lines_rank(self):
        p = 5
        s = from_potential(parse_poly("x1^2*x2 + x1*x2^2", p, 3))
        report = center_oracle(s, 3 * p)
        rank, _ = rank_over_subring(p, 3, report.graded_basis, 3 * p)
        assert rank == p * p


class TestRegularityObservation:
    def test_two_var_graded_centers_are_polynomial(self):
        # graded two-variable fixtures have polynomial-ring centers
        p = 3
        fixtures = [
            (trivial_structure(p, 2), (1, 1)),
            (from_skew_matrix(SkewMatrix.from_rows(p, [[0, 1], [-1, 0]])), (p, p)),
            (explicit_structure(p, 2, {(0, 1): parse_poly("x1^2", p, 2)}), (p, p)),
        ]
        for s, (d1, d2) in fixtures:
            report = center_oracle(s, 2 * p)
            expected = [
                sum(1 for a in range(0, d + 1, d1) if (d - a) % d2 == 0)
                for d in range(2 * p + 1)
            ]
            assert report.hilbert == expected
