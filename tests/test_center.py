import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SEED
from poismodp import linalg
from poismodp.center import (
    center_generators_skew,
    center_oracle,
    classify_skew3,
    expand_over_pth_powers,
    find_beta,
    gorenstein_skew,
    gorenstein_via_theorem38,
    graded_kernel,
    graded_kernel_basis,
    graded_products,
    graded_span_dims,
    hilbert_skew,
    is_central,
    numerator_from_hilbert,
    palindromic_numerator,
    rank_over_subring,
    reduce_generators,
    skew_monoid,
)
from poismodp.catalog import potential_catalog
from poismodp.errors import (
    CapExceeded,
    DegreeBoundTooLarge,
    Limits,
    PoisError,
    SmallCharacteristic,
    WrongArity,
)
from poismodp.fieldpoly import MultiPoly, format_poly, monomials_of_degree, parse_poly
from poismodp.linalg import coeff_matrix
from poismodp.loz import log_ozone_group
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


def reduce_generators_per_generator(p, n, gens):
    """Reference for `reduce_generators`: the same choice, with the
    subalgebra of the kept generators rebuilt from scratch by
    `graded_span_dims` for every generator."""
    kept = []
    for g in sorted(gens, key=lambda f: f.sort_key()):
        d = g.degree()
        if d is None or d == 0:
            continue
        if not kept:
            kept.append(g)
            continue
        span = graded_span_dims(p, n, kept, d)[1].get(d, [])
        if span:
            vec = coeff_matrix([g], n, (d,))[:, 0]
            if linalg.in_row_space(coeff_matrix(span, n, (d,)).T, vec, p):
                continue
        kept.append(g)
    return kept


class TestReduceGenerators:
    def test_graded_products(self):
        p, n = 5, 3
        x1, x2, x3 = MultiPoly.gens(p, n)
        factors = [x1**2, x2 + 2 * x3, x3**4]
        family = {0: [MultiPoly.const(p, n, 1)], 1: [x1, x2], 2: [x1 * x3]}
        pairs, mat = graded_products(n, factors, family, 3)
        # factor by factor, each in family order; x3^4 is above degree 3
        assert pairs == [(0, x1), (0, x2), (1, x1 * x3)]
        products = [x1**3, x1**2 * x2, (x2 + 2 * x3) * x1 * x3]
        assert (mat == coeff_matrix(products, n, (3,))).all()
        pairs, mat = graded_products(n, factors, family, 0)
        assert pairs == [] and mat.shape == (1, 0)

    def test_same_as_per_generator(self, rng):
        # the monoid engine's generators of random skew matrices
        inputs = []
        for p, n in ((3, 3), (5, 3), (3, 4), (5, 4)):
            for _ in range(4):
                upper = {(i, j): rng.randrange(p) for i in range(n) for j in range(i + 1, n)}
                report = center_generators_skew(skew_monoid(SkewMatrix.from_upper(p, n, upper)))
                inputs.append((p, n, report.generators))
        # the p=5 catalog's expected center generators and the oracle's
        for form in potential_catalog(5):
            oracle = center_oracle(form.structure(), 2 * form.p)
            inputs.append((5, 3, list(form.expected_center_gens) + oracle.generators))
        for p, n, gens in inputs:
            gens = rng.sample(gens, len(gens))
            assert reduce_generators(p, n, gens) == reduce_generators_per_generator(p, n, gens)

    def test_every_nonhomogeneous_generator_rejected(self):
        # the per-generator version raised only once a second generator
        # was kept: alone, x1 + x2^2 was returned, and after x3 its
        # degree-1 term was not in the degree-2 basis (KeyError)
        p, n = 5, 3
        x1, x2, x3 = MultiPoly.gens(p, n)
        g = x1 + x2**2
        with pytest.raises(PoisError) as expected:
            graded_span_dims(p, n, [g], 2)
        for gens in ([g], [x3, g], [g, x1**5, x2**5]):
            with pytest.raises(PoisError) as raised:
                reduce_generators(p, n, gens)
            assert str(raised.value) == str(expected.value)


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


def graded_kernel_per_degree(p, n, max_degree, derivations):
    """Reference for `graded_kernel`: one elimination per degree, each
    kernel as a list of vectors."""
    h = max((g.degree() for images in derivations for g in images if not g.is_zero),
            default=1)
    for d in range(max_degree + 1):
        tgt = (d + h - 1,) if d + h >= 1 else ()
        yield d, linalg.nullspace(linalg.derivation_entries(derivations, n, (d,), tgt), p)


def graded_kernel_cases():
    """(p, n, max_degree, derivations): brackets of random skew matrices
    and of the p=5 and p=7 catalogs, the degree-0 log-ozone bases C_loz
    takes its kernel of, images that are all zero, and constant images
    (h = 0), which map A_0 to nothing."""
    rng = random.Random(SEED)
    cases = []
    for p, n in ((3, 2), (5, 2), (3, 3), (5, 3), (7, 3), (3, 4), (5, 4)):
        for _ in range(3):
            upper = {(i, j): rng.randrange(p) for i in range(n) for j in range(i + 1, n)}
            s = from_skew_matrix(SkewMatrix.from_upper(p, n, upper))
            cases.append((p, n, 2 * p + 1, [a.images for a in s.ad]))
    for p in (5, 7):
        for form in potential_catalog(p):
            s = form.structure()
            cases.append((p, 3, 3 * p, [a.images for a in s.ad]))
            if p == 5:
                basis = log_ozone_group(s, 1).basis
                cases.append((p, 3, 12, [delta.images for delta, _ in basis]))
    zero = [[MultiPoly.zero(5, 3)] * 3]
    constant = [[MultiPoly.const(5, 2, 1), MultiPoly.zero(5, 2)],
                [MultiPoly.const(5, 2, 2), MultiPoly.const(5, 2, 3)]]
    cases += [(5, 3, 6, zero), (5, 3, 0, zero), (5, 2, 7, constant), (5, 2, 0, constant)]
    cases += [(p, n, 0, derivations) for p, n, _, derivations in cases[:3]]
    return cases


class TestGradedKernel:
    """All degrees of a group are eliminated as one matrix; each degree's
    basis is still the one of its own elimination, vector for vector, and
    is yielded as soon as its group's elimination is done."""

    @pytest.mark.parametrize("budget", [1, 1024, 10**9])
    def test_against_per_degree(self, monkeypatch, budget):
        calls = []
        entries = linalg.derivation_entries
        monkeypatch.setattr("poismodp.center.derivation_entries",
                            lambda *args: calls.append(args) or entries(*args))
        monkeypatch.setattr("poismodp.center._GROUP_COLUMNS", budget)
        for p, n, max_degree, derivations in graded_kernel_cases():
            calls.clear()
            reference = list(graded_kernel_per_degree(p, n, max_degree, derivations))
            widths = [len(monomials_of_degree(n, d)) for d in range(max_degree + 1)]
            for (d, kernel), (ref_d, ref_kernel) in itertools.zip_longest(
                    graded_kernel(p, n, max_degree, derivations, Limits()), reference):
                assert d == ref_d
                # yielded before the next group of degrees is eliminated
                assert calls[-1][2][0] <= d <= calls[-1][2][-1]
                assert kernel.shape == (len(ref_kernel), widths[d])
                assert kernel.tolist() == [v.tolist() for v in ref_kernel], d
            if budget == 1:
                assert len(calls) == max_degree + 1
            elif budget > sum(widths):
                assert len(calls) == 1
            columns = [sum(widths[d] for d in src) for _, _, src, _ in calls]
            assert all(c <= budget or c in widths for c in columns)
            hilbert, basis = graded_kernel_basis(p, n, max_degree, derivations, Limits())
            assert hilbert == [len(kernel) for _, kernel in reference]
            assert list(basis) == list(range(max_degree + 1))
            for d, kernel in reference:
                assert [f.terms for f in basis[d]] == [
                    f.terms for f in linalg.polys(kernel, p, n, (d,))], d

    def test_cap_before_any_piece(self, monkeypatch):
        # degree 99 is the first of more than 5000 columns at n = 3; the
        # pieces up to 10^5 would be about 1.7 * 10^14 monomials, and no
        # piece is listed and no entries are built before every degree
        # is checked
        def refuse(*args):
            raise AssertionError("piece listed or entries built")

        monkeypatch.setattr("poismodp.linalg._basis", refuse)
        monkeypatch.setattr("poismodp.center.derivation_entries", refuse)
        s = trivial_structure(5, 3)
        with pytest.raises(DegreeBoundTooLarge) as raised:
            next(graded_kernel(5, 3, 10**5, [a.images for a in s.ad], Limits()))
        assert str(raised.value) == "5050 columns at degree 99, cap is 5000"


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
                    mat = coeff_matrix(basis, s.n, (d,)).T
                    member = linalg.in_row_space(mat, coeff_matrix([f], s.n, (d,))[:, 0], s.p)
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
