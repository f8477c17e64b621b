"""The operator-matrix layer (`linalg.coeff_matrix`, `linalg.derivation_matrix`,
`linalg.multiplication_matrices`) against the MultiPoly reference: every
column equals the image of one monomial computed by `bracket_with_gen`,
`apply_derivation` or a product."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poismodp.catalog import potential_catalog
from poismodp.center import (
    bracket_matrices,
    center_generators_skew,
    center_oracle,
    skew_monoid,
)
from poismodp.deriv import Derivation, apply_derivation
from poismodp.fieldpoly import (
    MultiPoly,
    monomials_of_degree,
    monomials_upto_degree,
    parse_poly,
)
from poismodp.linalg import (
    coeff_matrix,
    derivation_entries,
    derivation_matrix,
    multiplication_matrices,
    nullspace,
)
from poismodp.structure import SkewMatrix, explicit_structure, from_skew_matrix

BOUNDED = settings(derandomize=True, max_examples=30, deadline=None)
PRIMES = st.sampled_from([2, 3, 5, 7])


def column_terms(m, k, basis) -> dict:
    return {e: int(c) for e, c in zip(basis, m[:, k]) if c}


def assert_columns(m, src, tgt, reference):
    assert m.shape == (len(tgt), len(src))
    for k, e in enumerate(src):
        assert column_terms(m, k, tgt) == reference(e).terms, e


def assert_bracket_columns(struct, d):
    p, n = struct.p, struct.n
    src, tgt = monomials_of_degree(n, d), monomials_of_degree(n, d + 1)
    for i, m in enumerate(bracket_matrices(struct, d)):
        assert_columns(
            m, src, tgt,
            lambda e: struct.bracket_with_gen(i, MultiPoly.monomial(p, n, e)),
        )


@st.composite
def skew_structures(draw):
    p = draw(PRIMES)
    n = draw(st.integers(1, 4))
    upper = {(i, j): draw(st.integers(0, p - 1))
             for i in range(n) for j in range(i + 1, n)}
    return from_skew_matrix(SkewMatrix.from_upper(p, n, upper))


@st.composite
def polys(draw, p, n, max_degree, max_terms=3):
    monos = monomials_upto_degree(n, max_degree)
    terms = draw(st.dictionaries(st.sampled_from(monos), st.integers(1, p - 1),
                                 max_size=max_terms))
    return MultiPoly(p, n, terms)


class TestDerivationMatrix:
    @BOUNDED
    @given(skew_structures(), st.integers(0, 4))
    def test_skew_brackets(self, struct, d):
        assert_bracket_columns(struct, d)

    @pytest.mark.parametrize("p", [5, 7])
    def test_catalog_brackets(self, p):
        for form in potential_catalog(p):
            for d in range(6):
                assert_bracket_columns(form.structure(), d)

    @BOUNDED
    @given(st.data(), PRIMES, st.integers(0, 4))
    def test_nongraded_brackets(self, data, p, top):
        # any bracket on two variables satisfies the Jacobi identity
        h = data.draw(polys(p, 2, 3))
        struct = explicit_structure(p, 2, {(0, 1): h})
        src = monomials_upto_degree(2, top)
        tgt = monomials_upto_degree(2, top + max((h.degree() or 0) - 1, 0))
        for i in range(2):
            m = derivation_matrix([[struct.entry(i, j) for j in range(2)]], src, tgt)[0]
            assert_columns(
                m, src, tgt,
                lambda e: struct.bracket_with_gen(i, MultiPoly.monomial(p, 2, e)),
            )

    @BOUNDED
    @given(st.data(), PRIMES, st.integers(1, 3), st.integers(0, 3))
    def test_random_derivations(self, data, p, n, top):
        delta = Derivation(p, n, [data.draw(polys(p, n, 2)) for _ in range(n)])
        src = monomials_upto_degree(n, top)
        tgt = monomials_upto_degree(n, top + 1)
        m = derivation_matrix([delta.images], src, tgt)[0]
        assert_columns(
            m, src, tgt,
            lambda e: apply_derivation(delta, MultiPoly.monomial(p, n, e)),
        )

    @BOUNDED
    @given(st.data(), PRIMES, st.integers(1, 3), st.integers(0, 4))
    def test_matrix_on_degree(self, data, p, n, d):
        mat = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n,
                                          max_size=n), min_size=n, max_size=n))
        delta = Derivation.from_matrix(p, mat)
        basis = monomials_of_degree(n, d)
        assert_columns(
            delta.matrix_on_degree(d), basis, basis,
            lambda e: apply_derivation(delta, MultiPoly.monomial(p, n, e)),
        )
        assert np.array_equal(delta.matrix(), np.array(mat, dtype=np.int64))

    @BOUNDED
    @given(PRIMES, st.integers(1, 4), st.integers(0, 4))
    def test_multiplication_matrices(self, p, n, d):
        src, tgt = monomials_of_degree(n, d), monomials_of_degree(n, d + 1)
        for j, m in enumerate(multiplication_matrices(n, d)):
            assert_columns(
                m, src, tgt,
                lambda e: MultiPoly.variable(p, n, j) * MultiPoly.monomial(p, n, e),
            )

    def test_multiplication_matrices_read_only(self):
        # the array is cached: a write would reach every later caller
        m = multiplication_matrices(3, 2)
        with pytest.raises(ValueError):
            m[0, 0, 0] = 1
        assert m is multiplication_matrices(3, 2)


def tuple_loop_matrix(images, src, tgt):
    """Reference for `derivation_matrix`: one pass over the source
    monomials per image term, on exponent tuples."""
    index = {e: r for r, e in enumerate(tgt)}
    m = np.zeros((len(tgt), len(src)), dtype=np.int64)
    for j, g in enumerate(images):
        for k, e in enumerate(src):
            ej = e[j] % g.p
            if not ej:
                continue
            for ge, c in g.terms.items():
                t = tuple(a + b - (i == j) for i, (a, b) in enumerate(zip(e, ge)))
                m[index[t], k] = (m[index[t], k] + ej * c) % g.p
    return m


def assert_matches_tuple_loop(images, src, tgt):
    m, ref = derivation_matrix([images], src, tgt)[0], tuple_loop_matrix(images, src, tgt)
    assert m.shape == ref.shape
    for k, e in enumerate(src):
        assert np.array_equal(m[:, k], ref[:, k]), e


class TestDerivationArray:
    """`derivation_matrix` of a list of derivations is one array whose
    k-th matrix is the reference matrix of the k-th derivation."""

    @BOUNDED
    @given(st.data(), PRIMES, st.integers(1, 3), st.integers(0, 3), st.integers(0, 3))
    def test_each_matrix_is_the_tuple_loop(self, data, p, n, top, k):
        derivations = [[data.draw(polys(p, n, 3)) for _ in range(n)] for _ in range(k)]
        src, tgt = monomials_upto_degree(n, top), monomials_upto_degree(n, top + 2)
        m = derivation_matrix(derivations, src, tgt)
        assert m.shape == (k, len(tgt), len(src))
        for images, mk in zip(derivations, m):
            assert np.array_equal(mk, tuple_loop_matrix(images, src, tgt))

    def test_empty_list(self):
        src, tgt = monomials_of_degree(3, 2), monomials_of_degree(3, 3)
        assert derivation_matrix([], src, tgt).shape == (0, 10, 6)

    @pytest.mark.parametrize("p", [5, 7])
    def test_bracket_array_is_every_ad(self, p):
        for form in potential_catalog(p):
            struct = form.structure()
            src, tgt = monomials_of_degree(3, 4), monomials_of_degree(3, 5)
            for a, m in zip(struct.ad, bracket_matrices(struct, 4)):
                assert np.array_equal(m, tuple_loop_matrix(a.images, src, tgt))


class TestDerivationEntries:
    """`derivation_entries` lists the nonzero entries of the stacked
    `derivation_matrix`, in row-major order, and `nullspace` of them is
    `nullspace` of the dense stack."""

    @staticmethod
    def assert_entries_of_stack(derivations, src, tgt, p):
        stack = derivation_matrix(derivations, src, tgt).reshape(-1, len(src))
        entries = derivation_entries(derivations, src, tgt)
        assert entries.shape == stack.shape
        rows, cols = stack.nonzero()
        assert entries.rows.tolist() == rows.tolist()
        assert entries.cols.tolist() == cols.tolist()
        assert entries.vals.tolist() == stack[rows, cols].tolist()
        dense = nullspace(stack, p)
        # rows numbered by the targets reached: the same row space
        reached = derivation_entries(derivations, src)
        for sparse in (nullspace(entries, p), nullspace(reached, p)):
            assert len(dense) == len(sparse)
            assert all(np.array_equal(v, w) for v, w in zip(dense, sparse))

    @BOUNDED
    @given(st.data(), PRIMES, st.integers(1, 3), st.integers(0, 3), st.integers(0, 3))
    def test_random_derivations(self, data, p, n, top, k):
        derivations = [[data.draw(polys(p, n, 3)) for _ in range(n)] for _ in range(k)]
        src, tgt = monomials_upto_degree(n, top), monomials_upto_degree(n, top + 2)
        self.assert_entries_of_stack(derivations, src, tgt, p)

    def test_skew_4x4_stack(self):
        # the largest operators of the center jobs: every product of a
        # column lands on one target monomial, and some cancel mod p
        c = SkewMatrix.from_rows(5, [[0, 4, 4, 2], [1, 0, 0, 4], [1, 0, 0, 3], [3, 1, 2, 0]])
        struct = from_skew_matrix(c)
        for d in (0, 5, 9):
            src, tgt = monomials_of_degree(4, d), monomials_of_degree(4, d + 1)
            self.assert_entries_of_stack([a.images for a in struct.ad], src, tgt, 5)

    @pytest.mark.parametrize("form", potential_catalog(7), ids=lambda f: f.label)
    def test_catalog_stacks(self, form):
        # these fall apart into blocks of several columns
        struct = form.structure()
        for d in (2, 6, 11):
            src, tgt = monomials_of_degree(3, d), monomials_of_degree(3, d + 1)
            self.assert_entries_of_stack([a.images for a in struct.ad], src, tgt, 7)

    def test_no_derivations(self):
        src, tgt = monomials_of_degree(3, 2), monomials_of_degree(3, 3)
        entries = derivation_entries([], src, tgt)
        assert entries.shape == (0, 6) and len(entries.vals) == 0
        assert len(nullspace(entries, 5)) == 6


@st.composite
def homogeneous(draw, p, n, d, max_terms=3):
    monos = monomials_of_degree(n, d)
    terms = draw(st.dictionaries(st.sampled_from(monos), st.integers(1, p - 1),
                                 max_size=max_terms))
    return MultiPoly(p, n, terms)


class TestDerivationMatrixVectorised:
    @BOUNDED
    @given(st.data(), PRIMES, st.integers(1, 4), st.integers(0, 3), st.integers(0, 5))
    def test_graded(self, data, p, n, e, d):
        # images homogeneous of degree e map A_d into A_{d+e-1}
        images = [data.draw(homogeneous(p, n, e)) for _ in range(n)]
        tgt = monomials_of_degree(n, max(d + e - 1, 0))
        assert_matches_tuple_loop(images, monomials_of_degree(n, d), tgt)

    @BOUNDED
    @given(st.data(), PRIMES, st.integers(1, 3), st.integers(0, 4))
    def test_filtered(self, data, p, n, top):
        images = [data.draw(polys(p, n, 3)) for _ in range(n)]
        tgt = monomials_upto_degree(n, top + 2)
        assert_matches_tuple_loop(images, monomials_upto_degree(n, top), tgt)

    @pytest.mark.parametrize("d", [1, 2])
    def test_many_variables(self, rng, d):
        # quadratic images on n = 41 variables: a mixed-radix key of the
        # exponents would pass 2^63 here
        p, n = 3, 41

        def quadratic():
            a, b = rng.randrange(n), rng.randrange(n)
            e = tuple((i == a) + (i == b) for i in range(n))
            return MultiPoly(p, n, {e: rng.randrange(1, p)} if rng.random() < 0.8 else {})

        images = [quadratic() for _ in range(n)]
        src, tgt = monomials_of_degree(n, d), monomials_of_degree(n, d + 1)
        assert_matches_tuple_loop(images, src, tgt)


class TestCoeffMatrix:
    def test_columns(self):
        p = 5
        basis = monomials_of_degree(2, 1)
        m = coeff_matrix([parse_poly("x1 + 2*x2", p, 2), parse_poly("4*x2", p, 2)], basis)
        assert m.tolist() == [[1, 0], [2, 4]]

    def test_empty(self):
        assert coeff_matrix([], monomials_of_degree(3, 2)).shape == (6, 0)


class TestNoDegreeCap:
    def test_skew_2x2_p23(self):
        # degree-64 sources bracket into degree 65; both engines answer
        c = SkewMatrix.from_rows(23, [[0, 1], [-1, 0]])
        oracle = center_oracle(from_skew_matrix(c), 64)
        assert len(oracle.hilbert) == 65
        assert oracle.hilbert == center_generators_skew(skew_monoid(c), 64).hilbert

    def test_source_above_degree_64(self):
        # the Euler derivation multiplies x^e by its degree 65 = 2 mod 3
        basis = monomials_of_degree(2, 65)
        x1, x2 = MultiPoly.gens(3, 2)
        m = derivation_matrix([[x1, x2]], basis, basis)[0]
        assert (m == 2 * np.eye(len(basis), dtype=np.int64)).all()
