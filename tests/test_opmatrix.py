"""The operator-matrix layer (`linalg.coeff_matrix`, `linalg.derivation_matrix`,
`linalg.multiplication_matrices`, `linalg.polys`) against the MultiPoly
reference: every column equals the image of one monomial computed by
`bracket_with_gen`, `apply_derivation` or a product.  The layer names a
basis by its number of variables and a tuple of degrees; the references
list its monomials with `whole_pieces`."""

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
    _basis,
    _index,
    _row_index,
    coeff_matrix,
    derivation_entries,
    derivation_matrix,
    multiplication_matrices,
    nullspace,
    polys,
)
from poismodp.structure import SkewMatrix, explicit_structure, from_skew_matrix

BOUNDED = settings(derandomize=True, max_examples=30, deadline=None)
PRIMES = st.sampled_from([2, 3, 5, 7])


def whole_pieces(n, degrees):
    """The monomials of a basis named by n and its degrees."""
    return tuple(e for d in degrees for e in monomials_of_degree(n, d))


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
def polys_upto(draw, p, n, max_degree, max_terms=3):
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
        h = data.draw(polys_upto(p, 2, 3))
        struct = explicit_structure(p, 2, {(0, 1): h})
        top_tgt = top + max((h.degree() or 0) - 1, 0)
        src, tgt = monomials_upto_degree(2, top), monomials_upto_degree(2, top_tgt)
        for i in range(2):
            images = [[struct.entry(i, j) for j in range(2)]]
            m = derivation_matrix(images, 2, tuple(range(top + 1)), tuple(range(top_tgt + 1)))[0]
            assert_columns(
                m, src, tgt,
                lambda e: struct.bracket_with_gen(i, MultiPoly.monomial(p, 2, e)),
            )

    @BOUNDED
    @given(st.data(), PRIMES, st.integers(1, 3), st.integers(0, 3))
    def test_random_derivations(self, data, p, n, top):
        delta = Derivation(p, n, [data.draw(polys_upto(p, n, 2)) for _ in range(n)])
        src = monomials_upto_degree(n, top)
        tgt = monomials_upto_degree(n, top + 1)
        m = derivation_matrix([delta.images], n, tuple(range(top + 1)), tuple(range(top + 2)))[0]
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


def assert_matches_tuple_loop(images, n, src_degrees, tgt_degrees):
    src, tgt = whole_pieces(n, src_degrees), whole_pieces(n, tgt_degrees)
    m = derivation_matrix([images], n, src_degrees, tgt_degrees)[0]
    ref = tuple_loop_matrix(images, src, tgt)
    assert m.shape == ref.shape
    for k, e in enumerate(src):
        assert np.array_equal(m[:, k], ref[:, k]), e


class TestDerivationArray:
    """`derivation_matrix` of a list of derivations is one array whose
    k-th matrix is the reference matrix of the k-th derivation."""

    @BOUNDED
    @given(st.data(), PRIMES, st.integers(1, 3), st.integers(0, 3), st.integers(0, 3))
    def test_each_matrix_is_the_tuple_loop(self, data, p, n, top, k):
        derivations = [[data.draw(polys_upto(p, n, 3)) for _ in range(n)] for _ in range(k)]
        src, tgt = monomials_upto_degree(n, top), monomials_upto_degree(n, top + 2)
        m = derivation_matrix(derivations, n, tuple(range(top + 1)), tuple(range(top + 3)))
        assert m.shape == (k, len(tgt), len(src))
        for images, mk in zip(derivations, m):
            assert np.array_equal(mk, tuple_loop_matrix(images, src, tgt))

    def test_empty_list(self):
        assert derivation_matrix([], 3, (2,), (3,)).shape == (0, 10, 6)

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
    def assert_entries_of_stack(derivations, n, src, tgt, p):
        stack = derivation_matrix(derivations, n, src, tgt)
        stack = stack.reshape(-1, stack.shape[2])
        entries = derivation_entries(derivations, n, src, tgt)
        assert entries.shape == stack.shape
        rows, cols = stack.nonzero()
        assert entries.rows.tolist() == rows.tolist()
        assert entries.cols.tolist() == cols.tolist()
        assert entries.vals.tolist() == stack[rows, cols].tolist()
        dense = nullspace(stack, p)
        # rows numbered by the targets reached: the same row space
        reached = derivation_entries(derivations, n, src)
        for sparse in (nullspace(entries, p), nullspace(reached, p)):
            assert len(dense) == len(sparse)
            assert all(np.array_equal(v, w) for v, w in zip(dense, sparse))

    @BOUNDED
    @given(st.data(), PRIMES, st.integers(1, 3), st.integers(0, 3), st.integers(0, 3))
    def test_random_derivations(self, data, p, n, top, k):
        derivations = [[data.draw(polys_upto(p, n, 3)) for _ in range(n)] for _ in range(k)]
        src, tgt = tuple(range(top + 1)), tuple(range(top + 3))
        self.assert_entries_of_stack(derivations, n, src, tgt, p)

    def test_skew_4x4_stack(self):
        # the largest operators of the center jobs: every product of a
        # column lands on one target monomial, and some cancel mod p
        c = SkewMatrix.from_rows(5, [[0, 4, 4, 2], [1, 0, 0, 4], [1, 0, 0, 3], [3, 1, 2, 0]])
        struct = from_skew_matrix(c)
        for d in (0, 5, 9):
            self.assert_entries_of_stack([a.images for a in struct.ad], 4, (d,), (d + 1,), 5)

    @pytest.mark.parametrize("form", potential_catalog(7), ids=lambda f: f.label)
    def test_catalog_stacks(self, form):
        # these fall apart into blocks of several columns
        struct = form.structure()
        for d in (2, 6, 11):
            self.assert_entries_of_stack([a.images for a in struct.ad], 3, (d,), (d + 1,), 7)

    def test_no_derivations(self):
        entries = derivation_entries([], 3, (2,), (3,))
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
        assert_matches_tuple_loop(images, n, (d,), (max(d + e - 1, 0),))

    @BOUNDED
    @given(st.data(), PRIMES, st.integers(1, 3), st.integers(0, 4))
    def test_filtered(self, data, p, n, top):
        images = [data.draw(polys_upto(p, n, 3)) for _ in range(n)]
        assert_matches_tuple_loop(images, n, tuple(range(top + 1)), tuple(range(top + 3)))

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
        assert_matches_tuple_loop(images, n, (d,), (d + 1,))


class TestRowIndex:
    """`_row_index` finds a monomial in the basis of a tuple of degrees by
    its degree's offset and its rank in the piece: the same positions as
    a dict over the basis."""

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("degrees", [(0,), (4,), (0, 1, 2, 3, 4), (1, 3), (2, 5), (5, 0, 2)])
    def test_against_a_dict(self, rng, n, degrees):
        basis = whole_pieces(n, degrees)
        index = {e: r for r, e in enumerate(basis)}
        # every monomial, some twice, in a random order
        wanted = rng.sample(basis, len(basis)) + rng.choices(basis, k=len(basis))
        exps = np.array(wanted, dtype=np.int64).reshape(-1, n)
        assert _row_index(_basis(n, degrees), exps).tolist() == [index[e] for e in wanted]
        assert _row_index(_basis(n, degrees), exps[:0]).tolist() == []
        assert _basis(n, degrees).monomials == basis
        assert _index(n, degrees) == index

    @pytest.mark.parametrize("n", [100, 130])
    def test_many_variables(self, n):
        # C(n + 1, 2) = 8515 monomials of degree 2 at n = 130; a table of
        # all binomials up to n, or a mixed-radix key, would pass 2^63
        exps = np.array(whole_pieces(n, (1, 2)), dtype=np.int64)
        rows = _row_index(_basis(n, (1, 2)), exps[::-1]).tolist()
        assert rows == list(range(len(exps)))[::-1]

    @pytest.mark.parametrize("row", [(-1, 3, 0), (3, -1, 0), (1, 1, 1), (0, 0, 0), (2, 2, 3)],
                             ids=["negative", "negative-degree-2", "gap", "missing-0",
                                  "above-top"])
    def test_missing_rows_raise(self, row):
        exps = np.array([(2, 0, 0), row, (0, 0, 4)], dtype=np.int64)
        with pytest.raises(KeyError) as raised:
            _row_index(_basis(3, (2, 4)), exps)
        assert raised.value.args == (row,)

    def test_basis_cached_and_read_only(self):
        # every caller of one degree tuple shares its description
        basis = _basis(3, (1, 3))
        assert _basis(3, (1, 3)) is basis
        for array in (basis.exps, basis.offset):
            with pytest.raises(ValueError):
                array[0] = 7

    def test_reached_rows_on_many_variables(self, rng):
        # with targets the rows are found by rank; without, the rows are
        # the reached monomials, found by whole rows: both exact at any n
        p, n = 5, 120
        images = [MultiPoly(p, n, {tuple(int(i in (a, b)) + int(i == a == b) for i in range(n)):
                                   rng.randrange(1, p)})
                  for a, b in ((rng.randrange(n), rng.randrange(n)) for _ in range(n))]
        assert_matches_tuple_loop(images, n, (1,), (2,))
        reached = derivation_entries([images], n, (1,))
        listed = derivation_entries([images], n, (1,), (2,))
        assert len(reached.vals) == len(listed.vals) > 0
        kernels = nullspace(reached, p), nullspace(listed, p)
        assert [v.tolist() for v in kernels[0]] == [v.tolist() for v in kernels[1]]


class TestCoeffMatrix:
    def test_columns(self):
        p = 5
        m = coeff_matrix([parse_poly("x1 + 2*x2", p, 2), parse_poly("4*x2", p, 2)], 2, (1,))
        assert m.tolist() == [[1, 0], [2, 4]]

    def test_empty(self):
        assert coeff_matrix([], 3, (2,)).shape == (6, 0)


class TestPolys:
    """`polys` reads back, row by row, the columns `coeff_matrix` writes,
    on the basis of any tuple of degrees, zero rows included."""

    @BOUNDED
    @given(st.data(), PRIMES, st.integers(1, 5),
           st.sampled_from([(0,), (3,), (0, 2, 5), (1, 2, 3), (4, 1)]), st.integers(0, 4))
    def test_inverts_coeff_matrix(self, data, p, n, degrees, k):
        monos = whole_pieces(n, degrees)
        terms = st.dictionaries(st.sampled_from(monos), st.integers(1, p - 1), max_size=4)
        fs = [MultiPoly(p, n, data.draw(terms)) for _ in range(k)]
        fs.insert(data.draw(st.integers(0, k)), MultiPoly.zero(p, n))
        m = coeff_matrix(fs, n, degrees)
        assert m.shape == (len(monos), len(fs))
        for rows in (m.T, list(m.T)):
            assert [f.terms for f in polys(rows, p, n, degrees)] == [f.terms for f in fs]
        # entries are read mod p
        assert [f.terms for f in polys(-m.T, p, n, degrees)] == [(-f).terms for f in fs]

    def test_no_rows(self):
        assert polys(np.zeros((0, 10), dtype=np.int64), 5, 3, (3,)) == []
        assert polys([], 5, 3, (3,)) == []


class TestNoDegreeCap:
    def test_skew_2x2_p23(self):
        # degree-64 sources bracket into degree 65; both engines answer
        c = SkewMatrix.from_rows(23, [[0, 1], [-1, 0]])
        oracle = center_oracle(from_skew_matrix(c), 64)
        assert len(oracle.hilbert) == 65
        assert oracle.hilbert == center_generators_skew(skew_monoid(c), 64).hilbert

    def test_source_above_degree_64(self):
        # the Euler derivation multiplies x^e by its degree 65 = 2 mod 3
        x1, x2 = MultiPoly.gens(3, 2)
        m = derivation_matrix([[x1, x2]], 2, (65,), (65,))[0]
        assert (m == 2 * np.eye(66, dtype=np.int64)).all()
