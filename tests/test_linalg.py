import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poismodp import linalg
from poismodp.catalog import potential_catalog
from poismodp.center import bracket_matrices
from poismodp.fieldpoly import squarefree

from conftest import SEED


def is_nilpotent(a, p):
    """a^n = 0 for the n x n matrix a over F_p."""
    return not np.any(linalg.mat_pow(a, a.shape[0], p))


def random_matrix(rng, p, rows, cols):
    return np.array(
        [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)],
        dtype=np.int64,
    )


class TestRref:
    def test_nullspace_vectors_annihilate(self):
        rng = random.Random(SEED)
        for _ in range(200):
            p = rng.choice([2, 3, 5, 7])
            a = random_matrix(rng, p, rng.randint(1, 6), rng.randint(1, 6))
            for v in linalg.nullspace(a, p):
                assert not np.any((a @ v) % p)

    def test_rank_nullity(self):
        rng = random.Random(SEED + 1)
        for _ in range(200):
            p = rng.choice([2, 3, 5])
            cols = rng.randint(1, 6)
            a = random_matrix(rng, p, rng.randint(1, 6), cols)
            assert linalg.rank(a, p) + len(linalg.nullspace(a, p)) == cols

    def test_solve_consistent(self):
        rng = random.Random(SEED + 2)
        for _ in range(200):
            p = rng.choice([2, 3, 5])
            cols = rng.randint(1, 5)
            a = random_matrix(rng, p, rng.randint(1, 5), cols)
            x = np.array([rng.randrange(p) for _ in range(cols)], dtype=np.int64)
            b = (a @ x) % p
            sol = linalg.solve(a, b, p)
            assert sol is not None
            assert not np.any((a @ sol - b) % p)

    def test_solve_inconsistent(self):
        a = np.array([[1, 0], [1, 0]], dtype=np.int64)
        b = np.array([1, 2], dtype=np.int64)
        assert linalg.solve(a, b, 5) is None

    def test_empty_matrix(self):
        a = np.zeros((0, 3), dtype=np.int64)
        assert len(linalg.nullspace(a, 5)) == 3


class TestMatrixOps:
    def test_nilpotent_shift(self):
        a = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=np.int64)
        assert is_nilpotent(a, 5)

    def test_diagonal_not_nilpotent(self):
        a = np.diag([1, 2, 0]).astype(np.int64)
        assert not is_nilpotent(a, 5)

    def test_minimal_polynomial_diagonal(self):
        a = np.diag([1, 1, 2]).astype(np.int64)
        m = linalg.minimal_polynomial(a, 5)
        # (t-1)(t-2) = t^2 - 3t + 2
        assert m.coeffs == [2, 2, 1]
        assert squarefree(m)

    def test_minimal_polynomial_annihilates(self):
        rng = random.Random(SEED + 3)
        for _ in range(100):
            p = rng.choice([2, 3, 5])
            nn = rng.randint(1, 4)
            a = random_matrix(rng, p, nn, nn)
            m = linalg.minimal_polynomial(a, p)
            acc = np.zeros((nn, nn), dtype=np.int64)
            for k, c in enumerate(m.coeffs):
                acc = (acc + c * linalg.mat_pow(a, k, p)) % p
            assert not np.any(acc)

    def test_minimal_polynomial_jordan_block(self):
        a = np.array([[0, 1], [0, 0]], dtype=np.int64)
        m = linalg.minimal_polynomial(a, 5)
        assert m.coeffs == [0, 0, 1]  # t^2
        assert not squarefree(m)

    def test_zero_matrix_minpoly(self):
        a = np.zeros((2, 2), dtype=np.int64)
        m = linalg.minimal_polynomial(a, 5)
        assert m.coeffs == [0, 1]  # t
        assert squarefree(m)


def solve_loop_minimal_polynomial(a, p):
    """Reference: the least k with a^k = sum_{i<k} c_i a^i, one `solve`
    per candidate degree; ascending coefficients of the monic result."""
    n = a.shape[0]
    powers = [np.eye(n, dtype=np.int64)]
    for _ in range(n):
        powers.append(linalg.mat_mul(powers[-1], a, p))
    for k in range(1, n + 1):
        lhs = np.stack([m.reshape(-1) for m in powers[:k]], axis=1)
        sol = linalg.solve(lhs, powers[k].reshape(-1), p)
        if sol is not None:
            return [(-int(c)) % p for c in sol] + [1]
    raise AssertionError("no monic dependence up to degree n")


@st.composite
def square_matrices(draw):
    """Random, diagonal (repeated eigenvalues likely), nilpotent (strictly
    upper triangular, rows and columns permuted alike) or scalar."""
    p = draw(st.sampled_from([2, 3, 5, 7, 23]))
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["random", "diagonal", "nilpotent", "scalar"]))
    entries = st.integers(0, p - 1)
    if kind == "diagonal":
        a = np.diag(draw(st.lists(st.integers(0, min(p, 3) - 1), min_size=n, max_size=n)))
    elif kind == "scalar":
        a = draw(entries) * np.eye(n, dtype=np.int64)
    else:
        a = np.array(draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                   min_size=n, max_size=n))).reshape(n, n)
        if kind == "nilpotent":
            perm = draw(st.permutations(range(n)))
            a = np.triu(a, 1)[np.ix_(perm, perm)]
    return p, a.astype(np.int64)


class TestMinimalPolynomialKernel:
    """`minimal_polynomial` reads the first kernel vector of [I, a, ..., a^n];
    the reference solves for a monic dependence degree by degree."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(square_matrices())
    def test_matches_solve_loop(self, case):
        p, a = case
        assert linalg.minimal_polynomial(a, p).coeffs == solve_loop_minimal_polynomial(a, p)

    def test_nilpotent_shift(self):
        a = np.eye(4, k=1, dtype=np.int64)
        assert linalg.minimal_polynomial(a, 7).coeffs == [0, 0, 0, 0, 1]  # t^4


# ---------------------------------------------------------------------
# Block-split kernels against one dense elimination
# ---------------------------------------------------------------------


def dense_nullspace(a, p):
    """One rref of the whole matrix, then one vector per free column."""
    m, pivots = linalg.rref(a, p)
    basis = []
    for fc in range(a.shape[1]):
        if fc in pivots:
            continue
        v = np.zeros(a.shape[1], dtype=np.int64)
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -int(m[r, fc]) % p
        basis.append(v)
    return basis


def assert_split_equals_dense(a, p):
    split, dense = linalg.nullspace(a, p), dense_nullspace(a, p)
    assert len(split) == len(dense)
    for v, w in zip(split, dense):
        assert v.dtype == np.int64 and np.array_equal(v, w)
    assert linalg.rank(a, p) == len(linalg.rref(a, p)[1])
    entries = linalg._entries(a, p)
    assert [v.tolist() for v in linalg.nullspace(entries, p)] == [v.tolist() for v in dense]
    assert linalg.rank(entries, p) == len(linalg.rref(a, p)[1])


@st.composite
def block_sparse(draw):
    """A matrix with independent blocks, rows and columns shuffled, and
    its prime; or an empty, zero or dense matrix.  Entries are sometimes
    left unreduced, so that multiples of p must not join blocks."""
    p = draw(st.sampled_from([2, 3, 5, 7, 23]))
    kind = draw(st.sampled_from(["blocks", "blocks", "empty", "zero", "dense"]))
    if kind == "empty":
        return np.zeros(draw(st.sampled_from([(0, 0), (0, 4), (3, 0)])), dtype=np.int64), p
    if kind == "blocks":
        sizes = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(1, 4)),
                              min_size=1, max_size=6))
    else:
        sizes = [(draw(st.integers(1, 6)), draw(st.integers(1, 6)))]
    rows, cols = sum(r for r, _ in sizes), sum(c for _, c in sizes)
    a = np.zeros((rows, cols), dtype=np.int64)
    r0 = c0 = 0
    for br, bc in sizes:
        if kind != "zero":
            fill = 1.0 if kind == "dense" else draw(st.sampled_from([0.2, 0.5, 1.0]))
            entries = draw(st.lists(st.integers(1, p - 1), min_size=br * bc,
                                    max_size=br * bc))
            keep = draw(st.lists(st.floats(0, 1), min_size=br * bc, max_size=br * bc))
            block = [e if k < fill else 0 for e, k in zip(entries, keep)]
            a[r0:r0 + br, c0:c0 + bc] = np.array(block, dtype=np.int64).reshape(br, bc)
        r0, c0 = r0 + br, c0 + bc
    if draw(st.booleans()):
        a = a + p * draw(st.sampled_from([-1, 1, 2]))
    rperm = draw(st.permutations(range(rows)))
    cperm = draw(st.permutations(range(cols)))
    return a[np.ix_(rperm, cperm)], p


class TestBlockSplit:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(block_sparse())
    def test_random_block_sparse(self, case):
        assert_split_equals_dense(*case)

    @pytest.mark.parametrize("form", potential_catalog(7), ids=lambda f: f.label)
    def test_catalog_operator_stacks(self, form):
        struct = form.structure()
        for d in range(22):
            assert_split_equals_dense(np.vstack(bracket_matrices(struct, d)), 7)

    def test_blocks_of_a_permuted_block_diagonal(self):
        # columns {0, 3} and {1, 4} are blocks; 2 is zero, 5 a lone pivot
        a = np.array([[1, 0, 0, 2, 0, 0],
                      [0, 3, 0, 0, 1, 0],
                      [2, 0, 0, 4, 0, 0],
                      [0, 0, 0, 0, 0, 4]], dtype=np.int64)
        zero, blocks = linalg._blocks(linalg._entries(a, 5))
        assert zero.tolist() == [False, False, True, False, False, False]
        assert [(r.tolist(), c.tolist()) for r, c in blocks] == [
            ([0, 2], [0, 3]), ([1], [1, 4])]
        assert linalg.rank(a, 5) == 3
        assert [v.tolist() for v in linalg.nullspace(a, 5)] == [
            [0, 0, 1, 0, 0, 0], [3, 0, 0, 1, 0, 0], [0, 3, 0, 0, 1, 0]]


class TestSpan:
    """`span` lists every F_p-combination in itertools.product order of
    the coefficient vectors."""

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.data(), st.sampled_from([2, 3, 5]), st.integers(0, 4), st.integers(1, 4))
    def test_product_order(self, data, p, k, m):
        rows = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=m, max_size=m),
                                  min_size=k, max_size=k))
        vectors = np.array(rows, dtype=np.int64).reshape(k, m)
        reference = [
            sum((a * v for a, v in zip(coeffs, vectors)), np.zeros(m, dtype=np.int64)) % p
            for coeffs in itertools.product(range(p), repeat=k)
        ]
        assert linalg.span(vectors, p).tolist() == [v.tolist() for v in reference]

    def test_no_vectors(self):
        assert linalg.span(np.zeros((0, 3), dtype=np.int64), 5).tolist() == [[0, 0, 0]]
