import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poismodp import linalg
from poismodp.catalog import catalog_form, potential_catalog
from poismodp.center import bracket_matrices, graded_kernel, independent_brackets
from poismodp.errors import Limits
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


def recorded_rref(monkeypatch):
    """The list of the matrices `linalg.rref` is called on from now on."""
    calls, rref = [], linalg.rref

    def recording(m, p):
        calls.append(m.copy())
        return rref(m, p)

    monkeypatch.setattr(linalg, "rref", recording)
    return calls


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

    def test_equal_blocks_eliminated_once(self, monkeypatch):
        # three copies of one block, their rows and columns interleaved
        # with those of the others in their own order, a row-shuffled
        # fourth copy, which is another matrix, and two distinct blocks;
        # dense blocks of nonzero entries keep every row out of the peel
        rng, p = np.random.default_rng(SEED), 7
        block = rng.integers(1, p, (3, 5))
        blocks = [block, rng.integers(1, p, (2, 4)), block, block[[2, 0, 1]], block,
                  rng.integers(1, p, (4, 6))]
        row_owner = rng.permutation(np.repeat(np.arange(len(blocks)), [len(b) for b in blocks]))
        col_owner = rng.permutation(np.repeat(np.arange(len(blocks)), [b.shape[1] for b in blocks]))
        a = np.zeros((len(row_owner), len(col_owner)), dtype=np.int64)
        for k, b in enumerate(blocks):
            a[np.ix_((row_owner == k).nonzero()[0], (col_owner == k).nonzero()[0])] = b
        assert_split_equals_dense(a, p)
        calls = recorded_rref(monkeypatch)
        linalg.nullspace(a, p)
        assert sorted(m.shape for m in calls) == [(2, 4), (3, 5), (3, 5), (4, 6)]

    def test_center_blocks_recur_with_period_p(self, monkeypatch):
        # Irr1's operators are linear over the p-th powers: its degree-3
        # block comes back at degree 10 times each x_i^7, and the 14
        # blocks of degrees 0..16, one elimination, are 5 distinct ones
        form = catalog_form(7, "Irr1")
        struct = form.structure()
        images = independent_brackets(struct, [form.omega])
        calls = recorded_rref(monkeypatch)
        kernels = list(graded_kernel(7, 3, 16, images, Limits()))
        assert len(calls) == 5 and [[4, 3], [6, 1]] in [m.tolist() for m in calls]
        for d, kernel in kernels:
            ops = np.vstack(bracket_matrices(struct, d))
            assert kernel.tolist() == [v.tolist() for v in dense_nullspace(ops, 7)]


@st.composite
def singleton_chains(draw):
    """A matrix that `_peel` takes apart over several rounds, and its
    prime: permuted pieces that are upper bidiagonal (the last row is a
    singleton, and each forced column leaves the row above with one
    entry) or upper triangular with a nonzero diagonal, mixed with random
    blocks, zero columns and a few stray entries that may join pieces.
    Entries are sometimes left unreduced."""
    p = draw(st.sampled_from([2, 3, 5, 7, 23]))
    kinds = draw(st.lists(st.sampled_from(["bidiagonal", "triangular", "random", "zero"]),
                          min_size=1, max_size=5))
    nonzero = st.integers(1, p - 1)
    pieces = []
    for kind in kinds:
        size = draw(st.integers(1, 6))
        if kind == "zero":
            pieces.append(np.zeros((draw(st.integers(0, 2)), size), dtype=np.int64))
            continue
        a = np.array(draw(st.lists(st.integers(0, p - 1), min_size=size * size,
                                   max_size=size * size)), dtype=np.int64).reshape(size, size)
        if kind == "bidiagonal":
            a = np.triu(np.tril(a, 1), 1)
        elif kind == "triangular":
            a = np.triu(a, 1)
        if kind != "random":
            a[np.arange(size), np.arange(size)] = draw(st.lists(nonzero, min_size=size,
                                                                max_size=size))
        pieces.append(a)
    rows, cols = sum(a.shape[0] for a in pieces), sum(a.shape[1] for a in pieces)
    a = np.zeros((rows, cols), dtype=np.int64)
    r0 = c0 = 0
    for piece in pieces:
        a[r0:r0 + piece.shape[0], c0:c0 + piece.shape[1]] = piece
        r0, c0 = r0 + piece.shape[0], c0 + piece.shape[1]
    if rows:
        for _ in range(draw(st.integers(0, 3))):
            a[draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))] = draw(nonzero)
    if draw(st.booleans()):
        a = a + p * draw(st.sampled_from([-1, 1, 2]))
    rperm = draw(st.permutations(range(rows)))
    cperm = draw(st.permutations(range(cols)))
    return a[np.ix_(rperm, cperm)], p


def permuted_bidiagonal(size, p, seed):
    """The nonzero entries of a size x size upper bidiagonal matrix with
    nonzero entries, rows and columns shuffled: the peel forces one
    column per round."""
    rng = np.random.default_rng(seed)
    diagonal, above = np.arange(size), np.arange(size - 1)
    rows = np.concatenate([diagonal, above])
    cols = np.concatenate([diagonal, above + 1])
    rperm, cperm = rng.permutation(size), rng.permutation(size)
    vals = rng.integers(1, p, len(rows))
    return linalg.Entries((size, size), rperm[rows], cperm[cols], vals)


def peel_by_rounds(a):
    """Reference for `_peel`: every round counts the live entries of
    every row, until no row has one."""
    forced = np.zeros(a.shape[1], dtype=bool)
    rows, cols, vals = a.rows, a.cols, a.vals
    while True:
        single = np.bincount(rows, minlength=a.shape[0])[rows] == 1
        if not single.any():
            return forced, linalg.Entries(a.shape, rows, cols, vals)
        forced[cols[single]] = True
        keep = ~forced[cols]
        rows, cols, vals = rows[keep], cols[keep], vals[keep]


class TestPeel:
    """Row singletons are peeled before the block split; the kernel is
    still the one of a single dense elimination, vector for vector."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(singleton_chains())
    def test_chains_against_rounds(self, case):
        a, p = case
        entries = linalg._entries(a, p)
        expected, core = peel_by_rounds(entries)
        forced, peeled = linalg._peel(entries)
        assert forced.tolist() == expected.tolist()
        assert peeled.shape == core.shape
        for mine, theirs in zip(peeled[1:], core[1:]):
            assert mine.tolist() == theirs.tolist()

    def test_rows_left_with_one_column(self):
        # row 0 forces column 5, which leaves rows 1 and 2 both with
        # column 1 alone; forcing it once leaves row 3 with columns 0
        # and 3 (twice would leave it one entry, naming column 2)
        a = np.array([[0, 0, 0, 0, 0, 1],
                      [0, 1, 0, 0, 0, 1],
                      [0, 2, 0, 0, 0, 3],
                      [1, 1, 0, 1, 0, 0],
                      [1, 0, 0, 2, 0, 0],
                      [2, 0, 0, 1, 0, 0]], dtype=np.int64)
        forced, core = linalg._peel(linalg._entries(a, 5))
        assert forced.tolist() == [False, True, False, False, False, True]
        assert core.rows.tolist() == [3, 3, 4, 4, 5, 5]
        assert core.cols.tolist() == [0, 3, 0, 3, 0, 3]

    def test_row_touched_twice(self):
        # row 0 forces column 0, which leaves rows 1 and 2 naming columns
        # 1 and 2; forcing both in one round touches row 3 twice, so it
        # comes twice as a singleton naming column 3, which must be
        # forced once: twice would take row 4 down to one entry
        a = np.array([[1, 0, 0, 0, 0, 0],
                      [1, 1, 0, 0, 0, 0],
                      [1, 0, 1, 0, 0, 0],
                      [0, 1, 1, 1, 0, 0],
                      [0, 0, 0, 1, 1, 1],
                      [0, 0, 0, 0, 1, 1]], dtype=np.int64)
        entries = linalg._entries(a, 5)
        forced, core = linalg._peel(entries)
        assert forced.tolist() == [True, True, True, True, False, False]
        assert core.rows.tolist() == [4, 4, 5, 5]
        assert core.cols.tolist() == [4, 5, 4, 5]
        assert forced.tolist() == peel_by_rounds(entries)[0].tolist()

    def test_long_chain_is_linear(self, monkeypatch):
        # one column per round: counting the live entries of every row
        # in each of the 3000 rounds would read about 9 * 10^6 of them
        class CountingNumpy:
            """numpy, counting the elements that `np.bincount` and
            `np.subtract.at` read: the peel's passes over entries."""
            read = 0

            def __getattr__(self, name):
                return getattr(np, name)

            def bincount(self, x, *args, **kwargs):
                CountingNumpy.read += len(x)
                return np.bincount(x, *args, **kwargs)

            class subtract:
                @staticmethod
                def at(a, index, values):
                    CountingNumpy.read += len(index)
                    np.subtract.at(a, index, values)

        a = permuted_bidiagonal(3000, 5, SEED)
        monkeypatch.setattr(linalg, "np", CountingNumpy())
        forced, core = linalg._peel(a)
        assert forced.all() and len(core.vals) == 0
        assert 0 < CountingNumpy.read <= 6 * len(a.rows)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(singleton_chains())
    def test_chains_against_dense(self, case):
        assert_split_equals_dense(*case)

    def test_forced_columns_and_core(self):
        # row 1 forces column 1, which leaves row 0 with column 0 alone;
        # rows 2 and 3 stay, and column 5 is zero, not forced
        a = np.array([[2, 1, 0, 0, 0, 0],
                      [0, 3, 0, 0, 0, 0],
                      [0, 0, 1, 4, 1, 0],
                      [0, 0, 2, 1, 3, 0]], dtype=np.int64)
        forced, core = linalg._peel(linalg._entries(a, 5))
        assert forced.tolist() == [True, True, False, False, False, False]
        assert core.shape == (4, 6)
        assert core.rows.tolist() == [2, 2, 2, 3, 3, 3]
        assert core.cols.tolist() == [2, 3, 4, 2, 3, 4]
        assert core.vals.tolist() == [1, 4, 1, 2, 1, 3]
        kernel = linalg.nullspace(a, 5)
        assert [v.tolist() for v in kernel] == [[0, 0, 2, 3, 1, 0], [0, 0, 0, 0, 0, 1]]
        assert not any(v[forced].any() for v in kernel)
        assert linalg.rank(a, 5) == 4

    def test_chain_needs_no_dense_block(self, monkeypatch):
        # one column per round: at 3000 columns a single dense block
        # would be a 3000 x 3000 elimination
        a = permuted_bidiagonal(3000, 5, SEED)

        def refuse(*args):
            raise AssertionError("dense elimination")

        monkeypatch.setattr(linalg, "rref", refuse)
        assert linalg.nullspace(a, 5) == []
        assert linalg.rank(a, 5) == 3000


# ---------------------------------------------------------------------
# Stacked eliminations against one rref per matrix
# ---------------------------------------------------------------------


@st.composite
def wide_sparse(draw):
    """A matrix of 1-8 rows and 10-80 columns, each row with a few
    nonzeros, so that most columns are zero, and its prime."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(10, 80))
    a = np.zeros((rows, cols), dtype=np.int64)
    for r in range(rows):
        for c in draw(st.lists(st.integers(0, cols - 1), max_size=4)):
            a[r, c] = draw(st.integers(1, p - 1))
    if draw(st.booleans()) and rows > 1:
        a[-1] = (a[0] + 2 * a[1]) % p  # a dependent row
    return a, p


class TestRrefZeroColumns:
    """`rref` visits only the columns with a nonzero entry; its answer is
    that of `rref_stack`, which visits every column."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(wide_sparse())
    def test_against_rref_stack(self, case):
        a, p = case
        m, pivots = linalg.rref(a, p)
        ref, ref_pivots = linalg.rref_stack(a[None].copy(), p)
        assert np.array_equal(m, ref[0])
        assert pivots == ref_pivots[0].nonzero()[0].tolist()

    def test_zero_and_empty(self):
        for shape in [(3, 0), (0, 4), (2, 5)]:
            m, pivots = linalg.rref(np.zeros(shape, dtype=np.int64), 5)
            assert m.shape == shape and not m.any() and pivots == []


@st.composite
def stacks(draw):
    """A (B, R, C) stack and its prime, B, R or C possibly 0.  Members are
    random, sparse, zero or of full rank min(R, C); entries are sometimes
    left unreduced, as the eigenspace scan's systems are."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    count, rows, cols = (draw(st.integers(0, 5)) for _ in range(3))
    members = []
    for _ in range(count):
        kind = draw(st.sampled_from(["random", "sparse", "zero", "full"]))
        entries = draw(st.lists(st.integers(0, p - 1), min_size=rows * cols,
                                max_size=rows * cols))
        a = np.array(entries, dtype=np.int64).reshape(rows, cols)
        if kind == "sparse":
            a[np.array(draw(st.lists(st.booleans(), min_size=rows * cols,
                                     max_size=rows * cols)), dtype=bool).reshape(rows, cols)] = 0
        elif kind == "zero":
            a[:] = 0
        elif kind == "full":
            # a unit lower triangle times an echelon form with unit pivots
            lower = np.tril(np.resize(a, (rows, rows)), -1) + np.eye(rows, dtype=np.int64)
            echelon = np.triu(a, 1) + np.eye(rows, cols, dtype=np.int64)
            perm = draw(st.permutations(range(cols)))
            a = (lower @ echelon % p)[:, perm]
            assert linalg.rank(a, p) == min(rows, cols)
        members.append(a)
    stack = np.array(members, dtype=np.int64).reshape(count, rows, cols)
    if draw(st.booleans()):
        stack = stack + p * draw(st.sampled_from([-1, 1, 2]))
    return stack, p


class TestRrefStack:
    """Member b of `rref_stack` is `rref` of that matrix alone, and
    `rref_kernel` reads off `nullspace`'s basis, vector for vector."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(stacks())
    def test_matches_one_rref_per_matrix(self, case):
        a, p = case
        reduced = a.copy()
        m, pivots = linalg.rref_stack(reduced, p)
        assert m is reduced  # reduced in place
        assert m.shape == a.shape and m.dtype == np.int64
        assert pivots.shape == (a.shape[0], a.shape[2]) and pivots.dtype == bool
        for b in range(len(a)):
            ref, ref_pivots = linalg.rref(a[b], p)
            assert np.array_equal(m[b], ref)
            assert pivots[b].nonzero()[0].tolist() == ref_pivots
            kernel = linalg.rref_kernel(m[b], pivots[b], p)
            assert [v.tolist() for v in kernel] == [v.tolist() for v in linalg.nullspace(a[b], p)]

    @pytest.mark.parametrize("shape", [(0, 3, 4), (2, 0, 3), (2, 3, 0), (0, 0, 0)])
    def test_empty_shapes(self, shape):
        m, pivots = linalg.rref_stack(np.zeros(shape, dtype=np.int64), 5)
        assert m.shape == shape and pivots.shape == (shape[0], shape[2])
        assert not pivots.any()
        for b in range(shape[0]):
            assert len(linalg.rref_kernel(m[b], pivots[b], 5)) == shape[2]


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
