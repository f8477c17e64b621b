"""Exact linear algebra mod p on numpy int64 matrices.

Entries are kept reduced in [0, p).  Everything here is deterministic:
pivots are chosen first-nonzero top-down, nullspace vectors follow the
free columns in ascending order.

`nullspace` and `rank` eliminate a matrix as its nonzero `Entries`, into
which `_entries` turns a dense one.  They split it into the connected
blocks of its row/column incidence graph: a column alone in its block is
decided by whether it is zero, and each larger block gets one dense
`rref`.  The center's operators are very sparse and fall apart into
thousands of such blocks, so their dense stack is never built.

Polynomials and matrices on a monomial basis meet only here, and only
here is a basis held as an int64 exponent array: `coeff_matrix` fills a
whole array from polynomial terms, `derivation_entries` lists the
nonzero entries of the operators of derivations and `derivation_matrix`
writes them into a dense array, `multiplication_matrices` fills arrays
from exponents alone, and `vec_to_poly` reads a vector back.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import InternalCheckFailed, ZeroInput
from .fieldpoly import MultiPoly, UniPoly, ff_inv, monomials_of_degree


def coeff_matrix(polys, basis) -> np.ndarray:
    """Column k holds the coefficients of polys[k] on the monomial basis."""
    index = {e: r for r, e in enumerate(basis)}
    m = np.zeros((len(basis), len(polys)), dtype=np.int64)
    for k, f in enumerate(polys):
        for e, c in f.terms.items():
            m[index[e], k] = c
    return m


class Entries(NamedTuple):
    """A matrix of the given shape by its nonzero entries: vals[k], in
    [1, p), at (rows[k], cols[k]), no position twice."""

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray


def derivation_entries(derivations, src, tgt=None) -> Entries:
    """The matrices of the derivations x_j |-> images[j], one per image
    list in `derivations`, from span(src) into span(tgt), stacked into one
    (len(derivations) * len(tgt), len(src)) matrix, as its nonzero
    entries in row-major order.  Without `tgt`, the rows of each matrix
    are the target monomials some derivation reaches, so that no basis
    of unreached targets is ever listed.

    delta(x^e) = sum_j e_j x^(e - eps_j) images[j] is summed from the
    products e_j c x^(e - eps_j + f), for c x^f a term of images[j].  The
    sources are one int64 exponent array; all image terms of all
    derivations are taken at once: each shifts the sources with
    e_j != 0 mod p, and one lookup finds all target rows.
    """
    terms = [(k, j, e, c) for k, images in enumerate(derivations)
             for j, g in enumerate(images) for e, c in g.terms.items()]
    if not terms:
        shape = (len(derivations) * len(tgt or ()), len(src))
        return Entries(shape, *np.zeros((3, 0), dtype=np.int64))
    p = derivations[0][0].p
    ks, js, shifts, coeffs = (np.array(a, dtype=np.int64) for a in zip(*terms))
    shifts[np.arange(len(js)), js] -= 1
    exps = _exponent_table(tuple(src), shifts.shape[1])[0]
    powers = exps[:, js] % p  # e_j of every source, one column per term
    s, t = powers.nonzero()
    if tgt is None:
        tgt, rows = np.unique(_row_keys(exps[s] + shifts[t]), return_inverse=True)
    else:
        rows = _row_index(tgt, exps[s] + shifts[t])
    flat = (ks[t] * len(tgt) + rows) * len(src) + s
    order = flat.argsort()
    flat = flat[order]
    first = np.ones(len(flat), dtype=bool)
    first[1:] = flat[1:] != flat[:-1]
    first = first.nonzero()[0]
    # each cell sums at most n products below p^2: exact in int64
    sums = np.add.reduceat((powers[s, t] * coeffs[t])[order], first) % p
    keep = sums.nonzero()[0]
    shape = (len(derivations) * len(tgt), len(src))
    return Entries(shape, *np.divmod(flat[first[keep]], len(src)), sums[keep])


def derivation_matrix(derivations, src, tgt) -> np.ndarray:
    """`derivation_entries(derivations, src, tgt)` written into one dense
    (len(derivations), len(tgt), len(src)) array.

    The array is written in full, not left to the lazily zeroed pages of
    np.zeros: numpy asks the kernel for 2 MiB pages on large arrays, so
    the resident size of a sparsely written one would depend on whether
    the machine has such pages free at that moment.
    """
    m = np.full((len(derivations), len(tgt), len(src)), 0, dtype=np.int64)
    entries = derivation_entries(derivations, src, tgt)
    m.reshape(entries.shape)[entries.rows, entries.cols] = entries.vals
    return m


@lru_cache(maxsize=None)
def multiplication_matrices(n: int, d: int) -> np.ndarray:
    """The n x |A_{d+1}| x |A_d| array whose j-th matrix is f |-> x_j f
    from A_d to A_{d+1}: one row lookup of the shifted sources per j.
    Cached, so read-only: every caller gets the same array."""
    src, tgt = monomials_of_degree(n, d), monomials_of_degree(n, d + 1)
    exps = _exponent_table(src, n)[0]
    m = np.full((n, len(tgt), len(src)), 0, dtype=np.int64)
    for j, shift in enumerate(np.eye(n, dtype=np.int64)):
        m[j, _row_index(tgt, exps + shift), np.arange(len(src))] = 1
    m.flags.writeable = False
    return m


def _row_keys(exps: np.ndarray) -> np.ndarray:
    """One opaque key per row: rows compare equal iff their keys do."""
    exps = np.ascontiguousarray(exps)
    return exps.view(np.dtype((np.void, 8 * exps.shape[1]))).ravel()


@lru_cache(maxsize=256)
def _exponent_table(basis: tuple, n: int) -> tuple[np.ndarray, ...]:
    """The exponent vectors of a monomial basis as the rows of an int64
    array, with their keys sorted and the sorting permutation.  Cached,
    since all the operators on one degree share their bases; read-only,
    since every caller gets the same arrays."""
    exps = np.array(basis, dtype=np.int64).reshape(len(basis), n)
    order = np.argsort(_row_keys(exps))
    table = exps, _row_keys(exps)[order], order
    for a in table:
        a.flags.writeable = False
    return table


def _row_index(basis, exps: np.ndarray) -> np.ndarray:
    """Position in `basis` of each row of `exps`.  Rows are matched whole,
    so the lookup is exact for any number of variables."""
    _, keys, order = _exponent_table(tuple(basis), exps.shape[1])
    want = _row_keys(exps)
    pos = np.searchsorted(keys, want)
    found = pos < len(keys)
    found[found] = keys[pos[found]] == want[found]
    if not found.all():
        raise KeyError(tuple(int(x) for x in exps[np.argmin(found)]))
    return order[pos]


def vec_to_poly(v, p: int, n: int, basis) -> MultiPoly:
    v = np.asarray(v) % p
    terms = {basis[k]: int(v[k]) for k in np.flatnonzero(v)}
    out = MultiPoly(p, n)
    out.terms = terms
    return out


def span(vectors, p: int) -> np.ndarray:
    """Every F_p-combination of the rows of `vectors`, one row each, in
    the itertools.product order of the coefficient vectors (the first
    coefficient most significant): built one coefficient at a time, so
    the p^k x k table of coefficients is never made."""
    out = np.zeros((1, vectors.shape[1]), dtype=np.int64)
    for v in vectors:
        out = out[:, None, :] + np.multiply.outer(np.arange(p), v)
        np.remainder(out, p, out=out)
        out = out.reshape(len(out) * p, len(v))
    return out


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p; returns (matrix, pivot columns)."""
    m = np.ascontiguousarray(a % p, dtype=np.int64)
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = m[r:, c].nonzero()[0]
        if not nz.size:
            continue
        k = r + int(nz[0])
        row = m[k] * ff_inv(int(m[k, c]), p) % p
        if k != r:
            m[k] = m[r]
        m[r] = row
        col = m[:, c].copy()
        col[r] = 0
        others = col.nonzero()[0]
        if others.size:
            m[others] = (m[others] - col[others, None] * row) % p
        pivots.append(c)
        r += 1
    return m, pivots


def _entries(a: np.ndarray, p: int) -> Entries:
    """The nonzero entries of a dense matrix mod p, in row-major order.
    a is reduced only when some entry lies outside [0, p), as none of an
    operator matrix does, so that no copy of a large stack is made."""
    if a.size and (a.min() < 0 or a.max() >= p):
        a = a % p
    # the flat nonzeros of a boolean mask are found several times
    # faster than np.nonzero(a) on a large int64 matrix
    flat = (a != 0).ravel().nonzero()[0]
    return Entries(a.shape, *np.divmod(flat, a.shape[1]), a.ravel()[flat])


def _blocks(a: Entries) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Connected blocks of the incidence graph of a matrix given by its
    nonzero entries, in which column c meets row r when a[r, c] != 0.

    Returns the mask of the zero columns, and the (rows, columns) of
    every block of more than one column, both ascending.  The columns
    in neither are nonzero columns alone in their block: pivots.
    """
    rows, cols = a.shape
    r, c = a.rows, a.cols
    # min-label propagation with pointer jumping: every column ends up
    # labelled by the least column of its block.  Labels only decrease,
    # so equal sums mean a fixed point.
    label, total = np.arange(cols), cols * (cols - 1) // 2  # sum of the labels
    row_min = np.empty(rows, dtype=np.int64)
    while True:
        row_min.fill(cols)
        np.minimum.at(row_min, r, label[c])
        new = label.copy()
        np.minimum.at(new, c, row_min[r])
        new = new[new]
        new_total = int(new.sum())
        if new_total == total:
            break
        label, total = new, new_total
    row_label = np.full(rows, -1)
    row_label[r] = label[c]
    blocks = [((row_label == b).nonzero()[0], (label == b).nonzero()[0])
              for b in (np.bincount(label, minlength=cols) > 1).nonzero()[0]]
    return np.bincount(c, minlength=cols) == 0, blocks


def _block_matrices(a: Entries, blocks):
    """The dense submatrix a[rs][:, cs] of each block (rs, cs) of a."""
    block_of = np.full(a.shape[1], len(blocks))
    for b, (_, cs) in enumerate(blocks):
        block_of[cs] = b
    which = block_of[a.cols]
    order = which.argsort()
    ends = which[order].searchsorted(np.arange(len(blocks) + 1))
    rows, cols, vals = a.rows[order], a.cols[order], a.vals[order]
    for b, (rs, cs) in enumerate(blocks):
        e = slice(ends[b], ends[b + 1])
        sub = np.zeros((len(rs), len(cs)), dtype=np.int64)
        sub[rs.searchsorted(rows[e]), cs.searchsorted(cols[e])] = vals[e]
        yield sub


def _eliminate(a, p: int):
    """One rref per block of several columns of a, a dense matrix or its
    nonzero `Entries`.  Returns the mask of the free columns, and for
    each such block its free columns, its pivot columns and the rows of
    its rref that express the free columns in the pivot columns."""
    if not isinstance(a, Entries):
        a = _entries(a, p)
    free, blocks = _blocks(a)
    solved = []
    for (rs, cs), sub in zip(blocks, _block_matrices(a, blocks)):
        m, pivots = rref(sub, p)
        own = np.ones(len(cs), dtype=bool)
        own[pivots] = False
        free[cs[own]] = True
        solved.append((cs[own], cs[pivots], m[: len(pivots), own]))
    return free, solved


def rank(a, p: int) -> int:
    """Rank of a, dense or as `Entries`: its columns less its free ones."""
    return a.shape[1] - int(np.count_nonzero(_eliminate(a, p)[0]))


def nullspace(a, p: int) -> list[np.ndarray]:
    """Basis of the right nullspace of a, a dense matrix or its nonzero
    `Entries`, one vector per free column.

    Up to a permutation a is block diagonal, so its pivot columns are
    those of its blocks, and the vector of a free column, its unique
    expression in the pivot columns, lies in that column's block: the
    basis is the one a single rref of a would give, vector for vector.
    """
    free, solved = _eliminate(a, p)
    free_cols = free.nonzero()[0]
    basis = np.zeros((len(free_cols), a.shape[1]), dtype=np.int64)
    basis[np.arange(len(free_cols)), free_cols] = 1
    for fcs, pcs, coeffs in solved:
        basis[np.searchsorted(free_cols, fcs)[:, None], pcs] = -coeffs.T % p
    return list(basis)


def solve(a: np.ndarray, b: np.ndarray, p: int):
    """One solution of a x = b mod p, or None if inconsistent."""
    rows, cols = a.shape
    aug = np.concatenate([a % p, (b % p).reshape(rows, 1)], axis=1)
    m, pivots = rref(aug, p)
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.int64)
    for r, pc in enumerate(pivots):
        x[pc] = m[r, cols]
    return x


def in_row_space(a: np.ndarray, v: np.ndarray, p: int) -> bool:
    return rank(np.vstack([a, v]), p) == rank(a, p)


def mat_mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    # int64 is exact for n x n factors: PoissonStructure keeps
    # n^2 (p-1)^2 below 2^63.
    return (a % p) @ (b % p) % p


def mat_pow(a: np.ndarray, k: int, p: int) -> np.ndarray:
    n = a.shape[0]
    result = np.eye(n, dtype=np.int64)
    base = a % p
    while k:
        if k & 1:
            result = mat_mul(result, base, p)
        k >>= 1
        if k:
            base = mat_mul(base, base, p)
    return result


def minimal_polynomial(a: np.ndarray, p: int) -> UniPoly:
    """Monic minimal polynomial of a square matrix over F_p.

    The first kernel vector of the columns I, a, ..., a^n belongs to the
    first power that depends on those before it, so it holds the monic
    minimal polynomial's coefficients, in ascending order, and zeros."""
    n = a.shape[0]
    if n == 0:
        raise ZeroInput("empty matrix has no minimal polynomial")
    powers = [np.eye(n, dtype=np.int64)]
    for _ in range(n):
        powers.append(mat_mul(powers[-1], a, p))
    kernel = nullspace(np.stack(powers, axis=-1).reshape(n * n, n + 1), p)
    if not kernel:
        raise InternalCheckFailed("minimal polynomial of degree <= n must exist")
    return UniPoly(p, [int(c) for c in kernel[0]])
