"""Exact linear algebra mod p on numpy int64 matrices.

Entries are kept reduced in [0, p).  Everything here is deterministic:
pivots are chosen first-nonzero top-down, nullspace vectors follow the
free columns in ascending order.

`nullspace` and `rank` eliminate a matrix as its nonzero `Entries`, into
which `_entries` turns a dense one.  First `_peel` takes off row
singletons: a row with one nonzero entry forces its column to 0 in every
kernel vector, so that column is a pivot, and dropping it may leave
other rows with one entry.  What is left, the core, has no row with
one entry, so the connected blocks of its row/column incidence graph
each have several columns or none of its entries; each of the former
gets one dense `rref`, and a column left with no entry is free unless
it was forced.  A matrix whose rows each meet one piece of its columns
is solved in one elimination, and `nullspaces` reads each piece's
kernel from it; the center's graded kernels take several degrees at a
time this way.  Their operators are very sparse: in one pass of the
benchmark's center_oracle jobs the 66 eliminations peel 40 631 of
43 688 columns, and the cores fall apart into 274 blocks of 2380
columns in all, so no dense stack is ever built.  The operators are
linear over the central p-th powers, so the blocks recur with period p
in degree; a block equal to one already eliminated in the same call
takes its result, and only 85 of the 274, with 1105 columns, get an
`rref`.

Many small matrices of one shape are eliminated the other way, as one
(B, R, C) stack in `rref_stack`, in place and vectorised over B;
`rref_kernel` reads each member's kernel with `nullspace`'s own step.
`rref` itself stays a loop over one matrix, over the columns with a
nonzero entry only: routed through `rref_stack`, the 526 `rref` calls
that center_oracle pass once made took about five times as long, and
of their 26 656 columns only 5065 were nonzero.  It now makes 271, on
1734 columns, all of them nonzero.

Polynomials and matrices on a monomial basis meet only here.  A basis
is named by n and a tuple of distinct degrees, the monomials of each
degree in `monomials_of_degree` order, and `_basis` describes each once.
`coeff_matrix` fills a whole array from polynomial terms, looked up in a
dict; `derivation_entries` lists the nonzero entries of the operators
of derivations, one cell per source and group of image terms with a
common shift, and `derivation_matrix` writes them into a dense array;
`multiplication_matrices` fills arrays from exponents alone.  Both find
a monomial's row by `_rank`'s arithmetic on the suffix sums of its
exponents, and `polys` reads the rows of an array back.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from math import comb
from typing import NamedTuple

import numpy as np

from .errors import InternalCheckFailed, ZeroInput
from .fieldpoly import MultiPoly, UniPoly, ff_inv, monomials_of_degree


def coeff_matrix(polys, n: int, degrees: tuple) -> np.ndarray:
    """Column k holds the coefficients of polys[k] on the monomials of
    the given degrees."""
    index = _index(n, degrees)
    m = np.zeros((len(index), len(polys)), dtype=np.int64)
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


def derivation_entries(derivations, n: int, src: tuple, tgt: tuple | None = None) -> Entries:
    """The matrices of the derivations x_j |-> images[j], one per image
    list in `derivations`, from the basis of the degrees `src` into that
    of `tgt`, stacked into one (len(derivations) * |tgt|, |src|) matrix,
    as its nonzero entries in row-major order.  Without `tgt`, the rows
    of each matrix are the target monomials some derivation reaches, so
    that no basis of unreached targets is ever listed.

    delta(x^e) = sum_j e_j x^(e - eps_j) images[j] is summed from the
    products e_j c x^(e - eps_j + f), for c x^f a term of images[j].
    Terms of one derivation with the same shift f - eps_j reach the same
    target from every source, so the few image terms are grouped by
    (derivation, shift) once, and one integer `reduceat` over the
    sources' exponents gives every (source, group) cell.  A nonzero cell
    has e_j >= 1 for one of its terms, so its target is a monomial, and
    `_rank` finds its row from the `_suffixes` of the source plus those
    of the shift.
    """
    exps = _basis(n, src).exps
    # every image term as the row (k, f - eps_j, j, c), sorted: the terms
    # of a group are adjacent, at most one for each j
    terms = sorted((k,) + e[:j] + (e[j] - 1,) + e[j + 1:] + (j, c)
                   for k, images in enumerate(derivations)
                   for j, g in enumerate(images) for e, c in g.terms.items())
    if not terms:
        shape = (len(derivations) * (len(_basis(n, tgt).exps) if tgt else 0), len(exps))
        return Entries(shape, *np.zeros((3, 0), dtype=np.int64))
    p = derivations[0][0].p
    # the first term of each group
    starts = [0] + [i for i in range(1, len(terms)) if terms[i][: n + 1] != terms[i - 1][: n + 1]]
    terms = np.array(terms, dtype=np.int64)
    js, coeffs = terms[:, n + 1], terms[:, n + 2]
    ks, shifts = terms[starts, 0], terms[starts, 1 : n + 1]
    powers = exps.take(js, 1) % p  # e_j of every source, one column per term
    # each cell sums at most n products below p^2: exact in int64
    sums = (np.add.reduceat(powers * coeffs, starts, axis=1) % p).ravel()
    if tgt is None:
        # every target some product reaches is a row, even if its sum is 0
        cells = np.logical_or.reduceat(powers != 0, starts, axis=1).ravel().nonzero()[0]
        s, g = np.divmod(cells, len(starts))
        reached, rows = np.unique(exps[s] + shifts[g], axis=0, return_inverse=True)
        keep = sums[cells].nonzero()[0]
        cells, s, g, rows = cells[keep], s[keep], g[keep], rows.reshape(-1)[keep]
        height = len(reached)
    else:
        # the flat nonzeros of a boolean mask: see `_entries`
        cells = (sums != 0).nonzero()[0]
        s, g = np.divmod(cells, len(starts))
        tgt = _basis(n, tgt)
        rows = _rank(tgt, _suffixes(exps).take(s, 0) + _suffixes(shifts).take(g, 0))
        height = len(tgt.exps)
    flat = (ks * (height * len(exps))).take(g) + rows * len(exps) + s
    order = flat.argsort()  # the keys are distinct: one cell each
    shape = (len(derivations) * height, len(exps))
    return Entries(shape, *np.divmod(flat[order], len(exps)), sums.take(cells[order]))


def derivation_matrix(derivations, n: int, src: tuple, tgt: tuple) -> np.ndarray:
    """`derivation_entries(derivations, n, src, tgt)` written into one
    dense (len(derivations), |tgt|, |src|) array.

    The array is written in full, not left to the lazily zeroed pages of
    np.zeros: numpy asks the kernel for 2 MiB pages on large arrays, so
    the resident size of a sparsely written one would depend on whether
    the machine has such pages free at that moment.
    """
    m = np.full((len(derivations), len(_basis(n, tgt).exps), len(_basis(n, src).exps)), 0,
                dtype=np.int64)
    entries = derivation_entries(derivations, n, src, tgt)
    m.reshape(entries.shape)[entries.rows, entries.cols] = entries.vals
    return m


@lru_cache(maxsize=None)
def multiplication_matrices(n: int, d: int) -> np.ndarray:
    """The n x |A_{d+1}| x |A_d| array whose j-th matrix is f |-> x_j f
    from A_d to A_{d+1}: one row lookup of the shifted sources per j.
    Cached, so read-only: every caller gets the same array."""
    src, tgt = _basis(n, (d,)), _basis(n, (d + 1,))
    m = np.full((n, len(tgt.exps), len(src.exps)), 0, dtype=np.int64)
    for j, shift in enumerate(np.eye(n, dtype=np.int64)):
        m[j, _row_index(tgt, src.exps + shift), np.arange(len(src.exps))] = 1
    m.flags.writeable = False
    return m


class _Basis(NamedTuple):
    """The monomials of some degrees, degree by degree, the same as the
    rows of `exps`, and offset[d], the position of degree d's piece: -1
    for a degree with no piece, and once more past the top degree."""

    monomials: tuple
    exps: np.ndarray
    offset: np.ndarray


@lru_cache(maxsize=None)
def _basis(n: int, degrees: tuple) -> _Basis:
    """The basis of a tuple of distinct degrees.  Cached, so read-only."""
    pieces = [monomials_of_degree(n, d) for d in degrees]
    if len(degrees) == 1:
        monomials, exps = pieces[0], np.array(pieces[0], dtype=np.int64).reshape(-1, n)
    else:
        monomials = tuple(chain.from_iterable(pieces))
        exps = np.concatenate([np.zeros((0, n), dtype=np.int64)]
                              + [_basis(n, (d,)).exps for d in degrees])
    offset = np.full(max(degrees, default=-1) + 2, -1)
    offset[list(degrees)] = np.cumsum([0] + [len(piece) for piece in pieces[:-1]])
    exps.flags.writeable = offset.flags.writeable = False
    return _Basis(monomials, exps, offset)


@lru_cache(maxsize=None)
def _index(n: int, degrees: tuple) -> dict:
    """The position of each monomial of `_basis(n, degrees)`, built only
    for the bases `coeff_matrix` reads.  Cached."""
    return {e: r for r, e in enumerate(_basis(n, degrees).monomials)}


@lru_cache(maxsize=None)
def _rank_table(n: int, top: int) -> np.ndarray:
    """t[k, s] = C(s + k, k + 1), the monomials of degree below s in
    k + 1 variables, for k < n - 1 and s <= top.  Cached, so read-only."""
    table = np.array([[comb(s + k, k + 1) for s in range(top + 1)] for k in range(n - 1)],
                     dtype=np.int64).reshape(n - 1, top + 1)
    table.flags.writeable = False
    return table


def _row_index(basis: _Basis, exps: np.ndarray) -> np.ndarray:
    """Position in `basis` of each row of `exps`: `_rank` of its suffix
    sums."""
    if exps.size and exps.min() < 0:
        raise KeyError(tuple(int(x) for x in exps[(exps < 0).any(axis=1).argmax()]))
    return _rank(basis, _suffixes(exps))


def _suffixes(exps: np.ndarray) -> np.ndarray:
    """Column k: the exponent sum of the last k + 1 variables of each row
    of the (M, n) array `exps`; the last column is the degree.  The sum
    of two exponent rows has the sum of their suffixes."""
    return np.cumsum(exps[:, ::-1], axis=1)


def _rank(basis: _Basis, suffix: np.ndarray) -> np.ndarray:
    """Position in `basis` of the monomials of nonnegative exponents whose
    `_suffixes` are the rows of `suffix`: the offset of its degree's
    piece plus its rank in that piece.  A degree with no piece in `basis`
    raises KeyError, with the monomial's exponents.

    The rank of e in lex-descending order counts, for each variable
    x_j but the last, the monomials that agree with e before x_j and have
    a larger exponent there: those of degree below s in the k + 1
    variables after x_j, e's degree s there, `_rank_table`'s t[k, s].  No
    number passes the size of a piece, so the lookup is exact for any
    number of variables."""
    offset = basis.offset
    # a degree past the table reads the -1 at its end
    rank = offset.take(np.minimum(suffix[:, -1], len(offset) - 1))
    if rank.size and rank.min() < 0:
        bad = suffix[rank.argmin()]
        raise KeyError(tuple(np.diff(bad, prepend=0)[::-1].tolist()))
    for k, counts in enumerate(_rank_table(suffix.shape[1], len(offset) - 2)):
        rank += counts.take(suffix[:, k])
    return rank


def polys(rows, p: int, n: int, degrees: tuple) -> list[MultiPoly]:
    """The polynomials with the coefficients of each row of the (k, C)
    array `rows` on the C monomials of the given degrees, read with one
    pass over its nonzeros."""
    monomials = _basis(n, degrees).monomials
    rows = np.reshape(rows, (len(rows), len(monomials))) % p
    out = [MultiPoly(p, n) for _ in range(len(rows))]
    ks, cs = rows.nonzero()
    for k, c, v in zip(ks.tolist(), cs.tolist(), rows[ks, cs].tolist()):
        out[k].terms[monomials[c]] = v
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
    """Reduced row echelon form mod p; returns (matrix, pivot columns).

    Only the columns with a nonzero entry are visited: a zero column
    stays zero under row operations."""
    m = np.ascontiguousarray(a % p, dtype=np.int64)
    rows = len(m)
    pivots: list[int] = []
    r = 0
    for c in m.any(axis=0).nonzero()[0].tolist():
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


def rref_stack(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """`rref` of every matrix of a (B, R, C) stack at once, in place: the
    writable int64 stack `a` is reduced and returned, with the (B, C)
    mask of its pivot columns.  No copy is made, so a caller that reads
    the stack again passes a copy.

    One pass over the columns, vectorised over the stack, with rref's
    first-nonzero, top-down pivot rule; only the rows with a nonzero in
    the pivot column are updated.  An rref is unique, so member b is
    rref(a[b], p), with its pivot rows first."""
    m = np.remainder(a, p, out=a)
    count, rows, cols = m.shape
    pivots = np.zeros((count, cols), dtype=bool)
    rank = np.zeros(count, dtype=np.int64)  # the next pivot row of each member
    below = np.arange(rows)
    for c in range(cols):
        candidates = (m[:, :, c] != 0) & (below >= rank[:, None])
        bs = candidates.any(axis=1).nonzero()[0]
        if not bs.size:
            continue
        ks, rs = candidates[bs].argmax(axis=1), rank[bs]
        row = m[bs, ks] * _inverses(m[bs, ks, c], p)[:, None] % p
        m[bs, ks] = m[bs, rs]
        m[bs, rs] = row
        col = m[bs, :, c]
        col[np.arange(len(bs)), rs] = 0
        b, r = col.nonzero()
        m[bs[b], r] = (m[bs[b], r] - col[b, r, None] * row[b]) % p
        pivots[bs, c] = True
        rank[bs] += 1
    return m, pivots


def _inverses(v: np.ndarray, p: int) -> np.ndarray:
    """The inverses mod the prime p of the nonzero entries of v < p, as
    v^(p-2); products stay below p^2, as in rref's updates."""
    out, e = np.ones_like(v), p - 2
    while e:
        if e & 1:
            out = out * v % p
        v, e = v * v % p, e >> 1
    return out


def monic_rows(rows: np.ndarray, p: int) -> np.ndarray:
    """The rows of a (k, C) array of entries in [0, p), none of them
    zero, each scaled so that its first nonzero entry is 1: on a basis of one
    degree, whose lex-leading monomials come first, the monic multiples
    of the polynomials the rows hold."""
    lead = rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)]
    return rows * _inverses(lead, p)[:, None] % p


def rref_kernel(m: np.ndarray, pivots: np.ndarray, p: int) -> np.ndarray:
    """The basis `nullspace` gives of a matrix, one vector per row, from
    its rref m and the mask of its pivot columns (a `rref_stack` member)."""
    pcs, fcs = pivots.nonzero()[0], (~pivots).nonzero()[0]
    return _kernel_basis(~pivots, [(fcs, pcs, m[: len(pcs), fcs])], p)


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


def _peel(a: Entries) -> tuple[np.ndarray, Entries]:
    """Row singletons: a row whose only nonzero entry is in column c
    forces x_c = 0 in every kernel vector, so c is a pivot.  Its entries
    are dropped, which may leave further rows with one entry; repeated
    until none has.  Returns the mask of the forced columns and the
    remaining entries (the core).

    The first round counts the entries of every row; most small kernels
    end there, with no row of one entry, or after counting the entries
    it leaves once more.  If that leaves a row with one, those entries
    are grouped by column once, and every row keeps the count and the
    column sum of its live entries, so a row with one names its column;
    each later round reads only the entries of the columns it forces,
    and takes the next singletons from the rows it touched.  So the peel
    is linear in the entries, however many rounds it takes."""
    forced = np.zeros(a.shape[1], dtype=bool)
    first = (np.bincount(a.rows, minlength=a.shape[0])[a.rows] == 1).nonzero()[0]
    if not len(first):
        return forced, a
    forced[a.cols[first]] = True
    live = ~forced[a.cols]
    rows, cols = a.rows[live], a.cols[live]
    count = np.bincount(rows, minlength=a.shape[0])
    single = (count == 1).nonzero()[0]
    if len(single):
        # a row's column sum is below 2^53, so exact in float64
        colsum = np.bincount(rows, weights=cols, minlength=a.shape[0]).astype(np.int64)
        # the live entries grouped by column: a radix sort when the
        # columns fit in 16 bits
        order = cols.astype(np.min_scalar_type(a.shape[1])).argsort(kind="stable")
        by_col, col_of = rows[order], cols[order]
        width = np.bincount(cols, minlength=a.shape[1])
        ends = width.cumsum()
        owner = np.empty(a.shape[1], dtype=np.int64)
        while len(single):
            # the columns the singletons name, each once: the one position
            # whose write of a column lands keeps it
            cs = colsum[single]
            at = np.arange(len(cs))
            owner[cs] = at
            cs = cs[owner[cs] == at]
            forced[cs] = True
            lengths = width[cs]
            total = lengths.cumsum()
            # the entries of each c in cs, at ends[c] - width[c] .. ends[c]
            pos = np.arange(total[-1]) + np.repeat(ends[cs] - total, lengths)
            touched = by_col[pos]
            np.subtract.at(count, touched, 1)
            np.subtract.at(colsum, touched, col_of[pos])
            single = touched[count[touched] == 1]  # a row touched twice may come twice
        live = ~forced[a.cols]
    return forced, Entries(a.shape, a.rows[live], a.cols[live], a.vals[live])


def _eliminate(a, p: int):
    """One rref per block of several columns of the core of a (a dense
    matrix or its nonzero `Entries`) that `_peel` leaves.  Returns the
    mask of the free columns, and for each such block its free columns,
    its pivot columns and the rows of its rref that express the free
    columns in the pivot columns.

    The kernel of a is that of the core with the forced coordinates 0,
    so a forced column is a pivot of a's own rref too (a free column has
    a kernel vector that is 1 there), and the free columns and their
    vectors are a's own.

    A block equal to one already eliminated in this call reuses its
    result: an rref is unique.  The center's operators are linear over
    the p-th powers, which are central, so their blocks recur with
    period p in degree."""
    if not isinstance(a, Entries):
        a = _entries(a, p)
    forced, a = _peel(a)
    zero, blocks = _blocks(a)
    free = zero & ~forced
    solved, seen = [], {}
    for (rs, cs), sub in zip(blocks, _block_matrices(a, blocks)):
        key = (sub.shape, sub.tobytes())
        if key not in seen:
            m, pivots = rref(sub, p)
            own = np.ones(len(cs), dtype=bool)
            own[pivots] = False
            seen[key] = own, pivots, m[: len(pivots), own]
        own, pivots, coeffs = seen[key]
        free[cs[own]] = True
        solved.append((cs[own], cs[pivots], coeffs))
    return free, solved


def rank(a, p: int) -> int:
    """Rank of a, dense or as `Entries`: its columns less its free ones."""
    return a.shape[1] - int(np.count_nonzero(_eliminate(a, p)[0]))


def nullspace(a, p: int) -> list[np.ndarray]:
    """Basis of the right nullspace of a, a dense matrix or its nonzero
    `Entries`, one vector per free column: `nullspaces` with one piece."""
    return list(next(nullspaces(a, p, [a.shape[1]])))


def nullspaces(a, p: int, widths):
    """The `nullspace` of each piece of a's columns, of the given widths,
    in turn, as an array of rows, when no row of a meets two pieces.

    Every kernel vector is 0 on the columns `_peel` forces, and up to a
    permutation the core is block diagonal, so the pivot columns are the
    forced ones and those of its blocks, and the vector of a free column,
    its unique expression in the pivot columns, lies in that column's
    block, and so in its piece: each basis is the one a single rref of
    the piece would give, vector for vector.  Only one piece's basis is
    dense at a time.
    """
    free, solved = _eliminate(a, p)
    start = 0
    for width in widths:
        end = start + width
        # each block lies in one piece: that of its first pivot column
        own = [(fcs - start, pcs - start, coeffs)
               for fcs, pcs, coeffs in solved if start <= pcs[0] < end]
        yield _kernel_basis(free[start:end], own, p)
        start = end


def _kernel_basis(free, solved, p: int) -> np.ndarray:
    """One row per column of the mask `free`: 1 there, and minus its
    expression in the pivot columns, as `_eliminate` lists them."""
    free_cols = free.nonzero()[0]
    basis = np.zeros((len(free_cols), len(free)), dtype=np.int64)
    basis[np.arange(len(free_cols)), free_cols] = 1
    for fcs, pcs, coeffs in solved:
        basis[np.searchsorted(free_cols, fcs)[:, None], pcs] = -coeffs.T % p
    return basis


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
