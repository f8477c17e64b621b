"""Poisson normal elements, log-ozone derivations, and the log-ozone group.

The group search is degree-bounded: it finds the least monic
homogeneous normal element of each log-ozone derivation met up to total
degree dmax and closes those derivations under addition.  The reported
group is therefore a verified subgroup (a lower bound) of the full
log-ozone group; no completeness claim is made beyond the search bound.

Every log-ozone derivation kills the center: for f normal and z
central, delta_f(z) f = {z, f} = 0, and A is a domain.  So the search
ranges only over the degree-0 Poisson derivations that kill the central
elements the structure's provenance names (`_center_killing`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, prod
from typing import Optional

import numpy as np

from . import linalg
from .center import (
    UNSTABLE_RANK_NOTE,
    CenterReport,
    bracket_matrices,
    center_oracle,
    degree_widths,
    graded_kernel_basis,
    graded_products,
    is_central,
    rank_over_subring,
    skew_monoid,
)
from .deriv import Derivation
from .errors import (
    ArityMismatch,
    InternalCheckFailed,
    Limits,
    NotGraded,
    NotNormal,
    ZeroElement,
)
from .fieldpoly import (
    MultiPoly,
    divides,
    iter_projective_vectors,
    monomials_upto_degree,
    squarefree,
)
from .linalg import coeff_matrix, derivation_matrix
from .structure import PoissonStructure


def _log_images(struct: PoissonStructure, f: MultiPoly) -> Optional[list[MultiPoly]]:
    """The quotients {x_i, f} / f, or None if f does not divide them all."""
    images = []
    for i in range(struct.n):
        g = struct.bracket_with_gen(i, f)
        q = MultiPoly.zero(struct.p, struct.n) if g.is_zero else divides(f, g)
        if q is None:
            return None
        images.append(q)
    return images


def is_poisson_normal(struct: PoissonStructure, f: MultiPoly) -> bool:
    """True iff f divides {x_i, f} for every generator.

    Sufficient for normality against all of A because a |-> {a, f} is a
    derivation.
    """
    if f.is_zero:
        raise ZeroElement("normality is defined for nonzero elements")
    return _log_images(struct, f) is not None


def log_ozone_derivation(struct: PoissonStructure, f: MultiPoly) -> Derivation:
    """The derivation a |-> {a, f} / f attached to a normal element."""
    if f.is_zero:
        raise ZeroElement("the zero element has no log-ozone derivation")
    images = _log_images(struct, f)
    if images is None:
        raise NotNormal(f"{f} is not Poisson normal")
    return Derivation(struct.p, struct.n, images)


# ---------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------


@lru_cache(maxsize=None)
def _elementary_matrices(p: int, n: int, degrees: tuple) -> np.ndarray:
    """The matrices on the monomials of the given degrees of the n^2
    derivations E_ab: x_a |-> x_b, in order a*n + b, as one (n^2, C, C)
    array.  Cached, so read-only."""
    units = np.eye(n * n, dtype=np.int64).reshape(-1, n, n)
    images = [Derivation.from_matrix(p, u).images for u in units]
    m = derivation_matrix(images, n, degrees, degrees)
    m.flags.writeable = False
    return m


def pder0_matrix_space(struct: PoissonStructure) -> np.ndarray:
    """Basis of the space of degree-0 Poisson derivations, as one
    (k, n, n) array of matrices.

    Unknowns are the n*n coefficients of x_a |-> sum_b D[a,b] x_b; the
    Poisson-derivation identity on generator pairs is linear in D.  With
    h_ij = {x_i, x_j}, the column of D[a, b] for the pair i < j is
    E_ab(h_ij) - [a == i] h_bj - [a == j] h_ib.
    """
    p, n = struct.p, struct.n
    degrees = tuple(sorted({sum(e) for h in struct.table.values() for e in h.terms}))
    elementary = _elementary_matrices(p, n, degrees)
    # h[i, j] on those degrees: column j of the matrix of ad_i on the linear forms
    h = derivation_matrix([a.images for a in struct.ad], n, (1,), degrees)
    h = h.transpose(0, 2, 1)
    i, j = np.triu_indices(n, 1)
    system = np.einsum("kts,qs->qkt", elementary, h[i, j]).reshape(len(i), n, n, h.shape[2])
    system[np.arange(len(i)), i] -= h[:, j].swapaxes(0, 1)
    system[np.arange(len(i)), j] -= h[i]
    # one block of rows per pair, one row per monomial
    kernel = linalg.nullspace(system.transpose(0, 3, 1, 2).reshape(-1, n * n), p)
    return np.array(kernel, dtype=np.int64).reshape(-1, n, n)


def _provenance_center(struct: PoissonStructure) -> list[MultiPoly]:
    """The central elements the structure's provenance names, each
    confirmed by `is_central`: a potential's Casimir Omega, and for a
    skew matrix c the monomials x^v for a `nullspace` basis of c mod p,
    since {x_i, x^v} = (cv)_i x_i x^v."""
    p, n, prov = struct.p, struct.n, struct.provenance
    if prov.kind == "potential":
        central = [prov.omega]
    elif prov.kind == "skew":
        kernel = linalg.nullspace(np.array(prov.matrix.entries, dtype=np.int64), p)
        central = [MultiPoly.monomial(p, n, v.tolist()) for v in kernel]
    else:
        central = []
    for z in central:
        if not is_central(struct, z):
            raise InternalCheckFailed(f"the provenance names {z} central, but it is not")
    return central


def _center_killing(struct: PoissonStructure, pder0: np.ndarray) -> np.ndarray:
    """A basis of the derivations in the span of the (k, n, n) array
    `pder0` that kill every element of `_provenance_center`, as a
    (k', n, n) array: y @ pder0 for y in the `nullspace` of the matrix
    whose column j stacks delta_j(z) over those z.  Every log-ozone
    derivation is among them: delta_f(z) f = {z, f} = 0 for z central."""
    p, n = struct.p, struct.n
    central = _provenance_center(struct)
    if not central:
        return pder0
    deltas = [Derivation.from_matrix(p, m) for m in pder0]
    # delta(z) has terms in z's degrees only: a potential may add p-th powers
    images = np.concatenate([coeff_matrix([delta(z) for delta in deltas], n,
                                          tuple(sorted({sum(e) for e in z.terms})))
                             for z in central])
    kernel = np.array(linalg.nullspace(images, p), dtype=np.int64).reshape(-1, len(pder0))
    return np.tensordot(kernel, pder0, 1) % p


def _scan_direct(struct, dmax, limits):
    p, n = struct.p, struct.n
    basis = monomials_upto_degree(n, dmax)
    count = (p ** len(basis) - 1) // (p - 1)
    limits.check("candidates", count, f"candidates at degree {dmax}")
    found = []
    for coeffs in iter_projective_vectors(p, len(basis)):
        f = MultiPoly(p, n, {e: c for e, c in zip(basis, coeffs) if c})
        if f.is_constant():
            continue
        images = _log_images(struct, f)
        if images is not None:
            found.append((f.monic(), Derivation(p, n, images)))
    return found


# entries per stack of eliminations or of remainders in either scan (4 MiB
# of int64; a few copies are live at once), so that memory grows neither
# with the number of candidates nor with the matrices' shape
_STACK_ENTRIES = 2**19


# candidates per pass of the eigenspace scan's row filter, so that their
# table of digits (2^12 x k int64) stays small whatever p^k is
_FILTER_CANDIDATES = 2**12


def _chunks(count, shape):
    """Slices of a stack of `count` matrices of `shape`, each of at most
    `_STACK_ENTRIES` entries or of one matrix."""
    size = max(1, _STACK_ENTRIES // max(1, prod(shape)))
    return (slice(s, s + size) for s in range(0, count, size))


def _digits(index, p, k):
    """The base-p digits, most significant first, of flat candidate
    indices: their coefficient vectors in itertools.product order."""
    return np.asarray(index)[..., None] // p ** np.arange(k - 1, -1, -1) % p


def _projective_vectors(p, length, part=slice(None)):
    """The slice `part` of `iter_projective_vectors(p, length)` as one
    array: the vector with its leading 1 at position l is, in base p,
    p^(length-1-l) plus its place among the vectors of that lead."""
    sizes = p ** np.arange(length - 1, -1, -1)
    offsets = np.cumsum(sizes) - sizes
    rows = range((p**length - 1) // (p - 1))[part]
    index = np.arange(rows.start, rows.stop)
    lead = np.searchsorted(offsets, index, side="right") - 1
    return _digits(index - offsets[lead] + sizes[lead], p, length)


def _scan_division(struct, d, limits):
    """The monic normal elements of degree d with their log-ozone
    derivations, by poly_divmod of a stack of candidates' brackets by them.
    A candidate f has coefficient 1 on its lex-leading monomial m, and
    x_1 m > ... > x_n m lead the x_j f: so {x_i, f} = sum_j q_ij x_j f iff,
    taking q_ij x_j f off for j = 1..n in turn, q_ij is the coefficient of
    x_j m in what is left and nothing is left at the end.

    Returns the elements' coefficient rows on the monomials of degree d
    and their derivations' matrices, in candidate order (see `_pairs`)."""
    p, n = struct.p, struct.n
    count = (p ** comb(d + n - 1, n - 1) - 1) // (p - 1)
    limits.check("candidates", count, f"candidates at degree {d}")
    brackets = bracket_matrices(struct, d)
    # shift[j, c]: the row of x_j times monomial c among those of degree d + 1
    shift = linalg.multiplication_matrices(n, d).argmax(axis=1)
    rows = [np.zeros((0, brackets.shape[2]), dtype=np.int64)]
    mats = [np.zeros((0, n, n), dtype=np.int64)]
    for part in _chunks(count, brackets.shape[:2]):
        f = _projective_vectors(p, brackets.shape[2], part)
        lead, stack = (f != 0).argmax(axis=1), np.arange(len(f))
        rem = np.tensordot(f, brackets, (1, 2)) % p  # rem[:, i]: {x_i, f}
        q = np.empty((len(f), n, n), dtype=np.int64)
        for j in range(n):
            q[:, :, j] = rem[stack, :, shift[j, lead]] % p
            rem[:, :, shift[j]] -= q[:, :, j, None] * f[:, None, :]
        normal = ~(rem % p).any(axis=(1, 2))
        rows.append(f[normal])
        mats.append(q[normal])
    return np.concatenate(rows), np.concatenate(mats)


def _scan_eigenspaces(struct, d, pder0, limits):
    """Union over candidate degree-0 derivations delta of the solution
    spaces of {x_i, f} = delta(x_i) f on the degree-d component, delta
    ranging over the span of the (k, n, n) array `pder0`.

    Every monic homogeneous normal element arises this way when the
    span holds its log-ozone derivation, as that of `pder0_matrix_space`
    does, and so does the part of it `_center_killing` leaves; conversely
    a nonzero solution f is normal by the Leibniz rule.  Same answer as
    `_scan_division`, cheaper when p^k is small against the candidates.

    Block i of the system depends only on row i of delta's matrix, so it
    is eliminated once per row value; a row value whose block has a
    pivot in every column rules delta out.  The blocks of all n rows
    have one shape, so all rows' values are eliminated as one stack, up
    to `_STACK_ENTRIES` entries at a time, and the kernel K of each live
    row-0 value is kept.  A surviving delta's solutions are then yK for
    the y in the kernel of its other n - 1 blocks times K^T, a
    ((n - 1) |A_{d+1}| x dim K) matrix: the survivors' matrices are
    eliminated as one stack per chunk of survivors, in candidate order.
    With K in `nullspace` form, yK is too (see `_survivor_kernels`).
    The monic elements of the survivors' kernels count against the
    candidate limit before any is built; each chunk's are made monic in
    numpy.  Returns the elements' coefficient rows on the monomials of
    degree d and their derivations' matrices, in candidate order (see
    `_pairs`).
    """
    p, n = struct.p, struct.n
    k = len(pder0)
    limits.check("candidates", p**k, f"derivation candidates at degree {d}")
    brackets = bracket_matrices(struct, d)
    mults = linalg.multiplication_matrices(n, d)
    # a row value v is v[cols] @ reduced, so v[cols] read in base p is its
    # index in its row's span; the spans of rows 0..n-1 follow each other
    # in `values`, row i's from starts[i] on
    rows = pder0.transpose(1, 0, 2)  # rows[i]: row i of every basis derivation
    reduced = [linalg.rref(r, p) for r in rows]
    weights = [p ** np.arange(len(cols) - 1, -1, -1) for _, cols in reduced]
    values = np.concatenate([linalg.span(m[: len(cols)], p) for m, cols in reduced])
    starts = np.cumsum([0] + [p ** len(cols) for _, cols in reduced])
    dead = np.zeros(len(values), dtype=bool)
    # the kernels of the live row-0 values: that of value v is
    # kernels0[slot[v]]; slot 0, an empty kernel, is that of the dead ones
    kernels0 = [np.zeros((0, brackets.shape[2]), dtype=np.int64)]
    slot = np.zeros(starts[1], dtype=np.int64)
    for part in _chunks(len(values), brackets.shape[1:]):
        # minus the multiplication by each value's linear form, and each
        # row's bracket block added into its values' slice, in place
        blocks = np.tensordot(values[part], mults, 1)
        np.negative(blocks, out=blocks)
        for i in range(n):
            lo, hi = max(starts[i], part.start), min(starts[i + 1], part.stop)
            if lo < hi:
                blocks[lo - part.start : hi - part.start] += brackets[i]
        m, pivots = linalg.rref_stack(blocks, p)
        dead[part] = pivots.all(axis=1)
        for v in range(part.start, min(part.stop, starts[1])):
            if not dead[v]:
                slot[v] = len(kernels0)
                kernels0.append(linalg.rref_kernel(m[v - part.start], pivots[v - part.start], p))
    # candidate g is the coefficient vector _digits(g) of itertools.product
    # order; p^k passed the cap (10^7 by default), so k*(p-1)^2 and the
    # row codes (< p^rank <= p^k) are far below 2^63.  Each alive
    # candidate's code is read off its digits, a chunk at a time
    alive = np.ones(p**k, dtype=bool)
    for i, (_, cols) in enumerate(reduced):
        row_dead = dead[starts[i] : starts[i + 1]]
        for start in range(0, p**k, _FILTER_CANDIDATES):
            g = start + np.flatnonzero(alive[start : start + _FILTER_CANDIDATES])
            alive[g] = ~row_dead[_digits(g, p, k) @ rows[i][:, cols] % p @ weights[i]]
    dims0 = np.array([len(kernel) for kernel in kernels0])
    padded0 = np.zeros((len(kernels0), dims0.max(), brackets.shape[2]), dtype=np.int64)
    for s, kernel in enumerate(kernels0):
        padded0[s, : len(kernel)] = kernel
    rows = [np.zeros((0, brackets.shape[2]), dtype=np.int64)]
    mats = [np.zeros((0, n, n), dtype=np.int64)]
    elements = 0
    survivors = np.flatnonzero(alive)
    for part in _chunks(len(survivors), brackets.shape):
        D = np.tensordot(_digits(survivors[part], p, k), pder0, 1) % p
        slots = slot[D[:, 0, reduced[0][1]] @ weights[0]]
        solutions, owners = [], []
        for b, kernel in _survivor_kernels(brackets, mults, D, padded0[slots], dims0[slots], p):
            elements += (p ** len(kernel) - 1) // (p - 1)
            limits.check("candidates", elements, f"normal elements at degree {d}")
            solutions.append(_projective_vectors(p, len(kernel)) @ kernel % p)
            owners += [b] * len(solutions[-1])
        if solutions:
            rows.append(linalg.monic_rows(np.concatenate(solutions), p))
            mats.append(D[owners])
    return np.concatenate(rows), np.concatenate(mats)


def _survivor_kernels(brackets, mults, D, K, dims, p):
    """(b, kernel) for each derivation D[b] of a stack whose system on
    the degree-d component has a nonzero kernel, in stack order: the
    kernel's `nullspace` basis, one vector per row.

    K[b] holds the `nullspace` basis of the kernel of D[b]'s row-0 block
    in its first dims[b] rows, and zero rows below them.  The kernel is
    yK[b] for the y in the kernel of blocks 1..n-1 times K[b]^T, all
    eliminated as one stack.  A zero row of K[b] gives a zero column,
    which stays zero and is no pivot, so the first dims[b] columns of the
    rref are that of D[b]'s own matrix.  In `nullspace` form a basis
    vector ends with a 1 at its free column and is 0 at the other free
    columns; y is, and so are the rows of K[b], so yK[b] is too, with the
    free columns of K[b]'s rows j for y's free j: it is the kernel's
    `nullspace` basis, which is unique."""
    width = dims.max()
    K = K[:, :width]
    systems = brackets[1:] - np.tensordot(D[:, 1:], mults, 1)  # entries in (-p, p)
    # a product sums |A_d| <= Limits.columns terms below p^2, and p^k passed
    # the candidate cap: exact in int64
    stack = (systems @ K.transpose(0, 2, 1)[:, None]).reshape(len(D), -1, width)
    m, pivots = linalg.rref_stack(stack, p)
    own = np.arange(width) < dims[:, None]
    for b in (own & ~pivots).any(axis=1).nonzero()[0]:
        y = linalg.rref_kernel(m[b, :, : dims[b]], pivots[b, : dims[b]], p)
        yield b, y @ K[b, : dims[b]] % p


def _pairs(p, n, d, rows, mats):
    """A graded scan's elements and derivations read back: the
    polynomials with the coefficient rows `rows` on the monomials of
    degree d, each with the derivation of its (n, n) matrix in `mats`,
    built once per distinct matrix."""
    deltas = {}
    pairs = []
    for f, m in zip(linalg.polys(rows, p, n, (d,)), mats):
        key = m.tobytes()
        if key not in deltas:
            deltas[key] = Derivation.from_matrix(p, m)
        pairs.append((f, deltas[key]))
    return pairs


def _least_per_derivation(rows, mats):
    """The indices of the lexicographically least row of each distinct
    matrix: one lexsort by matrix, then row, and the first of each run.
    On monic rows of one degree this is the least `MultiPoly.sort_key`,
    whose `key` lists the terms in the order of the columns, with 0
    below every nonzero value."""
    flat = mats.reshape(len(mats), prod(mats.shape[1:]))
    order = np.lexsort(np.concatenate([flat, rows], axis=1).T[::-1])
    first = np.ones(len(order), dtype=bool)
    first[1:] = (flat[order[1:]] != flat[order[:-1]]).any(axis=1)
    return order[first]


def enumerate_normal(
    struct: PoissonStructure, dmax: int, limits: Limits = Limits(), *,
    per_derivation: bool = False,
) -> list[tuple[MultiPoly, Derivation]]:
    """All monic normal elements up to total degree dmax with their
    log-ozone derivations, in `MultiPoly.sort_key` order.

    Graded structures are scanned degree by degree over homogeneous
    candidates, once every degree's width has passed `degree_widths`;
    otherwise the whole filtration (constant terms allowed) is scanned.
    The eigenspace scan ranges over the degree-0 Poisson derivations
    that kill the central elements the provenance names
    (`_center_killing`), so the candidate cap counts the p^k' left.

    With `per_derivation`, only the least element of each derivation is
    kept: that of lowest degree, then least `sort_key`.  The graded scans
    pick it in numpy, and only the kept elements are read back as
    polynomials.  Every pair returned is checked in `MultiPoly` against
    its own derivation, {x_i, f} = delta(x_i) f; elements not returned
    are never built as polynomials.
    """
    p, n = struct.p, struct.n
    if not struct.graded:
        limits.check("columns", comb(dmax + n, n), "filtration columns")
        found = sorted(_scan_direct(struct, dmax, limits), key=lambda pair: pair[0].sort_key())
        if per_derivation:
            least = {}
            for f, delta in found:
                least.setdefault(delta.key(), (f, delta))
            found = list(least.values())
        return found
    found: list[tuple[MultiPoly, Derivation]] = []
    widths = degree_widths(n, dmax, limits)
    pder0 = None
    kept = set()  # the matrices of the derivations kept, with per_derivation
    # in units of one division candidate (1 us at n=3, degree 2, 2.5-4.7
    # us at degree 3 or n=4): row values cost 2-6 units, counted as 5,
    # and the pass over the p^k candidate derivations 0.11 us each,
    # counted as 1/20.  At p=5, n=3 dividing took 0.15-0.2 ms at degree
    # 1 (the eigenspace scan 0.5-2.6 ms) and 3.8-4.9 ms at degree 2 (0.7-3.4)
    def eigenspace_cost(k):
        return 5 * n * p ** min(k, n) + p**k // 20

    for d in range(1, dmax + 1):
        candidates = (p ** widths[d] - 1) // (p - 1)
        # x_i |-> x_i is a degree-0 Poisson derivation of every quadratic
        # bracket, so pder0_matrix_space has k >= 1: it is built once, and
        # only for a degree that costs more than the eigenspace scan with
        # k = 1, although the span _center_killing leaves may be {0}
        if pder0 is None and candidates > eigenspace_cost(1):
            pder0 = _center_killing(struct, pder0_matrix_space(struct))
        if (pder0 is not None and candidates > eigenspace_cost(len(pder0))
                and p ** len(pder0) <= limits.candidates):
            scan, (rows, mats) = "eigenspace", _scan_eigenspaces(struct, d, pder0, limits)
        else:
            scan, (rows, mats) = "division", _scan_division(struct, d, limits)
        if per_derivation:
            keep = [i for i in _least_per_derivation(rows, mats).tolist()
                    if mats[i].tobytes() not in kept]
            kept.update(mats[i].tobytes() for i in keep)
            rows, mats = rows[keep], mats[keep]
        batch = _pairs(p, n, d, rows, mats)
        # checked in MultiPoly, not linalg, and against delta itself
        for f, delta in batch:
            if any(struct.bracket_with_gen(i, f) != delta.images[i] * f for i in range(n)):
                raise InternalCheckFailed(f"{scan} scan paired {f} with a "
                                          "derivation not its own")
        found.extend(batch)
    found.sort(key=lambda pair: pair[0].sort_key())
    return found


# ---------------------------------------------------------------------
# The group
# ---------------------------------------------------------------------


@dataclass
class LozGroup:
    """Additive closure of the log-ozone derivations found by a bounded
    search; always a genuine subgroup of the full log-ozone group.

    The group is the F_p-span of `basis`, and every question about it is
    answered from the basis; `found` maps the key of each derivation the
    search met to that derivation and its first normal element."""

    p: int
    n: int
    search_bound: int
    basis: list[tuple[Derivation, MultiPoly]]
    found: dict[tuple, tuple[Derivation, MultiPoly]]
    notes: tuple[str, ...] = ()

    @property
    def order(self) -> int:
        return self.p ** len(self.basis)

    def _rows(self) -> np.ndarray:
        """The basis matrices, flattened, one row each."""
        rows = [b.matrix().reshape(-1) for b, _ in self.basis]
        return np.array(rows, dtype=np.int64).reshape(len(rows), self.n**2)

    @property
    def elements(self) -> list[Derivation]:
        """All p^k elements, one per F_p-combination of the basis."""
        return [Derivation.from_matrix(self.p, row.reshape(self.n, self.n))
                for row in linalg.span(self._rows(), self.p)]

    def contains(self, delta: Derivation) -> bool:
        if (delta.p, delta.n) != (self.p, self.n) or not delta.is_graded_degree_zero():
            return False
        return linalg.in_row_space(self._rows(), delta.matrix().reshape(-1), self.p)


def log_ozone_group(
    struct: PoissonStructure, dmax: int, limits: Limits = Limits()
) -> LozGroup:
    """Group generated by the derivations of all normal elements of
    degree <= dmax.  Sums are realized by products of normal elements,
    so closing under addition stays inside the true log-ozone group.

    The search keeps only the least normal element of each derivation
    (`enumerate_normal` with `per_derivation`): `found` maps each
    derivation to that element, the first it would meet in `sort_key`
    order, and each of them is checked against its derivation."""
    if not struct.graded:
        raise NotGraded("the log-ozone group search requires a graded structure")
    p, n = struct.p, struct.n
    pairs = enumerate_normal(struct, dmax, limits, per_derivation=True)

    zero = Derivation.zero(p, n)
    found = {zero.key(): (zero, MultiPoly.const(p, n, 1))}
    for f, delta in pairs:
        found.setdefault(delta.key(), (delta, f))
    met = list(found.values())[1:]  # the nonzero derivations, in the order met
    stack = np.reshape([delta.matrix().reshape(-1) for delta, _ in met], (len(met), n * n))
    # a column is a pivot iff it is independent of the columns before it
    pivots = linalg.rref(stack.T, p)[1]
    return LozGroup(
        p=p,
        n=n,
        search_bound=dmax,
        basis=[met[c] for c in pivots],
        found=found,
        notes=("order is a verified lower bound for the full log-ozone group",),
    )


def c_loz(
    struct: PoissonStructure, group: LozGroup, max_degree: int, limits: Limits = Limits()
) -> CenterReport:
    """Degreewise basis of the joint kernel of every derivation in the
    group; contains the Poisson center degreewise."""
    if not all(delta.is_graded_degree_zero() for delta, _ in group.basis):
        raise ArityMismatch("matrix form needs a graded degree-0 derivation")
    images = [delta.images for delta, _ in group.basis]
    hilbert, graded_basis = graded_kernel_basis(struct.p, struct.n, max_degree, images,
                                                limits)
    return CenterReport(
        engine="loz-kernel",
        generators=[f for d in range(1, max_degree + 1) for f in graded_basis[d]],
        hilbert=hilbert,
        graded_basis=graded_basis,
        notes=("joint kernel of the computed log-ozone group",),
    )


# ---------------------------------------------------------------------
# Structural predicates
# ---------------------------------------------------------------------


def _basis_matrices(struct: PoissonStructure, group: LozGroup) -> np.ndarray:
    """The k x n x n stack of the basis' matrices on the degree-1
    component, checked to commute, as log-ozone derivations do."""
    if not struct.graded:
        raise NotGraded("predicates need a graded structure")
    mats = group._rows().reshape(-1, group.n, group.n)
    # all products B_i B_j at once; entries stay below n (p-1)^2 < 2^63
    products = np.einsum("aij,bjk->abik", mats, mats) % group.p
    if not (products == products.transpose(1, 0, 2, 3)).all():
        raise InternalCheckFailed("the log-ozone basis does not commute")
    return mats


def is_inferable(struct: PoissonStructure, group: LozGroup) -> bool:
    """Every group element acts diagonalizably on the degree-1 component,
    tested over the algebraic closure via a squarefree minimal polynomial.

    Commuting diagonalizable matrices are simultaneously diagonalizable,
    so it suffices that every basis matrix is."""
    mats = _basis_matrices(struct, group)
    return all(squarefree(linalg.minimal_polynomial(b, struct.p)) for b in mats)


def _semisimple_part(b: np.ndarray, p: int) -> np.ndarray:
    """The semisimple (Jordan-Chevalley) part S of b, as b^(p^j) for the
    least j with p^j >= n that is a multiple of the period r of Frobenius
    on b's eigenvalues: the nilpotent part dies once p^j >= n, and
    S^(p^j) = S iff r divides j.  j = lcm(1..n) would do as well, but
    p^lcm(1..n) has over 2 * 10^8 bits at n = 20."""
    x, j = b % p, 0
    while p**j < len(b):
        x, j = linalg.mat_pow(x, p, p), j + 1
    cycle = [x]  # b^(p^j), b^(p^(j+1)), ... until it repeats
    x = linalg.mat_pow(x, p, p)
    while (x != cycle[0]).any():
        cycle.append(x)
        x = linalg.mat_pow(x, p, p)
    return cycle[-j % len(cycle)]


def is_quasi_inferable(struct: PoissonStructure, group: LozGroup) -> bool:
    """No nonzero group element is nilpotent on the degree-1 component.

    The basis commutes, so sum c_i B_i is nilpotent iff the same sum of
    the semisimple parts S_i vanishes: the S_i must be independent."""
    mats = _basis_matrices(struct, group)
    semisimple = [_semisimple_part(b, struct.p).reshape(-1) for b in mats]
    stack = np.array(semisimple).reshape(len(mats), struct.n**2)
    return linalg.rank(stack, struct.p) == len(mats)


@dataclass
class DecompositionRelation:
    """A nontrivial relation sum_i z_i f_i = 0 with central homogeneous
    z_i and representatives f_i of distinct log-ozone derivations."""

    degree: int
    terms: list[tuple[MultiPoly, Derivation, MultiPoly]]

    def total(self) -> MultiPoly:
        acc = None
        for z, _, f in self.terms:
            v = z * f
            acc = v if acc is None else acc + v
        return acc


def _representatives(
    group: LozGroup, max_degree: int
) -> list[tuple[Derivation, MultiPoly]]:
    """Group elements with a normal element of degree <= max_degree
    realizing them, in ascending key order: the element the search found,
    else the product of the basis elements' powers f_i^(c_i)."""
    p, n = group.p, group.n
    vectors = [((), 0)]  # (c_1, ..., c_j) with sum c_i deg f_i <= max_degree
    for _, f in group.basis:
        vectors = [(cs + (c,), d + c * f.degree()) for cs, d in vectors
                   for c in range(p) if d + c * f.degree() <= max_degree]
    reps = dict(group.found)
    rows, one = group._rows(), MultiPoly.const(p, n, 1)
    for cs, _ in vectors:
        matrix = np.array(cs, dtype=np.int64) @ rows % p
        delta = Derivation.from_matrix(p, matrix.reshape(n, n))
        if delta.key() not in reps:
            powers = (g**c for c, (_, g) in zip(cs, group.basis))
            reps[delta.key()] = (delta, prod(powers, start=one))
    return [rep for _, rep in sorted(reps.items()) if rep[1].degree() <= max_degree]


def decomposable_witness(
    struct: PoissonStructure,
    group: LozGroup,
    max_degree: int,
    limits: Limits = Limits(),
) -> Optional[DecompositionRelation]:
    """Bounded search for a witness against loz-decomposability.

    A relation of degree m is a kernel vector of the `graded_products`
    of the representatives with the center's graded basis, read back
    through their pairs.  Returns the first relation found, or None.
    None is NOT a proof of decomposability: the search only sees central
    multipliers and representatives up to max_degree.  A relation needs
    two representatives, so with fewer the center is never computed;
    its degrees are still checked against the column cap first.
    """
    p, n = struct.p, struct.n
    degree_widths(n, max_degree, limits)
    blocks = _representatives(group, max_degree)
    if len(blocks) < 2:
        return None
    center = center_oracle(struct, max_degree, limits)
    for m in range(1, max_degree + 1):
        pairs, cols = graded_products(n, [f for _, f in blocks], center.graded_basis, m)
        kernel = linalg.nullspace(cols, p)
        if not kernel:
            continue
        # the pairs come block by block, so per_block is in block order;
        # a block's z are independent and A is a domain, so each block
        # with a nonzero coefficient has a nonzero sum, and there are two
        per_block: dict[int, MultiPoly] = {}
        for c, (bi, z) in zip(kernel[0], pairs):
            if c:
                per_block[bi] = per_block.get(bi, MultiPoly.zero(p, n)) + z * int(c)
        terms = [(zsum, *blocks[bi]) for bi, zsum in per_block.items()]
        rel = DecompositionRelation(degree=m, terms=terms)
        if not rel.total().is_zero:
            raise InternalCheckFailed("witness relation does not sum to zero")
        return rel
    return None


@dataclass
class MaximalOrderReport:
    """Measured data for the maximal-order characterization of skew
    structures: group order, center rank, and diagonalizability."""

    order: int
    inferable: bool
    is_skew: bool
    rank: str
    rank_exact: bool
    conditions_hold: Optional[bool]
    notes: tuple[str, ...] = ()


def theorem212_check(
    struct: PoissonStructure, dmax: int, max_degree: int, limits: Limits = Limits()
) -> MaximalOrderReport:
    """Measure |loz| (bounded), inferability, and rk_Z(P); for skew
    provenance additionally confirm the expected equivalence.

    Otherwise the rank is the oracle's estimate, and `conditions_hold`
    is None when that estimate is non-integral or may be unstable,
    unless a non-diagonalizable group element already makes it False.
    Raises NotGraded, from the group search, on non-graded input.
    """
    group = log_ozone_group(struct, dmax, limits)
    inferable = is_inferable(struct, group)
    skew = struct.provenance.matrix
    if skew is not None:
        rank = Fraction(struct.p**struct.n, len(skew_monoid(skew, limits).B))
        rank_notes: tuple[str, ...] = ()
        conditions = group.order == rank and inferable
    else:
        center = center_oracle(struct, max_degree, limits)
        rank, rank_notes = rank_over_subring(
            struct.p, struct.n, center.graded_basis, max_degree
        )
        if not inferable:
            conditions = False
        elif rank.denominator != 1 or UNSTABLE_RANK_NOTE in rank_notes:
            # an unsettled rank estimate decides nothing
            conditions = None
        else:
            conditions = group.order == rank
    return MaximalOrderReport(
        order=group.order,
        inferable=inferable,
        is_skew=skew is not None,
        rank=str(rank),
        rank_exact=rank.denominator == 1,
        conditions_hold=conditions,
        notes=group.notes + rank_notes,
    )
