"""Poisson normal elements, log-ozone derivations, and the log-ozone group.

The group search is degree-bounded: it finds every monic homogeneous
normal element of total degree <= dmax and closes the resulting set of
derivations under addition.  The reported group is therefore a verified
subgroup (a lower bound) of the full log-ozone group; no completeness
claim is made beyond the search bound.
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
    rank_over_subring,
    skew_monoid,
)
from .deriv import Derivation
from .errors import (
    ArityMismatch,
    InternalCheckFailed,
    Limits,
    NotGraded,
    NotGradedDegreeZero,
    NotNormal,
    ZeroElement,
)
from .fieldpoly import (
    MultiPoly,
    divides,
    iter_projective_vectors,
    monomials_of_degree,
    monomials_upto_degree,
    squarefree,
)
from .linalg import derivation_matrix
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


def _scan_direct(struct, d, homogeneous, limits):
    p, n = struct.p, struct.n
    basis = (
        monomials_of_degree(n, d) if homogeneous else monomials_upto_degree(n, d)
    )
    count = (p ** len(basis) - 1) // (p - 1)
    limits.check("candidates", count, f"candidates at degree {d}")
    found = []
    for coeffs in iter_projective_vectors(p, len(basis)):
        f = MultiPoly(p, n, {e: c for e, c in zip(basis, coeffs) if c})
        if not homogeneous and f.is_constant():
            continue
        images = _log_images(struct, f)
        if images is not None:
            found.append((f.monic(), Derivation(p, n, images)))
    return found


# entries per stacked elimination in the eigenspace scan (4 MiB of
# int64; a few copies are live at once), so that its memory grows
# neither with the number of candidates nor with the matrices' shape
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


def _scan_eigenspaces(struct, d, pder0, limits):
    """Union over candidate degree-0 derivations delta of the solution
    spaces of {x_i, f} = delta(x_i) f on the degree-d component, delta
    ranging over the span of the (k, n, n) array `pder0`.

    Every monic homogeneous normal element arises this way, since its
    log-ozone derivation is a degree-0 Poisson derivation; conversely a
    nonzero solution f is normal by the Leibniz rule.  Same answer as
    the direct candidate scan, usually far cheaper.

    Block i of the system depends only on row i of delta's matrix, so it
    is eliminated once per row value; a row value whose block has a
    pivot in every column rules delta out, and only the remaining
    candidates get the full system.  The blocks of all n rows have one
    shape, so all rows' values are eliminated as one stack, and the
    survivors' systems as another, each up to `_STACK_ENTRIES` entries
    at a time.  The monic elements of the survivors' kernels count
    against the candidate limit before any is built.
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
    values = np.concatenate([linalg.span(m[: len(cols)], p) for m, cols in reduced])
    starts = np.cumsum([0] + [p ** len(cols) for _, cols in reduced])
    dead = np.zeros(len(values), dtype=bool)
    for part in _chunks(len(values), brackets.shape[1:]):
        # minus the multiplication by each value's linear form, and each
        # row's bracket block added into its values' slice, in place
        blocks = np.tensordot(values[part], mults, 1)
        np.negative(blocks, out=blocks)
        for i in range(n):
            lo, hi = max(starts[i], part.start), min(starts[i + 1], part.stop)
            if lo < hi:
                blocks[lo - part.start : hi - part.start] += brackets[i]
        dead[part] = linalg.rref_stack(blocks, p)[1].all(axis=1)
    # candidate g is the coefficient vector _digits(g) of itertools.product
    # order; p^k passed the cap (10^7 by default), so k*(p-1)^2 and the
    # row codes (< p^rank <= p^k) are far below 2^63.  Each alive
    # candidate's code is read off its digits, a chunk at a time
    alive = np.ones(p**k, dtype=bool)
    for i, (_, cols) in enumerate(reduced):
        weights = p ** np.arange(len(cols) - 1, -1, -1)
        row_dead = dead[starts[i] : starts[i + 1]]
        for start in range(0, p**k, _FILTER_CANDIDATES):
            g = start + np.flatnonzero(alive[start : start + _FILTER_CANDIDATES])
            alive[g] = ~row_dead[_digits(g, p, k) @ rows[i][:, cols] % p @ weights]
    found = []
    elements = 0
    survivors = np.flatnonzero(alive)
    for part in _chunks(len(survivors), brackets.shape):
        D = np.tensordot(_digits(survivors[part], p, k), pder0, 1) % p
        systems = brackets - np.tensordot(D, mults, 1)  # [b, i]: block i of D[b]
        m, pivots = linalg.rref_stack(systems.reshape(len(D), -1, brackets.shape[2]), p)
        for b in (~pivots.all(axis=1)).nonzero()[0]:
            kernel = linalg.rref_kernel(m[b], pivots[b], p)
            elements += (p ** len(kernel) - 1) // (p - 1)
            limits.check("candidates", elements, f"normal elements at degree {d}")
            delta = Derivation.from_matrix(p, D[b])
            combos = np.array(list(iter_projective_vectors(p, len(kernel))), dtype=np.int64)
            found.extend((f.monic(), delta)
                         for f in linalg.polys(combos @ kernel % p, p, n, (d,)))
    return found


def enumerate_normal(
    struct: PoissonStructure, dmax: int, limits: Limits = Limits()
) -> list[tuple[MultiPoly, Derivation]]:
    """All monic normal elements up to total degree dmax with their
    log-ozone derivations, in a deterministic order.

    Graded structures are scanned degree by degree over homogeneous
    candidates, once every degree's width has passed `degree_widths`;
    otherwise the whole filtration (constant terms allowed) is scanned.
    """
    p = struct.p
    found: list[tuple[MultiPoly, Derivation]] = []
    if struct.graded:
        widths = degree_widths(struct.n, dmax, limits)
        pder0 = pder0_matrix_space(struct)
        for d in range(1, dmax + 1):
            direct_cost = (p ** widths[d] - 1) // (p - 1)
            # costs in units of one direct test (24-54 us at p=5, n=3).  A
            # row value costs about a third of one in a degree's stack of
            # 135-255 (7-17 us) and up to about one and a half in stacks
            # of 15-55 (12-63 us); it is counted as one, since stacks that
            # small mean at most 55 row values, which can only tip the
            # choice where the direct scan is a few hundred tests at most.
            # The pass over the p^k candidates costs 0.18 us per
            # candidate (k=9), one direct test per 150-300 candidates; it
            # is counted as one per 100.
            eig_cost = struct.n * p ** min(len(pder0), struct.n) + p**len(pder0) // 100
            if direct_cost <= eig_cost or p ** len(pder0) > limits.candidates:
                batch = _scan_direct(struct, d, True, limits)
            else:
                batch = _scan_eigenspaces(struct, d, pder0, limits)
                # checked in MultiPoly, not linalg, and against delta itself
                for f, delta in batch:
                    if any(struct.bracket_with_gen(i, f) != delta.images[i] * f
                           for i in range(struct.n)):
                        raise InternalCheckFailed(
                            f"eigenspace scan paired {f} with a derivation not its own"
                        )
            found.extend(batch)
    else:
        limits.check("columns", comb(dmax + struct.n, struct.n), "filtration columns")
        found.extend(_scan_direct(struct, dmax, False, limits))
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
    so closing under addition stays inside the true log-ozone group."""
    if not struct.graded:
        raise NotGraded("the log-ozone group search requires a graded structure")
    p, n = struct.p, struct.n
    pairs = enumerate_normal(struct, dmax, limits)

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
        raise NotGradedDegreeZero("predicates need a graded structure")
    for delta, _ in group.basis:
        if not delta.is_graded_degree_zero():
            raise NotGradedDegreeZero("group contains a non-degree-0 derivation")
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
        if len(pairs) < 2:
            continue
        kernel = linalg.nullspace(cols, p)
        if not kernel:
            continue
        # the pairs come block by block, so per_block is in block order
        per_block: dict[int, MultiPoly] = {}
        for c, (bi, z) in zip(kernel[0], pairs):
            per_block[bi] = per_block.get(bi, MultiPoly.zero(p, n)) + z * int(c)
        terms = [(zsum, *blocks[bi]) for bi, zsum in per_block.items() if not zsum.is_zero]
        if len(terms) < 2:
            continue
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
