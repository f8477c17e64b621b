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
from math import prod
from typing import Optional

import numpy as np

from . import linalg
from .center import (
    UNSTABLE_RANK_NOTE,
    CenterReport,
    bracket_matrices,
    center_oracle,
    graded_kernel,
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
from .linalg import coeff_matrix, derivation_matrix, vec_to_poly
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
def _elementary_matrices(p: int, n: int, degrees: tuple) -> tuple[tuple, np.ndarray]:
    """The monomials `src` of the given degrees, and the matrices on
    span(src) of the n^2 derivations E_ab: x_a |-> x_b, in order a*n + b,
    as one (n^2, |src|, |src|) array.  Cached, so read-only."""
    src = tuple(e for d in degrees for e in monomials_of_degree(n, d))
    units = np.eye(n * n, dtype=np.int64).reshape(-1, n, n)
    m = derivation_matrix([Derivation.from_matrix(p, u).images for u in units], src, src)
    m.flags.writeable = False
    return src, m


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
    src, elementary = _elementary_matrices(p, n, degrees)
    # h[i, j] on src: column j of the matrix of ad_i on the linear forms
    h = derivation_matrix([a.images for a in struct.ad], monomials_of_degree(n, 1), src)
    h = h.transpose(0, 2, 1)
    i, j = np.triu_indices(n, 1)
    system = np.einsum("kts,qs->qkt", elementary, h[i, j]).reshape(len(i), n, n, len(src))
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


def _block(brackets, mults, rows, p):
    """The system B_i - sum_j rows[i, j] M_j of a delta with matrix `rows`,
    its blocks stacked in order of i; given B_i and row i alone, block i."""
    return ((brackets - np.tensordot(rows, mults, 1)) % p).reshape(-1, mults.shape[-1])


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

    Block i depends only on row i of delta's matrix, so its kernel is
    taken once per row value; a zero block kernel rules delta out, and
    only the remaining candidates get the full solve.  The monic
    elements of the survivors' kernels count against the candidate limit
    before any is built.
    """
    p, n = struct.p, struct.n
    k = len(pder0)
    limits.check("candidates", p**k, f"derivation candidates at degree {d}")
    src = monomials_of_degree(n, d)
    brackets = bracket_matrices(struct, d)
    mults = linalg.multiplication_matrices(n, d)
    # candidate g is the coefficient vector _digits(g) of itertools.product
    # order; p^k passed the cap (10^7 by default), so k*(p-1)^2 and the
    # row codes (< p^k) are far below 2^63
    alive = np.ones(p**k, dtype=bool)
    for i in range(n):
        rows = pder0[:, i, :]  # row i of every basis derivation
        cols = linalg.rref(rows, p)[1]  # a row value is fixed by these entries
        codes = linalg.span(rows[:, cols], p) @ p ** np.arange(len(cols))
        _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
        dead = [u for u, row in enumerate(_digits(first, p, k) @ rows % p)
                if not linalg.nullspace(_block(brackets[i], mults, row, p), p)]
        alive &= ~np.isin(inverse, dead)
    found = []
    elements = 0
    for g in np.flatnonzero(alive):
        D = np.tensordot(_digits(g, p, k), pder0, 1) % p
        kernel = linalg.nullspace(_block(brackets, mults, D, p), p)
        if not kernel:
            continue
        elements += (p ** len(kernel) - 1) // (p - 1)
        limits.check("candidates", elements, f"normal elements at degree {d}")
        delta = Derivation.from_matrix(p, D)
        kmat = np.stack(kernel)
        for combo in iter_projective_vectors(p, len(kernel)):
            f = vec_to_poly(np.array(combo) @ kmat % p, p, n, src).monic()
            found.append((f, delta))
    return found


def enumerate_normal(
    struct: PoissonStructure, dmax: int, limits: Limits = Limits()
) -> list[tuple[MultiPoly, Derivation]]:
    """All monic normal elements up to total degree dmax with their
    log-ozone derivations, in a deterministic order.

    Graded structures are scanned degree by degree over homogeneous
    candidates; otherwise the whole filtration (constant terms allowed)
    is scanned.
    """
    p = struct.p
    found: list[tuple[MultiPoly, Derivation]] = []
    if struct.graded:
        pder0 = pder0_matrix_space(struct)
        for d in range(1, dmax + 1):
            n_monos = len(monomials_of_degree(struct.n, d))
            direct_cost = (p**n_monos - 1) // (p - 1)
            # per candidate, the row filter costs about 1/100 of a direct test
            eig_cost = struct.n * p ** min(len(pder0), struct.n) + p**len(pder0) // 100
            if direct_cost <= eig_cost or p ** len(pder0) > limits.candidates:
                batch = _scan_direct(struct, d, True, limits)
            else:
                batch = _scan_eigenspaces(struct, d, pder0, limits)
                for f, delta in batch:
                    if not is_poisson_normal(struct, f):
                        raise InternalCheckFailed(
                            f"eigenspace scan produced a non-normal element {f}"
                        )
            found.extend(batch)
    else:
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
    hilbert, graded_basis = graded_kernel(struct.p, struct.n, max_degree, images, limits)
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

    Returns the first relation found, or None.  None is NOT a proof of
    decomposability: the search only sees central multipliers and
    representatives up to max_degree.
    """
    p, n = struct.p, struct.n
    center = center_oracle(struct, max_degree, limits)
    blocks = _representatives(group, max_degree)
    for m in range(1, max_degree + 1):
        col_info = [(bi, z) for bi, (_, f) in enumerate(blocks)
                    for z in center.graded_basis.get(m - f.degree(), [])]
        cols = [z * blocks[bi][1] for bi, z in col_info]
        if len(cols) < 2:
            continue
        kernel = linalg.nullspace(coeff_matrix(cols, monomials_of_degree(n, m)), p)
        if not kernel:
            continue
        vec = kernel[0]
        per_block: dict[int, MultiPoly] = {}
        for c, (bi, z) in zip(vec, col_info):
            c = int(c) % p
            if c:
                per_block[bi] = per_block.get(bi, MultiPoly.zero(p, n)) + z * c
        terms = [
            (zsum, blocks[bi][0], blocks[bi][1])
            for bi, zsum in sorted(per_block.items())
            if not zsum.is_zero
        ]
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
