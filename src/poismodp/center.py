"""Poisson centers: the monoid/lattice engine for skew structures and a
brute-force graded-kernel oracle, plus Gorenstein decision procedures.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional

import numpy as np

from . import linalg
from .errors import (
    InternalCheckFailed,
    Limits,
    PoisError,
    SmallCharacteristic,
    WrongArity,
)
from .fieldpoly import MultiPoly, monomials_of_degree, monomials_upto_degree
from .linalg import coeff_matrix, derivation_entries, derivation_matrix, vec_to_poly
from .structure import PoissonStructure, SkewMatrix, from_skew_matrix

# ---------------------------------------------------------------------
# Operator matrices on graded pieces
# ---------------------------------------------------------------------


def bracket_matrices(struct: PoissonStructure, d: int) -> np.ndarray:
    """For graded structures: the n x |A_{d+1}| x |A_d| array whose i-th
    matrix is f |-> {x_i, f} from A_d to A_{d+1}."""
    n = struct.n
    return derivation_matrix([a.images for a in struct.ad],
                             monomials_of_degree(n, d), monomials_of_degree(n, d + 1))


# ---------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------


@dataclass
class CenterReport:
    """Result of a center computation (either engine)."""

    engine: str
    generators: list[MultiPoly]
    hilbert: list[int]
    graded_basis: Optional[dict[int, list[MultiPoly]]] = None
    gorenstein: Optional[bool] = None
    witness: Optional[tuple[int, ...]] = None
    box: Optional[list[tuple[int, ...]]] = None
    nonzero_indices: Optional[list[int]] = None
    rank: Optional[str] = None
    numerator: Optional[list[int]] = None
    numerator_palindromic: Optional[bool] = None
    notes: tuple[str, ...] = ()


@dataclass
class MonoidData:
    """Lattice data for the center of a skew-symmetric structure.

    B holds one representative in [0, p)^n for each class of central
    monomial exponents; the full exponent monoid is the disjoint union
    of the translates b + (pN)^n.
    """

    c: SkewMatrix
    B: list[tuple[int, ...]]
    I: list[int]
    J: list[int]
    u: tuple[int, ...]

    @property
    def p(self) -> int:
        return self.c.p

    @property
    def n(self) -> int:
        return self.c.n

    def contains(self, v) -> bool:
        """Membership of v (mod p) in the exponent monoid."""
        c = self.c
        return all(
            sum(c[i, j] * v[j] for j in range(c.n)) % c.p == 0 for i in range(c.n)
        )


# ---------------------------------------------------------------------
# Monoid engine
# ---------------------------------------------------------------------


def skew_monoid(c: SkewMatrix, limits: Limits = Limits()) -> MonoidData:
    """Kernel of c over F_p, box representatives, and the I/J index split."""
    p, n = c.p, c.n
    mat = np.array(c.entries, dtype=np.int64) % p
    kern = linalg.nullspace(mat, p)
    limits.check("kernel", p ** len(kern), "kernel vectors")
    box = linalg.span(np.reshape(kern, (len(kern), n)), p)
    B = sorted(set(map(tuple, box.tolist())))
    I = sorted({i for b in B for i in range(n) if b[i] != 0})
    J = [j for j in range(n) if j not in I]
    u = tuple(1 if i in I else 0 for i in range(n))
    return MonoidData(c=c, B=B, I=I, J=J, u=u)


def center_generators_skew(m: MonoidData, max_degree: Optional[int] = None) -> CenterReport:
    """Generators {x_i^p} plus the box monomials; not claimed minimal.

    Every emitted generator is re-verified central against the bracket.
    """
    p, n = m.p, m.n
    struct = from_skew_matrix(m.c)
    gens = [x**p for x in MultiPoly.gens(p, n)]
    gens += [MultiPoly.monomial(p, n, b) for b in m.B if any(b)]
    for g in gens:
        if not is_central(struct, g):
            raise InternalCheckFailed(f"claimed generator {g} is not central")
    D = max_degree if max_degree is not None else 2 * p
    series = hilbert_skew(m, D)
    gor, witness = gorenstein_skew(m)
    return CenterReport(
        engine="monoid",
        generators=gens,
        hilbert=series.coefficients,
        gorenstein=gor,
        witness=witness,
        box=list(m.B),
        nonzero_indices=list(m.I),
        rank=series.rank,
        numerator=series.numerator,
        numerator_palindromic=_palindromic(series.numerator),
        notes=series.notes,
    )


def gorenstein_skew(m: MonoidData) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Stanley criterion: the box has a componentwise maximal element."""
    for b in m.B:
        if all(all(x >= y for x, y in zip(b, other)) for other in m.B):
            return True, b
    return False, None


def find_beta(m: MonoidData) -> Optional[tuple[int, ...]]:
    """First box vector whose I-components are all nonzero, if any."""
    for b in m.B:
        if all(b[i] != 0 for i in m.I):
            return b
    return None


def gorenstein_via_theorem38(m: MonoidData) -> Optional[bool]:
    """Indicator-vector criterion; None when its hypothesis is unmet."""
    if find_beta(m) is None:
        return None
    return m.contains(m.u)


def _template_2a(p: int, a: int) -> SkewMatrix:
    return SkewMatrix.from_rows(p, [[0, a, 0], [-a, 0, 0], [0, 0, 0]])


def _template_2b(p: int, a: int) -> SkewMatrix:
    return SkewMatrix.from_rows(p, [[0, a, -a], [-a, 0, 0], [a, 0, 0]])


def _template_2c(p: int, a: int) -> SkewMatrix:
    return SkewMatrix.from_rows(p, [[0, a, -a], [-a, 0, a], [a, -a, 0]])


def _matches_template(c: SkewMatrix, template) -> bool:
    p = c.p
    for perm in itertools.permutations(range(3)):
        cp = c.permuted(perm)
        a = cp[0, 1]
        if cp.entries == template(p, a).entries:
            return True
    return False


def classify_skew3(c: SkewMatrix) -> str:
    """Classify a 3x3 skew matrix by the shape of its Gorenstein center.

    Returns one of Case1, Case2a, Case2b, Case2c, NotGorenstein.  Case1
    is a trivial kernel; the other cases are matched by brute force over
    all six simultaneous row/column permutations.
    """
    if c.n != 3:
        raise WrongArity(f"classification needs n=3, got n={c.n}")
    if c.p <= 3:
        raise SmallCharacteristic("classification assumes p > 3")
    m = skew_monoid(c)
    gor, _ = gorenstein_skew(m)
    if not gor:
        return "NotGorenstein"
    if len(m.B) == 1:
        return "Case1"
    if all(s == 0 for s in c.row_sums()):
        if not _matches_template(c, _template_2c):
            raise InternalCheckFailed("unimodular 3x3 skew matrix must match the cyclic form")
        return "Case2c"
    if _matches_template(c, _template_2a):
        return "Case2a"
    if _matches_template(c, _template_2b):
        return "Case2b"
    raise InternalCheckFailed("Gorenstein skew 3x3 matrix matched no classification case")


@dataclass
class SeriesData:
    """Hilbert numerator over (1 - t^p)^n plus its expansion."""

    numerator: list[int]
    coefficients: list[int]
    rank: str
    rank_exact: bool
    notes: tuple[str, ...] = ()


def hilbert_skew(m: MonoidData, max_degree: int) -> SeriesData:
    """Series data from the free decomposition over k[x_1^p, ..., x_n^p]."""
    p, n = m.p, m.n
    numer = [0] * (max(sum(b) for b in m.B) + 1 if m.B else 1)
    for b in m.B:
        numer[sum(b)] += 1
    coeffs = expand_over_pth_powers(numer, p, n, max_degree)
    total = p**n
    rank = Fraction(total, len(m.B))
    notes = ()
    if rank.denominator != 1:
        notes = ("free-module hypothesis unverified: |B| does not divide p^n",)
    return SeriesData(
        numerator=numer,
        coefficients=coeffs,
        rank=str(rank),
        rank_exact=rank.denominator == 1,
        notes=notes,
    )


def expand_over_pth_powers(numerator: list[int], p: int, n: int, max_degree: int) -> list[int]:
    """Coefficients of numerator / (1 - t^p)^n up to max_degree."""
    out = []
    for d in range(max_degree + 1):
        total = 0
        for s, c in enumerate(numerator):
            if c and s <= d and (d - s) % p == 0:
                k = (d - s) // p
                total += c * comb(k + n - 1, n - 1)
        out.append(total)
    return out


def numerator_from_hilbert(hilbert: list[int], p: int, n: int) -> list[int]:
    """Recover H(t) (1 - t^p)^n from the Hilbert coefficients.

    Only trustworthy when the true numerator degree is at most
    len(hilbert) - 1 - n*p; callers should treat the tail with care.
    """
    out = []
    for d in range(len(hilbert)):
        total = 0
        for k in range(n + 1):
            s = d - p * k
            if s < 0:
                break
            total += (-1) ** k * comb(n, k) * hilbert[s]
        out.append(total)
    while out and out[-1] == 0:
        out.pop()
    return out


def _palindromic(numer: list[int]) -> bool:
    trimmed = list(numer)
    while trimmed and trimmed[-1] == 0:
        trimmed.pop()
    if not trimmed:
        return True
    return trimmed == trimmed[::-1]


def palindromic_numerator(hilbert: list[int], p: int, n: int) -> tuple[list[int], bool]:
    """Necessary-condition Gorenstein heuristic on oracle Hilbert data."""
    numer = numerator_from_hilbert(hilbert, p, n)
    return numer, _palindromic(numer)


# ---------------------------------------------------------------------
# Oracle engine
# ---------------------------------------------------------------------


def is_central(struct: PoissonStructure, f: MultiPoly) -> bool:
    """{x_i, f} = 0 for every generator; sufficient by Leibniz."""
    return all(struct.bracket_with_gen(i, f).is_zero for i in range(struct.n))


def graded_kernel(p: int, n: int, max_degree: int, operators, limits: Limits):
    """Hilbert function and graded basis of the joint kernel of the maps
    on A_d = span(src) stacked into the one matrix `operators(d, src)`,
    dense or as `linalg.Entries`, degree by degree up to max_degree; with
    no maps, the kernel is all of A_d."""
    hilbert = []
    graded_basis: dict[int, list[MultiPoly]] = {}
    for d in range(max_degree + 1):
        src = monomials_of_degree(n, d)
        limits.check("columns", len(src), f"columns at degree {d}")
        kernel = linalg.nullspace(operators(d, src), p)
        graded_basis[d] = [vec_to_poly(v, p, n, src) for v in kernel]
        hilbert.append(len(kernel))
    return hilbert, graded_basis


def center_oracle(
    struct: PoissonStructure, max_degree: int, limits: Limits = Limits()
) -> CenterReport:
    """Degree-by-degree nullspace computation of the Poisson center.

    For graded structures each degree is solved on the homogeneous
    component; otherwise the whole filtration piece of total degree
    <= max_degree is solved at once and per-degree entries report the
    dimensions of the filtration steps.
    """
    if not struct.graded:
        return _center_oracle_filtered(struct, max_degree, limits)
    p, n = struct.p, struct.n
    images = [a.images for a in struct.ad]
    hilbert, graded_basis = graded_kernel(
        p, n, max_degree,
        lambda d, src: derivation_entries(images, src, monomials_of_degree(n, d + 1)),
        limits,
    )
    numer, palin = palindromic_numerator(hilbert, p, n)
    return CenterReport(
        engine="oracle",
        generators=[f for d in range(1, max_degree + 1) for f in graded_basis[d]],
        hilbert=hilbert,
        graded_basis=graded_basis,
        numerator=numer,
        numerator_palindromic=palin,
        notes=("generator list is a graded basis; apply reduce_generators to prune",),
    )


def _center_oracle_filtered(struct, max_degree, limits) -> CenterReport:
    p, n = struct.p, struct.n
    src = monomials_upto_degree(n, max_degree)
    limits.check("columns", len(src), "filtration columns")
    hmax = max((h.degree() for h in struct.table.values()), default=0)
    tgt = monomials_upto_degree(n, max_degree + max(hmax - 1, 0))
    kernel = linalg.nullspace(derivation_entries([a.images for a in struct.ad], src, tgt), p)
    basis_polys = [vec_to_poly(v, p, n, src) for v in kernel]
    # dims of the filtration steps Z cap A_{<=d}: corank of the kernel
    # basis restricted to the monomials of degree > d
    degrees = np.array([sum(e) for e in src])
    mat = np.reshape(kernel, (len(kernel), len(src)))
    hilbert = [len(kernel) - linalg.rank(mat[:, degrees > d], p)
               for d in range(max_degree + 1)]
    return CenterReport(
        engine="oracle",
        generators=[f for f in basis_polys if not f.is_constant()],
        hilbert=hilbert,
        graded_basis=None,
        notes=(
            "structure is not graded: hilbert entries are cumulative "
            "filtration dimensions",
        ),
    )


# ---------------------------------------------------------------------
# Post-processing
# ---------------------------------------------------------------------


def graded_span_dims(
    p: int, n: int, gens: list[MultiPoly], max_degree: int
) -> tuple[list[int], dict[int, list[MultiPoly]]]:
    """Degreewise dimensions and bases of the subalgebra generated by
    homogeneous elements of positive degree."""
    for g in gens:
        if g.is_zero or not g.is_homogeneous() or g.degree() == 0:
            raise PoisError("subalgebra generators must be homogeneous of degree >= 1")
    bases: dict[int, list[MultiPoly]] = {0: [MultiPoly.const(p, n, 1)]}
    dims = [1]
    for d in range(1, max_degree + 1):
        candidates = []
        for g in gens:
            dg = g.degree()
            if dg > d:
                continue
            for h in bases.get(d - dg, []):
                candidates.append(g * h)
        basis = _reduce_to_basis(candidates, p, n, d)
        bases[d] = basis
        dims.append(len(basis))
    return dims, bases


def _reduce_to_basis(polys: list[MultiPoly], p: int, n: int, d: int) -> list[MultiPoly]:
    polys = [f for f in polys if not f.is_zero]
    if not polys:
        return []
    src = monomials_of_degree(n, d)
    red, pivots = linalg.rref(coeff_matrix(polys, src).T, p)
    return [vec_to_poly(red[r], p, n, src) for r in range(len(pivots))]


def reduce_generators(
    p: int, n: int, gens: list[MultiPoly], max_degree: Optional[int] = None
) -> list[MultiPoly]:
    """Drop generators expressible in lower-sorted ones (degreewise
    linear algebra against products); optional post-pass, not minimality
    in any stronger sense."""
    ordered = sorted(gens, key=lambda f: f.sort_key())
    kept: list[MultiPoly] = []
    for g in ordered:
        d = g.degree()
        if d is None or d == 0:
            continue
        if not kept:
            kept.append(g)
            continue
        _, bases = graded_span_dims(p, n, kept, d)
        span = bases.get(d, [])
        if span:
            src = monomials_of_degree(n, d)
            mat = coeff_matrix(span, src).T
            if linalg.in_row_space(mat, coeff_matrix([g], src)[:, 0], p):
                continue
        kept.append(g)
    return kept


UNSTABLE_RANK_NOTE = (
    "module generators found near the degree bound; count may be unstable"
)


def rank_over_subring(
    p: int,
    n: int,
    sub_bases: dict[int, list[MultiPoly]],
    max_degree: int,
) -> tuple[Fraction, tuple[str, ...]]:
    """Estimate rk_Z(A) as p^n over the number of module generators of Z
    over k[x_1^p, ..., x_n^p], counted degreewise up to max_degree.

    `sub_bases` must be closed under multiplication by the x_i^p, as the
    center's are: then the x_i^p Z_{d-p} span every x^(pv) Z_{d-p|v|}.

    Exact when Z is free over the p-th power subring and generated in
    degrees <= max_degree; callers get notes describing both caveats.
    """
    count = 0
    last_nonzero = 0
    powers = [x**p for x in MultiPoly.gens(p, n)]
    for d in range(max_degree + 1):
        basis = sub_bases.get(d, [])
        if not basis:
            continue
        src = monomials_of_degree(n, d)
        products = [x * h for x in powers for h in sub_bases.get(d - p, [])]
        quotient = linalg.rank(coeff_matrix(basis, src), p)
        if products:
            quotient -= linalg.rank(coeff_matrix(products, src), p)
        if quotient:
            last_nonzero = d
        count += quotient
    notes = ["rank assumes the center is a free module over the p-th powers"]
    if last_nonzero > max_degree - p:
        notes.append(UNSTABLE_RANK_NOTE)
    return Fraction(p**n, count), tuple(notes)
