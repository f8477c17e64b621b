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
from .fieldpoly import MultiPoly
from .linalg import coeff_matrix, derivation_entries, derivation_matrix
from .structure import PoissonStructure, SkewMatrix, from_skew_matrix

# ---------------------------------------------------------------------
# Operator matrices on graded pieces
# ---------------------------------------------------------------------


def bracket_matrices(struct: PoissonStructure, d: int) -> np.ndarray:
    """For graded structures: the n x |A_{d+1}| x |A_d| array whose i-th
    matrix is f |-> {x_i, f} from A_d to A_{d+1}."""
    return derivation_matrix([a.images for a in struct.ad], struct.n, (d,), (d + 1,))


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
    """Kernel of c over F_p, box representatives, and the indices I
    where some box vector is nonzero.  The box is every combination of a
    kernel basis, so its p^(dim ker c) vectors are distinct."""
    p, n = c.p, c.n
    mat = np.array(c.entries, dtype=np.int64) % p
    kern = linalg.nullspace(mat, p)
    limits.check("kernel", p ** len(kern), "kernel vectors")
    box = linalg.span(np.reshape(kern, (len(kern), n)), p)
    B = sorted(map(tuple, box.tolist()))
    I = sorted({i for b in B for i in range(n) if b[i] != 0})
    u = tuple(1 if i in I else 0 for i in range(n))
    return MonoidData(c=c, B=B, I=I, u=u)


def center_generators_skew(
    m: MonoidData, max_degree: Optional[int] = None, limits: Limits = Limits()
) -> CenterReport:
    """Generators {x_i^p} plus the box monomials; not claimed minimal.

    Every emitted generator is re-verified central against the bracket.
    The series runs to max_degree, a length `hilbert_skew` checks.
    """
    p, n = m.p, m.n
    struct = from_skew_matrix(m.c)
    gens = [x**p for x in MultiPoly.gens(p, n)]
    gens += [MultiPoly.monomial(p, n, b) for b in m.B if any(b)]
    for g in gens:
        if not is_central(struct, g):
            raise InternalCheckFailed(f"claimed generator {g} is not central")
    D = max_degree if max_degree is not None else 2 * p
    series = hilbert_skew(m, D, limits)
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
    )


def gorenstein_skew(m: MonoidData) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Stanley criterion: the box has a greatest element, which can only
    be its componentwise maximum."""
    top = tuple(map(max, zip(*m.B)))
    if top in m.B:
        return True, top
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


def require_skew3(c: SkewMatrix) -> None:
    """Raise unless `classify_skew3` applies to c: n = 3 and p > 3."""
    if c.n != 3:
        raise WrongArity(f"classification needs n=3, got n={c.n}")
    if c.p <= 3:
        raise SmallCharacteristic("classification assumes p > 3")


def classify_skew3(m: MonoidData) -> str:
    """Classify the 3x3 skew matrix m.c by the shape of its Gorenstein
    center, read from its monoid m.

    Returns one of Case2a, Case2b, Case2c, NotGorenstein.  A 3x3 skew
    matrix is singular, so its kernel is never trivial; the cases are
    matched by brute force over all six simultaneous row/column
    permutations.
    """
    c = m.c
    require_skew3(c)
    gor, _ = gorenstein_skew(m)
    if not gor:
        return "NotGorenstein"
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


def hilbert_skew(m: MonoidData, max_degree: int, limits: Limits = Limits()) -> SeriesData:
    """Series data from the free decomposition over k[x_1^p, ..., x_n^p],
    of rank p^n / |B| = p^(n - dim ker c).  Its max_degree + 1
    coefficients are listed, so they are checked first against
    `Limits.kernel`, the cap on the box this engine already meets."""
    limits.check("kernel", max_degree + 1, "series coefficients")
    p, n = m.p, m.n
    numer = [0] * (max(map(sum, m.B)) + 1)
    for b in m.B:
        numer[sum(b)] += 1
    coeffs = expand_over_pth_powers(numer, p, n, max_degree)
    return SeriesData(
        numerator=numer,
        coefficients=coeffs,
        rank=str(p**n // len(m.B)),
    )


def expand_over_pth_powers(numerator: list[int], p: int, n: int, max_degree: int) -> list[int]:
    """Coefficients of numerator / (1 - t^p)^n up to max_degree: n
    divisions by 1 - t^p, each a running sum within every residue class
    of the degree mod p."""
    out = numerator[: max(max_degree + 1, 0)]
    out += [0] * (max_degree + 1 - len(out))
    for _ in range(n):
        for r in range(p):
            out[r::p] = itertools.accumulate(out[r::p])
    return out


def numerator_from_hilbert(hilbert: list[int], p: int, n: int) -> list[int]:
    """Recover H(t) (1 - t^p)^n from the Hilbert coefficients: n
    multiplications by 1 - t^p, truncated, with trailing zeros dropped.

    Only trustworthy when the true numerator degree is at most
    len(hilbert) - 1 - n*p; callers should treat the tail with care.
    """
    out = list(hilbert)
    for _ in range(n):
        out = [a - b for a, b in zip(out, [0] * p + out)]
    while out and out[-1] == 0:
        out.pop()
    return out


def _palindromic(numer: list[int]) -> bool:
    """For a numerator with no trailing zero."""
    return numer == numer[::-1]


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


def independent_brackets(struct: PoissonStructure, central) -> list:
    """The image lists of the ad_{x_i} whose kernels cut out the center:
    all n of them, less ad_{x_k} for the first g in `central`, a list of
    elements known to be central, with a nonzero partial, and the first
    such k.  Leibniz gives {g, f} = sum_i d_i g {x_i, f}, which is 0; so
    when {x_i, f} = 0 for every i != k, d_k g {x_k, f} = 0, and A is a
    domain: the equation {x_k, f} = 0 follows from the others."""
    for g in central:
        for k in range(struct.n):
            if not g.partial(k).is_zero:
                return [a.images for i, a in enumerate(struct.ad) if i != k]
    return [a.images for a in struct.ad]


# the source columns of one elimination in `graded_kernel`: a whole
# degree's entries and its dense kernel are at most a few MiB
_GROUP_COLUMNS = 1024


def degree_widths(n: int, max_degree: int, limits: Limits) -> list[int]:
    """C(d + n - 1, n - 1), the monomials of degree d, for d up to
    max_degree, each checked against `Limits.columns`, and so is the
    number of degrees so far: every degree has a column, and one
    variable has only one per degree, which no width check stops."""
    widths = []
    for d in range(max_degree + 1):
        widths.append(comb(d + n - 1, n - 1))
        limits.check("columns", widths[-1], f"columns at degree {d}")
        limits.check("columns", d + 1, "degrees")
    return widths


def graded_kernel(p: int, n: int, max_degree: int, derivations, limits: Limits):
    """The joint kernel of the derivations x_j |-> images[j], one per
    image list in `derivations`, degree by degree up to max_degree:
    yields (d, kernel), the kernel's basis as the rows of an array on the
    monomials of degree d, as each elimination finishes.  Their images
    are homogeneous of one degree h, so each maps A_d into A_{d+h-1};
    with no nonzero image, the kernel is all of A_d.  Every degree's
    width is checked before the first elimination.  The center's
    kernels are given only the brackets no known central element implies
    (`independent_brackets`), so a potential's eliminations have a third
    fewer rows.

    Consecutive degrees of at most `_GROUP_COLUMNS` columns in all (or a
    single degree) are eliminated as one matrix, from the basis of those
    degrees into that of their targets.  No row meets two degrees, so
    `linalg.nullspaces` gives each degree the kernel of its own
    elimination."""
    h = max((g.degree() for images in derivations for g in images if not g.is_zero),
            default=1)
    widths = degree_widths(n, max_degree, limits)
    columns = np.cumsum([0] + widths)  # the columns before each degree
    lo = 0
    while lo <= max_degree:
        # degrees lo..hi-1: at most _GROUP_COLUMNS columns, or one degree
        hi = max(lo + 1, int(columns.searchsorted(columns[lo] + _GROUP_COLUMNS, "right")) - 1)
        # constant images (h = 0) map A_0 to nothing
        src, tgt = tuple(range(lo, hi)), tuple(range(max(lo + h - 1, 0), hi + h - 1))
        yield from zip(src, linalg.nullspaces(derivation_entries(derivations, n, src, tgt), p,
                                              widths[lo:hi]))
        lo = hi


def graded_kernel_basis(p: int, n: int, max_degree: int, derivations, limits: Limits):
    """The Hilbert function and graded basis of `graded_kernel`: each
    degree's kernel is read back as polynomials as it arrives."""
    hilbert = []
    graded_basis: dict[int, list[MultiPoly]] = {}
    for d, kernel in graded_kernel(p, n, max_degree, derivations, limits):
        hilbert.append(len(kernel))
        graded_basis[d] = linalg.polys(kernel, p, n, (d,))
    return hilbert, graded_basis


def center_oracle(
    struct: PoissonStructure, max_degree: int, limits: Limits = Limits()
) -> CenterReport:
    """Degree-by-degree nullspace computation of the Poisson center.

    For graded structures each degree is solved on the homogeneous
    component; otherwise the whole filtration piece of total degree
    <= max_degree is solved at once and per-degree entries report the
    dimensions of the filtration steps.

    For a potential structure the potential, once `is_central` confirms
    it, drops one bracket from every elimination: see
    `independent_brackets`.
    """
    central = []
    if struct.provenance.kind == "potential":
        # the potential is a Casimir of its Jacobian bracket
        central = [struct.provenance.omega]
        if not is_central(struct, central[0]):
            raise InternalCheckFailed(f"the potential {central[0]} is not central")
    images = independent_brackets(struct, central)
    if not struct.graded:
        return _center_oracle_filtered(struct, max_degree, images, limits)
    p, n = struct.p, struct.n
    hilbert, graded_basis = graded_kernel_basis(p, n, max_degree, images, limits)
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


def _center_oracle_filtered(struct, max_degree, images, limits) -> CenterReport:
    p, n = struct.p, struct.n
    src = tuple(range(max_degree + 1))
    limits.check("columns", comb(max_degree + n, n), "filtration columns")
    # rows: the monomials the brackets reach, not all of a degree bound
    kernel = linalg.nullspace(derivation_entries(images, n, src), p)
    basis_polys = linalg.polys(kernel, p, n, src)
    # dims of the filtration steps Z cap A_{<=d}: corank of the kernel
    # basis restricted to the monomials of degree > d
    degrees = np.repeat(src, [comb(d + n - 1, n - 1) for d in src])
    mat = np.reshape(kernel, (len(kernel), len(degrees)))
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


def graded_products(
    n: int, factors: list[MultiPoly], family: dict[int, list[MultiPoly]], d: int
) -> tuple[list[tuple[int, MultiPoly]], np.ndarray]:
    """The pairs (k, h) with h in family[d - deg g_k], factor by factor,
    for nonzero homogeneous factors g_k and a family {degree: elements},
    and the coefficient matrix of the products g_k h on the monomials of
    degree d, one column per pair."""
    pairs = [(k, h) for k, g in enumerate(factors)
             for h in family.get(d - g.degree(), [])]
    products = [factors[k] * h for k, h in pairs]
    return pairs, coeff_matrix(products, n, (d,))


def _check_generators(gens: list[MultiPoly]) -> None:
    if any(g.is_constant() or not g.is_homogeneous() for g in gens):
        raise PoisError("subalgebra generators must be homogeneous of degree >= 1")


def _tagged_products(n: int, gens: list[MultiPoly], bases: dict, e: int):
    """The products g_i h of degree e, generator by generator, with h in
    `bases`, a tagged family {degree: [(tag, element)]}, tagged at most i;
    each tagged i.  Returns them with their coefficient matrix on the
    monomials of degree e, one column per product."""
    tagged = [(i, g * h) for i, g in enumerate(gens)
              for t, h in bases.get(e - g.degree(), []) if t <= i]
    return tagged, coeff_matrix([f for _, f in tagged], n, (e,))


def _extend_span(p: int, n: int, gens: list[MultiPoly], bases: dict, d: int) -> None:
    """Extend `bases`, the subalgebra generated by `gens` in degrees
    0..len(bases)-1 as a tagged family, up to degree d - 1: each new
    degree keeps the `_tagged_products` that are independent of those
    before them, the pivot columns of one rref.  The products come in
    generator order, so by induction on the degree the elements tagged
    at most i span the piece of F_p[g_0..g_i], as every monomial in
    those generators with last one g_i is g_i times one in g_0..g_i."""
    for e in range(len(bases), d):
        tagged, mat = _tagged_products(n, gens, bases, e)
        bases[e] = [tagged[c] for c in linalg.rref(mat, p)[1]] if tagged else []


def graded_span_dims(
    p: int, n: int, gens: list[MultiPoly], max_degree: int
) -> tuple[list[int], dict[int, list[MultiPoly]]]:
    """Degreewise dimensions and bases of the subalgebra generated by
    homogeneous elements of positive degree: each degree's basis is the
    products g_i h that `_extend_span` keeps, h in the basis of a lower
    degree and built from g_0..g_i only."""
    _check_generators(gens)
    bases: dict[int, list] = {0: [(-1, MultiPoly.const(p, n, 1))]}
    _extend_span(p, n, gens, bases, max_degree + 1)
    return ([len(bases[d]) for d in range(max_degree + 1)],
            {d: [f for _, f in basis] for d, basis in bases.items()})


def reduce_generators(p: int, n: int, gens: list[MultiPoly]) -> list[MultiPoly]:
    """Drop constants and generators expressible in lower-sorted ones;
    the others must be homogeneous.  Optional post-pass, not minimality
    in any stronger sense.  A generator is dropped when it lies in the
    span of the `_tagged_products` of the ones kept with their
    subalgebra, built alongside in ascending degree."""
    ordered = sorted((g for g in gens if not g.is_constant()), key=lambda f: f.sort_key())
    _check_generators(ordered)
    kept: list[MultiPoly] = []
    bases: dict[int, list] = {0: [(-1, MultiPoly.const(p, n, 1))]}
    for g in ordered:
        d = g.degree()
        # the kept generators of degree below d are final, and so are
        # the subalgebra's degrees below d; a generator kept later is
        # last in generator order, so the tags stay valid
        _extend_span(p, n, kept, bases, d)
        vec = coeff_matrix([g], n, (d,))[:, 0]
        if not linalg.in_row_space(_tagged_products(n, kept, bases, d)[1].T, vec, p):
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
    over k[x_1^p, ..., x_n^p], counted degreewise up to max_degree: dim
    Z_d less the rank of the `graded_products` of the x_i^p with Z.

    Each `sub_bases[d]` must be a basis of Z_d, linearly independent as
    a kernel basis is, since dim Z_d is read as its length.  The bases
    must be closed under multiplication by the x_i^p, as the center's
    are: then the x_i^p Z_{d-p} span every x^(pv) Z_{d-p|v|}.

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
        quotient = len(basis) - linalg.rank(graded_products(n, powers, sub_bases, d)[1], p)
        if quotient:
            last_nonzero = d
        count += quotient
    notes = ["rank assumes the center is a free module over the p-th powers"]
    if last_nonzero > max_degree - p:
        notes.append(UNSTABLE_RANK_NOTE)
    return Fraction(p**n, count), tuple(notes)
