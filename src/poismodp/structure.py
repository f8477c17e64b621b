"""Poisson bracket structures on k[x_1, ..., x_n] over F_p.

A structure is determined by the generator table {x_i, x_j} for i < j;
the bracket extends to arbitrary polynomials as a biderivation.  All
constructors verify the Jacobi identity on generator triples, which
suffices by bilinearity and the Leibniz rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .deriv import Derivation, is_alpha_derivation, is_poisson_derivation
from .errors import (
    ArityMismatch,
    JacobiViolation,
    ModulusMismatch,
    ModulusTooLarge,
    NotAlphaDerivation,
    NotGraded,
    NotPoissonDerivation,
    NotSkewSymmetric,
    ParseError,
    WrongArity,
    require_prime,
)
from .fieldpoly import MultiPoly


@dataclass(frozen=True)
class SkewMatrix:
    """Skew-symmetric matrix over F_p with zero diagonal."""

    p: int
    n: int
    entries: tuple[tuple[int, ...], ...]

    @classmethod
    def from_rows(cls, p: int, rows) -> "SkewMatrix":
        """The matrix with the given rows: lists (or tuples) of ints."""
        if not isinstance(rows, (list, tuple)) or any(
                not isinstance(row, (list, tuple)) or any(type(v) is not int for v in row)
                for row in rows):
            raise ParseError(f"matrix rows must be lists of integers, got {rows!r}")
        n = len(rows)
        ent = tuple(tuple(v % p for v in row) for row in rows)
        for row in ent:
            if len(row) != n:
                raise NotSkewSymmetric("matrix is not square")
        for i in range(n):
            if ent[i][i] != 0:
                raise NotSkewSymmetric(f"nonzero diagonal entry at ({i}, {i})")
            for j in range(n):
                if (ent[i][j] + ent[j][i]) % p != 0:
                    raise NotSkewSymmetric(
                        f"entries ({i},{j}) and ({j},{i}) do not negate"
                    )
        return cls(p, n, ent)

    @classmethod
    def from_upper(cls, p: int, n: int, upper: dict) -> "SkewMatrix":
        rows = [[0] * n for _ in range(n)]
        for (i, j), v in upper.items():
            rows[i][j] = v % p
            rows[j][i] = (-v) % p
        return cls.from_rows(p, rows)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row_sums(self) -> list[int]:
        return [sum(row) % self.p for row in self.entries]

    def permuted(self, perm) -> "SkewMatrix":
        """Simultaneous row/column permutation: entry (i,j) of the result
        is entry (perm[i], perm[j]) of self."""
        rows = [
            [self.entries[perm[i]][perm[j]] for j in range(self.n)]
            for i in range(self.n)
        ]
        return SkewMatrix.from_rows(self.p, rows)


@dataclass(frozen=True)
class Provenance:
    """How a structure was built; lets downstream code pick fast paths."""

    kind: str  # skew | potential | ore | explicit | tensor | twist
    matrix: Optional[SkewMatrix] = None
    omega: Optional[MultiPoly] = None


class PoissonStructure:
    """Polynomial Poisson algebra over F_p given by its generator table.

    `ad[i]` is the Hamiltonian derivation {x_i, -}: its image of x_j is
    {x_i, x_j}, so every bracket is read from the table in one place.
    """

    __slots__ = ("p", "n", "table", "provenance", "graded", "ad")

    def __init__(self, p, n, table, provenance=None):
        require_prime(p)
        if n < 1:
            raise ArityMismatch("a structure needs at least one variable")
        if n * n * (p - 1) ** 2 >= 2**63:  # int64 dot products have <= n^2 terms
            raise ModulusTooLarge(f"p={p}, n={n}: n^2 (p-1)^2 must be below 2^63")
        self.p = p
        self.n = n
        clean = {}
        zero = MultiPoly.zero(p, n)
        rows = [[zero] * n for _ in range(n)]
        for (i, j), h in table.items():
            if not (0 <= i < j < n):
                raise ArityMismatch(f"table key {(i, j)} must satisfy 0 <= i < j < n")
            if h.p != p or h.n != n:
                raise ModulusMismatch("table entry in the wrong ring")
            if not h.is_zero:
                clean[(i, j)] = rows[i][j] = h
                rows[j][i] = -h
        self.table = clean
        self.ad = tuple(Derivation(p, n, row) for row in rows)
        self.provenance = provenance or Provenance(kind="explicit")
        self.graded = all(
            h.is_homogeneous() and h.degree() == 2 for h in clean.values()
        )
        if not self.check_jacobi():
            raise JacobiViolation("generator table violates the Jacobi identity")

    def entry(self, i: int, j: int) -> MultiPoly:
        """{x_i, x_j} for any index order."""
        return self.ad[i].images[j]

    def gens(self) -> list[MultiPoly]:
        return MultiPoly.gens(self.p, self.n)

    def is_trivial(self) -> bool:
        return not self.table

    # -- the bracket -------------------------------------------------------

    def bracket(self, f: MultiPoly, g: MultiPoly) -> MultiPoly:
        """{f, g}: f |-> {f, g} is the derivation x_i |-> {x_i, g}."""
        return Derivation(self.p, self.n, [a(g) for a in self.ad])(f)

    def bracket_with_gen(self, i: int, f: MultiPoly) -> MultiPoly:
        """{x_i, f}."""
        return self.ad[i](f)

    def check_jacobi(self) -> bool:
        """Jacobi identity on all generator triples i < j < k."""
        for i in range(self.n):
            for j in range(i + 1, self.n):
                for k in range(j + 1, self.n):
                    s = self.bracket_with_gen(i, self.entry(j, k))
                    s = s + self.bracket_with_gen(j, self.entry(k, i))
                    s = s + self.bracket_with_gen(k, self.entry(i, j))
                    if not s.is_zero:
                        return False
        return True

    def __eq__(self, other):
        if not isinstance(other, PoissonStructure):
            return NotImplemented
        return (
            self.p == other.p and self.n == other.n and self.table == other.table
        )

    def __repr__(self):
        pairs = ", ".join(
            f"{{x{i + 1},x{j + 1}}}={h}" for (i, j), h in sorted(self.table.items())
        )
        return (
            f"PoissonStructure(p={self.p}, n={self.n}, "
            f"{pairs or 'trivial'}, kind={self.provenance.kind})"
        )


# ---------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------


def trivial_structure(p: int, n: int) -> PoissonStructure:
    return PoissonStructure(p, n, {}, Provenance(kind="explicit"))


def from_skew_matrix(c: SkewMatrix) -> PoissonStructure:
    """{x_i, x_j} = c_ij x_i x_j."""
    p, n = c.p, c.n
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            if c[i, j] % p:
                exps = [0] * n
                exps[i] += 1
                exps[j] += 1
                table[(i, j)] = MultiPoly.monomial(p, n, exps, c[i, j])
    return PoissonStructure(p, n, table, Provenance(kind="skew", matrix=c))


def from_potential(omega: MultiPoly) -> PoissonStructure:
    """Jacobian structure on three variables from the potential omega."""
    if omega.n != 3:
        raise WrongArity(f"potential structures need n=3, got n={omega.n}")
    p = omega.p
    table = {
        (0, 1): omega.partial(2),
        (1, 2): omega.partial(0),
        (0, 2): -omega.partial(1),
    }
    return PoissonStructure(p, 3, table, Provenance(kind="potential", omega=omega))


def explicit_structure(p, n, entries) -> PoissonStructure:
    """Structure from a raw {(i, j): poly} table."""
    return PoissonStructure(p, n, dict(entries), Provenance(kind="explicit"))


def tensor(a: PoissonStructure, b: PoissonStructure) -> PoissonStructure:
    """Product structure: factor brackets kept, cross brackets zero."""
    if a.p != b.p:
        raise ModulusMismatch(f"moduli differ: {a.p} vs {b.p}")
    p = a.p
    n = a.n + b.n
    table = {}
    for (i, j), h in a.table.items():
        table[(i, j)] = h.extend(n)
    for (i, j), h in b.table.items():
        table[(a.n + i, a.n + j)] = h.shift_vars(a.n, n)
    return PoissonStructure(p, n, table, Provenance(kind="tensor"))


def from_ore(a: PoissonStructure, alpha, beta) -> PoissonStructure:
    """Poisson Ore extension A[t; alpha, beta]: {x, t} = alpha(x) t + beta(x).

    Requires alpha to be a Poisson derivation of A and beta a Poisson
    alpha-derivation; both are checked on generator pairs.
    """
    if not is_poisson_derivation(a, alpha):
        raise NotPoissonDerivation("alpha is not a Poisson derivation of the base")
    if not is_alpha_derivation(a, alpha, beta):
        raise NotAlphaDerivation("beta is not a Poisson alpha-derivation of the base")
    p = a.p
    n = a.n + 1
    t = MultiPoly.variable(p, n, n - 1)
    table = {}
    for (i, j), h in a.table.items():
        table[(i, j)] = h.extend(n)
    for i in range(a.n):
        img = alpha.images[i].extend(n) * t + beta.images[i].extend(n)
        if not img.is_zero:
            table[(i, n - 1)] = img
    return PoissonStructure(p, n, table, Provenance(kind="ore"))


def twist(struct: PoissonStructure, delta) -> PoissonStructure:
    """Bracket twist {a,b} + E(a) delta(b) - delta(a) E(b) for graded input
    and a graded degree-0 Poisson derivation delta."""
    if not struct.graded:
        raise NotGraded("twists are defined for graded structures only")
    if not delta.is_graded_degree_zero():
        raise NotPoissonDerivation("twisting derivation must be graded of degree 0")
    if not is_poisson_derivation(struct, delta):
        raise NotPoissonDerivation("twisting map is not a Poisson derivation")
    p, n = struct.p, struct.n
    xs = struct.gens()
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            h = struct.entry(i, j) + xs[i] * delta.images[j] - delta.images[i] * xs[j]
            if not h.is_zero:
                table[(i, j)] = h
    return PoissonStructure(p, n, table, Provenance(kind="twist"))
