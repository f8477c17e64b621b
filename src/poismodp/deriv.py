"""Derivations of polynomial Poisson algebras.

A derivation is stored by its generator images and extended everywhere
by additivity and the Leibniz rule: d(f) = sum_i (df/dx_i) d(x_i).
"""

from __future__ import annotations

from operator import add
from typing import TYPE_CHECKING

import numpy as np

from .errors import ArityMismatch, ModulusMismatch
from .fieldpoly import MultiPoly
from .linalg import coeff_matrix, derivation_matrix, polys

if TYPE_CHECKING:
    from .structure import PoissonStructure


class Derivation:
    """k-linear derivation of k[x_1, ..., x_n] given by generator images."""

    __slots__ = ("p", "n", "images", "_key")

    def __init__(self, p: int, n: int, images):
        images = tuple(images)
        if len(images) != n:
            raise ArityMismatch(f"expected {n} generator images, got {len(images)}")
        for g in images:
            if g.p != p:
                raise ModulusMismatch("image in the wrong ring")
            if g.n != n:
                raise ArityMismatch("image has the wrong number of variables")
        self.p = p
        self.n = n
        self.images = images
        self._key = None

    @classmethod
    def zero(cls, p: int, n: int) -> "Derivation":
        z = MultiPoly.zero(p, n)
        return cls(p, n, [z] * n)

    @classmethod
    def from_matrix(cls, p: int, mat) -> "Derivation":
        """Degree-0 derivation with x_i |-> sum_j mat[i][j] x_j."""
        n = len(mat)
        return cls(p, n, polys(mat, p, n, (1,)))

    def __call__(self, f: MultiPoly) -> MultiPoly:
        return apply_derivation(self, f)

    def is_zero(self) -> bool:
        return all(g.is_zero for g in self.images)

    def is_graded_degree_zero(self) -> bool:
        """True iff every generator image is homogeneous linear (or zero)."""
        return all(
            g.is_zero or (g.is_homogeneous() and g.degree() == 1)
            for g in self.images
        )

    def matrix(self) -> np.ndarray:
        """Coefficient matrix for a degree-0 derivation: row i lists the
        coefficients of d(x_i) on (x_1, ..., x_n)."""
        if not self.is_graded_degree_zero():
            raise ArityMismatch("matrix form needs a graded degree-0 derivation")
        return coeff_matrix(self.images, self.n, (1,)).T

    def matrix_on_degree(self, d: int) -> np.ndarray:
        """Matrix of the action of a degree-0 derivation on the degree-d
        component; column k holds the coefficients of the image of the
        k-th monomial of `monomials_of_degree(n, d)` on the same basis."""
        if not self.is_graded_degree_zero():
            raise ArityMismatch("matrix form needs a graded degree-0 derivation")
        return derivation_matrix([self.images], self.n, (d,), (d,))[0]

    def key(self) -> tuple:
        if self._key is None:
            self._key = tuple(g.key() for g in self.images)
        return self._key

    def __add__(self, other: "Derivation") -> "Derivation":
        if self.p != other.p or self.n != other.n:
            raise ModulusMismatch("derivations live in different rings")
        return Derivation(
            self.p, self.n, [a + b for a, b in zip(self.images, other.images)]
        )

    def __neg__(self) -> "Derivation":
        return Derivation(self.p, self.n, [-g for g in self.images])

    def __sub__(self, other: "Derivation") -> "Derivation":
        return self + (-other)

    def __mul__(self, c: int) -> "Derivation":
        return Derivation(self.p, self.n, [g * c for g in self.images])

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Derivation):
            return NotImplemented
        return self.p == other.p and self.n == other.n and self.images == other.images

    def __hash__(self):
        return hash((self.p, self.n, self.key()))

    def __repr__(self):
        imgs = ", ".join(f"x{i + 1}->{g}" for i, g in enumerate(self.images))
        return f"Derivation({imgs})"


def apply_derivation(d: Derivation, f: MultiPoly) -> MultiPoly:
    """The unique Leibniz extension of d evaluated at f.

    d(f) = sum_j (df/dx_j) d(x_j) is summed in one pass into one dict,
    from the products e_j c c' x^(e - eps_j + e') of a term c x^e of f
    and a term c' x^e' of d(x_j).  Each image's exponents are shifted
    down in x_j once, and a term with e_j = 0 mod p, whose partial
    vanishes, is skipped; no partial, product or sum is built."""
    if f.p != d.p:
        raise ModulusMismatch("polynomial in the wrong ring")
    if f.n != d.n:
        raise ArityMismatch("polynomial has the wrong number of variables")
    p = d.p
    sums: dict[tuple[int, ...], int] = {}
    for j, g in enumerate(d.images):
        if not g.terms:
            continue
        # an exponent of -1 in x_j meets only terms of f with e_j >= 1
        shifted = [(e[:j] + (e[j] - 1,) + e[j + 1 :], c) for e, c in g.terms.items()]
        for e, c in f.terms.items():
            k = e[j] % p
            if not k:
                continue
            kc = k * c
            for s, c2 in shifted:
                t = tuple(map(add, e, s))
                sums[t] = sums.get(t, 0) + kc * c2
    out = MultiPoly(p, d.n)
    out.terms = {t: r for t, v in sums.items() if (r := v % p)}
    return out


def euler(struct: PoissonStructure) -> Derivation:
    """Euler derivation: multiplies a homogeneous element by its degree."""
    return Derivation(struct.p, struct.n, MultiPoly.gens(struct.p, struct.n))


def modular_derivation(struct: PoissonStructure) -> Derivation:
    """phi(x_i) = div ad_{x_i} = sum_j d({x_i, x_j})/dx_j.

    Orientation matters in characteristic p: this is the convention
    under which a skew structure gets phi(x_i) = (sum_j c_ij) x_i and
    the twist by phi/3 of a non-unimodular graded 3-variable structure
    becomes unimodular.
    """
    return Derivation(struct.p, struct.n, [divergence(a) for a in struct.ad])


def is_unimodular(struct: PoissonStructure) -> bool:
    """True iff the modular derivation vanishes."""
    return modular_derivation(struct).is_zero()


def divergence(d: Derivation) -> MultiPoly:
    """div(d) = sum_i d(d(x_i))/dx_i."""
    out = MultiPoly.zero(d.p, d.n)
    for i, g in enumerate(d.images):
        if not g.is_zero:
            out = out + g.partial(i)
    return out


def is_poisson_derivation(struct: PoissonStructure, d: Derivation) -> bool:
    """Check d({x_i, x_j}) = {d(x_i), x_j} + {x_i, d(x_j)} on generator
    pairs, which suffices by bilinearity and Leibniz: the alpha-derivation
    identity with alpha = 0."""
    if d.p != struct.p or d.n != struct.n:
        raise ModulusMismatch("derivation in the wrong ring")
    return is_alpha_derivation(struct, Derivation.zero(d.p, d.n), d)


def is_alpha_derivation(
    struct: PoissonStructure, alpha: Derivation, beta: Derivation
) -> bool:
    """Check the Poisson alpha-derivation identity on generator pairs:
    beta({a,b}) = {beta(a),b} + {a,beta(b)} + alpha(a)beta(b) - beta(a)alpha(b).
    """
    ad, a, b = struct.ad, alpha.images, beta.images
    return all(
        beta(ad[i].images[j])
        == ad[i](b[j]) - ad[j](b[i]) + a[i] * b[j] - b[i] * a[j]
        for i in range(struct.n)
        for j in range(i + 1, struct.n)
    )
