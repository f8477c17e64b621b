"""Exact arithmetic in F_p and sparse multivariate polynomials.

Coefficients are plain Python ints kept in [0, p).  Polynomials are
immutable by convention: no method mutates ``terms`` after construction,
so values can be shared freely between threads.

Exponent vectors are tuples of naturals; tuple comparison gives the
lexicographic order with x1 largest, which is the canonical term order
used for division, leading terms, and printed output.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache
from operator import add, sub
from typing import Iterator, Optional

from .errors import (
    ArityMismatch,
    IndexOutOfRange,
    ModulusMismatch,
    ParseError,
    ZeroDivisor,
    ZeroInput,
    ZeroInverse,
)

def ff_inv(a: int, p: int) -> int:
    """Multiplicative inverse of a mod p."""
    a %= p
    if a == 0:
        raise ZeroInverse(f"0 has no inverse mod {p}")
    return pow(a, -1, p)


@lru_cache(maxsize=None)
def monomials_of_degree(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors of total degree d in n variables, lex descending."""
    if n == 0:
        return ((),) if d == 0 else ()
    if n == 1:
        return ((d,),) if d >= 0 else ()
    out = []
    for e1 in range(d, -1, -1):
        for rest in monomials_of_degree(n - 1, d - e1):
            out.append((e1,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def monomials_upto_degree(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors of total degree <= d, ascending degree then lex descending."""
    out = []
    for k in range(d + 1):
        out.extend(monomials_of_degree(n, k))
    return tuple(out)


class MultiPoly:
    """Sparse multivariate polynomial over F_p.

    ``terms`` maps exponent tuples (length n) to nonzero coefficients in
    [1, p).  The zero polynomial has an empty term map and no degree.
    """

    __slots__ = ("p", "n", "terms", "_key")

    def __init__(self, p: int, n: int, terms=None):
        self.p = p
        self.n = n
        clean: dict[tuple[int, ...], int] = {}
        if terms:
            for exps, c in terms.items():
                c %= p
                if c == 0:
                    continue
                exps = tuple(exps)
                if len(exps) != n:
                    raise ArityMismatch(
                        f"exponent vector {exps} has length {len(exps)}, expected {n}"
                    )
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                clean[exps] = c
        self.terms = clean
        self._key = None

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, p: int, n: int) -> "MultiPoly":
        return cls(p, n)

    @classmethod
    def const(cls, p: int, n: int, c: int) -> "MultiPoly":
        return cls(p, n, {(0,) * n: c})

    @classmethod
    def variable(cls, p: int, n: int, i: int) -> "MultiPoly":
        if not 0 <= i < n:
            raise IndexOutOfRange(f"variable index {i} out of range for n={n}")
        exps = [0] * n
        exps[i] = 1
        return cls(p, n, {tuple(exps): 1})

    @classmethod
    def monomial(cls, p: int, n: int, exps, c: int = 1) -> "MultiPoly":
        return cls(p, n, {tuple(exps): c})

    @classmethod
    def gens(cls, p: int, n: int) -> list["MultiPoly"]:
        return [cls.variable(p, n, i) for i in range(n)]

    # -- basic queries -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> Optional[int]:
        """Total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def leading(self) -> tuple[tuple[int, ...], int]:
        """Lex-leading (exponent, coefficient) pair."""
        if not self.terms:
            raise ZeroInput("zero polynomial has no leading term")
        lead = max(self.terms)
        return lead, self.terms[lead]

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def key(self) -> tuple:
        """Canonical hashable form (terms in descending lex order)."""
        if self._key is None:
            self._key = tuple(sorted(self.terms.items(), reverse=True))
        return self._key

    def sort_key(self) -> tuple:
        """Deterministic ordering key: (degree, canonical terms)."""
        d = self.degree()
        return (-1 if d is None else d, self.key())

    # -- arithmetic ----------------------------------------------------

    def _check_compat(self, other: "MultiPoly") -> None:
        if self.p != other.p:
            raise ModulusMismatch(f"moduli differ: {self.p} vs {other.p}")
        if self.n != other.n:
            raise ArityMismatch(f"variable counts differ: {self.n} vs {other.n}")

    def __add__(self, other):
        if isinstance(other, int):
            other = MultiPoly.const(self.p, self.n, other)
        self._check_compat(other)
        terms = dict(self.terms)
        p = self.p
        for e, c in other.terms.items():
            v = (terms.get(e, 0) + c) % p
            if v:
                terms[e] = v
            else:
                terms.pop(e, None)
        out = MultiPoly(self.p, self.n)
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        p = self.p
        out = MultiPoly(self.p, self.n)
        out.terms = {e: p - c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, int):
            other = MultiPoly.const(self.p, self.n, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            c = other % self.p
            out = MultiPoly(self.p, self.n)
            if c:
                out.terms = {e: (v * c) % self.p for e, v in self.terms.items()}
            return out
        return poly_mul(self, other)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = MultiPoly.const(self.p, self.n, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base_needed = k > 1
            if base_needed:
                base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.p == other.p and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.p, self.n, self.key()))

    # -- calculus ------------------------------------------------------

    def partial(self, i: int) -> "MultiPoly":
        """Formal partial derivative with respect to variable i (0-based)."""
        if not 0 <= i < self.n:
            raise IndexOutOfRange(f"variable index {i} out of range for n={self.n}")
        p = self.p
        terms: dict[tuple[int, ...], int] = {}
        for e, c in self.terms.items():
            k = e[i]
            v = (c * k) % p
            if k == 0 or v == 0:
                continue
            e2 = e[:i] + (k - 1,) + e[i + 1 :]
            terms[e2] = v
        out = MultiPoly(self.p, self.n)
        out.terms = terms
        return out

    def shift_vars(self, offset: int, n_new: int) -> "MultiPoly":
        """Reinterpret with variables moved up by ``offset`` in an n_new ring."""
        if offset + self.n > n_new:
            raise ArityMismatch("shifted variables do not fit")
        pre = (0,) * offset
        post = (0,) * (n_new - offset - self.n)
        out = MultiPoly(self.p, n_new)
        out.terms = {pre + e + post: c for e, c in self.terms.items()}
        return out

    def monic(self) -> "MultiPoly":
        """Scale so the lex-leading coefficient is 1."""
        if not self.terms:
            raise ZeroInput("cannot normalize the zero polynomial")
        _, c = self.leading()
        if c == 1:
            return self
        return self * ff_inv(c, self.p)

    # -- display -------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"MultiPoly(p={self.p}, n={self.n}, {format_poly(self)!r})"


def poly_mul(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Exact product over F_p."""
    if f.p != g.p:
        raise ModulusMismatch(f"moduli differ: {f.p} vs {g.p}")
    if f.n != g.n:
        raise ArityMismatch(f"variable counts differ: {f.n} vs {g.n}")
    p = f.p
    terms: dict[tuple[int, ...], int] = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(map(add, e1, e2))
            v = (terms.get(e, 0) + c1 * c2) % p
            if v:
                terms[e] = v
            else:
                terms.pop(e, None)
    out = MultiPoly(f.p, f.n)
    out.terms = terms
    return out


def _exp_divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def poly_divmod(g: MultiPoly, f: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """Divide g by the single divisor f under lex order.

    Returns (quotient, remainder) with g = q*f + r and no term of r
    divisible by the leading term of f.  Since {f} is a Groebner basis
    of the principal ideal (f), r == 0 exactly when f divides g.
    """
    if f.is_zero:
        raise ZeroDivisor("division by the zero polynomial")
    g._check_compat(f)
    p = f.p
    lead_e, lead_c = f.leading()
    lead_inv = ff_inv(lead_c, p)
    work = dict(g.terms)
    quo: dict[tuple[int, ...], int] = {}
    rem: dict[tuple[int, ...], int] = {}
    while work:
        e = max(work)
        c = work.pop(e)
        if _exp_divides(lead_e, e):
            qe = tuple(map(sub, e, lead_e))
            qc = (c * lead_inv) % p
            quo[qe] = (quo.get(qe, 0) + qc) % p
            for fe, fc in f.terms.items():
                if fe == lead_e:
                    continue
                te = tuple(map(add, qe, fe))
                v = (work.get(te, 0) - qc * fc) % p
                if v:
                    work[te] = v
                else:
                    work.pop(te, None)
        else:
            rem[e] = c
    q = MultiPoly(f.p, f.n)
    q.terms = {e: c for e, c in quo.items() if c}
    r = MultiPoly(f.p, f.n)
    r.terms = rem
    return q, r


def divides(f: MultiPoly, g: MultiPoly) -> Optional[MultiPoly]:
    """Quotient q with g = q*f if f divides g, else None."""
    if f.is_zero:
        raise ZeroDivisor("divisibility by the zero polynomial is undefined")
    if g.is_zero:
        return MultiPoly.zero(f.p, f.n)
    df, dg = f.degree(), g.degree()
    if dg < df:
        return None
    q, r = poly_divmod(g, f)
    return q if r.is_zero else None


# ---------------------------------------------------------------------
# Univariate polynomials over F_p (minimal/characteristic polynomials).
# ---------------------------------------------------------------------


class UniPoly:
    """Dense univariate polynomial over F_p, coefficients ascending."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        self.p = p
        cs = [c % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = cs

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> Optional[int]:
        return len(self.coeffs) - 1 if self.coeffs else None

    def derivative(self) -> "UniPoly":
        return UniPoly(self.p, [(i * c) % self.p for i, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "UniPoly":
        if self.is_zero:
            raise ZeroInput("cannot normalize the zero polynomial")
        inv = ff_inv(self.coeffs[-1], self.p)
        return UniPoly(self.p, [(c * inv) % self.p for c in self.coeffs])

    def __eq__(self, other):
        return (
            isinstance(other, UniPoly)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.p, tuple(self.coeffs)))

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        if other.is_zero:
            raise ZeroDivisor("division by the zero polynomial")
        p = self.p
        rem = list(self.coeffs)
        d = other.degree()
        inv = ff_inv(other.coeffs[-1], p)
        # rem is trimmed, so rem[-1] leads
        while len(rem) > d:
            factor = (rem[-1] * inv) % p
            shift = len(rem) - 1 - d
            for i, c in enumerate(other.coeffs):
                rem[shift + i] = (rem[shift + i] - factor * c) % p
            while rem and rem[-1] == 0:
                rem.pop()
        return UniPoly(p, rem)

    def gcd(self, other: "UniPoly") -> "UniPoly":
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic() if not a.is_zero else a

    def __repr__(self):
        return f"UniPoly(p={self.p}, coeffs={self.coeffs})"


def squarefree(m: UniPoly) -> bool:
    """True iff m has no repeated roots over the algebraic closure.

    When m' == 0 with deg m > 0, m is a p-th power in characteristic p,
    so it is certainly not squarefree.
    """
    if m.is_zero:
        raise ZeroInput("squarefree test on the zero polynomial")
    if m.degree() == 0:
        return True
    dm = m.derivative()
    if dm.is_zero:
        return False
    return m.gcd(dm).degree() == 0


# ---------------------------------------------------------------------
# Text grammar: sum of terms; term = [int][*] factors; factor = name[^exp].
# ---------------------------------------------------------------------

_FACTOR_RE = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)(?:\^(\d+))?")
_COEFF_RE = re.compile(r"(\d+)")


def default_var_names(n: int) -> list[str]:
    return [f"x{i + 1}" for i in range(n)]


def parse_poly(text: str, p: int, n: int, var_names=None) -> MultiPoly:
    """Parse the polynomial grammar used by the CLI and JSON files."""
    names = list(var_names) if var_names is not None else default_var_names(n)
    if len(names) != n:
        raise ParseError(f"expected {n} variable names, got {len(names)}")
    index = {name: i for i, name in enumerate(names)}
    s = "".join(text.split())
    if not s:
        raise ParseError("empty polynomial text")
    result = MultiPoly.zero(p, n)
    pos = 0
    sign = 1
    if s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        pos = 1
    while pos < len(s):
        coeff = 1
        m = _COEFF_RE.match(s, pos)
        has_coeff = False
        if m:
            coeff = int(m.group(1))
            pos = m.end()
            has_coeff = True
        exps = [0] * n
        has_factor = False
        while pos < len(s):
            if s[pos] == "*":
                pos += 1
                continue
            m = _FACTOR_RE.match(s, pos)
            if not m:
                break
            name = m.group(1)
            if name not in index:
                raise ParseError(f"unknown variable {name!r}")
            e = int(m.group(2)) if m.group(2) else 1
            exps[index[name]] += e
            pos = m.end()
            has_factor = True
        if not (has_coeff or has_factor):
            raise ParseError(f"cannot parse term at position {pos} in {text!r}")
        result = result + MultiPoly.monomial(p, n, exps, sign * coeff)
        if pos == len(s):
            break
        if s[pos] == "+":
            sign = 1
        elif s[pos] == "-":
            sign = -1
        else:
            raise ParseError(f"unexpected character {s[pos]!r} in {text!r}")
        pos += 1
        if pos == len(s):
            raise ParseError(f"trailing sign in {text!r}")
    return result


def format_poly(f: MultiPoly, var_names=None) -> str:
    """Deterministic text form, terms in descending lex order."""
    if f.is_zero:
        return "0"
    names = list(var_names) if var_names is not None else default_var_names(f.n)
    parts = []
    for exps, c in sorted(f.terms.items(), reverse=True):
        factors = []
        for i, e in enumerate(exps):
            if e == 0:
                continue
            factors.append(names[i] if e == 1 else f"{names[i]}^{e}")
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append("*".join([str(c)] + factors))
    return " + ".join(parts)


def iter_projective_vectors(p: int, length: int) -> Iterator[tuple[int, ...]]:
    """One representative per projective class: first nonzero entry is 1."""
    for lead in range(length):
        prefix = (0,) * lead + (1,)
        for tail in itertools.product(range(p), repeat=length - lead - 1):
            yield prefix + tail
