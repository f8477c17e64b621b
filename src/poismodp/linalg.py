"""Dense exact linear algebra mod p on numpy int64 matrices.

Entries are kept reduced in [0, p).  Everything here is deterministic:
pivots are chosen first-nonzero top-down, nullspace vectors follow the
free columns in ascending order.

Polynomials and matrices on a monomial basis meet only here:
`coeff_matrix` and `derivation_matrix` fill matrices from polynomial
terms, and `vec_to_poly` reads a vector back.
"""

from __future__ import annotations

from operator import add

import numpy as np

from .errors import DegreeOverflow, InternalCheckFailed, ZeroInput
from .fieldpoly import DEGREE_CAP, MultiPoly, UniPoly, ff_inv


def coeff_matrix(polys, basis) -> np.ndarray:
    """Column k holds the coefficients of polys[k] on the monomial basis."""
    index = {e: r for r, e in enumerate(basis)}
    m = np.zeros((len(basis), len(polys)), dtype=np.int64)
    for k, f in enumerate(polys):
        for e, c in f.terms.items():
            m[index[e], k] = c
    return m


def derivation_matrix(images, src, tgt) -> np.ndarray:
    """Matrix of the derivation x_j |-> images[j] from span(src) into
    span(tgt), computed on exponents:
    delta(x^e) = sum_j e_j x^(e - eps_j) images[j].

    Like the MultiPoly arithmetic it replaces, it raises DegreeOverflow
    for a source monomial or a nonzero image term above DEGREE_CAP.
    """
    for e in src:
        if sum(e) > DEGREE_CAP:
            raise DegreeOverflow(f"term degree {sum(e)} exceeds cap {DEGREE_CAP}")
    index = {e: r for r, e in enumerate(tgt)}
    m = np.zeros((len(tgt), len(src)), dtype=np.int64)
    for j, g in enumerate(images):
        if g.is_zero:
            continue
        # exponent shift g_e - eps_j per term of g; (row, column) pairs
        # are then distinct for this j
        shifts = [
            (tuple(a - (i == j) for i, a in enumerate(ge)), c)
            for ge, c in g.terms.items()
        ]
        added = g.degree() - 1
        rows, cols, vals = [], [], []
        for k, e in enumerate(src):
            ej = e[j] % g.p
            if not ej:
                continue
            if sum(e) + added > DEGREE_CAP:
                raise DegreeOverflow(
                    f"term degree {sum(e) + added} exceeds cap {DEGREE_CAP}"
                )
            for shift, c in shifts:
                rows.append(index[tuple(map(add, e, shift))])
                cols.append(k)
                vals.append(ej * c)
        m[rows, cols] = (m[rows, cols] + vals) % g.p
    return m


def vec_to_poly(v, p: int, n: int, basis) -> MultiPoly:
    terms = {}
    for k, e in enumerate(basis):
        c = int(v[k]) % p
        if c:
            terms[e] = c
    out = MultiPoly(p, n)
    out.terms = terms
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
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        pivot_row = r + int(nz[0])
        if pivot_row != r:
            m[[r, pivot_row]] = m[[pivot_row, r]]
        inv = ff_inv(int(m[r, c]), p)
        m[r] = (m[r] * inv) % p
        col = m[:, c].copy()
        col[r] = 0
        mask = col != 0
        if mask.any():
            m[mask] = (m[mask] - np.outer(col[mask], m[r])) % p
        pivots.append(c)
        r += 1
    return m, pivots


def rank(a: np.ndarray, p: int) -> int:
    if a.size == 0:
        return 0
    return len(rref(a, p)[1])


def nullspace(a: np.ndarray, p: int) -> list[np.ndarray]:
    """Basis of the right nullspace of a, one vector per free column."""
    rows, cols = a.shape
    if cols == 0:
        return []
    if rows == 0:
        return [_unit(cols, j) for j in range(cols)]
    m, pivots = rref(a, p)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = np.zeros(cols, dtype=np.int64)
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-int(m[r, fc])) % p
        basis.append(v)
    return basis


def _unit(length: int, j: int) -> np.ndarray:
    v = np.zeros(length, dtype=np.int64)
    v[j] = 1
    return v


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
    if a.size == 0:
        return not np.any(v % p)
    base = rank(a, p)
    return rank(np.vstack([a, v]), p) == base


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


def is_nilpotent(a: np.ndarray, p: int) -> bool:
    n = a.shape[0]
    return not np.any(mat_pow(a, n, p))


def minimal_polynomial(a: np.ndarray, p: int) -> UniPoly:
    """Monic minimal polynomial of a square matrix over F_p."""
    n = a.shape[0]
    if n == 0:
        raise ZeroInput("empty matrix has no minimal polynomial")
    powers = [np.eye(n, dtype=np.int64).reshape(-1)]
    cur = np.eye(n, dtype=np.int64)
    for _ in range(n):
        cur = mat_mul(cur, a, p)
        powers.append(cur.reshape(-1))
    for k in range(1, n + 1):
        # look for monic dependence: a^k = sum_{i<k} c_i a^i
        lhs = np.stack(powers[:k], axis=1)
        sol = solve(lhs, powers[k], p)
        if sol is not None:
            coeffs = [(-int(c)) % p for c in sol] + [1]
            return UniPoly(p, coeffs)
    raise InternalCheckFailed("minimal polynomial of degree <= n must exist")
