import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poismodp import linalg, loz
from poismodp.catalog import catalog_form, potential_catalog
from poismodp.center import UNSTABLE_RANK_NOTE, bracket_matrices, center_oracle
from poismodp.deriv import Derivation, apply_derivation, euler
from poismodp.errors import (
    ArityMismatch,
    CapExceeded,
    DegreeBoundTooLarge,
    InternalCheckFailed,
    Limits,
    NotGraded,
    NotNormal,
    SearchSpaceTooLarge,
    ZeroElement,
)
from poismodp.fieldpoly import (
    MultiPoly,
    format_poly,
    iter_projective_vectors,
    monomials_of_degree,
    parse_poly,
    squarefree,
)
from poismodp.loz import (
    LozGroup,
    _representatives,
    _elementary_matrices,
    _semisimple_part,
    _digits,
    _log_images,
    _projective_vectors,
    _scan_division,
    _scan_eigenspaces,
    c_loz,
    decomposable_witness,
    enumerate_normal,
    is_inferable,
    is_poisson_normal,
    is_quasi_inferable,
    log_ozone_derivation,
    log_ozone_group,
    pder0_matrix_space,
    theorem212_check,
)
from poismodp.structure import (
    SkewMatrix,
    explicit_structure,
    from_potential,
    from_skew_matrix,
    tensor,
    trivial_structure,
)

from test_linalg import is_nilpotent
from test_structure import draw_cubic_potential, draw_skew, draw_structure


def jordan_plane(p):
    return explicit_structure(p, 2, {(0, 1): parse_poly("x1^2", p, 2)})


def two_lines(p):
    return from_potential(parse_poly("x1^2*x2 + x1*x2^2", p, 3))


def cube(p):
    return from_potential(parse_poly("x1^3", p, 3))


def skew_0cc(p, c):
    """{x1, x2} = 0, {x1, x3} = c x1 x3 and {x2, x3} = c x2 x3."""
    return from_skew_matrix(SkewMatrix.from_rows(p, [[0, 0, c], [0, 0, c], [-c, -c, 0]]))


# degrees of at most this many candidates are also scanned by
# `reference_scan`, whose MultiPoly tests take 20-50 us each
REFERENCE_CANDIDATES = 400


def reference_scan(s, d):
    """Reference for both graded scans that uses no numpy: `_log_images`
    of every projective candidate of degree d, in MultiPoly."""
    basis = monomials_of_degree(s.n, d)
    found = []
    for coeffs in iter_projective_vectors(s.p, len(basis)):
        f = MultiPoly(s.p, s.n, {e: c for e, c in zip(basis, coeffs) if c})
        images = _log_images(s, f)
        if images is not None:
            found.append((f.key(), Derivation(s.p, s.n, images).key()))
    return found


def assert_paths_agree(s, degrees):
    """The division scan and the eigenspace scan find the same
    (element, derivation) pairs at each degree, each pair once, and so
    does `reference_scan` where it is cheap."""
    pder0 = pder0_matrix_space(s)
    for d in degrees:
        division = keys(_scan_division(s, d, Limits()))
        assert len(set(division)) == len(division), d
        assert set(division) == set(keys(_scan_eigenspaces(s, d, pder0, Limits()))), d
        if (s.p ** math.comb(d + s.n - 1, d) - 1) // (s.p - 1) <= REFERENCE_CANDIDATES:
            assert division == reference_scan(s, d), d


def per_row_value_scan(s, d, pder0):
    """Reference for `_scan_eigenspaces` without limits: one `nullspace`
    per row value of each block, then one per surviving candidate."""
    p, n = s.p, s.n
    k = len(pder0)
    brackets = bracket_matrices(s, d)
    mults = linalg.multiplication_matrices(n, d)

    def block(b, rows):
        return ((b - np.tensordot(rows, mults, 1)) % p).reshape(-1, mults.shape[2])

    alive = np.ones(p**k, dtype=bool)
    for i in range(n):
        rows = pder0[:, i, :]
        cols = linalg.rref(rows, p)[1]
        codes = linalg.span(rows[:, cols], p) @ p ** np.arange(len(cols))
        _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
        dead = [u for u, row in enumerate(_digits(first, p, k) @ rows % p)
                if not linalg.nullspace(block(brackets[i], row), p)]
        alive &= ~np.isin(inverse, dead)
    found = []
    for g in np.flatnonzero(alive):
        D = np.tensordot(_digits(g, p, k), pder0, 1) % p
        kernel = linalg.nullspace(block(brackets, D), p)
        if kernel:
            delta = Derivation.from_matrix(p, D)
            for combo in iter_projective_vectors(p, len(kernel)):
                [f] = linalg.polys([np.array(combo) @ np.stack(kernel) % p], p, n, (d,))
                found.append((f.monic(), delta))
    return found


def skew3(p, upper):
    """The skew structure on 3 variables with upper triangle (c12, c13, c23)."""
    c12, c13, c23 = upper
    return from_skew_matrix(SkewMatrix.from_rows(
        p, [[0, c12, c13], [-c12, 0, c23], [-c13, -c23, 0]]))


# the 3x3 skew matrices of the loz_search benchmark workload for seed 1;
# (2, 0, 3) and (2, 2, 0) have k = 5 degree-0 Poisson derivations
LOZ_SKEW_UPPERS = ((2, 0, 3), (4, 4, 1), (0, 0, 1), (2, 2, 0), (3, 1, 1),
                   (3, 4, 0), (4, 1, 0), (4, 3, 0))


def keys(pairs):
    return [(f.key(), delta.key()) for f, delta in pairs]


class TestEigenspaceStacks:
    """The scan's stacked eliminations give the list the per-row-value
    kernels gave, element for element, whatever the chunk size."""

    @pytest.mark.parametrize(
        "s", [f.structure() for f in potential_catalog(5)]
        + [skew3(5, u) for u in LOZ_SKEW_UPPERS],
        ids=[f.label for f in potential_catalog(5)]
        + ["skew" + "".join(map(str, u)) for u in LOZ_SKEW_UPPERS])
    def test_matches_per_row_value_scan(self, s):
        pder0 = pder0_matrix_space(s)
        for d in (1, 2, 3):
            assert (keys(_scan_eigenspaces(s, d, pder0, Limits()))
                    == keys(per_row_value_scan(s, d, pder0))), d

    # a budget of 1 entry makes chunks of one matrix; 900 makes chunks of
    # two survivors at degree 3, whose 45 x 10 systems are eliminated as
    # 30 x dim K stacks on their row-0 kernels K; 1050 makes row-filter
    # chunks of seven 15 x 10 blocks there, so that the first of skew
    # (2, 2, 0), whose rows span 5, 25 and 25 values, holds values of
    # rows 0 and 1; 130 makes the division scan's chunks at degree 1
    # seven candidates of 3 x 6 remainders, two of which span two leads
    @pytest.mark.parametrize("budget", [1, 130, 900, 1050])
    def test_chunk_size_leaves_the_answer(self, monkeypatch, budget):
        structures = [cube(5), from_potential(parse_poly("2*x1*x2*x3", 5, 3)),
                      skew3(5, (2, 2, 0))]
        expected = [keys(enumerate_normal(s, 3)) for s in structures]
        assert len(pder0_matrix_space(structures[2])) == 5
        shapes = []
        rref_stack = linalg.rref_stack
        monkeypatch.setattr(
            linalg, "rref_stack", lambda a, p: shapes.append(a.shape) or rref_stack(a, p)
        )
        monkeypatch.setattr("poismodp.loz._STACK_ENTRIES", budget)
        assert [keys(enumerate_normal(s, 3)) for s in structures] == expected
        assert all(b == 1 or b * r * c <= budget for b, r, c in shapes)
        assert max(b for b, r, c in shapes if r == 30 and c <= 10) == max(1, budget // 450)


    def test_two_variables(self, monkeypatch):
        # n = 2: a survivor's system on its row-0 kernel K is the one
        # other block times K^T
        s = from_skew_matrix(SkewMatrix.from_rows(5, [[0, 2], [-2, 0]]))
        pder0 = pder0_matrix_space(s)
        assert_paths_agree(s, (1, 2, 3, 4))
        shapes = []
        kernels = loz._survivor_kernels

        def record(brackets, mults, D, K, dims, p):
            shapes.append((brackets.shape[1], K.shape[2], dims.max()))
            return kernels(brackets, mults, D, K, dims, p)

        monkeypatch.setattr("poismodp.loz._survivor_kernels", record)
        for d in (1, 2, 3, 4):
            assert (keys(_scan_eigenspaces(s, d, pder0, Limits()))
                    == keys(per_row_value_scan(s, d, pder0))), d
        assert [rows for rows, _, _ in shapes] == [3, 4, 5, 6]
        assert all(width <= columns for _, columns, width in shapes)

    def test_row_0_span_is_zero(self):
        # the diagonal derivations with x1 |-> 0: row 0 of every candidate
        # is 0, so row 0 has one value, whose block is ad_{x1} alone
        s = skew3(5, (2, 2, 0))
        pder0 = np.zeros((2, 3, 3), dtype=np.int64)
        pder0[0, 1, 1] = pder0[1, 2, 2] = 1

        def in_span(delta):
            m = delta.matrix() % 5
            return m[0, 0] == 0 and not (m - np.diag(np.diag(m))).any()

        for d in (1, 2, 3):
            found = keys(_scan_eigenspaces(s, d, pder0, Limits()))
            assert found == keys(per_row_value_scan(s, d, pder0)), d
            assert set(found) == {(f.key(), delta.key())
                                  for f, delta in _scan_division(s, d, Limits())
                                  if in_span(delta)}, d
            assert found, d  # x1^d, with x2, x3 |-> -2 x2, -2 x3 times d

    def test_one_chunk_of_several_kernel_dimensions(self, monkeypatch):
        # at degree 3 the 64 survivors of skew (2, 2, 0) have row-0 kernels
        # of dimension 1 to 4, padded with zero rows to 4 in one stack
        s = skew3(5, (2, 2, 0))
        pder0 = pder0_matrix_space(s)
        dims = []
        kernels = loz._survivor_kernels
        monkeypatch.setattr(
            "poismodp.loz._survivor_kernels",
            lambda brackets, mults, D, K, d, p: dims.append(d) or kernels(
                brackets, mults, D, K, d, p))
        assert (keys(_scan_eigenspaces(s, 3, pder0, Limits()))
                == keys(per_row_value_scan(s, 3, pder0)))
        [chunk] = dims
        assert len(chunk) == 64 and sorted(set(chunk.tolist())) == [1, 2, 3, 4]


class TestProjectiveVectors:
    """`_projective_vectors` gives `iter_projective_vectors`, row for row,
    in one array or in slices."""

    @pytest.mark.parametrize("p, length", [(2, 1), (2, 6), (3, 4), (5, 3), (7, 2)])
    def test_matches_iterator(self, p, length):
        expected = np.array(list(iter_projective_vectors(p, length)), dtype=np.int64)
        assert np.array_equal(_projective_vectors(p, length), expected)
        # slices of 7 rows, some across two leads, and one past the end
        parts = [_projective_vectors(p, length, slice(s, s + 7))
                 for s in range(0, len(expected), 7)]
        assert np.array_equal(np.concatenate(parts), expected)

    def test_slice_across_two_leads(self):
        # at p=3, length 3, the first 9 rows lead with 1 in position 0
        # and the next 3 with 1 in position 1
        assert _projective_vectors(3, 3, slice(7, 11)).tolist() == [
            [1, 2, 1], [1, 2, 2], [0, 1, 0], [0, 1, 1]]


class TestNormality:
    def test_example_normals(self):
        s = two_lines(5)
        assert is_poisson_normal(s, parse_poly("x1", 5, 3))
        assert is_poisson_normal(s, parse_poly("x2", 5, 3))
        assert is_poisson_normal(s, parse_poly("x1 + x2", 5, 3))
        assert not is_poisson_normal(s, parse_poly("x3", 5, 3))

    def test_central_is_normal(self):
        s = two_lines(5)
        assert is_poisson_normal(s, parse_poly("x1^5", 5, 3))

    def test_zero_rejected(self):
        with pytest.raises(ZeroElement):
            is_poisson_normal(two_lines(5), MultiPoly.zero(5, 3))

    def test_derivation_images(self):
        s = two_lines(5)
        d = log_ozone_derivation(s, parse_poly("x1", 5, 3))
        assert [format_poly(g) for g in d.images] == ["0", "0", "x1 + 2*x2"]
        d2 = log_ozone_derivation(s, parse_poly("x1^2*x2", 5, 3))
        assert [format_poly(g) for g in d2.images] == ["0", "0", "3*x2"]

    def test_jordan_derivation(self):
        s = jordan_plane(5)
        d = log_ozone_derivation(s, parse_poly("x1", 5, 2))
        assert [format_poly(g) for g in d.images] == ["0", "4*x1"]

    def test_not_normal_rejected(self):
        with pytest.raises(NotNormal):
            log_ozone_derivation(two_lines(5), parse_poly("x3", 5, 3))


def residual_pder0(s):
    """Reference for `pder0_matrix_space`: one residual polynomial per pair
    i < j and unknown D[a, b], (dh/dx_a) x_b - [a == i] {x_b, x_j}
    - [a == j] {x_i, x_b} with h = {x_i, x_j}, read off by coeff_matrix."""
    p, n = s.p, s.n
    xs = s.gens()
    residuals = []
    for i in range(n):
        for j in range(i + 1, n):
            h = s.entry(i, j)
            coeff_polys = []
            for a in range(n):
                for b in range(n):
                    k = h.partial(a) * xs[b]
                    if a == i:
                        k = k - s.entry(b, j)
                    if a == j:
                        k = k - s.entry(i, b)
                    coeff_polys.append(k)
            residuals.append(coeff_polys)
    degrees = tuple(sorted({sum(e) for polys in residuals for k in polys for e in k.terms}))
    system = np.array([linalg.coeff_matrix(polys, n, degrees) for polys in residuals],
                      dtype=np.int64)
    return [v.reshape(n, n) for v in linalg.nullspace(system.reshape(-1, n * n), p)]


class TestPDer0Array:
    """`pder0_matrix_space` builds its system from the elementary
    derivations' matrices and the bracket's coefficient array; the basis
    is the residual formula's, vector for vector."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_residual_formula(self, data):
        p = data.draw(st.sampled_from([2, 3, 5, 7]))
        kind = data.draw(st.sampled_from(["skew", "cubic", "trivial", "other"]))
        if kind == "skew":
            s = draw_skew(data, p, data.draw(st.integers(1, 4)))
        elif kind == "cubic":
            s = draw_cubic_potential(data, p)
        elif kind == "trivial":
            s = trivial_structure(p, 1)
        else:  # Jordan plane, non-graded explicit, Ore, tensor, any potential
            s = draw_structure(data, p)
        basis = pder0_matrix_space(s)
        reference = residual_pder0(s)
        assert basis.shape == (len(reference), s.n, s.n)
        for m, ref in zip(basis, reference):
            assert np.array_equal(m, ref)

    def test_no_poly_arithmetic(self, monkeypatch):
        # the system comes from exponent arrays: no product, no partial
        s = from_skew_matrix(SkewMatrix.from_rows(
            5, [[0, 1, 2, 0], [-1, 0, 3, 4], [-2, -3, 0, 1], [0, -4, -1, 0]]))
        calls = []
        for name in ("__mul__", "__rmul__", "partial"):
            def counting(self, *args, _name=name, _f=getattr(MultiPoly, name)):
                calls.append(_name)
                return _f(self, *args)
            monkeypatch.setattr(MultiPoly, name, counting)
        _elementary_matrices.cache_clear()
        basis = pder0_matrix_space(s)
        assert calls == []
        assert len(basis) == len(residual_pder0(s))

    def test_elementary_matrices_read_only(self):
        m = _elementary_matrices(5, 3, (2,))
        assert m.shape == (9, 6, 6)
        with pytest.raises(ValueError):
            m[0, 0, 0] = 1
        assert _elementary_matrices(5, 3, (2,)) is m


class TestPDer0:
    def test_one_variable(self):
        # no pair i < j, so no equation: every x1 |-> c x1 is one
        s = explicit_structure(5, 1, {})
        assert pder0_matrix_space(s).tolist() == [[[1]]]

    def test_matches_brute_force(self):
        # every matrix in the space is a Poisson derivation and the
        # space has exactly p^dim members, checked by full enumeration
        import numpy as np

        from poismodp.deriv import Derivation, is_poisson_derivation

        fixtures = [
            jordan_plane(3),
            from_skew_matrix(SkewMatrix.from_rows(3, [[0, 1], [-1, 0]])),
            two_lines(3),
        ]
        for s in fixtures:
            basis = pder0_matrix_space(s)
            n = s.n
            count = 0
            for entries in itertools.product(range(s.p), repeat=n * n):
                mat = np.array(entries, dtype=np.int64).reshape(n, n)
                if is_poisson_derivation(s, Derivation.from_matrix(s.p, mat)):
                    count += 1
            assert count == s.p ** len(basis)
            for b in basis:
                assert is_poisson_derivation(s, Derivation.from_matrix(s.p, b))


class TestEnumerate:
    def test_two_var_skew_linears(self):
        s = from_skew_matrix(SkewMatrix.from_rows(5, [[0, 2], [-2, 0]]))
        pairs = enumerate_normal(s, 1)
        assert {format_poly(f) for f, _ in pairs} == {"x1", "x2"}

    def test_jordan_only_x1(self):
        pairs = enumerate_normal(jordan_plane(5), 1)
        assert {format_poly(f) for f, _ in pairs} == {"x1"}

    def test_cube_only_central(self):
        # at p=7, degree 3 takes the eigenspace scan over 7^6 candidates
        for p, dmax in ((5, 2), (7, 3)):
            pairs = enumerate_normal(cube(p), dmax)
            assert all(d.is_zero() for _, d in pairs)
            assert {format_poly(f) for f, _ in pairs} == set(["x1", "x1^2", "x1^3"][:dmax])

    def test_column_cap_before_any_degree(self, monkeypatch):
        # degree 99 is the first of more than 5000 columns at n = 3; at
        # degree 300 no degree is scanned before every width is checked
        def refuse(*args):
            raise AssertionError("degree scanned")

        monkeypatch.setattr("poismodp.loz._scan_eigenspaces", refuse)
        monkeypatch.setattr("poismodp.loz._scan_division", refuse)
        with pytest.raises(DegreeBoundTooLarge) as raised:
            enumerate_normal(cube(5), 300)
        assert str(raised.value) == "5050 columns at degree 99, cap is 5000"
        with pytest.raises(DegreeBoundTooLarge) as raised:
            enumerate_normal(cube(5), 2, Limits(columns=5))
        assert str(raised.value) == "6 columns at degree 2, cap is 5"

    def test_column_cap_on_the_filtration(self):
        # {x1, x2} = x1^3 is not graded: the scan takes the 6 monomials of
        # degree <= 2 at once
        s = explicit_structure(5, 2, {(0, 1): parse_poly("x1^3", 5, 2)})
        with pytest.raises(DegreeBoundTooLarge) as raised:
            enumerate_normal(s, 2, Limits(columns=5))
        assert str(raised.value) == "6 filtration columns, cap is 5"
        assert len(enumerate_normal(s, 2, Limits(columns=6))) > 0

    def test_cube_row_filter_work(self, monkeypatch):
        # the scan eliminates its row values and survivors as stacks, so
        # the only kernel is pder0_matrix_space's; each of the degrees 2
        # and 3 it scans takes one stack of all three rows' 255 values and
        # one of the survivors, 512 matrices in all, where an unpruned
        # scan would send every one of the 5^6 candidates through the
        # survivor stack
        calls, matrices = [], []
        nullspace, rref_stack = linalg.nullspace, linalg.rref_stack
        monkeypatch.setattr(
            linalg, "nullspace", lambda a, p: calls.append(1) or nullspace(a, p)
        )
        monkeypatch.setattr(
            linalg, "rref_stack",
            lambda a, p: matrices.append(len(a)) or rref_stack(a, p),
        )
        assert len(enumerate_normal(cube(5), 3)) == 3
        assert len(calls) == 1
        assert matrices == [255, 1, 255, 1]

    def test_paths_agree(self):
        # degree 3 at p=5 means 2.4M division candidates; cross-validate
        # the cheap degrees at p=5 and the full depth at p=3 instead.  The
        # cube and the skew bracket have more degree-0 Poisson derivations
        # than variables (k > n); at p=3 the cube's bracket is zero (k = 9),
        # and skew (0, 3, 3) would be too, so the skew case takes (0, 1, 1).
        for p, degrees, c in ((5, (1, 2), 3), (3, (1, 2, 3), 1)):
            for s in (two_lines(p), cube(p), skew_0cc(p, c)):
                assert_paths_agree(s, degrees)

    @pytest.mark.parametrize("s, degrees", [
        (from_skew_matrix(SkewMatrix.from_rows(2, [[0, 1], [1, 0]])), (1, 2, 3, 4)),
        (jordan_plane(2), (1, 2, 3, 4)),
        (trivial_structure(3, 2), (1, 2, 3)),  # k = n^2 = 4
        (trivial_structure(3, 3), (1, 2)),  # k = 9
        (explicit_structure(5, 2, {(0, 1): parse_poly("x2^2", 5, 2)}), (1, 2, 3)),
    ], ids=["skew-p2", "jordan-p2", "zero-n2", "zero-n3", "jordan-x2"])
    def test_paths_agree_on_edge_cases(self, s, degrees):
        assert_paths_agree(s, degrees)

    def test_division_lead_past_the_first_monomial(self):
        # {x1, x2} = x2^2: the normal elements are the powers of x2, whose
        # lead is the last monomial of its degree, met by the division
        # scan in a chunk of candidates with every lead; {x1, x2^3} =
        # 3 x2^4
        s = explicit_structure(5, 2, {(0, 1): parse_poly("x2^2", 5, 2)})
        pairs = enumerate_normal(s, 3)
        assert [format_poly(f) for f, _ in pairs] == ["x2", "x2^2", "x2^3"]
        assert [format_poly(g) for g in pairs[2][1].images] == ["3*x2", "0"]

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(st.data())
    def test_paths_agree_on_random_potentials(self, data):
        # one degree per example keeps the scans (29 524 division
        # candidates at p=3, degree 3) within the suite's time
        p = data.draw(st.sampled_from([3, 5]))
        coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=10, max_size=10))
        omega = MultiPoly(p, 3, dict(zip(monomials_of_degree(3, 3), coeffs)))
        d = data.draw(st.integers(1, 3 if p == 3 else 2))
        assert_paths_agree(from_potential(omega), (d,))

    def test_zero_bracket_keeps_direct_scan(self, monkeypatch):
        # k = 9 derivation candidates per degree: at p=7 the 7^9 exceed the
        # cap, and at p=5 the row filter's pass over 5^9 costs more than
        # dividing the 3906 candidates of degree 2
        def refuse(*args):
            raise AssertionError("eigenspace scan chosen")

        monkeypatch.setattr("poismodp.loz._scan_eigenspaces", refuse)
        for p in (5, 7):
            pairs = enumerate_normal(trivial_structure(p, 3), 2)
            assert len(pairs) == (p**3 - 1) // (p - 1) + (p**6 - 1) // (p - 1)

    def test_scan_checks_each_derivation(self, monkeypatch):
        # ThreeLines at p=5 takes the eigenspace scan at degrees 2 and 3.
        # Its elements stay normal when two pairs swap derivations, so
        # only a check against the derivation itself sees the swap.
        scan, swapped = _scan_eigenspaces, []

        def swap(struct, d, pder0, limits):
            batch = scan(struct, d, pder0, limits)
            first = batch[0][1].key()
            j = next(j for j, (_, delta) in enumerate(batch) if delta.key() != first)
            (f0, d0), (fj, dj) = batch[0], batch[j]
            batch[0], batch[j] = (f0, dj), (fj, d0)
            swapped.append(d)
            return batch

        monkeypatch.setattr("poismodp.loz._scan_eigenspaces", swap)
        with pytest.raises(InternalCheckFailed, match="not its own"):
            enumerate_normal(catalog_form(5, "ThreeLines").structure(), 3)
        assert swapped == [2]

    def test_division_scan_checks_each_derivation(self, monkeypatch):
        # ThreeLines at p=5 divides at degree 1, where x1, x2 and x3 are
        # normal with three different derivations; swapping two of them
        # leaves every element normal
        scan, swapped = _scan_division, []

        def swap(struct, d, limits):
            batch = scan(struct, d, limits)
            (f0, d0), (f1, d1) = batch[:2]
            assert d0 != d1
            batch[0], batch[1] = (f0, d1), (f1, d0)
            swapped.append(d)
            return batch

        monkeypatch.setattr("poismodp.loz._scan_division", swap)
        with pytest.raises(InternalCheckFailed, match="^division scan paired .* not its own"):
            enumerate_normal(catalog_form(5, "ThreeLines").structure(), 3)
        assert swapped == [1]

    def test_pder0_built_at_most_once(self, monkeypatch):
        # Cube at p=5 takes the eigenspace scan at degrees 2 and 3, and the
        # zero bracket at p=5 weighs k = 9 at degree 2 to divide there
        calls = []
        monkeypatch.setattr("poismodp.loz.pder0_matrix_space",
                            lambda s: calls.append(s) or pder0_matrix_space(s))
        for s, dmax in ((cube(5), 3), (trivial_structure(5, 3), 2)):
            calls.clear()
            enumerate_normal(s, dmax)
            assert calls == [s]

    def test_no_pder0_when_every_degree_divides(self, monkeypatch):
        # 40 candidates at degree 1 on 4 variables at p=3, within the
        # eigenspace scan's least cost (k >= 1): pder0 is never built
        def refuse(*args):
            raise AssertionError("pder0 built")

        monkeypatch.setattr("poismodp.loz.pder0_matrix_space", refuse)
        s = from_skew_matrix(SkewMatrix.from_rows(
            3, [[0, 1, 2, 0], [-1, 0, 1, 1], [-2, -1, 0, 1], [0, -1, -1, 0]]))
        pairs = enumerate_normal(s, 1)
        assert {format_poly(f) for f, _ in pairs} == {"x1", "x2", "x3", "x4"}

    def test_eigenspace_scan_memory(self):
        # the zero bracket on 3 variables at p=3 has k = 9 degree-0
        # derivations: the scan's row filter reads the candidates' digits
        # a chunk at a time, never the whole p^k x k table of them
        s = trivial_structure(3, 3)
        pder0 = pder0_matrix_space(s)
        k = len(pder0)
        assert k == 9
        tracemalloc.start()
        try:
            found = _scan_eigenspaces(s, 1, pder0, Limits())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(found) == 13  # every monic linear form, with delta = 0
        assert peak < 3**k * k * 8

    def test_row_filter_memory_at_p5(self):
        # 5^9 = 1 953 125 candidates: the filter holds one mask of them,
        # its codes are chunked and `dead` has p^rank entries; holding
        # p^k-long codes and np.unique's inverse, it peaked at 108 MiB
        s = trivial_structure(5, 3)
        pder0 = pder0_matrix_space(s)
        tracemalloc.start()
        try:
            found = _scan_eigenspaces(s, 1, pder0, Limits())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(found) == 31  # every monic linear form, with delta = 0
        direct = _scan_division(s, 1, Limits())
        assert {(f.key(), d.key()) for f, d in found} == {
            (f.key(), d.key()) for f, d in direct}
        assert peak < 32 * 2**20

    def test_search_cap(self):
        s = two_lines(5)
        with pytest.raises(SearchSpaceTooLarge):
            enumerate_normal(s, 3, Limits(candidates=2))

    def test_eigenspace_scan_counts_its_elements(self):
        # 5^4 = 625 derivation candidates fit the cap, but at degree 5 the
        # zero derivation's kernel is all of A_5: 3906 monic elements
        with pytest.raises(SearchSpaceTooLarge,
                           match="3906 normal elements at degree 5, cap is 1000"):
            enumerate_normal(trivial_structure(5, 2), 5, Limits(candidates=1000))

    def test_delta_consistency(self):
        s = two_lines(5)
        for f, d in enumerate_normal(s, 3):
            assert log_ozone_derivation(s, f) == d

    def test_nongraded_constant_allowed(self):
        p = 5
        bracket = MultiPoly.const(p, 2, 1)
        for a in (1, 2, 3):
            bracket = bracket * parse_poly(f"x1 + {a}*x2", p, 2)
        s = explicit_structure(p, 2, {(0, 1): bracket})
        pairs = enumerate_normal(s, 1)
        names = {format_poly(f) for f, _ in pairs}
        # constant terms are allowed inside candidates; bare constants are
        # skipped (their derivation is zero)
        assert names == {"x1 + x2", "x1 + 2*x2", "x1 + 3*x2"}


class TestGroupLaws:
    def test_product_rule_and_pth_power(self):
        s = two_lines(5)
        pairs = enumerate_normal(s, 2)
        for (f, df), (g, dg) in itertools.combinations(pairs, 2):
            fg = f * g
            assert is_poisson_normal(s, fg)
            assert log_ozone_derivation(s, fg) == df + dg
        for f, _ in pairs[:4]:
            assert log_ozone_derivation(s, f**5).is_zero()

    def test_homogeneous_bracket_scalar(self):
        # {f, g} = q f g for homogeneous normal f, g; the matrices commute
        s = two_lines(5)
        pairs = enumerate_normal(s, 2)
        for (f, df), (g, dg) in itertools.combinations(pairs, 2):
            prod = f * g
            br = s.bracket(f, g)
            if br.is_zero:
                continue
            from poismodp.fieldpoly import divides

            q = divides(prod, br)
            assert q is not None and q.is_constant()
        for (_, df), (_, dg) in itertools.combinations(pairs, 2):
            a, b = df.matrix(), dg.matrix()
            assert ((a @ b) % 5 == (b @ a) % 5).all()

    def test_group_elements_are_poisson_derivations(self):
        from poismodp.deriv import is_poisson_derivation

        s = two_lines(5)
        group = log_ozone_group(s, 2)
        for delta in group.elements:
            assert is_poisson_derivation(s, delta)
            assert delta.is_graded_degree_zero()

    def test_group_kills_central_elements(self):
        s = two_lines(5)
        group = log_ozone_group(s, 3)
        oracle = center_oracle(s, 6)
        for d, basis in oracle.graded_basis.items():
            for z in basis:
                for delta in group.elements:
                    assert apply_derivation(delta, z).is_zero

    def test_orders(self):
        assert log_ozone_group(two_lines(5), 3).order == 25
        assert log_ozone_group(jordan_plane(5), 3).order == 5
        assert log_ozone_group(
            from_skew_matrix(SkewMatrix.from_rows(5, [[0, 2], [-2, 0]])), 1
        ).order == 25

    def test_requires_graded(self):
        p = 5
        s = explicit_structure(p, 2, {(0, 1): parse_poly("x1^3", p, 2)})
        with pytest.raises(NotGraded):
            log_ozone_group(s, 1)

    def test_representatives_are_normal(self):
        # the witness search's blocks: group elements in ascending key
        # order, each with a normal element of degree <= max_degree
        s = two_lines(5)
        group = log_ozone_group(s, 2)
        blocks = _representatives(group, 10)
        keys = [delta.key() for delta, _ in blocks]
        assert keys == sorted(set(keys))
        assert len(blocks) > len(group.found)
        for delta, rep in blocks:
            assert rep is not None
            assert group.contains(delta) and rep.degree() <= 10
            if delta.is_zero():
                continue
            assert is_poisson_normal(s, rep)
            assert log_ozone_derivation(s, rep) == delta

    def test_tensor_group_multiplies(self):
        p = 3
        a = from_skew_matrix(SkewMatrix.from_rows(p, [[0, 1], [-1, 0]]))
        b = jordan_plane(p)
        assert log_ozone_group(tensor(a, b), 1).order == p**2 * p
        assert log_ozone_group(tensor(a, trivial_structure(p, 1)), 1).order == p**2


SKEW3_P5 = {
    "cyclic": [[0, 2, -2], [-2, 0, 2], [2, -2, 0]],
    "rank2": [[0, 2, 0], [-2, 0, 0], [0, 0, 0]],
    "generic": [[0, 1, 2], [-1, 0, 3], [-2, -3, 0]],
}


def p5_structure(name):
    if name in SKEW3_P5:
        return from_skew_matrix(SkewMatrix.from_rows(5, SKEW3_P5[name]))
    return next(f for f in potential_catalog(5) if f.label == name).structure()


def rank_loop_basis(struct, dmax):
    """Reference for the group basis: each derivation in the order the
    search meets it, kept when it raises the rank of those kept."""
    p, n = struct.p, struct.n
    basis, span = [], np.zeros((0, n * n), dtype=np.int64)
    seen = {Derivation.zero(p, n).key()}
    for f, delta in enumerate_normal(struct, dmax):
        if delta.key() in seen:
            continue
        seen.add(delta.key())
        grown = np.vstack([span, delta.matrix().reshape(-1)])
        if linalg.rank(grown, p) > len(basis):
            basis.append((delta, f))
            span = grown
    return basis


class TestGroupBasis:
    """One elimination over the derivations met keeps the same basis as
    a rank test per derivation."""

    def test_matches_rank_loop(self, rng):
        # skew brackets on 1 to 4 variables, and potentials of 1 to 3
        # cubic terms, whose groups are rarely trivial
        for _ in range(40):
            p = rng.choice([3, 5])
            if rng.random() < 0.5:
                n = rng.randint(1, 4)
                upper = {(i, j): rng.randrange(p) for i in range(n) for j in range(i + 1, n)}
                s = from_skew_matrix(SkewMatrix.from_upper(p, n, upper))
            else:
                terms = {e: rng.randrange(1, p) for e in
                         rng.sample(monomials_of_degree(3, 3), rng.randint(1, 3))}
                s = from_potential(MultiPoly(p, 3, terms))
            dmax = rng.randint(1, 2 if s.n <= 3 else 1)
            group = log_ozone_group(s, dmax)
            assert [(d.key(), f.key()) for d, f in group.basis] == \
                [(d.key(), f.key()) for d, f in rank_loop_basis(s, dmax)], s


class TestLazyGroup:
    """The group is held as its basis; the elements built on demand agree
    with the membership test on the basis."""

    @pytest.mark.parametrize(
        "name", [f.label for f in potential_catalog(5)] + sorted(SKEW3_P5)
    )
    def test_elements_agree_with_contains(self, name):
        s = p5_structure(name)
        group = log_ozone_group(s, 2)
        elements = group.elements
        assert len(elements) == group.order
        assert all(group.contains(e) for e in elements)
        eu = euler(s)
        assert group.contains(eu) == (eu in elements)
        z = MultiPoly.zero(5, 3)
        assert not group.contains(Derivation(5, 3, [parse_poly("x2^2 + x1", 5, 3), z, z]))
        assert not group.contains(Derivation.zero(7, 3))


class TestCLoz:
    def test_jordan_kernel(self):
        p = 5
        s = jordan_plane(p)
        group = log_ozone_group(s, 1)
        report = c_loz(s, group, 2 * p)
        # k[x1, x2^p]
        assert report.hilbert == [1 + d // p for d in range(2 * p + 1)]

    def test_contains_center(self):
        s = two_lines(5)
        group = log_ozone_group(s, 3)
        kernel = c_loz(s, group, 6)
        oracle = center_oracle(s, 6)
        assert all(k >= z for k, z in zip(kernel.hilbert, oracle.hilbert))

    def test_full_skew_equals_center(self):
        s = from_skew_matrix(SkewMatrix.from_rows(5, [[0, 2], [-2, 0]]))
        group = log_ozone_group(s, 1)
        assert c_loz(s, group, 10).hilbert == center_oracle(s, 10).hilbert

    def test_trivial_group_everything(self):
        s = trivial_structure(5, 2)
        group = log_ozone_group(s, 1)
        assert group.order == 1
        report = c_loz(s, group, 4)
        assert report.hilbert == [1, 2, 3, 4, 5]

    def test_rejects_a_basis_not_of_degree_zero(self):
        # x1 |-> x1^2 has no operator on A_d
        p = 5
        s = from_potential(parse_poly("x1^2*x2", p, 3))
        z = MultiPoly.zero(p, 3)
        delta = Derivation(p, 3, [parse_poly("x1^2", p, 3), z, z])
        group = LozGroup(p=p, n=3, search_bound=0, found={},
                         basis=[(delta, MultiPoly.const(p, 3, 1))])
        with pytest.raises(ArityMismatch):
            c_loz(s, group, 3)

    def test_column_cap(self):
        s = two_lines(5)
        group = log_ozone_group(s, 1)
        with pytest.raises(DegreeBoundTooLarge, match="6 columns at degree 2, cap is 5"):
            c_loz(s, group, 3, Limits(columns=5))

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(st.data())
    def test_contains_center_on_random_structures(self, data):
        # skew brackets on 2 or 3 variables, or cubic potentials
        p = data.draw(st.sampled_from([3, 5]))
        if data.draw(st.booleans()):
            n = data.draw(st.integers(2, 3))
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            upper = data.draw(st.lists(st.integers(0, p - 1), min_size=len(pairs),
                                       max_size=len(pairs)))
            s = from_skew_matrix(SkewMatrix.from_upper(p, n, dict(zip(pairs, upper))))
        else:
            coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=10, max_size=10))
            s = from_potential(MultiPoly(p, 3, dict(zip(monomials_of_degree(3, 3), coeffs))))
        kernel = c_loz(s, log_ozone_group(s, 1), p + 1)
        center = center_oracle(s, p + 1)
        for d, basis in center.graded_basis.items():
            span = kernel.graded_basis[d]
            both = linalg.coeff_matrix(span + basis, s.n, (d,))
            assert linalg.rank(both, p) == len(span), d


class TestPredicates:
    def test_three_lines_inferable(self):
        s = from_potential(parse_poly("2*x1*x2*x3", 5, 3))
        g = log_ozone_group(s, 1)
        assert is_inferable(s, g) and is_quasi_inferable(s, g)

    def test_square_line_not_quasi(self):
        s = from_potential(parse_poly("x1^2*x2", 5, 3))
        g = log_ozone_group(s, 1)
        assert not is_quasi_inferable(s, g)
        assert not is_inferable(s, g)

    def test_trivial_group_inferable(self):
        s = from_potential(parse_poly("x1^3 + x2^2*x3", 5, 3))
        g = log_ozone_group(s, 3)
        assert g.order == 1
        assert is_inferable(s, g)
        assert is_quasi_inferable(s, g)

    def test_line_conic2_not_quasi(self):
        s = from_potential(parse_poly("x1^2*x3 + x1*x2^2", 5, 3))
        g = log_ozone_group(s, 3)
        assert g.order == 5
        assert not is_quasi_inferable(s, g)

    def test_two_var_skew_quasi(self):
        s = from_skew_matrix(SkewMatrix.from_rows(5, [[0, 2], [-2, 0]]))
        g = log_ozone_group(s, 1)
        assert is_quasi_inferable(s, g)


def enumerated_predicates(s, group):
    """Inferable and quasi-inferable by testing all p^k group elements."""
    elements = group.elements
    assert len(elements) == group.order
    inferable = all(
        squarefree(linalg.minimal_polynomial(d.matrix(), s.p)) for d in elements)
    quasi = not any(
        is_nilpotent(d.matrix(), s.p) for d in elements if not d.is_zero())
    return inferable, quasi


def basis_predicates(s, group):
    """The predicates as the library decides them, with the p^k elements
    out of reach."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LozGroup, "elements", property(lambda g: pytest.fail("enumerated")))
        return is_inferable(s, group), is_quasi_inferable(s, group)


class TestPredicatesFromBasis:
    """The predicates read the k basis matrices; they agree with the
    enumeration of all p^k elements."""

    @pytest.mark.parametrize(
        "p,name", [(p, f.label) for p in (5, 7) for f in potential_catalog(p)])
    def test_catalog(self, p, name):
        s = next(f for f in potential_catalog(p) if f.label == name).structure()
        group = log_ozone_group(s, 2)
        assert basis_predicates(s, group) == enumerated_predicates(s, group)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_skew(self, data):
        p = data.draw(st.sampled_from([3, 5]))
        n = data.draw(st.integers(2, 4))
        upper = {(i, j): data.draw(st.integers(0, p - 1))
                 for i in range(n) for j in range(i + 1, n)}
        s = from_skew_matrix(SkewMatrix.from_upper(p, n, upper))
        group = log_ozone_group(s, 1)
        assert basis_predicates(s, group) == enumerated_predicates(s, group)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_semisimple_part(self, data):
        # the least exponent p^j agrees with p^lcm(1..n)
        p = data.draw(st.sampled_from([2, 3, 5]))
        n = data.draw(st.integers(1, 5))
        entries = st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n)
        b = np.array(data.draw(entries), dtype=np.int64).reshape(n, n)
        reference = linalg.mat_pow(b, p ** math.lcm(*range(1, n + 1)), p)
        assert (_semisimple_part(b, p) == reference).all()

    def test_non_commuting_basis(self):
        s = trivial_structure(3, 2)
        one = MultiPoly.const(3, 2, 1)
        basis = [(Derivation.from_matrix(3, m), one)
                 for m in ([[0, 1], [0, 0]], [[0, 0], [1, 0]])]
        group = LozGroup(p=3, n=2, search_bound=0, basis=basis, found={})
        for predicate in (is_inferable, is_quasi_inferable):
            with pytest.raises(InternalCheckFailed, match="does not commute"):
                predicate(s, group)

    def test_needs_graded_input_of_degree_zero(self):
        p = 5
        one = MultiPoly.const(p, 2, 1)
        graded = trivial_structure(p, 2)
        weighted = explicit_structure(p, 2, {(0, 1): parse_poly("x1^3", p, 2)})
        z = MultiPoly.zero(p, 2)
        square = Derivation(p, 2, [parse_poly("x1^2", p, 2), z])  # not of degree 0
        empty = LozGroup(p=p, n=2, search_bound=0, basis=[], found={})
        bad = LozGroup(p=p, n=2, search_bound=0, basis=[(square, one)], found={})
        for predicate in (is_inferable, is_quasi_inferable):
            with pytest.raises(NotGraded):
                predicate(weighted, empty)
            with pytest.raises(ArityMismatch):
                predicate(graded, bad)


class TestWitness:
    def test_two_lines_witness_found(self):
        s = two_lines(5)
        g = log_ozone_group(s, 3)
        rel = decomposable_witness(s, g, 10)
        assert rel is not None
        assert rel.total().is_zero
        assert len(rel.terms) >= 2
        deltas = [d.key() for _, d, _ in rel.terms]
        assert len(set(deltas)) == len(deltas)

    def test_cubic_relation_holds(self):
        p = 5
        omega = parse_poly("x1^2*x2 + x1*x2^2", p, 3)
        s = from_potential(omega)
        a, b = parse_poly("x1^2*x2", p, 3), parse_poly("x1*x2^2", p, 3)
        assert (-omega + a + b).is_zero
        da, db = log_ozone_derivation(s, a), log_ozone_derivation(s, b)
        assert not da.is_zero() and not db.is_zero() and da != db

    def test_skew_no_witness(self):
        s = from_skew_matrix(SkewMatrix.from_rows(5, [[0, 2], [-2, 0]]))
        g = log_ozone_group(s, 1)
        assert decomposable_witness(s, g, 10) is None

    def test_jordan_no_witness(self):
        s = jordan_plane(5)
        g = log_ozone_group(s, 2)
        assert decomposable_witness(s, g, 10) is None

    def test_center_column_cap(self):
        # the witness search solves the center itself, under the caps given
        s = two_lines(5)
        g = log_ozone_group(s, 1)
        with pytest.raises(DegreeBoundTooLarge, match="6 columns at degree 2, cap is 5"):
            decomposable_witness(s, g, 3, Limits(columns=5))

    def test_order_one_needs_no_center(self, monkeypatch):
        # one representative (1, for the zero derivation) cannot make a
        # relation: None without solving the center, after its cap check
        s = catalog_form(5, "Irr1").structure()
        g = log_ozone_group(s, 3)
        assert g.order == 1

        def refuse(*args):
            raise AssertionError("center computed")

        monkeypatch.setattr("poismodp.loz.center_oracle", refuse)
        assert decomposable_witness(s, g, 10) is None
        with pytest.raises(DegreeBoundTooLarge, match="6 columns at degree 2, cap is 5"):
            decomposable_witness(s, g, 3, Limits(columns=5))


class TestMaximalOrderReport:
    def test_two_var_skew(self):
        s = from_skew_matrix(SkewMatrix.from_rows(5, [[0, 2], [-2, 0]]))
        report = theorem212_check(s, 1, 10)
        assert report.order == 25 and report.rank == "25"
        assert report.inferable and report.conditions_hold

    def test_jordan_fails_conditions(self):
        s = jordan_plane(5)
        report = theorem212_check(s, 2, 15)
        assert report.order == 5
        assert report.rank == "25"
        assert report.conditions_hold is False

    @pytest.mark.parametrize("p, rank", [(5, "125/4"), (7, "343/5")])
    def test_unstable_rank_gives_no_verdict(self, p, rank):
        # ThreeLines is the cyclic skew bracket in disguise, with
        # rk_Z = p^2 = |loz|; at max_degree 2p the oracle's estimate is
        # non-integral and flagged unstable, so it decides nothing
        form = next(f for f in potential_catalog(p) if f.form_id == "ThreeLines")
        report = theorem212_check(form.structure(), 1, 2 * p)
        assert report.order == p**2 and report.inferable
        assert report.rank == rank and not report.rank_exact
        assert UNSTABLE_RANK_NOTE in report.notes
        assert report.conditions_hold is None

    def test_trivial_skew(self):
        s = from_skew_matrix(SkewMatrix.from_rows(3, [[0, 0, 0], [0, 0, 0], [0, 0, 0]]))
        report = theorem212_check(s, 1, 6)
        assert report.order == 1 and report.rank == "1"
        assert report.conditions_hold

    def test_skew_fixtures_consistent(self):
        for u in [(1, 0, 0), (1, 2, 3), (2, 2, 2)]:
            c = SkewMatrix.from_upper(5, 3, {(0, 1): u[0], (0, 2): u[1], (1, 2): u[2]})
            report = theorem212_check(from_skew_matrix(c), 1, 10)
            assert report.conditions_hold

    def test_limits_reach_every_engine(self):
        s = jordan_plane(5)
        with pytest.raises(SearchSpaceTooLarge, match="6 candidates at degree 1"):
            theorem212_check(s, 2, 15, Limits(candidates=5))
        with pytest.raises(DegreeBoundTooLarge, match="16 columns at degree 15"):
            theorem212_check(s, 2, 15, Limits(columns=15))
        skew = from_skew_matrix(SkewMatrix.from_rows(5, [[0, 0], [0, 0]]))
        with pytest.raises(CapExceeded, match="25 kernel vectors, cap is 24"):
            theorem212_check(skew, 1, 10, Limits(kernel=24))

    def test_non_graded_raises(self):
        s = explicit_structure(5, 2, {(0, 1): parse_poly("x1^3 + x2", 5, 2)})
        with pytest.raises(NotGraded):
            theorem212_check(s, 1, 10)

    def test_explicit_table_uses_oracle_rank(self):
        # same bracket as a skew structure but loaded as an explicit
        # table: the rank comes from the module-generator estimate and
        # the conditions still hold
        p = 5
        s = explicit_structure(p, 2, {(0, 1): parse_poly("2*x1*x2", p, 2)})
        report = theorem212_check(s, 1, 3 * p)
        assert not report.is_skew
        assert report.order == p**2
        assert report.rank == str(p**2) and report.rank_exact
        assert report.conditions_hold
