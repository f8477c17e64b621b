"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
status lines.  Criterion 6 has a documented sub-case failure (strict
xfail): the expected center for the x1^2*x2 potential omits generators;
see the notes in that test.
"""

import itertools
import random

import pytest

from poismodp.catalog import potential_catalog, verify_expected_center
from poismodp.center import (
    center_generators_skew,
    center_oracle,
    classify_skew3,
    expand_over_pth_powers,
    hilbert_skew,
    is_central,
    skew_monoid,
    find_beta,
    gorenstein_skew,
    gorenstein_via_theorem38,
)
from poismodp.deriv import (
    apply_derivation,
    divergence,
    euler,
    is_unimodular,
    modular_derivation,
)
from poismodp.fieldpoly import divides, format_poly, parse_poly
from poismodp.loz import (
    c_loz,
    decomposable_witness,
    enumerate_normal,
    is_inferable,
    is_poisson_normal,
    is_quasi_inferable,
    log_ozone_derivation,
    log_ozone_group,
    theorem212_check,
)
from poismodp.structure import (
    SkewMatrix,
    explicit_structure,
    from_potential,
    from_skew_matrix,
)

from conftest import SEED, random_poly

PASS = "ACCEPTANCE {}: PASS - {}"


def upper3(p, u):
    return SkewMatrix.from_upper(p, 3, {(0, 1): u[0], (0, 2): u[1], (1, 2): u[2]})


def all_skew3(p):
    for u in itertools.product(range(p), repeat=3):
        yield u, upper3(p, u)


@pytest.fixture(scope="module")
def exhaustive_scan():
    """Shared exhaustive data for criteria 2-5: all 3x3 skew matrices
    over F_3 and F_5 with monoid data and oracle dimensions to 2p."""
    data = {}
    for p in (3, 5):
        rows = []
        for u, c in all_skew3(p):
            m = skew_monoid(c)
            series = hilbert_skew(m, 2 * p)
            struct = from_skew_matrix(c)
            oracle = center_oracle(struct, 2 * p)
            rows.append(
                {
                    "upper": u,
                    "matrix": c,
                    "monoid": m,
                    "series": series,
                    "oracle": oracle,
                    "unimodular": is_unimodular(struct),
                }
            )
        data[p] = rows
    return data


def test_criterion_1_monoid_fixtures():
    """Criterion 1: the F_3 box sets, verdicts, and center generators.

    The first box set necessarily contains (2,2,2) = (p-1)*(1,1,1)
    alongside the two commonly listed vectors: the lattice decomposition
    forces it, and x^(2,2,2) = (x1x2x3)^2 is visibly central.  The set
    is asserted in that corrected form; everything else is verbatim.
    """
    c1 = SkewMatrix.from_rows(3, [[0, 1, -1], [-1, 0, 1], [1, -1, 0]])
    m1 = skew_monoid(c1)
    assert m1.B == [(0, 0, 0), (1, 1, 1), (2, 2, 2)]
    gor1, wit1 = gorenstein_skew(m1)
    assert gor1 is True and wit1 == (2, 2, 2)
    gens1 = {format_poly(g) for g in center_generators_skew(m1).generators}
    assert "x1*x2*x3" in gens1

    c2 = SkewMatrix.from_rows(3, [[0, 1, 1], [-1, 0, -1], [-1, 1, 0]])
    m2 = skew_monoid(c2)
    assert m2.B == [(0, 0, 0), (1, 1, 2), (2, 2, 1)]
    gor2, _ = gorenstein_skew(m2)
    assert gor2 is False
    gens2 = {format_poly(g) for g in center_generators_skew(m2).generators}
    assert {"x1*x2*x3^2", "x1^2*x2^2*x3"} <= gens2
    print(PASS.format(1, "monoid engine reproduces the F_3 fixtures"))


def test_criterion_2_engine_agreement(exhaustive_scan):
    """Criterion 2: oracle vs monoid dimensions for all 152 matrices."""
    checked = 0
    for p, rows in exhaustive_scan.items():
        for row in rows:
            assert row["oracle"].hilbert == row["series"].coefficients, row["upper"]
            checked += 1
    assert checked == 27 + 125
    print(PASS.format(2, f"engines agree on all {checked} matrices up to degree 2p"))


def test_criterion_3_unimodular_gorenstein(exhaustive_scan):
    """Criterion 3: every unimodular matrix has a Gorenstein center."""
    count = 0
    for p, rows in exhaustive_scan.items():
        for row in rows:
            if row["unimodular"]:
                gor, witness = gorenstein_skew(row["monoid"])
                assert gor, row["upper"]
                assert witness == ((p - 1),) * 3
                count += 1
    assert count == 3 + 5
    print(PASS.format(3, f"all {count} unimodular matrices are Gorenstein"))


def test_criterion_4_classification(exhaustive_scan):
    """Criterion 4: Gorenstein iff classified, Case2c iff unimodular (p=5)."""
    counts = {}
    for row in exhaustive_scan[5]:
        label = classify_skew3(row["monoid"])
        counts[label] = counts.get(label, 0) + 1
        gor, _ = gorenstein_skew(row["monoid"])
        assert gor == (label != "NotGorenstein"), row["upper"]
        assert (label == "Case2c") == row["unimodular"], row["upper"]
    assert sum(counts.values()) == 125
    print(PASS.format(4, f"classification matches Gorenstein verdicts: {counts}"))


def test_criterion_5_indicator_criterion(exhaustive_scan):
    """Criterion 5: indicator criterion agrees whenever beta exists; the
    4x4 fixture has the full 9-element box and no beta."""
    for p, rows in exhaustive_scan.items():
        for row in rows:
            t38 = gorenstein_via_theorem38(row["monoid"])
            if t38 is not None:
                assert t38 == gorenstein_skew(row["monoid"])[0], row["upper"]
    c4 = SkewMatrix.from_rows(
        3, [[0, 1, -1, -1], [-1, 0, 1, -1], [1, -1, 0, -1], [1, 1, 1, 0]]
    )
    m4 = skew_monoid(c4)
    assert len(m4.B) == 9
    assert m4.B == sorted(
        [
            (0, 0, 0, 0), (0, 1, 2, 2), (0, 2, 1, 1), (1, 0, 2, 1), (1, 1, 1, 0),
            (1, 2, 0, 2), (2, 0, 1, 2), (2, 1, 0, 1), (2, 2, 2, 0),
        ]
    )
    assert find_beta(m4) is None
    print(PASS.format(5, "indicator criterion consistent; 4x4 fixture exact"))


@pytest.mark.parametrize(
    "label",
    [f.label for f in potential_catalog(5) if f.form_id != "SquareLine"],
)
def test_criterion_6_expected_centers(label):
    """Criterion 6: expected centers at p=5, D=12 (all forms but one)."""
    form = next(f for f in potential_catalog(5) if f.label == label)
    assert verify_expected_center(form, 12), label
    print(PASS.format(6, f"{label} center matches at D=12"))


@pytest.mark.xfail(
    strict=True,
    reason=(
        "expected center for the x1^2*x2 potential is missing generators: "
        "x1*x2^3 is central at p=5 (dim Z_4 = 1) but the claimed subalgebra "
        "k[x1^5,x2^5,x3^5,x1^2*x2] is zero in degree 4; verified "
        "independently via the Ore derivation route at p=5,7,11"
    ),
)
def test_criterion_6_squareline_as_stated():
    """Criterion 6, SquareLine sub-case, run exactly as stated."""
    form = next(f for f in potential_catalog(5) if f.form_id == "SquareLine")
    extra = parse_poly("x1*x2^3", 5, 3)
    struct = form.structure()
    print(
        "ACCEPTANCE 6 (SquareLine): FAILS as stated - counterexample "
        f"x1*x2^3 central={is_central(struct, extra)}, oracle dim Z_4="
        f"{center_oracle(struct, 4).hilbert[4]}, claimed subalgebra dim Z_4=0"
    )
    assert verify_expected_center(form, 12)


def test_criterion_7_small_characteristic_example():
    """Criterion 7: the p=3 two-lines-double center."""
    p = 3
    omega = parse_poly("x1^2*x2 + x1*x2^2", p, 3)
    struct = from_potential(omega)
    oracle = center_oracle(struct, 12)
    assert oracle.hilbert[3] == 5
    expected_basis = {
        parse_poly(t, p, 3).key()
        for t in ("x1^3", "x2^3", "x3^3", "x1^2*x2", "x1*x2^2")
    }
    assert {f.key() for f in oracle.graded_basis[3]} == expected_basis
    assert oracle.hilbert == expand_over_pth_powers([1, 0, 0, 2], 3, 3, 12)
    assert oracle.numerator == [1, 0, 0, 2]
    assert oracle.numerator_palindromic is False
    print(PASS.format(7, "p=3 center dims, numerator 1+2t^3, non-Gorenstein flag"))


def test_criterion_8_group_orders():
    """Criterion 8: log-ozone orders for the named fixtures."""
    p = 5
    skew2 = from_skew_matrix(SkewMatrix.from_rows(p, [[0, 2], [-2, 0]]))
    assert log_ozone_group(skew2, 1).order == p**2

    jordan = explicit_structure(p, 2, {(0, 1): parse_poly("x1^2", p, 2)})
    gj = log_ozone_group(jordan, 3)
    assert gj.order == p
    kernel = c_loz(jordan, gj, 2 * p)
    assert kernel.hilbert == [1 + d // p for d in range(2 * p + 1)]

    expected_orders = {
        "SquareLine": p,
        "ThreeLines": p**2,
        "TwoLinesDouble": p**2,
        "LineConic1": p,
        "LineConic2": p,
    }
    for form in potential_catalog(p):
        if form.form_id in expected_orders:
            group = log_ozone_group(form.structure(), 3)
            assert group.order == expected_orders[form.form_id], form.form_id
    print(PASS.format(8, "orders p^2, p (with C_loz), and (p, p^2, p^2, p, p)"))


def test_criterion_9_trivial_group_classification():
    """Criterion 9: trivial group exactly for the cube and irreducible
    potentials; modular derivation inside the group otherwise."""
    p = 5
    for form in potential_catalog(p):
        group = log_ozone_group(form.structure(), 3)
        expect_trivial = form.form_id in ("Cube", "Irr1", "Irr2", "Elliptic")
        assert (group.order == 1) == expect_trivial, form.label

    fixtures = [
        from_skew_matrix(SkewMatrix.from_rows(p, [[0, 2, 0], [-2, 0, 0], [0, 0, 0]])),
        explicit_structure(p, 3, {(0, 1): parse_poly("x1^2", p, 3)}),
        explicit_structure(
            p, 3,
            {(0, 1): parse_poly("x1^2", p, 3), (1, 2): parse_poly("3*x1*x3", p, 3)},
        ),
    ]
    for struct in fixtures:
        assert not is_unimodular(struct)
        assert log_ozone_group(struct, 3).contains(modular_derivation(struct))
    print(PASS.format(9, "trivial-group classification and phi membership"))


class TestCriterion10Properties:
    """Criterion 10: seeded property suites, 1000 cases each."""

    CASES = 1000

    def _structures(self, p):
        return [
            from_skew_matrix(SkewMatrix.from_rows(p, [[0, 2], [-2, 0]])),
            explicit_structure(p, 2, {(0, 1): parse_poly("x1^2", p, 2)}),
            from_potential(parse_poly("x1^2*x2 + x1*x2^2", p, 3)),
            from_potential(parse_poly("2*x1*x2*x3", p, 3)),
        ]

    def test_leibniz_antisymmetry_jacobi(self):
        rng = random.Random(SEED)
        structures = self._structures(5)
        for k in range(self.CASES):
            s = structures[k % len(structures)]
            f = random_poly(rng, s.p, s.n, 3)
            g = random_poly(rng, s.p, s.n, 3)
            h = random_poly(rng, s.p, s.n, 2)
            assert s.bracket(f, g) == -s.bracket(g, f)
            assert s.bracket(f, g * h) == g * s.bracket(f, h) + h * s.bracket(f, g)
            assert s.check_jacobi()
        print(PASS.format("10a", f"Leibniz/antisymmetry/Jacobi x{self.CASES}"))

    def test_normal_element_laws(self):
        rng = random.Random(SEED + 1)
        structures = self._structures(5)
        pools = [(s, enumerate_normal(s, 2)) for s in structures]
        pools = [(s, pairs) for s, pairs in pools if pairs]
        for k in range(self.CASES):
            s, pairs = pools[k % len(pools)]
            f, df = pairs[rng.randrange(len(pairs))]
            g, dg = pairs[rng.randrange(len(pairs))]
            fg = f * g
            assert is_poisson_normal(s, fg)
            assert log_ozone_derivation(s, fg) == df + dg
            if k % 10 == 0:
                assert log_ozone_derivation(s, f**s.p).is_zero()
        print(PASS.format("10b", f"delta_(fg)=delta_f+delta_g, delta_(f^p)=0 x{self.CASES}"))

    def test_divergence_identity_on_catalog(self):
        rng = random.Random(SEED + 2)
        p = 5
        cases = 0
        pool = []
        for form in potential_catalog(p):
            struct = form.structure()
            deltas = [euler(struct)]
            deltas += [d for d, _ in log_ozone_group(struct, 2).basis]
            pool.append((form.omega, struct, deltas))
        while cases < self.CASES:
            omega, struct, deltas = pool[cases % len(pool)]
            delta = deltas[rng.randrange(len(deltas))]
            scaled = delta * rng.randrange(1, p)
            assert apply_derivation(scaled, omega) == divergence(scaled) * omega
            cases += 1
        print(PASS.format("10c", f"delta(Omega)=div(delta)*Omega x{self.CASES}"))

    def test_normal_pair_commutation(self):
        rng = random.Random(SEED + 3)
        structures = self._structures(5)
        pools = [(s, enumerate_normal(s, 2)) for s in structures]
        pools = [(s, pairs) for s, pairs in pools if len(pairs) >= 2]
        cases = 0
        while cases < self.CASES:
            s, pairs = pools[cases % len(pools)]
            f, df = pairs[rng.randrange(len(pairs))]
            g, dg = pairs[rng.randrange(len(pairs))]
            br = s.bracket(f, g)
            if not br.is_zero:
                q = divides(f * g, br)
                assert q is not None and q.is_constant()
            a, b = df.matrix(), dg.matrix()
            assert ((a @ b) % s.p == (b @ a) % s.p).all()
            cases += 1
        print(PASS.format("10d", f"{{f,g}}=q*fg and commuting matrices x{self.CASES}"))


def test_criterion_11_structural_predicates():
    """Criterion 11: witness for the failed direct sum, predicate table,
    and the maximal-order report."""
    p = 5
    two_lines = from_potential(parse_poly("x1^2*x2 + x1*x2^2", p, 3))
    group = log_ozone_group(two_lines, 3)
    witness = decomposable_witness(two_lines, group, 2 * p)
    assert witness is not None and len(witness.terms) >= 2
    assert witness.total().is_zero
    # the classical cubic relation holds and involves two distinct
    # nonzero derivations
    omega = parse_poly("x1^2*x2 + x1*x2^2", p, 3)
    a, b = parse_poly("x1^2*x2", p, 3), parse_poly("x1*x2^2", p, 3)
    assert (-omega + a + b).is_zero
    da = log_ozone_derivation(two_lines, a)
    db = log_ozone_derivation(two_lines, b)
    assert da != db and not da.is_zero() and not db.is_zero()

    flags = {
        "SquareLine": (False, False),
        "ThreeLines": (True, True),
        "TwoLinesDouble": (False, False),
        "LineConic1": (True, True),
        "LineConic2": (False, False),
    }
    for form in potential_catalog(p):
        if form.form_id not in flags:
            continue
        struct = form.structure()
        g = log_ozone_group(struct, 3)
        inf, quasi = flags[form.form_id]
        assert is_inferable(struct, g) == inf, form.form_id
        assert is_quasi_inferable(struct, g) == quasi, form.form_id

    for u in [(2, 0, 0), (1, 2, 3), (2, 2, 2), (0, 0, 1)]:
        struct = from_skew_matrix(upper3(p, u))
        report = theorem212_check(struct, 1, 2 * p)
        assert report.conditions_hold, u
    jordan = explicit_structure(p, 2, {(0, 1): parse_poly("x1^2", p, 2)})
    jr = theorem212_check(jordan, 2, 3 * p)
    assert jr.order == p and jr.rank == str(p**2) and jr.conditions_hold is False
    print(PASS.format(11, "witness found, predicate table, maximal-order report"))
