import pytest

from poismodp.catalog import (
    catalog_form,
    elliptic_lambdas,
    modular_potential_pipeline,
    potential_catalog,
    verify_div_identity,
    verify_expected_center,
)
from poismodp.center import center_oracle, graded_span_dims, is_central
from poismodp.deriv import Derivation, euler, is_unimodular, modular_derivation
from poismodp.errors import (
    AlreadyUnimodular,
    NotPoissonDerivation,
    SmallCharacteristic,
    WrongArity,
)
from poismodp.fieldpoly import MultiPoly, format_poly, parse_poly
from poismodp.loz import log_ozone_derivation, log_ozone_group
from poismodp.structure import (
    SkewMatrix,
    explicit_structure,
    from_potential,
    from_skew_matrix,
)


class TestCatalogContents:
    def test_form_count_p5(self):
        forms = potential_catalog(5)
        # 8 fixed forms plus Elliptic for each valid lambda
        assert len(forms) == 8 + len(elliptic_lambdas(5))
        assert elliptic_lambdas(5) == [0, 1, 2, 3]

    def test_form_count_p7(self):
        # lambda^3 = -1 has a solution set of size gcd(3, 6) = 3 in F_7
        assert len(elliptic_lambdas(7)) == 4

    def test_requires_p_gt_3(self):
        with pytest.raises(SmallCharacteristic):
            potential_catalog(3)

    def test_cube_expected_gens(self):
        form = catalog_form(5, "Cube")
        assert {format_poly(g) for g in form.expected_center_gens} == {
            "x1",
            "x2^5",
            "x3^5",
        }

    def test_three_lines_expected_gens_p7(self):
        form = catalog_form(7, "ThreeLines")
        assert {format_poly(g) for g in form.expected_center_gens} == {
            "x1^7",
            "x2^7",
            "x3^7",
            "2*x1*x2*x3",
        }

    def test_invalid_lambda_rejected(self):
        from poismodp.errors import PoisError

        with pytest.raises(PoisError):
            catalog_form(5, "Elliptic", lam=4)

    def test_all_forms_unimodular(self):
        for form in potential_catalog(5):
            assert is_unimodular(form.structure())

    def test_expected_gens_central(self):
        for form in potential_catalog(5):
            s = form.structure()
            assert all(is_central(s, g) for g in form.expected_center_gens)

    def test_reducibility_flags(self):
        flags = {f.form_id: f.reducible for f in potential_catalog(5)}
        assert flags == {
            "Cube": True,
            "SquareLine": True,
            "ThreeLines": True,
            "TwoLinesDouble": True,
            "LineConic1": True,
            "LineConic2": True,
            "Irr1": False,
            "Irr2": False,
            "Elliptic": False,
        }


class TestExpectedCenters:
    def test_cube(self):
        assert verify_expected_center(catalog_form(5, "Cube"), 10)

    def test_irr1(self):
        assert verify_expected_center(catalog_form(5, "Irr1"), 10)

    def test_square_line_known_defect(self):
        # the expected-center table omits generators here; x1*x2^3 is a
        # central element outside the claimed subalgebra
        form = catalog_form(5, "SquareLine")
        assert not verify_expected_center(form, 12)
        extra = parse_poly("x1*x2^3", 5, 3)
        s = form.structure()
        assert is_central(s, extra)
        dims, _ = graded_span_dims(
            5, 3, list(form.expected_center_gens) + [extra], 12
        )
        assert center_oracle(s, 12).hilbert == dims

    @pytest.mark.parametrize("p", [5, 7])
    def test_whole_catalog_by_dimensions(self, monkeypatch, p):
        # the check compares dimensions only: it never runs the oracle,
        # which reads every kernel back as polynomials, and gives the
        # verdict the oracle's Hilbert function gives
        forms = potential_catalog(p)
        verdicts = {f.label: center_oracle(f.structure(), 3 * p).hilbert
                    == graded_span_dims(p, 3, list(f.expected_center_gens), 3 * p)[0]
                    for f in forms}

        def refuse(*args):
            raise AssertionError("center_oracle called")

        monkeypatch.setattr("poismodp.catalog.center_oracle", refuse)
        monkeypatch.setattr("poismodp.center.center_oracle", refuse)
        for form in forms:
            expected = form.form_id != "SquareLine"
            assert verify_expected_center(form, 3 * p) is expected, form.label
            assert verdicts[form.label] is expected, form.label

    def test_two_lines_double_p3_fails_and_corrects(self):
        # at p = 3 the generic answer fails; the five cubic generators work
        p = 3
        omega = parse_poly("x1^2*x2 + x1*x2^2", p, 3)
        s = from_potential(omega)
        generic = [parse_poly(t, p, 3) for t in ("x1^3", "x2^3", "x3^3")] + [omega]
        generic_dims, _ = graded_span_dims(p, 3, generic, 12)
        corrected = [
            parse_poly(t, p, 3)
            for t in ("x1^3", "x2^3", "x3^3", "x1^2*x2", "x1*x2^2")
        ]
        corrected_dims, _ = graded_span_dims(p, 3, corrected, 12)
        oracle = center_oracle(s, 12)
        assert oracle.hilbert != generic_dims
        assert oracle.hilbert == corrected_dims


class TestCatalogSeries:
    def test_jacobi_on_all_forms(self):
        for form in potential_catalog(5):
            assert form.structure().check_jacobi(), form.label

    def test_palindromic_numerators_at_3p(self):
        # necessary-condition check on every catalog center at D = 3p;
        # SquareLine is excluded because its true center is genuinely
        # not Gorenstein (box {(0,0),(2,1),(4,2),(1,3),(3,4)} has no
        # maximal element), numerator 1+t^3+t^4+t^6+t^7
        p = 5
        for form in potential_catalog(p):
            oracle = center_oracle(form.structure(), 3 * p)
            if form.form_id == "SquareLine":
                assert oracle.numerator == [1, 0, 0, 1, 1, 0, 1, 1]
                assert oracle.numerator_palindromic is False
            else:
                assert oracle.numerator_palindromic is True, form.label

    def test_small_characteristic_numerator_flagged(self):
        p = 3
        s = from_potential(parse_poly("x1^2*x2 + x1*x2^2", p, 3))
        oracle = center_oracle(s, 3 * p)
        assert oracle.numerator == [1, 0, 0, 2]
        assert oracle.numerator_palindromic is False


class TestCrossPrimeOrders:
    def test_orders_at_p7(self):
        # the p=5 acceptance table generalizes verbatim to p=7
        # (Cube omitted: its 6-dimensional derivation space makes the
        # scan disproportionately slow for a routine suite)
        p = 7
        expected = {
            "SquareLine": p,
            "ThreeLines": p**2,
            "TwoLinesDouble": p**2,
            "LineConic1": p,
            "LineConic2": p,
            "Irr1": 1,
            "Irr2": 1,
        }
        for fid, order in expected.items():
            form = catalog_form(p, fid)
            assert log_ozone_group(form.structure(), 3).order == order, fid

    def test_pipeline_at_p7(self):
        p, a = 7, 3
        s = from_skew_matrix(
            SkewMatrix.from_rows(p, [[0, a, 0], [-a, 0, 0], [0, 0, 0]])
        )
        omega, verified = modular_potential_pipeline(s)
        assert verified
        assert omega == ((a * pow(3, -1, p)) % p) * parse_poly("x1*x2*x3", p, 3)


class TestDivergenceIdentity:
    def test_euler_on_all_forms(self):
        for form in potential_catalog(5):
            s = form.structure()
            assert verify_div_identity(s, euler(s))

    def test_group_derivation(self):
        s = from_potential(parse_poly("x1^2*x2 + x1*x2^2", 5, 3))
        d = log_ozone_derivation(s, parse_poly("x1", 5, 3))
        assert verify_div_identity(s, d)

    def test_zero_derivation(self):
        s = from_potential(parse_poly("2*x1*x2*x3", 5, 3))
        assert verify_div_identity(s, Derivation.zero(5, 3))

    def test_rejects_non_poisson(self):
        s = from_potential(parse_poly("2*x1*x2*x3", 5, 3))
        bad = Derivation(5, 3, [parse_poly("x2", 5, 3)] + [MultiPoly.zero(5, 3)] * 2)
        with pytest.raises(NotPoissonDerivation):
            verify_div_identity(s, bad)

    def test_rejects_non_potential(self):
        s = from_skew_matrix(SkewMatrix.from_rows(5, [[0, 1], [-1, 0]]))
        with pytest.raises(WrongArity):
            verify_div_identity(s, euler(s))


class TestPipeline:
    def test_skew_example(self):
        p, a = 5, 2
        s = from_skew_matrix(
            SkewMatrix.from_rows(p, [[0, a, 0], [-a, 0, 0], [0, 0, 0]])
        )
        omega, verified = modular_potential_pipeline(s)
        coeff = (a * pow(3, -1, p)) % p
        assert omega == coeff * parse_poly("x1*x2*x3", p, 3)
        assert verified
        phi = modular_derivation(s)
        assert log_ozone_derivation(s, omega) == phi

    def test_extended_jordan(self):
        p = 5
        s = explicit_structure(p, 3, {(0, 1): parse_poly("x1^2", p, 3)})
        omega, verified = modular_potential_pipeline(s)
        assert omega == pow(3, -1, p) * parse_poly("x1^2*x3", p, 3)
        assert verified

    def test_unimodular_rejected(self):
        s = from_potential(parse_poly("2*x1*x2*x3", 5, 3))
        with pytest.raises(AlreadyUnimodular):
            modular_potential_pipeline(s)

    def test_small_characteristic_rejected(self):
        s = from_skew_matrix(
            SkewMatrix.from_rows(3, [[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
        )
        with pytest.raises(SmallCharacteristic):
            modular_potential_pipeline(s)

    def test_wrong_arity_rejected(self):
        s = explicit_structure(5, 2, {(0, 1): parse_poly("x1^2", 5, 2)})
        with pytest.raises(WrongArity):
            modular_potential_pipeline(s)

    def test_exhaustive_nonunimodular_skew_p5(self):
        # every non-unimodular 3x3 skew structure either recovers a
        # verified potential or twists to the trivial bracket; in both
        # cases the modular derivation lies in the log-ozone group
        # (phi = sum_j delta_{x_j} for skew structures)
        import itertools

        p = 5
        verified_count = degenerate_count = 0
        for u in itertools.product(range(p), repeat=3):
            c = SkewMatrix.from_upper(p, 3, {(0, 1): u[0], (0, 2): u[1], (1, 2): u[2]})
            s = from_skew_matrix(c)
            if is_unimodular(s):
                continue
            omega, verified = modular_potential_pipeline(s)
            if verified:
                verified_count += 1
            else:
                assert omega.is_zero
                degenerate_count += 1
                group = log_ozone_group(s, 1)
                assert group.contains(modular_derivation(s))
        assert verified_count == 96
        assert degenerate_count == 24

    def test_phi_in_group_for_nonunimodular_fixtures(self):
        p = 5
        fixtures = [
            from_skew_matrix(
                SkewMatrix.from_rows(p, [[0, 2, 0], [-2, 0, 0], [0, 0, 0]])
            ),
            explicit_structure(p, 3, {(0, 1): parse_poly("x1^2", p, 3)}),
            explicit_structure(
                p,
                3,
                {
                    (0, 1): parse_poly("x1^2", p, 3),
                    (1, 2): parse_poly("3*x1*x3", p, 3),
                },
            ),
        ]
        for s in fixtures:
            assert not is_unimodular(s)
            phi = modular_derivation(s)
            group = log_ozone_group(s, 3)
            assert group.contains(phi)
