"""Replay of the worked examples that anchor this library.

Each check returns a list of mismatch descriptions (empty means pass).
The CLI's verify-fixtures command runs all of them; the test suite runs
them too, so the fixtures double as regression artifacts.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .catalog import (
    modular_potential_pipeline,
    potential_catalog,
    verify_expected_center,
)
from .center import (
    center_oracle,
    center_generators_skew,
    classify_skew3,
    find_beta,
    gorenstein_skew,
    gorenstein_via_theorem38,
    graded_span_dims,
    hilbert_skew,
    is_central,
    reduce_generators,
    skew_monoid,
)
from .deriv import Derivation, is_unimodular, modular_derivation
from .fieldpoly import MultiPoly, format_poly, parse_poly
from .loz import (
    c_loz,
    decomposable_witness,
    enumerate_normal,
    is_inferable,
    is_quasi_inferable,
    log_ozone_derivation,
    log_ozone_group,
)
from .structure import (
    SkewMatrix,
    explicit_structure,
    from_ore,
    from_potential,
    from_skew_matrix,
    tensor,
    trivial_structure,
)


def _expect(problems: list, cond: bool, message: str) -> None:
    if not cond:
        problems.append(message)


def check_skew_monoid_p3() -> list[str]:
    """The two 3x3 fixtures over F_3 and the 4x4 one without a beta."""
    problems: list[str] = []
    c1 = SkewMatrix.from_rows(3, [[0, 1, -1], [-1, 0, 1], [1, -1, 0]])
    m1 = skew_monoid(c1)
    # the cyclic example: (2,2,2) = (p-1)*(1,1,1) belongs to B as well
    _expect(problems, m1.B == [(0, 0, 0), (1, 1, 1), (2, 2, 2)],
            f"cyclic B-set mismatch: {m1.B}")
    gor1, wit1 = gorenstein_skew(m1)
    _expect(problems, gor1 and wit1 == (2, 2, 2), "cyclic fixture must be Gorenstein")
    _expect(problems, gorenstein_via_theorem38(m1) is True,
            "indicator criterion disagrees on the cyclic fixture")
    _expect(problems, find_beta(m1) == (1, 1, 1), "cyclic beta mismatch")
    rep1 = center_generators_skew(m1)
    names1 = {format_poly(g) for g in rep1.generators}
    _expect(problems, "x1*x2*x3" in names1, "x1*x2*x3 missing from cyclic generators")
    series1 = hilbert_skew(m1, 6)
    _expect(problems, series1.numerator == [1, 0, 0, 1, 0, 0, 1],
            f"cyclic numerator mismatch: {series1.numerator}")
    _expect(problems, series1.rank == "9", f"cyclic rank mismatch: {series1.rank}")

    c2 = SkewMatrix.from_rows(3, [[0, 1, 1], [-1, 0, -1], [-1, 1, 0]])
    m2 = skew_monoid(c2)
    _expect(problems, m2.B == [(0, 0, 0), (1, 1, 2), (2, 2, 1)],
            f"second B-set mismatch: {m2.B}")
    gor2, _ = gorenstein_skew(m2)
    _expect(problems, gor2 is False, "second fixture must not be Gorenstein")
    _expect(problems, gorenstein_via_theorem38(m2) is False,
            "indicator criterion disagrees on the second fixture")
    _expect(problems, find_beta(m2) == (1, 1, 2), "second beta mismatch")
    names2 = {format_poly(g) for g in center_generators_skew(m2).generators}
    _expect(problems, {"x1*x2*x3^2", "x1^2*x2^2*x3"} <= names2,
            f"second fixture generators mismatch: {sorted(names2)}")

    c4 = SkewMatrix.from_rows(
        3,
        [[0, 1, -1, -1], [-1, 0, 1, -1], [1, -1, 0, -1], [1, 1, 1, 0]],
    )
    m4 = skew_monoid(c4)
    expected_b4 = sorted(
        [
            (0, 0, 0, 0), (0, 1, 2, 2), (0, 2, 1, 1), (1, 0, 2, 1), (1, 1, 1, 0),
            (1, 2, 0, 2), (2, 0, 1, 2), (2, 1, 0, 1), (2, 2, 2, 0),
        ]
    )
    _expect(problems, m4.B == expected_b4, f"4x4 B-set mismatch: {m4.B}")
    _expect(problems, find_beta(m4) is None, "4x4 fixture must have no beta")
    _expect(problems, gorenstein_via_theorem38(m4) is None,
            "indicator criterion must be undecided on the 4x4 fixture")
    return problems


def check_regular_center_example() -> list[str]:
    """Skew [[0,a,0],[-a,0,0],[0,0,0]]: regular non-unimodular center."""
    problems: list[str] = []
    p, a = 5, 2
    c = SkewMatrix.from_rows(p, [[0, a, 0], [-a, 0, 0], [0, 0, 0]])
    m = skew_monoid(c)
    _expect(problems, m.B == [(0, 0, k) for k in range(p)], f"B mismatch: {m.B}")
    struct = from_skew_matrix(c)
    _expect(problems, not is_unimodular(struct), "fixture must not be unimodular")
    report = center_generators_skew(m)
    reduced = reduce_generators(p, 3, report.generators)
    _expect(problems,
            {format_poly(g) for g in reduced} == {"x1^5", "x2^5", "x3"},
            f"reduced generators mismatch: {[format_poly(g) for g in reduced]}")
    _expect(problems, classify_skew3(m) == "Case2a", "classification mismatch")
    series = hilbert_skew(m, 6)
    _expect(problems, series.rank == str(p**2), f"rank mismatch: {series.rank}")
    group = log_ozone_group(struct, 1)
    phi = modular_derivation(struct)
    _expect(problems, group.order == p**2, f"loz order mismatch: {group.order}")
    _expect(problems, group.contains(phi), "modular derivation missing from group")
    return problems


def check_jordan_plane() -> list[str]:
    """{x1,x2} = x1^2: center, log-ozone group, and joint kernel."""
    problems: list[str] = []
    p = 3
    struct = explicit_structure(p, 2, {(0, 1): parse_poly("x1^2", p, 2)})
    oracle = center_oracle(struct, 3 * p)
    expected, _ = graded_span_dims(
        p, 2, [parse_poly("x1^3", p, 2), parse_poly("x2^3", p, 2)], 3 * p
    )
    _expect(problems, oracle.hilbert == expected,
            f"center dims mismatch: {oracle.hilbert} vs {expected}")
    group = log_ozone_group(struct, 1)
    _expect(problems, group.order == p, f"group order mismatch: {group.order}")
    delta = log_ozone_derivation(struct, parse_poly("x1", p, 2))
    _expect(problems,
            [format_poly(g) for g in delta.images] == ["0", "2*x1"],
            f"delta_x1 mismatch: {[format_poly(g) for g in delta.images]}")
    kernel = c_loz(struct, group, 2 * p)
    expected_k, _ = graded_span_dims(
        p, 2, [parse_poly("x1", p, 2), parse_poly("x2^3", p, 2)], 2 * p
    )
    _expect(problems, kernel.hilbert == expected_k,
            f"joint-kernel dims mismatch: {kernel.hilbert}")
    _expect(problems, not is_quasi_inferable(struct, group),
            "Jordan plane must not be quasi-inferable")
    _expect(problems, decomposable_witness(struct, group, 2 * p) is None,
            "Jordan plane witness search must come up empty")
    return problems


def check_two_var_skew() -> list[str]:
    """{x1,x2} = c x1 x2: center k[x1^p, x2^p] and group of order p^2."""
    problems: list[str] = []
    p, cval = 5, 2
    struct = from_skew_matrix(SkewMatrix.from_rows(p, [[0, cval], [-cval, 0]]))
    x1, x2 = struct.gens()
    # {x1, x1^i x2^j} = j c x1^{i+1} x2^j
    for i, j in [(0, 1), (2, 3), (1, 0)]:
        f = x1**i * x2**j
        expected = (j * cval) * x1 ** (i + 1) * x2**j
        _expect(problems, struct.bracket(x1, f) == expected,
                f"monomial bracket mismatch at (i,j)=({i},{j})")
    oracle = center_oracle(struct, 2 * p)
    expected_dims, _ = graded_span_dims(
        p, 2, [x1**p, x2**p], 2 * p
    )
    _expect(problems, oracle.hilbert == expected_dims, "center dims mismatch")
    group = log_ozone_group(struct, 1)
    _expect(problems, group.order == p**2, f"group order mismatch: {group.order}")
    _expect(problems, is_inferable(struct, group), "skew plane must be inferable")
    kernel = c_loz(struct, group, 2 * p)
    _expect(problems, kernel.hilbert == oracle.hilbert,
            "joint kernel must equal the center degreewise")
    return problems


def check_example_two_lines_double() -> list[str]:
    """Omega = x1 x2 (x1 + x2) at p=5: derivations and the failed direct sum."""
    problems: list[str] = []
    p = 5
    omega = parse_poly("x1^2*x2 + x1*x2^2", p, 3)
    struct = from_potential(omega)
    _expect(problems, struct.entry(0, 1).is_zero, "{x1,x2} must vanish")
    _expect(problems,
            struct.entry(1, 2) == parse_poly("2*x1*x2 + x2^2", p, 3),
            "{x2,x3} mismatch")
    _expect(problems,
            struct.entry(2, 0) == parse_poly("x1^2 + 2*x1*x2", p, 3),
            "{x3,x1} mismatch")
    images = {
        "x1": "x1 + 2*x2",
        "x2": "3*x1 + 4*x2",         # -2 x1 - x2
        "x1 + x2": "x1 + 4*x2",      # x1 - x2
        "x1^2*x2": "3*x2",
        "x1*x2^2": "2*x1",           # -3 x1
    }
    for text, x3_image in images.items():
        f = parse_poly(text, p, 3)
        delta = log_ozone_derivation(struct, f)
        got = [format_poly(g) for g in delta.images]
        _expect(problems, got == ["0", "0", x3_image],
                f"delta_{{{text}}} mismatch: {got}")
    _expect(problems, omega == parse_poly("x1^2*x2", p, 3) + parse_poly("x1*x2^2", p, 3),
            "the defining cubic relation must hold")
    group = log_ozone_group(struct, 3)
    _expect(problems, group.order == p**2, f"group order mismatch: {group.order}")
    witness = decomposable_witness(struct, group, 2 * p)
    _expect(problems, witness is not None, "non-decomposability witness not found")
    oracle = center_oracle(struct, 2 * p)
    _expect(problems, any(f == omega for d in oracle.graded_basis.values() for f in d)
            or is_central(struct, omega), "potential must be central")
    return problems


def check_catalog_centers() -> list[str]:
    """Expected centers at p=5, including the documented SquareLine defect."""
    problems: list[str] = []
    p = 5
    for form in potential_catalog(p):
        ok = verify_expected_center(form, 12)
        if form.form_id == "SquareLine":
            # the expected-center table omits generators here: x1*x2^3 is
            # central but not in the claimed subalgebra (augmented check below).
            _expect(problems, not ok,
                    "SquareLine unexpectedly matches the claimed center")
            struct = form.structure()
            extra = parse_poly("x1*x2^3", p, 3)
            _expect(problems, is_central(struct, extra),
                    "x1*x2^3 must be central for SquareLine")
            dims, _ = graded_span_dims(
                p, 3, list(form.expected_center_gens) + [extra], 12
            )
            oracle = center_oracle(struct, 12)
            _expect(problems, oracle.hilbert == dims,
                    "augmented SquareLine generators must match the oracle")
        else:
            _expect(problems, ok, f"{form.label} center verification failed")
        _expect(problems, is_unimodular(form.structure()),
                f"{form.label} must be unimodular")
    return problems


def check_prop_4_9() -> list[str]:
    """Group orders and predicate flags for the five reducible potentials."""
    problems: list[str] = []
    p = 5
    expected = {
        "SquareLine": (p, False, False),
        "ThreeLines": (p**2, True, True),
        "TwoLinesDouble": (p**2, False, False),
        "LineConic1": (p, True, True),
        "LineConic2": (p, False, False),
    }
    for form in potential_catalog(p):
        if form.form_id not in expected:
            continue
        order, inferable, quasi = expected[form.form_id]
        struct = form.structure()
        group = log_ozone_group(struct, 3)
        _expect(problems, group.order == order,
                f"{form.form_id}: order {group.order} != {order}")
        _expect(problems, is_inferable(struct, group) == inferable,
                f"{form.form_id}: inferable flag mismatch")
        _expect(problems, is_quasi_inferable(struct, group) == quasi,
                f"{form.form_id}: quasi-inferable flag mismatch")
    return problems


def check_trivial_group_classification() -> list[str]:
    """loz = 0 exactly for the cube and the irreducible potentials (p=5)."""
    problems: list[str] = []
    p = 5
    for form in potential_catalog(p):
        group = log_ozone_group(form.structure(), 3)
        trivial = form.form_id in ("Cube", "Irr1", "Irr2", "Elliptic")
        _expect(problems, (group.order == 1) == trivial,
                f"{form.label}: group order {group.order}")
    return problems


def check_modular_pipeline() -> list[str]:
    """Potential recovery by twisting non-unimodular 3-variable fixtures."""
    problems: list[str] = []
    p, a = 5, 2
    skew = from_skew_matrix(
        SkewMatrix.from_rows(p, [[0, a, 0], [-a, 0, 0], [0, 0, 0]])
    )
    omega, verified = modular_potential_pipeline(skew)
    inv3 = pow(3, -1, p)
    _expect(problems, omega == parse_poly(f"{(a * inv3) % p}*x1*x2*x3", p, 3),
            f"skew pipeline potential mismatch: {format_poly(omega)}")
    _expect(problems, verified, "skew pipeline failed verification")

    extended = explicit_structure(p, 3, {(0, 1): parse_poly("x1^2", p, 3)})
    omega2, verified2 = modular_potential_pipeline(extended)
    _expect(problems, omega2 == parse_poly(f"{inv3}*x1^2*x3", p, 3),
            f"extended-plane potential mismatch: {format_poly(omega2)}")
    _expect(problems, verified2, "extended-plane pipeline failed verification")

    phi = modular_derivation(extended)
    group = log_ozone_group(extended, 3)
    _expect(problems, group.contains(phi),
            "modular derivation missing from the extended-plane group")
    return problems


def check_tensor_center() -> list[str]:
    """Center of a tensor product is the product of the factor centers."""
    problems: list[str] = []
    p = 3
    jordan = explicit_structure(p, 2, {(0, 1): parse_poly("x1^2", p, 2)})
    prod = tensor(jordan, jordan)
    oracle = center_oracle(prod, 2 * p)
    gens = [MultiPoly.variable(p, 4, i) ** p for i in range(4)]
    expected, _ = graded_span_dims(p, 4, gens, 2 * p)
    _expect(problems, oracle.hilbert == expected,
            f"tensor center dims mismatch: {oracle.hilbert} vs {expected}")
    group = log_ozone_group(prod, 1)
    _expect(problems, group.order == p * p,
            f"tensor group order mismatch: {group.order}")
    line = tensor(jordan, trivial_structure(p, 1))
    _expect(problems, log_ozone_group(line, 1).order == p,
            "adjoining a central line must not change the group")
    return problems


def check_ore_constructions() -> list[str]:
    """Poisson Ore extensions reproduce the named structures."""
    problems: list[str] = []
    p = 5
    base1 = trivial_structure(p, 1)
    alpha1 = Derivation.zero(p, 1)
    beta1 = Derivation(p, 1, [parse_poly("x1^2", p, 1)])
    jordan = from_ore(base1, alpha1, beta1)
    _expect(problems, jordan.table == {(0, 1): parse_poly("x1^2", p, 2)},
            "Ore construction of the Jordan plane mismatch")

    base2 = trivial_structure(p, 2)
    alpha2 = Derivation.zero(p, 2)
    beta2 = Derivation(
        p, 2,
        [parse_poly("-x1^2 - 2*x1*x2", p, 2), parse_poly("2*x1*x2 + x2^2", p, 2)],
    )
    ore = from_ore(base2, alpha2, beta2)
    target = from_potential(parse_poly("x1^2*x2 + x1*x2^2", p, 3))
    _expect(problems, ore.table == target.table,
            "Ore construction of the two-lines-double structure mismatch")
    _expect(problems,
            center_oracle(ore, 10).hilbert == center_oracle(target, 10).hilbert,
            "Ore and potential centers disagree")
    return problems


def check_toric_example() -> list[str]:
    """{x1,x2} = c x1^2, {x2,x3} = (2c+1) x1 x3: center and Gorenstein flags."""
    problems: list[str] = []
    p = 5
    for cval, lam, palin in [(1, 2, False), (4, 1, True)]:
        table = {
            (0, 1): parse_poly(f"{cval}*x1^2", p, 3),
            (1, 2): parse_poly(f"{(2 * cval + 1) % p}*x1*x3", p, 3),
        }
        struct = explicit_structure(p, 3, table)
        x1, x2, x3 = struct.gens()
        for i, j, k in [(0, 1, 0), (1, 2, 3), (2, 0, 1)]:
            f = x1**i * x2**j * x3**k
            expected = (j * cval) * x1 ** (i + 2) * x2 ** (j - 1) * x3**k if j else \
                MultiPoly.zero(p, 3)
            _expect(problems, struct.bracket(x1, f) == expected,
                    f"c={cval}: monomial bracket mismatch at {(i, j, k)}")
        # box representatives x1^i x3^(lam*i mod p), not literal powers
        gens = [x1**p, x2**p, x3**p]
        gens += [x1**i * x3 ** ((lam * i) % p) for i in range(1, p)]
        expected_dims, _ = graded_span_dims(p, 3, gens, 12)
        oracle = center_oracle(struct, 12)
        _expect(problems, oracle.hilbert == expected_dims,
                f"c={cval}: center dims mismatch")
        _expect(problems, oracle.numerator_palindromic == palin,
                f"c={cval}: palindromicity flag mismatch")
    return problems


def check_nongraded_example() -> list[str]:
    """{x1,x2} = (x1+x2)(x1+2x2)(x1+3x2) at p=5: independent derivations."""
    problems: list[str] = []
    p = 5
    scalars = [1, 2, 3]
    bracket = MultiPoly.const(p, 2, 1)
    for a in scalars:
        bracket = bracket * parse_poly(f"x1 + {a}*x2", p, 2)
    struct = explicit_structure(p, 2, {(0, 1): bracket})
    _expect(problems, not struct.graded, "fixture must not be graded")
    pairs = enumerate_normal(struct, 1)
    nonconstant = [(f, d) for f, d in pairs if f.degree() >= 1]
    expected = {format_poly(parse_poly(f"x1 + {a}*x2", p, 2)) for a in scalars}
    _expect(problems, {format_poly(f) for f, _ in nonconstant} == expected,
            f"normal linear forms mismatch: {[format_poly(f) for f, _ in nonconstant]}")
    deltas = [d for _, d in nonconstant]
    degrees = tuple(sorted({sum(e) for d in deltas for g in d.images for e in g.terms}))
    # column k: the coefficients of every image of deltas[k]
    mat = np.vstack([linalg.coeff_matrix([d.images[j] for d in deltas], 2, degrees)
                     for j in range(2)])
    _expect(problems, linalg.rank(mat, p) == len(deltas),
            "derivations must be F_p-independent")
    return problems


ALL_CHECKS = [
    ("skew-monoid-p3", check_skew_monoid_p3),
    ("regular-center-3x3", check_regular_center_example),
    ("jordan-plane", check_jordan_plane),
    ("two-var-skew", check_two_var_skew),
    ("two-lines-double", check_example_two_lines_double),
    ("catalog-centers", check_catalog_centers),
    ("reducible-potential-orders", check_prop_4_9),
    ("trivial-group-classification", check_trivial_group_classification),
    ("modular-pipeline", check_modular_pipeline),
    ("tensor-center", check_tensor_center),
    ("ore-constructions", check_ore_constructions),
    ("toric-3var", check_toric_example),
    ("nongraded-linear-factors", check_nongraded_example),
]


def run_all() -> list[tuple[str, list[str]]]:
    return [(name, fn()) for name, fn in ALL_CHECKS]
