import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poismodp.deriv import Derivation
from poismodp.errors import NonPrimeModulus, ParseError, require_prime
from poismodp.fieldpoly import MultiPoly, monomials_upto_degree, parse_poly
from poismodp.serial import dump_algebra, load_algebra
from poismodp.structure import (
    SkewMatrix,
    from_ore,
    from_potential,
    from_skew_matrix,
    tensor,
)


def skew_obj():
    return {
        "schema": 1,
        "p": 3,
        "vars": ["x1", "x2", "x3"],
        "bracket": {"kind": "skew", "matrix": [[0, 1, -1], [-1, 0, 1], [1, -1, 0]]},
    }


class TestLoad:
    def test_skew(self):
        struct, names = load_algebra(skew_obj())
        assert struct.provenance.kind == "skew"
        assert names == ["x1", "x2", "x3"]
        expected = from_skew_matrix(
            SkewMatrix.from_rows(3, [[0, 1, -1], [-1, 0, 1], [1, -1, 0]])
        )
        assert struct.table == expected.table

    def test_potential(self):
        obj = {
            "p": 5,
            "bracket": {"kind": "potential", "omega": "x1^2*x2 + x1*x2^2"},
        }
        struct, _ = load_algebra(obj)
        assert struct.table == from_potential(
            parse_poly("x1^2*x2 + x1*x2^2", 5, 3)
        ).table

    def test_explicit(self):
        obj = {
            "p": 5,
            "vars": ["x1", "x2"],
            "bracket": {
                "kind": "explicit",
                "pairs": [{"i": 1, "j": 2, "value": "x1^2"}],
            },
        }
        struct, _ = load_algebra(obj)
        assert struct.entry(0, 1) == parse_poly("x1^2", 5, 2)
        obj["bracket"]["pairs"] = [{"i": 2, "j": 1, "value": "x1^2"}]
        with pytest.raises(ParseError, match="pair indices 2,1 out of range"):
            load_algebra(obj)

    def test_ore(self):
        obj = {
            "p": 5,
            "bracket": {
                "kind": "ore",
                "base": {
                    "p": 5,
                    "vars": ["x1"],
                    "bracket": {"kind": "explicit", "pairs": []},
                },
                "alpha": ["0"],
                "beta": ["x1^2"],
            },
        }
        struct, names = load_algebra(obj)
        assert struct.n == 2
        assert struct.entry(0, 1) == parse_poly("x1^2", 5, 2)
        assert names == ["x1", "x2"]
        obj["bracket"]["base"]["p"] = 3
        with pytest.raises(ParseError, match="ore base has a different modulus"):
            load_algebra(obj)

    def test_jacobi_violations_rejected_on_load(self):
        obj = {
            "p": 5,
            "vars": ["x1", "x2", "x3"],
            "bracket": {
                "kind": "explicit",
                "pairs": [
                    {"i": 1, "j": 2, "value": "x2"},
                    {"i": 2, "j": 3, "value": "x1"},
                ],
            },
        }
        from poismodp.errors import JacobiViolation

        with pytest.raises(JacobiViolation):
            load_algebra(obj)
        # there is no file-level way to skip the check
        obj["bracket"]["unchecked"] = True
        with pytest.raises(ParseError, match="unknown fields"):
            load_algebra(obj)

    def test_unknown_field_rejected(self):
        obj = skew_obj()
        obj["color"] = "blue"
        with pytest.raises(ParseError):
            load_algebra(obj)

    def test_unknown_bracket_field_rejected(self):
        obj = skew_obj()
        obj["bracket"]["extra"] = 1
        with pytest.raises(ParseError):
            load_algebra(obj)

    def test_bad_schema_rejected(self):
        obj = skew_obj()
        obj["schema"] = 2
        with pytest.raises(ParseError):
            load_algebra(obj)

    def test_nonprime_rejected(self):
        obj = skew_obj()
        obj["p"] = 6
        with pytest.raises(ParseError):
            load_algebra(obj)
        for p in (1, "5"):
            with pytest.raises(NonPrimeModulus):
                require_prime(p)

    def test_bad_kind_rejected(self):
        obj = skew_obj()
        obj["bracket"] = {"kind": "mystery"}
        with pytest.raises(ParseError):
            load_algebra(obj)
        with pytest.raises(ParseError, match="must be a JSON object"):
            load_algebra([])

    def test_var_count_mismatch(self):
        obj = skew_obj()
        obj["vars"] = ["x1", "x2"]
        with pytest.raises(ParseError):
            load_algebra(obj)


def explicit_obj():
    return {"p": 5, "vars": ["x1", "x2"],
            "bracket": {"kind": "explicit", "pairs": [{"i": 1, "j": 2, "value": "x1^2"}]}}


def ore_obj():
    return {"p": 5, "bracket": {
        "kind": "ore", "alpha": ["0"], "beta": ["x1^2"],
        "base": {"p": 5, "vars": ["x1"], "bracket": {"kind": "explicit", "pairs": []}}}}


def set_field(obj, path, value):
    *parents, key = path
    for k in parents:
        obj = obj[k]
    obj[key] = value
    return obj


# (object, path to a field, a value of the wrong JSON type)
WRONG_TYPES = [
    (skew_obj, ("bracket", "matrix"), 5),
    (skew_obj, ("bracket", "matrix"), [[0, 1.5, 0], [-1.5, 0, 0], [0, 0, 0]]),
    (skew_obj, ("bracket", "matrix"), [[0, True, 0], [-1, 0, 0], [0, 0, 0]]),
    (skew_obj, ("bracket", "matrix"), [0, 1, 2]),
    (skew_obj, ("bracket", "kind"), ["skew"]),
    (skew_obj, ("vars",), "x1 x2 x3"),
    (skew_obj, ("vars",), ["x1", 2, "x3"]),
    (skew_obj, ("bracket",), "skew"),
    (explicit_obj, ("bracket", "pairs"), {"i": 1}),
    (explicit_obj, ("bracket", "pairs", 0), [1, 2, "x1^2"]),
    (explicit_obj, ("bracket", "pairs", 0, "i"), "1"),
    (explicit_obj, ("bracket", "pairs", 0, "j"), 2.0),
    (explicit_obj, ("bracket", "pairs", 0, "value"), 1),
    (lambda: {"p": 5, "bracket": {"kind": "potential", "omega": "x1^3"}},
     ("bracket", "omega"), 5),
    (ore_obj, ("bracket", "alpha"), "0"),
    (ore_obj, ("bracket", "beta"), [2]),
    (ore_obj, ("bracket", "base"), [5]),
]


class TestFieldTypes:
    @pytest.mark.parametrize("make, path, value", WRONG_TYPES)
    def test_wrong_type_rejected(self, make, path, value):
        obj = make()
        load_algebra(obj)  # well-formed before the edit
        set_field(obj, path, value)
        with pytest.raises(ParseError):
            load_algebra(obj)

    @pytest.mark.parametrize("make, path", [
        (skew_obj, ("bracket", "matrix")),
        (explicit_obj, ("bracket", "pairs", 0, "value")),
        (ore_obj, ("bracket", "beta")),
    ])
    def test_missing_field_rejected(self, make, path):
        obj = make()
        del set_field(obj, path, None)[path[-1]]
        with pytest.raises(ParseError):
            load_algebra(obj)

    @pytest.mark.parametrize("key", ["alpha", "beta"])
    def test_ore_image_count(self, key):
        # the base has one variable, so each map needs one image
        obj = ore_obj()
        obj["bracket"][key] = ["0", "0"]
        with pytest.raises(ParseError, match=f"'{key}' needs 1 generator images"):
            load_algebra(obj)


class TestDuplicateNames:
    """A name given twice in 'vars' would make polynomial text ambiguous
    (the last one would win); equal Ore image strings are legitimate."""

    @pytest.mark.parametrize("make, path, names", [
        (explicit_obj, ("vars",), ["x", "x"]),
        (skew_obj, ("vars",), ["x1", "x2", "x1"]),
        (ore_obj, ("vars",), ["y", "y"]),
        (ore_obj, ("bracket", "base", "vars"), ["x1", "x1"]),
    ])
    def test_repeated_name_rejected(self, make, path, names):
        obj = make()
        set_field(obj, path, names)
        with pytest.raises(ParseError, match="repeats a name"):
            load_algebra(obj)

    def test_equal_ore_images_accepted(self):
        obj = ore_obj()
        obj["bracket"]["alpha"] = ["x1^2"]
        struct, names = load_algebra(obj)
        assert names == ["x1", "x2"]
        assert struct.entry(0, 1) == parse_poly("x1^2*x2 + x1^2", 5, 2)


class TestRoundtrip:
    def test_skew_roundtrip(self):
        struct, names = load_algebra(skew_obj())
        again, _ = load_algebra(dump_algebra(struct, names))
        assert again.table == struct.table

    def test_potential_roundtrip(self):
        struct = from_potential(parse_poly("x1^3 + x2^2*x3", 5, 3))
        again, _ = load_algebra(dump_algebra(struct))
        assert again.table == struct.table

    def test_explicit_roundtrip(self):
        obj = {
            "p": 5,
            "vars": ["x1", "x2"],
            "bracket": {
                "kind": "explicit",
                "pairs": [{"i": 1, "j": 2, "value": "x1^2"}],
            },
        }
        struct, names = load_algebra(obj)
        dumped = dump_algebra(struct, names)
        assert dumped["bracket"]["kind"] == "explicit"
        again, _ = load_algebra(dumped)
        assert again.table == struct.table

    def test_json_serializable(self):
        struct, names = load_algebra(skew_obj())
        json.dumps(dump_algebra(struct, names))


def draw_poly(draw, p, n, max_degree=3):
    terms = draw(st.dictionaries(st.sampled_from(monomials_upto_degree(n, max_degree)),
                                 st.integers(1, p - 1), max_size=3))
    return MultiPoly(p, n, terms)


def draw_skew(draw, p, n):
    upper = {(i, j): draw(st.integers(0, p - 1)) for i in range(n) for j in range(i + 1, n)}
    return from_skew_matrix(SkewMatrix.from_upper(p, n, upper))


@st.composite
def structures(draw):
    """Skew, potential, Ore and tensor structures on at most 5 variables."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    kind = draw(st.sampled_from(["skew", "potential", "ore", "tensor"]))
    if kind == "skew":
        return draw_skew(draw, p, draw(st.integers(1, 4)))
    if kind == "potential":
        return from_potential(draw_poly(draw, p, 3, 4))
    if kind == "tensor":
        return tensor(draw_skew(draw, p, draw(st.integers(1, 2))),
                      from_potential(draw_poly(draw, p, 3)))
    # a diagonal alpha is a Poisson derivation of a skew base, and
    # beta = 0 an alpha-derivation; on one variable any pair will do
    m = draw(st.integers(1, 3))
    base = draw_skew(draw, p, m)
    if m == 1:
        alpha = Derivation(p, 1, [draw_poly(draw, p, 1)])
        beta = Derivation(p, 1, [draw_poly(draw, p, 1)])
    else:
        diag = [draw(st.integers(0, p - 1)) for _ in range(m)]
        alpha = Derivation.from_matrix(
            p, [[a if i == j else 0 for j, _ in enumerate(diag)] for i, a in enumerate(diag)])
        beta = Derivation.zero(p, m)
    return from_ore(base, alpha, beta)


class TestRoundtripProperty:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(structures())
    def test_dump_load_dump(self, struct):
        dumped = dump_algebra(struct)
        again, names = load_algebra(json.loads(json.dumps(dumped)))
        assert again.table == struct.table
        assert names == dumped["vars"]
        if struct.provenance.kind in ("skew", "potential"):
            assert again.provenance.kind == struct.provenance.kind
        assert dump_algebra(again) == dumped
