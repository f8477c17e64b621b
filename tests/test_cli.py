import argparse
import itertools
import json
import os
import random

import pytest

from poismodp import cli
from poismodp.cli import (
    _matrix_from_upper,
    _orbit_codes,
    _survey_row,
    _upper_tuples,
    build_parser,
    main,
)
from poismodp.deriv import Derivation
from poismodp.errors import Limits
from poismodp.loz import LozGroup

from conftest import SEED


@pytest.fixture
def circulant_p3(tmp_path):
    path = tmp_path / "circulant_p3.json"
    path.write_text(
        json.dumps(
            {
                "schema": 1,
                "p": 3,
                "vars": ["x1", "x2", "x3"],
                "bracket": {
                    "kind": "skew",
                    "matrix": [[0, 1, -1], [-1, 0, 1], [1, -1, 0]],
                },
            }
        )
    )
    return str(path)


@pytest.fixture
def jordan_p3(tmp_path):
    path = tmp_path / "jordan_p3.json"
    path.write_text(
        json.dumps(
            {
                "schema": 1,
                "p": 3,
                "vars": ["x1", "x2"],
                "bracket": {
                    "kind": "explicit",
                    "pairs": [{"i": 1, "j": 2, "value": "x1^2"}],
                },
            }
        )
    )
    return str(path)


def run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestGorenstein:
    def test_circulant(self, capsys, circulant_p3):
        code, data = run_json(capsys, ["gorenstein", "--algebra", circulant_p3])
        assert code == 0
        assert data["gorenstein"] is True
        assert data["witness"] == [2, 2, 2]
        assert data["theorem38"] is True
        assert data["B"] == [[0, 0, 0], [1, 1, 1], [2, 2, 2]]

    def test_non_skew_rejected(self, capsys, jordan_p3):
        code = main(["gorenstein", "--algebra", jordan_p3])
        assert code == 2


class TestCenter:
    def test_oracle_jordan(self, capsys, jordan_p3):
        code, data = run_json(
            capsys,
            ["center", "--algebra", jordan_p3, "--max-degree", "6",
             "--engine", "oracle"],
        )
        assert code == 0
        assert data["hilbert"] == [1, 0, 0, 2, 0, 0, 3]

    def test_both_engines_agree(self, capsys, circulant_p3):
        code, data = run_json(
            capsys,
            ["center", "--algebra", circulant_p3, "--max-degree", "6",
             "--engine", "both"],
        )
        assert code == 0
        assert data["hilbert_agree"] is True
        assert data["monoid"]["hilbert"] == data["oracle"]["hilbert"]

    def test_monoid_requires_skew(self, capsys, jordan_p3):
        assert main(["center", "--algebra", jordan_p3, "--engine", "monoid"]) == 2

    def test_missing_file(self, capsys):
        assert main(["center", "--algebra", "/nonexistent.json"]) == 2

    def test_unchecked_field_rejected(self, capsys, tmp_path):
        # {x1,x2} = x2, {x2,x3} = x1 violates Jacobi; the file may not
        # ask to skip the check
        path = tmp_path / "not_poisson.json"
        path.write_text(json.dumps({
            "p": 5,
            "vars": ["x1", "x2", "x3"],
            "bracket": {
                "kind": "explicit",
                "unchecked": True,
                "pairs": [{"i": 1, "j": 2, "value": "x2"},
                          {"i": 2, "j": 3, "value": "x1"}],
            },
        }))
        assert main(["center", "--algebra", str(path)]) == 2
        assert "unchecked" in capsys.readouterr().err

    def test_deterministic_output(self, capsys, circulant_p3):
        argv = ["center", "--algebra", circulant_p3, "--max-degree", "6",
                "--engine", "both", "--format", "json"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second


class TestClassify:
    def test_single_matrix(self, capsys):
        code, data = run_json(
            capsys,
            ["classify-skew3", "--p", "5", "--matrix",
             "[[0,2,0],[-2,0,0],[0,0,0]]"],
        )
        assert code == 0
        assert data["case"] == "Case2a"

    def test_all(self, capsys):
        code, data = run_json(capsys, ["classify-skew3", "--p", "5", "--all"])
        assert code == 0
        assert data["counts"] == {
            "Case2a": 12,
            "Case2b": 12,
            "Case2c": 5,
            "NotGorenstein": 96,
        }
        assert data["mismatches"] == []

    def test_nonprime_rejected(self, capsys):
        assert main(["classify-skew3", "--p", "6", "--all"]) == 2


class TestLoz:
    def test_jordan(self, capsys, jordan_p3):
        code, data = run_json(
            capsys,
            ["loz", "--algebra", jordan_p3, "--normal-degree", "1",
             "--max-degree", "6", "--predicates"],
        )
        assert code == 0
        assert data["order"] == 3
        assert data["inferable"] is False
        assert data["quasi_inferable"] is False
        assert data["decomposable_witness"] is None
        assert data["c_loz_hilbert"] == [1, 1, 1, 2, 2, 2, 3]

    def test_generators_shape(self, capsys, circulant_p3):
        code, data = run_json(
            capsys,
            ["loz", "--algebra", circulant_p3, "--normal-degree", "1",
             "--max-degree", "3"],
        )
        assert code == 0
        assert data["order"] == 9
        assert all({"f", "images"} <= set(g) for g in data["generators"])

    def test_candidate_cap(self, capsys, circulant_p3):
        code = main(
            ["loz", "--algebra", circulant_p3, "--normal-degree", "3",
             "--cap-candidates", "2"]
        )
        assert code == 2

    def test_column_cap_reaches_predicates(self, capsys, circulant_p3):
        # c_loz and the decomposability search's center both solve up to
        # degree 3; degree 2 already needs 6 columns, so c_loz trips first
        code = main(
            ["loz", "--algebra", circulant_p3, "--normal-degree", "1",
             "--max-degree", "3", "--predicates", "--cap-columns", "5"]
        )
        assert code == 2
        assert "cap is 5" in capsys.readouterr().err

    def test_failed_self_check_exits_1(self, capsys, monkeypatch, tmp_path):
        # at degree 2 the search takes the eigenspace scan (pruned bound
        # 3*5^3 = 375 against 3906 projective quadrics), whose answers are
        # re-verified with is_poisson_normal
        path = tmp_path / "skew3_p5.json"
        path.write_text(json.dumps({
            "schema": 1, "p": 5,
            "bracket": {"kind": "skew",
                        "matrix": [[0, 1, 2], [-1, 0, 3], [-2, -3, 0]]},
        }))
        monkeypatch.setattr("poismodp.loz.is_poisson_normal", lambda s, f: False)
        code = main(["loz", "--algebra", str(path), "--normal-degree", "2"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: eigenspace scan produced a non-normal element")
        assert "Traceback" not in err


def skew2(tmp_path, p):
    path = tmp_path / f"skew2_p{p}.json"
    path.write_text(json.dumps({
        "schema": 1, "p": p, "bracket": {"kind": "skew", "matrix": [[0, 1], [-1, 0]]},
    }))
    return str(path)


class TestDefaultDegree:
    """Without --max-degree, center solves up to degree 3p and loz up to
    2p at every prime: no term degree cap lowers them."""

    def test_center_oracle_p23(self, capsys, tmp_path):
        code, data = run_json(
            capsys, ["center", "--algebra", skew2(tmp_path, 23), "--engine", "oracle"])
        assert code == 0
        assert len(data["hilbert"]) == 70
        assert not any("max degree" in note for note in data["notes"])

    def test_loz_p37(self, capsys, tmp_path):
        code, data = run_json(
            capsys, ["loz", "--algebra", skew2(tmp_path, 37), "--normal-degree", "1"])
        assert code == 0
        assert len(data["c_loz_hilbert"]) == 75
        assert data["notes"] == ["order is a verified lower bound for the full "
                                 "log-ozone group"]

    def test_explicit_degree_not_lowered(self, capsys, tmp_path):
        argv = ["center", "--algebra", skew2(tmp_path, 23), "--engine", "oracle"]
        default = run_json(capsys, argv)
        assert run_json(capsys, argv + ["--max-degree", "69"]) == default

    def test_engines_agree_on_cyclic_p23(self, capsys, tmp_path):
        # the box monomial x1^22 x2^22 x3^22 has degree 66
        path = tmp_path / "cyclic_p23.json"
        path.write_text(json.dumps({
            "schema": 1, "p": 23,
            "bracket": {"kind": "skew", "matrix": [[0, 1, -1], [-1, 0, 1], [1, -1, 0]]},
        }))
        code, data = run_json(capsys, ["center", "--algebra", str(path),
                                       "--engine", "both", "--max-degree", "10"])
        assert code == 0
        assert data["hilbert_agree"] is True


FLOAT_SKEW = {"p": 5, "bracket": {"kind": "skew", "matrix": [[0, 1.5], [-1.5, 0]]}}
WRONG_TYPES = {
    "float_matrix": FLOAT_SKEW,
    "matrix_not_list": {"p": 5, "bracket": {"kind": "skew", "matrix": 5}},
    "pair_index_string": {
        "p": 3, "vars": ["x1", "x2"],
        "bracket": {"kind": "explicit", "pairs": [{"i": "1", "j": 2, "value": "x1^2"}]},
    },
    "omega_not_string": {"p": 5, "bracket": {"kind": "potential", "omega": 5}},
    "no_variables": {"p": 5, "bracket": {"kind": "skew", "matrix": []}},
}


def assert_usage_error(capsys, argv):
    """Exit 2 with one `error:` line on stderr, not a traceback."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


class TestMalformedInput:
    """Inputs of the wrong JSON type, floats among them, are parse errors."""

    @pytest.mark.parametrize("name", sorted(WRONG_TYPES))
    def test_algebra_file(self, capsys, tmp_path, name):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(WRONG_TYPES[name]))
        command = "gorenstein" if WRONG_TYPES[name]["bracket"]["kind"] == "skew" else "center"
        assert_usage_error(capsys, [command, "--algebra", str(path)])

    def test_center_both_float(self, capsys, tmp_path):
        path = tmp_path / "float.json"
        path.write_text(json.dumps(FLOAT_SKEW))
        assert_usage_error(capsys, ["center", "--algebra", str(path), "--engine", "both"])

    @pytest.mark.parametrize("matrix", ["[[0,1.5,0],[-1.5,0,0],[0,0,0]]", "5"])
    def test_classify_matrix(self, capsys, matrix):
        assert_usage_error(capsys, ["classify-skew3", "--p", "5", "--matrix", matrix])

    def test_duplicate_variable_names(self, capsys, tmp_path):
        # it used to load as {x1, x2} = x2^2, the last x winning
        path = tmp_path / "dup.json"
        path.write_text(json.dumps({
            "p": 5, "vars": ["x", "x"],
            "bracket": {"kind": "explicit", "pairs": [{"i": 1, "j": 2, "value": "x^2"}]},
        }))
        assert_usage_error(capsys, ["center", "--algebra", str(path)])


class TestNoClosure:
    """`survey` and `loz`, with or without `--predicates`, read only the
    basis and the order of a log-ozone group, so they never sum its
    elements."""

    @pytest.fixture
    def adds(self, monkeypatch):
        calls = []
        add = Derivation.__add__

        def counting(self, other):
            calls.append(other)
            return add(self, other)

        monkeypatch.setattr(Derivation, "__add__", counting)
        return calls

    def test_survey(self, capsys, adds):
        assert main(["survey", "--p", "3", "--n", "2"]) == 0
        assert len(adds) == 0

    def test_loz(self, capsys, adds, circulant_p3):
        argv = ["loz", "--algebra", circulant_p3, "--normal-degree", "1",
                "--max-degree", "3"]
        assert main(argv) == 0
        assert len(adds) == 0
        assert main(argv + ["--predicates"]) == 0
        assert "inferable: True quasi_inferable: True" in capsys.readouterr().out
        assert len(adds) == 0


class TestCatalog:
    def test_emit_form(self, capsys):
        code, data = run_json(
            capsys, ["catalog", "--p", "5", "--form", "ThreeLines"]
        )
        assert code == 0
        entry = data["forms"][0]
        assert entry["omega"] == "2*x1*x2*x3"
        assert entry["algebra"]["bracket"]["kind"] == "potential"

    def test_emitted_algebra_loads(self, capsys, tmp_path):
        code, data = run_json(capsys, ["catalog", "--p", "5", "--form", "Irr1"])
        assert code == 0
        path = tmp_path / "irr1.json"
        path.write_text(json.dumps(data["forms"][0]["algebra"]))
        code2, data2 = run_json(
            capsys,
            ["center", "--algebra", str(path), "--max-degree", "6",
             "--engine", "oracle"],
        )
        assert code2 == 0
        assert data2["hilbert"][3] == 1  # only the potential in degree 3

    def test_verify_flag(self, capsys):
        code, data = run_json(
            capsys,
            ["catalog", "--p", "5", "--form", "Cube", "--verify",
             "--max-degree", "10"],
        )
        assert code == 0
        assert data["forms"][0]["center_verified"] is True

    def test_verify_column_cap(self, capsys):
        code = main(
            ["catalog", "--p", "5", "--form", "Cube", "--verify",
             "--max-degree", "12", "--cap-columns", "10"]
        )
        assert code == 2
        assert "cap is 10" in capsys.readouterr().err

    def test_small_characteristic(self, capsys):
        assert main(["catalog", "--p", "3"]) == 2

    def test_elliptic_lambda(self, capsys):
        code, data = run_json(
            capsys, ["catalog", "--p", "5", "--form", "Elliptic", "--lam", "2"]
        )
        assert code == 0
        assert data["forms"][0]["form"] == "Elliptic(lambda=2)"
        assert data["forms"][0]["omega"] == "2*x1^3 + 2*x1*x2*x3 + 2*x2^3 + 2*x3^3"

    def test_invalid_lambda(self, capsys):
        assert main(["catalog", "--p", "5", "--form", "Elliptic", "--lam", "4"]) == 2

    def test_lambda_of_a_form_without_one(self, capsys):
        assert main(["catalog", "--p", "5", "--form", "Cube", "--lam", "3"]) == 2
        assert "lambda" in capsys.readouterr().err


def upper_of(c):
    return tuple(c.entries[i][j] for i in range(c.n) for j in range(i + 1, c.n))


class TestSurvey:
    """`survey` computes one row per orbit of S_n x F_p^* (relabelling the
    variables, scaling the bracket) and copies it to the orbit's other
    members; the rows must be the ones a direct loop gives."""

    def test_p3_summary(self, capsys):
        code, data = run_json(capsys, ["survey", "--p", "3", "--n", "3"])
        assert code == 0
        assert data["summary"]["matrices"] == 27
        assert data["summary"]["unimodular"] == 3
        assert data["summary"]["gorenstein"] == 15
        assert data["problems"] == []

    def test_cap(self, capsys):
        assert main(
            ["survey", "--p", "13", "--n", "5", "--cap-candidates", "100"]
        ) == 2

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_dimension_must_be_positive(self, capsys, n):
        with pytest.raises(SystemExit) as exc:
            main(["survey", "--p", "3", "--n", n])
        assert exc.value.code == 2
        assert f"argument --n: must be at least 1, got {n}" in capsys.readouterr().err

    def test_maximal_order_identity(self, capsys, monkeypatch):
        # |loz| = rk_Z(P) = p^n / |B| for skew structures; an order that
        # breaks it is reported for every matrix it breaks on
        monkeypatch.setattr(LozGroup, "order", property(lambda group: 1))
        code, data = run_json(capsys, ["survey", "--p", "3", "--n", "2"])
        assert code == 1
        assert data["problems"] == [
            f"log-ozone order is not p^n/|B|: {row['upper']}"
            for row in data["rows"] if row["box_size"] != 9
        ]
        assert len(data["problems"]) == 2

    def test_cap_reaches_group_search(self, capsys):
        # 5 matrices fit the cap; each degree-1 group search scans 6
        # projective linear forms
        argv = ["survey", "--p", "5", "--n", "2", "--format", "json"]
        assert main(argv + ["--cap-candidates", "6"]) == 0
        capsys.readouterr()
        assert main(argv + ["--cap-candidates", "5"]) == 2
        assert "6 candidates at degree 1, cap is 5" in capsys.readouterr().err


    @pytest.mark.parametrize("p, n", [(2, 3), (2, 4), (3, 3), (5, 3), (7, 3)])
    def test_rows_equal_direct_loop(self, capsys, p, n):
        code, data = run_json(capsys, ["survey", "--p", str(p), "--n", str(n)])
        assert code == 0
        assert data["rows"] == [_survey_row(p, n, u, Limits()) for u in _upper_tuples(p, n)]

    @pytest.mark.parametrize("p, n, orbits", [(3, 4, 30), (5, 4, 205), (7, 3, 16)])
    def test_orbit_count(self, p, n, orbits):
        codes = _orbit_codes(p, n)
        assert len(codes) == p ** (n * (n - 1) // 2)
        assert len(set(codes.tolist())) == orbits

    @pytest.mark.parametrize("p, n", [(3, 3), (5, 3), (3, 4)])
    def test_code_is_least_index_of_orbit(self, p, n):
        index = {u: k for k, u in enumerate(_upper_tuples(p, n))}
        codes = _orbit_codes(p, n)
        for upper, k in index.items():
            c = _matrix_from_upper(p, n, upper)
            orbit = {
                index[tuple(v * lam % p for v in upper_of(c.permuted(perm)))]
                for perm in itertools.permutations(range(n))
                for lam in range(1, p)
            }
            assert codes[k] == min(orbit)

    def test_one_row_per_orbit(self, capsys, monkeypatch):
        calls = []
        row = cli._survey_row

        def counting(p, n, upper, limits):
            calls.append(tuple(upper))
            return row(p, n, upper, limits)

        monkeypatch.setattr(cli, "_survey_row", counting)
        assert main(["survey", "--p", "3", "--n", "4", "--format", "json"]) == 0
        assert len(calls) == 30

    def test_paper_p5_n4(self, capsys):
        # unimodular skew => Gorenstein center, and |loz| = p^n / |B|, on
        # all 15 625 skew matrices at p=5, n=4
        code, data = run_json(capsys, ["survey", "--p", "5", "--n", "4"])
        assert code == 0
        assert data["problems"] == []
        summary = data["summary"]
        assert (summary["matrices"], summary["gorenstein"], summary["unimodular"]) == (
            15625, 12645, 125)
        codes = _orbit_codes(5, 4)
        copied = [k for k in range(len(codes)) if codes[k] != k]
        for k in random.Random(SEED).sample(copied, 40):
            row = data["rows"][k]
            assert row == _survey_row(5, 4, row["upper"], Limits())

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_row_invariant_under_relabelling_and_scaling(self, p):
        rng = random.Random(SEED + p)
        n = 5
        for _ in range(4):
            upper = [0 if rng.random() < 0.5 else rng.randrange(1, p)
                     for _ in range(n * (n - 1) // 2)]
            perm = list(range(n))
            rng.shuffle(perm)
            lam = rng.randrange(1, p)
            moved = [v * lam % p
                     for v in upper_of(_matrix_from_upper(p, n, upper).permuted(perm))]
            row = _survey_row(p, n, upper, Limits())
            image = _survey_row(p, n, moved, Limits())
            assert image == {**row, "upper": moved}


class TestFlags:
    def test_option_table(self):
        # every command's options and their defaults; a new knob has to
        # be added here
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        table = {
            name: {a.option_strings[-1]: a.default for a in parser._actions
                   if a.option_strings and a.dest != "help"}
            for name, parser in sub.choices.items()
        }
        fmt = {"--format": "text"}
        assert table == {
            "center": {"--algebra": None, "--max-degree": None, "--engine": "oracle",
                       **fmt, "--cap-columns": 5000},
            "gorenstein": {"--algebra": None, "--via": "both", **fmt},
            "classify-skew3": {"--p": None, "--matrix": None, "--all": False, **fmt},
            "loz": {"--algebra": None, "--normal-degree": 3, "--max-degree": None,
                    "--predicates": False, **fmt, "--cap-columns": 5000,
                    "--cap-candidates": 10**7},
            "catalog": {"--p": None, "--form": None, "--lam": None, "--verify": False,
                        "--max-degree": 12, **fmt, "--cap-columns": 5000},
            "survey": {"--p": None, "--n": 3, **fmt, "--cap-candidates": 10**7},
            "verify-fixtures": fmt,
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-fixtures", "--seed", "1"],
            ["center", "--algebra", "a.json", "--threads", "2"],
            ["catalog", "--p", "5", "--cap-candidates", "10"],
            ["survey", "--p", "3", "--cap-columns", "10"],
            ["survey", "--p", "3", "--threads", "2"],
            ["gorenstein", "--algebra", "a.json", "--cap-columns", "10"],
        ],
    )
    def test_rejects_flag_the_command_does_not_read(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["catalog", "--p", "5", "--verify", "--max-degree", "-1"],
            ["center", "--algebra", "a.json", "--max-degree", "-1"],
            ["loz", "--algebra", "a.json", "--normal-degree", "-1"],
            ["loz", "--algebra", "a.json", "--max-degree", "-2"],
            ["loz", "--algebra", "a.json", "--cap-columns", "-1"],
            ["survey", "--p", "3", "--cap-candidates", "-1"],
        ],
    )
    def test_rejects_negative_count(self, capsys, argv):
        # a negative bound is a usage error, not a failed verification
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be at least 0" in capsys.readouterr().err


GOLDEN_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "bench", "golden"
)


def _golden_jobs(workload, keep):
    with open(os.path.join(GOLDEN_DIR, f"{workload}.json")) as fh:
        jobs = json.load(fh)["jobs"]
    return [pytest.param(k, v, id=k) for k, v in sorted(jobs.items()) if keep(k)]


def _form_args(job_id):
    """Catalog flags for a job named after its form, e.g. .../Elliptic-2."""
    form = job_id.rsplit("/", 1)[1]
    if form.startswith("Elliptic-"):
        return ["--form", "Elliptic", "--lam", form.split("-")[1]]
    return ["--form", form]


def _loz_catalog_job(job_id):
    return job_id.startswith("loz/p5/") and "/skew3/" not in job_id


# Upper triangles (c12, c13, c23) over F_5 whose 3x3 skew bracket has a
# 5-dimensional space of degree-0 Poisson derivations, more than n = 3:
# the eigenspace scan prunes rows there.
SKEW3_K5 = ("011", "022", "033", "044", "104", "110",
            "203", "220", "302", "330", "401", "440")


def _skew3_algebra(digits):
    c12, c13, c23 = map(int, digits)
    rows = [[0, c12, c13], [-c12 % 5, 0, c23], [-c13 % 5, -c23 % 5, 0]]
    return {"schema": 1, "p": 5, "bracket": {"kind": "skew", "matrix": rows}}


class TestGoldenCatalog:
    """CLI answers replayed byte for byte against the benchmark's recorded
    ones: `catalog --verify` at p=7 (SquareLine's exit 1 is the expected
    answer), `loz --predicates` on the p=5 catalog forms and on the 3x3
    skew brackets of SKEW3_K5, and the p=3, n=4 survey."""

    @pytest.mark.parametrize(
        "job_id, expected",
        _golden_jobs("center_oracle", lambda k: k.startswith("catalog/p7/")),
    )
    def test_replay(self, capsys, job_id, expected):
        argv = ["catalog", "--p", "7", "--verify", "--max-degree", "21",
                "--format", "json"] + _form_args(job_id)
        rc = main(argv)
        assert (rc, capsys.readouterr().out) == (expected["rc"], expected["stdout"])

    @pytest.mark.parametrize(
        "job_id, expected", _golden_jobs("loz_search", _loz_catalog_job)
    )
    def test_loz_replay(self, capsys, tmp_path, job_id, expected):
        code, data = run_json(capsys, ["catalog", "--p", "5"] + _form_args(job_id))
        assert code == 0
        path = tmp_path / "form.json"
        path.write_text(json.dumps(data["forms"][0]["algebra"]))
        rc = main(["loz", "--algebra", str(path), "--normal-degree", "3",
                   "--predicates", "--format", "json"])
        assert (rc, capsys.readouterr().out) == (expected["rc"], expected["stdout"])

    @pytest.mark.parametrize(
        "job_id, expected",
        _golden_jobs("loz_search", lambda k: k in {f"loz/p5/skew3/{u}" for u in SKEW3_K5}),
    )
    def test_loz_skew_replay(self, capsys, tmp_path, job_id, expected):
        path = tmp_path / "skew3.json"
        path.write_text(json.dumps(_skew3_algebra(job_id.rsplit("/", 1)[1])))
        rc = main(["loz", "--algebra", str(path), "--normal-degree", "3",
                   "--predicates", "--format", "json"])
        assert (rc, capsys.readouterr().out) == (expected["rc"], expected["stdout"])

    @pytest.mark.parametrize(
        "job_id, expected", _golden_jobs("skew_survey", lambda k: k == "survey/p3/n4")
    )
    def test_survey_replay(self, capsys, job_id, expected):
        rc = main(["survey", "--p", "3", "--n", "4", "--format", "json"])
        assert (rc, capsys.readouterr().out) == (expected["rc"], expected["stdout"])


class TestOreFile:
    def test_ore_algebra_through_cli(self, capsys, tmp_path):
        obj = {
            "schema": 1,
            "p": 3,
            "bracket": {
                "kind": "ore",
                "base": {
                    "p": 3,
                    "vars": ["x1"],
                    "bracket": {"kind": "explicit", "pairs": []},
                },
                "alpha": ["0"],
                "beta": ["x1^2"],
            },
        }
        path = tmp_path / "jordan_ore.json"
        path.write_text(json.dumps(obj))
        code, data = run_json(
            capsys,
            ["center", "--algebra", str(path), "--max-degree", "6",
             "--engine", "oracle"],
        )
        assert code == 0
        assert data["hilbert"] == [1, 0, 0, 2, 0, 0, 3]
        code2, loz_data = run_json(
            capsys,
            ["loz", "--algebra", str(path), "--normal-degree", "1",
             "--max-degree", "3"],
        )
        assert code2 == 0
        assert loz_data["order"] == 3


class TestTextFormat:
    def test_gorenstein_text(self, capsys, circulant_p3):
        code = main(["gorenstein", "--algebra", circulant_p3])
        out = capsys.readouterr().out
        assert code == 0
        assert "stanley: True witness: (2, 2, 2)" in out
        assert "theorem38: True" in out

    def test_center_text(self, capsys, jordan_p3):
        code = main(
            ["center", "--algebra", jordan_p3, "--max-degree", "6",
             "--engine", "oracle"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "hilbert: [1, 0, 0, 2, 0, 0, 3]" in out


class TestVerifyFixtures:
    def test_all_pass(self, capsys):
        code, data = run_json(capsys, ["verify-fixtures"])
        assert code == 0
        assert all(entry["pass"] for entry in data["results"])
