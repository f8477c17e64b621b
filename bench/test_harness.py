"""Self-tests of the benchmark harness.

    python3 -m pytest bench/test_harness.py -q

They check the harness, not poismodp: span arithmetic, that wrapping
leaves answers unchanged, that the answer check notices a changed byte,
and that the benchmark refuses to run without the sources.
"""

import itertools
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class ScriptedClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_nested_calls():
    # outer [0, 10] holds inner [1, 3] and inner [4, 5]; inner [4, 5]
    # holds leaf [4.25, 4.75].
    tracer = spans.Tracer(ScriptedClock([0, 1, 3, 4, 4.25, 4.75, 5, 10]))
    leaf = tracer.wrap("leaf", lambda: "leaf")

    def inner_body(deep):
        return leaf() if deep else None

    inner = tracer.wrap("inner", inner_body)
    outer = tracer.wrap("outer", lambda: (inner(False), inner(True)))
    assert outer() == (None, "leaf")
    got = tracer.summarize()
    assert got["outer"]["calls"] == 1
    assert got["outer"]["total_s"] == pytest.approx(10)
    assert got["outer"]["self_s"] == pytest.approx(10 - 2 - 1)
    assert got["inner"]["calls"] == 2
    assert got["inner"]["total_s"] == pytest.approx(3)
    assert got["inner"]["self_s"] == pytest.approx(2 + 0.5)
    assert got["leaf"]["self_s"] == pytest.approx(0.5)
    assert got["inner"]["parents"] == {"outer": 2}
    assert got["outer"]["parents"] == {None: 1}


def test_span_closes_when_the_call_raises():
    tracer = spans.Tracer(ScriptedClock([0, 2]))

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.summarize()["boom"]["total_s"] == pytest.approx(2)


def test_wrapped_functions_return_the_same_values():
    from poismodp import linalg
    from poismodp.fieldpoly import parse_poly

    a = np.array([[1, 2, 3], [2, 4, 1]], dtype=np.int64)
    f, g = parse_poly("x1^2 + 3*x2", 5, 3), parse_poly("2*x3 + x1", 5, 3)
    tracer = spans.Tracer()
    replaced = spans.install_layer_spans(tracer)
    try:
        from poismodp import cli, loz, catalog

        # by-name imports are patched too
        assert cli.log_ozone_group is loz.log_ozone_group
        assert loz.bracket_matrices.__wrapped__ is not None
        assert catalog.center_oracle.__wrapped__ is not None
        assert cli.center_oracle is catalog.center_oracle
        wrapped_kernel = linalg.nullspace(a, 5)
        wrapped_product = f * g
        wrapped_rproduct = 3 * f
    finally:
        spans.uninstall(replaced)
    assert not hasattr(linalg.nullspace, "__wrapped__")
    assert [v.tolist() for v in wrapped_kernel] == [v.tolist() for v in linalg.nullspace(a, 5)]
    assert wrapped_product == f * g
    assert wrapped_rproduct == 3 * f
    got = tracer.summarize()
    assert got["linalg.nullspace"]["calls"] == 1
    assert got["linalg.rref"]["parents"] == {"linalg.nullspace": 1}
    assert got["fieldpoly.mul"]["calls"] == 2
    assert tracer.counts["linalg.rref.cells"] == 6


def _pass(tmp_path, jobs, *flags):
    jobs_file = tmp_path / "jobs.json"
    jobs_file.write_text(json.dumps({"workload": "loz_search", "jobs": jobs}))
    out = tmp_path / "out.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, os.path.join(HERE, "passrun.py"), "--jobs",
                    str(jobs_file), "--out", str(out), *flags], env=env, check=True)
    return json.loads(out.read_text())


def test_traced_pass_prints_what_the_untraced_pass_prints(tmp_path):
    jobs = workloads.write_inputs(
        [workloads.loz_skew_job((1, 2, 3)), workloads.loz_catalog_jobs()[-1]], str(tmp_path))
    plain = _pass(tmp_path, jobs)
    traced = _pass(tmp_path, jobs, "--trace")
    assert [j["error"] for j in plain["jobs"] + traced["jobs"]] == [None] * 4
    assert [j["sha256"] for j in plain["jobs"]] == [j["sha256"] for j in traced["jobs"]]
    layer = run.layer_metrics(traced["spans"], traced["counts"])
    assert layer["cli.main.self_s"][0] > 0
    assert layer["loz.enumerate_normal.calls"][0] == 2


def test_answer_check_flags_a_changed_byte():
    golden = workloads.load_golden("center_oracle")
    job_id = "catalog/p7/SquareLine"
    argv = ["catalog"]
    expected = golden[job_id]
    assert expected["rc"] == 1 and '"center_verified": false' in expected["stdout"]
    assert workloads.check_answer(job_id, argv, 1, expected["stdout"], golden) is None
    out = expected["stdout"]
    for k in (0, len(out) // 2, len(out) - 1):
        changed = out[:k] + chr(ord(out[k]) ^ 1) + out[k + 1:]
        assert workloads.check_answer(job_id, argv, 1, changed, golden)
    assert workloads.check_answer(job_id, argv, 0, out, golden)
    assert workloads.check_answer(job_id, argv, "raised ValueError: x", out, golden)


def test_cross_checks_without_golden_output():
    argv = ["center", "--algebra", "a.json"]
    assert workloads.check_answer("new", argv, 0, '{"hilbert_agree": true}', {}) is None
    assert workloads.check_answer("new", argv, 0, '{"hilbert_agree": false}', {})
    assert workloads.check_answer("new", argv, 2, "", {})
    assert workloads.check_answer("new", ["survey"], 0, '{"problems": ["x"]}', {})


def test_loz_draw_has_the_stated_derivation_dimensions():
    from poismodp.loz import pder0_matrix_space
    from poismodp.structure import SkewMatrix, from_skew_matrix

    def k(u):
        c = SkewMatrix.from_upper(5, 3, dict(zip([(0, 1), (0, 2), (1, 2)], u)))
        return len(pder0_matrix_space(from_skew_matrix(c)))

    assert {k(u) for u in workloads.SKEW3_K5} == {5}
    assert {k(u) for u in workloads.SKEW3_K3} == {3}
    assert len(workloads.SKEW3_K3) + len(workloads.SKEW3_K5) == 124


def test_center_draw_has_the_stated_ranks():
    from poismodp import linalg

    for u in workloads.random_center_uppers(3) + list(
            itertools.islice(itertools.product(range(5), repeat=6), 0, 15625, 37)):
        rows = workloads.skew_algebra(5, 4, u)["bracket"]["matrix"]
        assert workloads.skew4_rank(u) == linalg.rank(np.array(rows, dtype=np.int64), 5)
    ranks = [workloads.skew4_rank(u) for u in workloads.random_center_uppers(3)]
    assert ranks == list(workloads.CENTER_RANK)


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        assert workloads.jobs_for(name, 7) == workloads.jobs_for(name, 7)
    assert workloads.jobs_for("loz_search", 7) != workloads.jobs_for("loz_search", 8)
    golden = workloads.load_golden("loz_search")
    assert all(j["id"] in golden for j in workloads.jobs_for("loz_search", 8))


def test_benchmark_json_names_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)
    assert all(run.END_TO_END_UNITS[m["name"]] == m["unit"] for m in spec["end_to_end"])
    fake = {"parents": {}, "calls": 0, "self_s": 0.0}
    layer = run.layer_metrics({s: fake for s in run.LAYER_FIELDS}, {})
    layer["trace.overhead_s"] = (0.0, "s")
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in layer.items()}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    res = subprocess.run([sys.executable, "bench/run.py", "--workload", "skew_survey",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert res.stdout == ""
