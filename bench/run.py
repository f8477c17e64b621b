"""poismodp benchmark: batch CLI workloads timed end to end, and a traced
run that times each layer.

    python3 bench/run.py --workload loz_search|center_oracle|skew_survey \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
`src/`, nothing is installed.  The workloads and their answer checks are
described in `bench/workloads.py`.

Each pass runs every job of the workload once, in order, in a fresh
process (`bench/passrun.py`), one pass at a time.  Caches such as
`center.multiplication_matrices` therefore warm within a pass, as they
do for a batch user, but never across passes.  Passes repeat until the
next one would end after `--seconds`; at least one runs, and on a
workload with several jobs per pass and `--trace 0` at least
`MIN_POOLED_JOBS` jobs, so that `TAIL_MIN` latencies lie beyond p83.

With `--trace 0` the last line of stdout reports the end-to-end metrics,
each the median over the run's passes.  Times are scaled to a reference
CPU speed by the speed probes described in `bench/passrun.py`, because
the CPU of the machine the benchmark was defined on changes speed by up
to 1.7x from one second to the next; the report prints the raw times as
well (`*_raw_s`).

* `setup_s` -- a fresh process importing poismodp and loading the
  workload's inputs, before the first job.  Sampled by every pass and by
  `SETUP_SAMPLES` extra processes that only set up.
* `wall_s` -- one pass: every job run and its answer checked.
* `job_p50_ms`, `job_p83_ms` -- latency of one CLI job, nearest rank over
  the jobs of all passes pooled.  The sample count and how many samples
  lie beyond p83 are printed in the report.  p83 is the highest whole
  percentile with at least `TAIL_MIN` samples beyond it in the smallest
  pool a run of `loz_search` or `center_oracle` makes (`MIN_POOLED_JOBS`;
  a 40 s run pools 60 to 102 jobs); p90 would rest on 6 to 10.
  `skew_survey` has one job per pass, so no percentile of it has ten
  samples beyond it within the time limit of a run.
* `cpu_s` -- user plus system CPU time of a pass, child processes
  included.
* `peak_rss_mb` -- peak resident memory of the pass process.

Jobs whose answer is wrong, or that exit or raise unexpectedly, count in
`failed`; `failed / attempted` is the failed fraction.

With `--trace 1` the run alternates untraced and traced passes.  The
traced ones wrap the public functions of every layer from outside the
program (`bench/spans.py`) and report per-layer calls, self seconds and
work counts; per-layer seconds are raw, not scaled.  `trace.overhead_s`
is the median traced `wall_s` minus the median untraced one.  A traced
job whose stdout differs from the untraced run of the same job counts as
failed; a count that differs between traced passes makes the run
incorrect.

Before the result line the run prints a report: the median, quartiles
and sample count of every metric (and of the raw times and probes), the
failed fraction, each job's median latency, and the machine, versions,
commit, seed and line count of `src/` (information only).  The process exits with status 0 when it
printed a result and the answers were checked, and with 2 without a
result when it cannot run, for example when `src/poismodp` is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_SAMPLES = 5
RUN_LIMIT_S = 170  # a run must end within 180 s
TAIL_MIN = 10  # latencies beyond the reported tail percentile
MIN_POOLED_JOBS = 59  # nearest-rank p83 of 59 jobs has 10 beyond it
PASS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "job_p50_ms": "ms",
                    "job_p83_ms": "ms", "cpu_s": "s", "peak_rss_mb": "MiB"}

# Per-layer metrics: span name -> the span fields reported for it.
LAYER_FIELDS = {
    "linalg.rref": ("calls", "self_s"),
    "linalg.nullspace": ("calls", "self_s"),
    "linalg.in_row_space": ("calls",),
    "linalg.minimal_polynomial": ("self_s",),
    "fieldpoly.mul": ("calls", "self_s"),
    "fieldpoly.add": ("self_s",),
    "fieldpoly.pow": ("self_s",),
    "fieldpoly.divides": ("calls", "self_s"),
    "structure.build": ("calls", "self_s"),
    "structure.bracket_with_gen": ("calls", "self_s"),
    "deriv.add": ("calls", "self_s"),
    "deriv.matrix_on_degree": ("self_s",),
    "deriv.is_unimodular": ("self_s",),
    "center.bracket_matrices": ("calls", "self_s"),
    "center.center_oracle": ("self_s",),
    "center.skew_monoid": ("calls", "self_s"),
    "center.center_generators_skew": ("self_s",),
    "center.graded_span_dims": ("self_s",),
    "center.classify_skew3": ("self_s",),
    "loz.pder0_matrix_space": ("self_s",),
    "loz.enumerate_normal": ("calls", "self_s"),
    "loz.log_ozone_group": ("self_s",),
    "loz.is_poisson_normal": ("calls",),
    "loz.c_loz": ("self_s",),
    "loz.is_inferable": ("self_s",),
    "loz.decomposable_witness": ("self_s",),
    "catalog.verify_expected_center": ("self_s",),
    "serial.load_algebra": ("self_s",),
    "cli.main": ("self_s",),
}


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(spans: dict, counts: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, as name -> (value, unit)."""
    out = {}
    for span, fields in LAYER_FIELDS.items():
        for f in fields:
            out[f"{span}.{f}"] = (spans[span][f], "count" if f == "calls" else "s")
    out["linalg.rref.cells"] = (counts.get("linalg.rref.cells", 0), "count")
    calls = spans["linalg.nullspace"]["calls"]
    nonempty = counts.get("linalg.nullspace.nonempty", 0)
    out["linalg.nullspace.nonempty_ratio"] = (nonempty / calls if calls else 0.0, "ratio")
    out["loz.enumerate_normal.nullspace_calls"] = (
        spans["linalg.nullspace"]["parents"].get("loz.enumerate_normal", 0), "count")
    out["loz.group_elements"] = (counts.get("loz.group_elements", 0), "count")
    return out


def src_lines() -> int:
    pkg = os.path.join(SRC, "poismodp")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                total += sum(1 for _ in fh)
    return total


def commit() -> str | None:
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


class Runner:
    """Starts pass processes one at a time and keeps their results."""

    def __init__(self, jobs_file: str, workdir: str, started: float):
        self.jobs_file = jobs_file
        self.workdir = workdir
        self.started = started
        self.env = dict(os.environ, **PASS_ENV)
        self.env["PYTHONPATH"] = SRC + os.pathsep + self.env.get("PYTHONPATH", "")
        self.count = 0

    def run(self, *flags: str) -> dict:
        self.count += 1
        out = os.path.join(self.workdir, f"pass{self.count:03d}.json")
        budget = RUN_LIMIT_S - (time.perf_counter() - self.started)
        cmd = [sys.executable, os.path.join(HERE, "passrun.py"),
               "--jobs", self.jobs_file, "--out", out, *flags]
        res = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                             timeout=max(budget, 1))
        if res.returncode != 0:
            raise RuntimeError(f"pass process failed ({res.returncode}):\n{res.stderr}")
        with open(out) as fh:
            return json.load(fh)


def summarize(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="poismodp benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "poismodp", "cli.py")):
        print(f"error: no poismodp sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    workdir = os.path.join(HERE, ".work", f"run-{os.getpid()}")
    os.makedirs(workdir)
    try:
        jobs = workloads.write_inputs(workloads.jobs_for(args.workload, args.seed), workdir)
        jobs_file = os.path.join(workdir, "jobs.json")
        with open(jobs_file, "w") as fh:
            json.dump({"workload": args.workload, "jobs": jobs}, fh)
        runner = Runner(jobs_file, workdir, started)
        return measure(args, runner, len(jobs))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, runner: Runner, n_jobs: int) -> int:
    runner.run("--setup-only")  # compiles bytecode; not counted
    setup_only = [runner.run("--setup-only") for _ in range(SETUP_SAMPLES)]
    setups = [r["setup_s"] for r in setup_only]
    setup_raw = [r["setup_raw_s"] for r in setup_only]
    deadline = time.perf_counter() + args.seconds
    plain, traced = [], []
    spent = []
    while True:
        t = time.perf_counter()
        want_trace = args.trace == 1 and len(traced) < len(plain)
        res = runner.run(*(["--trace"] if want_trace else []))
        (traced if want_trace else plain).append(res)
        spent.append(time.perf_counter() - t)
        if args.trace:
            enough = bool(traced)
        else:
            enough = n_jobs == 1 or n_jobs * len(plain) >= MIN_POOLED_JOBS
        if enough and time.perf_counter() + statistics.mean(spent) > deadline:
            break

    failures = []
    for res in plain + traced:
        failures += [f"{j['id']}: {j['error']}" for j in res["jobs"] if j["error"]]
    untraced_sha = {j["id"]: j["sha256"] for j in plain[0]["jobs"]}
    for res in traced:
        failures += [f"{j['id']}: traced stdout differs from untraced"
                     for j in res["jobs"]
                     if not j["error"] and j["sha256"] != untraced_sha[j["id"]]]
    attempted = n_jobs * (len(plain) + len(traced))
    failed = len(failures)

    setups += [r["setup_s"] for r in plain]
    latencies_ms = [1000 * j["latency_s"] for r in plain for j in r["jobs"]]
    series = {
        "setup_s": setups,
        "wall_s": [r["wall_s"] for r in plain],
        "cpu_s": [r["cpu_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    raw = {
        "setup_raw_s": setup_raw + [r["setup_raw_s"] for r in plain],
        "wall_raw_s": [r["wall_raw_s"] for r in plain],
        "cpu_raw_s": [r["cpu_raw_s"] for r in plain],
        "job_latency_raw_ms": [1000 * j["latency_raw_s"] for r in plain for j in r["jobs"]],
        "probe_ms": [1000 * p for r in plain for p in r["probes"]],
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(plain),
        "traced_passes": len(traced),
        "jobs_per_pass": n_jobs,
        "machine": {"nproc": os.cpu_count(), "python": plain[0]["python"],
                    "numpy": plain[0]["numpy"]},
        "commit": commit(),
        "src_lines": src_lines(),
        "failed_frac": failed / attempted,
        "job_latency_ms": summarize(latencies_ms),
        "job_median_ms": {
            j["id"]: statistics.median(1000 * r["jobs"][k]["latency_s"] for r in plain)
            for k, j in enumerate(plain[0]["jobs"])},
        "job_samples_beyond_p83": sum(
            1 for v in latencies_ms if v > nearest_rank(latencies_ms, 0.83)),
        "metrics": {k: summarize(v) for k, v in series.items()},
        "raw": {k: summarize(v) for k, v in raw.items()},
        "failures": failures,
    }
    metrics = {k: (statistics.median(v), END_TO_END_UNITS[k]) for k, v in series.items()}
    metrics["job_p50_ms"] = (nearest_rank(latencies_ms, 0.50), "ms")
    metrics["job_p83_ms"] = (nearest_rank(latencies_ms, 0.83), "ms")

    if args.trace:
        per_pass = [layer_metrics(r["spans"], r["counts"]) for r in traced]
        layer = {}
        for name, (_, unit) in per_pass[0].items():
            values = [m[name][0] for m in per_pass]
            if unit == "s":
                layer[name] = (statistics.median(values), unit)
            else:
                if len(set(values)) != 1:
                    failures.append(f"count {name} differs between traced passes: {values}")
                layer[name] = (values[0], unit)
            report["metrics"][name] = summarize(values)
        traced_wall = [r["wall_s"] for r in traced]
        layer["trace.overhead_s"] = (
            statistics.median(traced_wall) - statistics.median(series["wall_s"]), "s")
        report["metrics"]["trace.wall_s"] = summarize(traced_wall)
        metrics = layer

    print(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
