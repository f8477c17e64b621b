"""Run the benchmark several times with different seeds and report how
steady each end-to-end metric is.

    python3 bench/steadiness.py [--first-seed 101] [--out FILE]

For every workload it makes `RUNS` untraced runs with seeds first-seed,
first-seed+1, ... and prints, per metric, the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread: the distance
between the quartiles as a share of the median, next to the metric's
bound in BENCHMARK.json.  It then makes `TRACED` traced runs per
workload with the first seed and checks that their count metrics repeat
exactly.  `--out` writes everything as JSON: every run's values, and the
same table for the raw (unscaled) times.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
TRACED = 2


def bench_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    res = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if res.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{res.stderr}")
    lines = res.stdout.strip().splitlines()
    return {"report": json.loads("\n".join(lines[:-1])), "result": json.loads(lines[-1])}


def spread_table(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"), "values": values}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser()
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--out")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + RUNS))
    out = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    ok = True
    for w in [x["name"] for x in spec["workloads"]]:
        runs = [bench_once(w, s, spec["run_seconds"], 0) for s in seeds]
        if not all(r["result"]["correct"] and r["result"]["failed"] == 0 for r in runs):
            ok = False
        table = {}
        for name, bound in bounds.items():
            t = spread_table([r["result"]["metrics"][name]["value"] for r in runs])
            t["bound"] = bound
            table[name] = t
            print(f"{w:14s} {name:12s} median {t['median']:10.4f}  q1 {t['q1']:10.4f}  "
                  f"q3 {t['q3']:10.4f}  spread {t['spread']:.3f}  bound {bound}", flush=True)
        raw = {k: spread_table([r["report"]["raw"][k]["median"] for r in runs])
               for k in runs[0]["report"]["raw"]}
        entry = {"end_to_end": table,
                 "raw": raw,
                 "passes": [r["report"]["passes"] for r in runs],
                 "machine": runs[0]["report"]["machine"],
                 "commit": runs[0]["report"]["commit"],
                 "src_lines": runs[0]["report"]["src_lines"],
                 "job_median_ms": runs[0]["report"]["job_median_ms"]}
        traced = [bench_once(w, seeds[0], spec["run_seconds"], 1) for _ in range(TRACED)]
        ok = ok and all(r["result"]["correct"] for r in traced)
        per_layer = {}
        for m in spec["per_layer"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in traced]
            per_layer[m["name"]] = {"values": values, "unit": m["unit"]}
            if m["unit"] in ("count", "ratio") and len(set(values)) != 1:
                ok = False
                print(f"{w}: {m['name']} does not repeat: {values}")
        entry["per_layer"] = per_layer
        print(f"{w:14s} traced runs: overhead_s "
              f"{[round(v, 3) for v in per_layer['trace.overhead_s']['values']]}", flush=True)
        out["workloads"][w] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
