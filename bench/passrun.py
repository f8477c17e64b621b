"""One pass of a workload in a fresh process: import poismodp, load the
inputs, run every job in order through `poismodp.cli.main`, check each
answer, and write the pass's measurements as JSON.

    python3 bench/passrun.py --jobs JOBS.json --out RESULT.json [--trace] [--setup-only]

`bench/run.py` starts this script once per pass; it is not meant to be
run by hand.  Set-up is timed from just after the first speed probe of
this script, so interpreter start-up is not in it.

Speed probes.  The CPU this benchmark was defined on changes speed by
up to 1.7x within seconds, under load from outside the machine, and
that swamps the differences the benchmark must resolve.  The slowdown
shows in CPU time as well as in wall time, and the machine's two CPUs
change speed independently of each other.  So the pass runs on one CPU
and times a fixed pure-Python task there (`probe_once`, independent of
poismodp): before and after set-up, between jobs, and every
`SAMPLE_PERIOD_S` from a thread while a job runs.  Each job's time (run
plus answer check) is scaled by `REFERENCE_PROBE_S / median(probes next
to and during the job)`, and set-up by the same ratio for its own two
probes: the result is the time the work would take with the CPU at the
speed where the probe takes `REFERENCE_PROBE_S`.  Both the scaled and
the raw times are written.

A probe counts the CPU time of the thread that runs it, not wall time.
While a job is inside a long numpy loop it does not hold the
interpreter lock, so the sampler thread shares the CPU with it; a
wall-clock probe would then read slow, and the scale factor would depend
on how much of the job runs in numpy.  The probing thread's CPU time
does not include the time the job's thread had the CPU.
`bench/probe_check.py` measures both clocks on a pure-Python and a
numpy-heavy load.

The pin to one CPU is inherited by every thread and child process of
the pass.  A program change that spreads a job over several cores can
therefore not shorten `wall_s` here, and its extra threads show in
`cpu_s` only as far as they add work.  The program is single-threaded
and the workloads run one job at a time without `--threads`.
"""

import time


def probe_task() -> None:
    """A fixed dict-and-integer task of about 2 ms: squaring a cubic form
    mod 5, 100 times, with exponents packed into ints.  It makes no
    objects the garbage collector counts, so that sampling does not move
    the collections of the job it watches (and with them its peak
    memory)."""
    keys = [(i << 8) | (j << 4) | (3 - i - j) for i in range(4) for j in range(4 - i)]
    coefs = [(k >> 8) % 5 + 1 for k in keys]
    n, g = len(keys), {}
    for _ in range(100):
        g.clear()
        for a in range(n):
            e1, c1 = keys[a], coefs[a]
            for b in range(n):
                e = e1 + keys[b]
                v = (g.get(e, 0) + c1 * coefs[b]) % 5
                if v:
                    g[e] = v
                else:
                    g.pop(e, None)


def probe_once() -> float:
    """CPU seconds of the calling thread for one `probe_task`."""
    t = time.thread_time()
    probe_task()
    return time.thread_time() - t


def speed_probe() -> float:
    return sorted(probe_once() for _ in range(3))[1]


_PROBE0 = speed_probe()
_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

# Probe time at the CPU speed the scaled times refer to: the fast state of
# the 2-core Xeon VM the benchmark was defined on.
REFERENCE_PROBE_S = 0.0019
SAMPLE_PERIOD_S = 0.1


class SpeedSampler(threading.Thread):
    """Runs `probe_once` every `SAMPLE_PERIOD_S` and keeps (end time,
    probe seconds).  It takes about 2 ms of CPU per sample, so it slows
    the job it watches by about 2%, the same on every commit."""

    def __init__(self):
        super().__init__(daemon=True)
        self.samples: list[tuple[float, float]] = []
        self.halt = threading.Event()

    def run(self):
        while not self.halt.wait(SAMPLE_PERIOD_S):
            d = probe_once()
            self.samples.append((time.perf_counter(), d))

    def during(self, start: float, end: float) -> list[float]:
        return [d for t, d in self.samples if start < t <= end]


def pin_one_cpu() -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _run_job(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed answer, not a harness error
            rc = f"raised {type(exc).__name__}: {exc}"
    return rc, out.getvalue()


def _scale(probes: list[float]) -> float:
    return REFERENCE_PROBE_S / statistics.median(probes)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--jobs", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import numpy
    import poismodp.cli
    from poismodp.serial import load_algebra_file

    with open(args.jobs) as fh:
        spec = json.load(fh)
    for job in spec["jobs"]:
        if job["algebra_file"]:
            load_algebra_file(job["algebra_file"])
    setup_raw = time.perf_counter() - _T0
    probe = speed_probe()
    result = {"setup_raw_s": setup_raw, "setup_s": setup_raw * _scale([_PROBE0, probe]),
              "python": sys.version.split()[0], "numpy": numpy.__version__}
    if args.setup_only:
        return _write(args.out, result)

    import workloads

    golden = workloads.load_golden(spec["workload"])
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install_layer_spans(tracer)

    # One CPU, so that the probes measure the CPU the jobs run on (see the
    # module docstring).
    pin_one_cpu()
    sampler = SpeedSampler()
    sampler.start()
    jobs = []
    probes = [speed_probe()]
    cpu_raw = 0.0
    for job in spec["jobs"]:
        cpu0, t = _cpu_s(), time.perf_counter()
        rc, stdout = _run_job(poismodp.cli, job["argv"])
        latency = time.perf_counter() - t
        error = workloads.check_answer(job["id"], job["argv"], rc, stdout, golden)
        end = time.perf_counter()
        spent, cpu_raw = end - t, cpu_raw + _cpu_s() - cpu0
        probes.append(speed_probe())
        scale = _scale(probes[-2:] + sampler.during(t, end))
        jobs.append({"id": job["id"], "latency_raw_s": latency, "latency_s": latency * scale,
                     "spent_raw_s": spent, "spent_s": spent * scale, "error": error,
                     "sha256": hashlib.sha256(stdout.encode()).hexdigest()})
    sampler.halt.set()
    sampler.join()
    wall_raw = sum(j["spent_raw_s"] for j in jobs)
    wall = sum(j["spent_s"] for j in jobs)
    result.update(
        wall_raw_s=wall_raw,
        wall_s=wall,
        cpu_raw_s=cpu_raw,
        cpu_s=cpu_raw * wall / wall_raw,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        probes=probes + [d for _, d in sampler.samples],
        jobs=jobs,
    )
    if tracer is not None:
        result["spans"] = tracer.summarize()
        result["counts"] = dict(tracer.counts)
    return _write(args.out, result)


def _write(path: str, result: dict) -> int:
    with open(path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
