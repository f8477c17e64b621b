"""Check that the speed probes of `bench/passrun.py` read the same while
the job is pure Python as while it runs long numpy loops.

    python3 bench/probe_check.py

The process is set up as a pass is: pinned to one CPU, with a sampler
thread that runs the probe task every `SAMPLE_PERIOD_S`.  Each of
`ROUNDS` rounds runs two loads for `SECONDS` each, in alternating order
(short, so that the CPU's own changes of speed fall mostly between
rounds): a pure-Python loop, and `poismodp.linalg.rref` on an
830 x 250 matrix mod 7, the largest elimination of the `center_oracle`
workload, during which numpy releases the interpreter lock.  Every
sample times the probe task with both clocks, wall (`perf_counter`) and
the sampler thread's CPU time (`thread_time`, what `probe_once` uses).

For each clock it prints the median over rounds of
median(probe during numpy) / median(probe during Python).  A ratio near
1 means the scale factor does not depend on how much of a job runs in
numpy.  Run from the root of a source checkout.
"""

from __future__ import annotations

import os
import statistics
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import passrun  # noqa: E402
from poismodp.linalg import rref  # noqa: E402

ROUNDS = 40
SECONDS = 0.5


def python_load(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        s = 0
        for i in range(20000):
            s += i * i % 7


def numpy_load(seconds: float) -> None:
    a = np.random.default_rng(7).integers(0, 7, size=(830, 250))
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        rref(a, 7)


def sampled(load, seconds: float) -> tuple[float, float]:
    """Median probe (wall, thread CPU) seconds while `load` runs."""
    samples: list[tuple[float, float]] = []
    halt = threading.Event()

    def sample():
        while not halt.wait(passrun.SAMPLE_PERIOD_S):
            w, c = time.perf_counter(), time.thread_time()
            passrun.probe_task()
            samples.append((time.perf_counter() - w, time.thread_time() - c))

    thread = threading.Thread(target=sample, daemon=True)
    thread.start()
    load(seconds)
    halt.set()
    thread.join()
    return (statistics.median(w for w, _ in samples),
            statistics.median(c for _, c in samples))


def main() -> int:
    passrun.pin_one_cpu()
    wall_ratio, cpu_ratio = [], []
    for k in range(ROUNDS):
        loads = [python_load, numpy_load] if k % 2 == 0 else [numpy_load, python_load]
        res = {load: sampled(load, SECONDS) for load in loads}
        (pw, pc), (nw, nc) = res[python_load], res[numpy_load]
        wall_ratio.append(nw / pw)
        cpu_ratio.append(nc / pc)
        print(f"round {k}: probe ms python wall {1000 * pw:.3f} cpu {1000 * pc:.3f}  "
              f"numpy wall {1000 * nw:.3f} cpu {1000 * nc:.3f}", flush=True)
    print(f"numpy/python probe ratio, median over {ROUNDS} rounds: "
          f"wall {statistics.median(wall_ratio):.3f}  thread CPU {statistics.median(cpu_ratio):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
