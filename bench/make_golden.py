"""Record the expected CLI output of every golden job.

    python3 bench/make_golden.py [WORKLOAD ...]

Writes `bench/golden/<workload>.json`: for each job id, the exit status
and the exact stdout of `poismodp.cli.main(argv)`.  Run it only at a
commit whose answers are trusted; the benchmark compares later commits
against these files byte for byte.
"""

import contextlib
import io
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import poismodp.cli  # noqa: E402

import workloads  # noqa: E402


def main(names) -> int:
    workdir = os.path.join(HERE, ".work", f"golden-{os.getpid()}")
    os.makedirs(workdir)
    os.makedirs(workloads.GOLDEN_DIR, exist_ok=True)
    try:
        for name in names or workloads.WORKLOADS:
            golden = {}
            for job in workloads.write_inputs(workloads.golden_jobs(name), workdir):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    rc = poismodp.cli.main(job["argv"])
                golden[job["id"]] = {"rc": rc, "stdout": out.getvalue()}
            with open(os.path.join(workloads.GOLDEN_DIR, f"{name}.json"), "w") as fh:
                json.dump({"workload": name, "jobs": golden}, fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(f"{name}: {len(golden)} jobs")
    finally:
        shutil.rmtree(workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
