"""The three benchmark workloads: their CLI jobs, the seeded inputs, and
the answer checks.

Every workload is a closed loop: one client runs its jobs one at a time,
in order, each as one call of `poismodp.cli.main(argv)` with
`--format json`.  The seed picks only the random skew matrices; the
catalog jobs and the survey are the same for every seed.

* loz_search -- `loz --normal-degree 3 --predicates` on the 12 catalog
  potentials at p=5 (Cube dominates: a 15 625-candidate eigenspace scan
  with thousands of tiny nullspaces), then 8 random 3x3 skew matrices at
  p=5.  Skew matrices have a space of degree-0 Poisson derivations of
  dimension k=3 or k=5, and the scan costs about p^k nullspaces, so the
  draw is stratified (6 with k=3, 2 with k=5) to keep the amount of work
  the same for every seed while the inputs change.  Whether a scan change
  helps generic inputs or only Cube shows here.
* center_oracle -- `catalog --p 7 --form F --verify --max-degree 21` for
  each of the 12 forms, then `center --engine both --max-degree 15` on 5
  random 4x4 skew matrices at p=5, 4 of rank 4 and 1 of rank 2 (the
  rank sets the size of the monoid engine's box, and so its time and
  memory).  Few but large eliminations and heavy operator-matrix
  construction; no log-ozone search, so a scan change should not move
  it.
* skew_survey -- `survey --p 3 --n 4` on one worker: 729 matrices, each
  with thousands of tiny structure builds, `skew_monoid` and a degree-1
  log-ozone group with its eager closure.  No large matrices.

Answers are checked against `golden/<workload>.json`, the CLI's stdout
and exit status recorded at the commit that defined this benchmark.  It
holds every job any seed can produce except the random `center` jobs,
which it holds for `DEFAULT_SEED` only; for other seeds those are checked
through the CLI's own cross-check (`hilbert_agree` of the two center
engines, exit status 0).
"""

from __future__ import annotations

import json
import os
import random

WORKLOADS = ("loz_search", "center_oracle", "skew_survey")
DEFAULT_SEED = 1
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

FORM_IDS = ("Cube", "SquareLine", "ThreeLines", "TwoLinesDouble", "LineConic1",
            "LineConic2", "Irr1", "Irr2")
OMEGA = {
    "Cube": "x1^3",
    "SquareLine": "x1^2*x2",
    "ThreeLines": "2*x1*x2*x3",
    "TwoLinesDouble": "x1^2*x2 + x1*x2^2",
    "LineConic1": "x1^3 + x1^2*x2 + x1*x2*x3",
    "LineConic2": "x1^2*x3 + x1*x2^2",
    "Irr1": "x1^3 + x2^2*x3",
    "Irr2": "x1^3 + x1^2*x3 + x2^2*x3",
}


def elliptic_lambdas(p: int) -> list[int]:
    """The lambdas of the Elliptic form: lambda^3 != -1 in F_p."""
    return [lam for lam in range(p) if pow(lam, 3, p) != p - 1]


def _elliptic_omega(p: int, lam: int) -> str:
    inv3 = pow(3, p - 2, p)
    text = f"{inv3}*x1^3 + {inv3}*x2^3 + {inv3}*x3^3"
    return text + (f" + {lam}*x1*x2*x3" if lam else "")


# Upper triangles (c12, c13, c23) over F_5 whose skew structure has a
# 5-dimensional space of degree-0 Poisson derivations; every other nonzero
# one has a 3-dimensional space, and the zero matrix (9) is left out.
SKEW3_K5 = ((0, 1, 1), (0, 2, 2), (0, 3, 3), (0, 4, 4), (1, 0, 4), (1, 1, 0),
            (2, 0, 3), (2, 2, 0), (3, 0, 2), (3, 3, 0), (4, 0, 1), (4, 4, 0))
SKEW3_K3 = tuple(u for u in (
    (a, b, c) for a in range(5) for b in range(5) for c in range(5))
    if any(u) and u not in SKEW3_K5)
LOZ_RANDOM = ((SKEW3_K3, 6), (SKEW3_K5, 2))
CENTER_RANK = (4, 4, 4, 4, 2)


def skew_algebra(p: int, n: int, upper) -> dict:
    """Algebra description of the skew bracket with the given upper
    triangle, listed row by row."""
    rows = [[0] * n for _ in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for (i, j), v in zip(pairs, upper):
        rows[i][j] = v % p
        rows[j][i] = (-v) % p
    return {"schema": 1, "p": p, "bracket": {"kind": "skew", "matrix": rows}}


def potential_algebra(p: int, omega: str) -> dict:
    return {"schema": 1, "p": p, "vars": ["x1", "x2", "x3"],
            "bracket": {"kind": "potential", "omega": omega}}


def _digits(upper) -> str:
    return "".join(str(v) for v in upper)


def _loz_job(job_id: str, algebra: dict) -> dict:
    return {"id": job_id, "algebra": algebra,
            "argv": ["loz", "--algebra", None, "--normal-degree", "3",
                     "--predicates", "--format", "json"]}


def _center_job(upper) -> dict:
    return {"id": f"center/p5/skew4/{_digits(upper)}",
            "algebra": skew_algebra(5, 4, upper),
            "argv": ["center", "--algebra", None, "--engine", "both",
                     "--max-degree", "15", "--format", "json"]}


def loz_catalog_jobs() -> list[dict]:
    jobs = [_loz_job(f"loz/p5/{f}", potential_algebra(5, OMEGA[f])) for f in FORM_IDS]
    jobs += [_loz_job(f"loz/p5/Elliptic-{lam}", potential_algebra(5, _elliptic_omega(5, lam)))
             for lam in elliptic_lambdas(5)]
    return jobs


def loz_skew_job(upper) -> dict:
    return _loz_job(f"loz/p5/skew3/{_digits(upper)}", skew_algebra(5, 3, upper))


def catalog_jobs() -> list[dict]:
    base = ["catalog", "--p", "7", "--verify", "--max-degree", "21", "--format", "json"]
    jobs = [{"id": f"catalog/p7/{f}", "algebra": None, "argv": base + ["--form", f]}
            for f in FORM_IDS]
    jobs += [{"id": f"catalog/p7/Elliptic-{lam}", "algebra": None,
              "argv": base + ["--form", "Elliptic", "--lam", str(lam)]}
             for lam in elliptic_lambdas(7)]
    return jobs


def skew4_rank(upper) -> int:
    """Rank over F_5 of the 4x4 skew matrix with upper triangle
    (c12, c13, c14, c23, c24, c34): 4 iff its Pfaffian is nonzero."""
    c12, c13, c14, c23, c24, c34 = upper
    if (c12 * c34 - c13 * c24 + c14 * c23) % 5:
        return 4
    return 2 if any(v % 5 for v in upper) else 0


def random_center_uppers(seed: int) -> list[tuple[int, ...]]:
    rng = random.Random(f"center_oracle/{seed}")
    uppers = []
    for rank in CENTER_RANK:
        while True:
            u = tuple(rng.randrange(5) for _ in range(6))
            if skew4_rank(u) == rank:
                uppers.append(u)
                break
    return uppers


def jobs_for(workload: str, seed: int) -> list[dict]:
    """The ordered jobs of one pass.  `argv` holds None where the path of
    the job's algebra file goes."""
    if workload == "loz_search":
        rng = random.Random(f"loz_search/{seed}")
        uppers = [u for pool, k in LOZ_RANDOM for u in rng.sample(pool, k)]
        rng.shuffle(uppers)
        return loz_catalog_jobs() + [loz_skew_job(u) for u in uppers]
    if workload == "center_oracle":
        return catalog_jobs() + [_center_job(u) for u in random_center_uppers(seed)]
    if workload == "skew_survey":
        return [{"id": "survey/p3/n4", "algebra": None,
                 "argv": ["survey", "--p", "3", "--n", "4", "--format", "json"]}]
    raise ValueError(f"unknown workload {workload!r}")


def golden_jobs(workload: str) -> list[dict]:
    """Every job whose expected output `golden/<workload>.json` holds."""
    if workload == "loz_search":
        return loz_catalog_jobs() + [loz_skew_job(u) for u in SKEW3_K3 + SKEW3_K5]
    return jobs_for(workload, DEFAULT_SEED)


def write_inputs(jobs: list[dict], workdir: str) -> list[dict]:
    """Write each job's algebra file under `workdir` and return the jobs
    with the file path filled into `argv`."""
    out = []
    for k, job in enumerate(jobs):
        argv = list(job["argv"])
        path = None
        if job["algebra"] is not None:
            path = os.path.join(workdir, f"algebra{k:03d}.json")
            with open(path, "w") as fh:
                json.dump(job["algebra"], fh)
            argv[argv.index(None)] = path
        out.append({"id": job["id"], "argv": argv, "algebra_file": path})
    return out


def load_golden(workload: str) -> dict:
    with open(os.path.join(GOLDEN_DIR, f"{workload}.json")) as fh:
        return json.load(fh)["jobs"]


def check_answer(job_id: str, argv: list[str], rc, stdout: str, golden: dict):
    """None if the job's answer is right, else the reason it is wrong."""
    expected = golden.get(job_id)
    if expected is not None:
        if rc != expected["rc"]:
            return f"exit status {rc}, expected {expected['rc']}"
        if stdout != expected["stdout"]:
            return "stdout differs from the golden output"
        return None
    if rc != 0:
        return f"exit status {rc}"
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if argv[0] == "center" and payload.get("hilbert_agree") is not True:
        return "monoid and oracle Hilbert series disagree"
    if argv[0] == "survey" and payload.get("problems") != []:
        return "survey reports problems"
    if argv[0] not in ("center", "survey"):
        return "no golden output and no cross-check for this job"
    return None
