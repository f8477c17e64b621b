"""Batch command-line front end.

Commands: center, gorenstein, classify-skew3, loz, catalog, survey,
verify-fixtures.  Output is deterministic for identical inputs; exit
status is 0 on success, 1 on a mathematical verification failure
(including a failed internal self-check), and 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from dataclasses import fields

import numpy as np

from . import fixtures
from .catalog import FORM_IDS, catalog_form, potential_catalog, verify_expected_center
from .center import (
    CenterReport,
    center_generators_skew,
    center_oracle,
    classify_skew3,
    find_beta,
    gorenstein_skew,
    gorenstein_via_theorem38,
    require_skew3,
    skew_monoid,
)
from .deriv import is_unimodular
from .errors import InternalCheckFailed, Limits, ParseError, PoisError, require_prime
from .fieldpoly import format_poly
from .loz import (
    c_loz,
    decomposable_witness,
    is_inferable,
    is_quasi_inferable,
    log_ozone_group,
)
from .serial import dump_algebra, load_algebra_file
from .structure import SkewMatrix, from_skew_matrix

SCHEMA = 1


def _count(least: int = 0):
    """The argparse type of a count flag: an integer >= least."""
    def count(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value
    return count


# Options given only to the commands that read them; --format goes to all.
# Each cap's dest is the Limits field it sets.
_OPTIONS = {
    "--cap-columns": dict(dest="columns", type=_count(), default=Limits.columns),
    "--cap-candidates": dict(dest="candidates", type=_count(),
                             default=Limits.candidates),
}


def _add_common(parser: argparse.ArgumentParser, *options: str) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text")
    for name in options:
        parser.add_argument(name, **_OPTIONS[name])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once: parsing leaves it unchanged."""
    top = argparse.ArgumentParser(prog="poismodp", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("center", help="compute a Poisson center")
    pc.add_argument("--algebra", required=True)
    pc.add_argument("--max-degree", type=_count(), default=None)
    pc.add_argument("--engine", choices=("monoid", "oracle", "both"),
                    default="oracle")
    _add_common(pc, "--cap-columns")

    pg = sub.add_parser("gorenstein", help="Gorenstein test for a skew center")
    pg.add_argument("--algebra", required=True)
    pg.add_argument("--via", choices=("stanley", "theorem38", "both"),
                    default="both")
    _add_common(pg)

    pk = sub.add_parser("classify-skew3", help="classify 3x3 skew matrices")
    pk.add_argument("--p", type=int, required=True)
    group = pk.add_mutually_exclusive_group(required=True)
    group.add_argument("--matrix", help="JSON rows, e.g. [[0,1,0],[-1,0,0],[0,0,0]]")
    group.add_argument("--all", action="store_true")
    _add_common(pk)

    pl = sub.add_parser("loz", help="log-ozone group of a graded structure")
    pl.add_argument("--algebra", required=True)
    pl.add_argument("--normal-degree", type=_count(), default=3)
    pl.add_argument("--max-degree", type=_count(), default=None)
    pl.add_argument("--predicates", action="store_true")
    _add_common(pl, "--cap-columns", "--cap-candidates")

    pt = sub.add_parser("catalog", help="dimension-3 potential catalog")
    pt.add_argument("--p", type=int, required=True)
    pt.add_argument("--form", choices=FORM_IDS)
    pt.add_argument("--lam", type=int, default=None)
    pt.add_argument("--verify", action="store_true")
    pt.add_argument("--max-degree", type=_count(), default=12)
    _add_common(pt, "--cap-columns")

    ps = sub.add_parser("survey", help="exhaustive skew-matrix survey")
    ps.add_argument("--p", type=int, required=True)
    ps.add_argument("--n", type=_count(1), default=3)
    _add_common(ps, "--cap-candidates")

    pv = sub.add_parser("verify-fixtures", help="replay the worked examples")
    _add_common(pv)
    return top


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _report_dict(report: CenterReport) -> dict:
    out = {
        "schema": SCHEMA,
        "engine": report.engine,
        "generators": [format_poly(g) for g in report.generators],
        "hilbert": report.hilbert,
        "gorenstein": report.gorenstein,
        "witness": list(report.witness) if report.witness else None,
        "B": [list(b) for b in report.box] if report.box is not None else None,
        "I": [i + 1 for i in report.nonzero_indices]
        if report.nonzero_indices is not None
        else None,
        "rank": report.rank,
        "numerator": report.numerator,
        "palindromic": report.numerator_palindromic,
        "notes": list(report.notes),
    }
    return out


def _report_text(report: CenterReport) -> list[str]:
    lines = [f"engine: {report.engine}", f"hilbert: {report.hilbert}"]
    lines.append("generators: " + ", ".join(format_poly(g) for g in report.generators))
    if report.gorenstein is not None:
        lines.append(f"gorenstein: {report.gorenstein} witness: {report.witness}")
    if report.box is not None:
        lines.append(f"B: {report.box}")
    if report.rank is not None:
        lines.append(f"rank: {report.rank}")
    if report.numerator is not None:
        lines.append(
            f"numerator: {report.numerator} palindromic: {report.numerator_palindromic}"
        )
    for note in report.notes:
        lines.append(f"note: {note}")
    return lines


def _skew_matrix_of(struct) -> SkewMatrix:
    if struct.provenance.matrix is None:
        raise ParseError("this command needs a skew-bracket algebra")
    return struct.provenance.matrix


def cmd_center(args) -> int:
    struct, _ = load_algebra_file(args.algebra)
    max_degree = 3 * struct.p if args.max_degree is None else args.max_degree
    reports = {}
    # the kernel cap and the oracle's column cap are checked before either
    # engine computes; the monoid's series checks its length last
    if args.engine in ("monoid", "both"):
        m = skew_monoid(_skew_matrix_of(struct), args.limits)
    if args.engine in ("oracle", "both"):
        reports["oracle"] = center_oracle(struct, max_degree, args.limits)
    if args.engine in ("monoid", "both"):
        reports["monoid"] = center_generators_skew(m, max_degree, args.limits)
    if args.engine == "both":
        agree = reports["monoid"].hilbert == reports["oracle"].hilbert
        payload = {
            "schema": SCHEMA,
            "engine": "both",
            "monoid": _report_dict(reports["monoid"]),
            "oracle": _report_dict(reports["oracle"]),
            "hilbert_agree": agree,
        }
        lines = ["[monoid]"] + _report_text(reports["monoid"])
        lines += ["[oracle]"] + _report_text(reports["oracle"])
        lines.append(f"hilbert_agree: {agree}")
        _emit(args, payload, lines)
        return 0 if agree else 1
    report = reports[args.engine]
    _emit(args, _report_dict(report), _report_text(report))
    return 0


def cmd_gorenstein(args) -> int:
    struct, _ = load_algebra_file(args.algebra)
    m = skew_monoid(_skew_matrix_of(struct), args.limits)
    stanley, witness = gorenstein_skew(m)
    thm38 = gorenstein_via_theorem38(m)
    beta = find_beta(m)
    payload = {
        "schema": SCHEMA,
        "B": [list(b) for b in m.B],
        "I": [i + 1 for i in m.I],
        "beta": list(beta) if beta is not None else None,
        "unimodular": is_unimodular(struct),
    }
    lines = []
    status = 0
    if args.via in ("stanley", "both"):
        payload["gorenstein"] = stanley
        payload["witness"] = list(witness) if witness else None
        lines.append(f"stanley: {stanley} witness: {witness}")
    if args.via in ("theorem38", "both"):
        payload["theorem38"] = thm38
        lines.append(f"theorem38: {thm38}")
    if args.via == "both" and thm38 is not None and thm38 != stanley:
        lines.append("MISMATCH between criteria")
        status = 1
    _emit(args, payload, lines)
    return status


def _upper_tuples(p: int, n: int):
    return itertools.product(range(p), repeat=n * (n - 1) // 2)


def _matrix_from_upper(p: int, n: int, upper) -> SkewMatrix:
    vals = dict(zip(((i, j) for i in range(n) for j in range(i + 1, n)), upper))
    return SkewMatrix.from_upper(p, n, vals)


def cmd_classify(args) -> int:
    require_prime(args.p)
    if args.matrix:
        c = SkewMatrix.from_rows(args.p, json.loads(args.matrix))
        require_skew3(c)  # before its monoid meets the kernel cap
        label = classify_skew3(skew_monoid(c, args.limits))
        _emit(args, {"schema": SCHEMA, "case": label}, [f"case: {label}"])
        return 0
    args.limits.check("candidates", args.p**3, "matrices to classify")
    counts: dict[str, int] = {}
    mismatches = []
    for upper in _upper_tuples(args.p, 3):
        m = skew_monoid(_matrix_from_upper(args.p, 3, upper), args.limits)
        label = classify_skew3(m)
        counts[label] = counts.get(label, 0) + 1
        thm38 = gorenstein_via_theorem38(m)
        if thm38 is not None and thm38 != (label != "NotGorenstein"):
            mismatches.append(upper)
    payload = {
        "schema": SCHEMA,
        "p": args.p,
        "counts": counts,
        "mismatches": [list(u) for u in mismatches],
    }
    lines = [f"{k}: {v}" for k, v in sorted(counts.items())]
    if mismatches:
        lines.append(f"MISMATCHES: {mismatches}")
    _emit(args, payload, lines)
    return 1 if mismatches else 0


def cmd_loz(args) -> int:
    struct, _ = load_algebra_file(args.algebra)
    max_degree = 2 * struct.p if args.max_degree is None else args.max_degree
    group = log_ozone_group(struct, args.normal_degree, args.limits)
    kernel = c_loz(struct, group, max_degree, args.limits)
    payload = {
        "schema": SCHEMA,
        "order": group.order,
        "search_bound": group.search_bound,
        "generators": [
            {"f": format_poly(f), "images": [format_poly(g) for g in d.images]}
            for d, f in group.basis
        ],
        "c_loz_hilbert": kernel.hilbert,
        "notes": list(group.notes),
    }
    lines = [f"order: {group.order} (search bound {group.search_bound})"]
    for d, f in group.basis:
        lines.append(
            f"generator f={format_poly(f)}: " +
            ", ".join(f"x{i + 1}->{format_poly(g)}" for i, g in enumerate(d.images))
        )
    lines.append(f"c_loz hilbert: {kernel.hilbert}")
    if args.predicates:
        inferable = is_inferable(struct, group)
        quasi = is_quasi_inferable(struct, group)
        witness = decomposable_witness(struct, group, max_degree, args.limits)
        payload["inferable"] = inferable
        payload["quasi_inferable"] = quasi
        payload["decomposable_witness"] = (
            None
            if witness is None
            else {
                "degree": witness.degree,
                "terms": [
                    {"z": format_poly(z), "f": format_poly(f)}
                    for z, _, f in witness.terms
                ],
            }
        )
        lines.append(f"inferable: {inferable} quasi_inferable: {quasi}")
        lines.append(
            "decomposable_witness: "
            + ("none found" if witness is None else
               " + ".join(f"({format_poly(z)})*({format_poly(f)})"
                          for z, _, f in witness.terms) + " = 0")
        )
    for note in group.notes:
        lines.append(f"note: {note}")
    _emit(args, payload, lines)
    return 0


def cmd_catalog(args) -> int:
    require_prime(args.p)
    forms = (
        [catalog_form(args.p, args.form, args.lam)]
        if args.form
        else potential_catalog(args.p, args.lam)
    )
    entries = []
    lines = []
    status = 0
    for form in forms:
        struct = form.structure()
        entry = {
            "form": form.label,
            "omega": format_poly(form.omega),
            "reducible": form.reducible,
            "expected_center_gens": [
                format_poly(g) for g in form.expected_center_gens
            ],
            "algebra": dump_algebra(struct),
        }
        line = f"{form.label}: omega = {format_poly(form.omega)}"
        if args.verify:
            ok = verify_expected_center(form, args.max_degree, args.limits)
            entry["center_verified"] = ok
            line += f"  center_verified={ok}"
            if not ok:
                status = 1
        entries.append(entry)
        lines.append(line)
    _emit(args, {"schema": SCHEMA, "p": args.p, "forms": entries}, lines)
    return status


def _survey_row(p: int, n: int, upper, limits: Limits) -> dict:
    c = _matrix_from_upper(p, n, upper)
    m = skew_monoid(c, limits)
    struct = from_skew_matrix(c)
    gor, _ = gorenstein_skew(m)
    thm38 = gorenstein_via_theorem38(m)
    uni = is_unimodular(struct)
    order = log_ozone_group(struct, 1, limits).order
    label = classify_skew3(m) if (n == 3 and p > 3) else None
    beta = find_beta(m)
    return {
        "upper": list(upper),
        "box_size": len(m.B),
        "gorenstein": gor,
        "theorem38": thm38,
        "unimodular": uni,
        "loz_order_deg1": order,
        "case": label,
        "has_beta": beta is not None,
        "I_size": len(m.I),
    }


def _orbit_codes(p: int, n: int) -> np.ndarray:
    """For each upper triangle, in `_upper_tuples` order, the least index
    in its orbit under S_n x F_p^*, which maps c to l * P c P^T (entry
    (i, j) becomes l * c[s(i), s(j)]).

    Every column of `_survey_row` but "upper" is constant on an orbit:
    - relabelling x_i -> x_s(i) is a Poisson isomorphism;
    - l * c has the kernel of c, hence the same `MonoidData`, and its
      modular derivation is l times that of c;
    - l * c has the normal elements of c, each log-derivation times l,
      hence the same |loz|;
    - `classify_skew3` matches its templates over all six permutations,
      with a free scalar a.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    slot = {pair: k for k, pair in enumerate(pairs)}
    weights = p ** np.arange(len(pairs) - 1, -1, -1, dtype=np.int64)
    index = np.arange(p ** len(pairs), dtype=np.int64)
    upper = index[:, None] // weights % p
    codes = index
    for perm in itertools.permutations(range(n)):
        src = [slot[min(perm[i], perm[j]), max(perm[i], perm[j])] for i, j in pairs]
        sign = [1 if perm[i] < perm[j] else -1 for i, j in pairs]
        moved = upper[:, src] * np.array(sign, dtype=np.int64)
        for lam in range(1, p):
            codes = np.minimum(codes, moved * lam % p @ weights)
    return codes


def cmd_survey(args) -> int:
    require_prime(args.p)
    p, n = args.p, args.n
    total = p ** (n * (n - 1) // 2)
    args.limits.check("candidates", total, "matrices in the survey")
    # one row per orbit, copied to the orbit's later members
    codes = _orbit_codes(p, n)
    ordered = []
    for index, upper in enumerate(_upper_tuples(p, n)):
        code = int(codes[index])
        ordered.append(_survey_row(p, n, upper, args.limits) if code == index
                       else {**ordered[code], "upper": list(upper)})
    problems = []
    for row in ordered:
        if row["unimodular"] and not row["gorenstein"]:
            problems.append(f"unimodular but not Gorenstein: {row['upper']}")
        if row["theorem38"] is not None and row["theorem38"] != row["gorenstein"]:
            problems.append(f"criteria disagree: {row['upper']}")
        if n < p and row["I_size"] > 0 and not row["has_beta"]:
            problems.append(f"beta missing despite n < p: {row['upper']}")
        if row["loz_order_deg1"] * row["box_size"] != p**n:
            # |loz| = rk_Z(P) = p^n / |B| for skew structures
            problems.append(f"log-ozone order is not p^n/|B|: {row['upper']}")
    summary = {
        "matrices": total,
        "gorenstein": sum(1 for r in ordered if r["gorenstein"]),
        "unimodular": sum(1 for r in ordered if r["unimodular"]),
        "cases": {},
    }
    for row in ordered:
        if row["case"] is not None:
            summary["cases"][row["case"]] = summary["cases"].get(row["case"], 0) + 1
    payload = {
        "schema": SCHEMA,
        "p": p,
        "n": n,
        "rows": ordered,
        "summary": summary,
        "problems": problems,
    }
    lines = [
        "upper  |B|  gor  thm38  unimod  loz1  case",
    ]
    for row in ordered:
        lines.append(
            f"{tuple(row['upper'])}  {row['box_size']}  {row['gorenstein']}  "
            f"{row['theorem38']}  {row['unimodular']}  {row['loz_order_deg1']}  "
            f"{row['case']}"
        )
    lines.append(f"summary: {summary}")
    for pr in problems:
        lines.append(f"PROBLEM: {pr}")
    _emit(args, payload, lines)
    return 1 if problems else 0


def cmd_verify_fixtures(args) -> int:
    results = fixtures.run_all()
    payload = {
        "schema": SCHEMA,
        "results": [
            {"name": name, "pass": not problems, "problems": problems}
            for name, problems in results
        ],
    }
    lines = []
    bad = False
    for name, problems in results:
        lines.append(f"{name}: {'PASS' if not problems else 'FAIL'}")
        for pr in problems:
            lines.append(f"  - {pr}")
            bad = True
    _emit(args, payload, lines)
    return 1 if bad else 0


_DISPATCH = {
    "center": cmd_center,
    "gorenstein": cmd_gorenstein,
    "classify-skew3": cmd_classify,
    "loz": cmd_loz,
    "catalog": cmd_catalog,
    "survey": cmd_survey,
    "verify-fixtures": cmd_verify_fixtures,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    caps = {f.name for f in fields(Limits)}
    args.limits = Limits(**{k: v for k, v in vars(args).items() if k in caps})
    try:
        return _DISPATCH[args.command](args)
    except InternalCheckFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (PoisError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
