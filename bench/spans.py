"""Spans around the public functions of each poismodp layer, recorded from
outside the program.

`Tracer.wrap` returns a function that records one span per call: its name,
start, end and the span that was open when it was called (its parent).
`install_layer_spans` wraps the functions listed in `LAYER_SPANS` and puts
each wrapper in every place that refers to the original: the defining
module, every poismodp module that imported it by name, and class aliases
such as `MultiPoly.__rmul__`.  Without that, calls made through a
by-name import would escape their span.

Spans are kept in flat arrays, because the survey workload makes over a
million of them, and `summarize` derives self time (span time minus the
time of direct child spans) from the arrays when the pass ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (span name, defining module, attribute path).  The span name is the
# metric prefix: `<layer>.<function>`.
LAYER_SPANS = [
    ("linalg.rref", "poismodp.linalg", "rref"),
    ("linalg.nullspace", "poismodp.linalg", "nullspace"),
    ("linalg.in_row_space", "poismodp.linalg", "in_row_space"),
    ("linalg.minimal_polynomial", "poismodp.linalg", "minimal_polynomial"),
    ("fieldpoly.mul", "poismodp.fieldpoly", "MultiPoly.__mul__"),
    ("fieldpoly.add", "poismodp.fieldpoly", "MultiPoly.__add__"),
    ("fieldpoly.pow", "poismodp.fieldpoly", "MultiPoly.__pow__"),
    ("fieldpoly.divides", "poismodp.fieldpoly", "divides"),
    ("structure.build", "poismodp.structure", "PoissonStructure.__init__"),
    ("structure.bracket_with_gen", "poismodp.structure",
     "PoissonStructure.bracket_with_gen"),
    ("deriv.add", "poismodp.deriv", "Derivation.__add__"),
    ("deriv.matrix_on_degree", "poismodp.deriv", "Derivation.matrix_on_degree"),
    ("deriv.is_unimodular", "poismodp.deriv", "is_unimodular"),
    ("center.bracket_matrices", "poismodp.center", "bracket_matrices"),
    ("center.center_oracle", "poismodp.center", "center_oracle"),
    ("center.skew_monoid", "poismodp.center", "skew_monoid"),
    ("center.center_generators_skew", "poismodp.center", "center_generators_skew"),
    ("center.graded_span_dims", "poismodp.center", "graded_span_dims"),
    ("center.classify_skew3", "poismodp.center", "classify_skew3"),
    ("loz.pder0_matrix_space", "poismodp.loz", "pder0_matrix_space"),
    ("loz.enumerate_normal", "poismodp.loz", "enumerate_normal"),
    ("loz.log_ozone_group", "poismodp.loz", "log_ozone_group"),
    ("loz.is_poisson_normal", "poismodp.loz", "is_poisson_normal"),
    ("loz.c_loz", "poismodp.loz", "c_loz"),
    ("loz.is_inferable", "poismodp.loz", "is_inferable"),
    ("loz.decomposable_witness", "poismodp.loz", "decomposable_witness"),
    ("catalog.verify_expected_center", "poismodp.catalog", "verify_expected_center"),
    ("serial.load_algebra", "poismodp.serial", "load_algebra"),
    ("cli.main", "poismodp.cli", "main"),
]


def _rref_cells(args, result):
    rows, cols = args[0].shape
    return rows * cols


def _nonempty(args, result):
    return 1 if result else 0


def _group_elements(args, result):
    return len(result.elements)


# Work counted at a span boundary: span name -> (counter name, function of
# the call's arguments and result giving the amount to add).
LAYER_COUNTS = {
    "linalg.rref": ("linalg.rref.cells", _rref_cells),
    "linalg.nullspace": ("linalg.nullspace.nonempty", _nonempty),
    "loz.log_ozone_group": ("loz.group_elements", _group_elements),
}


class Tracer:
    """In-memory span recorder.  Span i has name `names[i]`, parent index
    `parents[i]` (-1 for a root span) and times `starts[i]`, `ends[i]`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.span_names: list[str] = []
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: dict[str, int] = {}
        self._stack = [-1]

    def wrap(self, name: str, fn, count=None):
        """`fn` wrapped so that every call records a span called `name`;
        `count`, if given, is a (counter name, function) pair as in
        `LAYER_COUNTS`."""
        name_id = len(self.span_names)
        self.span_names.append(name)
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, clock, counts = self._stack, self.clock, self.counts

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                counter, amount = count
                counts[counter] = counts.get(counter, 0) + amount(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def summarize(self) -> dict[str, dict]:
        """Per span name: calls, total seconds, self seconds, and the
        number of spans whose parent has each other name."""
        n = len(self.names)
        names = np.array(self.names, dtype=np.int64)
        parents = np.array(self.parents, dtype=np.int64)
        dur = np.array(self.ends, dtype=np.float64) - np.array(self.starts, dtype=np.float64)
        has_parent = parents >= 0
        child_time = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child_time
        k = len(self.span_names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        selft = np.bincount(names, weights=self_time, minlength=k)
        parent_name = np.where(has_parent, names[np.maximum(parents, 0)], -1)
        out = {}
        for i, name in enumerate(self.span_names):
            mine = names == i
            by_parent = {}
            if calls[i]:
                pn, pc = np.unique(parent_name[mine], return_counts=True)
                by_parent = {
                    (self.span_names[a] if a >= 0 else None): int(c)
                    for a, c in zip(pn, pc)
                }
            out[name] = {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(selft[i]),
                "parents": by_parent,
            }
        return out


def _resolve(module, path: str):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install_layer_spans(tracer: Tracer) -> list[tuple]:
    """Wrap every function in `LAYER_SPANS` and replace each reference to
    it inside the poismodp package.  Returns the replaced references as
    (owner, attribute, original) for `uninstall`."""
    import poismodp.cli  # noqa: F401  (imports every other layer)

    modules = [m for key, m in sys.modules.items()
               if key == "poismodp" or key.startswith("poismodp.")]
    classes = {id(c): c for m in modules for c in vars(m).values()
               if isinstance(c, type) and c.__module__.startswith("poismodp")}
    owners = modules + list(classes.values())
    replaced = []
    for span, module_name, path in LAYER_SPANS:
        owner, attr = _resolve(sys.modules[module_name], path)
        orig = vars(owner)[attr]
        wrapped = tracer.wrap(span, orig, LAYER_COUNTS.get(span))
        for target in owners:
            for key, value in list(vars(target).items()):
                if value is orig:
                    setattr(target, key, wrapped)
                    replaced.append((target, key, orig))
    return replaced


def uninstall(replaced: list[tuple]) -> None:
    for target, key, orig in replaced:
        setattr(target, key, orig)
