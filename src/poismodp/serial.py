"""JSON (de)serialization of algebra descriptions.

The on-disk schema is versioned: files may carry "schema": 1 and any
unknown field is rejected so that fixtures double as regression
artifacts.  Derivations appear only inside an Ore bracket, as the
generator images of its alpha and beta.
"""

from __future__ import annotations

import json
from typing import Optional

from .deriv import Derivation
from .errors import ParseError, require_prime
from .fieldpoly import default_var_names, format_poly, parse_poly
from .structure import (
    PoissonStructure,
    SkewMatrix,
    from_potential,
    from_skew_matrix,
    from_ore,
)

SCHEMA_VERSION = 1

_ALGEBRA_KEYS = {"schema", "p", "vars", "bracket"}
_BRACKET_KEYS = {
    "skew": {"kind", "matrix"},
    "potential": {"kind", "omega"},
    "explicit": {"kind", "pairs"},
    "ore": {"kind", "base", "alpha", "beta"},
}


def _check_keys(obj: dict, allowed: set, what: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ParseError(f"unknown fields in {what}: {sorted(unknown)}")


def _field(obj: dict, key: str, kind: type, what: str):
    """obj[key], present and of JSON type `kind` (true and false are no int)."""
    if key not in obj:
        raise ParseError(f"{what} needs '{key}'")
    value = obj[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ParseError(f"'{key}' in {what} must be {kind.__name__}, got {value!r}")
    return value


def _strings(obj: dict, key: str, what: str) -> list[str]:
    items = _field(obj, key, list, what)
    if not all(isinstance(s, str) for s in items):
        raise ParseError(f"'{key}' in {what} must be a list of str, got {items!r}")
    return items


def load_algebra(obj: dict) -> tuple[PoissonStructure, list[str]]:
    """Build a structure from a parsed JSON object; returns the
    structure and its variable names."""
    if not isinstance(obj, dict):
        raise ParseError("algebra description must be a JSON object")
    _check_keys(obj, _ALGEBRA_KEYS, "algebra")
    if "schema" in obj and obj["schema"] != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema version {obj['schema']!r}")
    p = _field(obj, "p", int, "the algebra description")
    try:
        require_prime(p)
    except Exception as exc:
        raise ParseError(str(exc)) from exc
    bracket = _field(obj, "bracket", dict, "the algebra description")
    kind = _field(bracket, "kind", str, "'bracket'")
    if kind not in _BRACKET_KEYS:
        raise ParseError(f"unknown bracket kind {kind!r}")
    what = f"bracket kind {kind!r}"
    _check_keys(bracket, _BRACKET_KEYS[kind], what)

    if kind == "skew":
        matrix = _field(bracket, "matrix", list, what)
        names = _names(obj, len(matrix))
        struct = from_skew_matrix(SkewMatrix.from_rows(p, matrix))
        return struct, names
    if kind == "potential":
        names = _names(obj, 3)
        omega = parse_poly(_field(bracket, "omega", str, what), p, 3, names)
        return from_potential(omega), names
    if kind == "explicit":
        names = _vars(obj, "an explicit algebra")
        n = len(names)
        table = {}
        for pair in _field(bracket, "pairs", list, what):
            if not isinstance(pair, dict):
                raise ParseError(f"explicit pair must be an object, got {pair!r}")
            _check_keys(pair, {"i", "j", "value"}, "explicit pair")
            i = _field(pair, "i", int, "explicit pair") - 1
            j = _field(pair, "j", int, "explicit pair") - 1
            if not 0 <= i < j < n:
                raise ParseError(f"pair indices {pair['i']},{pair['j']} out of range")
            table[(i, j)] = parse_poly(_field(pair, "value", str, "explicit pair"),
                                       p, n, names)
        return PoissonStructure(p, n, table), names
    # ore
    base, base_names = load_algebra(_field(bracket, "base", dict, what))
    if base.p != p:
        raise ParseError("ore base has a different modulus")
    alpha = _load_images(_strings(bracket, "alpha", what), base, base_names, "alpha")
    beta = _load_images(_strings(bracket, "beta", what), base, base_names, "beta")
    names = _names(obj, base.n + 1, default=base_names + [f"x{base.n + 1}"])
    return from_ore(base, alpha, beta), names


def _vars(obj: dict, what: str) -> list[str]:
    """The 'vars' list: strings, no name given twice."""
    names = _strings(obj, "vars", what)
    if len(set(names)) != len(names):
        raise ParseError(f"'vars' in {what} repeats a name: {names!r}")
    return names


def _names(obj: dict, n: int, default: Optional[list[str]] = None) -> list[str]:
    if "vars" in obj:
        names = _vars(obj, "the algebra")
        if len(names) != n:
            raise ParseError(f"expected {n} variable names, got {len(names)}")
        return names
    return default if default is not None else default_var_names(n)


def _load_images(strings, base: PoissonStructure, names, what: str) -> Derivation:
    if len(strings) != base.n:
        raise ParseError(f"'{what}' needs {base.n} generator images")
    images = [parse_poly(s, base.p, base.n, names) for s in strings]
    return Derivation(base.p, base.n, images)


def dump_algebra(struct: PoissonStructure, var_names=None) -> dict:
    """JSON object for a structure; skew and potential provenance keep
    their compact forms, everything else becomes an explicit table."""
    names = list(var_names) if var_names else default_var_names(struct.n)
    obj = {"schema": SCHEMA_VERSION, "p": struct.p, "vars": names}
    prov = struct.provenance
    if prov.matrix is not None:
        obj["bracket"] = {
            "kind": "skew",
            "matrix": [list(row) for row in prov.matrix.entries],
        }
    elif prov.kind == "potential" and prov.omega is not None:
        obj["bracket"] = {
            "kind": "potential",
            "omega": format_poly(prov.omega, names),
        }
    else:
        pairs = [
            {"i": i + 1, "j": j + 1, "value": format_poly(h, names)}
            for (i, j), h in sorted(struct.table.items())
        ]
        obj["bracket"] = {"kind": "explicit", "pairs": pairs}
    return obj


def load_algebra_file(path: str) -> tuple[PoissonStructure, list[str]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return load_algebra(obj)
