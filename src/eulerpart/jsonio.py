"""JSON serialization for every wire format, plus schema checking.

Every document the package reads or the CLI emits is checked against the
JSON Schema of its kind, shipped under ``eulerpart/schemas``; the schema
files are the one statement of each format.  ``validate(name, obj)``
checks an object against a schema by file stem and raises
``DocumentError``, a ``ValueError``, naming the kind, the JSON path and
the failing keyword.  Each schema is compiled once, on first use, into a
tree of small closures that implements exactly the keywords the shipped
schemas use, with JSON Schema's (draft 2020-12) semantics; compiling
refuses any other keyword, so a schema can never ask for a check that is
silently skipped.  An array of integers is checked in one pass over its
item types and one ``min``.  The tests hold the compiled checker to
``jsonschema``, the oracle; the package never imports it.
Serialization is deterministic: callers should dump with
``sort_keys=True`` (the CLI does).

Every ``*_from_json`` loader validates its document first and then builds
from the checked document.  A surface has no loader of its own: partition
and cycle documents read theirs through the surface schema's ``$ref``.
What a schema cannot state stays with the library that consumes the
value: sizes and the face cap (``SurfaceSpec``), edge ids and their range
(``CellComplex.edge_ids``), and sizes and ids given as integral floats
such as ``2.0``, which JSON Schema counts as integers and
``errors.integer`` rejects.  Labels are only compared with each other, so
a label ``2.0`` reads as ``2``.
"""

from __future__ import annotations

import functools
import json
import numbers
import reprlib
from importlib import resources

import numpy as np

from .complexes import SURFACES, CellComplex, SurfaceSpec, build_complex
from .cover import CoverReport
from .errors import integer
from .explore import BatchResult, SweepResult, TransitionEstimate
from .partition import (
    ComplementClass,
    DomainReport,
    InvariantReport,
    Partition,
    Verdict,
    from_labels,
)

SCHEMA_NAMES = (
    "surface", "partition", "cycle", "cut_path", "invariants", "verdict",
    "cover_report", "complement", "transition", "sweep", "batch",
    "surgery", "nodal_result",
)


def load_schema(name: str) -> dict:
    path = resources.files("eulerpart").joinpath(f"schemas/{name}.json")
    return json.loads(path.read_text(encoding="utf-8"))


class DocumentError(ValueError):
    """A document that does not match its schema: ``validator`` is the
    failing keyword and ``path`` the keys and indices to the failing value."""

    def __init__(self, message: str, validator: str, path: list):
        super().__init__(message)
        self.message = message
        self.validator = validator
        self.path = path


def validate(name: str, obj) -> None:
    """Raise ``DocumentError`` if obj does not match the schema ``name``."""
    try:
        _checker(name)(obj)
    except _Mismatch as e:
        path = list(reversed(e.path))
        raise DocumentError(f"{name} {_where(path)}: {e.message} ({e.keyword})", e.keyword, path) from None


def _where(path: list) -> str:
    """A JSON path such as ``$.domains[1].chi`` from its keys and indices."""
    return "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)


# ---------------------------------------------------------------------------
# compiled schema checks


class _Mismatch(Exception):
    """A value fails ``keyword``; ``path`` gathers the keys and indices
    from the failing value outward as the exception leaves each level."""

    def __init__(self, keyword: str, message: str):
        super().__init__(message)
        self.keyword = keyword
        self.message = message
        self.path = []


def _is_number(x) -> bool:
    return not isinstance(x, bool) and isinstance(x, numbers.Number)


# JSON Schema's types: ``integer`` takes an integral float such as 1.0, and
# neither ``integer`` nor ``number`` takes a bool
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "null": lambda x: x is None,
    "number": _is_number,
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool))
    or (isinstance(x, float) and x.is_integer()),
}
# the exact Python types each JSON type takes without a further test
_EXACT = {
    "object": {dict}, "array": {list}, "string": {str}, "boolean": {bool},
    "null": {type(None)}, "number": {int, float}, "integer": {int},
}
_IGNORED = frozenset({"$id", "$schema", "title"})
_KEYWORDS = frozenset({
    "type", "properties", "required", "additionalProperties", "items", "enum",
    "minimum", "minItems", "maxItems", "oneOf", "$ref",
})


@functools.cache
def _checker(name: str):
    return _compile(load_schema(name))


def _compile(schema: dict):
    """A function that returns if its argument matches ``schema`` and
    raises ``_Mismatch`` if not; ``ValueError`` for a keyword it does not
    implement."""
    if not isinstance(schema, dict):
        raise ValueError(f"a schema must be an object, got {schema!r}")
    unknown = set(schema) - _KEYWORDS - _IGNORED
    if unknown:
        raise ValueError(f"schema keywords {sorted(unknown)} are not supported")
    checks = []
    if "$ref" in schema:
        checks.append(_ref(schema["$ref"]))
    if "type" in schema:
        checks.append(_type(schema["type"]))
    if "enum" in schema:
        checks.append(_enum(schema["enum"]))
    if "minimum" in schema:
        checks.append(_minimum(schema["minimum"]))
    if {"properties", "required", "additionalProperties"} & set(schema):
        checks.append(_object(schema))
    if {"items", "minItems", "maxItems"} & set(schema):
        checks.append(_array(schema))
    if "oneOf" in schema:
        checks.append(_one_of(schema["oneOf"]))
    if len(checks) == 1:
        return checks[0]

    def check(x):
        for each in checks:
            each(x)

    return check


def _ref(ref: str):
    stem = ref.removesuffix(".json")
    if stem not in SCHEMA_NAMES or ref != f"{stem}.json":
        raise ValueError(f"schema $ref {ref!r} names no shipped schema")
    return _checker(stem)


def _type(names):
    names = [names] if isinstance(names, str) else list(names)
    unknown = set(names) - set(_TYPES)
    if unknown:
        raise ValueError(f"schema types {sorted(unknown)} are not supported")
    exact = frozenset().union(*(_EXACT[n] for n in names))
    tests = [_TYPES[n] for n in names]
    expected = ", ".join(map(repr, names))

    def check(x):
        if type(x) not in exact and not any(test(x) for test in tests):
            raise _Mismatch("type", f"{reprlib.repr(x)} is not of type {expected}")

    return check


def _enum(values: list):
    # JSON Schema compares true and 1 as different values, and 1.0 and 1 as
    # equal; with no bool among the allowed values, no bool matches
    if not all(isinstance(v, (str, int, float)) and not isinstance(v, bool) for v in values):
        raise ValueError(f"schema enum {values!r} holds a value that is not a string or a number")
    allowed = tuple(values)

    def check(x):
        if isinstance(x, bool) or x not in allowed:
            raise _Mismatch("enum", f"{reprlib.repr(x)} is not one of {values!r}")

    return check


def _minimum(bound):
    def check(x):
        if _is_number(x) and x < bound:
            raise _Mismatch("minimum", f"{x!r} is less than the minimum of {bound!r}")

    return check


def _object(schema: dict):
    properties = {k: _compile(v) for k, v in schema.get("properties", {}).items()}
    required = schema.get("required", [])
    extra = schema.get("additionalProperties", True)
    if extra is not True and extra is not False:
        extra = _compile(extra)

    def check(x):
        if not isinstance(x, dict):
            return
        for key in required:
            if key not in x:
                raise _Mismatch("required", f"{key!r} is a required property")
        for key, value in x.items():
            sub = properties.get(key, extra)
            if sub is True:
                continue
            if sub is False:
                raise _Mismatch("additionalProperties", f"additional property {key!r} is not allowed")
            try:
                sub(value)
            except _Mismatch as e:
                e.path.append(key)
                raise

    return check


def _array(schema: dict):
    lo, hi = schema.get("minItems", 0), schema.get("maxItems")
    item_schema = schema.get("items")
    items = None if item_schema is None else _compile(item_schema)
    # integer items, perhaps bounded below, are checked in one pass when
    # every item is exactly an int
    int_items = items is not None and item_schema.get("type") == "integer" and (
        set(item_schema) <= {"type", "minimum"})
    least = item_schema.get("minimum") if int_items else None

    def check(x):
        if not isinstance(x, list):
            return
        if len(x) < lo:
            raise _Mismatch("minItems", f"{reprlib.repr(x)} has fewer than {lo} items")
        if hi is not None and len(x) > hi:
            raise _Mismatch("maxItems", f"{reprlib.repr(x)} has more than {hi} items")
        if items is None:
            return
        if int_items and _all_ints(x) and (least is None or not x or min(x) >= least):
            return
        for i, value in enumerate(x):
            try:
                items(value)
            except _Mismatch as e:
                e.path.append(i)
                raise

    return check


def _all_ints(values: list) -> bool:
    """Whether every item of ``values`` is exactly a Python ``int``."""
    return set(map(type, values)) <= {int}


def _one_of(schemas: list):
    branches = [_compile(s) for s in schemas]

    def check(x):
        # each branch's own mismatch at its path from x; holding the
        # exceptions themselves would tie this frame into a reference cycle
        misses = []
        for branch in branches:
            try:
                branch(x)
            except _Mismatch as e:
                misses.append(f"{_where(e.path[::-1])}: {e.message}")
        matched = len(branches) - len(misses)
        if matched == 0:
            raise _Mismatch("oneOf", f"matches none of {len(branches)} schemas: {'; '.join(misses)}")
        if matched > 1:
            raise _Mismatch("oneOf", f"{reprlib.repr(x)} matches {matched} of {len(branches)} schemas, not one")

    return check


# ---------------------------------------------------------------------------
# surfaces and partitions


def surface_to_json(spec: SurfaceSpec) -> dict:
    preset = SURFACES[spec.kind]
    if (preset.x_gluing, preset.y_gluing) == (spec.x_gluing, spec.y_gluing):
        return {"surface": spec.kind, "width": spec.width, "height": spec.height}
    return {
        "width": spec.width,
        "height": spec.height,
        "x_gluing": spec.x_gluing,
        "y_gluing": spec.y_gluing,
    }


def _surface(doc: dict) -> SurfaceSpec:
    """The spec of a surface checked as the ``$ref`` of an enclosing
    document."""
    if "surface" in doc:
        return SurfaceSpec.named(doc["surface"], doc["width"], doc["height"])
    return SurfaceSpec(doc["width"], doc["height"], doc["x_gluing"], doc["y_gluing"])


def partition_to_json(p: Partition) -> dict:
    out = {
        "surface": surface_to_json(p.complex.spec),
        "labels": p.domains.tolist(),
    }
    if p.walls:
        out["walls"] = [sorted(int(w) for w in p.walls)]
    return out


def partition_from_json(doc) -> Partition:
    validate("partition", doc)
    c = build_complex(_surface(doc["surface"]))
    try:
        # the schema's integers include integral floats such as 2.0, which
        # convert exactly; labels are only compared with each other
        labels = np.asarray(doc["labels"], dtype=np.int64)
    except OverflowError:
        raise ValueError(f"partition labels must lie in the int64 range, got {max(doc['labels'])}") from None
    walls = [e for group in doc.get("walls", []) for e in group]
    return from_labels(c, labels, walls=walls)


def cut_path_from_json(doc) -> list:
    """The edge ids of a cut-path document: ``{"edges": [...]}`` or a bare list."""
    validate("cut_path", doc)
    return doc if isinstance(doc, list) else doc["edges"]


def cycle_from_json(doc) -> tuple[CellComplex, list]:
    """The complex and edge ids of a cycle document; ``cycle`` is a list of
    edge ids, ``{"midline": "horizontal" | "vertical"}`` or
    ``{"block": [i0, j0, i1, j1]}``, the boundary of a block of faces."""
    validate("cycle", doc)
    c = build_complex(_surface(doc["surface"]))
    cycle = doc["cycle"]
    if isinstance(cycle, list):
        return c, cycle
    W, H = c.spec.width, c.spec.height
    if cycle.get("midline") == "horizontal":
        return c, [c.horizontal_edge(i, H // 2) for i in range(W)]
    if cycle.get("midline") == "vertical":
        return c, [c.vertical_edge(W // 2, j) for j in range(H)]
    i0, j0, i1, j1 = (integer(v, "cycle block corner") for v in cycle["block"])
    edges = [c.horizontal_edge(i, j0) for i in range(i0, i1)]
    edges += [c.vertical_edge(i1, j) for j in range(j0, j1)]
    edges += [c.horizontal_edge(i, j1) for i in range(i1 - 1, i0 - 1, -1)]
    edges += [c.vertical_edge(i0, j) for j in range(j1 - 1, j0 - 1, -1)]
    return c, edges


# ---------------------------------------------------------------------------
# reports


def invariants_to_json(rep: InvariantReport, domains: list[DomainReport] | None = None) -> dict:
    out = {
        "surface": rep.surface,
        "kappa": rep.kappa,
        "beta": rep.beta,
        "sigma": rep.sigma,
        "omega": rep.omega,
        "delta": rep.delta,
        "defect": rep.defect,
        "beta_interior": rep.beta_interior,
        "n_singular_interior": rep.n_singular_interior,
        "n_singular_boundary": rep.n_singular_boundary,
        "orientable": [bool(b) for b in rep.orientable],
    }
    if domains is not None:
        out["domains"] = [domain_report_to_json(d) for d in domains]
    return out


def domain_report_to_json(d: DomainReport) -> dict:
    return {
        "domain": d.domain,
        "faces": d.n_faces,
        "chi": d.chi,
        "orientable": d.orientable,
        "boundary_circles": d.boundary_circles,
        "genus": d.genus,
        "crosscaps": d.crosscaps,
        "classification": d.classification,
        "normal": d.normal,
    }


def verdict_to_json(v: Verdict) -> dict:
    return {
        "surface": v.report.surface,
        "expected_defect": v.expected_defect,
        "measured_defect": v.measured_defect,
        "status": v.status,
        "conjecture": v.status == "conjecture",
        "invariants": invariants_to_json(v.report),
    }


def cover_report_to_json(r: CoverReport) -> dict:
    return {
        "kappa": r.kappa,
        "beta": r.beta,
        "sigma": r.sigma,
        "kappa_star": r.kappa_star,
        "beta_star": r.beta_star,
        "sigma_star": r.sigma_star,
        "n_nonorientable": r.n_nonorientable,
        "preimage_counts": list(r.preimage_counts),
        "beta_i": r.beta_interior,
        "beta_i_star": r.beta_interior_star,
        "boundary_circles_joined": r.boundary_circles_joined,
        "relation_flags": r.relation_flags,
    }


def complement_to_json(r: ComplementClass) -> dict:
    return {
        "n_components": r.n_components,
        "pieces": [
            {
                "kind": piece.kind,
                "faces": piece.faces,
                "chi": piece.chi,
                "orientable": piece.orientable,
                "boundary_circles": piece.boundary_circles,
            }
            for piece in r.pieces
        ],
    }


def transition_to_json(t: TransitionEstimate) -> dict:
    return {
        "beta": t.beta,
        "theta_low": t.theta_low,
        "theta_high": t.theta_high,
        "width": t.width,
        "resolutions": list(t.resolutions),
        "evaluations": t.evaluations,
    }


def sweep_to_json(s: SweepResult) -> dict:
    rows = []
    for r in s.rows:
        row = {"theta": r.theta, "stable": r.stable}
        if r.stable:
            row.update(
                n=r.n, kappa=r.kappa, beta=r.beta, sigma=r.sigma,
                omega=r.omega, defect=r.defect,
            )
        else:
            row["error"] = r.error
        rows.append(row)
    return {
        "family": s.family,
        "beta": s.beta,
        "rows": rows,
        "findings": list(s.findings),
    }


def batch_to_json(b: BatchResult) -> dict:
    return {
        "surface": b.surface,
        "count": b.count,
        "seed": b.seed,
        "k_range": list(b.k_range),
        "verdict_mode": b.verdict_mode,
        "passes": b.passes,
        "failures": [partition_to_json(p) for p in b.failures],
        "defect_histogram": {str(k): v for k, v in b.defect_histogram.items()},
        "chi_sigma_ok": b.chi_sigma_ok,
        "cover_checked": b.cover_checked,
        "omega_agreements": b.omega_agreements,
        "max_nonorientable": b.max_nonorientable,
    }


def dumps(obj: dict) -> str:
    """Canonical JSON text: sorted keys, no trailing whitespace."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
