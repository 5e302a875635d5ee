"""JSON serialization for every wire format, plus schema validation.

All emitted documents validate against the JSON Schemas shipped under
``eulerpart/schemas``; ``validate(name, obj)`` checks an object against a
schema by file stem.  Serialization is deterministic: callers should dump
with ``sort_keys=True`` (the CLI does).

Loading checks the shape of a document: objects, required fields and
lists.  Sizes and edge ids are checked where the library consumes them
(``SurfaceSpec``, ``from_labels``, ``plan_cut``,
``classify_circle_complement``), with the same messages for a document
and for a caller.
"""

from __future__ import annotations

import json
from importlib import resources

from .complexes import PRESETS, CellComplex, SurfaceSpec, build_complex
from .cover import CoverReport
from .errors import integer
from .explore import BatchResult, SweepResult, TransitionEstimate
from .nodal import Eigenfunction, Factor, Term, family, finite_real
from .partition import (
    ComplementClass,
    DomainReport,
    InvariantReport,
    Partition,
    Verdict,
    from_labels,
)

_SCHEMA_CACHE: dict = {}
_REGISTRY = None

SCHEMA_NAMES = (
    "surface", "partition", "invariants", "verdict", "cover_report",
    "complement", "transition", "sweep", "batch",
    "eigenfunction", "surgery", "nodal_result",
)


def load_schema(name: str) -> dict:
    if name not in _SCHEMA_CACHE:
        path = resources.files("eulerpart").joinpath(f"schemas/{name}.json")
        _SCHEMA_CACHE[name] = json.loads(path.read_text(encoding="utf-8"))
    return _SCHEMA_CACHE[name]


def _registry():
    """Resolver registry so schemas can $ref their siblings by file name."""
    global _REGISTRY
    if _REGISTRY is None:
        from referencing import Registry, Resource

        _REGISTRY = Registry().with_resources(
            (f"{name}.json", Resource.from_contents(load_schema(name)))
            for name in SCHEMA_NAMES
        )
    return _REGISTRY


def validate(name: str, obj) -> None:
    """Raise jsonschema.ValidationError if obj does not match the schema."""
    import jsonschema

    validator = jsonschema.Draft202012Validator(load_schema(name), registry=_registry())
    validator.validate(obj)


# ---------------------------------------------------------------------------
# surfaces and partitions


def surface_to_json(spec: SurfaceSpec) -> dict:
    preset = PRESETS.get(spec.kind)
    if preset == (spec.x_gluing, spec.y_gluing):
        return {"surface": spec.kind, "width": spec.width, "height": spec.height}
    return {
        "width": spec.width,
        "height": spec.height,
        "x_gluing": spec.x_gluing,
        "y_gluing": spec.y_gluing,
    }


def _require_object(obj, what: str, *fields: str) -> None:
    """Reject anything but a JSON object holding every required field."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    for name in fields:
        if name not in obj:
            raise ValueError(f"{what} is missing the field {name!r}")


def surface_from_json(obj: dict) -> SurfaceSpec:
    _require_object(obj, "surface", "width", "height")
    if "surface" in obj:
        return SurfaceSpec.named(obj["surface"], obj["width"], obj["height"])
    return SurfaceSpec(
        obj["width"],
        obj["height"],
        obj.get("x_gluing", "open"),
        obj.get("y_gluing", "open"),
    )


def partition_to_json(p: Partition) -> dict:
    out = {
        "surface": surface_to_json(p.complex.spec),
        "labels": [int(x) for x in p.domains],
    }
    if p.walls:
        out["walls"] = [sorted(int(w) for w in p.walls)]
    return out


def partition_from_json(obj: dict) -> Partition:
    _require_object(obj, "partition", "surface", "labels")
    c = build_complex(surface_from_json(obj["surface"]))
    walls = []
    raw_walls = obj.get("walls", [])
    if not isinstance(raw_walls, list):
        raise ValueError(f"partition walls must be a list of edge ids, got {type(raw_walls).__name__}")
    for group in raw_walls:
        if isinstance(group, list):
            walls.extend(group)
        else:
            walls.append(group)
    return from_labels(c, obj["labels"], walls=walls)


def _edge_ids(value, what: str) -> list:
    """A JSON list of edge ids, checked by ``CellComplex.edge_ids`` where
    the library consumes them."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list of edge ids, got {type(value).__name__}")
    return value


def cut_path_from_json(doc) -> list:
    """The edge ids of a cut-path document: ``{"edges": [...]}`` or a bare list."""
    if isinstance(doc, list):
        return _edge_ids(doc, "cut path")
    _require_object(doc, "cut path", "edges")
    return _edge_ids(doc["edges"], "cut path")


def cycle_from_json(doc) -> tuple[CellComplex, list]:
    """The complex and edge ids of a cycle document; ``cycle`` is a list of
    edge ids or one of the descriptions ``_cycle_from_description`` reads."""
    _require_object(doc, "cycle document", "surface", "cycle")
    c = build_complex(surface_from_json(doc["surface"]))
    cycle = doc["cycle"]
    if isinstance(cycle, dict):
        return c, _cycle_from_description(c, cycle)
    return c, _edge_ids(cycle, "cycle")


def _cycle_from_description(c: CellComplex, desc: dict) -> list[int]:
    """Grid conveniences: ``{"midline": "horizontal" | "vertical"}`` and
    ``{"block": [i0, j0, i1, j1]}``, the boundary of a block of faces."""
    W, H = c.spec.width, c.spec.height
    if "midline" in desc:
        if desc["midline"] == "horizontal":
            return [c.horizontal_edge(i, H // 2) for i in range(W)]
        if desc["midline"] == "vertical":
            return [c.vertical_edge(W // 2, j) for j in range(H)]
        raise ValueError(f"cycle midline must be 'horizontal' or 'vertical', got {desc['midline']!r}")
    if "block" in desc:
        block = desc["block"]
        if not isinstance(block, list) or len(block) != 4:
            raise ValueError(f"cycle block must be a list [i0, j0, i1, j1], got {block!r}")
        i0, j0, i1, j1 = (integer(v, "cycle block corner") for v in block)
        edges = [c.horizontal_edge(i, j0) for i in range(i0, i1)]
        edges += [c.vertical_edge(i1, j) for j in range(j0, j1)]
        edges += [c.horizontal_edge(i, j1) for i in range(i1 - 1, i0 - 1, -1)]
        edges += [c.vertical_edge(i0, j) for j in range(j1 - 1, j0 - 1, -1)]
        return edges
    raise ValueError("cycle description needs 'midline' or 'block'")


# ---------------------------------------------------------------------------
# eigenfunctions


def eigenfunction_from_json(obj: dict) -> Eigenfunction:
    """A family member or an explicit term list; values are checked, never coerced."""
    _require_object(obj, "eigenfunction")
    if "family" in obj:
        return family(obj["family"], obj)
    _require_object(obj, "eigenfunction", "terms")
    if not isinstance(obj["terms"], list):
        raise ValueError(f"eigenfunction terms must be a list, got {type(obj['terms']).__name__}")
    return Eigenfunction(terms=tuple(_term_from_json(t) for t in obj["terms"]))


def _term_from_json(t) -> Term:
    _require_object(t, "eigenfunction term", "c", "fx", "fy")
    return Term(
        finite_real(t["c"], "term coefficient c"), _factor_from_json(t["fx"]), _factor_from_json(t["fy"])
    )


def _factor_from_json(fac) -> Factor:
    _require_object(fac, "term factor", "k", "m")
    return Factor(
        fac["k"],
        integer(fac["m"], "factor frequency m"),
        finite_real(fac.get("p", 0.0), "factor phase p"),
    )


def eigenfunction_to_json(f: Eigenfunction) -> dict:
    return {
        "terms": [
            {
                "c": t.coeff,
                "fx": {"k": t.fx.kind, "m": t.fx.freq, "p": t.fx.phase},
                "fy": {"k": t.fy.kind, "m": t.fy.freq, "p": t.fy.phase},
            }
            for t in f.terms
        ]
    }


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
        "surface": v.surface,
        "expected_defect": v.expected_defect,
        "measured_defect": v.measured_defect,
        "status": v.status,
        "conjecture": v.conjecture,
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
        "failures": list(b.failures),
        "defect_histogram": {str(k): v for k, v in b.defect_histogram.items()},
        "chi_sigma_ok": b.chi_sigma_ok,
        "cover_checked": b.cover_checked,
        "omega_agreements": b.omega_agreements,
        "max_nonorientable": b.max_nonorientable,
    }


def dumps(obj: dict) -> str:
    """Canonical JSON text: sorted keys, no trailing whitespace."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
