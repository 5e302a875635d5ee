import json
import math
import re

import numpy as np
import pytest

from eulerpart import (
    SurfaceSpec,
    build_complex,
    classify_circle_complement,
    cover_bookkeeping,
    cut,
    domain_reports,
    double_cover,
    from_labels,
    invariants,
    plan_cut,
    verify_euler,
)
from eulerpart import jsonio
from eulerpart.explore import batch_verify, bisect_transition, sweep
from eulerpart.nodal import NodalConfig


def bands3_partition():
    c = build_complex(SurfaceSpec.named("moebius", 12, 12))
    x = (np.arange(12) + 0.5) * math.pi / 12
    return from_labels(c, np.tile((np.sin(3 * x) > 0).astype(int), (12, 1)).ravel())


def surface_partition(surface: dict, n_faces: int = 16) -> dict:
    """A one-domain partition document on ``surface``: a partition reads
    its surface through the surface schema's ``$ref``."""
    return {"surface": surface, "labels": [0] * n_faces}


def test_surface_roundtrip():
    specs = [SurfaceSpec.named(name, 6, 4) for name in ("rectangle", "moebius", "projective")]
    for spec in specs + [SurfaceSpec(6, 4, "periodic", "open")]:
        doc = jsonio.surface_to_json(spec)
        jsonio.validate("surface", doc)
        assert jsonio.partition_from_json(surface_partition(doc, 24)).complex.spec == spec


@pytest.mark.parametrize("field,value,message", [
    ("width", 4.9, "partition $.surface: matches none of 2 schemas: $.width: 4.9 is not of type 'integer'"),
    # JSON Schema counts 4.0 as an integer; SurfaceSpec does not
    ("height", 4.0, "surface height must be an integer, got 4.0"),
    ("width", "4", "$.width: '4' is not of type 'integer'"),
    ("height", True, "$.height: True is not of type 'integer'"),
], ids=["width-4.9", "height-4.0", "width-4", "height-True"])
def test_surface_size_must_be_an_integer(field, value, message):
    # a width of 4.9 must be rejected, not truncated to 4
    doc = {"surface": "moebius", "width": 4, "height": 4, field: value}
    with pytest.raises(ValueError, match=re.escape(message)):
        jsonio.partition_from_json(surface_partition(doc))


def test_wall_ids_must_be_integers():
    doc = jsonio.partition_to_json(bands3_partition())
    doc["walls"] = [[12.5]]
    with pytest.raises(ValueError, match=re.escape("partition $.walls[0][0]: 12.5 is not of type 'integer'")):
        jsonio.partition_from_json(doc)
    doc["walls"] = [[12.0]]  # an integer to JSON Schema, not to the library
    with pytest.raises(ValueError, match="wall edge id must be an integer, got 12.0"):
        jsonio.partition_from_json(doc)


def test_partition_roundtrip():
    p = bands3_partition()
    doc = jsonio.partition_to_json(p)
    jsonio.validate("partition", doc)
    q = jsonio.partition_from_json(doc)
    assert np.array_equal(p.domains, q.domains)
    assert invariants(p).key() == invariants(q).key()


@pytest.mark.parametrize(
    "name, load, doc",
    [
        ("partition", jsonio.partition_from_json, jsonio.partition_to_json(bands3_partition())),
        ("cycle", jsonio.cycle_from_json, {"surface": {"surface": "projective", "width": 8, "height": 8},
                                           "cycle": {"midline": "horizontal"}}),
    ],
)
def test_a_load_checks_its_document_once(monkeypatch, name, load, doc):
    # the document's schema checks its surface through $ref, so the nested
    # surface is read without a second check
    checked, validate = [], jsonio.validate

    def counting(schema, obj):
        checked.append(schema)
        return validate(schema, obj)

    monkeypatch.setattr(jsonio, "validate", counting)
    load(doc)
    assert checked == [name]


def test_partition_with_walls_roundtrip():
    c = build_complex(SurfaceSpec.named("moebius", 6, 6))
    p0 = from_labels(c, np.zeros(36, dtype=int))
    p = cut(plan_cut(p0, [c.horizontal_edge(i, 3) for i in range(6)]))
    doc = jsonio.partition_to_json(p)
    jsonio.validate("partition", doc)
    q = jsonio.partition_from_json(doc)
    assert q.walls == p.walls
    assert invariants(q).key() == invariants(p).key()


def test_walls_reject_flat_lists():
    # partition.json holds walls as a list of lists of edge ids, and only that
    c = build_complex(SurfaceSpec.named("moebius", 6, 6))
    p0 = from_labels(c, np.zeros(36, dtype=int))
    path = [c.horizontal_edge(i, 3) for i in range(6)]
    p = cut(plan_cut(p0, path))
    doc = jsonio.partition_to_json(p)
    doc["walls"] = sorted(int(w) for w in p.walls)  # flat form
    with pytest.raises(jsonio.DocumentError, match=re.escape("partition $.walls[0]: ")) as raised:
        jsonio.partition_from_json(doc)
    assert raised.value.validator == "type"


def test_report_schemas():
    p = bands3_partition()
    rep = invariants(p)
    doc = jsonio.invariants_to_json(rep, domain_reports(p))
    jsonio.validate("invariants", doc)
    assert doc["kappa"] == 2 and doc["omega"] == 1

    vdoc = jsonio.verdict_to_json(verify_euler(p))
    jsonio.validate("verdict", vdoc)
    assert vdoc["status"] == "pass"

    cs = double_cover(p.complex)
    cdoc = jsonio.cover_report_to_json(cover_bookkeeping(cs, p))
    jsonio.validate("cover_report", cdoc)
    assert cdoc["kappa_star"] == 3

    proj = build_complex(SurfaceSpec.named("projective", 8, 8))
    cyc = [proj.horizontal_edge(i, 4) for i in range(8)]
    xdoc = jsonio.complement_to_json(classify_circle_complement(proj, cyc))
    jsonio.validate("complement", xdoc)


def test_sweep_and_transition_schemas():
    res = sweep("bands", [3, 5], config=NodalConfig(n=20))
    doc = jsonio.sweep_to_json(res)
    jsonio.validate("sweep", doc)

    est = bisect_transition(math.pi / 6, tol=0.05, config=NodalConfig(n=48))
    tdoc = jsonio.transition_to_json(est)
    jsonio.validate("transition", tdoc)


def test_batch_schema():
    res = batch_verify("moebius", 5, seed=1, k_range=(1, 3), size=12)
    doc = jsonio.batch_to_json(res)
    jsonio.validate("batch", doc)


def test_dumps_deterministic():
    p = bands3_partition()
    doc = jsonio.partition_to_json(p)
    assert jsonio.dumps(doc) == jsonio.dumps(json.loads(jsonio.dumps(doc)))


def test_schema_rejects_bad_documents():
    with pytest.raises(jsonio.DocumentError, match=re.escape("surface $: matches none of 2 schemas: $.surface:")):
        jsonio.validate("surface", {"surface": "sphere", "width": 4, "height": 4})
    with pytest.raises(jsonio.DocumentError, match=re.escape("invariants $: 'surface' is a required property (required)")):
        jsonio.validate("invariants", {"kappa": 1})


def test_integral_float_labels_read_as_their_integers():
    # partition.json's labels are JSON Schema integers, which include 1.0
    doc = {"surface": {"surface": "rectangle", "width": 2, "height": 2}, "labels": [0.0, 0.0, 1.0, 1]}
    p = jsonio.partition_from_json(doc)
    assert p.domains.tolist() == [0, 0, 1, 1]
    assert p.domains.dtype.kind == "i"


def test_wide_labels_round_trip_as_distinct_domains():
    # 4294967296 = 2**32 shares its low 32 bits with 0
    doc = {"surface": {"surface": "rectangle", "width": 2, "height": 2},
           "labels": [0, 4294967296, 0, 4294967296]}
    p = jsonio.partition_from_json(json.loads(json.dumps(doc)))
    assert p.n_domains == 2
    out = jsonio.partition_to_json(p)
    assert out["labels"] == [0, 1, 0, 1]
    assert jsonio.partition_from_json(out).domains.tolist() == p.domains.tolist()
