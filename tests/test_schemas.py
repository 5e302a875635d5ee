"""The compiled schema checks against jsonschema, the oracle.

``jsonio.validate`` runs a checker compiled from each shipped schema file.
Here every schema's checker must agree with ``Draft202012Validator`` on
accept or reject: on a valid document of each kind, emitted by the CLI
or read by it, and on hypothesis mutations of it (wrong types, ``bool``
and ``1.0`` for integers, extra and missing keys, enum near-misses,
surfaces that match neither ``oneOf`` branch, short and long rows).  Every
loader must refuse each mutated document the oracle rejects.  A few
synthetic schemas cover what the shipped documents cannot reach, such as
a value that matches both ``oneOf`` branches.
"""

import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st
from referencing import Registry, Resource

import eulerpart
from eulerpart import SurfaceSpec, build_complex, jsonio
from eulerpart.cli import main

DATA = Path(__file__).parent / "data"
MOEBIUS_8 = DATA / "moebius_8x8.json"
PROJECTIVE_CYCLE = {"surface": {"surface": "projective", "width": 8, "height": 8},
                    "cycle": {"midline": "horizontal"}}

REGISTRY = Registry().with_resources(
    (f"{name}.json", Resource.from_contents(jsonio.load_schema(name)))
    for name in jsonio.SCHEMA_NAMES
)

# the command that emits each kind of document; the partition, cycle and
# cut-path documents are read, not emitted, and a surface only inside them
EMITTERS = {
    "invariants": ["invariants", str(MOEBIUS_8)],
    "verdict": ["verify", str(MOEBIUS_8)],
    "cover_report": ["cover-check", str(MOEBIUS_8)],
    "complement": ["circle", "{cycle}"],
    "transition": ["bisect", "--beta", str(math.pi / 6), "--tol", "0.1", "--n", "24"],
    "sweep": ["sweep", "--family", "phi", "--beta", str(math.pi / 6), "--count", "3", "--n", "16"],
    "batch": ["random-check", "--surface", "klein", "--count", "3", "--seed", "1", "--size", "6"],
    "nodal_result": ["nodal", "--family", "bands", "--m", "3", "--n", "16"],
    "surgery": ["normalize", str(MOEBIUS_8)],
}


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """One valid document of each of the thirteen kinds."""
    tmp = tmp_path_factory.mktemp("docs")
    cycle = tmp / "cycle.json"
    cycle.write_text(json.dumps(PROJECTIVE_CYCLE))
    docs = {}
    for name, args in EMITTERS.items():
        out = tmp / f"{name}.json"
        assert main([a.format(cycle=cycle) for a in args] + ["--out", str(out)]) == 0
        docs[name] = json.loads(out.read_text())
    partition = json.loads(MOEBIUS_8.read_text())
    docs["partition"] = partition
    docs["surface"] = partition["surface"]
    docs["cycle"] = PROJECTIVE_CYCLE
    moebius = build_complex(SurfaceSpec.named("moebius", 8, 8))
    docs["cut_path"] = {"edges": [moebius.horizontal_edge(i, 4) for i in range(8)]}
    # a failure, so that the batch document reaches partition.json through $ref
    docs["batch"]["failures"] = [partition]
    assert set(docs) == set(jsonio.SCHEMA_NAMES)
    return docs


def oracle_accepts(schema: dict, doc) -> bool:
    return jsonschema.Draft202012Validator(schema, registry=REGISTRY).is_valid(doc)


def compiled_accepts(schema: dict, doc) -> bool:
    try:
        jsonio._compile(schema)(doc)
    except jsonio._Mismatch:
        return False
    return True


def validate_accepts(name: str, doc) -> bool:
    try:
        jsonio.validate(name, doc)
    except jsonio.DocumentError:
        return False
    return True


@pytest.mark.parametrize("name", jsonio.SCHEMA_NAMES)
def test_every_emitted_document_passes_both(name, documents):
    assert oracle_accepts(jsonio.load_schema(name), documents[name])
    assert validate_accepts(name, documents[name])


# values a mutation puts in place of any node
ANY_VALUE = [None, True, False, 0, 1, -1, 2, 1.0, 0.5, -2.5, "", "x", "1", "moebius", [], [0], [True], {}]
# keys a mutation adds to an object: unknown ones and those of a sibling
# oneOf branch or a neighbouring schema
EXTRA_KEYS = ["extra", "surface", "x_gluing", "y_gluing", "family", "m", "walls", "domains", "error"]


@st.composite
def mutated(draw, doc):
    """``doc`` with one to three nodes replaced, extended or cut short."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        parent, key, node = None, None, doc
        while isinstance(node, (dict, list)) and node and draw(st.booleans()):
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
            parent, node = node, node[key]
        options = [st.sampled_from(ANY_VALUE)]
        if isinstance(node, int) and not isinstance(node, bool):
            # 1.0 for 1, true for 1, a near-miss on an enum or a bound
            options.append(st.sampled_from([float(node), node == 1, node + 1, node - 1, -node - 1, str(node)]))
        if isinstance(node, str):
            options.append(st.sampled_from([node + "x", node.upper(), node[:-1]]))
        if isinstance(node, dict):
            extra = draw(st.sampled_from(EXTRA_KEYS))
            options.append(st.just({**node, extra: draw(st.sampled_from(ANY_VALUE + ["open"]))}))
            if node:
                gone = draw(st.sampled_from(sorted(node)))
                options.append(st.just({k: v for k, v in node.items() if k != gone}))
        if isinstance(node, list):
            options.append(st.just(node[:-1]))
            if node:
                options.append(st.just(node + [copy.deepcopy(node[-1])]))
            options.append(st.just(node + [draw(st.sampled_from(ANY_VALUE))]))
        new = copy.deepcopy(draw(st.one_of(options)))  # ANY_VALUE holds lists
        if parent is None:
            doc = new
        else:
            parent[key] = new
    return doc


@pytest.mark.parametrize("name", jsonio.SCHEMA_NAMES)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_documents_agree_with_jsonschema(name, documents, data):
    doc = data.draw(mutated(documents[name]))
    assert validate_accepts(name, doc) == oracle_accepts(jsonio.load_schema(name), doc), doc


def _surface_in_partition(doc):
    """Load a surface document the one way the package reads one: as the
    surface of a one-domain partition document with one label per face."""
    size = [doc.get("width"), doc.get("height")] if isinstance(doc, dict) else []
    sized = len(size) == 2 and all(isinstance(v, int) and not isinstance(v, bool) for v in size)
    return jsonio.partition_from_json({"surface": doc, "labels": [0] * (size[0] * size[1] if sized else 1)})


#: the loader of each kind of document the CLI reads
LOADERS = {
    "partition": jsonio.partition_from_json,
    "surface": _surface_in_partition,
    "cycle": jsonio.cycle_from_json,
    "cut_path": jsonio.cut_path_from_json,
}


@pytest.mark.parametrize("name", LOADERS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_document_the_oracle_rejects_does_not_load(name, documents, data):
    doc = data.draw(mutated(documents[name]))
    if oracle_accepts(jsonio.load_schema(name), doc):
        try:
            LOADERS[name](doc)
        except ValueError:
            pass  # a value the library refuses, such as an edge id out of range
    else:
        # only the schema or the surface may refuse it, not a label count
        # that does not fit the surface
        with pytest.raises(ValueError) as refused:
            LOADERS[name](doc)
        assert "labels must cover" not in str(refused.value), doc


@pytest.mark.parametrize("name,edit", [
    ("invariants", lambda d: d.update(kappa=True)),
    ("invariants", lambda d: d.update(beta=1.0)),
    ("invariants", lambda d: d.update(omega=True)),
    ("invariants", lambda d: d.update(omega=1.0)),
    ("invariants", lambda d: d.update(sigma=-1)),
    ("invariants", lambda d: d.update(sigma=-0.5)),
    ("invariants", lambda d: d.update(extra=0)),
    ("invariants", lambda d: d["domains"][0].pop("genus")),
    ("invariants", lambda d: d["domains"][0].update(genus=None)),
    ("invariants", lambda d: d["orientable"].append(1)),
    ("partition", lambda d: d["labels"].append(True)),
    ("partition", lambda d: d["labels"].append(-1)),
    ("partition", lambda d: d["labels"].append(2.0)),
    ("partition", lambda d: d["labels"].append(2.5)),
    ("partition", lambda d: d.update(walls=[[3, 4.0]])),
    ("partition", lambda d: d.update(walls=[3, 4])),
    ("surface", lambda d: d.update(x_gluing="open", y_gluing="open")),
    ("surface", lambda d: d.pop("surface")),
    ("surface", lambda d: d.update(width=1)),
    ("batch", lambda d: d.update(k_range=[1])),
    ("batch", lambda d: d.update(k_range=[1, 2, 3])),
    ("batch", lambda d: d["defect_histogram"].update({"0": False})),
    ("batch", lambda d: d["failures"][0]["labels"].append(False)),
    ("nodal_result", lambda d: d["levels"][0].pop()),
    ("nodal_result", lambda d: d["levels"][0].append(0)),
    ("cover_report", lambda d: d["preimage_counts"].append(True)),
    ("cover_report", lambda d: d["preimage_counts"].append(2.0)),
    ("cycle", lambda d: d.update(cycle={"midline": "horizontal", "block": [0, 0, 2, 2]})),
    ("cycle", lambda d: d.update(cycle={"block": [0, 0, 2]})),
    ("cycle", lambda d: d.update(cycle={"block": [0, 0, 2, 2.0]})),
    ("cycle", lambda d: d.update(cycle=[0, True])),
    ("cycle", lambda d: d.update(cycle=[0, -1])),
    ("cycle", lambda d: d["surface"].update(x_gluing="open")),
    ("cut_path", lambda d: d["edges"].append(1.0)),
    ("cut_path", lambda d: d["edges"].append(None)),
    ("cut_path", lambda d: d.update(path=[])),
])
def test_near_misses_agree_with_jsonschema(name, edit, documents):
    doc = copy.deepcopy(documents[name])
    edit(doc)
    assert validate_accepts(name, doc) == oracle_accepts(jsonio.load_schema(name), doc)


SYNTHETIC = [
    # 3 matches both branches, "x" only the second: minimum applies to numbers only
    ({"oneOf": [{"type": "integer"}, {"minimum": 0}]}, [3, -1, 0.5, -0.5, "x", True, None]),
    ({"type": ["integer", "null"]}, [None, 1, 1.0, 1.5, True, "1", [1]]),
    ({"type": "number", "minimum": 0}, [0, 0.0, -0.0, 2.5, -1, True, False, "0"]),
    ({"enum": [0, 1, "a"]}, [0, 1, 1.0, 0.0, True, False, "a", "1", [1], {"a": 1}, None]),
    ({"type": "array", "items": {"type": "integer", "minimum": 0}, "minItems": 1, "maxItems": 3},
     [[], [0], [0, 1, 2], [0, 1, 2, 3], [1.0], [True], [-1], [0, "1"], [[0]], "abc", {"0": 1}]),
    ({"additionalProperties": {"type": "boolean"}, "properties": {"n": {"type": "integer"}},
      "required": ["n"]},
     [{"n": 1}, {"n": 1, "b": True}, {"n": 1, "b": 1}, {"b": True}, {"n": True}, [], "n"]),
]


@pytest.mark.parametrize("schema,values", SYNTHETIC)
def test_synthetic_schemas_agree_with_jsonschema(schema, values):
    for value in values:
        assert compiled_accepts(schema, value) == oracle_accepts(schema, value), value


@pytest.mark.parametrize("schema,keyword", [
    ({"type": "string", "pattern": "^a"}, "pattern"),
    ({"properties": {"n": {"type": "integer", "maximum": 3}}}, "maximum"),
    ({"items": {"uniqueItems": True}}, "uniqueItems"),
    ({"oneOf": [{"type": "integer"}, {"not": {"type": "null"}}]}, "not"),
])
def test_an_unknown_keyword_is_refused_at_compile_time(schema, keyword):
    with pytest.raises(ValueError, match=f"schema keywords \\['{keyword}'\\] are not supported"):
        jsonio._compile(schema)


def test_an_unknown_type_or_reference_is_refused_at_compile_time():
    with pytest.raises(ValueError, match="schema types \\['float'\\] are not supported"):
        jsonio._compile({"type": "float"})
    with pytest.raises(ValueError, match="schema \\$ref 'sphere.json' names no shipped schema"):
        jsonio._compile({"$ref": "sphere.json"})


def test_a_mismatch_names_the_path_and_the_keyword(documents):
    doc = copy.deepcopy(documents["invariants"])
    doc["domains"][1]["chi"] = "2"
    with pytest.raises(jsonio.DocumentError) as raised:
        jsonio.validate("invariants", doc)
    assert raised.value.message == "invariants $.domains[1].chi: '2' is not of type 'integer' (type)"
    assert str(raised.value) == raised.value.message
    assert raised.value.validator == "type"
    assert list(raised.value.path) == ["domains", 1, "chi"]


def test_a_one_of_mismatch_names_each_branch_at_its_path():
    doc = {"surface": {"surface": "moebius", "width": 4.9, "height": 4}, "labels": [0] * 16}
    with pytest.raises(jsonio.DocumentError) as raised:
        jsonio.validate("partition", doc)
    assert raised.value.message == (
        "partition $.surface: matches none of 2 schemas: $.width: 4.9 is not of type 'integer'; "
        "$: 'x_gluing' is a required property (oneOf)")
    assert raised.value.path == ["surface"]


GOOD_PARTITION = {"surface": {"surface": "rectangle", "width": 2, "height": 2}, "labels": [0, 0, 1, 1]}


@pytest.mark.parametrize("doc,message", [
    ({**GOOD_PARTITION, "labels": [0, -1, 1, 1]},
     "partition $.labels[1]: -1 is less than the minimum of 0 (minimum)"),
    ({**GOOD_PARTITION, "extra": 0}, "partition $: additional property 'extra' is not allowed"),
    ({**GOOD_PARTITION, "surface": {"width": 2, "height": 2}},
     "partition $.surface: matches none of 2 schemas: $: 'surface' is a required property; "
     "$: 'x_gluing' is a required property (oneOf)"),
    ({**GOOD_PARTITION, "surface": {"surface": "rectangle", "width": 2, "height": 2, "x_gluing": "open"}},
     "partition $.surface: matches none of 2 schemas: $: additional property 'x_gluing' is not allowed; "
     "$: 'y_gluing' is a required property (oneOf)"),
], ids=["negative-label", "extra-key", "no-gluings", "name-and-gluing"])
def test_a_partition_the_schema_rejects_is_a_usage_error(doc, message, tmp_path, capsys):
    # each of these once loaded and exited 0
    f = tmp_path / "p.json"
    f.write_text(json.dumps(doc))
    assert main(["invariants", str(f)]) == 2
    assert message in capsys.readouterr().err


def test_a_successful_emit_imports_neither_jsonschema_nor_referencing(tmp_path):
    out = tmp_path / "invariants.json"
    bad = tmp_path / "null-labels.json"
    bad.write_text(json.dumps({**GOOD_PARTITION, "labels": None}))
    script = (
        "import sys\n"
        "from eulerpart.cli import main\n"
        f"assert main(['invariants', {str(MOEBIUS_8)!r}, '--out', {str(out)!r}]) == 0\n"
        f"assert main(['invariants', {str(bad)!r}]) == 2\n"
        "print([m for m in ('jsonschema', 'referencing') if m in sys.modules])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(eulerpart.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    assert json.loads(out.read_text())["surface"] == "moebius"
