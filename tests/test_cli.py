import hashlib
import itertools
import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import eulerpart
from eulerpart import SurfaceSpec, build_complex, from_labels
from eulerpart.cli import build_parser, main
from eulerpart.jsonio import dumps, partition_from_json, partition_to_json
from eulerpart.render import MAX_PIXELS


@pytest.fixture()
def bands3_file(tmp_path):
    c = build_complex(SurfaceSpec.named("moebius", 12, 12))
    x = (np.arange(12) + 0.5) * math.pi / 12
    p = from_labels(c, np.tile((np.sin(3 * x) > 0).astype(int), (12, 1)).ravel())
    path = tmp_path / "bands3.json"
    path.write_text(dumps(partition_to_json(p)))
    return path


def run(args, capsys):
    code = main([str(a) for a in args])
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_invariants_command(bands3_file, capsys):
    code, doc = run(["invariants", bands3_file], capsys)
    assert code == 0
    assert (doc["kappa"], doc["omega"], doc["beta"], doc["sigma"]) == (2, 1, 1, 0)
    assert len(doc["domains"]) == 2


def test_verify_command(bands3_file, capsys):
    code, doc = run(["verify", bands3_file], capsys)
    assert code == 0
    assert doc["status"] == "pass"


def test_verify_report_only_torus(tmp_path, capsys):
    c = build_complex(SurfaceSpec.named("torus", 6, 6))
    p = from_labels(c, np.zeros(36, dtype=int))
    f = tmp_path / "t.json"
    f.write_text(dumps(partition_to_json(p)))
    code, doc = run(["verify", f], capsys)
    assert code == 0
    assert doc["status"] == "report_only"


def test_nodal_command(capsys):
    code, doc = run(
        ["nodal", "--family", "bands", "--m", "3", "--surface", "moebius", "--n", "30"],
        capsys,
    )
    assert code == 0
    inv = doc["invariants"]
    assert (inv["kappa"], inv["omega"], inv["beta"], inv["sigma"]) == (2, 1, 1, 0)
    assert doc["verdict"]["status"] == "pass"
    assert inv["defect"] == 0


def test_nodal_instability_exit_code(capsys):
    code = main(["nodal", "--family", "bands", "--m", "3", "--n", "8",
                 "--max-refine", "0"])
    assert code == 3


def test_nodal_on_the_zero_set_exits_unstable(capsys):
    code = main(["nodal", "--family", "bands", "--m", "0", "--n", "8"])
    assert code == 3
    assert "zero set" in capsys.readouterr().err


def test_a_bug_in_a_command_is_not_a_usage_error(bands3_file, monkeypatch):
    # nothing in the package raises KeyError, so one is a bug: it
    # propagates instead of exiting 2 as if the input were wrong
    import eulerpart.cli

    def broken(p):
        raise KeyError("missing")

    monkeypatch.setattr(eulerpart.cli, "invariants", broken)
    with pytest.raises(KeyError, match="missing"):
        main(["invariants", str(bands3_file)])


def test_sweep_command(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    code = main(["sweep", "--family", "phi", "--beta", str(math.pi / 6),
                 "--count", "5", "--n", "48", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["rows"]) == 5
    assert all(r["defect"] == 0 for r in doc["rows"] if r["stable"])


def test_bisect_command(capsys):
    code, doc = run(["bisect", "--beta", str(math.pi / 6), "--tol", "0.05",
                     "--n", "48"], capsys)
    assert code == 0
    assert doc["width"] <= 0.05


def test_random_check_command(capsys):
    code, doc = run(["random-check", "--surface", "moebius", "--count", "10",
                     "--seed", "7", "--size", "12"], capsys)
    assert code == 0
    assert doc["passes"] == 10
    assert doc["defect_histogram"] == {"0": 10}


def test_random_check_writes_a_failing_partition(capsys, monkeypatch):
    # a batch keeps its failing partitions and writes them only in the
    # batch document; the first chi-sigma check is forced to fail
    import dataclasses

    from eulerpart import explore, jsonio
    from eulerpart.partition import check_chi_sigma

    seen = []

    def failing_once(p):
        seen.append(p)
        return dataclasses.replace(check_chi_sigma(p), holds=len(seen) > 1)

    monkeypatch.setattr(explore, "check_chi_sigma", failing_once)
    res = explore.batch_verify("moebius", 3, seed=7, k_range=(1, 4), size=12)
    assert res.failures == (seen[0],) and res.passes == 2
    doc = jsonio.batch_to_json(res)
    assert doc["failures"] == [partition_to_json(seen[0])]
    jsonio.validate("batch", doc)

    seen.clear()
    code, doc = run(["random-check", "--surface", "moebius", "--count", "3",
                     "--seed", "7", "--k-max", "4", "--size", "12"], capsys)
    assert code == 1
    assert doc["failures"] == [partition_to_json(seen[0])]


def test_cover_check_on_file(bands3_file, capsys):
    code, doc = run(["cover-check", bands3_file], capsys)
    assert code == 0
    assert doc["kappa_star"] == 3


def test_circle_command(tmp_path, capsys):
    doc = {"surface": {"surface": "projective", "width": 8, "height": 8},
           "cycle": {"midline": "horizontal"}}
    f = tmp_path / "cycle.json"
    f.write_text(json.dumps(doc))
    code, out = run(["circle", f], capsys)
    assert code == 0
    assert out["n_components"] == 1

    doc["cycle"] = {"block": [2, 2, 4, 4]}
    f.write_text(json.dumps(doc))
    code, out = run(["circle", f], capsys)
    assert code == 0
    assert out["n_components"] == 2


def test_cut_command(tmp_path, capsys):
    c = build_complex(SurfaceSpec.named("moebius", 6, 6))
    p = from_labels(c, np.zeros(36, dtype=int))
    pf = tmp_path / "p.json"
    pf.write_text(dumps(partition_to_json(p)))
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"edges": [c.horizontal_edge(i, 3) for i in range(6)]}))
    code, doc = run(["cut", pf, "--path", path], capsys)
    assert code == 0
    assert doc["after"]["omega"] == 0
    assert doc["after"]["delta"] == doc["before"]["delta"]
    assert doc["n_crossings"] == 0


def test_cut_command_plans_once(tmp_path, capsys, monkeypatch):
    from eulerpart import cli, partition

    calls = []

    def counting(p, edges):
        calls.append(list(edges))
        return plan(p, edges)

    plan = partition.plan_cut
    monkeypatch.setattr(cli, "plan_cut", counting)
    monkeypatch.setattr(partition, "plan_cut", counting)
    c = build_complex(SurfaceSpec.named("moebius", 6, 6))
    pf = tmp_path / "p.json"
    pf.write_text(dumps(partition_to_json(from_labels(c, np.zeros(36, dtype=int)))))
    path = tmp_path / "path.json"
    edges = [c.horizontal_edge(i, 3) for i in range(6)]
    path.write_text(json.dumps({"edges": edges}))
    code, doc = run(["cut", pf, "--path", path], capsys)
    assert code == 0 and doc["n_crossings"] == 0
    assert calls == [edges]


def test_normalize_command(tmp_path, capsys):
    c = build_complex(SurfaceSpec.named("rectangle", 4, 3))
    lab = np.ones(12, dtype=int)
    for i, j in [(1, 0), (0, 0), (0, 1), (0, 2), (1, 2), (2, 2), (2, 1)]:
        lab[j * 4 + i] = 0
    pf = tmp_path / "s.json"
    pf.write_text(dumps(partition_to_json(from_labels(c, lab))))
    code, doc = run(["normalize", pf], capsys)
    assert code == 0
    assert doc["after"]["kappa"] == doc["before"]["kappa"] + 1
    assert doc["after"]["delta"] == doc["before"]["delta"]
    assert doc["refine_factor"] == 3


def test_normalize_takes_no_refine_factor(bands3_file, capsys):
    # normalization always refines by 3; the factor is not an option
    assert main(["normalize", str(bands3_file), "--refine-factor", "4"]) == 2
    assert capsys.readouterr().out == ""


def test_render_command(bands3_file, tmp_path, capsys):
    out = tmp_path / "img.ppm"
    assert main(["render", str(bands3_file), "--out", str(out)]) == 0
    assert out.read_bytes().startswith(b"P6")
    out_svg = tmp_path / "img.svg"
    assert main(["render", str(bands3_file), "--out", str(out_svg)]) == 0
    assert out_svg.read_bytes().startswith(b"<svg")
    # the format comes from the suffix in any case
    out_upper = tmp_path / "upper.PPM"
    assert main(["render", str(bands3_file), "--out", str(out_upper)]) == 0
    assert out_upper.read_bytes() == out.read_bytes()


@pytest.mark.parametrize("name", ["img.png", "img"])
def test_render_rejects_an_unknown_suffix(name, bands3_file, tmp_path, capsys):
    out = tmp_path / name
    assert main(["render", str(bands3_file), "--out", str(out)]) == 2
    assert "--out" in capsys.readouterr().err
    assert not out.exists()


#: the smallest cell size whose render of a 12x12 grid, (12 s + 12)² pixels, is above the cap
ABOVE_CAP = next(s for s in itertools.count(1) if (12 * s + 12) ** 2 > MAX_PIXELS)


@pytest.mark.parametrize("suffix, cell_px", [
    (".ppm", "0"), (".ppm", "-3"), (".ppm", str(ABOVE_CAP)), (".svg", "0"), (".svg", "-3"),
])
def test_render_rejects_bad_cell_px(suffix, cell_px, bands3_file, tmp_path, capsys):
    out = tmp_path / ("img" + suffix)
    tracemalloc.start()
    try:
        assert main(["render", str(bands3_file), "--cell-px", cell_px, "--out", str(out)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 22  # nothing image-sized: the image above the cap takes about 200 MB
    assert "cell_px" in capsys.readouterr().err
    assert not out.exists()


def test_svg_above_the_pixel_cap_renders(bands3_file, tmp_path):
    # the cap guards the PPM's pixel buffer; an SVG grows with its runs and strokes
    out = tmp_path / "img.svg"
    assert main(["render", str(bands3_file), "--cell-px", str(ABOVE_CAP), "--out", str(out)]) == 0
    side = 12 * ABOVE_CAP + 12
    assert out.read_bytes().startswith(f'<svg xmlns="http://www.w3.org/2000/svg" width="{side}"'.encode())


def test_cli_deterministic_output(bands3_file, capsys):
    code1, doc1 = run(["invariants", bands3_file], capsys)
    code2, doc2 = run(["invariants", bands3_file], capsys)
    assert doc1 == doc2


def test_usage_errors(capsys, tmp_path):
    assert main(["no-such-command"]) == 2
    assert main(["verify", str(tmp_path / "missing.json")]) == 2


def test_dangling_wall_is_a_usage_error(tmp_path, capsys):
    # a caller's wall that ends mid-surface is malformed input, not a failed invariant
    c = build_complex(SurfaceSpec.named("rectangle", 4, 4))
    wall = int(c.vertical_edge(2, 1))
    doc = {"surface": {"surface": "rectangle", "width": 4, "height": 4},
           "labels": [0] * 16,
           "walls": [[wall]]}
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc))
    assert main(["invariants", str(f)]) == 2
    assert f"wall edge {wall} has a dangling end" in capsys.readouterr().err


def test_invariant_violation_exit_code(bands3_file, monkeypatch, capsys):
    # a failed internal check exits 1, apart from the usage errors' 2
    from eulerpart import InvariantViolation, partition

    def broken(p):
        raise InvariantViolation("patched failure")

    monkeypatch.setattr(partition, "_compute_invariants", broken)
    assert main(["invariants", str(bands3_file)]) == 1
    assert "invariant violation: patched failure" in capsys.readouterr().err


def test_an_emitted_document_that_fails_its_schema_exits_1(bands3_file, monkeypatch, capsys):
    # the program's own output is checked like any document; a mismatch is its own fault
    from eulerpart import jsonio

    emit = jsonio.invariants_to_json

    def without_kappa(*args):
        doc = emit(*args)
        del doc["kappa"]
        return doc

    monkeypatch.setattr(jsonio, "invariants_to_json", without_kappa)
    assert main(["invariants", str(bands3_file)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invariant violation: emitted invariants $: 'kappa' is a required property (required)" in captured.err


@pytest.mark.parametrize("key,value,message", [
    ("labels", [0.7, 0.2, 1.9, 1.1], "partition $.labels[0]: 0.7 is not of type 'integer' (type)"),
    ("labels", ["1", "1", "0", "0"], "partition $.labels[0]: '1' is not of type 'integer' (type)"),
    ("surface", {"surface": "rectangle", "width": 2.9, "height": 2},
     "partition $.surface: matches none of 2 schemas: $.width: 2.9 is not of type 'integer'"),
    # JSON Schema counts 2.0 as an integer; SurfaceSpec does not
    ("surface", {"surface": "rectangle", "width": 2.0, "height": 2}, "surface width must be an integer, got 2.0"),
    ("labels", [0, 0, 1e20, 1], "partition labels must lie in the int64 range, got 1e+20"),
], ids=["float-labels", "string-labels", "float-width", "integral-float-width", "wide-float-label"])
def test_non_integer_input_is_a_usage_error(key, value, message, tmp_path, capsys):
    doc = {"surface": {"surface": "rectangle", "width": 2, "height": 2}, "labels": [0, 0, 1, 1]}
    doc[key] = value
    f = tmp_path / "p.json"
    f.write_text(json.dumps(doc))
    assert main(["invariants", str(f)]) == 2
    assert message in capsys.readouterr().err


def test_nodal_rejects_zero_resolution(capsys):
    # --n 0 must reach the NodalConfig check, not fall back to the default
    assert main(["nodal", "--family", "bands", "--m", "3", "--n", "0"]) == 2
    assert "resolution" in capsys.readouterr().err


def test_nodal_rejects_max_refine_above_the_cap_before_building(monkeypatch, capsys):
    import eulerpart.nodal

    def no_build(spec):
        raise AssertionError(f"a complex was built: {spec}")

    monkeypatch.setattr(eulerpart.nodal, "build_complex", no_build)
    assert main(["nodal", "--family", "bands", "--m", "3", "--max-refine", "40"]) == 2
    assert "max_refine" in capsys.readouterr().err


def _lower_the_face_cap(monkeypatch, cap):
    import eulerpart.complexes
    import eulerpart.nodal

    for module in (eulerpart.complexes, eulerpart.nodal):
        monkeypatch.setattr(module, "MAX_FACES", cap)


def test_nodal_ladder_past_the_face_cap_is_unstable(monkeypatch, capsys):
    import eulerpart.nodal

    _lower_the_face_cap(monkeypatch, 100 ** 2)
    built = []
    real_build = eulerpart.nodal.build_complex
    monkeypatch.setattr(eulerpart.nodal, "build_complex",
                        lambda spec: built.append(spec.width) or real_build(spec))
    assert main(["nodal", "--family", "bands", "--m", "3", "--n", "64"]) == 3
    err = capsys.readouterr().err
    assert "unstable" in err and "128x128" in err and "[(64," in err
    assert built == [64]


def test_nodal_resolution_above_the_face_cap_is_a_usage_error(monkeypatch, capsys):
    _lower_the_face_cap(monkeypatch, 100 ** 2)
    assert main(["nodal", "--family", "bands", "--m", "3", "--n", "101"]) == 2
    assert "resolution 101 gives 10201 faces" in capsys.readouterr().err


@pytest.mark.parametrize("count", ["1", "0"])
def test_sweep_rejects_count_below_two(count, capsys):
    assert main(["sweep", "--count", count]) == 2
    assert "--count" in capsys.readouterr().err


@pytest.mark.parametrize("over", [0, 1], ids=["at-the-cap", "above-the-cap"])
def test_sweep_checks_count_against_the_cap_before_any_value(over, capsys, monkeypatch):
    from eulerpart import cli

    class Swept(Exception):
        pass

    def spy(family, thetas, **kwargs):
        raise Swept(len(thetas))

    monkeypatch.setattr(cli, "sweep", spy)
    count = cli.MAX_SWEEP_COUNT + over
    if over:
        assert main(["sweep", "--count", str(count)]) == 2
        assert f"--count {count} is above the cap of {cli.MAX_SWEEP_COUNT}" in capsys.readouterr().err
    else:
        with pytest.raises(Swept, match=f"^{count}$"):
            main(["sweep", "--count", str(count)])


def test_bisect_rejects_zero_tol(capsys):
    assert main(["bisect", "--beta", "0.5236", "--tol", "0"]) == 2
    assert "tol" in capsys.readouterr().err


def test_bisect_rejects_tol_below_the_float_spacing_before_any_stabilization(capsys, monkeypatch):
    from eulerpart import explore

    calls = []
    monkeypatch.setattr(explore, "stable_invariants", lambda *args, **kwargs: calls.append(args))
    assert main(["bisect", "--beta", "0.5236", "--tol", "1e-16"]) == 2
    assert "tol 1e-16 is below the float spacing" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("command", ["random-check", "cover-check"])
@pytest.mark.parametrize("count", ["-1", "0"])
def test_batch_commands_reject_count_below_one(command, count, capsys):
    surface = "moebius" if command == "random-check" else "klein"
    assert main([command, "--surface", surface, "--count", count]) == 2
    assert "count" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["random-check", "cover-check"])
def test_batch_commands_reject_a_negative_seed(command, capsys):
    surface = "moebius" if command == "random-check" else "klein"
    assert main([command, "--surface", surface, "--count", "2", "--seed", "-1"]) == 2
    assert "seed must be non-negative, got -1" in capsys.readouterr().err


def test_random_check_rejects_a_bad_k_range_before_building(capsys, monkeypatch):
    from eulerpart import explore

    monkeypatch.setattr(explore, "build_complex", None)  # a 2000² build must not start
    assert main(["random-check", "--surface", "klein", "--count", "1", "--size", "2000", "--k-min", "0"]) == 2
    assert "k_min" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["random-check", "cover-check"])
@pytest.mark.parametrize("count", ["3", "100"])
def test_batch_commands_reject_k_max_above_the_faces_before_building(command, count, capsys, monkeypatch):
    # the refusal must not depend on --count: without the up-front check a
    # batch too short to reach k = 5 exits 0, and a longer one fails at its
    # fifth item
    from eulerpart import explore

    built = []
    monkeypatch.setattr(explore, "build_complex", lambda spec: built.append(spec))
    assert main([command, "--surface", "moebius", "--size", "2", "--k-max", "5", "--count", count]) == 2
    assert "error: k_max=5 exceeds the 4 faces of the 2x2 grid" in capsys.readouterr().err
    assert built == []


@pytest.mark.parametrize("command", ["random-check", "cover-check"])
@pytest.mark.parametrize("size,message", [
    ("0", "--size must be at least 2, got 0"),
    ("1", "--size must be at least 2, got 1"),
    ("100000", "--size 100000 gives 10000000000 faces, above the cap"),
    ("2049", "--size 2049 gives 8396802 faces in the double cover of moebius, above the cap"),
])
def test_batch_commands_reject_a_bad_size_before_building(command, size, message, capsys, monkeypatch):
    from eulerpart import explore

    def no_build(spec):
        raise AssertionError(f"built {spec}")

    monkeypatch.setattr(explore, "build_complex", no_build)
    assert main([command, "--count", "1", "--size", size]
                + (["--surface", "moebius"] if command == "random-check" else [])) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command,surface,size", [
    ("cover-check", "moebius", 2048), ("random-check", "klein", 2048), ("random-check", "torus", 2049),
])
def test_batch_commands_reach_the_build_within_the_face_cap(command, surface, size, monkeypatch):
    # a 2048x4096 cover is at the face cap, and a torus batch builds no
    # cover; the spy stops at the first build, so nothing this large is built
    from eulerpart import explore

    class Built(Exception):
        pass

    def spy(spec):
        raise Built(spec.width, spec.height)

    monkeypatch.setattr(explore, "build_complex", spy)
    with pytest.raises(Built) as built:
        main([command, "--surface", surface, "--size", str(size), "--count", "1"])
    assert built.value.args == (size, size)


DATA = Path(__file__).parent / "data"

# sha256 of stdout for a fixed command set; any change to the computed
# invariants, the batch bookkeeping, the nodal stabilization or the JSON
# layout moves a digest
PINNED_STDOUT = {
    "random-check": (
        ["random-check", "--surface", "moebius", "--count", "20", "--seed", "7"],
        "02a9721428e59427dcad4dad815ba7d29acf4f831d86da9f77dd3ab44bd012bf"),
    "cover-check": (
        ["cover-check", "--surface", "klein", "--count", "20", "--seed", "3"],
        "7c7b003bac3fc0e374e584ae0bd59760c7f11f92584f6f3165c9fb637f078411"),
    "invariants": (
        ["invariants", str(DATA / "moebius_8x8.json")],
        "d010d35f2444ad4a769dfafa0f1748ded8a64fbb76caafccbbc701a5c9eccb00"),
    "nodal-phi": (
        ["nodal", "--family", "phi", "--beta", "0.5236", "--theta", "1.2", "--n", "64"],
        "82e27c93ea00b17f624c0c5e9f39398fbfc472f47caeed9dce90831aac688865"),
    "nodal-bands": (
        ["nodal", "--family", "bands", "--m", "3", "--n", "32"],
        "4c1b7fed5505932aec6389acd5de4492e9bb27cd64cd6165bfdbce4559bf7884"),
    "nodal-ex3b": (
        ["nodal", "--family", "ex3b", "--theta", "1.2566", "--n", "64"],
        "8d2a024fc391edf1ba536ca3d3e1526379fcb5316ad5fcede75a585831928216"),
    "sweep": (
        ["sweep", "--family", "phi", "--beta", "0.5236", "--count", "3", "--n", "32"],
        "b4ca1701d5ee3e8d7868c80c109ea484e2c16b1fc52a4b20f6e9402bc2748d61"),
    "bisect": (
        ["bisect", "--beta", "0.5236", "--tol", "1e-2", "--n", "32"],
        "483a819618987f50f50339ec044af8452a440a3a2d99211bd97953498fb2411d"),
    "normalize": (
        ["normalize", str(DATA / "moebius_8x8.json")],
        "e1be3a31c732ab4fedf0f66afe5b4057331378b054f610d11295b24ba2e7e907"),
    # the one pinned document with walls: the path crosses the boundary set once
    "cut": (
        ["cut", str(DATA / "moebius_8x8.json"), "--path", str(DATA / "moebius_8x8_path.json")],
        "167e0bf6ccf6d1becd977b3778addbe772ef74b8f3654684b223303551394d80"),
}


@pytest.mark.parametrize("args,digest", PINNED_STDOUT.values(), ids=list(PINNED_STDOUT))
def test_stdout_digests_pinned(args, digest, capsys):
    assert main(args) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_sweep_bands_rejects_float_values(capsys):
    # the theta range is not a list of frequencies; it must not truncate to m = 0
    assert main(["sweep", "--family", "bands", "--count", "3", "--n", "16"]) == 2
    assert "bands parameter m must be an integer, got 0.02" in capsys.readouterr().err


def test_sweep_bands_over_integral_values(capsys):
    code, doc = run(["sweep", "--family", "bands", "--theta-min", "3", "--theta-max", "7", "--count", "3",
                     "--n", "16"], capsys)
    assert code == 0
    assert [(row["theta"], row["stable"]) for row in doc["rows"]] == [(3.0, True), (5.0, True), (7.0, True)]


def _cut_document(out, capsys, partition, path):
    """The partition of a ``cut`` run's output, written to ``out``."""
    code, doc = run(["cut", partition, "--path", path], capsys)
    assert code == 0
    out.write_text(dumps(doc["partition"]))
    return out


def test_cover_check_on_walled_documents(tmp_path, capsys):
    from eulerpart import double_cover, lift_partition
    from test_cover import _walls_over

    # the pinned moebius cut, and a klein meridian cut through a labelling
    moebius = _cut_document(tmp_path / "moebius_cut.json", capsys,
                            DATA / "moebius_8x8.json", DATA / "moebius_8x8_path.json")
    # the meridian crosses the block's boundary twice
    c = build_complex(SurfaceSpec.named("klein", 12, 12))
    lab = np.zeros((12, 12), dtype=int)
    lab[3:6, 2:9] = 1
    pf = tmp_path / "k.json"
    pf.write_text(dumps(partition_to_json(from_labels(c, lab.ravel()))))
    path = tmp_path / "path.json"
    path.write_text(json.dumps([c.vertical_edge(6, j) for j in range(12)]))
    klein = _cut_document(tmp_path / "klein_cut.json", capsys, pf, path)
    for document in (moebius, klein):
        code, doc = run(["cover-check", document], capsys)
        assert code == 0, document
        assert doc["kappa_star"] == 2 * doc["kappa"] - doc["n_nonorientable"]
        assert doc["sigma_star"] == 2 * doc["sigma"]
        # the lifted walls are the cover edges over the document's walls
        p = partition_from_json(json.loads(document.read_text()))
        cs = double_cover(p.complex)
        assert p.walls and lift_partition(cs, p).walls == _walls_over(cs, p)


@pytest.mark.parametrize("name,deltas", [("torus", (-1, 0)), ("klein", (0, 1))])
def test_cut_on_closed_surface_may_change_delta(name, deltas, tmp_path, capsys):
    # a meridian does not separate a closed surface, so delta is not invariant
    c = build_complex(SurfaceSpec.named(name, 12, 12))
    pf = tmp_path / "p.json"
    pf.write_text(dumps(partition_to_json(from_labels(c, np.zeros(144, dtype=int)))))
    path = tmp_path / "path.json"
    path.write_text(json.dumps([c.vertical_edge(6, j) for j in range(12)]))  # bare list
    code, doc = run(["cut", pf, "--path", path], capsys)
    assert code == 0
    assert (doc["before"]["delta"], doc["after"]["delta"]) == deltas
    assert doc["after"]["kappa"] == 1


GOOD_PARTITION = {"surface": {"surface": "rectangle", "width": 2, "height": 2},
                  "labels": [0, 0, 1, 1]}
PROJECTIVE_8 = {"surface": "projective", "width": 8, "height": 8}
# the boundary of the block [0, 0, 2, 2] on PROJECTIVE_8; it holds canonical edge 1
BLOCK_CYCLE = [0, 1, 66, 75, 17, 16, 73, 64]


@pytest.mark.parametrize("command,doc,message", [
    ("invariants", [1, 2], "partition $: [1, 2] is not of type 'object' (type)"),
    ("invariants", {**GOOD_PARTITION, "surface": [2, 2]},
     "partition $.surface: matches none of 2 schemas: $: [2, 2] is not of type 'object'"),
    ("invariants", {"surface": GOOD_PARTITION["surface"]}, "partition $: 'labels' is a required property (required)"),
    ("invariants", {"labels": [0, 0, 1, 1]}, "partition $: 'surface' is a required property (required)"),
    ("invariants", {**GOOD_PARTITION, "surface": {"surface": "rectangle", "height": 2}},
     "partition $.surface: matches none of 2 schemas: $: 'width' is a required property"),
    ("invariants", {**GOOD_PARTITION, "surface": {"surface": ["moebius"], "width": 2, "height": 2}},
     "partition $.surface: matches none of 2 schemas: $.surface: ['moebius'] is not one of"),
    ("invariants", {**GOOD_PARTITION, "labels": [[0, 0], [1, 1]]},
     "partition $.labels[0]: [0, 0] is not of type 'integer' (type)"),
    ("invariants", {**GOOD_PARTITION, "labels": None}, "partition $.labels: None is not of type 'array' (type)"),
    ("invariants", {**GOOD_PARTITION, "labels": [0, 0, 2**70, 1]},
     "partition labels must lie in the int64 range, got 1180591620717411303424"),
    ("invariants", {**GOOD_PARTITION, "labels": [0, 0, True, 1]},
     "partition $.labels[2]: True is not of type 'integer' (type)"),
    ("invariants", {**GOOD_PARTITION, "walls": 5}, "partition $.walls: 5 is not of type 'array' (type)"),
    ("invariants", {**GOOD_PARTITION, "walls": None}, "partition $.walls: None is not of type 'array' (type)"),
    ("circle", [1, 2], "cycle $: [1, 2] is not of type 'object' (type)"),
    ("circle", {"surface": PROJECTIVE_8}, "cycle $: 'cycle' is a required property (required)"),
    ("circle", {"surface": PROJECTIVE_8, "cycle": [float(e) for e in BLOCK_CYCLE]},
     "cycle edge id must be an integer, got 0.0"),
    ("circle", {"surface": PROJECTIVE_8, "cycle": [True if e == 1 else e for e in BLOCK_CYCLE]},
     "cycle $.cycle: matches none of 3 schemas: $[1]: True is not of type 'integer'"),
    ("circle", {"surface": PROJECTIVE_8, "cycle": {"midline": "diagonal"}},
     "$.midline: 'diagonal' is not one of ['horizontal', 'vertical']"),
    ("circle", {"surface": PROJECTIVE_8, "cycle": {"block": [1, 1, 3.5, 3]}},
     "$.block[2]: 3.5 is not of type 'integer' (oneOf)"),
    ("circle", {"surface": PROJECTIVE_8, "cycle": {"block": [1, 1, 3]}},
     "$.block: [1, 1, 3] has fewer than 4 items (oneOf)"),
    ("circle", {"surface": PROJECTIVE_8, "cycle": {"block": [1, 1, 3.0, 3]}},
     "cycle block corner must be an integer, got 3.0"),
], ids=["list-partition", "list-surface", "no-labels", "no-surface", "no-width",
        "list-surface-name", "nested-labels", "null-labels", "wide-label", "bool-label",
        "int-walls", "null-walls",
        "list-cycle", "no-cycle", "float-cycle-ids", "bool-cycle-id", "diagonal-midline",
        "float-block", "short-block", "integral-float-block"])
def test_malformed_partition_document_is_a_usage_error(command, doc, message, tmp_path, capsys):
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(doc))
    assert main([command, str(f)]) == 2
    assert message in capsys.readouterr().err


def test_deeply_nested_document_is_a_usage_error(tmp_path, capsys):
    f = tmp_path / "deep.json"
    f.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["invariants", str(f)]) == 2
    assert f"{f} nests JSON deeper than the parser accepts" in capsys.readouterr().err


def test_nodal_rejects_nan_parameters(capsys):
    assert main(["nodal", "--family", "phi", "--beta", "nan", "--theta", "1.2", "--n", "16"]) == 2
    assert "phi parameter beta must be finite, got nan" in capsys.readouterr().err


@pytest.mark.parametrize("beta", ["nan", "inf"])
def test_bisect_rejects_non_finite_beta(beta, capsys):
    # the probes go through the family constructor, so beta is refused
    # before any function is evaluated, as nodal and sweep refuse it
    assert main(["bisect", "--beta", beta, "--n", "16"]) == 2
    err = capsys.readouterr().err
    assert f"phi parameter beta must be finite, got {beta}" in err
    assert "RuntimeWarning" not in err


def test_help_runs_in_a_fresh_process():
    # ``python -m eulerpart`` goes through __main__, which no in-process test imports
    package_root = str(Path(eulerpart.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": package_root}
    done = subprocess.run([sys.executable, "-m", "eulerpart", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "usage: eulerpart" in done.stdout


def test_readme_cli_lines_parse():
    # the README's CLI block must track the options the parser declares
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [ln for ln in block.splitlines() if ln.startswith("eulerpart ")]
    ap = build_parser()
    commands = {ap.parse_args(shlex.split(ln)[1:]).command for ln in lines}
    subparsers = next(a for a in ap._actions if a.dest == "command")
    assert commands == set(subparsers.choices)


def test_readme_library_block_runs():
    # the README's library entry-point block must import only names that exist
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library entry points", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert "domain_reports" in namespace


@pytest.mark.parametrize("wrap,where", [(lambda edges: {"edges": edges}, "$.edges[0]"), (lambda edges: edges, "$[0]")],
                         ids=["object", "bare-list"])
def test_float_cut_path_is_a_usage_error(wrap, where, tmp_path, capsys):
    c = build_complex(SurfaceSpec.named("moebius", 6, 6))
    pf = tmp_path / "p.json"
    pf.write_text(dumps(partition_to_json(from_labels(c, np.zeros(36, dtype=int)))))
    path = tmp_path / "path.json"
    path.write_text(json.dumps(wrap([c.horizontal_edge(i, 3) + 0.4 for i in range(6)])))
    assert main(["cut", str(pf), "--path", str(path)]) == 2
    assert f"{where}: {c.horizontal_edge(0, 3) + 0.4} is not of type 'integer'" in capsys.readouterr().err
    # JSON Schema counts 18.0 as an integer; plan_cut does not
    path.write_text(json.dumps(wrap([c.horizontal_edge(i, 3) + 0.0 for i in range(6)])))
    assert main(["cut", str(pf), "--path", str(path)]) == 2
    assert "cut path edge id must be an integer, got" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["random-check", "--surface", "moebius", "--size", "1000000"],
    ["cover-check", "--surface", "klein", "--size", "1000000"],
], ids=["random-check", "cover-check"])
def test_grid_above_the_cap_is_a_usage_error(args, capsys):
    assert main(args) == 2
    assert "above the cap" in capsys.readouterr().err


@pytest.mark.parametrize("command,doc", [
    ("invariants", {"surface": {"surface": "moebius", "width": 1000000, "height": 16},
                    "labels": [0, 0, 1, 1]}),
    ("circle", {"surface": {"surface": "projective", "width": 1000000, "height": 16},
                "cycle": {"midline": "horizontal"}}),
], ids=["partition", "cycle"])
def test_document_grid_above_the_cap_is_a_usage_error(command, doc, tmp_path, capsys):
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(doc))
    assert main([command, str(f)]) == 2
    assert "1000000x16 grid has 16000000 faces, above the cap" in capsys.readouterr().err


@pytest.mark.parametrize("edge", [1000000, -1])
def test_cycle_edge_id_out_of_range_is_a_usage_error(edge, tmp_path, capsys):
    # a projective cycle id past the last edge once ended in an IndexError, and -1 wrapped
    f = tmp_path / "cycle.json"
    f.write_text(json.dumps({"surface": PROJECTIVE_8, "cycle": [edge]}))
    assert main(["circle", str(f)]) == 2
    assert f"cycle edge id {edge} out of range" in capsys.readouterr().err


def test_cut_path_edge_id_out_of_range_is_a_usage_error(tmp_path, capsys):
    c = build_complex(SurfaceSpec.named("moebius", 6, 6))
    pf = tmp_path / "p.json"
    pf.write_text(dumps(partition_to_json(from_labels(c, np.zeros(36, dtype=int)))))
    path = tmp_path / "path.json"
    path.write_text(json.dumps([1000000]))
    assert main(["cut", str(pf), "--path", str(path)]) == 2
    assert "cut path edge id 1000000 out of range" in capsys.readouterr().err
