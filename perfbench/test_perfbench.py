"""Tests of the benchmark itself: ``python -m pytest perfbench`` from the repo root."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans

workloads = run.load_package()
NAMES = ("large-random", "small-batch", "nodal")
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_workloads_and_end_to_end_metrics_match_benchmark_json():
    assert tuple(w["name"] for w in BENCHMARK["workloads"]) == NAMES
    assert tuple(workloads.workloads()) == NAMES
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS


@pytest.mark.parametrize("name", NAMES)
def test_decks_are_deterministic(name):
    wl = workloads.workloads()[name]
    assert wl.deck(7) == wl.deck(7)
    assert wl.deck(7) != wl.deck(8)
    assert [it.index for it in wl.deck(7)] == list(range(wl.deck_size))


def test_committed_digests_cover_each_deck():
    ref = json.loads(run.DIGESTS.read_text())
    for name, wl in workloads.workloads().items():
        assert ref[name]["seed"] == run.DEFAULT_SEED
        assert len(ref[name]["items"]) == wl.deck_size
        assert ref[name]["digest"] == workloads.deck_digest(ref[name]["items"])


def test_every_span_name_resolves_to_a_public_function():
    fns = spans.resolve()
    assert tuple(fns) == spans.SPAN_NAMES
    for name, fn in fns.items():
        module, func = name.split(".")
        assert fn.__name__ == func and not func.startswith("_")
        assert fn.__module__ == f"eulerpart.{module}"


def test_install_wraps_every_binding_and_restores():
    import eulerpart.nodal
    import eulerpart.complexes

    original = eulerpart.complexes.build_complex
    restore = spans.Tracer().install()
    try:
        assert eulerpart.nodal.build_complex is not original
        assert eulerpart.nodal.build_complex is eulerpart.complexes.build_complex
        assert eulerpart.build_complex.__wrapped__ is original
    finally:
        restore()
    assert eulerpart.nodal.build_complex is original
    assert eulerpart.build_complex is original


def test_self_time_subtracts_children():
    s = [["a", 0.0, 10.0, -1, 0, 0], ["b", 1.0, 4.0, 0, 0, 0], ["c", 5.0, 6.0, 0, 0, 1]]
    assert spans.self_times(s) == [6.0, 3.0, 1.0]
    totals = spans.layer_totals([[spans.SPAN_NAMES[0], 0.0, 2.0, -1, 0, 1]])
    assert totals[spans.SPAN_NAMES[0]] == {"calls": 1, "self_s": 2.0, "errors": 1}


def test_tail_keeps_ten_samples_beyond():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


@pytest.mark.parametrize("name", NAMES)
def test_smoke_traced_and_untraced_records_agree(name):
    wl = workloads.workloads(scale=0.1)[name]
    deck = wl.deck(3)[:8]
    ctx = wl.setup()
    tracer = spans.Tracer()
    checker = run.Checker(workloads, wl)
    plain = run.run_items(wl, ctx, deck, checker, len(deck))
    restore = tracer.install()
    try:
        traced = run.run_items(wl, ctx, deck, checker, len(deck), tracer=tracer)
    finally:
        restore()
    assert all(not r["problems"] for r in plain + traced)
    digest = workloads.deck_digest
    assert digest([r["hash"] for r in traced]) == digest([r["hash"] for r in plain])
    assert {s[spans.ITEM] for s in tracer.spans} == set(range(len(deck)))
    run.attach_span_counts(tracer.spans, traced)
    metrics = run.per_layer(tracer.spans, plain, traced)
    assert {k: u for k, (_, u) in metrics.items()} == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for r in traced:
        assert r["top_level_s"] >= 0.9 * r["latency_s"]
        if name == "nodal":
            assert r["counts"]["build_complex_calls"] >= 2


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nodal", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
    assert not Path(tmp_path / "perfbench" / "out").exists()
