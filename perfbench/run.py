"""eulerpart benchmark: one seeded workload, timed end to end or traced.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload large-random --seed 0 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout; without it the run
stops with exit code 2 before printing a result.  Each run prints
a human summary on stderr and, as the last line of stdout, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A record of the run
(versions, machine, per-item latencies and counts, and the spans of a
traced run) goes to ``perfbench/out/``.

A run measures a fixed prefix of the workload's deck, whose length follows
from ``--seconds`` alone (``workloads.items_for``): the same seed and
``--seconds`` always measure the same inputs, however fast the machine is.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s`` -- median over fresh interpreters of the wall time to import
  eulerpart (with numpy, scipy and jsonschema), generate the deck and build
  the complexes and double covers the workload reuses;
* ``items_per_s`` -- items completed per second of timed item time;
* ``item_ms_p50`` -- median item latency (the sample count is ``attempted``);
* ``item_ms_tail`` -- the highest percentile of item latency with at least
  ten samples beyond it, or the slowest item when a run has ten or fewer;
* ``peak_rss_mb`` -- peak resident set size of this process, with the
  interpreter's own garbage collection.

The error rate is ``failed / attempted``: an item fails on an unexpected
exception, a broken identity (a ``fail`` verdict on a proven surface, the
chi-sigma identity, cover orientability, the JSON round trip), or a record
that differs from the committed digest (default seed) or from an earlier
run of the same deck entry (any seed).

``--trace 1`` first runs the items untraced, then runs the same items again
with a span around every public function listed in ``spans.LAYERS``, and
reports per-layer numbers per item:
``<module>.<function>.calls``, ``.self_s`` and ``.errors``, exact sizes
(``counts.*``), the tracing overhead and the share of item time that the
top-level spans cover.  The two passes must produce identical records; the
checker compares every record with the earlier one of the same deck entry.

``--write-digests`` recomputes ``digests.json`` for the default seed; the
committed file is the correctness reference, so regenerate it only for a
change that is meant to alter outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 3
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_tail": "ms",
    "peak_rss_mb": "MB",
}
COUNT_NAMES = ("faces", "edges", "domains", "boundary_set_edges", "levels")


class HarnessError(Exception):
    """The benchmark cannot run here (missing sources, bad arguments)."""


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="small-batch")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--write-digests", action="store_true")
    return ap.parse_args(argv)


def load_package():
    """Single-threaded numerics, then eulerpart from this checkout's src/."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("NODAL_MAX_REFINE", None)
    if not (SRC / "eulerpart" / "__init__.py").is_file():
        raise HarnessError(f"no eulerpart sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import eulerpart

    if Path(eulerpart.__file__).resolve().parent != SRC / "eulerpart":
        raise HarnessError(f"eulerpart imported from {eulerpart.__file__}, not from {SRC}")
    import workloads

    return workloads


# ---------------------------------------------------------------------------
# set-up


def setup_probe(args) -> None:
    """Child side of ``measure_setup``: set up, say so, exit."""
    wl = load_package().workloads()[args.workload]
    wl.deck(args.seed)
    wl.setup()
    print("ready", flush=True)


def measure_setup(args) -> list[float]:
    """Wall time from spawning a fresh interpreter to its set-up finishing."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait()
        if code != 0 or line.strip() != "ready":
            raise HarnessError(f"set-up probe failed with exit code {code}")
        samples.append(t1 - t0)
    return samples


# ---------------------------------------------------------------------------
# timed items


def committed_hashes(wl, seed: int):
    """The committed record hashes of the deck, for the default seed only."""
    if seed != DEFAULT_SEED:
        return None
    ref = json.loads(DIGESTS.read_text())[wl.name]
    if ref["size"] != wl.size or len(ref["items"]) != wl.deck_size:
        raise HarnessError(f"{DIGESTS.name} does not describe the {wl.name} deck")
    return ref["items"]


class Checker:
    """Hashes item records and compares them with every reference we have."""

    def __init__(self, workloads, wl, expected=None):
        self.workloads = workloads
        self.wl = wl
        self.expected = expected
        self.seen: dict[int, str] = {}

    def check(self, item, out) -> dict:
        outcome = self.wl.outcome(item, out)
        h = self.workloads.canonical_hash(outcome.record)
        problems = list(outcome.violations)
        if self.expected is not None and h != self.expected[item.index]:
            problems.append(f"record {h} differs from the committed {self.expected[item.index]}")
        if self.seen.setdefault(item.index, h) != h:
            problems.append(f"record {h} differs from the earlier {self.seen[item.index]}")
        return {"hash": h, "problems": problems, "counts": outcome.counts}


def run_items(wl, ctx, deck, checker, count, tracer=None) -> list[dict]:
    """Run the first ``count`` deck items in order, cycling past the deck's end."""
    clock = time.perf_counter
    rows = []
    for i in range(count):
        item = deck[i % len(deck)]
        if tracer is not None:
            tracer.item = i
        t0 = clock()
        try:
            out = wl.run(ctx, item)
        except Exception:
            out = None
            error = traceback.format_exc(limit=4)
        t1 = clock()
        if out is None:
            row = {"hash": None, "problems": [error], "counts": {}}
        else:
            row = checker.check(item, out)
            del out
        row.update(index=i, deck_index=item.index, latency_s=t1 - t0)
        rows.append(row)
        for msg in row["problems"]:
            print(f"item {i} ({item}): {msg}", file=sys.stderr)
    return rows


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples above it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def end_to_end(rows, setup_samples) -> dict:
    lat = [r["latency_s"] for r in rows]
    return {
        "setup_s": statistics.median(setup_samples),
        "items_per_s": len(lat) / sum(lat),
        "item_ms_p50": 1e3 * statistics.median(lat),
        "item_ms_tail": 1e3 * tail(lat)[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(all_spans, plain, traced) -> dict:
    """Per-item layer numbers of the traced pass (the same items as ``plain``)."""
    n = len(traced)
    out = {}
    for name, row in spans.layer_totals(all_spans).items():
        out[f"{name}.calls"] = (row["calls"] / n, "count/item")
        out[f"{name}.self_s"] = (row["self_s"] / n, "s/item")
        out[f"{name}.errors"] = (row["errors"] / n, "count/item")
    for key in COUNT_NAMES:
        out[f"counts.{key}"] = (sum(r["counts"].get(key, 0) for r in traced) / n, "count/item")
    attempts = out["nodal.rasterize.calls"][0]
    out["nodal.rasterize.accepted_share"] = (
        100.0 * out["counts.levels"][0] / attempts if attempts else 0.0, "%")
    plain_s = sum(r["latency_s"] for r in plain)
    traced_s = sum(r["latency_s"] for r in traced)
    top = sum(r["top_level_s"] for r in traced)
    out["trace.overhead_s"] = (traced_s - plain_s, "s")
    out["trace.top_level_share"] = (100.0 * top / traced_s, "%")
    return out


def attach_span_counts(all_spans, rows) -> None:
    """Per item: build_complex calls, rasterize attempts, top-level span time."""
    for r in rows:
        r["counts"].update(build_complex_calls=0, rasterize_attempts=0)
        r["top_level_s"] = 0.0
    for s in all_spans:
        r = rows[s[spans.ITEM]]
        if s[spans.PARENT] < 0:
            r["top_level_s"] += s[spans.END] - s[spans.START]
        if s[spans.NAME] == "complexes.build_complex":
            r["counts"]["build_complex_calls"] += 1
        elif s[spans.NAME] == "nodal.rasterize":
            r["counts"]["rasterize_attempts"] += 1


# ---------------------------------------------------------------------------
# the run record


def run_record(args) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "jsonschema": version("jsonschema"),
        "nproc": os.cpu_count(),
        "caches": cpu_caches(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or None


def cpu_caches() -> dict:
    """Unified and data cache sizes of cpu0 by level, as the kernel reports them."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


# ---------------------------------------------------------------------------
# entry points


def write_digests(workloads) -> None:
    ref = {}
    for name, wl in workloads.workloads().items():
        deck = wl.deck(DEFAULT_SEED)
        ctx = wl.setup()
        checker = Checker(workloads, wl)
        rows = run_items(wl, ctx, deck, checker, count=len(deck))
        bad = [r for r in rows if r["problems"]]
        if bad:
            raise HarnessError(f"{name}: {len(bad)} items failed; digests not written")
        hashes = [r["hash"] for r in rows]
        ref[name] = {"seed": DEFAULT_SEED, "size": wl.size, "items": hashes,
                     "digest": workloads.deck_digest(hashes)}
        print(f"{name}: {ref[name]['digest']}", file=sys.stderr)
    DIGESTS.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def benchmark(args, workloads) -> dict:
    wl = workloads.workloads().get(args.workload)
    if wl is None:
        raise HarnessError(f"unknown workload {args.workload!r}")
    count = workloads.items_for(wl, args.seconds)
    setup_samples = None if args.trace else measure_setup(args)
    deck = wl.deck(args.seed)
    ctx = wl.setup()

    checker = Checker(workloads, wl, committed_hashes(wl, args.seed))
    plain = run_items(wl, ctx, deck, checker, count)
    rows = plain
    report = {"run": run_record(args), "setup_samples_s": setup_samples}
    if args.trace:
        tracer = spans.Tracer()
        restore = tracer.install()
        try:
            # the checker flags any traced record that differs from the
            # untraced record of the same deck entry
            traced = run_items(wl, ctx, deck, checker, count, tracer=tracer)
        finally:
            restore()
        attach_span_counts(tracer.spans, traced)
        rows = plain + traced
        metrics = per_layer(tracer.spans, plain, traced)
        report.update(traced_items=traced, spans=tracer.spans)
    else:
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(plain, setup_samples).items()}

    failed = sum(1 for r in rows if r["problems"])
    hashes = [r["hash"] for r in plain]
    report.update(items=plain, metrics=metrics, attempted=len(rows), failed=failed,
                  digest=workloads.deck_digest([h or "-" for h in hashes]))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, default=str) + "\n")

    lat = [r["latency_s"] for r in plain]
    _, pct = tail(lat)
    print(f"{args.workload} seed={args.seed}: {len(plain)} items, tail = p{pct:.1f}, "
          f"error_rate = {failed}/{len(rows)}, record in {path.relative_to(ROOT)}", file=sys.stderr)
    for name, (v, unit) in metrics.items():
        if not args.trace or v:
            print(f"  {name:48s} {v:14.6g} {unit}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        workloads = load_package()
        if args.setup_only:
            setup_probe(args)
            return 0
        if args.write_digests:
            write_digests(workloads)
            return 0
        result = benchmark(args, workloads)
    except HarnessError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
