"""Per-layer spans, taken from outside by wrapping public functions.

The layers are the package modules.  ``install`` replaces each listed
function with a timing wrapper in every ``eulerpart`` module namespace
that binds it (``eulerpart.nodal.build_complex`` as well as
``eulerpart.complexes.build_complex``), so nested calls get spans too, and
the returned callable puts the originals back.  Spans stay in memory as
``(name, start, end, parent, item, error)`` tuples of plain values, which
the garbage collector stops scanning, until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

#: module -> public functions that get a span
LAYERS = {
    "complexes": ("build_complex", "boundary_components", "subgraph_component_count"),
    "partition": (
        "from_labels", "boundary_graph", "orientability_bits", "invariants",
        "verify_euler", "closure_tables", "domain_reports", "check_chi_sigma",
        "is_normal", "normalize", "refine",
    ),
    "explore": ("random_partition",),
    "cover": (
        "double_cover", "lift_partition", "preimage_component_counts",
        "omega_via_cover", "cover_bookkeeping",
    ),
    "nodal": ("symmetry_residual", "rasterize", "stable_invariants", "evaluate"),
    "jsonio": ("partition_to_json", "partition_from_json", "invariants_to_json", "validate", "dumps"),
}

SPAN_NAMES = tuple(f"{m}.{f}" for m, fs in LAYERS.items() for f in fs)

NAME, START, END, PARENT, ITEM, ERROR = range(6)


def resolve() -> dict:
    """The function behind every span name; fails loudly on a rename."""
    out = {}
    for module, names in LAYERS.items():
        mod = importlib.import_module(f"eulerpart.{module}")
        for name in names:
            fn = getattr(mod, name, None)
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                raise LookupError(f"eulerpart.{module}.{name} is not a public function of its module")
            out[f"{module}.{name}"] = fn
    return out


class Tracer:
    """Collects nested spans; ``item`` tags the spans of the current item."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.item = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)   # the slot keeps spans in start order
            stack.append(index)
            error = 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                error = 1
                raise
            finally:
                spans[index] = (name, start, clock(), parent, self.item, error)
                stack.pop()

        return timed

    def install(self):
        """Wrap every listed function wherever it is bound; return the undo."""
        by_id = {id(fn): (fn, self.wrap(name, fn)) for name, fn in resolve().items()}
        patched = []
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "eulerpart" or modname.startswith("eulerpart.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    patched.append((mod, attr, value))

        def restore():
            for mod, attr, value in patched:
                setattr(mod, attr, value)

        return restore


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    The benchmark is single-threaded, so children nest strictly inside
    their parent and never overlap one another.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def layer_totals(spans: list[tuple]) -> dict:
    """name -> {calls, self_s, errors} summed over all spans."""
    out = {name: {"calls": 0, "self_s": 0.0, "errors": 0} for name in SPAN_NAMES}
    for s, own in zip(spans, self_times(spans)):
        row = out[s[NAME]]
        row["calls"] += 1
        row["self_s"] += own
        row["errors"] += s[ERROR]
    return out

