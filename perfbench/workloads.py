"""The three seeded workloads of the eulerpart benchmark.

Every workload is a *deck*: a list of items generated from the run's seed,
of which a run measures a fixed prefix (``items_for``).  An item is one unit of
the workload's chain; its outputs are reduced to a canonical JSON record
whose hash is checked against the committed reference (default seed), and
against every earlier run of the same deck entry (any seed).

* ``large-random`` -- 512x512 random partitions, alternating moebius and
  klein, through verify / domain reports / chi-sigma / cover bookkeeping.
  This is the size the performance target names; per-face work dominates.
* ``small-batch`` -- 32x32 random partitions on all six surfaces: the
  ``random-check`` / ``cover-check`` chain plus the ``invariants`` CLI path
  (JSON round trip, schema validation, dumps) and ``normalize``.  Per-call
  overhead dominates, so a change that only pays off on large grids shows
  its cost here.
* ``nodal`` -- ``stable_invariants`` on the moebius surface for seeded phi,
  odd bands and ex3b eigenfunctions, then verify and domain reports: the
  ``nodal`` CLI path.  It rebuilds complexes at every refinement level and
  never touches the flood fill or the covers.

Partitions come from ``random_partition`` with sub-seeds drawn from
``SeedSequence(seed).spawn``, as in ``batch_verify``.  The package is
called through module attributes (``ep.random_partition``), so the timing
wrappers of ``spans.py`` see every call the benchmark makes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math

import jsonschema  # noqa: F401  imported here so set-up pays for it
import numpy as np

import eulerpart as ep
from eulerpart import jsonio
from eulerpart.explore import RandomSpec

SURFACES = ("rectangle", "cylinder", "moebius", "torus", "klein", "projective")
COVERED = ("moebius", "klein")
NODAL_SURFACE = "moebius"
# Parameter draws stay away from degenerate values, where the nodal set has
# crossings and refinement runs to far finer grids than a generic draw: theta
# near 0 or pi/2 (one term alone), phi's beta near a multiple of pi/3 (where
# sin(3y) and sin(2y + beta) share a zero line), and ex3b below theta = 0.8
# (a scan at step 0.005 needed a third level at 0.19, 0.605 and 0.765; none
# from 0.8 to pi/2 - 0.1 at step 0.0015).
THETA = (0.1, math.pi / 2 - 0.1)
EX3B_THETA = (0.8, math.pi / 2 - 0.1)
BETA_OFFSET = (0.1, 0.9)         # beta = (j + offset) * pi/3, j = 0, 1, 2
BANDS_M = (1, 3, 5, 7, 9)


@dataclasses.dataclass(frozen=True)
class Item:
    """One deck entry: what to run, fully determined by the seed."""

    index: int
    surface: str
    k: int = 0                   # number of flood-fill sources
    sub_seed: int = 0
    family: str = ""             # nodal family name
    params: tuple = ()           # nodal family parameters


def sub_seeds(seed: int, count: int) -> list[int]:
    """The per-item seeds ``batch_verify`` would use for ``count`` runs."""
    return [int(ch.generate_state(1)[0]) for ch in np.random.SeedSequence(seed).spawn(count)]


def canonical_hash(record: dict) -> str:
    text = json.dumps(record, sort_keys=True, separators=(",", ":"), default=_plain)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _plain(x):
    if isinstance(x, np.generic):
        return x.item()
    raise TypeError(f"unserializable {type(x).__name__}")


def deck_digest(hashes: list[str]) -> str:
    """One digest for a whole deck: the hash of its item hashes in order."""
    return hashlib.sha256(",".join(hashes).encode()).hexdigest()[:16]


@dataclasses.dataclass
class Outcome:
    """What one item produced, reduced for checking and counting."""

    record: dict                 # canonical outputs, hashed into the digest
    violations: list             # broken identities, each a message
    counts: dict                 # exact sizes, not hashed


class RandomChain:
    """large-random and small-batch: seeded partitions through the checks.

    ``cli_path`` adds the ``invariants`` CLI round trip and ``normalize``.
    """

    def __init__(self, name: str, surfaces: tuple, size: int, deck_size: int, pace: float,
                 cli_path: bool):
        self.name = name
        self.surfaces = surfaces
        self.size = size
        self.deck_size = deck_size
        self.stride = len(surfaces)
        self.pace = pace
        self.cli_path = cli_path

    def deck(self, seed: int) -> list[Item]:
        out = []
        ns = len(self.surfaces)
        for i, s in enumerate(sub_seeds(seed, self.deck_size)):
            # k cycles 10, 9, ..., 1 with every surface seeing each k; k
            # starts at 10 because a large-random run measures only a few
            # items, and k = 10 is the case the performance baseline quotes
            out.append(Item(i, self.surfaces[i % ns], 10 - (i // ns) % 10, s))
        return out

    def setup(self) -> dict:
        complexes = {s: ep.build_complex(ep.SurfaceSpec.named(s, self.size, self.size)) for s in self.surfaces}
        covers = {s: ep.double_cover(complexes[s]) for s in self.surfaces if s in COVERED}
        if self.cli_path:
            # the first validation builds the schema registry later calls reuse
            jsonio.validate("invariants", _MINIMAL_INVARIANTS)
        return {"complexes": complexes, "covers": covers}

    def run(self, ctx: dict, item: Item) -> dict:
        c = ctx["complexes"][item.surface]
        p = ep.random_partition(c, RandomSpec(seed=item.sub_seed, k=item.k))
        out = {
            "partition": p,
            "verdict": ep.verify_euler(p),
            "domains": ep.domain_reports(p),
            "chi_sigma": ep.check_chi_sigma(p),
        }
        cs = ctx["covers"].get(item.surface)
        if cs is not None:
            out["cover"] = ep.cover_bookkeeping(cs, p)
            out["omega_cover"] = ep.omega_via_cover(cs, p)
            out["bits"] = ep.orientability_bits(p)
        if self.cli_path:
            q = jsonio.partition_from_json(jsonio.partition_to_json(p))
            out["reloaded_invariants"] = ep.invariants(q)
            doc = jsonio.invariants_to_json(out["reloaded_invariants"], ep.domain_reports(q))
            jsonio.validate("invariants", doc)
            out["json_text"] = jsonio.dumps(doc)
            out["normalized"] = ep.invariants(ep.normalize(p))
        return out

    def outcome(self, item: Item, out: dict) -> Outcome:
        p, v, chi = out["partition"], out["verdict"], out["chi_sigma"]
        bad = []
        if v.status == "fail":
            bad.append(f"defect {v.measured_defect} != {v.expected_defect} on {item.surface}")
        if not chi.holds:
            bad.append(f"chi + sigma = {chi.lhs} but the domain chis sum to {chi.rhs}")
        record = {
            "surface": item.surface,
            "k": item.k,
            "key": list(v.report.key()),
            "status": v.status,
            "domains": _domain_rows(out["domains"]),
            "chi_sigma": dataclasses.asdict(chi),
            "cover": None,
        }
        if "cover" in out:
            record["cover"] = dataclasses.asdict(out["cover"])
            if not np.array_equal(out["omega_cover"], out["bits"]):
                bad.append("cover and union-find orientability disagree")
            if item.surface == "moebius" and out["cover"].n_nonorientable > 1:
                bad.append("more than one non-orientable domain on moebius")
        if self.cli_path:
            again = out["reloaded_invariants"]
            if (again.key(), again.orientable) != (v.report.key(), v.report.orientable):
                bad.append("invariants changed across the JSON round trip")
            n = out["normalized"]
            record["normalized"] = [*n.key(), n.delta]
            record["invariants_json"] = hashlib.sha256(out["json_text"].encode()).hexdigest()[:16]
        return Outcome(record, bad, _counts(p, levels=0))


class NodalChain:
    """Stabilized nodal partitions of seeded eigenfunctions on moebius."""

    name = "nodal"
    size = 0                     # resolutions come from NodalConfig
    stride = 4                   # phi, phi, bands, ex3b

    def __init__(self, deck_size: int, pace: float, base_n: int | None = None):
        self.deck_size = deck_size
        self.pace = pace
        self.base_n = base_n     # None: the default NodalConfig

    def deck(self, seed: int) -> list[Item]:
        out = []
        for i, s in enumerate(sub_seeds(seed, self.deck_size)):
            rng = np.random.default_rng(s)
            kind = ("phi", "phi", "bands", "ex3b")[i % 4]
            if kind == "phi":
                beta = math.pi / 3 * (int(rng.integers(3)) + rng.uniform(*BETA_OFFSET))
                params = (float(beta), float(rng.uniform(*THETA)))
            elif kind == "bands":
                params = (int(rng.choice(BANDS_M)),)
            else:
                params = (float(rng.uniform(*EX3B_THETA)),)
            out.append(Item(i, NODAL_SURFACE, sub_seed=s, family=kind, params=params))
        return out

    def setup(self) -> dict:
        return {}

    def run(self, ctx: dict, item: Item) -> dict:
        f = ep.nodal.FAMILIES[item.family](*item.params)
        config = ep.NodalConfig() if self.base_n is None else ep.NodalConfig(n=self.base_n)
        sr = ep.stable_invariants(f, item.surface, config)
        return {
            "function": f.name,
            "stable": sr,
            "verdict": ep.verify_euler(sr.partition),
            "domains": ep.domain_reports(sr.partition),
        }

    def outcome(self, item: Item, out: dict) -> Outcome:
        sr, v = out["stable"], out["verdict"]
        bad = []
        if v.status != "pass":
            bad.append(f"defect {v.measured_defect} != {v.expected_defect} on {item.surface}")
        if len(sr.levels) < 2 or sr.levels[-1][1:] != sr.levels[-2][1:]:
            bad.append(f"accepted without two agreeing levels: {sr.levels}")
        p = sr.partition
        record = {
            "function": out["function"],
            "key": list(sr.report.key()),
            "status": v.status,
            "n": sr.n,
            "levels": [list(lv) for lv in sr.levels],
            "domains": _domain_rows(out["domains"]),
        }
        return Outcome(record, bad, _counts(p, levels=len(sr.levels)))


def _counts(p, levels: int) -> dict:
    c = p.complex
    return {"faces": c.n_faces, "edges": c.n_edges, "domains": p.n_domains,
            "boundary_set_edges": len(p.boundary_set), "levels": levels}


def _domain_rows(domains) -> list:
    return [[d.classification, d.n_faces, d.chi, d.normal] for d in domains]


_MINIMAL_INVARIANTS = {
    "surface": "rectangle", "kappa": 1, "beta": 0, "sigma": 0, "omega": 0,
    "delta": -1, "defect": 1, "beta_interior": 0, "n_singular_interior": 0,
    "n_singular_boundary": 0, "orientable": [True],
}


def items_for(wl, seconds: float) -> int:
    """How many deck items a run of ``seconds`` measures.

    ``pace`` is about the workload's items per second on a 2-vCPU x86 VM,
    and the count is a whole number of ``stride`` cycles (surfaces, or nodal
    families), at least one.  The count depends on nothing else, so runs
    on a fast or a slow machine measure the same inputs.
    """
    return wl.stride * max(1, round(seconds * wl.pace / wl.stride))


def workloads(scale: float = 1.0) -> dict:
    """The benchmark's workloads by name.

    Decks hold more items than a run measures, so a run's latency
    quantiles describe distinct inputs rather than a few repeated ones.  ``scale`` shrinks grid sizes for the benchmark's own smoke
    tests; the benchmark itself always runs at scale 1.
    """
    def px(n):
        return max(4, int(n * scale) // 2 * 2)

    return {
        "large-random": RandomChain("large-random", COVERED, px(512), 20, 0.15, cli_path=False),
        "small-batch": RandomChain("small-batch", SURFACES, px(32), 1500, 30.0, cli_path=True),
        "nodal": NodalChain(200, 4.0, base_n=None if scale == 1.0 else px(64)),
    }
