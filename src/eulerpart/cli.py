"""Command-line interface.

Exit codes: 0 all verdicts pass or are report-only, 1 an invariant
violation or a failed verdict, 2 usage error, 3 numerical instability;
any other exception is a bug and propagates.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import jsonio
from .complexes import SURFACES
from .cover import COVERABLE, cover_bookkeeping, double_cover
from .errors import EulerPartError, InstabilityError, InvariantViolation
from .explore import batch_verify, bisect_transition, check_batch_size, sweep
from .nodal import FAMILIES, NodalConfig, family, stable_invariants
from .partition import (
    NORMALIZE_FACTOR,
    classify_circle_complement,
    cut,
    domain_reports,
    invariants,
    normalize,
    plan_cut,
    verify_euler,
)
from .render import render

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_UNSTABLE = 3

#: the most parameter values one ``sweep`` takes, checked before any is made;
#: each value costs at least two rasterizations
MAX_SWEEP_COUNT = 100_000


def _emit(obj: dict, out: str | None, schema: str) -> None:
    try:
        jsonio.validate(schema, obj)
    except jsonio.DocumentError as e:
        raise InvariantViolation(f"emitted {e}") from e
    text = jsonio.dumps(obj)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError:
        raise ValueError(f"{path} nests JSON deeper than the parser accepts") from None


def _load_partition(path: str):
    return jsonio.partition_from_json(_load_json(path))


def _nodal_config(args) -> NodalConfig:
    return NodalConfig(n=args.n, max_refine=args.max_refine)


def cmd_invariants(args) -> int:
    p = _load_partition(args.partition)
    rep = invariants(p)
    doms = domain_reports(p)
    _emit(jsonio.invariants_to_json(rep, doms), args.out, schema="invariants")
    return EXIT_OK


def cmd_verify(args) -> int:
    p = _load_partition(args.partition)
    v = verify_euler(p)
    _emit(jsonio.verdict_to_json(v), args.out, schema="verdict")
    return EXIT_OK if v.ok else EXIT_FAIL


def cmd_nodal(args) -> int:
    f = family(args.family, vars(args))
    sr = stable_invariants(f, args.surface, _nodal_config(args))
    p = sr.partition
    v = verify_euler(p)
    out = {
        "function": f.name,
        "surface": args.surface,
        "stable_n": sr.n,
        "levels": [list(lv) for lv in sr.levels],
        "verdict": jsonio.verdict_to_json(v),
        "invariants": jsonio.invariants_to_json(sr.report, domain_reports(p)),
    }
    _emit(out, args.out, schema="nodal_result")
    return EXIT_OK if v.ok else EXIT_FAIL


def cmd_sweep(args) -> int:
    if args.count < 2:
        raise EulerPartError("--count must be at least 2")
    if args.count > MAX_SWEEP_COUNT:
        raise EulerPartError(f"--count {args.count} is above the cap of {MAX_SWEEP_COUNT}")
    thetas = [
        args.theta_min + i * (args.theta_max - args.theta_min) / (args.count - 1)
        for i in range(args.count)
    ]
    # an integral value goes in as an int, so bands can sweep its frequency m
    thetas = [int(t) if t.is_integer() else t for t in thetas]
    res = sweep(args.family, thetas, beta=args.beta, config=_nodal_config(args))
    _emit(jsonio.sweep_to_json(res), args.out, schema="sweep")
    return EXIT_OK


def cmd_bisect(args) -> int:
    est = bisect_transition(args.beta, tol=args.tol, config=_nodal_config(args))
    _emit(jsonio.transition_to_json(est), args.out, schema="transition")
    return EXIT_OK


def cmd_random_check(args) -> int:
    check_batch_size(args.size, args.surface, "--size")
    res = batch_verify(
        args.surface, args.count, args.seed,
        k_range=(args.k_min, args.k_max), size=args.size,
    )
    _emit(jsonio.batch_to_json(res), args.out, schema="batch")
    return EXIT_OK if res.all_passed else EXIT_FAIL


def cmd_cover_check(args) -> int:
    if not args.partition:
        return cmd_random_check(args)  # every cover-check surface is coverable
    p = _load_partition(args.partition)
    rep = cover_bookkeeping(double_cover(p.complex), p)
    _emit(jsonio.cover_report_to_json(rep), args.out, schema="cover_report")
    return EXIT_OK


def cmd_circle(args) -> int:
    c, cycle = jsonio.cycle_from_json(_load_json(args.cycle))
    res = classify_circle_complement(c, cycle)
    _emit(jsonio.complement_to_json(res), args.out, schema="complement")
    return EXIT_OK


def cmd_normalize(args) -> int:
    p = _load_partition(args.partition)
    before = invariants(p)
    q = normalize(p)
    out = {
        "operation": "normalize",
        "partition": jsonio.partition_to_json(q),
        "before": jsonio.invariants_to_json(before),
        "after": jsonio.invariants_to_json(invariants(q)),
        "refine_factor": NORMALIZE_FACTOR,
    }
    _emit(out, args.out, schema="surgery")
    return EXIT_OK


def cmd_cut(args) -> int:
    p = _load_partition(args.partition)
    edges = jsonio.cut_path_from_json(_load_json(args.path))
    before = invariants(p)
    planned = plan_cut(p, edges)
    q = cut(planned)
    out = {
        "operation": "cut",
        "partition": jsonio.partition_to_json(q),
        "before": jsonio.invariants_to_json(before),
        "after": jsonio.invariants_to_json(invariants(q)),
        "n_crossings": planned.n_crossings,
    }
    _emit(out, args.out, schema="surgery")
    return EXIT_OK


def cmd_render(args) -> int:
    fmt = Path(args.out).suffix.lower()[1:]
    if fmt not in ("ppm", "svg"):
        raise EulerPartError(f"--out must end in .ppm or .svg, got {args.out!r}")
    p = _load_partition(args.partition)
    Path(args.out).write_bytes(render(p, args.cell_px, fmt=fmt))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="eulerpart",
        description="Partition invariants and Euler-type formulas on flat quotient surfaces",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_out(sp):
        sp.add_argument("--out", help="write JSON here instead of stdout")

    def add_resolution(sp):
        sp.add_argument("--n", type=int, default=NodalConfig.n, help="base resolution")
        sp.add_argument("--max-refine", type=int, default=NodalConfig.max_refine, dest="max_refine")

    def add_batch(sp):
        for flag, default in (("--count", 100), ("--seed", 0), ("--k-min", 1), ("--k-max", 10), ("--size", 32)):
            sp.add_argument(flag, type=int, default=default)
        add_out(sp)

    sp = sub.add_parser("invariants", help="invariant report for a partition file")
    sp.add_argument("partition")
    add_out(sp)
    sp.set_defaults(func=cmd_invariants)

    sp = sub.add_parser("verify", help="Euler-formula verdict for a partition file")
    sp.add_argument("partition")
    add_out(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("nodal", help="stabilized invariants of a named eigenfunction")
    sp.add_argument("--family", choices=sorted(FAMILIES), required=True)
    sp.add_argument("--beta", type=float)
    sp.add_argument("--theta", type=float)
    sp.add_argument("--m", type=int)
    sp.add_argument("--surface", choices=["moebius", "rectangle"], default="moebius")
    add_resolution(sp)
    add_out(sp)
    sp.set_defaults(func=cmd_nodal)

    sp = sub.add_parser("sweep", help="stabilized invariants over a parameter range")
    sp.add_argument("--family", choices=sorted(FAMILIES), default="phi")
    sp.add_argument("--beta", type=float, default=math.pi / 6)
    sp.add_argument("--theta-min", type=float, default=0.02)
    sp.add_argument("--theta-max", type=float, default=math.pi / 2 - 0.02)
    sp.add_argument("--count", type=int, default=25)
    add_resolution(sp)
    add_out(sp)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("bisect", help="bracket the orientability transition in theta")
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--tol", type=float, default=1e-3)
    add_resolution(sp)
    add_out(sp)
    sp.set_defaults(func=cmd_bisect)

    sp = sub.add_parser("random-check", help="seeded random partitions through all checks")
    sp.add_argument("--surface", required=True, choices=list(SURFACES))
    add_batch(sp)
    sp.set_defaults(func=cmd_random_check)

    sp = sub.add_parser("cover-check", help="double-cover bookkeeping and orientability")
    sp.add_argument("partition", nargs="?", help="partition file (otherwise random batch)")
    sp.add_argument("--surface", choices=list(COVERABLE), default="moebius")
    add_batch(sp)
    sp.set_defaults(func=cmd_cover_check)

    sp = sub.add_parser("circle", help="classify a circle complement in the projective plane")
    sp.add_argument("cycle", help="JSON file with surface and cycle")
    add_out(sp)
    sp.set_defaults(func=cmd_circle)

    sp = sub.add_parser("normalize", help="normalize a partition file")
    sp.add_argument("partition")
    add_out(sp)
    sp.set_defaults(func=cmd_normalize)

    sp = sub.add_parser("cut", help="apply a cut path to a partition file")
    sp.add_argument("partition")
    sp.add_argument("--path", required=True, help="JSON file with the edge list")
    add_out(sp)
    sp.set_defaults(func=cmd_cut)

    sp = sub.add_parser("render", help="draw a partition to PPM or SVG")
    sp.add_argument("partition")
    sp.add_argument("--out", required=True, help="output image (.ppm or .svg)")
    sp.add_argument("--cell-px", type=int, default=12, dest="cell_px")
    sp.set_defaults(func=cmd_render)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except InstabilityError as e:
        print(f"unstable: {e}", file=sys.stderr)
        return EXIT_UNSTABLE
    except InvariantViolation as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return EXIT_FAIL
    except (EulerPartError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE

