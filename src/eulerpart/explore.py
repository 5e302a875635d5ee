"""Parameter sweeps, transition bracketing, and seeded random partitions.

Everything here is a pure function of its inputs and seeds: random
partitions come from a multi-source flood fill driven by a PCG64 stream,
sweeps and bisections reuse the deterministic stabilization from
``nodal``, and batch verification reduces its runs in seed order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph._traversal import _breadth_first_directed

from .complexes import (
    ID_DTYPE,
    MAX_FACES,
    SIDE_E,
    SIDE_N,
    SIDE_S,
    SIDE_W,
    CellComplex,
    SurfaceSpec,
    build_complex,
    csr,
)
from .cover import COVERABLE, cover_bookkeeping, double_cover, omega_via_cover
from .errors import InstabilityError, InvariantViolation, integer
from .nodal import FAMILIES, FAMILY_PARAMS, NodalConfig, stable_invariants
from .nodal import family as family_member
from .partition import (
    VERDICT_MODES,
    Partition,
    check_chi_sigma,
    from_labels,
    orientability_bits,
    verify_euler,
)


@dataclass(frozen=True)
class RandomSpec:
    """Seed and source count of a random partition.

    Both must be integers (numpy integers included, ``bool`` rejected), the
    seed non-negative and k at least 1; anything else raises ``ValueError``
    naming the field, before any draw.
    """

    seed: int
    k: int

    def __post_init__(self):
        seed, k = _check_seed_and_count(self.seed, self.k, "k")
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "k", k)


def check_batch_size(size, surface: str, name: str = "size") -> int:
    """``size`` as a Python int; a batch grid size that is not an integer
    (``bool`` included), is below 2, or gives a ``size x size`` grid above
    ``MAX_FACES`` raises a ``ValueError`` naming the field, and so does one
    whose double cover, ``2 * size**2`` faces, is above it when the batch
    builds that cover, on a ``surface`` in ``COVERABLE``."""
    size = integer(size, name)
    if size < 2:
        raise ValueError(f"{name} must be at least 2, got {size}")
    if size * size > MAX_FACES:
        raise ValueError(f"{name} {size} gives {size * size} faces, above the cap of {MAX_FACES}")
    if surface in COVERABLE and 2 * size * size > MAX_FACES:
        raise ValueError(
            f"{name} {size} gives {2 * size * size} faces in the double cover of {surface}, "
            f"above the cap of {MAX_FACES}"
        )
    return size


def _check_seed_and_count(seed, count, count_name: str) -> tuple[int, int]:
    """(seed, count) as Python ints; a seed or count that is not an integer
    (``bool`` included), a negative seed and a count below 1 raise a
    ``ValueError`` naming the field."""
    seed, count = integer(seed, "seed"), integer(count, count_name)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if count < 1:
        raise ValueError(f"{count_name} must be at least 1")
    return seed, count


#: the predecessor scipy's breadth-first traversal reads as "not reached yet"
_UNREACHED = -9999


def random_partition(c: CellComplex, spec: RandomSpec) -> Partition:
    """Seeded multi-source flood fill into k connected domains.

    k seed faces are drawn uniformly without replacement; unlabelled faces
    are claimed through interior edges in rounds.  A row is one side of an
    interior edge, from the face on that side to the face across it: each
    interior edge gives the row from its first face (``edge_faces[e, 0]``)
    to its second and the row back.  Rows are ordered with every first-face
    row in edge order before every second-face row in edge order.  Round d
    takes every row from a face labelled in round d - 1 (the seeds count as
    round -1) to an unlabelled face, in row order, shuffles them with one
    ``rng.permutation``, and the first claimant of each target in that
    order wins and passes its label on.

    Every open target is claimed in the round it appears, so the faces
    claimed in round d are exactly the faces at distance d + 1 from the
    seeds, and round d's rows are exactly the rows from distance d to
    distance d + 1.  The fill therefore needs no round loop: one
    breadth-first traversal over ``CellComplex.face_neighbours`` gives every
    face its distance (``_face_depths``), the depth steps across the raw
    edges of the grid pick every round's rows (``_rows_by_round``), and one
    counting sort groups them by round in row order.  Only the draws stay
    in a loop: ``rng.shuffle`` of a round's rows makes the same draws as
    ``rng.permutation`` of their count and leaves them in the same order,
    so identical seeds reproduce the partition bit for bit.  The first
    claimant of each face is found for all rounds at once with one
    ``np.minimum.at``, since a face is targeted in one round only.  The
    claims form one tree per seed, and each tree's root, its seed, found by
    pointer jumping, serves as the label of its faces: ``from_labels``
    numbers domains by their smallest face, so any labels with the same
    classes give the same partition.
    """
    if spec.k > c.n_faces:
        raise ValueError(f"k={spec.k} exceeds the {c.n_faces} available faces")
    rng = np.random.default_rng(spec.seed)
    sources = rng.choice(c.n_faces, size=spec.k, replace=False)
    depth, n_layers = _face_depths(c, sources)
    rows, bounds = _rows_by_round(c, depth, n_layers)
    del depth
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        rng.shuffle(rows[lo:hi])
    trees = _claim_trees(c, rows, n_layers)
    del rows  # the fill's temporaries go before from_labels allocates its own
    return from_labels(c, trees)


def _rows_by_round(c: CellComplex, depth: np.ndarray, n_layers: int) -> tuple[np.ndarray, list]:
    """(rows, bounds): every round's rows, one round after another and in
    row order within a round; round d is ``rows[bounds[d]:bounds[d + 1]]``.

    A row is the slot ``4*face + side`` of its source face's side, so
    ``face_neighbours`` gives its target.  Round d's rows run from depth d
    to depth d + 1.  ``CellComplex.raw_edge_values`` lays three tables out
    over the raw edges, whose order is edge order: the depth steps, the
    first faces' slots and the second faces' slots, each from slices of
    the face grid plus the seam edges of ``seam_adjacency``.  The rows are
    the first faces' slots where the step is 1 and the second faces' slots
    where it is -1, so they come in edge order without a sort.  One stable
    counting sort (``csr``) groups the rows of both directions by round.
    """
    W, H = c.spec.width, c.spec.height
    d = depth.reshape(H, W)
    slot = 4 * np.arange(c.n_faces, dtype=ID_DTYPE).reshape(H, W)
    fa, fb, _par, ids = c.seam_adjacency
    # per raw edge, the second face's depth less the first's: the first
    # face is below or left of the second across the grid
    step = c.raw_edge_values(d[1:] - d[:-1], d[:, 1:] - d[:, :-1], depth.take(fb) - depth.take(fa))
    rows = np.concatenate([
        c.raw_edge_values(slot[:-1] + SIDE_N, slot[:, :-1] + SIDE_E, 4 * fa + c.edge_sides[ids, 0])[step == 1],
        c.raw_edge_values(slot[1:] + SIDE_S, slot[:, 1:] + SIDE_W, 4 * fb + c.edge_sides[ids, 1])[step == -1],
    ])
    del step
    # a row's round is its source face's depth; the last layer has no
    # outward rows, so there are n_layers - 1 rounds.  ``csr`` checks no
    # key, and one past the last round would write past its tables
    rounds = depth.take(rows >> 2)
    if rounds.size and rounds.max() >= n_layers - 1:
        raise InvariantViolation("a flood-fill row leaves a face of the last layer")
    bounds, rows = csr(n_layers - 1, rounds, rows)
    # numpy shuffles intp items fastest
    return rows.astype(np.intp), bounds.tolist()


def _claim_trees(c: CellComplex, rows: np.ndarray, n_layers: int) -> np.ndarray:
    """Label every face with the seed face at the root of its claim tree.

    ``rows`` holds every round's rows in claim order.  A face is targeted
    in one round only, so the first row that targets it, over all rounds
    at once, is its claimant.  A face at depth d is d claims from its
    seed, and no face is deeper than ``n_layers - 1``, so pointer jumping
    (each face's pointer replaced by its pointer's pointer) reaches every
    root in ``(n_layers - 1).bit_length()`` rounds.
    """
    m = len(rows)
    first = np.full(c.n_faces, m, dtype=ID_DTYPE)
    np.minimum.at(first, c.face_neighbours.ravel().take(rows), np.arange(m, dtype=ID_DTYPE))
    claimed = (first < m).nonzero()[0]
    # intp pointers: a take through intp indices makes no index copy
    root = np.arange(c.n_faces, dtype=np.intp)
    root[claimed] = rows.take(first.take(claimed)) >> 2
    for _ in range((n_layers - 1).bit_length()):
        root = root.take(root)
    return root


def _face_depths(c: CellComplex, sources: np.ndarray) -> tuple[np.ndarray, int]:
    """(depth, n_layers): every face's distance from the nearest source.

    One breadth-first traversal of the face graph, from a virtual face
    ``n_faces`` whose out-edges are the sources, by scipy's private
    ``csgraph._traversal._breadth_first_directed``, imported at module load
    so a scipy without it fails on import (checked against the public
    ``breadth_first_order`` on scipy 1.17.1 only).  The graph is the
    ``(F, 4)`` table ``CellComplex.face_neighbours`` read as a CSR table
    with four neighbours per face; a boundary side is a self-loop, which a
    traversal ignores.  Its inputs are that int32 table and the caller's
    sources, which must be face ids, and it fills only the predecessors
    that hold ``_UNREACHED``.  A traversal that reaches fewer than all
    faces is an invariant violation.
    """
    n_faces = c.n_faces
    order = np.empty(n_faces + 1, dtype=ID_DTYPE)
    parent = np.full(n_faces + 1, _UNREACHED, dtype=ID_DTYPE)
    start = np.arange(0, 4 * n_faces + 5, 4, dtype=ID_DTYPE)
    start[-1] = 4 * n_faces + len(sources)
    reached = _breadth_first_directed(
        n_faces,
        np.concatenate([c.face_neighbours.ravel(), np.asarray(sources, dtype=ID_DTYPE)]),
        start,
        order,
        parent,
    )
    if reached != n_faces + 1:
        raise InvariantViolation("flood fill left unlabelled faces")
    # order lists the virtual face and then the faces layer by layer, and a
    # face's parent lies in the layer before it, so layer d + 1 ends after
    # the faces whose parent comes before the end of layer d; the parents'
    # positions in order never decrease, so one search finds those faces
    position = np.empty(n_faces + 1, dtype=np.intp)
    position[order] = np.arange(n_faces + 1)
    ppos = position.take(parent.take(order[1:]))
    del position, parent
    ends = [1]
    while ends[-1] <= n_faces:
        # the positions are intp, the type of a Python int: a search for an
        # int against int32 positions would cast the whole array each time
        ends.append(1 + int(ppos.searchsorted(ends[-1])))
    depth = np.empty(n_faces, dtype=ID_DTYPE)
    depth[order[1:]] = np.repeat(np.arange(len(ends) - 1, dtype=ID_DTYPE), np.diff(ends))
    return depth, len(ends) - 1


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class SweepRow:
    theta: float
    stable: bool
    n: int | None
    kappa: int | None
    beta: int | None
    sigma: int | None
    omega: int | None
    defect: int | None
    error: str | None = None


@dataclass(frozen=True)
class SweepResult:
    family: str
    beta: float | None
    rows: tuple
    findings: tuple


def sweep(family: str, thetas, beta: float | None = None,
          config: NodalConfig | None = None) -> SweepResult:
    """One stabilized invariant row per parameter value, on moebius.

    The values vary the family's last parameter: ``theta`` for ``phi``
    (``beta`` fixed) and ``ex3b``, the integer ``m`` for ``bands``.  Rows
    that fail to stabilize, a level on the zero set included, are marked
    with their error rather than dropped.  Monotonicity violations of the
    omega column are reported as findings.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {sorted(FAMILIES)}")
    values = list(thetas)
    if any(b > a for a, b in zip(values, values[1:])) and any(
        b < a for a, b in zip(values, values[1:])
    ):
        raise ValueError("parameter values must be monotone")
    varied = FAMILY_PARAMS[family][-1]
    rows = []
    for v in values:
        f = family_member(family, {"beta": beta, varied: v})
        try:
            sr = stable_invariants(f, "moebius", config)
        except InstabilityError as e:
            rows.append(SweepRow(float(v), False, None, None, None, None, None, None, str(e)))
            continue
        r = sr.report
        rows.append(
            SweepRow(float(v), True, sr.n, r.kappa, r.beta, r.sigma, r.omega, r.defect)
        )
    findings = []
    omega_col = [(r.theta, r.omega) for r in rows if r.stable]
    rises = sum(
        1 for (_, a), (_, b) in zip(omega_col, omega_col[1:]) if b > a
    )
    falls = [(t1, t2) for (t1, a), (t2, b) in zip(omega_col, omega_col[1:]) if b < a]
    for t1, t2 in falls:
        findings.append(f"omega decreases between {t1:.6g} and {t2:.6g}")
    if rises > 1:
        findings.append(f"omega rises {rises} times; expected a single step")
    return SweepResult(family=family, beta=beta, rows=tuple(rows), findings=tuple(findings))


# ---------------------------------------------------------------------------
# transition bracketing


@dataclass(frozen=True)
class TransitionEstimate:
    beta: float
    theta_low: float             # omega = 0 here
    theta_high: float            # omega = 1 here
    resolutions: tuple           # stabilized n per accepted probe
    evaluations: int

    @property
    def width(self) -> float:
        return self.theta_high - self.theta_low


_PROBE_OFFSETS = (0.0, -1 / 16, 1 / 16, -1 / 8, 1 / 8, -3 / 16, 3 / 16)

#: the (theta_low, theta_high) bracket a bisection starts from
BISECT_BRACKET = (0.05, math.pi / 2 - 0.05)


def bisect_transition(beta: float, tol: float = 1e-3,
                      config: NodalConfig | None = None) -> TransitionEstimate:
    """Bracket the orientability transition of the phi family in theta.

    Starts from ``BISECT_BRACKET``, which requires omega = 0 at its low
    end and omega = 1 at its high end, and needs a ``tol`` of at least the
    float spacing at the bracket's high end, a width two adjacent floats in
    the bracket always reach.  Midpoints that fail to stabilize, a level on
    the zero set included, are skipped by probing nearby offsets, each
    probe counted once in ``evaluations``; if no probe in a step stabilizes
    the bracket cannot shrink further and an InstabilityError is raised.
    Each probe is built by ``nodal.family``, so a ``beta`` that is not a
    finite real raises ``ValueError`` before anything is rasterized.
    """
    # the bracket stops shrinking at adjacent floats, so a smaller tol never ends
    if not tol > 0:
        raise ValueError("tol must be positive")
    spacing = math.ulp(BISECT_BRACKET[1])
    if tol < spacing:
        raise ValueError(f"tol {tol!r} is below the float spacing {spacing!r} at the bracket's high end")

    def stable_omega(theta: float) -> tuple[int, int]:
        sr = stable_invariants(family_member("phi", {"beta": beta, "theta": theta}), "moebius", config)
        return sr.report.omega, sr.n

    lo, hi = BISECT_BRACKET
    (w0, n0), (w1, n1) = stable_omega(lo), stable_omega(hi)
    if w0 != 0 or w1 != 1:
        raise ValueError(f"no sign change: omega({lo:.4g})={w0}, omega({hi:.4g})={w1}")
    evaluations, resolutions = 2, [n0, n1]
    while hi - lo > tol:
        width = hi - lo
        for off in _PROBE_OFFSETS:
            mid = lo + width * (0.5 + off)
            evaluations += 1
            try:
                w, n = stable_omega(mid)
            except InstabilityError:
                continue
            resolutions.append(n)
            lo, hi = (mid, hi) if w == 0 else (lo, mid)
            break
        else:
            raise InstabilityError(
                f"bracket ({lo:.6g}, {hi:.6g}) cannot shrink: every probe is unstable"
            )
    return TransitionEstimate(beta, lo, hi, tuple(resolutions), evaluations)


# ---------------------------------------------------------------------------
# batch verification


@dataclass(frozen=True)
class BatchResult:
    surface: str
    count: int
    seed: int
    k_range: tuple
    verdict_mode: str            # pass_fail / conjecture / report_only
    passes: int
    failures: tuple              # counterexample partitions
    defect_histogram: dict
    chi_sigma_ok: int
    cover_checked: int
    omega_agreements: int
    max_nonorientable: int

    @property
    def all_passed(self) -> bool:
        return not self.failures


def batch_verify(surface: str, count: int, seed: int, k_range: tuple = (1, 10),
                 size: int = 32) -> BatchResult:
    """Run seeded random partitions through every applicable check.

    On surfaces with a proven formula any wrong defect is a failure and
    the partition is kept for replay.  On conjecture / report-only
    surfaces the defect histogram is the result.  The chi-sigma identity
    is checked everywhere; on moebius and klein the two orientability
    routes are compared per domain and the cover bookkeeping asserted.
    ``seed`` and ``count`` are checked like ``RandomSpec``'s,
    ``k_range`` must hold integers with 1 <= k_min <= k_max <= size**2,
    and ``size`` must pass ``check_batch_size``, all before anything is
    built or drawn.  An ``InvariantViolation`` raised for an item is raised
    again with the batch's surface, size and seed and the item's index,
    ``sub_seed`` and ``k`` added to its message, so the item can be replayed.
    """
    seed, count = _check_seed_and_count(seed, count, "count")
    size = check_batch_size(size, surface)
    k_lo, k_hi = k_range
    k_lo, k_hi = integer(k_lo, "k_min"), integer(k_hi, "k_max")
    if not 1 <= k_lo <= k_hi:
        raise ValueError(f"k_min and k_max must satisfy 1 <= k_min <= k_max, got {k_lo} and {k_hi}")
    if k_hi > size * size:
        raise ValueError(f"k_max={k_hi} exceeds the {size * size} faces of the {size}x{size} grid")
    c = build_complex(SurfaceSpec.named(surface, size, size))
    cover = double_cover(c) if surface in COVERABLE else None

    passes = 0
    failures = []
    hist: dict[int, int] = {}
    chi_ok = 0
    cover_checked = 0
    omega_agree = 0
    max_n = 0
    for i in range(count):
        # item i's seed is the i-th child that SeedSequence(seed).spawn
        # would give, drawn when it is needed
        sub_seed = int(np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(1)[0])
        k = k_lo + i % (k_hi - k_lo + 1)
        try:
            p = random_partition(c, RandomSpec(seed=sub_seed, k=k))
            verdict = verify_euler(p)
            hist[verdict.measured_defect] = hist.get(verdict.measured_defect, 0) + 1
            ok = verdict.status != "fail"
            if check_chi_sigma(p).holds:
                chi_ok += 1
            else:
                ok = False
            if cover is not None:
                rep = cover_bookkeeping(cover, p)  # asserts kappa*/sigma* internally
                cover_checked += 1
                max_n = max(max_n, rep.n_nonorientable)
                if surface == "moebius" and rep.n_nonorientable > 1:
                    raise InvariantViolation("more than one non-orientable domain on moebius")
                if np.array_equal(omega_via_cover(cover, p), orientability_bits(p)):
                    omega_agree += 1
                else:
                    ok = False
        except InvariantViolation as e:
            # random_partition(c, RandomSpec(sub_seed, k)) rebuilds the item
            raise InvariantViolation(
                f"{e} (surface {surface}, size {size}, seed {seed}, item {i}: sub_seed {sub_seed}, k {k})"
            ) from e
        if ok:
            passes += 1
        else:
            failures.append(p)
    return BatchResult(
        surface=surface,
        count=count,
        seed=seed,
        k_range=(k_lo, k_hi),
        verdict_mode=VERDICT_MODES[surface][0],
        passes=passes,
        failures=tuple(failures),
        defect_histogram=dict(sorted(hist.items())),
        chi_sigma_ok=chi_ok,
        cover_checked=cover_checked,
        omega_agreements=omega_agree,
        max_nonorientable=max_n,
    )
