import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eulerpart import (
    SURFACES,
    InstabilityError,
    InvariantViolation,
    NodalConfig,
    RandomSpec,
    SurfaceSpec,
    batch_verify,
    bisect_transition,
    build_complex,
    from_labels,
    invariants,
    random_partition,
    sweep,
)
from eulerpart.complexes import GLUINGS, components
from eulerpart.explore import _UNREACHED, _claim_trees, _face_depths, _rows_by_round
from edgerows import interior_rows

PI = math.pi


# -- random partitions --------------------------------------------------------


def test_random_partition_k1():
    c = build_complex(SurfaceSpec.named("moebius", 8, 8))
    p = random_partition(c, RandomSpec(seed=1, k=1))
    r = invariants(p)
    assert (r.kappa, r.beta, r.sigma) == (1, 0, 0)


def test_random_partition_reproducible():
    c = build_complex(SurfaceSpec.named("moebius", 32, 32))
    a = random_partition(c, RandomSpec(seed=42, k=5))
    b = random_partition(c, RandomSpec(seed=42, k=5))
    assert np.array_equal(a.domains, b.domains)
    assert not np.array_equal(
        a.domains, random_partition(c, RandomSpec(seed=43, k=5)).domains
    )


def test_random_partition_regression_fixture():
    # recorded after the first run; guards the generator's determinism
    c = build_complex(SurfaceSpec.named("moebius", 32, 32))
    r = invariants(random_partition(c, RandomSpec(seed=42, k=5)))
    assert r.key() == (5, 0, 5, 0)
    assert r.delta == 0
    cr = build_complex(SurfaceSpec.named("rectangle", 32, 32))
    rr = invariants(random_partition(cr, RandomSpec(seed=42, k=5)))
    assert rr.key() == (5, 0, 4, 0)
    assert rr.defect == 1


def _scan_flood_fill(c, spec):
    """The round-by-round flood fill: every round rescans all rows for open
    ones, each interior edge from its first face to its second in edge
    order and then back, shuffles them and lets the first claimant of each
    face win."""
    rng = np.random.default_rng(spec.seed)
    labels = np.full(c.n_faces, -1, dtype=np.int64)
    sources = rng.choice(c.n_faces, size=spec.k, replace=False)
    labels[sources] = np.arange(spec.k)
    fa, fb, _, _ids = interior_rows(c)
    both = np.concatenate([np.stack([fa, fb], 1), np.stack([fb, fa], 1)])
    while True:
        src_lab = labels[both[:, 0]]
        open_edges = (src_lab >= 0) & (labels[both[:, 1]] < 0)
        if not np.any(open_edges):
            break
        cand = both[open_edges]
        cand_lab = src_lab[open_edges]
        order = rng.permutation(len(cand))
        targets = cand[order, 1]
        first = np.unique(targets, return_index=True)[1]
        labels[targets[first]] = cand_lab[order][first]
    return labels


#: (surface, size, seeds) per case; 128² runs a hundred-odd rounds per fill
_FULL_SCAN_CASES = [
    pytest.param(name, size, 3, id=f"size{i}-{name}")
    for i, size in enumerate([(2, 2), (7, 5), (32, 32), (33, 17)])
    for name in sorted(SURFACES)
] + [pytest.param(name, (128, 128), 2, id=f"size4-{name}") for name in ("klein", "moebius")]


@pytest.mark.parametrize("name,size,seeds", _FULL_SCAN_CASES)
def test_random_partition_matches_full_scan(name, size, seeds):
    c = build_complex(SurfaceSpec.named(name, *size))
    # k = n_faces labels every face up front and runs no round at all
    for k in sorted({1, min(5, c.n_faces), min(16, c.n_faces), c.n_faces}):
        for seed in range(seeds):
            spec = RandomSpec(seed=seed, k=k)
            expected = from_labels(c, _scan_flood_fill(c, spec)).domains
            assert np.array_equal(random_partition(c, spec).domains, expected)


@pytest.mark.parametrize("gluings", [(gx, gy) for gx in GLUINGS for gy in GLUINGS],
                         ids=lambda g: "-".join(g))
@pytest.mark.parametrize("size", [(2, 2), (3, 2), (2, 3), (5, 2), (7, 5), (33, 17)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_random_partition_matches_round_oracle_on_every_gluing(size, gluings):
    c = build_complex(SurfaceSpec(*size, *gluings))
    for k in sorted({1, 2, min(7, c.n_faces), c.n_faces}):
        for seed in range(3):
            spec = RandomSpec(seed=seed, k=k)
            expected = from_labels(c, _scan_flood_fill(c, spec)).domains
            assert np.array_equal(random_partition(c, spec).domains, expected), (k, seed)


def _per_edge_rows(c, depth, n_layers):
    """The rows by round from one row per interior edge: the first face's
    slot where the second face is one step deeper, in edge order, then the
    second face's slot where the first is, and a stable sort by the source
    face's depth."""
    fa, fb, _par, ids = interior_rows(c)
    step = depth[fb] - depth[fa]
    rows = np.concatenate([
        (4 * fa + c.edge_sides[ids, 0])[step == 1],
        (4 * fb + c.edge_sides[ids, 1])[step == -1],
    ])
    rounds = depth[rows >> 2]
    order = np.argsort(rounds, kind="stable")
    bounds = np.concatenate([[0], np.cumsum(np.bincount(rounds, minlength=n_layers - 1))])
    return rows[order], bounds.tolist()


@pytest.mark.parametrize("gluings", [(gx, gy) for gx in GLUINGS for gy in GLUINGS],
                         ids=lambda g: "-".join(g))
@pytest.mark.parametrize("size", [(2, 2), (3, 2), (2, 3), (5, 2), (7, 5), (8, 6), (12, 9), (33, 17)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_row_slots_by_grid_arithmetic_match_the_three_layouts(size, gluings):
    # the package's three raw-edge layouts of grid slices and seam slots
    # against one row per interior edge
    c = build_complex(SurfaceSpec(*size, *gluings))
    for seed in range(6):
        rng = np.random.default_rng(seed)
        sources = rng.choice(c.n_faces, size=int(rng.integers(1, c.n_faces + 1)), replace=False)
        depth, n_layers = _face_depths(c, sources)
        rows, bounds = _rows_by_round(c, depth, n_layers)
        want_rows, want_bounds = _per_edge_rows(c, depth, n_layers)
        assert rows.tolist() == want_rows.tolist() and bounds == want_bounds, seed


#: the fill with the seam rows' slots mutated to 0: such a row's source is
#: face 0, whose depth can be the last layer's, one past the last round
_SEAM_SLOTS_AT_ZERO = """
import inspect
from eulerpart import InvariantViolation, RandomSpec, SurfaceSpec, build_complex, random_partition
from eulerpart import explore

source = inspect.getsource(explore._rows_by_round)
for slots in ("4 * fa + c.edge_sides[ids, 0]", "4 * fb + c.edge_sides[ids, 1]"):
    assert slots in source, slots
    source = source.replace(slots, "0 * " + slots.split()[2])
scope = dict(vars(explore))
exec(source, scope)
explore._rows_by_round = scope["_rows_by_round"]
c = build_complex(SurfaceSpec.named("moebius", 8, 6))
for seed in range(20):
    try:
        random_partition(c, RandomSpec(seed=seed, k=1))
    except InvariantViolation as e:
        print(seed, e)
        break
"""


def test_a_round_key_past_the_last_round_raises_before_the_sort():
    # without the check the counting sort writes out of bounds and can abort
    # the interpreter, so the mutated fill runs in a child process
    import os
    import subprocess
    import sys
    from pathlib import Path

    import eulerpart

    env = {**os.environ, "PYTHONPATH": str(Path(eulerpart.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", _SEAM_SLOTS_AT_ZERO], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "4 a flood-fill row leaves a face of the last layer"


def _forest_labels(c, rows):
    """A ``components`` labelling of the claim forest: each claimed face
    joined to its claimant, the source of the first row that targets it."""
    first = {}
    for k, target in enumerate(c.face_neighbours.ravel()[rows].tolist()):
        first.setdefault(target, k)
    claimed = np.fromiter(first, dtype=np.int64, count=len(first))
    claimant = rows[np.fromiter(first.values(), dtype=np.int64, count=len(first))] >> 2
    return components(c.n_faces, claimant, claimed)[1]


@pytest.mark.parametrize("name,size,sources", [
    # one corner source on a strip: 42 layers, so the depth 41 is no power of two
    ("rectangle", (40, 3), [0]),
    ("moebius", (40, 3), [0, 61]),
    ("klein", (12, 9), None),
    ("projective", (7, 5), None),
    ("torus", (33, 17), None),
    ("cylinder", (2, 2), None),
])
def test_pointer_jumped_roots_match_a_components_labelling(name, size, sources):
    c = build_complex(SurfaceSpec.named(name, *size))
    for seed in range(4):
        rng = np.random.default_rng(seed)
        if sources is None:
            picked = rng.choice(c.n_faces, size=int(rng.integers(1, min(c.n_faces, 12) + 1)), replace=False)
        else:
            picked = np.array(sources)
        depth, n_layers = _face_depths(c, picked)
        rows, bounds = _rows_by_round(c, depth, n_layers)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            rng.shuffle(rows[lo:hi])
        root = _claim_trees(c, rows, n_layers)
        # every face reaches the seed at the root of its tree
        assert set(root.tolist()) == set(picked.tolist()) and np.all(depth[root] == 0)
        want = from_labels(c, _forest_labels(c, rows))
        assert np.array_equal(from_labels(c, root).domains, want.domains)
        if sources == [0]:
            assert n_layers == 42


@st.composite
def _fill_cases(draw):
    name = draw(st.sampled_from(sorted(SURFACES)))
    width, height = draw(st.integers(2, 9)), draw(st.integers(2, 9))
    k = draw(st.integers(1, width * height))
    return name, width, height, RandomSpec(seed=draw(st.integers(0, 2**64 - 1)), k=k)


@settings(max_examples=150, deadline=None)
@given(_fill_cases())
def test_random_partition_matches_full_scan_everywhere(case):
    name, width, height, spec = case
    c = build_complex(SurfaceSpec.named(name, width, height))
    expected = from_labels(c, _scan_flood_fill(c, spec)).domains
    assert np.array_equal(random_partition(c, spec).domains, expected)


def _public_depths(c, sources):
    """Face depths from scipy's public ``breadth_first_order`` over the
    same graph: the face graph plus a virtual face joined to the sources."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import breadth_first_order

    fa, fb, _par, _ids = interior_rows(c)
    virtual = c.n_faces
    rows = np.concatenate([fa, fb, np.full(len(sources), virtual)])
    cols = np.concatenate([fb, fa, sources])
    graph = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(virtual + 1, virtual + 1)).tocsr()
    order, parent = breadth_first_order(graph, virtual, directed=True)
    assert len(order) == virtual + 1 and parent[virtual] == _UNREACHED
    depth = np.full(virtual + 1, -1)
    for face in order:
        depth[face] = depth[parent[face]] + 1 if face != virtual else -1
    return depth[:virtual]


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_bfs_matches_public_scipy(name):
    for size in [(2, 2), (7, 5), (16, 9)]:
        c = build_complex(SurfaceSpec.named(name, *size))
        for seed in range(4):
            rng = np.random.default_rng(seed)
            sources = rng.choice(c.n_faces, size=int(rng.integers(1, c.n_faces + 1)), replace=False)
            depth, n_layers = _face_depths(c, sources)
            want = _public_depths(c, sources)
            assert depth.tolist() == want.tolist()
            assert n_layers == want.max() + 1


def test_flood_fill_rejects_an_unreached_face():
    import dataclasses

    # a copy of a complex whose every side is a self-loop: the traversal
    # reaches the one source and stops
    c = dataclasses.replace(build_complex(SurfaceSpec.named("rectangle", 3, 2)))
    c.__dict__["face_neighbours"] = np.repeat(np.arange(c.n_faces, dtype=np.int32), 4).reshape(c.n_faces, 4)
    with pytest.raises(InvariantViolation, match="flood fill left unlabelled faces"):
        _face_depths(c, np.array([0]))


def test_random_partition_k_validation():
    c = build_complex(SurfaceSpec.named("rectangle", 2, 2))
    with pytest.raises(ValueError):
        random_partition(c, RandomSpec(seed=0, k=5))
    with pytest.raises(ValueError):
        RandomSpec(seed=0, k=0)


@pytest.mark.parametrize("field,seed,k", [
    ("k", 0, 2.5), ("k", 0, True), ("k", 0, "3"), ("k", 0, None),
    ("seed", 1.5, 3), ("seed", "7", 3), ("seed", False, 3), ("seed", np.float64(2.0), 3),
])
def test_random_spec_rejects_non_integers(field, seed, k):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        RandomSpec(seed=seed, k=k)


@pytest.mark.parametrize("size,message", [
    (0, "size must be at least 2, got 0"), (1, "size must be at least 2, got 1"),
    (True, "size must be an integer, got True"), (2.0, "size must be an integer, got 2.0"),
    (100_000, "size 100000 gives 10000000000 faces, above the cap of 8388608"),
    (2049, "size 2049 gives 8396802 faces in the double cover of moebius, above the cap of 8388608"),
])
def test_batch_verify_checks_size_before_building(size, message, monkeypatch):
    from eulerpart import explore

    monkeypatch.setattr(explore, "build_complex", None)  # nothing may be built
    with pytest.raises(ValueError, match=re.escape(message)):
        batch_verify("moebius", 1, 0, size=size)


def test_random_spec_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        RandomSpec(seed=-1, k=3)


def test_random_spec_accepts_numpy_integers():
    c = build_complex(SurfaceSpec.named("klein", 6, 5))
    spec = RandomSpec(seed=np.uint64(7), k=np.int32(4))
    assert np.array_equal(random_partition(c, spec).domains,
                          random_partition(c, RandomSpec(seed=7, k=4)).domains)


def test_random_partition_has_k_domains_usually():
    c = build_complex(SurfaceSpec.named("rectangle", 16, 16))
    for seed in range(5):
        p = random_partition(c, RandomSpec(seed=seed, k=7))
        # flood fill keeps sources connected; re-splitting cannot merge them
        assert p.n_domains == 7


# -- sweep ----------------------------------------------------------------


@pytest.fixture(scope="module")
def phi_sweep():
    thetas = np.linspace(0.02, PI / 2 - 0.02, 25)
    return sweep("phi", thetas, beta=PI / 6, config=NodalConfig(n=48))


def test_sweep_all_rows_stable_defect_zero(phi_sweep):
    assert all(r.stable for r in phi_sweep.rows)
    assert all(r.defect == 0 for r in phi_sweep.rows)


def test_sweep_omega_single_step(phi_sweep):
    om = [r.omega for r in phi_sweep.rows if r.stable]
    assert om == sorted(om)
    assert om[0] == 0 and om[-1] == 1
    rises = sum(1 for a, b in zip(om, om[1:]) if b > a)
    assert rises == 1
    assert phi_sweep.findings == ()


def test_sweep_bands_family():
    res = sweep("bands", [3, 5], config=NodalConfig(n=20))
    assert [r.kappa for r in res.rows] == [2, 3]
    assert [r.omega for r in res.rows] == [1, 1]
    assert all(r.defect == 0 for r in res.rows)


def test_sweep_validates_family_and_order():
    with pytest.raises(ValueError):
        sweep("nope", [0.1, 0.2], beta=0.5)
    with pytest.raises(ValueError):
        sweep("phi", [0.3, 0.1, 0.2], beta=0.5)


# -- bisect ----------------------------------------------------------------


@pytest.fixture(scope="module")
def transition():
    return bisect_transition(PI / 6, tol=1e-3, config=NodalConfig(n=48))


def test_bisect_bracket(transition):
    est = transition
    assert est.width <= 1e-3
    assert 0.05 < est.theta_low < est.theta_high < PI / 2


def test_bisect_deterministic(transition):
    again = bisect_transition(PI / 6, tol=1e-3, config=NodalConfig(n=48))
    assert (again.theta_low, again.theta_high) == (
        transition.theta_low,
        transition.theta_high,
    )


def test_bisect_omega_values_at_bracket(transition):
    from eulerpart import phi_family, stable_invariants

    cfg = NodalConfig(n=48)
    lo = stable_invariants(phi_family(PI / 6, transition.theta_low), "moebius", cfg)
    hi = stable_invariants(phi_family(PI / 6, transition.theta_high), "moebius", cfg)
    assert lo.report.omega == 0 and hi.report.omega == 1


def test_bisect_wide_tol_returns_initial_bracket():
    est = bisect_transition(PI / 6, tol=2.0, config=NodalConfig(n=48))
    assert est.theta_low == 0.05
    assert est.theta_high == pytest.approx(PI / 2 - 0.05)


@pytest.mark.parametrize("tol", [0.0, -1e-3, float("nan")])
def test_bisect_rejects_nonpositive_tol(tol):
    # rejected before the first probe
    with pytest.raises(ValueError, match="tol must be positive"):
        bisect_transition(0.5236, tol=tol)


def _exact_oracle(monkeypatch):
    """Replace the stabilization with omega = [theta > arctan(2/3)], exact
    in floats, and return the list of thetas it is asked for."""
    from types import SimpleNamespace

    from eulerpart import explore

    asked = []

    def stable(theta, surface, config=None):
        asked.append(theta)
        return SimpleNamespace(report=SimpleNamespace(omega=int(theta > math.atan(2 / 3))), n=48)

    # the family member is its theta, which the fake stabilization reads
    monkeypatch.setattr(explore, "phi_family", lambda beta, theta: theta)
    monkeypatch.setattr(explore, "stable_invariants", stable)
    return asked


def test_bisect_ends_at_the_float_spacing(monkeypatch):
    asked = _exact_oracle(monkeypatch)
    est = bisect_transition(PI / 6, tol=1e-15)
    assert est.theta_low < math.atan(2 / 3) < est.theta_high
    assert est.width <= 1e-15 and est.evaluations == len(asked) < 60


@pytest.mark.parametrize("tol", [1e-16, 1e-300, math.ulp(PI / 2 - 0.05) / 2])
def test_bisect_rejects_tol_below_the_float_spacing(tol, monkeypatch):
    # the bracket stops shrinking at adjacent floats, so this tol never ends
    asked = _exact_oracle(monkeypatch)
    with pytest.raises(ValueError, match=f"^tol {re.escape(repr(tol))} is below the float spacing "):
        bisect_transition(PI / 6, tol=tol)
    assert asked == []


@pytest.mark.parametrize("tol,n", [
    (1e-2, 32), (1e-3, 32), (1e-3, 64),
    pytest.param(1e-3, 48, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 15: the n = 48 ladder accepts omega = 1 below arctan(2/3)")),
])
def test_bisect_bracket_contains_the_exact_transition(tol, n):
    # at beta = 0.5236 the nodal set meets the boundary in a double zero at
    # theta = arctan(2/3), where omega steps from 0 to 1
    est = bisect_transition(0.5236, tol=tol, config=NodalConfig(n=n))
    assert est.theta_low < math.atan(2 / 3) < est.theta_high


def test_bisect_no_sign_change_rejected(monkeypatch):
    from eulerpart import explore

    monkeypatch.setattr(explore, "BISECT_BRACKET", (0.05, 0.2))
    with pytest.raises(ValueError, match="no sign change"):
        bisect_transition(PI / 6, tol=1e-3, config=NodalConfig(n=48))


# -- batch ----------------------------------------------------------------


def test_batch_moebius_small():
    res = batch_verify("moebius", 30, seed=5, k_range=(1, 6), size=16)
    assert res.passes == 30
    assert res.defect_histogram == {0: 30}
    assert res.omega_agreements == 30
    assert res.max_nonorientable <= 1


def test_batch_rectangle_small():
    res = batch_verify("rectangle", 30, seed=5, k_range=(1, 6), size=16)
    assert res.passes == 30
    assert res.defect_histogram == {1: 30}
    assert res.verdict_mode == "pass_fail"


def test_batch_conjecture_modes():
    res = batch_verify("projective", 10, seed=2, k_range=(1, 4), size=12)
    assert res.verdict_mode == "conjecture"
    assert res.passes == 10  # conjecture rows never fail
    res_t = batch_verify("torus", 10, seed=2, k_range=(1, 4), size=12)
    assert res_t.verdict_mode == "report_only"


@pytest.mark.parametrize("count,seed,message,k_range", [
    (2, 1.5, "seed must be an integer, got 1.5", (1, 10)),
    (2, True, "seed must be an integer, got True", (1, 10)),
    (2, -1, "seed must be non-negative, got -1", (1, 10)),
    (2.0, 1, "count must be an integer, got 2.0", (1, 10)),
    (True, 1, "count must be an integer, got True", (1, 10)),
    (2, 1, "k_min must be an integer, got 1.0", (1.0, 3)),
    (2, 1, "k_max must be an integer, got True", (1, True)),
    (2, 1, "k_min and k_max must satisfy 1 <= k_min <= k_max, got 0 and 10", (0, 10)),
    (2, 1, "k_min and k_max must satisfy 1 <= k_min <= k_max, got 4 and 3", (4, 3)),
    # two items never reach k = 2000, so only an up-front check refuses it
    (2, 1, "k_max=2000 exceeds the 1024 faces of the 32x32 grid", (1, 2000)),
], ids=["float-seed", "bool-seed", "negative-seed", "float-count", "bool-count",
        "float-k-min", "bool-k-max", "zero-k-min", "k-min-above-k-max", "k-max-above-the-faces"])
def test_batch_rejects_bad_seed_and_count_before_any_draw(count, seed, message, k_range, monkeypatch):
    from eulerpart import explore

    monkeypatch.setattr(explore, "build_complex", None)  # nothing may be built or drawn
    with pytest.raises(ValueError, match=re.escape(message)):
        batch_verify("moebius", count, seed, k_range=k_range)


def test_batch_verify_draws_each_seed_in_its_item(monkeypatch):
    # item i's seed is the i-th child of SeedSequence(seed).spawn, drawn in
    # its own iteration: spawn would build the whole list before the first item
    from eulerpart import explore

    want = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(7).spawn(5)]

    class NoSpawn(np.random.SeedSequence):
        def spawn(self, n_children):
            raise AssertionError("batch_verify spawned its seed list")

    seeds = []
    real = explore.random_partition
    monkeypatch.setattr(np.random, "SeedSequence", NoSpawn)
    monkeypatch.setattr(explore, "random_partition", lambda c, spec: seeds.append(spec.seed) or real(c, spec))
    res = batch_verify("moebius", 5, seed=7, k_range=(1, 4), size=8)
    assert seeds == want
    assert res.passes == 5 and res.chi_sigma_ok == 5


def test_batch_chi_sigma_everywhere():
    res = batch_verify("klein", 20, seed=9, k_range=(1, 5), size=12)
    assert res.chi_sigma_ok == 20
    assert res.cover_checked == 20
    assert res.omega_agreements == 20


def test_sweep_marks_unstable_rows():
    # a single refinement level can never agree with itself twice
    res = sweep("phi", [0.5875], beta=PI / 6, config=NodalConfig(n=16, max_refine=0))
    row = res.rows[0]
    assert not row.stable
    assert row.error


def test_near_transition_resolves_to_a_valid_partition():
    # inside the transition bracket the rasterization may land on either
    # side, but whatever it stabilizes to still satisfies the formula
    from eulerpart import InstabilityError, phi_family, stable_invariants

    try:
        sr = stable_invariants(
            phi_family(PI / 6, 0.5875), "moebius", NodalConfig(n=16, max_refine=3)
        )
        assert sr.report.defect == 0
    except InstabilityError:
        pass
