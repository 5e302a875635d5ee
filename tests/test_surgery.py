import itertools
import math

import numpy as np
import pytest

from eulerpart import (
    SURFACES,
    CutError,
    SurfaceSpec,
    build_complex,
    cut,
    domain_reports,
    from_labels,
    invariants,
    is_normal,
    normalize,
    plan_cut,
    refine,
    verify_euler,
)
from eulerpart.explore import RandomSpec, random_partition
from eulerpart.partition import _simple_path, closure_tables

from cutgen import _incidence, _walk, random_admissible_cut
from edgerows import interior_edges


def s_shape_partition():
    """A connected domain occupying two opposite sectors of one vertex."""
    c = build_complex(SurfaceSpec.named("rectangle", 4, 3))
    lab = np.ones(12, dtype=int)
    for i, j in [(1, 0), (0, 0), (0, 1), (0, 2), (1, 2), (2, 2), (2, 1)]:
        lab[j * 4 + i] = 0
    return from_labels(c, lab)


# -- normalize ---------------------------------------------------------------


def test_normalize_identity_on_normal_partition():
    c = build_complex(SurfaceSpec.named("rectangle", 4, 4))
    p = from_labels(c, (np.arange(16) // 8).astype(int))
    assert is_normal(p)
    assert normalize(p) is p


def test_normalize_s_shape_bookkeeping():
    p = s_shape_partition()
    assert not is_normal(p)
    before = invariants(p)
    q = normalize(p)
    after = invariants(q)
    assert is_normal(q)
    # splitting off the disk adds one domain and one to sigma
    assert after.kappa == before.kappa + 1
    assert after.sigma == before.sigma + 1
    assert after.beta == before.beta
    assert (after.delta, after.omega) == (before.delta, before.omega)


def test_normalize_two_offending_vertices():
    # two disjoint copies of the S-shape, each with its own pinch vertex
    c = build_complex(SurfaceSpec.named("rectangle", 8, 3))
    lab = np.ones((3, 8), dtype=int)
    for i, j in [(1, 0), (0, 0), (0, 1), (0, 2), (1, 2), (2, 2), (2, 1)]:
        lab[j, i] = 0
        lab[j, i + 4] = 2
    lab[:, 4:][lab[:, 4:] == 1] = 3
    p = from_labels(c, lab.ravel())
    assert not is_normal(p)
    before = invariants(p)
    q = normalize(p)
    assert is_normal(q)
    after = invariants(q)
    assert after.kappa == before.kappa + 2
    assert after.sigma == before.sigma + 2
    assert (after.delta, after.omega) == (before.delta, before.omega)


def test_normalize_classifications_well_defined():
    p = s_shape_partition()
    q = normalize(p)
    for rep in domain_reports(q):
        assert rep.normal
        if rep.orientable:
            assert rep.genus >= 0
        else:
            assert rep.crosscaps >= 1


GLUINGS = ("open", "periodic", "reversed")


def _normalize_corpus():
    """Arbitrary 2-4-labellings and 2-4-source flood fills on all nine gluing
    pairs, from 2x2 to 12x9."""
    rng = np.random.default_rng(2005)
    for xg, yg in itertools.product(GLUINGS, GLUINGS):
        for w, h in [(2, 2), (3, 2), (2, 3), (4, 3), (5, 4), (7, 5), (12, 9)]:
            c = build_complex(SurfaceSpec(w, h, xg, yg))
            for k in (2, 3, 4):
                for seed in range(3):
                    yield from_labels(c, rng.integers(0, k, w * h))
                    yield random_partition(c, RandomSpec(seed=seed, k=k))


def test_normalize_corpus_splits_off_one_disk_per_offending_vertex():
    done = 0
    for p in _normalize_corpus():
        if is_normal(p):
            continue
        fine = refine(p)
        pinched = np.unique(closure_tables(fine).non_normal_pairs[:, 0])
        # a surface boundary vertex meets at most two faces, so it never offends
        assert not fine.complex.vertex_is_boundary[pinched].any()
        before = invariants(p)
        q = normalize(p)
        after = invariants(q)
        assert is_normal(q)
        assert (after.delta, after.omega, after.beta) == (before.delta, before.omega, before.beta)
        assert after.kappa == before.kappa + len(pinched)
        assert after.sigma == before.sigma + len(pinched)
        done += 1
    assert done >= 200


def test_normalize_rejects_walls():
    c = build_complex(SurfaceSpec.named("rectangle", 4, 4))
    p = from_labels(c, np.zeros(16, dtype=int), walls=())
    p2 = cut(plan_cut(p, [c.vertical_edge(2, 0), c.vertical_edge(2, 1),
                          c.vertical_edge(2, 2), c.vertical_edge(2, 3)]))
    with pytest.raises(ValueError):
        normalize(p2)


def test_refine_preserves_invariants():
    rng = np.random.default_rng(3)
    for name in ("rectangle", "moebius", "klein"):
        c = build_complex(SurfaceSpec.named(name, 4, 4))
        p = from_labels(c, rng.integers(0, 3, 16))
        r, r3 = invariants(p), invariants(refine(p))
        assert r.key() == r3.key()


# -- cut ---------------------------------------------------------------------


def test_crosswise_cut_of_moebius_band():
    c = build_complex(SurfaceSpec.named("moebius", 6, 6))
    p = from_labels(c, np.zeros(36, dtype=int))
    path = [c.horizontal_edge(i, 3) for i in range(6)]
    planned = plan_cut(p, path)
    assert planned.edges == tuple(path)
    assert planned.n_crossings == 0
    # an open path from the surface boundary to the surface boundary
    verts, counts, _ = _simple_path(c, path)
    ends = verts[counts == 1]
    assert ends.size == 2 and c.vertex_is_boundary[ends].all()
    q = cut(planned)
    r = invariants(q)
    # the band opens into a rectangle: still one domain, now orientable
    assert r.key() == (1, 0, 1, 0)
    assert r.delta == invariants(p).delta


def test_cut_with_transversal_crossings():
    n = 12
    c = build_complex(SurfaceSpec.named("moebius", n, n))
    x = (np.arange(n) + 0.5) * math.pi / n
    p = from_labels(c, np.tile((np.sin(3 * x) > 0).astype(int), (n, 1)).ravel())
    path = [c.horizontal_edge(i, 6) for i in range(n)]
    planned = plan_cut(p, path)
    assert planned.n_crossings == 2
    q = cut(planned)
    assert invariants(q).delta == invariants(p).delta


def test_cut_joining_two_boundary_circles():
    c = build_complex(SurfaceSpec.named("rectangle", 8, 8))
    lab = np.zeros((8, 8), dtype=int)
    lab[2:6, 2:6] = 1
    p = from_labels(c, lab.ravel())
    before = invariants(p)
    assert before.beta == 1
    q = cut(plan_cut(p, [c.vertical_edge(4, 6), c.vertical_edge(4, 7)]))
    after = invariants(q)
    assert after.beta == before.beta - 1
    assert after.sigma == before.sigma + 1
    assert after.kappa == before.kappa
    assert after.delta == before.delta


def test_closed_cycle_cut():
    c = build_complex(SurfaceSpec.named("rectangle", 6, 6))
    p = from_labels(c, np.zeros(36, dtype=int))
    cyc = ([c.horizontal_edge(i, 2) for i in (2, 3)]
           + [c.vertical_edge(4, j) for j in (2, 3)]
           + [c.horizontal_edge(i, 4) for i in (3, 2)]
           + [c.vertical_edge(2, j) for j in (3, 2)])
    planned = plan_cut(p, cyc)
    assert planned.edges == tuple(cyc) and planned.n_crossings == 0
    assert (_simple_path(c, cyc)[1] == 2).all()
    q = cut(planned)
    r = invariants(q)
    assert r.key() == (2, 1, 0, 0)
    assert r.delta == invariants(p).delta


def test_cut_rejects_dangling_path():
    c = build_complex(SurfaceSpec.named("rectangle", 6, 6))
    p = from_labels(c, np.zeros(36, dtype=int))
    with pytest.raises(CutError, match=r"path endpoint \d+ is neither on the surface boundary nor on "
                                       r"the boundary set \(dangling crack\)"):
        plan_cut(p, [c.vertical_edge(3, 2)])  # both ends mid-surface


def test_cut_rejects_path_on_boundary_set():
    c = build_complex(SurfaceSpec.named("rectangle", 6, 6))
    lab = (np.arange(36) // 18).astype(int)
    p = from_labels(c, lab)
    wall_edge = int(p.boundary_set[0])
    with pytest.raises(CutError, match=f"^edge {wall_edge} runs along the existing boundary set$"):
        plan_cut(p, [wall_edge])


def test_cut_rejects_singular_touch():
    p = _pinwheel_partition()
    c = p.complex
    # vertical path through the central nu=4 vertex: every edge there is in
    # the boundary set, so the path runs along it before it reaches the vertex
    with pytest.raises(CutError, match=f"^edge {c.vertical_edge(3, 2)} runs along the existing boundary set$"):
        plan_cut(p, [c.vertical_edge(3, 2), c.vertical_edge(3, 3)])


def _pinwheel_partition():
    c = build_complex(SurfaceSpec.named("rectangle", 6, 6))
    lab = np.zeros((6, 6), dtype=int)
    lab[:3, :3], lab[:3, 3:], lab[3:, :3], lab[3:, 3:] = 0, 1, 2, 3
    return from_labels(c, lab.ravel())


def test_cut_rejects_corner_crossing():
    # boundary set turning a corner cannot be crossed transversally
    c = build_complex(SurfaceSpec.named("rectangle", 6, 6))
    lab = np.zeros((6, 6), dtype=int)
    lab[:2, :2] = 1
    p = from_labels(c, lab.ravel())
    corner = c.vertex_id(2, 2)  # the corner of the block
    # down from the top to the corner, then right to the side: the path takes
    # the two edges there that the boundary set leaves free
    path = [c.vertical_edge(2, j) for j in (5, 4, 3, 2)] + [c.horizontal_edge(i, 2) for i in (2, 3, 4, 5)]
    with pytest.raises(CutError, match=f"^boundary set turns a corner at vertex {corner}; "
                                       f"crossing is not transversal$"):
        plan_cut(p, path)


def test_cut_requires_simple_path():
    c = build_complex(SurfaceSpec.named("rectangle", 6, 6))
    p = from_labels(c, np.zeros(36, dtype=int))
    with pytest.raises(CutError, match="^repeated edge in path$"):
        plan_cut(p, [c.horizontal_edge(1, 2), c.horizontal_edge(1, 2)])
    with pytest.raises(CutError, match=f"^edge {c.horizontal_edge(3, 2)} does not continue the path$"):
        plan_cut(p, [c.horizontal_edge(1, 2), c.horizontal_edge(3, 2)])


def _rejections():
    c = build_complex(SurfaceSpec.named("rectangle", 6, 6))
    h, v = c.horizontal_edge, c.vertical_edge
    blank = from_labels(c, np.zeros(36, dtype=int))
    walled = from_labels(c, np.zeros(36, dtype=int), walls=[v(3, j) for j in range(6)])
    # the left half against two right quarters: three domains meet at (3, 3)
    tee = np.zeros((6, 6), dtype=int)
    tee[:3, 3:], tee[3:, 3:] = 1, 2
    # a tail into a square: the walk comes back to (2, 1)
    loop = [h(1, 1), h(2, 1), v(3, 1), h(2, 2), v(2, 1)]
    return {
        "empty": (blank, [], "^empty edge list$"),
        "does-not-continue": (blank, [h(0, 2), h(1, 2), h(3, 2)], f"^edge {h(3, 2)} does not continue the path$"),
        "revisits-a-vertex": (blank, loop, "^path visits a vertex twice$"),
        "surface-boundary-edge": (blank, [h(0, 1), h(0, 0)], f"^edge {h(0, 0)} lies on the surface boundary$"),
        "existing-wall": (walled, [v(3, 2)], f"^edge {v(3, 2)} is already a wall$"),
        "singular-endpoint": (from_labels(c, tee.ravel()), [h(0, 3), h(1, 3), h(2, 3)],
                              f"^path endpoint {c.vertex_id(3, 3)} is a singular vertex$"),
    }


_REJECTIONS = _rejections()


@pytest.mark.parametrize("case", list(_REJECTIONS))
def test_plan_cut_names_the_rejected_branch(case):
    p, edges, message = _REJECTIONS[case]
    with pytest.raises(CutError, match=message):
        plan_cut(p, edges)


def test_plan_cut_rejects_a_path_through_a_singular_vertex(monkeypatch):
    # no preset path reaches this check, so the boundary graph is faked:
    # degree 3 at the middle vertex of a path across the blank rectangle
    from types import SimpleNamespace

    from eulerpart import partition

    c = build_complex(SurfaceSpec.named("rectangle", 6, 6))
    p = from_labels(c, np.zeros(36, dtype=int))
    degree = partition.boundary_graph(p).degree.copy()
    degree[c.vertex_id(3, 3)] = 3
    monkeypatch.setattr(partition, "boundary_graph", lambda q: SimpleNamespace(degree=degree))
    with pytest.raises(CutError, match=f"^path passes through singular vertex {c.vertex_id(3, 3)}$"):
        plan_cut(p, [c.horizontal_edge(i, 3) for i in range(6)])


def _walked_crossings(p, edges):
    """The crossings of an admissible cut path, or None: an ordered walk
    over Python sets, which shares no code with ``plan_cut``."""
    c = p.complex
    bset = set(p.boundary_set.tolist())
    ends = [tuple(int(v) for v in c.edge_vertices[e]) for e in edges]
    if not edges or len(set(edges)) < len(edges):
        return None
    if any(c.edge_is_boundary[e] or e in bset for e in edges):
        return None
    # walk from either end of the first edge; each edge must hold the vertex
    # the walk stands on
    for start in dict.fromkeys(ends[0]):
        seq = [start]
        for a, b in ends:
            if seq[-1] not in (a, b):
                break
            seq.append(b if seq[-1] == a else a)
        else:
            break
    else:
        return None
    closed = seq[0] == seq[-1]
    visited = seq[:-1] if closed else seq
    if len(set(visited)) < len(visited):
        return None
    at = {}
    for e in bset:
        for v in c.edge_vertices[e].tolist():
            at.setdefault(v, []).append(e)

    def singular(v):
        n = len(at.get(v, ()))
        return n >= 3 or (c.vertex_is_boundary[v] and n >= 1)

    crossings = 0
    for v in visited if closed else seq[1:-1]:
        if singular(v):
            return None
        if at.get(v):
            if sum(bool(c.edge_is_horizontal[e]) for e in at[v]) == 1:
                return None
            crossings += 1
    if not closed:
        for v in (seq[0], seq[-1]):
            if singular(v) or not (c.vertex_is_boundary[v] or at.get(v)):
                return None
    return crossings


@pytest.mark.parametrize("name", SURFACES)
def test_plan_cut_agrees_with_an_ordered_walk(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    accepted = rejected = 0
    for w, h in [(2, 2), (3, 2), (5, 7), (12, 9)]:
        c = build_complex(SurfaceSpec.named(name, w, h))
        interior = interior_edges(c)
        for k in (1, 3):
            p = random_partition(c, RandomSpec(seed=int(rng.integers(2 ** 32)), k=k))
            bset, _walls, by_vertex = _incidence(p)
            candidates = [rng.choice(c.n_edges, int(rng.integers(1, 7))).tolist() for _ in range(20)]
            for _ in range(30):
                walk = _walk(p, rng, bset, by_vertex, straight=bool(rng.integers(2)))
                if walk:
                    candidates += [walk, walk[::-1], np.roll(walk, int(rng.integers(len(walk)))).tolist(),
                                   rng.permutation(walk).tolist(), walk + [int(rng.choice(interior))]]
            for edges in candidates:
                expected = _walked_crossings(p, edges)
                try:
                    planned = plan_cut(p, edges)
                except CutError:
                    assert expected is None, edges
                    rejected += 1
                    continue
                assert expected == planned.n_crossings and planned.edges == tuple(edges), edges
                accepted += 1
    assert accepted >= 50 and rejected >= 200


def test_random_cuts_preserve_delta():
    rng = np.random.default_rng(99)
    done = 0
    for name in ("rectangle", "moebius"):
        c = build_complex(SurfaceSpec.named(name, 12, 12))
        for k in (1, 3, 5):
            p = random_partition(c, RandomSpec(seed=int(rng.integers(2 ** 32)), k=k))
            planned = random_admissible_cut(p, rng)
            if planned is None:
                continue
            q = cut(planned)
            assert invariants(q).delta == invariants(p).delta
            done += 1
    assert done >= 4


def test_normalize_random_partitions():
    rng = np.random.default_rng(17)
    for name in ("rectangle", "moebius"):
        c = build_complex(SurfaceSpec.named(name, 10, 10))
        for _ in range(10):
            p = from_labels(c, rng.integers(0, 3, 100))
            before = invariants(p)
            q = normalize(p)
            after = invariants(q)
            assert is_normal(q)
            assert (after.delta, after.omega) == (before.delta, before.omega)
            assert verify_euler(q).status == "pass"


def test_normalize_phi_fixture_classifications():
    # the two pinched nodal domains become genuine surfaces with boundary
    from eulerpart import phi_family, rasterize

    p = rasterize(phi_family(math.pi / 3, 0.4 * math.pi), "moebius", 60)
    pre = domain_reports(p)
    assert sum(not r.normal for r in pre) == 2
    q = normalize(p)
    post = domain_reports(q)
    assert all(r.normal for r in post)
    assert invariants(q).delta == invariants(p).delta


def test_digon_cut_along_the_core_circle():
    # on a 2-row moebius grid the core circle is two parallel edges; the
    # closed cut opens the band into a cylinder
    c = build_complex(SurfaceSpec.named("moebius", 4, 2))
    p = from_labels(c, np.zeros(8, dtype=int))
    digon = [c.vertical_edge(2, 0), c.vertical_edge(2, 1)]
    planned = plan_cut(p, digon)
    assert (_simple_path(c, digon)[1] == 2).all()
    q = cut(planned)
    r = invariants(q)
    assert r.key() == (1, 1, 0, 0)
    assert r.delta == invariants(p).delta
    rep = domain_reports(q)[0]
    assert (rep.chi, rep.boundary_circles, rep.genus) == (0, 2, 0)
