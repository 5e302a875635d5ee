import gc
import itertools
import math
import weakref

import numpy as np
import pytest

from eulerpart import (
    InvariantViolation,
    RandomSpec,
    SurfaceSpec,
    batch_verify,
    boundary_graph,
    build_complex,
    check_chi_sigma,
    domain_reports,
    double_cover,
    from_labels,
    invariants,
    is_normal,
    lift_partition,
    normalize,
    orientability_bits,
    random_partition,
    refine,
    verify_euler,
)
from eulerpart.complexes import (OPEN, PERIODIC, REVERSED, SURFACES, boundary_components, components,
                                 subgraph_component_count, touched_components)
from eulerpart.jsonio import verdict_to_json
from eulerpart.cover import preimage_component_counts
from eulerpart.partition import VERDICT_MODES, _slot_index, closure_tables

from cutgen import random_admissible_cut
from edgerows import interior_rows
from reference import RefSurface, ref_domains

#: (x_gluing, y_gluing) of the six presets and of the three transposed pairs
GLUING_PAIRS = {**{name: (s.x_gluing, s.y_gluing) for name, s in SURFACES.items()},
                "periodic-open": (PERIODIC, OPEN), "reversed-open": (REVERSED, OPEN),
                "reversed-periodic": (REVERSED, PERIODIC)}


def moebius_bands(m, n=12):
    """Sign partition of sin(m x) on an n x n moebius grid."""
    c = build_complex(SurfaceSpec.named("moebius", n, n))
    x = (np.arange(n) + 0.5) * math.pi / n
    labels = np.tile((np.sin(m * x) > 0).astype(int), (n, 1)).ravel()
    return from_labels(c, labels)


def rect_sin2x_sin3y(n=12):
    c = build_complex(SurfaceSpec.named("rectangle", n, n))
    t = (np.arange(n) + 0.5) * math.pi / n
    vals = np.sin(2 * t)[None, :] * np.sin(3 * t)[:, None]
    return from_labels(c, (vals > 0).astype(int).ravel())


# -- from_labels ------------------------------------------------------------


def test_single_label_single_domain():
    c = build_complex(SurfaceSpec.named("rectangle", 2, 2))
    p = from_labels(c, [0, 0, 0, 0])
    assert p.n_domains == 1


def test_diagonal_labels_resplit():
    # diagonal squares share no edge, so each becomes its own domain
    c = build_complex(SurfaceSpec.named("rectangle", 2, 2))
    p = from_labels(c, [0, 1, 1, 0])
    assert p.n_domains == 4


def test_domain_ids_scan_order():
    c = build_complex(SurfaceSpec.named("rectangle", 3, 2))
    p = from_labels(c, [7, 7, 3, 3, 3, 7])
    # domain 0 owns face 0; ids increase with the smallest face index
    assert p.domains[0] == 0
    firsts = [int(np.flatnonzero(p.domains == d)[0]) for d in range(p.n_domains)]
    assert firsts == sorted(firsts)


def test_moebius_bands3_two_domains():
    assert moebius_bands(3).n_domains == 2


def test_labels_must_be_total():
    c = build_complex(SurfaceSpec.named("rectangle", 2, 2))
    with pytest.raises(ValueError):
        from_labels(c, [0, 1, 2])


@pytest.mark.parametrize("labels", [[0.7, 0.2, 1.9, 1.1], ["1", "1", "0", "0"], [True, True, False, False]],
                         ids=["float", "string", "bool"])
def test_labels_must_be_integers(labels):
    # never truncated or parsed: [0.7, 0.2, 1.9, 1.1] must not become [0, 0, 1, 1]
    c = build_complex(SurfaceSpec.named("rectangle", 2, 2))
    with pytest.raises(ValueError, match="labels must be integers"):
        from_labels(c, labels)


def test_wide_labels_are_not_narrowed():
    # labels 0 and 2**32 agree in their low 32 bits; the two columns of a
    # 2x2 rectangle touch, so one domain would mean the labels were narrowed
    c = build_complex(SurfaceSpec.named("rectangle", 2, 2))
    p = from_labels(c, np.array([0, 2**32, 0, 2**32], dtype=np.int64))
    assert p.n_domains == 2 and p.domains.tolist() == [0, 1, 0, 1]


def test_partition_arrays_are_read_only():
    p = moebius_bands(3)
    for name in ("domains", "orientable", "boundary_set", "wall_mask"):
        arr = getattr(p, name)
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[-1]
    assert invariants(p).key() == (2, 1, 0, 1)


def _cached_arrays(p, cs):
    """``owner.name`` -> array of every array that ``p`` caches, with the
    counts of its lift through ``cs``."""
    invariants(p), p.wall_mask, closure_tables(p).non_normal_pairs  # fill the caches
    found = {}
    for owner, obj in (("p", p), ("boundary_graph", boundary_graph(p)), ("closure_tables", closure_tables(p))):
        found.update((f"{owner}.{k}", v) for k, v in vars(obj).items() if isinstance(v, np.ndarray))
    found["preimage_component_counts"] = preimage_component_counts(cs, p)
    return found


def test_every_array_a_partition_caches_is_read_only():
    c = build_complex(SurfaceSpec.named("moebius", 16, 16))
    p = random_partition(c, RandomSpec(1, 4))
    arrays = _cached_arrays(p, double_cover(c))
    assert sorted(arrays) == sorted(
        [f"p.{k}" for k in ("domains", "orientable", "boundary_set", "faces_per_domain", "wall_mask")]
        + [f"boundary_graph.{k}" for k in ("degree", "union_vertices", "union_labels",
                                            "singular_interior", "singular_boundary")]
        + [f"closure_tables.{k}" for k in ("chi", "boundary_cycles", "_end_keys", "non_normal_pairs")]
        + ["preimage_component_counts"]
    )
    for what, a in arrays.items():
        assert not a.flags.writeable, what
    # a write would corrupt every later report of the shared partition
    with pytest.raises(ValueError, match="read-only"):
        closure_tables(p).chi[0] += 4
    assert len(domain_reports(p)) == p.n_domains


def test_walls_are_checked_in_increasing_order():
    # edges 0 and 64 of a rectangle 8x8 both lie on the surface boundary;
    # either order names the smaller
    c = build_complex(SurfaceSpec.named("rectangle", 8, 8))
    for walls in ([0, 64], [64, 0], c.boundary_edges[::-1].tolist()):
        with pytest.raises(ValueError, match="^wall edge 0 lies on the surface boundary$"):
            from_labels(c, np.zeros(64, dtype=int), walls=walls)


def test_wall_ids_validated():
    c = build_complex(SurfaceSpec.named("rectangle", 3, 3))
    boundary_edge = int(c.boundary_edges[0])
    with pytest.raises(ValueError):
        from_labels(c, np.zeros(9, dtype=int), walls=[boundary_edge])
    with pytest.raises(ValueError):
        from_labels(c, np.zeros(9, dtype=int), walls=[10 ** 6])


def test_dangling_wall_rejected():
    c = build_complex(SurfaceSpec.named("rectangle", 4, 4))
    # single interior edge ending mid-surface on both sides: malformed input
    lone = c.vertical_edge(2, 1)
    with pytest.raises(ValueError, match=f"wall edge {lone} has a dangling end at interior vertex"):
        from_labels(c, np.zeros(16, dtype=int), walls=[lone])
    # a wall that meets a domain change at one end still dangles at the other
    labels = np.zeros(16, dtype=int)
    labels[:8] = 1
    stub = c.vertical_edge(2, 2)
    with pytest.raises(ValueError, match=f"wall edge {stub} has a dangling end"):
        from_labels(c, labels, walls=[stub])
    # one wall of a path whose other end dangles names only that end
    path = [c.vertical_edge(2, 0), c.vertical_edge(2, 1)]
    with pytest.raises(ValueError, match=f"wall edge {path[1]} has a dangling end"):
        from_labels(c, np.zeros(16, dtype=int), walls=path)


def test_boundary_graph_keeps_its_dangling_end_check():
    # the internal check behind from_labels' wall check, on a boundary set
    # that no labelling gives
    import dataclasses

    from eulerpart.partition import _compute_boundary_graph

    c = build_complex(SurfaceSpec.named("rectangle", 4, 4))
    p = from_labels(c, np.zeros(16, dtype=int))
    lone = np.array([c.vertical_edge(2, 1)], dtype=np.int32)
    with pytest.raises(InvariantViolation, match="dangling ends at interior vertices"):
        _compute_boundary_graph(dataclasses.replace(p, boundary_set=lone))


# -- boundary graph ---------------------------------------------------------


def test_one_domain_boundary_graph_empty():
    c = build_complex(SurfaceSpec.named("moebius", 4, 4))
    p = from_labels(c, np.zeros(16, dtype=int))
    bg = boundary_graph(p)
    assert len(p.boundary_set) == 0
    assert bg.sigma == 0
    assert not bg.singular_interior.size and not bg.singular_boundary.size


def test_rect_sin2x_sin3y_singular_census():
    bg = boundary_graph(rect_sin2x_sin3y())
    assert sorted(bg.degree[bg.singular_interior].tolist()) == [4, 4]
    assert len(bg.singular_boundary) == 6
    assert np.all(bg.degree[bg.singular_boundary] == 1)
    assert bg.sigma == 5


def test_interior_nu_in_range():
    rng = np.random.default_rng(5)
    c = build_complex(SurfaceSpec.named("klein", 6, 6))
    for _ in range(50):
        p = from_labels(c, rng.integers(0, 4, 36))
        bg = boundary_graph(p)
        touched = bg.degree > 0
        assert np.all(np.isin(bg.degree[touched & ~c.vertex_is_boundary], (2, 3, 4)))
        assert np.all(bg.degree[touched & c.vertex_is_boundary] == 1)


# -- invariants -------------------------------------------------------------


def test_bands3_invariants():
    r = invariants(moebius_bands(3))
    assert r.key() == (2, 1, 0, 1)
    assert r.delta == 0


def test_bands5_invariants():
    r = invariants(moebius_bands(5, n=20))
    assert r.key() == (3, 2, 0, 1)
    assert r.delta == 0


def test_rect_sin2x_sin3y_invariants():
    r = invariants(rect_sin2x_sin3y())
    assert r.key() == (6, 0, 5, 0)
    assert r.defect == 1


def test_omega_zero_on_orientable_surfaces():
    rng = np.random.default_rng(11)
    for name in ("rectangle", "cylinder", "torus"):
        c = build_complex(SurfaceSpec.named(name, 6, 6))
        for _ in range(25):
            assert invariants(from_labels(c, rng.integers(0, 3, 36))).omega == 0


def test_beta_interior_on_bands():
    r = invariants(moebius_bands(3))
    assert r.beta_interior == 1
    r5 = invariants(moebius_bands(5, n=20))
    assert r5.beta_interior == 2


# -- verdicts ---------------------------------------------------------------


def test_verify_rectangle_one_domain():
    c = build_complex(SurfaceSpec.named("rectangle", 3, 3))
    v = verify_euler(from_labels(c, np.zeros(9, dtype=int)))
    assert v.status == "pass" and v.measured_defect == 1


def test_verify_moebius_bands3():
    v = verify_euler(moebius_bands(3))
    assert v.status == "pass" and v.measured_defect == 0


def test_torus_two_parallel_circles_report_only():
    c = build_complex(SurfaceSpec.named("torus", 6, 6))
    labels = np.zeros((6, 6), dtype=int)
    labels[3:, :] = 1
    v = verify_euler(from_labels(c, labels.ravel()))
    assert v.status == "report_only"
    assert v.report.key() == (2, 2, 0, 0)
    assert v.measured_defect == 0


def test_projective_and_klein_always_conjecture():
    for name in ("projective", "klein"):
        c = build_complex(SurfaceSpec.named(name, 4, 4))
        v = verify_euler(from_labels(c, np.zeros(16, dtype=int)))
        assert v.status == "conjecture"


# -- domain reports ---------------------------------------------------------


def test_bands3_domain_classification():
    p = moebius_bands(3)
    reports = domain_reports(p)
    bands = [r for r in reports if not r.orientable]
    cyls = [r for r in reports if r.orientable]
    assert len(bands) == 1 and len(cyls) == 1
    band, cyl = bands[0], cyls[0]
    assert (band.chi, band.boundary_circles, band.crosscaps) == (0, 1, 1)
    assert (cyl.chi, cyl.boundary_circles, cyl.genus) == (0, 2, 0)
    assert band.classification == "S(1,1,1)"
    assert cyl.classification == "S(0,0,2)"


def test_bands5_has_two_cylinders():
    reports = domain_reports(moebius_bands(5, n=20))
    cyls = [r for r in reports if r.orientable]
    assert len(cyls) == 2
    assert all((r.genus, r.boundary_circles) == (0, 2) for r in cyls)


def test_moebius_domain_genus_and_crosscap_bounds():
    rng = np.random.default_rng(21)
    c = build_complex(SurfaceSpec.named("moebius", 8, 8))
    for _ in range(40):
        p = from_labels(c, rng.integers(0, 4, 64))
        for r in domain_reports(p):
            if r.orientable:
                assert r.genus == 0
            else:
                assert r.crosscaps == 1


def test_domain_report_matches_domain_reports():
    c = build_complex(SurfaceSpec.named("moebius", 8, 8))
    seen = []
    for seed in range(30):
        # two labels give pinched, non-normal and non-orientable domains
        p = from_labels(c, np.random.default_rng(seed).integers(0, 2, 64))
        reports = domain_reports(p)
        # each report carries its domain's own face count, orientability and normality
        assert [r.domain for r in reports] == list(range(p.n_domains))
        assert [r.n_faces for r in reports] == np.bincount(p.domains).tolist()
        assert [r.orientable for r in reports] == orientability_bits(p).tolist()
        assert all(r.normal for r in reports) == is_normal(p)
        seen += reports
    assert not all(r.normal for r in seen) and not all(r.orientable for r in seen)


def test_whole_surface_closure_chi():
    for name in ("rectangle", "moebius", "torus", "klein", "projective", "cylinder"):
        c = build_complex(SurfaceSpec.named(name, 4, 4))
        p = from_labels(c, np.zeros(16, dtype=int))
        rep = domain_reports(p)[0]
        assert rep.chi == c.euler_characteristic


# -- chi-sigma identity -----------------------------------------------------


def test_chi_sigma_rect_fixture():
    r = check_chi_sigma(rect_sin2x_sin3y())
    assert (r.lhs, r.rhs, r.holds) == (6, 6, True)
    assert r.domain_chis == (1, 1, 1, 1, 1, 1)


def test_chi_sigma_bands3():
    r = check_chi_sigma(moebius_bands(3))
    assert r.holds and r.lhs == 0


def test_chi_sigma_one_domain_moebius():
    c = build_complex(SurfaceSpec.named("moebius", 4, 4))
    r = check_chi_sigma(from_labels(c, np.zeros(16, dtype=int)))
    assert r.holds and r.lhs == 0 and r.domain_chis == (0,)


def test_chi_sigma_rejects_walls():
    c = build_complex(SurfaceSpec.named("rectangle", 4, 4))
    p = from_labels(c, np.arange(16) // 4, walls=())
    assert check_chi_sigma(p).holds
    from eulerpart import cut, plan_cut

    p2 = cut(plan_cut(p, [c.vertical_edge(2, 0)]))
    with pytest.raises(ValueError):
        check_chi_sigma(p2)


def test_closure_tables_do_not_keep_partition_alive():
    # the cached closure tables must not point back at their partition, or
    # every partition with domain reports lives until a cyclic collection
    gc.disable()
    try:
        p = moebius_bands(3)
        domain_reports(p)
        ref = weakref.ref(p)
        del p
        assert ref() is None
    finally:
        gc.enable()


# -- boundary-local closure tables against the full slot graph ---------------


def _slot_graph_closure(p):
    """The closure route that the boundary-local tables replaced: corner
    orbits are components of the full 4F corner-slot graph, matched across
    every glued edge of the partition, and boundary cycles chain the orbits
    along every unglued side."""
    c = p.complex
    fa, fb, _, ids = interior_rows(c)
    keep = (p.domains[fa] == p.domains[fb]) & ~p.wall_mask[ids]
    ga, gb, glued = fa[keep], fb[keep], ids[keep]
    sa = c.edge_sides[glued, 0]
    sb = c.edge_sides[glued, 1]
    fv = c.slot_vertices(np.arange(4 * c.n_faces)).reshape(c.n_faces, 4)
    ca, cb = sa, (sa + 1) % 4
    da, db = sb, (sb + 1) % 4
    straight = fv[ga, ca] == fv[gb, da]
    pair_a = 4 * gb + np.where(straight, da, db)
    pair_b = 4 * gb + np.where(straight, db, da)
    n_orbits, slot_orbit = components(
        4 * c.n_faces,
        np.concatenate([4 * ga + ca, 4 * ga + cb]),
        np.concatenate([pair_a, pair_b]),
    )
    dom, n = p.domains, p.n_domains
    orbit_vertex = np.empty(n_orbits, dtype=np.int64)
    orbit_vertex[slot_orbit] = fv.ravel()
    orbit_domain = np.empty(n_orbits, dtype=np.int64)
    orbit_domain[slot_orbit] = np.repeat(dom, 4)

    glued_side = np.zeros(4 * c.n_faces, dtype=bool)
    glued_side[4 * ga + sa] = True
    glued_side[4 * gb + sb] = True
    bf, bs = np.divmod(np.flatnonzero(~glued_side), 4)
    end_a = slot_orbit[4 * bf + bs]
    n_cyc, cyc = components(n_orbits, end_a, slot_orbit[4 * bf + (bs + 1) % 4])
    on_side = np.zeros(n_cyc, dtype=bool)
    on_side[cyc[end_a]] = True
    cycle_domain = np.empty(n_cyc, dtype=np.int64)
    cycle_domain[cyc] = orbit_domain

    keys, counts = np.unique(orbit_vertex * n + orbit_domain, return_counts=True)
    return {
        "faces": np.bincount(dom, minlength=n),
        "glued": np.bincount(dom[ga], minlength=n),
        "vertices": np.bincount(orbit_domain, minlength=n),
        "cycles": np.bincount(cycle_domain[on_side], minlength=n),
        "non_normal": np.stack(np.divmod(keys[counts > 1], n), axis=1),
    }


def _slot_graph_chi(want):
    """V - E + F of the slot graph's closure, with E = 4F - (glued edges)."""
    return want["vertices"] - (4 * want["faces"] - want["glued"]) + want["faces"]


def _labelling_corpus(name, size):
    """(complex, labels, walls): the constant labelling, seeded arbitrary
    labellings (pinched, non-normal and multiply connected domains occur)
    and flood-filled ones, each followed by walls along admissible cut
    paths, and the single domain walled along every reversed seam and
    along every glued seam, where that is a valid partition.  ``name`` is
    a preset or one of the transposed gluing pairs."""
    c = build_complex(SurfaceSpec(*size, *GLUING_PAIRS[name]))
    zeros = np.zeros(c.n_faces, dtype=np.int64)
    yield c, zeros, frozenset()
    for seed in range(18):
        rng = np.random.default_rng(seed)
        if seed < 12:
            labels = rng.integers(0, 1 + seed % 5, size=c.n_faces)
        else:
            labels = random_partition(c, RandomSpec(seed=seed, k=min(seed - 10, c.n_faces))).domains
        yield c, labels, frozenset()
        # walled partitions: promote admissible cut paths to walls (without
        # cut's delta check, which holds only on some surfaces)
        p = from_labels(c, labels)
        for _ in range(2):
            path = random_admissible_cut(p, rng)
            if path is None:
                break
            walls = p.walls | set(path.edges)
            yield c, p.domains, walls
            p = from_labels(c, p.domains, walls=walls)
    _sa, _sb, par, ids = c.seam_adjacency
    for seam in (ids[par < 0], ids):
        if seam.size:
            try:
                from_labels(c, zeros, walls=seam)
            except ValueError:
                continue  # the seam edges leave dangling ends
            yield c, zeros, frozenset(seam.tolist())


def _closure_corpus(name, size):
    for c, labels, walls in _labelling_corpus(name, size):
        yield from_labels(c, labels, walls=walls)


@pytest.mark.parametrize("name", SURFACES)
def test_boundary_set_is_strictly_increasing(name):
    for size in [(2, 2), (3, 2), (7, 5)]:
        for c, labels, walls in _labelling_corpus(name, size):
            ids = from_labels(c, labels, walls=walls).boundary_set
            assert np.all(np.diff(ids) > 0), (name, size)


@pytest.mark.parametrize("name", SURFACES)
@pytest.mark.parametrize("size", [(2, 2), (3, 2), (7, 5), (32, 32)])
def test_closure_tables_match_slot_graph(name, size):
    n_walled = 0
    for p in _closure_corpus(name, size):
        n_walled += bool(p.walls)
        got = closure_tables(p)
        want = _slot_graph_closure(p)
        assert np.array_equal(p.faces_per_domain, want["faces"])
        assert np.array_equal(got.chi, _slot_graph_chi(want))
        assert np.array_equal(got.boundary_cycles, want["cycles"])
        assert np.array_equal(got.non_normal_pairs, want["non_normal"])
    if size != (2, 2):
        assert n_walled > 0


@pytest.mark.parametrize("name", SURFACES)
@pytest.mark.parametrize("size", [(2, 2), (3, 2), (7, 5), (12, 9)])
def test_closure_reads_the_boundary_set_not_every_slot_and_vertex(name, size):
    # the touched slots from the unglued sides and one partner round, against
    # a scan of every corner slot; chi, from the corner curvature at the
    # touched slots and the untouched odd vertices, against V - E + F with
    # the abstract vertices counted as the unglued sides plus a scan of
    # every other vertex
    n_walled = 0
    for p in _closure_corpus(name, size):
        n_walled += bool(p.walls)
        c, n = p.complex, p.n_domains
        fv = c.slot_vertices(np.arange(4 * c.n_faces))
        touched = (boundary_graph(p).degree > 0) | c.vertex_is_boundary
        bset, bdy = p.boundary_set, c.boundary_edges
        f = np.concatenate([c.edge_faces[bset].ravel(), c.edge_faces[bdy, 0]])
        s = np.concatenate([c.edge_sides[bset].ravel(), c.edge_sides[bdy, 0]])
        ends = np.concatenate([4 * f + s, 4 * f + (s + 1) % 4])
        slots, index = _slot_index(4 * c.n_faces, np.concatenate([ends, c.slot_partners[ends].ravel()]))
        assert np.array_equal(np.sort(slots), np.flatnonzero(touched[fv]))
        assert np.array_equal(index[slots], np.arange(len(slots)))
        one_slot = np.empty(c.n_vertices, dtype=np.int64)
        one_slot[fv] = np.arange(4 * c.n_faces)
        scan = np.bincount(p.domains[f], minlength=n)
        scan += np.bincount(p.domains[one_slot[~touched] // 4], minlength=n)
        faces = np.bincount(p.domains, minlength=n)
        edges = (4 * faces + np.bincount(p.domains[f], minlength=n)) // 2
        assert np.array_equal(closure_tables(p).chi, scan - edges + faces)
    if size != (2, 2):
        assert n_walled > 0


@pytest.mark.parametrize("name", SURFACES)
def test_closure_labels_its_slots_once(name, monkeypatch):
    # one components call gives the boundary cycles, on a partition with
    # walls and on one without
    from eulerpart import partition

    picked = {}
    for p in _closure_corpus(name, (7, 5)):
        if p.boundary_set.size:
            picked.setdefault(bool(p.walls), p)
    assert set(picked) == {False, True}
    calls = []
    monkeypatch.setattr(partition, "components", lambda *a: calls.append(a) or components(*a))
    for walled, p in picked.items():
        calls.clear()
        closure_tables(p)
        assert len(calls) == 1, walled


def test_closure_rejects_slots_that_do_not_fill_whole_vertices():
    import dataclasses

    # a copy of a projective plane whose odd-vertex table misses one of the
    # two corner vertices of two slots, the only odd vertices off the
    # surface boundary: the untouched slots of the one domain no longer
    # divide by four
    c = dataclasses.replace(build_complex(SurfaceSpec.named("projective", 4, 3)))
    odd, odd_slot, odd_count = c.odd_vertices
    keep = np.arange(len(odd)) != np.flatnonzero(odd_count == 2)[0]
    c.__dict__["odd_vertices"] = (odd[keep], odd_slot[keep], odd_count[keep])
    p = from_labels(c, np.zeros(c.n_faces, dtype=np.int64))
    with pytest.raises(InvariantViolation, match="do not fill whole vertices"):
        closure_tables(p)


@pytest.mark.parametrize("name", SURFACES)
def test_one_domain_closure_is_the_whole_surface(name):
    # the closure of the one domain is the surface itself; the projective
    # plane has no unglued side, so its chi of 1 comes only from its two
    # untouched cone points of two corner slots each
    for size in [(2, 2), (3, 2), (7, 5), (12, 9)]:
        c = build_complex(SurfaceSpec.named(name, *size))
        p = from_labels(c, np.zeros(c.n_faces, dtype=np.int64))
        tables = closure_tables(p)
        assert tables.chi.tolist() == [SURFACES[name].chi], size
        assert tables.boundary_cycles.tolist() == [SURFACES[name].boundary_circles], size
        if name == "projective":
            assert p.boundary_set.size == 0 and c.boundary_edges.size == 0
            assert c.odd_vertices[2].tolist() == [2, 2]


@pytest.mark.parametrize("band,shift,kind", [
    ("outer", 1, "an orientable"), ("outer", -1, "an orientable"), ("core", 1, "a non-orientable"),
], ids=["orientable-negative", "orientable-odd", "non-orientable"])
def test_domain_reports_name_the_first_domain_that_fits_no_surface(band, shift, kind, monkeypatch):
    # three bands on the moebius strip: an orientable outer band (chi 0,
    # q 2) and the non-orientable core band (chi 0, q 1); a closure chi
    # moved by one leaves 2 - q - chi negative or odd on the outer band and
    # below one on the core band
    p = moebius_bands(3)
    d = int(np.flatnonzero(p.orientable == (band == "outer"))[0])
    tables = closure_tables(p)
    chi = tables.chi.copy()
    chi[d] += shift
    monkeypatch.setattr(tables, "chi", chi)
    q = int(tables.boundary_cycles[d])
    with pytest.raises(InvariantViolation, match=f"^domain {d}: chi={chi[d]}, q={q} not {kind} surface$"):
        domain_reports(p)


@pytest.mark.parametrize("name", SURFACES)
@pytest.mark.parametrize("size", [(2, 2), (3, 2), (7, 5)])
def test_closure_index_check_catches_a_dropped_partner_round(name, size, monkeypatch):
    # the closure indexes the unglued ends, then one round of their
    # partners, as the two halves of one array; with the round dropped,
    # the scratch index holds garbage at the partners it skipped, and the
    # closure must either find every glued partner among the ends anyway
    # and count right, or raise, never miscount or read out of range
    from eulerpart import partition

    real = partition._slot_index
    monkeypatch.setattr(partition, "_slot_index", lambda n, slots: real(n, slots[: len(slots) // 2]))
    raised = checked = 0
    for p in _closure_corpus(name, size):
        want = _slot_graph_closure(p)
        try:
            got = partition._ClosureTables(p)
        except InvariantViolation as e:
            assert "lies off the touched slots" in str(e)
            raised += 1
            continue
        checked += 1
        assert np.array_equal(got.chi, _slot_graph_chi(want))
        assert np.array_equal(got.boundary_cycles, want["cycles"])
        assert np.array_equal(got.non_normal_pairs, want["non_normal"])
    assert checked  # the single domain of a closed surface has no unglued end
    if (name, size) == ("moebius", (7, 5)):
        assert raised
    # a slot over a vertex with two corner slots has one partner in both
    # columns; the index is written twice there and must still hold one entry
    sp = build_complex(SurfaceSpec.named(name, *size)).slot_partners
    assert np.any((sp[:, 0] == sp[:, 1]) & (sp[:, 0] >= 0)) == (name == "projective")


def _face_count_cases(name, size):
    """(partition, reference surface or None): the labelling corpus, walled
    partitions included, then the cover lifts of its first partitions where
    the surface has a double cover, and ``refine`` and ``normalize`` of its
    first wall-free ones.  Walled partitions get no reference, which knows
    no walls."""
    spec = SurfaceSpec(*size, *GLUING_PAIRS[name])
    ref = RefSurface(spec.width, spec.height, spec.x_gluing, spec.y_gluing)
    cs = double_cover(build_complex(spec)) if spec.kind in ("moebius", "klein") and spec.y_gluing == REVERSED else None
    cover_ref = cs and RefSurface(cs.cover.spec.width, cs.cover.spec.height, cs.cover.spec.x_gluing,
                                  cs.cover.spec.y_gluing)
    kinds = {}
    for k, p in enumerate(_closure_corpus(name, size)):
        yield p, None if p.walls else ref
        kinds["walled"] = kinds.get("walled", 0) + bool(p.walls)
        if cs is not None and k < 6:
            lifted = lift_partition(cs, from_labels(cs.base, p.domains, walls=p.walls))
            yield lifted, None if lifted.walls else cover_ref
            kinds["lift"] = True
        if not p.walls and k < 3:
            for q in (refine(p), normalize(p)):
                s = q.complex.spec
                yield q, RefSurface(s.width, s.height, s.x_gluing, s.y_gluing)
            kinds["refine"] = True
    assert kinds["refine"] and kinds.get("lift", cs is None) and (kinds["walled"] or size == (2, 2))


@pytest.mark.parametrize("name", list(GLUING_PAIRS))
@pytest.mark.parametrize("size", [(2, 2), (3, 2), (7, 5), (33, 17), (32, 32), (2, 3)])
def test_faces_per_domain_from_the_runs(name, size):
    # the face counts summed over the labelling's row runs, against a count
    # of every face and against the reference's domains
    for p, ref in _face_count_cases(name, size):
        faces = p.faces_per_domain
        assert not faces.flags.writeable
        assert faces.dtype == np.int64 and faces.shape == (p.n_domains,)
        assert np.array_equal(faces, np.bincount(p.domains, minlength=p.n_domains))
        if ref is not None:
            ref_domain, _bits = ref_domains(ref, p.domains.tolist())
            assert faces.tolist() == np.bincount(list(ref_domain.values())).tolist()


def _assert_reference_domains(c, labels):
    s = c.spec
    p = from_labels(c, labels)
    ref_domain, ref_bits = ref_domains(RefSurface(s.width, s.height, s.x_gluing, s.y_gluing), list(labels))
    assert p.domains.tolist() == [ref_domain[(i, j)] for j in range(s.height) for i in range(s.width)]
    assert orientability_bits(p).tolist() == ref_bits


@pytest.mark.parametrize("name", ["moebius", "klein", "projective"])
def test_sheet_labelling_gives_the_reference_domains(name):
    # on a surface with a reversed seam the domains are read off the sheet
    # labelling, by the dense rank of each piece's smaller sheet label;
    # every orientable domain of two or more pieces has two sheet
    # components, so raw sheet labels would leave gaps in the domain ids.
    # test_one_pass_labelling_matches_signed_double_graph checks the
    # labelling corpus against the reference; this adds every 2-labelling
    # of the 3x3 grid
    c = build_complex(SurfaceSpec.named(name, 3, 3))
    for bits in itertools.product((0, 1), repeat=8):
        _assert_reference_domains(c, [*bits, 0])


# -- one-pass domains and orientation against the signed double graph -------


def _signed_double_graph(c, labels, walls):
    """The labelling that the one-pass pieces replaced: domains are the
    components of faces glued across equal labels and non-wall interior
    edges, and each face has two sheets in a double graph over 2F nodes,
    where a glued edge joins equal sheets across parity +1 and opposite
    sheets across -1.  A domain is orientable iff no face meets its own
    other sheet.  Returns (domains, orientable bits)."""
    F = c.n_faces
    fa, fb, par, ids = interior_rows(c)
    wall = np.isin(ids, np.fromiter(walls, dtype=np.int64, count=len(walls)))
    glued = (labels[fa] == labels[fb]) & ~wall
    n, domains = components(F, fa[glued], fb[glued])
    a, b, par = fa[glued], fb[glued], par[glued]
    b = np.where(par > 0, b, b + F)
    _n, sheet = components(2 * F, np.concatenate([a, a + F]), np.concatenate([b, (b + F) % (2 * F)]))
    bits = np.ones(n, dtype=bool)
    bits[domains[sheet[:F] == sheet[F:]]] = False
    return domains, bits


def _gathered_boundary_set(c, domains, walls):
    """The boundary set as the edge gathers found it: every interior edge
    whose two faces lie in different domains, and every wall."""
    fa, fb, _par, ids = interior_rows(c)
    change = (domains[fa] != domains[fb]) | np.isin(ids, np.fromiter(walls, dtype=np.int64, count=len(walls)))
    return ids[change]


@pytest.mark.parametrize("name", list(GLUING_PAIRS))
@pytest.mark.parametrize("size", [(2, 2), (3, 2), (7, 5), (33, 17), (32, 32), (2, 3)])
def test_one_pass_labelling_matches_signed_double_graph(name, size):
    # the row-run labelling and the boundary set read from its masks,
    # against per-edge gathers over every interior edge
    spec = SurfaceSpec(*size, *GLUING_PAIRS[name])
    ref = RefSurface(spec.width, spec.height, spec.x_gluing, spec.y_gluing)
    faces = [(i, j) for j in range(spec.height) for i in range(spec.width)]
    seen_walled = seen_nonorientable = seen_reversed_wall = seen_seam_wall = False
    for c, labels, walls in _labelling_corpus(name, size):
        p = from_labels(c, labels, walls=walls)
        domains, bits = _signed_double_graph(c, labels, walls)
        assert p.n_domains == len(bits)
        assert np.array_equal(p.domains, domains)
        assert np.array_equal(orientability_bits(p), bits)
        assert np.array_equal(p.boundary_set, _gathered_boundary_set(c, domains, walls))
        if not walls:
            ref_domain, ref_bits = ref_domains(ref, labels.tolist())
            assert p.domains.tolist() == [ref_domain[f] for f in faces]
            assert bits.tolist() == ref_bits
        seen_walled |= bool(walls)
        seen_nonorientable |= not bits.all()
        seen_reversed_wall |= any(c.edge_parity[e] < 0 for e in walls)
        seen_seam_wall |= not walls.isdisjoint(c.seam_adjacency[3].tolist())
    if size != (2, 2):
        assert seen_walled
    # a wall on a reversed seam edge and a non-orientable domain both occur
    # wherever the surface has reversed seams, and a wall on a glued seam
    # wherever it has glued seams
    assert seen_nonorientable == seen_reversed_wall == (not spec.orientable)
    assert seen_seam_wall == (spec.kind != "rectangle")


def _two_labelling_beta(p):
    """beta and beta_interior as two edge labellings counted them: the
    boundary set united with the surface boundary for beta, and the
    boundary set alone for the components off the surface boundary."""
    c = p.complex
    ids = p.boundary_set
    beta = subgraph_component_count(c, np.concatenate([ids, c.boundary_edges])) - boundary_components(c)
    verts, comp = touched_components(c.n_vertices, c.edge_vertices[ids].T)
    return beta, len(np.setdiff1d(comp, comp[c.vertex_is_boundary[verts]]))


@pytest.mark.parametrize("name", SURFACES)
def test_beta_counts_match_two_labellings(name):
    for size in [(2, 2), (3, 2), (7, 5), (33, 17)]:
        for c, labels, walls in _labelling_corpus(name, size):
            p = from_labels(c, labels, walls=walls)
            r = invariants(p)
            assert (r.beta, r.beta_interior) == _two_labelling_beta(p)


def _dict_census(p):
    """The vertex census that the degree array replaced: a Python walk over
    the boundary-set edges counts each vertex's edges into ``nu`` (interior
    vertices) and ``rho`` (surface-boundary vertices), and the singular
    vertices are the ``(vertex, count)`` tuples with nu >= 3 or rho >= 1.
    Returns (nu, rho, singular_interior, singular_boundary, sigma)."""
    c = p.complex
    count = {}
    for e in p.boundary_set.tolist():
        for v in c.edge_vertices[e].tolist():
            count[v] = count.get(v, 0) + 1
    nu = {v: n for v, n in sorted(count.items()) if not c.vertex_is_boundary[v]}
    rho = {v: n for v, n in sorted(count.items()) if c.vertex_is_boundary[v]}
    sing_i = tuple((v, n) for v, n in nu.items() if n >= 3)
    sing_b = tuple(rho.items())
    index_sum = sum(n - 2 for _, n in sing_i) + sum(r for _, r in sing_b)
    assert index_sum % 2 == 0
    return nu, rho, sing_i, sing_b, index_sum // 2


@pytest.mark.parametrize("name", SURFACES)
def test_degree_census_matches_dict_census(name):
    seen_singular = False
    for size in [(2, 2), (3, 2), (7, 5), (33, 17)]:
        for c, labels, walls in _labelling_corpus(name, size):
            p = from_labels(c, labels, walls=walls)
            bg = boundary_graph(p)
            nu, rho, sing_i, sing_b, sigma = _dict_census(p)
            deg, on_bdy = bg.degree, c.vertex_is_boundary
            assert deg.shape == (c.n_vertices,) and not deg.flags.writeable
            touched = np.flatnonzero(deg).tolist()
            assert {v: int(deg[v]) for v in touched if not on_bdy[v]} == nu
            assert {v: int(deg[v]) for v in touched if on_bdy[v]} == rho
            assert tuple(zip(bg.singular_interior.tolist(), deg[bg.singular_interior].tolist())) == sing_i
            assert tuple(zip(bg.singular_boundary.tolist(), deg[bg.singular_boundary].tolist())) == sing_b
            assert bg.sigma == sigma
            seen_singular |= bool(sing_i)
    assert seen_singular


def _walked_union(p):
    """X, the boundary set united with the surface boundary, walked in
    Python: its vertices from a dict over ``edge_vertices`` and its
    components by a BFS over its edges.  Returns (sorted vertices, set of
    components as frozensets)."""
    c = p.complex
    adj = {}
    for e in p.boundary_set.tolist() + c.boundary_edges.tolist():
        a, b = c.edge_vertices[e].tolist()
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    comps, seen = set(), set()
    for v in sorted(adj):
        if v in seen:
            continue
        comp, queue = {v}, [v]
        while queue:
            for w in adj[queue.pop()] - comp:
                comp.add(w)
                queue.append(w)
        seen |= comp
        comps.add(frozenset(comp))
    return sorted(adj), comps


@pytest.mark.parametrize("name", list(GLUING_PAIRS))
def test_union_census_matches_a_walk_of_x(name):
    # the boundary graph's vertices and labels of X agree with a dict walk
    # and a BFS, on walled partitions and on cover lifts too
    import dataclasses

    coverable = name in ("moebius", "klein")
    n_lifts = 0
    for size in [(2, 2), (3, 2), (7, 5), (33, 17)]:
        cs = double_cover(build_complex(SurfaceSpec(*size, *GLUING_PAIRS[name]))) if coverable else None
        for c, labels, walls in _labelling_corpus(name, size):
            p = from_labels(c, labels, walls=walls)
            for q in (p, lift_partition(cs, p)) if cs else (p,):
                bg = boundary_graph(q)
                walked_verts, walked_comps = _walked_union(q)
                assert bg.union_vertices.tolist() == walked_verts
                groups = {}
                for v, k in zip(bg.union_vertices.tolist(), bg.union_labels.tolist()):
                    groups.setdefault(k, set()).add(v)
                assert {frozenset(g) for g in groups.values()} == walked_comps
                # components are numbered by their smallest vertex
                assert list(groups) == list(range(len(groups)))
                for f in dataclasses.fields(bg):
                    a = getattr(bg, f.name)
                    assert not isinstance(a, np.ndarray) or not a.flags.writeable, f.name
                n_lifts += q is not p
    assert bool(n_lifts) == coverable


def test_verdict_modes_cover_every_surface():
    assert sorted(VERDICT_MODES) == sorted(SURFACES)
    assert {mode for mode, _ in VERDICT_MODES.values()} == {"pass_fail", "conjecture", "report_only"}


@pytest.mark.parametrize("name", SURFACES)
def test_verify_euler_and_batch_verify_follow_the_mode_table(name):
    mode, expected = VERDICT_MODES[name]
    res = batch_verify(name, 4, seed=3, k_range=(1, 4), size=6)
    assert res.verdict_mode == mode
    c = build_complex(SurfaceSpec.named(name, 6, 6))
    for seed in range(4):
        v = verify_euler(random_partition(c, RandomSpec(seed=seed, k=1 + seed)))
        assert v.expected_defect == expected
        doc = verdict_to_json(v)
        assert doc["conjecture"] == (mode == "conjecture")
        assert doc["surface"] == name
        if mode == "pass_fail":
            assert v.status == ("pass" if v.measured_defect == expected else "fail")
        else:
            assert v.status == mode
        assert v.ok


# (measured defect, non-orientable domains) -> count over every 2-labelling
# with the last face fixed to 0; the README's conjecture statements quote these
CONJECTURE_CENSUS = {
    ("klein", 3, 3): {(-1, 0): 45, (-1, 1): 50, (0, 0): 57, (0, 1): 91, (0, 2): 13},
    ("klein", 4, 3): {(-1, 0): 395, (-1, 1): 640, (0, 0): 219, (0, 1): 625, (0, 2): 169},
    ("projective", 4, 3): {(0, 0): 825, (0, 1): 1223},
}


@pytest.mark.parametrize("name,W,H", sorted(CONJECTURE_CENSUS))
def test_conjecture_census_of_two_labellings(name, W, H):
    c = build_complex(SurfaceSpec.named(name, W, H))
    hist = {}
    for bits in itertools.product((0, 1), repeat=W * H - 1):
        p = from_labels(c, [*bits, 0])
        key = (verify_euler(p).measured_defect, int(np.sum(~orientability_bits(p))))
        hist[key] = hist.get(key, 0) + 1
    assert hist == CONJECTURE_CENSUS[name, W, H]
