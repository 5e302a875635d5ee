import numpy as np
import pytest

from eulerpart import (
    SURFACES,
    SurfaceSpec,
    boundary_components,
    build_complex,
)
from eulerpart.complexes import GLUINGS, OPEN, PERIODIC, REVERSED
from edgerows import interior_edges, interior_rows
from reference import RefSurface

ALL_SURFACES = sorted(SURFACES)
SIZES = [(2, 2), (3, 3), (4, 2), (2, 5), (6, 6), (5, 7)]
#: (x_gluing, y_gluing) of the six presets and of the three transposed pairs
GLUING_PAIRS = {**{name: (s.x_gluing, s.y_gluing) for name, s in SURFACES.items()},
                "periodic-open": (PERIODIC, OPEN), "reversed-open": (REVERSED, OPEN),
                "reversed-periodic": (REVERSED, PERIODIC)}


@pytest.mark.parametrize("name", ALL_SURFACES)
@pytest.mark.parametrize("size", SIZES)
def test_chi_table(name, size):
    c = build_complex(SurfaceSpec.named(name, *size))
    assert c.euler_characteristic == SURFACES[name].chi


@pytest.mark.parametrize("name", ALL_SURFACES)
@pytest.mark.parametrize("size", SIZES)
def test_boundary_component_table(name, size):
    c = build_complex(SurfaceSpec.named(name, *size))
    assert boundary_components(c) == SURFACES[name].boundary_circles


def test_rectangle_2x2_counts():
    c = build_complex(SurfaceSpec.named("rectangle", 2, 2))
    assert (c.n_vertices, c.n_edges, c.n_faces) == (9, 12, 4)


def test_moebius_boundary_is_one_cycle_of_2h_edges():
    for W, H in ((4, 6), (6, 6), (5, 3)):
        c = build_complex(SurfaceSpec.named("moebius", W, H))
        assert len(c.boundary_edges) == 2 * H
        assert boundary_components(c) == 1


def test_projective_4x4_closed():
    c = build_complex(SurfaceSpec.named("projective", 4, 4))
    assert c.euler_characteristic == 1
    assert len(c.boundary_edges) == 0


@pytest.mark.parametrize("name", ALL_SURFACES)
def test_edge_face_incidence(name):
    c = build_complex(SurfaceSpec.named(name, 5, 4))
    two_sided = c.edge_faces[:, 1] >= 0
    assert np.array_equal(two_sided, ~c.edge_is_boundary)
    # every face lists each of its edges exactly once
    for f in range(c.n_faces):
        for s in range(4):
            e = c.face_edges[f, s]
            slots = [(c.edge_faces[e, k], c.edge_sides[e, k]) for k in range(2)]
            assert (f, s) in slots


@pytest.mark.parametrize("name", ALL_SURFACES)
def test_parity_reverses_only_at_reversed_seams(name):
    spec = SurfaceSpec.named(name, 5, 4)
    c = build_complex(spec)
    n_reversed = int(np.sum(c.edge_parity == -1))
    expected = 0
    if spec.x_gluing == "reversed":
        expected += spec.height
    if spec.y_gluing == "reversed":
        expected += spec.width
    assert n_reversed == expected


@pytest.mark.parametrize("name", ALL_SURFACES)
def test_parity_product_around_interior_vertices(name):
    c = build_complex(SurfaceSpec.named(name, 6, 4))
    prod = np.ones(c.n_vertices, dtype=np.int64)
    ids = interior_edges(c)
    np.multiply.at(prod, c.edge_vertices[ids].ravel(), np.repeat(c.edge_parity[ids], 2))
    assert np.all(prod[~c.vertex_is_boundary] == 1)


def test_grid_helpers_roundtrip():
    c = build_complex(SurfaceSpec.named("moebius", 4, 4))
    # the reversed y-seam identifies top and bottom horizontal edges
    assert c.horizontal_edge(0, 4) == c.horizontal_edge(3, 0)
    assert c.vertex_id(0, 4) == c.vertex_id(4, 0)
    # face sides point at the right edges
    f = 2 * 4 + 1  # face (1, 2): row-major, j*W + i
    assert c.face_edges[f, 0] == c.horizontal_edge(1, 2)
    assert c.face_edges[f, 2] == c.horizontal_edge(1, 3)
    assert c.face_edges[f, 3] == c.vertical_edge(1, 2)
    assert c.face_edges[f, 1] == c.vertical_edge(2, 2)


@pytest.mark.parametrize("name", ALL_SURFACES)
def test_decoding_inverts_the_grid_helpers(name):
    # every raw edge and vertex decodes back to its grid coordinates, and
    # an orbit decodes to exactly its raw members
    W, H = 5, 4
    c = build_complex(SurfaceSpec.named(name, W, H))
    members = {}
    for i in range(W):
        for j in range(H + 1):
            members.setdefault(c.horizontal_edge(i, j), set()).add((i, j, i + 1, j))
    for i in range(W + 1):
        for j in range(H):
            members.setdefault(c.vertical_edge(i, j), set()).add((i, j, i, j + 1))
    for e, segs in members.items():
        assert {tuple(s) for s in c.edge_segments([e]).tolist()} == segs
    assert len(c.edge_segments(np.arange(c.n_edges))) == sum(map(len, members.values()))
    points = {}
    for i in range(W + 1):
        for j in range(H + 1):
            points.setdefault(c.vertex_id(i, j), []).append((i, j))
    for v, pts in points.items():
        assert [tuple(q) for q in c.vertex_points([v]).tolist()] == sorted(pts, key=lambda q: (q[1], q[0]))


def test_size_validation():
    with pytest.raises(ValueError):
        SurfaceSpec.named("rectangle", 1, 5)
    with pytest.raises(ValueError):
        SurfaceSpec.named("rectangle", 5, 1)
    with pytest.raises(ValueError):
        SurfaceSpec(3, 3, "open", "weird")
    with pytest.raises(ValueError):
        SurfaceSpec.named("sphere", 4, 4)


def test_kind_detection_is_order_free():
    assert SurfaceSpec(4, 4, "periodic", "open").kind == "cylinder"
    assert SurfaceSpec(4, 4, "reversed", "open").kind == "moebius"
    assert SurfaceSpec(4, 4, "reversed", "periodic").kind == "klein"


def test_spec_flags():
    assert SurfaceSpec.named("torus", 3, 3).orientable
    assert not SurfaceSpec.named("klein", 3, 3).orientable
    assert SurfaceSpec.named("klein", 3, 3).closed
    assert not SurfaceSpec.named("moebius", 4, 4).closed


def test_components_numbered_by_smallest_node():
    from eulerpart.complexes import components

    count, labels = components(6, [5, 1, 4], [3, 4, 1])
    assert count == 4
    assert labels.tolist() == [0, 1, 2, 3, 1, 3]
    count, labels = components(3, [], [])
    assert (count, labels.tolist()) == (3, [0, 1, 2])
    assert components(0, [], [])[0] == 0
    # the one-pass labelling numbers pieces by their smallest face and
    # domains by their smallest piece, so it relies on this numbering
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        m = int(rng.integers(0, 2 * n))
        # sparse graphs leave isolated nodes; about one edge in ten is a loop
        a = rng.integers(0, n, size=m)
        b = np.where(rng.random(m) < 0.1, a, rng.integers(0, n, size=m))
        count, labels = components(n, a, b)
        assert set(labels.tolist()) == set(range(count)), seed
        smallest = [int(np.flatnonzero(labels == k)[0]) for k in range(count)]
        assert smallest == sorted(smallest), seed
        # each label holds exactly the nodes reached from its smallest node
        for k, s in enumerate(smallest):
            reached, frontier = {s}, [s]
            while frontier:
                v = frontier.pop()
                for w in np.concatenate([b[a == v], a[b == v]]).tolist():
                    if w not in reached:
                        reached.add(w)
                        frontier.append(w)
            assert sorted(reached) == np.flatnonzero(labels == k).tolist(), seed


def _public_components(n, a, b):
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    g = coo_matrix((np.ones(len(a), dtype=bool), (a, b)), shape=(n, n))
    return connected_components(g, directed=False)


def test_components_matches_public_scipy():
    from eulerpart.complexes import ID_DTYPE, components

    for seed in range(200):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 80))
        m = int(rng.integers(0, 2 * n))
        # sparse graphs leave isolated nodes; about one edge in ten is a
        # loop, and edges are drawn with repeats
        a = rng.integers(0, n, size=m)
        b = np.where(rng.random(m) < 0.1, a, rng.integers(0, n, size=m))
        if m:
            a, b = np.concatenate([a, a[: m // 4]]), np.concatenate([b, b[: m // 4]])
        count, labels = components(n, a, b)
        want_count, want = _public_components(n, a, b)
        assert count == want_count, seed
        assert labels.dtype == ID_DTYPE and labels.tolist() == want.tolist(), seed


def test_components_matches_public_scipy_on_large_domain_graph():
    from eulerpart.complexes import components

    c = build_complex(SurfaceSpec.named("moebius", 512, 512))
    fa, fb, _par, _ids = interior_rows(c)
    labels = np.random.default_rng(3).integers(0, 3, size=c.n_faces)
    glued = labels[fa] == labels[fb]
    count, comp = components(c.n_faces, fa[glued], fb[glued])
    want_count, want = _public_components(c.n_faces, fa[glued], fb[glued])
    assert count == want_count > 1
    assert np.array_equal(comp, want)


def test_csr_grouping_matches_public_scipy():
    # the counting sort behind components, used as a grouping: values by
    # key, in input order within a key, as a stable argsort orders them;
    # the keys are even, so every odd group is empty
    from eulerpart.complexes import csr

    rng = np.random.default_rng(11)
    for n, m in [(0, 0), (1, 0), (6, 0), (1, 9), (9, 40), (301, 5000), (64, 100000)]:
        keys = (2 * rng.integers(0, (n + 1) // 2, size=m)).astype(np.int32)
        values = rng.integers(0, 2**31 - 1, size=m).astype(np.int32)
        ptr, grouped = csr(n, keys, values)
        assert ptr.dtype == grouped.dtype == np.int32
        assert grouped.tolist() == values[np.argsort(keys, kind="stable")].tolist()
        assert ptr.tolist() == [0, *np.cumsum(np.bincount(keys, minlength=n)).tolist()]
        assert all(ptr[g] == ptr[g + 1] for g in range(1, n, 2))


@pytest.mark.parametrize("n,a,b", [
    (4, np.array([0, -1]), np.array([1, 2])),
    (4, np.array([0, 1]), np.array([4, 2])),
    (4, np.array([0, 2**31 + 1], dtype=np.int64), np.array([1, 2])),
    (4, np.array([0.0, 1.0]), np.array([1.0, 2.0])),
], ids=["negative", "equal-to-n", "above-int32", "float"])
def test_components_rejects_out_of_range_endpoints(n, a, b):
    from eulerpart.complexes import components

    with pytest.raises(ValueError, match="endpoints"):
        components(n, a, b)
    with pytest.raises(ValueError, match="endpoints"):
        components(n, b, a)


def test_validate_rejects_flipped_parity():
    import dataclasses

    from eulerpart import InvariantViolation
    from eulerpart.complexes import _validate_complex

    c = build_complex(SurfaceSpec.named("moebius", 6, 4))
    interior_end = ~c.vertex_is_boundary[c.edge_vertices]
    ids = interior_edges(c)
    e = ids[np.any(interior_end[ids], axis=1)][0]
    parity = c.edge_parity.copy()
    parity[e] = -parity[e]
    with pytest.raises(InvariantViolation, match="parities inconsistent"):
        _validate_complex(dataclasses.replace(c, edge_parity=parity))


@pytest.mark.parametrize("name", ALL_SURFACES)
def test_slot_partners_pair_corners_over_one_vertex(name):
    c = build_complex(SurfaceSpec.named(name, 5, 4))
    partners = c.slot_partners
    fv = c.face_vertices.ravel()
    slots = np.arange(4 * c.n_faces)
    for col in (0, 1):
        has = partners[:, col] >= 0
        # matched slots lie over the same vertex and match back
        assert np.array_equal(fv[partners[has, col]], fv[slots[has]])
        assert np.all(np.any(partners[partners[has, col]] == slots[has, None], axis=1))
    # exactly the sides on the surface boundary have no partner
    f, corner = np.divmod(slots, 4)
    for col, side in ((0, corner), (1, (corner + 3) % 4)):
        assert np.array_equal(partners[:, col] < 0, c.edge_is_boundary[c.face_edges[f, side]])
    odd, odd_slot, _count = c.odd_vertices
    assert np.array_equal(fv[odd_slot], odd)


@pytest.mark.parametrize("name", list(GLUING_PAIRS))
@pytest.mark.parametrize("size", [(2, 2), (3, 2), (2, 3), (7, 5), (12, 9)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_odd_vertices_are_the_vertices_without_four_slots(size, name):
    c = build_complex(SurfaceSpec(*size, *GLUING_PAIRS[name]))
    count = np.bincount(c.face_vertices.ravel(), minlength=c.n_vertices)
    odd, odd_slot, odd_count = c.odd_vertices
    assert np.array_equal(odd, np.flatnonzero(count != 4))
    assert np.array_equal(odd_count, count[odd])
    assert np.array_equal(c.face_vertices.ravel()[odd_slot], odd)
    # the slots over a vertex form a cycle or a path of at most four
    assert count.max() == 4
    if c.spec.x_gluing == OPEN or c.spec.y_gluing == OPEN:
        assert odd.size  # a surface boundary has vertices of one or two slots


def test_slot_partners_reject_mismatched_corners(monkeypatch):
    import dataclasses

    from eulerpart import InvariantViolation
    from eulerpart.complexes import CellComplex

    fresh = CellComplex.slot_vertices

    def partners_with(c, face, corners):
        """``slot_partners`` of a copy of ``c`` whose corner slot reads
        give, at ``face``'s corner k, the vertex at its corner ``corners[k]``."""
        def slot_vertices(cx, slots):
            f = slots >> 2
            return fresh(cx, np.where(f == face, 4 * f + np.asarray(corners)[slots & 3], slots))

        monkeypatch.setattr(CellComplex, "slot_vertices", slot_vertices)
        return dataclasses.replace(c).slot_partners

    k = build_complex(SurfaceSpec.named("klein", 4, 4))
    want = k.slot_partners
    # a face on the reversed y-seam of a klein grid: face 1 lies in row 0
    with pytest.raises(InvariantViolation, match="corner matching"):
        partners_with(k, 1, [3, 0, 1, 2])
    # the SW corner of face 0 touches only its two seam sides, so only the
    # seam edges see it
    with pytest.raises(InvariantViolation, match="corner matching"):
        partners_with(k, 0, [2, 1, 2, 3])
    assert np.array_equal(partners_with(k, 0, [0, 1, 2, 3]), want)


def _per_edge_slot_partners(c):
    """The slot partners as the per-edge build found them: the two corners
    of every interior edge matched by underlying vertex."""
    ids = interior_edges(c)
    fa, fb = c.edge_faces[ids, 0], c.edge_faces[ids, 1]
    sa, sb = c.edge_sides[ids, 0], c.edge_sides[ids, 1]
    fv = c.face_vertices
    ca, cb = sa, (sa + 1) % 4
    da, db = sb, (sb + 1) % 4
    straight = fv[fa, ca] == fv[fb, da]
    assert np.all(np.where(straight, fv[fa, cb] == fv[fb, db],
                           (fv[fa, ca] == fv[fb, db]) & (fv[fa, cb] == fv[fb, da])))
    a0, a1 = 4 * fa + ca, 4 * fa + cb
    b0, b1 = 4 * fb + da, 4 * fb + db
    out = np.full((4 * c.n_faces, 2), -1, dtype=np.int64)
    out[a0, 0] = np.where(straight, b0, b1)
    out[a1, 1] = np.where(straight, b1, b0)
    out[b0, 0] = np.where(straight, a0, a1)
    out[b1, 1] = np.where(straight, a1, a0)
    return out


@pytest.mark.parametrize("gluings", [(gx, gy) for gx in GLUINGS for gy in GLUINGS],
                         ids=lambda g: "-".join(g))
@pytest.mark.parametrize("size", [(2, 2), (3, 2), (2, 3), (7, 5), (33, 17)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_grid_slot_partners_match_the_per_edge_build(size, gluings):
    c = build_complex(SurfaceSpec(*size, *gluings))
    assert np.array_equal(c.slot_partners, _per_edge_slot_partners(c))


@pytest.mark.parametrize("gluings", [(gx, gy) for gx in GLUINGS for gy in GLUINGS],
                         ids=lambda g: "-".join(g))
@pytest.mark.parametrize("size", [(2, 2), (3, 2), (2, 3), (7, 5), (33, 17)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_seam_adjacency_holds_the_glued_seam_edges(size, gluings):
    # the edges whose orbit holds a second raw edge, with their adjacency rows
    c = build_complex(SurfaceSpec(*size, *gluings))
    fa, fb, par, ids = interior_rows(c)
    seam = np.flatnonzero(c.edge_raw_representatives[:, 1] >= 0)
    rows = np.searchsorted(ids, seam)
    assert np.array_equal(ids[rows], seam)
    for got, want in zip(c.seam_adjacency, (fa[rows], fb[rows], par[rows], seam)):
        assert np.array_equal(got, want)


def test_build_complex_shares_one_complex_per_spec():
    spec = SurfaceSpec.named("klein", 7, 5)
    assert build_complex(spec) is build_complex(spec)
    assert build_complex(SurfaceSpec.named("klein", 7, 5)) is build_complex(spec)
    assert build_complex(SurfaceSpec.named("klein", 5, 7)) is not build_complex(spec)


def _arrays_and_tables(c):
    """Every array field, then every cached table, by name."""
    import dataclasses

    out = [(f.name, getattr(c, f.name)) for f in dataclasses.fields(c)
           if isinstance(getattr(c, f.name), np.ndarray)]
    out += [("face_edges", c.face_edges), ("face_vertices", c.face_vertices),
            ("boundary_edges", c.boundary_edges),
            ("slot_partners", c.slot_partners),
            ("edge_raw_representatives", c.edge_raw_representatives)]
    out += [(f"odd_vertices[{k}]", a) for k, a in enumerate(c.odd_vertices)]
    out += [(f"seam_adjacency[{k}]", a) for k, a in enumerate(c.seam_adjacency)]
    out += [("face_neighbours", c.face_neighbours), ("_seam_raw", c._seam_raw)]
    return out


@pytest.mark.parametrize("name", ALL_SURFACES)
def test_shared_complex_is_read_only(name):
    c = build_complex(SurfaceSpec.named(name, 5, 4))
    tables = _arrays_and_tables(c)
    assert len(tables) == 9 + 2 + 3 + 3 + 4 + 2
    for what, a in tables:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
        assert not a.flags.writeable, what


@pytest.mark.parametrize("name", ALL_SURFACES)
@pytest.mark.parametrize("size", [(2, 2), (7, 5), (6, 4)])
def test_shared_complex_equals_a_fresh_build(name, size):
    import dataclasses

    from eulerpart.complexes import _build_complex

    spec = SurfaceSpec.named(name, *size)
    shared, fresh = build_complex(spec), _build_complex(spec)
    assert fresh is not shared
    for f in dataclasses.fields(shared):
        a, b = getattr(shared, f.name), getattr(fresh, f.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), f.name
        else:
            assert a == b, f.name
    for (what, a), (_, b) in zip(_arrays_and_tables(shared), _arrays_and_tables(fresh)):
        assert a.dtype == b.dtype and np.array_equal(a, b), what
    assert boundary_components(shared) == boundary_components(fresh)


#: non-id arrays of a complex and its cached tables, by dtype; every other
#: array is an id table
_NON_ID_DTYPES = {
    "edge_sides": np.int8, "edge_parity": np.int8, "seam_adjacency[2]": np.int8, "odd_vertices[2]": np.int8,
    "edge_is_horizontal": np.bool_, "edge_is_boundary": np.bool_, "vertex_is_boundary": np.bool_,
}


@pytest.mark.parametrize("name", ALL_SURFACES)
def test_every_id_table_has_the_id_dtype(name):
    from eulerpart import RandomSpec, double_cover, random_partition
    from eulerpart.complexes import ID_DTYPE
    from eulerpart.cover import COVERABLE, lift_partition
    from eulerpart.partition import closure_tables

    c = build_complex(SurfaceSpec.named(name, 7, 6))
    tables = dict(_arrays_and_tables(c))
    for what in ("edge_vertices", "edge_faces", "face_edges", "face_vertices", "vertex_map",
                 "edge_map", "boundary_edges", "seam_adjacency[0]", "seam_adjacency[3]",
                 "slot_partners", "odd_vertices[0]", "odd_vertices[1]", "edge_raw_representatives",
                 "face_neighbours", "_seam_raw"):
        assert what in tables and what not in _NON_ID_DTYPES
    for what, a in tables.items():
        assert a.dtype == _NON_ID_DTYPES.get(what, ID_DTYPE), what
    p = random_partition(c, RandomSpec(seed=1, k=3))
    assert p.domains.dtype == p.boundary_set.dtype == ID_DTYPE
    # the (vertex, domain) key product reaches V * n_domains, beyond int32
    assert closure_tables(p)._end_keys.dtype == np.int64
    if name in COVERABLE:
        cs = double_cover(c)
        for a in (cs.edge_projection, lift_partition(cs, p).domains):
            assert a.dtype == ID_DTYPE


@pytest.mark.parametrize("field", ["edge_vertices", "edge_faces", "vertex_map", "edge_map", "edge_sides"])
def test_validate_rejects_wide_id_tables(field):
    import dataclasses

    from eulerpart import InvariantViolation
    from eulerpart.complexes import _validate_complex

    c = build_complex(SurfaceSpec.named("moebius", 6, 4))
    _validate_complex(c)
    wide = dataclasses.replace(c, **{field: getattr(c, field).astype(np.int64)})
    with pytest.raises(InvariantViolation, match=f"{field} holds int64"):
        _validate_complex(wide)


@pytest.mark.parametrize("table, source", [("face_edges", "edge_map"), ("face_vertices", "vertex_map")],
                         ids=["face_edges", "face_vertices"])
def test_face_tables_take_their_map_dtype_and_are_read_only(table, source):
    import dataclasses

    c = build_complex(SurfaceSpec.named("moebius", 6, 4))
    assert table not in {f.name for f in dataclasses.fields(c)}
    assert getattr(c, table).dtype == getattr(c, source).dtype
    assert not getattr(c, table).flags.writeable
    # a complex with wide maps stacks wide face tables
    wide = dataclasses.replace(c, **{source: getattr(c, source).astype(np.int64)})
    assert getattr(wide, table).dtype == np.int64
    assert np.array_equal(getattr(wide, table), getattr(c, table))
    assert not getattr(wide, table).flags.writeable


@pytest.mark.parametrize("field", ["edge_projection"])
def test_validate_cover_rejects_wide_projections(field):
    from eulerpart import InvariantViolation, double_cover
    from eulerpart.cover import _check_edge_projection

    cs = double_cover(build_complex(SurfaceSpec.named("klein", 6, 4)))
    below = cs.edge_projection[cs.cover.face_edges]
    _check_edge_projection(cs.cover, cs.edge_projection, below)
    with pytest.raises(InvariantViolation, match=f"{field} holds int64"):
        _check_edge_projection(cs.cover, getattr(cs, field).astype(np.int64), below)


@pytest.mark.parametrize("name", ["moebius", "klein"])
def test_validate_cover_rejects_a_misprojected_edge(name, monkeypatch):
    from eulerpart import InvariantViolation, cover, double_cover
    from eulerpart.complexes import SIDE_S
    from eulerpart.cover import _check_edge_projection

    base = build_complex(SurfaceSpec.named(name, 6, 4))
    cs = double_cover(base)
    c, below = cs.cover, cs.edge_projection[cs.cover.face_edges]
    _check_edge_projection(c, cs.edge_projection, below)
    wrong = cs.edge_projection.copy()
    wrong[5] = (wrong[5] + 1) % cs.base.n_edges
    with pytest.raises(InvariantViolation, match="the two faces of a cover edge project it differently"):
        _check_edge_projection(c, wrong, below)
    # the second face of an edge sees another base edge: across the grid
    # edge above face 0, then across a seam edge
    _fa, fb, _par, ids = c.seam_adjacency
    for face, side in [(c.spec.width, SIDE_S), (int(fb[0]), int(c.edge_sides[ids[0], 1]))]:
        bad = below.copy()
        bad[face, side] = (bad[face, side] + 1) % cs.base.n_edges
        with pytest.raises(InvariantViolation, match="the two faces of a cover edge project it differently"):
            _check_edge_projection(c, cs.edge_projection, bad)
    # a build that does not swap E and W on the mirrored sheet
    monkeypatch.setattr(cover, "_MIRRORED_SIDE", {s: s for s in range(4)})
    with pytest.raises(InvariantViolation, match="the two faces of a cover edge project it differently"):
        double_cover(base).edge_projection


def test_validate_rejects_wrong_boundary_count():
    import dataclasses

    from eulerpart import InvariantViolation
    from eulerpart.complexes import _validate_complex

    # chi is 0 on both, so only the boundary count tells them apart
    c = build_complex(SurfaceSpec.named("moebius", 6, 4))
    with pytest.raises(InvariantViolation, match="1 boundary components for cylinder, expected 2"):
        _validate_complex(dataclasses.replace(c, spec=SurfaceSpec.named("cylinder", 6, 4)))


@pytest.mark.parametrize("gluings", [(gx, gy) for gx in GLUINGS for gy in GLUINGS],
                         ids=lambda g: "-".join(g))
@pytest.mark.parametrize("size", [(2, 2), (3, 2), (2, 3), (7, 5)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_face_neighbours_match_edge_faces(size, gluings):
    # across every side of every face: the other face of the edge there,
    # or the face itself on the surface boundary
    c = build_complex(SurfaceSpec(*size, *gluings))
    nbr = c.face_neighbours
    assert nbr.dtype == np.int32 and nbr.shape == (c.n_faces, 4)
    for f in range(c.n_faces):
        for s in range(4):
            e = c.face_edges[f, s]
            (fa, fb), (sa, sb) = c.edge_faces[e].tolist(), c.edge_sides[e].tolist()
            assert (f, s) in ((fa, sa), (fb, sb)), (f, s)
            want = f if fb < 0 else fb if (fa, sa) == (f, s) else fa
            assert nbr[f, s] == want, (f, s)


@pytest.mark.parametrize("gluings", [(gx, gy) for gx in GLUINGS for gy in GLUINGS],
                         ids=lambda g: "-".join(g))
@pytest.mark.parametrize("size", [(2, 2), (3, 2), (2, 3), (7, 5)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_grid_interior_edges_join_grid_neighbours(size, gluings):
    # [j, i] between rows joins face (i, j) to (i, j + 1), between columns
    # face (i, j) to (i + 1, j); with the seam edges they are every interior edge
    c = build_complex(SurfaceSpec(*size, *gluings))
    W, H = size
    between_rows, between_cols = c.grid_interior_edges()
    assert between_rows.shape == (H - 1, W) and between_cols.shape == (H, W - 1)
    faces = np.arange(c.n_faces).reshape(H, W)
    assert np.array_equal(c.edge_faces[between_rows], np.stack([faces[:-1], faces[1:]], axis=-1))
    assert np.array_equal(c.edge_faces[between_cols], np.stack([faces[:, :-1], faces[:, 1:]], axis=-1))
    for ids in (between_rows, between_cols):
        assert np.shares_memory(ids, c.edge_map) and not ids.flags.writeable
    every = np.concatenate([between_rows.ravel(), between_cols.ravel(), c.seam_adjacency[3]])
    assert np.array_equal(np.sort(every), interior_edges(c))


def _sorted_incidence_build(spec):
    """The complex built by sorting the 4F face-side incidences by edge.

    An independent route to every table: vertex orbits from ``components``,
    edge orbits from ``np.unique`` of the seam roots, edge slots from a
    stable ``argsort`` of the incidences (so slot 0 is the smaller face
    side in (f, s) lex order), endpoints from a raw endpoint table.
    Returns the complex and the tables it computes that a complex does not
    store: its face tables and each edge's raw members.
    """
    from eulerpart.complexes import (PERIODIC, REVERSED, SIDE_E, SIDE_N, SIDE_S, SIDE_W,
                                     CellComplex, components)

    W, H = spec.width, spec.height
    n_faces = W * H
    n_raw_v = (W + 1) * (H + 1)
    HOFF = W * (H + 1)
    n_raw_e = HOFF + (W + 1) * H

    def vid(i, j):
        return j * (W + 1) + i

    def he(i, j):
        return j * W + i

    def ve(i, j):
        return HOFF + j * (W + 1) + i

    vpairs, epairs, flipped_raw = [], [], []
    jv, je = np.arange(H + 1), np.arange(H)
    if spec.x_gluing == PERIODIC:
        vpairs.append((vid(W, jv), vid(0, jv)))
        epairs.append((ve(W, je), ve(0, je)))
    elif spec.x_gluing == REVERSED:
        vpairs.append((vid(W, jv), vid(0, H - jv)))
        epairs.append((ve(W, je), ve(0, H - 1 - je)))
        flipped_raw.append(ve(W, je))
    iv, ie = np.arange(W + 1), np.arange(W)
    if spec.y_gluing == PERIODIC:
        vpairs.append((vid(iv, H), vid(iv, 0)))
        epairs.append((he(ie, H), he(ie, 0)))
    elif spec.y_gluing == REVERSED:
        vpairs.append((vid(iv, H), vid(W - iv, 0)))
        epairs.append((he(ie, H), he(W - 1 - ie, 0)))
        flipped_raw.append(he(ie, H))

    va, vb = np.concatenate(vpairs, axis=1) if vpairs else ((), ())
    n_vertices, vertex_map = components(n_raw_v, va, vb)

    eroot = np.arange(n_raw_e, dtype=np.int64)
    for a_arr, b_arr in epairs:
        eroot[np.maximum(a_arr, b_arr)] = np.minimum(a_arr, b_arr)
    uniq_e, edge_map = np.unique(eroot, return_inverse=True)
    n_edges = len(uniq_e)

    jj, ii = np.divmod(np.arange(n_faces), W)
    face_edges = np.empty((n_faces, 4), dtype=np.int64)
    face_edges[:, SIDE_S] = edge_map[he(ii, jj)]
    face_edges[:, SIDE_E] = edge_map[ve(ii + 1, jj)]
    face_edges[:, SIDE_N] = edge_map[he(ii, jj + 1)]
    face_edges[:, SIDE_W] = edge_map[ve(ii, jj)]
    face_vertices = np.empty((n_faces, 4), dtype=np.int64)
    face_vertices[:, 0] = vertex_map[vid(ii, jj)]
    face_vertices[:, 1] = vertex_map[vid(ii + 1, jj)]
    face_vertices[:, 2] = vertex_map[vid(ii + 1, jj + 1)]
    face_vertices[:, 3] = vertex_map[vid(ii, jj + 1)]

    flat_edges = face_edges.ravel()
    flat_faces = np.repeat(np.arange(n_faces, dtype=np.int64), 4)
    flat_sides = np.tile(np.arange(4, dtype=np.int64), n_faces)
    order = np.argsort(flat_edges, kind="stable")
    sorted_e = flat_edges[order]
    first = np.searchsorted(sorted_e, np.arange(n_edges))
    counts = np.searchsorted(sorted_e, np.arange(n_edges), side="right") - first
    assert counts.min() >= 1 and counts.max() <= 2
    edge_faces = np.full((n_edges, 2), -1, dtype=np.int64)
    edge_sides = np.full((n_edges, 2), -1, dtype=np.int64)
    edge_faces[:, 0] = flat_faces[order[first]]
    edge_sides[:, 0] = flat_sides[order[first]]
    two = counts == 2
    edge_faces[two, 1] = flat_faces[order[first[two] + 1]]
    edge_sides[two, 1] = flat_sides[order[first[two] + 1]]

    edge_parity = np.ones(n_edges, dtype=np.int8)
    for raw in flipped_raw:
        edge_parity[edge_map[raw]] = -1

    raw_ev = np.empty((n_raw_e, 2), dtype=np.int64)
    j, i = np.divmod(np.arange(HOFF), W)
    raw_ev[:HOFF] = np.stack([vid(i, j), vid(i + 1, j)], axis=1)
    j, i = np.divmod(np.arange(n_raw_e - HOFF), W + 1)
    raw_ev[HOFF:] = np.stack([vid(i, j), vid(i, j + 1)], axis=1)
    edge_vertices = np.sort(vertex_map[raw_ev[uniq_e]], axis=1)
    vertex_is_boundary = np.zeros(n_vertices, dtype=bool)
    vertex_is_boundary[edge_vertices[~two].ravel()] = True

    c = CellComplex(
        spec=spec, n_vertices=n_vertices, n_edges=n_edges, n_faces=n_faces,
        edge_vertices=edge_vertices, edge_faces=edge_faces, edge_sides=edge_sides,
        edge_parity=edge_parity, edge_is_horizontal=uniq_e < HOFF, edge_is_boundary=~two,
        vertex_is_boundary=vertex_is_boundary, vertex_map=vertex_map, edge_map=edge_map,
    )
    # raw members of each edge orbit, in increasing order, -1 padded
    by_edge = np.argsort(edge_map, kind="stable")
    starts = np.searchsorted(edge_map[by_edge], np.arange(n_edges + 1))
    reps = np.full((n_edges, 2), -1, dtype=np.int64)
    for k in range(n_edges):
        members = by_edge[starts[k]:starts[k + 1]]
        reps[k, :len(members)] = members
    return c, {"face_edges": face_edges, "face_vertices": face_vertices, "edge_raw_representatives": reps}


ORACLE_SIZES = [(2, 2), (3, 2), (2, 3), (7, 5), (6, 4), (5, 8), (33, 17), (128, 64)]


@pytest.mark.parametrize("name", list(GLUING_PAIRS))
@pytest.mark.parametrize("size", ORACLE_SIZES, ids=[f"{w}x{h}" for w, h in ORACLE_SIZES])
def test_closed_form_build_matches_sorted_incidences(size, name):
    import dataclasses

    from eulerpart.complexes import _build_complex

    spec = SurfaceSpec(*size, *GLUING_PAIRS[name])
    built = _build_complex(spec)
    oracle, expected = _sorted_incidence_build(spec)
    for f in dataclasses.fields(built):
        a, b = getattr(built, f.name), getattr(oracle, f.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == _built_dtype(f.name, b) and np.array_equal(a, b), f.name
        else:
            assert a == b, f.name
    tables = _arrays_and_tables(built)
    assert len(tables) == len(_arrays_and_tables(oracle))
    for (what, a), (_, b) in zip(tables, _arrays_and_tables(oracle)):
        # the oracle's own face tables and representatives, not its
        # closed-form properties
        b = expected.get(what, b)
        assert a.dtype == _built_dtype(what, b) and np.array_equal(a, b), what


ORBIT_SIZES = [(2, 2), (3, 2), (2, 3), (7, 5), (33, 17)]


@pytest.mark.parametrize("gluings", [(gx, gy) for gx in GLUINGS for gy in GLUINGS],
                         ids=lambda g: "-".join(g))
@pytest.mark.parametrize("size", ORBIT_SIZES, ids=[f"{w}x{h}" for w, h in ORBIT_SIZES])
def test_seam_orbits_match_the_reference_identification(size, gluings):
    # the classes of RefSurface's dict union-find, numbered by smallest raw id
    W, H = size
    c = build_complex(SurfaceSpec(W, H, *gluings))
    ref = RefSurface(W, H, *gluings)
    raw_vertices = [("v", i, j) for j in range(H + 1) for i in range(W + 1)]
    raw_edges = ([("h", i, j) for j in range(H + 1) for i in range(W)]
                 + [("u", i, j) for j in range(H) for i in range(W + 1)])
    for keys, built in ((raw_vertices, c.vertex_map), (raw_edges, c.edge_map)):
        numbering = {}
        expected = [numbering.setdefault(ref.find(k), len(numbering)) for k in keys]
        assert built.tolist() == expected


def _built_dtype(what, oracle):
    """The dtype a built table has where the oracle's int64 holds the same
    values: ``ID_DTYPE`` ids and int8 sides; bool and int8 tables match."""
    from eulerpart.complexes import ID_DTYPE

    if what == "edge_sides":
        return np.int8
    return ID_DTYPE if oracle.dtype in (np.int64, np.int32) else oracle.dtype


def test_grid_size_cap():
    from eulerpart.complexes import MAX_FACES

    # sizes reached today: 512² covers, the 2048² cover, and the deepest
    # default nodal ladder (64 doubled five times, each level perturbed +10)
    for w, h in ((512, 1024), (2048, 4096), (2678, 2678), (2, MAX_FACES // 2)):
        assert SurfaceSpec.named("cylinder", w, h).width == w
    for w, h in ((2, MAX_FACES // 2 + 1), (1_000_000, 16), (1_000_000, 1_000_000)):
        with pytest.raises(ValueError, match=f"{w}x{h} grid has {w * h} faces"):
            SurfaceSpec.named("moebius", w, h)
