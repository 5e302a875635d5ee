import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eulerpart import (
    RandomSpec,
    SurfaceSpec,
    build_complex,
    boundary_components,
    cover_bookkeeping,
    double_cover,
    from_labels,
    invariants,
    lift_partition,
    omega_via_cover,
    orientability_bits,
    random_partition,
)
from eulerpart.complexes import ID_DTYPE

from test_build_pins import PIN_SIZES


def bands(m, n):
    c = build_complex(SurfaceSpec.named("moebius", n, n))
    x = (np.arange(n) + 0.5) * math.pi / n
    return c, from_labels(c, np.tile((np.sin(m * x) > 0).astype(int), (n, 1)).ravel())


def test_double_cover_of_moebius_is_cylinder():
    c = build_complex(SurfaceSpec.named("moebius", 6, 4))
    cs = double_cover(c)
    assert cs.cover.spec.kind == "cylinder"
    assert cs.cover.spec == SurfaceSpec.named("cylinder", 6, 8)
    assert cs.cover.euler_characteristic == 0
    assert boundary_components(cs.cover) == 2


def test_double_cover_of_klein_is_torus():
    c = build_complex(SurfaceSpec.named("klein", 6, 4))
    cs = double_cover(c)
    assert cs.cover.spec.kind == "torus"
    assert cs.cover.euler_characteristic == 0
    assert boundary_components(cs.cover) == 0


def test_deck_involution_free_and_compatible():
    cs = double_cover(build_complex(SurfaceSpec.named("moebius", 5, 3)))
    pi, a = cover_face_maps(5, 3)
    n = cs.cover.n_faces
    assert len(a) == n
    assert np.array_equal(a[a], np.arange(n))
    assert np.all(a != np.arange(n))
    assert np.array_equal(pi[a], pi)
    assert np.all(np.bincount(pi) == 2)
    # the deck map carries the cover's face adjacency onto itself
    ef = cs.cover.edge_faces
    inner = ef[(ef >= 0).all(axis=1)]
    pairs = {tuple(sorted(e)) for e in inner.tolist()}
    assert {tuple(sorted(e)) for e in a[inner].tolist()} == pairs


def test_cover_rejects_other_surfaces():
    with pytest.raises(ValueError):
        double_cover(build_complex(SurfaceSpec.named("rectangle", 4, 4)))
    with pytest.raises(ValueError):
        double_cover(build_complex(SurfaceSpec.named("torus", 4, 4)))


def test_lift_one_domain():
    c = build_complex(SurfaceSpec.named("moebius", 6, 4))
    cs = double_cover(c)
    p = from_labels(c, np.zeros(24, dtype=int))
    lifted = lift_partition(cs, p)
    assert lifted.n_domains == 1


def test_lift_bands3_components():
    c, p = bands(3, 12)
    cs = double_cover(c)
    lifted = lift_partition(cs, p)
    assert lifted.n_domains == 3  # two swapped outer bands + one invariant middle


def test_omega_via_cover_matches_parity_on_fixtures():
    for m, n in ((3, 12), (5, 20)):
        c, p = bands(m, n)
        cs = double_cover(c)
        assert np.array_equal(omega_via_cover(cs, p), orientability_bits(p))


def test_bands3_bookkeeping():
    c, p = bands(3, 12)
    rep = cover_bookkeeping(double_cover(c), p)
    assert (rep.kappa_star, rep.sigma_star, rep.beta_star) == (3, 0, 2)
    assert rep.n_nonorientable == 1
    assert sorted(rep.preimage_counts) == [1, 2]
    flag = rep.relation_flags["beta_star_eq_2beta"]
    assert flag["applies"] and flag["holds"]


def test_bands5_bookkeeping():
    c, p = bands(5, 20)
    rep = cover_bookkeeping(double_cover(c), p)
    assert (rep.kappa_star, rep.beta_star, rep.n_nonorientable) == (5, 4, 1)


def test_one_domain_bookkeeping():
    c = build_complex(SurfaceSpec.named("moebius", 6, 6))
    cs = double_cover(c)
    p = from_labels(c, np.zeros(36, dtype=int))
    rep = cover_bookkeeping(cs, p)
    assert (rep.kappa_star, rep.beta_star, rep.beta) == (1, 0, 0)
    assert rep.n_nonorientable == 1


@pytest.mark.parametrize("name", ["moebius", "klein"])
def test_random_partitions_cover_agreement(name):
    c = build_complex(SurfaceSpec.named(name, 10, 10))
    cs = double_cover(c)
    rng = np.random.default_rng(4)
    for _ in range(40):
        p = from_labels(c, rng.integers(0, 4, c.n_faces))
        assert np.array_equal(omega_via_cover(cs, p), orientability_bits(p))
        rep = cover_bookkeeping(cs, p)  # kappa*/sigma* asserted inside
        assert rep.kappa_star == 2 * rep.kappa - rep.n_nonorientable
        if name == "moebius":
            assert rep.n_nonorientable <= 1


def test_klein_can_host_two_moebius_domains():
    # the Klein bottle splits into two bands, both non-orientable
    c = build_complex(SurfaceSpec.named("klein", 6, 6))
    lab = np.zeros((6, 6), dtype=int)
    lab[3:, :] = 1
    p = from_labels(c, lab.ravel())
    bits = orientability_bits(p)
    if not np.any(bits):  # both domains non-orientable
        rep = cover_bookkeeping(double_cover(c), p)
        assert rep.n_nonorientable == 2


def test_lift_preserves_walls():
    c = build_complex(SurfaceSpec.named("moebius", 6, 6))
    cs = double_cover(c)
    p0 = from_labels(c, np.zeros(36, dtype=int))
    from eulerpart import cut, plan_cut

    path = [c.horizontal_edge(i, 3) for i in range(6)]
    p = cut(plan_cut(p0, path))
    assert "edge_projection" not in vars(cs)
    lifted = lift_partition(cs, p)
    assert len(lifted.walls) == 2 * len(p.walls)
    assert invariants(lifted).sigma == 2 * invariants(p).sigma
    # the walled lift built the edge projection, and it is the raw-grid one
    assert np.array_equal(vars(cs)["edge_projection"], _edge_projection(c, cs.cover))


def test_lift_is_shared_per_partition():
    c, p = bands(3, 12)
    cs = double_cover(c)
    lifted = lift_partition(cs, p)
    assert lift_partition(cs, p) is lifted
    # an equal partition built separately gets its own lift
    again = from_labels(c, p.domains)
    assert lift_partition(cs, again) is not lifted


def test_cached_lift_dies_with_its_base():
    # the cache must key on the base weakly, and the lift must not point
    # back at its base, or both live until a cyclic collection
    gc.disable()
    try:
        c, p = bands(3, 12)
        cs = double_cover(c)
        cover_bookkeeping(cs, p)
        omega_via_cover(cs, p)
        base, lifted = weakref.ref(p), weakref.ref(lift_partition(cs, p))
        del p
        assert base() is None
        assert lifted() is None
        assert len(cs._lifts) == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("name", ["moebius", "klein"])
def test_orientability_routes_agree_on_32_grids(name):
    c = build_complex(SurfaceSpec.named(name, 32, 32))
    cs = double_cover(c)
    for seed in range(16):
        p = random_partition(c, RandomSpec(seed=seed, k=1 + seed % 10))
        assert np.array_equal(orientability_bits(p), omega_via_cover(cs, p))
        # covers are orientable: every lifted domain is balanced
        assert orientability_bits(lift_partition(cs, p)).all()


def test_preimage_count_rejects_a_lift_straddling_two_base_domains(monkeypatch):
    from eulerpart import InvariantViolation, cover
    from eulerpart.cover import preimage_component_counts

    c, p = bands(3, 12)
    assert preimage_component_counts(double_cover(c), p).tolist() == [2, 1]
    # one lifted domain over both base domains: a pair count would read
    # one preimage component over each
    cs = double_cover(c)
    straddling = from_labels(cs.cover, np.zeros(cs.cover.n_faces, dtype=np.int64))
    monkeypatch.setattr(cover, "from_labels", lambda *args, **kwargs: straddling)
    with pytest.raises(InvariantViolation, match="more than one base domain"):
        preimage_component_counts(cs, p)


def test_preimage_counts_are_counted_once_per_partition(monkeypatch):
    from eulerpart import cover
    from eulerpart.cover import preimage_component_counts

    c, p = bands(3, 12)
    cs = double_cover(c)
    lifts = []

    def counting(*args, **kwargs):
        lifts.append(args[0])
        return from_labels(*args, **kwargs)

    monkeypatch.setattr(cover, "from_labels", counting)
    counts = preimage_component_counts(cs, p)
    with pytest.raises(ValueError, match="read-only"):
        counts[0] = 0
    # the lift and the counts are cached together, so no later call for
    # this partition lifts it again
    assert preimage_component_counts(cs, p) is counts
    assert omega_via_cover(cs, p).tolist() == [True, False]
    assert cover_bookkeeping(cs, p).preimage_counts == (2, 1)
    assert lifts == [cs.cover]
    preimage_component_counts(cs, from_labels(c, p.domains))
    assert lifts == [cs.cover, cs.cover]


def _edge_projection(base, cover):
    """The raw-grid edge projection, kept as the oracle for the face-table one.

    Horizontal cover edges of rows 0..H (row H is the mid seam) and vertical
    cover edges of rows below H project straight; above, the sheet is the
    base mirrored in x and shifted down by H.
    """
    W, H = base.spec.width, base.spec.height
    H2 = 2 * H
    HOFF_cov = W * (H2 + 1)
    HOFF_base = W * (H + 1)
    n_raw = HOFF_cov + (W + 1) * H2

    raw_base = np.empty(n_raw, dtype=np.int64)
    j, i = np.divmod(np.arange(HOFF_cov), W)
    low = j <= H
    raw_base[:HOFF_cov] = np.where(low, j * W + i, (j - H) * W + (W - 1 - i))
    j, i = np.divmod(np.arange((W + 1) * H2), W + 1)
    low = j < H
    raw_base[HOFF_cov:] = HOFF_base + np.where(
        low, j * (W + 1) + i, (j - H) * (W + 1) + (W - i)
    )
    out = np.empty(cover.n_edges, dtype=np.int64)
    out[cover.edge_map] = base.edge_map[raw_base]
    return out


@pytest.mark.parametrize("size", [(2, 2), (3, 2), (5, 3), (6, 4), (7, 5), (32, 32)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("name", ["moebius", "klein"])
def test_edge_projection_matches_raw_grid_oracle(name, size):
    cs = double_cover(build_complex(SurfaceSpec.named(name, *size)))
    assert np.array_equal(cs.edge_projection, _edge_projection(cs.base, cs.cover))


def cover_face_maps(W, H):
    """(projection, deck) of the faces of the W x 2H cover, as ``ID_DTYPE``.

    Cover face (i, j) lies over (i, j) below the mid seam and over
    (W-1-i, j-H) above it; the deck map is (W-1-i, (j+H) mod 2H).
    """
    j, i = np.divmod(np.arange(2 * W * H), W)
    projection = np.where(j >= H, (j - H) * W + W - 1 - i, j * W + i)
    deck = (j + H) % (2 * H) * W + W - 1 - i
    return projection.astype(ID_DTYPE), deck.astype(ID_DTYPE)


def _check_face_maps(name, W, H, seed):
    """The closed-form face maps are a double cover, and the package's lift
    and edge projection follow them."""
    projection, deck = cover_face_maps(W, H)
    faces = np.arange(2 * W * H)
    # the deck is a fixed-point-free involution over the projection
    assert np.array_equal(deck[deck], faces)
    assert np.all(deck != faces)
    assert np.array_equal(projection[deck], projection)
    assert np.all(np.bincount(projection, minlength=W * H) == 2)

    cs = double_cover(build_complex(SurfaceSpec.named(name, W, H)))
    p = from_labels(cs.base, np.random.default_rng(seed).integers(0, 4, W * H))
    over = p.domains[projection]
    lifted = lift_partition(cs, p)
    # each lifted face lies over the base domain of its projection
    assert np.array_equal(lifted.domains, from_labels(cs.cover, over).domains)
    # and deck-paired faces lie over the same base domain
    base_of = np.empty(lifted.n_domains, dtype=ID_DTYPE)
    base_of[lifted.domains] = over
    assert np.array_equal(base_of[lifted.domains[deck]], over)

    # the faces of every cover edge project onto the faces of its base edge
    ef = cs.cover.edge_faces
    got = np.where(ef >= 0, projection[ef], -1)
    want = cs.base.edge_faces[cs.edge_projection]
    assert np.array_equal(np.sort(got, axis=1), np.sort(want, axis=1))


#: the build pins' sizes and a square one
COVER_SIZES = sorted({*PIN_SIZES, (5, 3), (32, 32)})


@pytest.mark.parametrize("size", COVER_SIZES, ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("name", ["moebius", "klein"])
def test_face_maps_match_the_coordinate_formulas(name, size):
    _check_face_maps(name, *size, seed=sum(size))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["moebius", "klein"]), st.integers(2, 12), st.integers(2, 12), st.integers(0, 2**16))
def test_face_maps_match_the_coordinate_formulas_on_any_grid(name, W, H, seed):
    _check_face_maps(name, W, H, seed)


def test_cover_bookkeeping_labels_the_lifted_union_once(monkeypatch):
    # beta of the lift and the joined-circles check read one census of X
    # (lifted boundary set united with the cover boundary), and the base's
    # census is made once, when its partition is labelled
    from eulerpart import partition

    cs = double_cover(build_complex(SurfaceSpec.named("moebius", 8, 8)))
    assert cs.base.n_vertices != cs.cover.n_vertices
    labelled = []

    def counting(n, ends):
        labelled.append(n)
        return touched_components(n, ends)

    touched_components = partition.touched_components
    monkeypatch.setattr(partition, "touched_components", counting)
    p = random_partition(cs.base, RandomSpec(seed=3, k=4))
    assert labelled == [cs.base.n_vertices]
    rep = cover_bookkeeping(cs, p)
    assert labelled == [cs.base.n_vertices, cs.cover.n_vertices]
    assert cover_bookkeeping(cs, p) == rep
    assert len(labelled) == 2


def test_partition_and_cover_build_no_edge_tables():
    # labelling, invariants, domain reports, the cover and the flood fill
    # read the face grid and the seam table only, so no complex builds a
    # per-edge table
    from eulerpart import RandomSpec, domain_reports, random_partition
    from eulerpart.complexes import CellComplex, _build_complex, _shared_complex

    for table in ("adjacency", "directed_adjacency"):
        assert not hasattr(CellComplex, table), table
    _shared_complex.cache_clear()  # the cover complex must be fresh too
    c = _build_complex(SurfaceSpec.named("moebius", 9, 7))
    labels = np.random.default_rng(5).integers(0, 3, size=c.n_faces)
    p = from_labels(c, labels)
    invariants(p)
    domain_reports(p)
    cs = double_cover(c)
    cover_bookkeeping(cs, p)
    omega_via_cover(cs, p)
    for cx in (c, cs.cover):
        assert "seam_adjacency" in cx.__dict__
        assert "edge_raw_representatives" not in cx.__dict__, cx.spec
    # a first fill on a fresh complex
    fresh = _build_complex(SurfaceSpec.named("klein", 8, 6))
    random_partition(fresh, RandomSpec(seed=3, k=4))
    assert "face_neighbours" in fresh.__dict__
    assert "edge_raw_representatives" not in fresh.__dict__


#: bytes a ``double_cover`` of a 128² grid may hold per base face under
#: tracemalloc: its cover complex measures about 111; a cover that also
#: stored its face and edge maps held about 143, and one whose complex
#: stored its two (F, 4) face tables held about 206
COVER_BYTES_PER_BASE_FACE = 120


@pytest.mark.parametrize("name", ["moebius", "klein"])
def test_a_random_item_caches_no_face_table(name):
    import tracemalloc

    from eulerpart import check_chi_sigma, domain_reports, verify_euler
    from eulerpart.complexes import _shared_complex

    # fresh shared complexes, so no earlier test has read a face table
    _shared_complex.cache_clear()
    c = build_complex(SurfaceSpec.named(name, 64, 64))
    cs = double_cover(c)
    p = random_partition(c, RandomSpec(seed=3, k=10))
    verify_euler(p)
    domain_reports(p)
    check_chi_sigma(p)
    cover_bookkeeping(cs, p)
    assert np.array_equal(omega_via_cover(cs, p), orientability_bits(p))
    for cx in (c, cs.cover):
        assert "face_edges" not in vars(cx) and "face_vertices" not in vars(cx)
    # a partition without walls reads no edge projection
    assert "edge_projection" not in vars(cs)

    base = build_complex(SurfaceSpec.named(name, 128, 128))
    _shared_complex.cache_clear()  # the cover complex is built inside the trace
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cs = double_cover(base)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held / base.n_faces < COVER_BYTES_PER_BASE_FACE
