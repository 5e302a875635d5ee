"""Byte pins of every complex and cover table.

sha256 of every ``CellComplex`` field and face table, and of every
``CoverStructure`` map, over the nine gluing pairs (the six presets among
them) at a few sizes, taken before the build was last rewritten: a rewrite of the build must
leave every table, dtype and shape as it was.  The face tables and the
cover's edge projection are no longer stored; they are hashed from the
closed-form slot reads and from the raw-grid oracle of ``test_cover``.
"""

import hashlib
from dataclasses import fields

import numpy as np
import pytest

from eulerpart import SurfaceSpec, double_cover
from eulerpart.complexes import GLUINGS, ID_DTYPE, CellComplex, _build_complex

PIN_SIZES = [(2, 2), (3, 2), (2, 3), (7, 5), (8, 3), (33, 17), (64, 31)]
PAIRS = [(x, y) for x in GLUINGS for y in GLUINGS]


def _feed(h, value):
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    else:
        h.update(repr(value).encode())


def face_tables(c: CellComplex) -> dict:
    """The (F, 4) edge under every face side S, E, N, W and vertex under
    every face corner SW, SE, NE, NW, from the closed-form slot reads."""
    slots = np.arange(4 * c.n_faces)
    return {"face_edges": c.slot_edges(slots).reshape(c.n_faces, 4),
            "face_vertices": c.slot_vertices(slots).reshape(c.n_faces, 4)}


#: the tables the digests cover, in the order they were pinned: the
#: dataclass fields, with the face tables, once stored, in their old place
PINNED_TABLES = (
    "spec", "n_vertices", "n_edges", "n_faces", "edge_vertices", "edge_faces", "edge_sides",
    "edge_parity", "edge_is_horizontal", "edge_is_boundary", "vertex_is_boundary",
    "face_edges", "face_vertices", "vertex_map", "edge_map",
)


def _complex_digest(c: CellComplex) -> str:
    h = hashlib.sha256()
    tables = face_tables(c)
    for name in PINNED_TABLES:
        h.update(name.encode())
        _feed(h, tables[name] if name in tables else getattr(c, name))
    return h.hexdigest()


def test_pinned_tables_are_the_fields_and_the_face_tables():
    assert [f.name for f in fields(CellComplex)] == [
        name for name in PINNED_TABLES if name not in ("face_edges", "face_vertices")
    ]
    # the face tables are read, not stored
    c = _build_complex(SurfaceSpec.named("klein", 5, 4))
    for name, table in face_tables(c).items():
        assert not hasattr(c, name) and table.dtype == ID_DTYPE, name


# one digest per size over the complexes of all nine gluing pairs, in
# GLUINGS x GLUINGS order
PINNED_COMPLEXES = {
    (2, 2): "bbd926a313dec01abc0e83cb0f723042a34bef7636c1deec83f61b9290b0f0dd",
    (3, 2): "746cb275987c9b6f837fc462c1c7a185024b6cc5d65315b0dfd9132940ea3471",
    (2, 3): "5b18cb70fe256dd42a4a71a22278aacbdea203bf9d0502c755786c6db312a03a",
    (7, 5): "908722d7941bbc1da7bff4b0579645373d1ef5dfbfc3be37ddb645440911775a",
    (8, 3): "0b058704bf8ebcccac5088bae442983c4eedb0bbb02629e4f7c8fe7cd50362f3",
    (33, 17): "12ac6be8eac2d12edee798e875fcf08c99a6b906f181de464c56de2b708a662d",
    (64, 31): "98566a541e4bd557286f02cec418b8e7ca6550d44c51e1aeb203d746358d0c4e",
}

# one digest per size over the moebius and klein covers: the cover
# complex's fields, then the face projection, deck and edge projection, as
# ID_DTYPE ids
PINNED_COVERS = {
    (2, 2): "be7232309e207cde7a4caa328f0073d88a2fc31bf6d9a718521c48307838e6e2",
    (3, 2): "f9cc7469b6b9f36d9b20d21055a116a0c180768a04b5f25e8ad8ab69ee2f5079",
    (2, 3): "12b707d60716fc0cae9ffaf31020969ffd30e6af7580baf70597eab8869d767f",
    (7, 5): "32b7c185e9c7fe76571decbe71f4b4b0aef0508d875ca3d2fa77e7f51c16701d",
    (8, 3): "7b9c1f1b7935687f7fa7d838dfd3fce56d9b458b1039e05f3f9e8be4d8c9c5bf",
    (33, 17): "f260c8f810ca0dd4fd31f83cb9d186205eb895ae3cb1eddf28356047bff9d60f",
    (64, 31): "81fe89dda2d40ae2ae380070f7a724ea04bbeed627d0c3f2da9aeee1be307655",
}


@pytest.mark.parametrize("size", PIN_SIZES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_complex_fields_pinned(size):
    h = hashlib.sha256()
    for x, y in PAIRS:
        h.update(_complex_digest(_build_complex(SurfaceSpec(*size, x, y))).encode())
    assert h.hexdigest() == PINNED_COMPLEXES[size]


@pytest.mark.parametrize("size", PIN_SIZES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_cover_maps_pinned(size):
    from test_cover import _edge_projection, cover_face_maps

    h = hashlib.sha256()
    for name in ("moebius", "klein"):
        cs = double_cover(_build_complex(SurfaceSpec.named(name, *size)))
        h.update(_complex_digest(cs.cover).encode())
        # the face maps are closed forms, the edge projection the raw-grid
        # oracle's, cast from its int64 to the dtype it was pinned in
        face_projection, face_deck = cover_face_maps(*size)
        edge_projection = _edge_projection(cs.base, cs.cover).astype(ID_DTYPE)
        for table in (face_projection, face_deck, edge_projection):
            _feed(h, table)
    assert h.hexdigest() == PINNED_COVERS[size]


@pytest.mark.parametrize("gluings", PAIRS, ids=lambda g: "-".join(g))
@pytest.mark.parametrize("size", PIN_SIZES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_face_vertices_agree_across_grid_interior_sides(size, gluings):
    # the NE and NW corners of a face are the SE and SW corners of the face
    # above, and its SE and NE corners the SW and NW corners of the face to
    # its right, which is what slot_partners' broadcast add assumes
    c = _build_complex(SurfaceSpec(*size, *gluings))
    g = face_tables(c)["face_vertices"].reshape(size[1], size[0], 4)
    assert np.array_equal(g[:-1, :, 2], g[1:, :, 1]) and np.array_equal(g[:-1, :, 3], g[1:, :, 0])
    assert np.array_equal(g[:, :-1, 1], g[:, 1:, 0]) and np.array_equal(g[:, :-1, 2], g[:, 1:, 3])


def _strided_slot_partners(c: CellComplex) -> np.ndarray:
    """``slot_partners`` as the strided build made it: a -1 table with the
    eight grid-interior partner slices written one by one, then the seam
    edges matched by underlying vertex."""
    W, H = c.spec.width, c.spec.height
    slot = 4 * np.arange(c.n_faces, dtype=np.int32).reshape(H, W)
    grid = np.full((H, W, 4, 2), -1, dtype=np.int32)
    grid[:-1, :, 2, 0] = slot[1:] + 1
    grid[:-1, :, 3, 1] = slot[1:]
    grid[1:, :, 0, 0] = slot[:-1] + 3
    grid[1:, :, 1, 1] = slot[:-1] + 2
    grid[:, :-1, 1, 0] = slot[:, 1:]
    grid[:, :-1, 2, 1] = slot[:, 1:] + 3
    grid[:, 1:, 3, 0] = slot[:, :-1] + 2
    grid[:, 1:, 0, 1] = slot[:, :-1] + 1
    out = grid.reshape(4 * c.n_faces, 2)
    fa, fb, _par, ids = c.seam_adjacency
    sa, sb = c.edge_sides[ids, 0], c.edge_sides[ids, 1]
    fv = face_tables(c)["face_vertices"]
    ca, cb, da, db = sa, (sa + 1) % 4, sb, (sb + 1) % 4
    straight = fv[fa, ca] == fv[fb, da]
    a0, a1, b0, b1 = 4 * fa + ca, 4 * fa + cb, 4 * fb + da, 4 * fb + db
    out[a0, 0] = np.where(straight, b0, b1)
    out[a1, 1] = np.where(straight, b1, b0)
    out[b0, 0] = np.where(straight, a0, a1)
    out[b1, 1] = np.where(straight, a1, a0)
    return out


@pytest.mark.parametrize("size", PIN_SIZES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_broadcast_slot_partners_match_the_strided_build(size):
    for x, y in PAIRS:
        c = _build_complex(SurfaceSpec(*size, x, y))
        got, want = c.slot_partners, _strided_slot_partners(c)
        assert got.dtype == want.dtype and got.shape == want.shape, (x, y)
        assert got.tobytes() == want.tobytes(), (x, y)


@pytest.mark.parametrize("size", PIN_SIZES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_closed_form_slot_vertices_match_the_face_table(size):
    # the face tables as the complex stacked them, from side and corner
    # slices of the raw edge and vertex grids
    W, H = size
    HOFF = W * (H + 1)
    for x, y in PAIRS:
        c = _build_complex(SurfaceSpec(*size, x, y))
        emh, emv = c.edge_map[:HOFF].reshape(H + 1, W), c.edge_map[HOFF:].reshape(H, W + 1)
        vm = c.vertex_map.reshape(H + 1, W + 1)
        want = {"face_edges": np.stack([emh[:H], emv[:, 1:], emh[1:], emv[:, :W]], axis=-1),
                "face_vertices": np.stack([vm[:H, :W], vm[:H, 1:], vm[1:, 1:], vm[1:, :W]], axis=-1)}
        for name, table in face_tables(c).items():
            assert table.dtype == ID_DTYPE, (name, x, y)
            assert np.array_equal(table, want[name].reshape(c.n_faces, 4)), (name, x, y)
