"""Quotient grid cell complexes for the supported flat surfaces.

Every surface here is a quotient of a ``width x height`` grid of unit
squares.  Each seam pair (left/right in x, bottom/top in y) is either left
``open`` (it becomes genuine boundary), glued ``periodic`` (straight
identification), or glued ``reversed`` (identification composed with a flip
of the other coordinate, which reverses orientation across the seam).

Conventions, fixed once and used everywhere:

* faces are indexed row-major, ``face = j*W + i`` for column ``i`` and
  row ``j``;
* raw grid vertices are ``j*(W+1) + i`` for ``0 <= i <= W``, ``0 <= j <= H``;
* raw horizontal edges (along x, from ``(i,j)`` to ``(i+1,j)``) are
  ``j*W + i``; raw vertical edges (along y) are ``W*(H+1) + j*(W+1) + i``;
* the reversed y-gluing identifies the top edge of column ``i`` with the
  bottom edge of column ``W-1-i`` (and symmetrically for x), so a
  ``reversed`` y-seam realizes the identification (x, y+pi) ~ (pi-x, y);
* canonical vertex/edge ids are the seam orbits of the raw ids, numbered
  compactly in increasing order of their smallest raw representative.

Seam orbits are the components of the seam-pair graph, whose edges are
the seam pairs of both gluing maps: a corner orbit of the projective
model, which needs the composition of the two, is one component.
``components`` labels them, numbered by their smallest raw id.

Every table comes from the grid in closed form; nothing is sorted.  An
edge orbit holds one raw edge or a seam pair, and the pair's larger raw
id is dropped, so ``edge_map`` is the running count of kept raw edges
read at each raw edge's smallest orbit member.  The two slots of
``edge_faces`` / ``edge_sides`` hold an edge's incident (face, side)
pairs in (f, s) lex order, which the grid gives directly: a horizontal
raw edge has the face below it (side N) and then the face above it (side
S), a vertical one the face to its left (side E) and then the face to its
right (side W).  A grid-border edge has one incidence, in slot 0; a glued
seam pair joins the lone incidences of its two raw edges, smaller face
first.  A complex stores no face table: the edge under each face side and
the vertex under each face corner are one ``take`` of ``edge_map`` or
``vertex_map`` at a raw id that is arithmetic on the slot
(``CellComplex.slot_edges``, ``CellComplex.slot_vertices``), and the build
checks its edge incidences with one count per side slice of ``edge_map``.
The kept raw edges run in canonical edge order, so the per-edge tables
(``edge_faces``, ``edge_sides``, ``edge_vertices``) are raw-edge tables
read at the kept raw ids with one ``take``.

``components`` is the one graph primitive of the package: every count of
domains, pieces, corner orbits, boundary cycles and boundary-set arcs is a
component labelling over index arrays, run by scipy's compiled undirected
traversal on CSR tables that ``csr`` builds with scipy's counting sort
(the flood fill groups its rows by round with the same sort).  Domains are
components over row runs, not faces: the runs of equal labels in each grid
row are the nodes, linked once per stretch of glued sides between two rows
and across the seam edges, so the graph grows with the label changes.

Relations between the two faces of an interior edge are slices of the face
grid, except across the O(W + H) glued seam edges, which
``CellComplex.seam_adjacency`` lists; a complex caches no table with a
row per edge.  The domain closures read ``CellComplex.slot_partners``, the
corner slot across each side of each corner, only at the slots of the
boundary set, and the flood fill walks ``CellComplex.face_neighbours``,
the face across each side of every face, read from the same table.  The
closures count the other vertices from
``CellComplex.odd_vertices``: only a raw vertex on the grid frame can lack
a face or be identified with another, so that table is read from the
frame, O(W + H), and no table has a row per vertex.

Complexes are shared.  ``build_complex`` returns one complex per
``SurfaceSpec`` and keeps the ``SHARED_COMPLEXES`` most recently used ones
alive, so a caller that asks again for a spec it used lately (the levels
of a nodal refinement, a JSON reload) gets the complex it had, with every
per-complex table already computed.  A shared complex must not change, so
its arrays and cached tables are read-only; ``dataclasses.replace`` with
copied arrays makes a modified complex.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np
from scipy.sparse._sparsetools import coo_tocsr
from scipy.sparse.csgraph._traversal import _connected_components_undirected

from .errors import InvariantViolation, integer

OPEN = "open"
PERIODIC = "periodic"
REVERSED = "reversed"
GLUINGS = (OPEN, PERIODIC, REVERSED)


class Surface(NamedTuple):
    """The gluings of a preset surface and the topology they give."""

    x_gluing: str
    y_gluing: str
    chi: int                     # exact Euler characteristic
    boundary_circles: int


#: preset name -> its gluings, Euler characteristic and boundary circles
SURFACES = {
    "rectangle": Surface(OPEN, OPEN, 1, 1),
    "cylinder": Surface(OPEN, PERIODIC, 0, 2),
    "moebius": Surface(OPEN, REVERSED, 0, 1),
    "torus": Surface(PERIODIC, PERIODIC, 0, 0),
    "klein": Surface(PERIODIC, REVERSED, 0, 0),
    "projective": Surface(REVERSED, REVERSED, 1, 0),
}

_KIND_BY_GLUINGS = {tuple(sorted((v.x_gluing, v.y_gluing))): k for k, v in SURFACES.items()}

#: complexes kept alive by ``build_complex``: the six presets at one size
#: plus two covers, or a nodal refinement ladder (up to six sizes)
SHARED_COMPLEXES = 8

#: largest grid accepted, in faces (2**23): it admits the 2048x4096 cover of
#: a 2048² moebius grid and the deepest nodal ladder from the default
#: resolution (n = 64 doubled five times, each level perturbed by up to +10,
#: ends at 2678²), and stops a mistyped size before any allocation
MAX_FACES = 1 << 23

#: node and edge counts ``components`` accepts stay below this, the range of
#: the int32 index tables its compiled kernel reads
_INT32_LIMIT = 1 << 31

#: dtype of every id table (vertex, edge, face and corner-slot ids) of a
#: complex, a cover and a partition: ``MAX_FACES`` keeps every id, and every
#: corner slot ``4*face + corner``, below 2**25, so int32 holds them at half
#: the memory of int64.  Keys that multiply two ids are computed in int64.
ID_DTYPE = np.int32

# face side order: 0=S, 1=E, 2=N, 3=W; side s runs from corner s to corner
# (s+1) % 4 in the cyclic corner order 0=SW, 1=SE, 2=NE, 3=NW.
SIDE_S, SIDE_E, SIDE_N, SIDE_W = 0, 1, 2, 3

#: side -> its grid segment (i0, j0, i1, j1) from the face's corner (i, j),
#: lower-left end first
_SIDE_SEGMENTS = np.array([[0, 0, 1, 0], [1, 0, 1, 1], [0, 1, 1, 1], [0, 0, 0, 1]])


@dataclass(frozen=True)
class SurfaceSpec:
    """Dimensions and seam gluings of a quotient grid surface."""

    width: int
    height: int
    x_gluing: str = OPEN
    y_gluing: str = OPEN

    def __post_init__(self):
        object.__setattr__(self, "width", integer(self.width, "surface width"))
        object.__setattr__(self, "height", integer(self.height, "surface height"))
        if self.width < 2 or self.height < 2:
            raise ValueError("width and height must be at least 2")
        if self.x_gluing not in GLUINGS or self.y_gluing not in GLUINGS:
            raise ValueError(f"gluings must be one of {GLUINGS}")
        if self.width * self.height > MAX_FACES:
            raise ValueError(
                f"a {self.width}x{self.height} grid has {self.width * self.height} faces, "
                f"above the cap of {MAX_FACES}"
            )

    @property
    def kind(self) -> str:
        """Surface name determined by the (unordered) pair of gluings."""
        return _KIND_BY_GLUINGS[tuple(sorted((self.x_gluing, self.y_gluing)))]

    @property
    def orientable(self) -> bool:
        return REVERSED not in (self.x_gluing, self.y_gluing)

    @property
    def closed(self) -> bool:
        return OPEN not in (self.x_gluing, self.y_gluing)

    @classmethod
    def named(cls, name: str, width: int, height: int) -> "SurfaceSpec":
        if not isinstance(name, str) or name not in SURFACES:
            raise ValueError(f"unknown surface {name!r}; presets: {sorted(SURFACES)}")
        surface = SURFACES[name]
        return cls(width, height, surface.x_gluing, surface.y_gluing)


def _grid_index(what: str, i, j, ni: int, nj: int) -> int:
    """``j * ni + i`` of integer raw coordinates with 0 <= i < ni and
    0 <= j < nj; anything else raises ``ValueError`` naming ``what``."""
    i, j = integer(i, f"{what} i"), integer(j, f"{what} j")
    if not (0 <= i < ni and 0 <= j < nj):
        raise ValueError(f"{what} ({i},{j}) outside grid")
    return j * ni + i


@dataclass(frozen=True, eq=False)
class CellComplex:
    """A quotient grid surface with canonical vertex/edge orbits.

    All arrays are indexed by canonical ids, and every id table, cached
    ones included, holds ``ID_DTYPE`` ids.  ``edge_faces`` holds the one
    or two incident faces of every edge (-1 in the second slot for boundary
    edges); ``edge_sides`` holds the side of each incident face the edge
    occupies; ``edge_parity`` is +1 where the two incident charts agree in
    orientation across the edge and -1 across a reversed seam.

    No face table is stored or cached: every reader of a face side or
    corner reads the slots it needs in closed form (``slot_edges``,
    ``slot_vertices``), and the build reads side slices of ``edge_map``.
    """

    spec: SurfaceSpec
    n_vertices: int
    n_edges: int
    n_faces: int
    edge_vertices: np.ndarray     # (E, 2) canonical endpoint ids, sorted
    edge_faces: np.ndarray        # (E, 2) face ids, -1 pad
    edge_sides: np.ndarray        # (E, 2) int8 side of edge in each face, -1 pad
    edge_parity: np.ndarray       # (E,)  +1 / -1
    edge_is_horizontal: np.ndarray  # (E,) True for x-direction edges
    edge_is_boundary: np.ndarray  # (E,) bool
    vertex_is_boundary: np.ndarray  # (V,) bool
    vertex_map: np.ndarray        # raw vertex id -> canonical id
    edge_map: np.ndarray          # raw edge id -> canonical id

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                _read_only(value)

    @property
    def euler_characteristic(self) -> int:
        return self.n_vertices - self.n_edges + self.n_faces

    def slot_vertices(self, slots: np.ndarray) -> np.ndarray:
        """The vertex under each corner slot ``4*face + corner``.

        Corner k of face (i, j) is raw vertex (j + k//2)(W+1) + i +
        [0, 1, 1, 0][k], and j(W+1) + i = face + face // W, so the vertex
        is one ``take`` of ``vertex_map``.
        """
        W = self.spec.width
        faces = slots >> 2
        return self.vertex_map.take(faces + faces // W + np.array([0, 1, W + 2, W + 1])[slots & 3])

    def slot_edges(self, slots: np.ndarray) -> np.ndarray:
        """The edge under side ``slot & 3`` of face ``slot >> 2``, for each
        slot ``4*face + side``.

        Side S of face f = jW + i is raw edge f, side N raw edge f + W, and
        the vertical sides W and E are raw edges HOFF + f + j and one past
        it, with j = f // W, so the edge is one ``take`` of ``edge_map``.
        """
        W, H = self.spec.width, self.spec.height
        HOFF = W * (H + 1)  # vertical raw edges start here
        faces, sides = slots >> 2, slots & 3
        return self.edge_map.take(faces + np.array([0, HOFF + 1, W, HOFF])[sides] + (sides & 1) * (faces // W))

    @cached_property
    def boundary_edges(self) -> np.ndarray:
        return _read_only(np.flatnonzero(self.edge_is_boundary).astype(ID_DTYPE))

    @cached_property
    def n_boundary_components(self) -> int:
        """Number of connected components of the surface boundary."""
        return subgraph_component_count(self, self.boundary_edges)

    @cached_property
    def seam_adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(face_a, face_b, parity, edge_id) over the glued seam edges, in
        increasing edge id.

        These are the interior edges that the grid does not give as a
        shared side of two neighbouring faces; every other interior edge
        joins faces ``(i, j)`` and ``(i + 1, j)`` or ``(i, j)`` and ``(i, j + 1)``.
        Read from the seam pairs of the spec, O(W + H).
        """
        ids = self.edge_map[self._seam_raw]
        return (
            _read_only(self.edge_faces[ids, 0]),
            _read_only(self.edge_faces[ids, 1]),
            _read_only(self.edge_parity[ids]),
            _read_only(ids),
        )

    @cached_property
    def _seam_raw(self) -> np.ndarray:
        """The smaller raw id of every glued seam pair, in increasing order,
        which is the edge order of ``seam_adjacency``."""
        return _read_only(np.sort(_seams(self.spec)[1].min(axis=0)).astype(ID_DTYPE))

    @cached_property
    def face_neighbours(self) -> np.ndarray:
        """(F, 4) face across each side S, E, N, W of every face, ``ID_DTYPE``.

        Side ``s`` starts at corner ``s``, so the face across it holds that
        corner's column-0 partner in ``slot_partners``: the table is that
        column shifted down to faces, with the face itself written at the
        O(W + H) sides on the surface boundary.
        """
        out = self.slot_partners[:, 0] >> 2
        ids = self.boundary_edges
        faces = self.edge_faces[ids, 0]
        out[4 * faces + self.edge_sides[ids, 0]] = faces
        return _read_only(out.reshape(self.n_faces, 4))

    @cached_property
    def slot_partners(self) -> np.ndarray:
        """(4F, 2) corner slot matched to each slot across its two sides.

        Slots are ``4*face + corner``.  Slot ``(f, c)`` touches side ``c``
        (where corner ``c`` starts) and side ``c - 1`` (where it ends);
        column 0 holds the slot over the same vertex in the face across
        side ``c``, column 1 the one across side ``c - 1``, and -1 marks a
        side on the surface boundary.  Across a grid-interior side the
        partner is a fixed offset from the slot: the NE and NW corners of a
        face meet the SE and SW corners of the face above, and its SE and
        NE corners the SW and NW corners of the face to its right, so the
        table is one broadcast add with the grid frame's sides set to -1.
        Only the O(W + H) seam edges are matched edge by edge, by the
        vertex under each corner slot (``slot_vertices``).
        """
        W, H = self.spec.width, self.spec.height
        # slot 4f + k looks across side k (column 0) and side k - 1 (column
        # 1) to the slot over the same vertex in the face below (f - W), to
        # the right (f + 1), above (f + W) or to the left (f - 1)
        offsets = np.array([[3 - 4 * W, -3], [4, 2 - 4 * W], [4 * W + 1, 7], [-2, 4 * W]], dtype=ID_DTYPE)
        grid = np.arange(0, 4 * self.n_faces, 4, dtype=ID_DTYPE).reshape(H, W, 1, 1) + offsets
        # the sides on the grid frame: S of row 0, N of row H-1, W of column
        # 0 and E of column W-1
        grid[0, :, 0, 0] = grid[0, :, 1, 1] = -1
        grid[-1, :, 2, 0] = grid[-1, :, 3, 1] = -1
        grid[:, 0, 3, 0] = grid[:, 0, 0, 1] = -1
        grid[:, -1, 1, 0] = grid[:, -1, 2, 1] = -1
        out = grid.reshape(4 * self.n_faces, 2)

        fa, fb, _par, ids = self.seam_adjacency
        sa, sb = self.edge_sides[ids, 0], self.edge_sides[ids, 1]
        a0, a1 = 4 * fa + sa, 4 * fa + (sa + 1) % 4
        b0, b1 = 4 * fb + sb, 4 * fb + (sb + 1) % 4
        # match the two corners of each seam edge by underlying vertex
        va, vb, wa, wb = self.slot_vertices(np.stack([a0, a1, b0, b1]))
        straight = va == wa
        if not np.all(np.where(straight, vb == wb, (va == wb) & (vb == wa))):
            raise InvariantViolation("edge corner matching failed")
        # a corner that starts its side looks across it from column 0
        out[a0, 0] = np.where(straight, b0, b1)
        out[a1, 1] = np.where(straight, b1, b0)
        out[b0, 0] = np.where(straight, a0, a1)
        out[b1, 1] = np.where(straight, a1, a0)
        return _read_only(out)

    @cached_property
    def odd_vertices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(vertex, slot, count) over the vertices with other than four
        corner slots, in increasing vertex id: one corner slot over each,
        and the slot count as int8.

        A raw vertex off the grid frame is the corner of four faces and no
        seam identifies it, so only the frame's raw vertices can make an
        odd vertex: the table is read from them, O(W + H).
        """
        W, H = self.spec.width, self.spec.height
        i = np.concatenate([np.arange(W + 1), np.arange(W + 1), np.zeros(H - 1, dtype=int), np.full(H - 1, W)])
        j = np.concatenate([np.zeros(W + 1, dtype=int), np.full(W + 1, H), np.arange(1, H), np.arange(1, H)])
        # a frame vertex is a corner of the face at (min(i, W-1), min(j, H-1))
        fi, fj = np.minimum(i, W - 1), np.minimum(j, H - 1)
        corner = np.array([0, 1, 3, 2])[2 * (j - fj) + (i - fi)]
        raw_slot = 4 * (fj * W + fi) + corner
        raw_count = (1 + ((0 < i) & (i < W))) * (1 + ((0 < j) & (j < H)))
        v = self.vertex_map[j * (W + 1) + i]
        order = np.argsort(v, kind="stable")
        v, raw_slot, raw_count = v[order], raw_slot[order], raw_count[order]
        first = np.flatnonzero(np.diff(v, prepend=-1))
        count = np.add.reduceat(raw_count, first)
        odd = first[count != 4]
        return (
            _read_only(v[odd]),
            _read_only(raw_slot[odd].astype(ID_DTYPE)),
            _read_only(count[count != 4].astype(np.int8)),
        )

    # -- raw-coordinate helpers ------------------------------------------

    def vertex_id(self, i: int, j: int) -> int:
        """Canonical id of grid vertex (i, j), 0 <= i <= W, 0 <= j <= H."""
        W, H = self.spec.width, self.spec.height
        return int(self.vertex_map[_grid_index("vertex", i, j, W + 1, H + 1)])

    def horizontal_edge(self, i: int, j: int) -> int:
        """Canonical id of the edge from (i, j) to (i+1, j)."""
        W, H = self.spec.width, self.spec.height
        return int(self.edge_map[_grid_index("horizontal edge", i, j, W, H + 1)])

    def vertical_edge(self, i: int, j: int) -> int:
        """Canonical id of the edge from (i, j) to (i, j+1)."""
        W, H = self.spec.width, self.spec.height
        return int(self.edge_map[W * (H + 1) + _grid_index("vertical edge", i, j, W + 1, H)])

    def edge_ids(self, values, what: str) -> list[int]:
        """``values`` as a list of edge ids: each must pass ``integer`` and
        lie in ``0 <= e < n_edges``, or ``ValueError`` names ``what``."""
        ids = [integer(e, what) for e in values]
        for e in ids:
            if not 0 <= e < self.n_edges:
                raise ValueError(f"{what} {e} out of range")
        return ids

    def edge_segments(self, edge_ids) -> np.ndarray:
        """(N, 4) grid segments (i0, j0, i1, j1) of the given edges.

        Each edge gives the side of its first face (``edge_faces[e, 0]``)
        and then, where it is another segment, the side of its second face,
        so a glued edge is drawn on both seams: its first face holds its
        smallest raw edge.
        """
        ids = np.asarray(edge_ids, dtype=ID_DTYPE)
        faces = self.edge_faces.take(ids, axis=0)
        j, i = np.divmod(faces, self.spec.width)
        segments = np.stack([i, j, i, j], axis=-1) + _SIDE_SEGMENTS[self.edge_sides.take(ids, axis=0)]
        second = (faces[:, 1] >= 0) & np.any(segments[:, 1] != segments[:, 0], axis=1)
        return segments[np.column_stack([np.ones(len(ids), dtype=bool), second])]

    def vertex_points(self, vertex_ids) -> np.ndarray:
        """(N, 2) grid points (i, j) of every raw vertex over the given
        vertices, in raw id order."""
        raw = np.flatnonzero(np.isin(self.vertex_map, np.asarray(vertex_ids, dtype=ID_DTYPE)))
        j, i = np.divmod(raw, self.spec.width + 1)
        return np.column_stack([i, j])

    def raw_edge_values(self, across_rows, across_columns, seams) -> np.ndarray:
        """``ID_DTYPE`` values laid out over the raw edges, in raw order.

        ``across_rows[j, i]`` goes to the edge between faces (i, j) and
        (i, j + 1), ``across_columns[j, i]`` to the edge between faces
        (i, j) and (i + 1, j), ``seams[k]`` to the k-th glued seam edge of
        ``seam_adjacency``, at its smaller raw id, and 0 to every other raw
        edge: the surface boundary and the larger raw id of each seam pair.
        Kept raw edges run in canonical edge order, so the values of the
        interior edges, read where they are not 0, come in edge order.
        """
        out = np.zeros(self.edge_map.size, dtype=ID_DTYPE)
        rows, columns = self._grid_sides(out)
        rows[...] = across_rows
        columns[...] = across_columns
        out[self._seam_raw] = seams
        return out

    def grid_interior_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge ids of the grid-interior sides, as views of ``edge_map``.

        The first is ``(H-1, W)``: its ``[j, i]`` is the edge between faces
        (i, j) and (i, j + 1).  The second is ``(H, W-1)``: its ``[j, i]``
        is the edge between faces (i, j) and (i + 1, j).
        """
        return self._grid_sides(self.edge_map)

    def _grid_sides(self, raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The grid-interior horizontal and vertical raw edges of a raw-edge
        array, as ``(H-1, W)`` and ``(H, W-1)`` views."""
        W, H = self.spec.width, self.spec.height
        HOFF = W * (H + 1)  # vertical raw edges start here
        return raw[:HOFF].reshape(H + 1, W)[1:H], raw[HOFF:].reshape(H, W + 1)[:, 1:W]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def build_complex(spec: SurfaceSpec) -> CellComplex:
    """The canonical cell complex of a quotient grid surface.

    One read-only complex is shared per spec; a spec among the
    ``SHARED_COMPLEXES`` most recently used is not built again.
    """
    return _shared_complex(spec)


@lru_cache(maxsize=SHARED_COMPLEXES)
def _shared_complex(spec: SurfaceSpec) -> CellComplex:
    return _build_complex(spec)


def _seams(spec: SurfaceSpec):
    """The seam identifications of a spec as flat raw id tables.

    Returns ``(vertex_pairs, edge_pairs, flipped)``: ``(2, N)`` arrays of
    the ``(far, near)`` raw id pairs of all glued seams, and the raw edges of
    the reversed seams, where orientation flips.  No raw edge is in two pairs.
    """
    W, H = spec.width, spec.height
    HOFF = W * (H + 1)  # vertical raw edges start here

    def vid(i, j):
        return j * (W + 1) + i

    def he(i, j):
        return j * W + i

    def ve(i, j):
        return HOFF + j * (W + 1) + i

    no_pairs = np.empty((2, 0), dtype=np.int64)
    vpairs, epairs, flipped = [no_pairs], [no_pairs], [no_pairs[0]]

    jv = np.arange(H + 1)
    je = np.arange(H)
    if spec.x_gluing == PERIODIC:
        vpairs.append((vid(W, jv), vid(0, jv)))
        epairs.append((ve(W, je), ve(0, je)))
    elif spec.x_gluing == REVERSED:
        vpairs.append((vid(W, jv), vid(0, H - jv)))
        epairs.append((ve(W, je), ve(0, H - 1 - je)))
        flipped.append(ve(W, je))

    iv = np.arange(W + 1)
    ie = np.arange(W)
    if spec.y_gluing == PERIODIC:
        vpairs.append((vid(iv, H), vid(iv, 0)))
        epairs.append((he(ie, H), he(ie, 0)))
    elif spec.y_gluing == REVERSED:
        vpairs.append((vid(iv, H), vid(W - iv, 0)))
        epairs.append((he(ie, H), he(W - 1 - ie, 0)))
        flipped.append(he(ie, H))
    return np.concatenate(vpairs, axis=1), np.concatenate(epairs, axis=1), np.concatenate(flipped)


def _seam_orbits(n: int, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orbits of the raw ids ``0..n-1``: the components of the seam pairs.

    Returns ``(keep, labels)``: ``keep`` marks the smallest raw id of each
    orbit, where the running maximum of the component labels rises, and
    orbits are numbered in increasing order of it.  A raw id no seam
    touches is an orbit of its own.
    """
    nodes, labels = touched_components(n, pairs)
    first = np.diff(np.maximum.accumulate(labels), prepend=-1) > 0
    keep = np.ones(n, dtype=bool)
    keep[nodes] = first
    # every raw id less the count of dropped ids up to it: the count steps
    # up once at each dropped id
    dropped = nodes[~first]
    orbits = np.arange(n, dtype=ID_DTYPE)
    orbits -= np.repeat(np.arange(len(dropped) + 1, dtype=ID_DTYPE), np.diff(dropped, prepend=0, append=n))
    orbits[nodes] = orbits[nodes[first]][labels]
    return keep, orbits


def _build_complex(spec: SurfaceSpec) -> CellComplex:
    """Construct the canonical cell complex of a quotient grid surface."""
    W, H = spec.width, spec.height
    n_faces = W * H
    HOFF = W * (H + 1)  # vertical raw edges start here
    n_raw_e = HOFF + (W + 1) * H

    vpairs, epairs, flipped = _seams(spec)
    vkeep, vertex_map = _seam_orbits((W + 1) * (H + 1), vpairs)
    ekeep, edge_map = _seam_orbits(n_raw_e, epairs)
    n_vertices = int(np.count_nonzero(vkeep))
    # canonical edge -> its smallest raw edge: kept raw edges run in edge order
    kept = np.flatnonzero(ekeep)
    n_edges = len(kept)

    vm = vertex_map.reshape(H + 1, W + 1)

    # the one or two faces of every raw edge, in (f, s) lex order: the face
    # below a horizontal edge (side N) before the one above it (side S), the
    # face left of a vertical edge (side E) before the one right of it (side
    # W); a grid-border edge has its one face in slot 0
    faces = np.arange(n_faces, dtype=ID_DTYPE).reshape(H, W)
    raw_faces = np.full((n_raw_e, 2), -1, dtype=ID_DTYPE)
    raw_sides = np.full((n_raw_e, 2), -1, dtype=np.int8)
    hf, hs = raw_faces[:HOFF].reshape(H + 1, W, 2), raw_sides[:HOFF].reshape(H + 1, W, 2)
    hf[1:, :, 0], hs[1:, :, 0] = faces, SIDE_N
    hf[1:H, :, 1], hs[1:H, :, 1] = faces[1:], SIDE_S
    hf[0, :, 0], hs[0, :, 0] = faces[0], SIDE_S
    vf, vs = raw_faces[HOFF:].reshape(H, W + 1, 2), raw_sides[HOFF:].reshape(H, W + 1, 2)
    vf[:, 1:, 0], vs[:, 1:, 0] = faces, SIDE_E
    vf[:, 1:W, 1], vs[:, 1:W, 1] = faces[:, 1:], SIDE_W
    vf[:, 0, 0], vs[:, 0, 0] = faces[:, 0], SIDE_W
    edge_faces = raw_faces.take(kept, axis=0)
    edge_sides = raw_sides.take(kept, axis=0)
    # a glued seam pair joins the lone incidences of its raw edges, smaller face first
    ab = np.where(raw_faces[epairs[0], 0] > raw_faces[epairs[1], 0], epairs[::-1], epairs).T
    e = edge_map[ab[:, 0]]
    edge_faces[e] = raw_faces[ab, 0]
    edge_sides[e] = raw_sides[ab, 0]
    del raw_faces, raw_sides

    edge_is_boundary = edge_faces[:, 1] < 0
    # two face sides name an interior edge, one a boundary edge: count the
    # edge on side S, E, N and W of every face, one (H, W) slice at a time
    counts = edge_is_boundary.astype(np.intp)
    emh, emv = edge_map[:HOFF].reshape(H + 1, W), edge_map[HOFF:].reshape(H, W + 1)
    for side in (emh[:H], emv[:, 1:], emh[1:], emv[:, :W]):
        counts += np.bincount(side.ravel(), minlength=n_edges)
    if np.any(counts != 2):
        raise InvariantViolation("edge incident to zero or more than two faces")

    edge_parity = np.ones(n_edges, dtype=np.int8)
    edge_parity[edge_map[flipped]] = -1

    edge_is_horizontal = np.zeros(n_edges, dtype=bool)
    edge_is_horizontal[:np.count_nonzero(ekeep[:HOFF])] = True

    # the two ends of every raw edge, then of the kept ones, smaller id first;
    # only ends on a seam can come out of order
    raw_ends = np.empty((n_raw_e, 2), dtype=ID_DTYPE)
    he, ve = raw_ends[:HOFF].reshape(H + 1, W, 2), raw_ends[HOFF:].reshape(H, W + 1, 2)
    he[..., 0], he[..., 1] = vm[:, :W], vm[:, 1:]
    ve[..., 0], ve[..., 1] = vm[:H], vm[1:]
    edge_vertices = raw_ends.take(kept, axis=0)
    del raw_ends
    swap = np.flatnonzero(edge_vertices[:, 0] > edge_vertices[:, 1])
    edge_vertices[swap] = edge_vertices[swap, ::-1]

    vertex_is_boundary = np.zeros(n_vertices, dtype=bool)
    vertex_is_boundary[edge_vertices.take(np.flatnonzero(edge_is_boundary), axis=0)] = True

    cx = CellComplex(
        spec=spec,
        n_vertices=n_vertices,
        n_edges=n_edges,
        n_faces=n_faces,
        edge_vertices=edge_vertices,
        edge_faces=edge_faces,
        edge_sides=edge_sides,
        edge_parity=edge_parity,
        edge_is_horizontal=edge_is_horizontal,
        edge_is_boundary=edge_is_boundary,
        vertex_is_boundary=vertex_is_boundary,
        vertex_map=vertex_map,
        edge_map=edge_map,
    )
    _validate_complex(cx)
    return cx


def _validate_complex(c: CellComplex) -> None:
    for name in ("edge_vertices", "edge_faces", "vertex_map", "edge_map"):
        dtype = getattr(c, name).dtype
        if dtype != ID_DTYPE:
            raise InvariantViolation(f"{name} holds {dtype} ids, expected {np.dtype(ID_DTYPE)}")
    if c.edge_sides.dtype != np.int8:
        raise InvariantViolation(f"edge_sides holds {c.edge_sides.dtype} values, expected int8")
    kind = c.spec.kind
    expected = SURFACES[kind]
    if c.euler_characteristic != expected.chi:
        raise InvariantViolation(
            f"chi = {c.euler_characteristic} for {kind}, expected {expected.chi}"
        )
    if c.n_boundary_components != expected.boundary_circles:
        raise InvariantViolation(
            f"{c.n_boundary_components} boundary components for {kind}, "
            f"expected {expected.boundary_circles}"
        )
    # a loop around any interior vertex is contractible, so the parities of
    # its incident edges must multiply to +1 even at reversed seams: each
    # interior vertex meets an even number of -1 endpoint slots
    flipped = np.flatnonzero((c.edge_parity == -1) & ~c.edge_is_boundary)
    ends, count = np.unique(c.edge_vertices[flipped], return_counts=True)
    if np.any((count % 2 == 1) & ~c.vertex_is_boundary[ends]):
        raise InvariantViolation("orientation parities inconsistent around a vertex")


def components(n: int, a, b) -> tuple[int, np.ndarray]:
    """Connected components of the undirected graph on nodes ``0..n-1``
    with edges ``a[k]-b[k]``.

    Returns ``(count, labels)`` with ``ID_DTYPE`` labels; component ids increase
    with each component's smallest node, so node 0 is always in component
    0.  scipy's undirected labelling already numbers them so, since it
    starts a new component at each unlabelled node in increasing order.

    The route uses two private scipy names, imported at module load so a
    scipy without them fails on import: ``_sparsetools.coo_tocsr`` builds
    the int32 CSR of ``a->b`` and of ``b->a`` by a linear counting sort
    (``csr``; no index sort, no duplicate summing; self-loops and repeated
    edges are harmless to a traversal), and ``csgraph._traversal.
    _connected_components_undirected`` labels the nodes from both tables.
    It was checked against the public ``connected_components`` on scipy
    1.17.1 only.  ``coo_tocsr`` does no bounds checking, so the range
    check here is mandatory: endpoints must be integers in ``0..n-1`` and
    ``n`` and the edge count below 2**31, checked on the caller's values
    before the int32 cast, so that no value wraps or reaches compiled code
    out of range; any violation raises ``ValueError``.  Endpoints that are
    already ``ID_DTYPE``, as every id table here is, are not copied.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    n = operator.index(n)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"edge endpoints must be two 1-d arrays of one length, got {a.shape} and {b.shape}")
    m = len(a)
    if not 0 <= n < _INT32_LIMIT or m >= _INT32_LIMIT:
        raise ValueError(f"{n} nodes and {m} edges must both be below 2**31")
    if m:  # an empty edge list (even a float one, as ``[]`` is) holds no value to check
        for ends in (a, b):
            if ends.dtype.kind not in "iu":
                raise ValueError(f"edge endpoints must be integers, got {ends.dtype} values")
            if ends.min() < 0 or ends.max() >= n:
                raise ValueError(f"edge endpoints must lie in 0..{n - 1}")
    a = a.astype(ID_DTYPE, copy=False)
    b = b.astype(ID_DTYPE, copy=False)
    ptr, idx = csr(n, a, b)
    ptr_t, idx_t = csr(n, b, a)
    labels = np.full(n, -1, dtype=ID_DTYPE)
    count = _connected_components_undirected(idx, ptr, idx_t, ptr_t, labels)
    return int(count), labels


def csr(n: int, rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ptr, idx): the int32 CSR table of the pairs ``rows[k] -> cols[k]``
    over the rows ``0..n-1``, by scipy's linear counting sort ``coo_tocsr``.

    The sort is stable: the columns of row r are ``idx[ptr[r]:ptr[r + 1]]``
    in input order, so it also groups values by an integer key.  It does no
    bounds checking and no duplicate summing: ``rows`` and ``cols`` must be
    ``ID_DTYPE`` arrays of one length, with every row in ``0..n-1``, which
    each caller checks first (``components`` its endpoints, the flood fill
    its round keys).
    """
    m = len(rows)
    # the sort moves a value with each pair; they are never read, so one
    # all-true array serves as both the values and their sorted copy
    data = np.ones(m, dtype=bool)
    ptr, idx = np.empty(n + 1, dtype=np.int32), np.empty(m, dtype=np.int32)
    coo_tocsr(n, n, m, rows, cols, data, ptr, idx, data)
    return ptr, idx


def touched_components(n: int, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``components`` of the edges ``ends[0, k]-ends[1, k]`` over the nodes
    ``0..n-1`` they touch: the touched nodes in increasing order and the
    component id of each."""
    touched = np.zeros(n, dtype=bool)
    touched[ends] = True
    nodes = np.flatnonzero(touched).astype(ID_DTYPE)
    slot = np.empty(n, dtype=ID_DTYPE)
    slot[nodes] = np.arange(len(nodes), dtype=ID_DTYPE)
    return nodes, components(len(nodes), *slot[ends])[1]


def subgraph_component_count(c: CellComplex, edge_ids: np.ndarray) -> int:
    """Number of connected components of an edge subgraph.

    Components are counted over the vertices actually touched by the given
    edges; isolated vertices of the ambient complex do not contribute.
    """
    ends = c.edge_vertices.take(np.asarray(edge_ids, dtype=ID_DTYPE), axis=0)
    _nodes, labels = touched_components(c.n_vertices, ends.T)
    return int(labels.max()) + 1 if labels.size else 0


def boundary_components(c: CellComplex) -> int:
    """Number of connected components of the surface boundary, counted
    once per complex."""
    return c.n_boundary_components
