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

Seam orbits are closed under *both* gluing maps (corner orbits of the
projective model need the composition of the two), which taking connected
components of the seam identifications handles by construction.

``components`` is the one graph primitive of the package: every count of
domains, pieces, corner orbits, boundary cycles and boundary-set arcs is a
``scipy.sparse.csgraph`` component labelling over index arrays.

Complexes are shared.  ``build_complex`` returns one complex per
``SurfaceSpec`` and keeps the ``SHARED_COMPLEXES`` most recently used ones
alive, so a caller that asks again for a spec it used lately (the levels
of a nodal refinement, a JSON reload) gets the complex it had, with every
per-complex table already computed.  A shared complex must not change, so
its arrays and cached tables are read-only; ``dataclasses.replace`` with
copied arrays makes a modified complex.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property, lru_cache

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .errors import InvariantViolation

OPEN = "open"
PERIODIC = "periodic"
REVERSED = "reversed"
GLUINGS = (OPEN, PERIODIC, REVERSED)

#: preset name -> (x_gluing, y_gluing)
PRESETS = {
    "rectangle": (OPEN, OPEN),
    "cylinder": (OPEN, PERIODIC),
    "moebius": (OPEN, REVERSED),
    "torus": (PERIODIC, PERIODIC),
    "klein": (PERIODIC, REVERSED),
    "projective": (REVERSED, REVERSED),
}

_KIND_BY_GLUINGS = {tuple(sorted(v)): k for k, v in PRESETS.items()}

#: exact Euler characteristic of each surface
EXPECTED_CHI = {
    "rectangle": 1,
    "cylinder": 0,
    "moebius": 0,
    "torus": 0,
    "klein": 0,
    "projective": 1,
}

#: number of boundary circles of each surface
EXPECTED_BOUNDARY_COMPONENTS = {
    "rectangle": 1,
    "cylinder": 2,
    "moebius": 1,
    "torus": 0,
    "klein": 0,
    "projective": 0,
}

#: complexes kept alive by ``build_complex``: the six presets at one size
#: plus two covers, or a nodal refinement ladder (up to six sizes)
SHARED_COMPLEXES = 8

# face side order: 0=S, 1=E, 2=N, 3=W; side s runs from corner s to corner
# (s+1) % 4 in the cyclic corner order 0=SW, 1=SE, 2=NE, 3=NW.
SIDE_S, SIDE_E, SIDE_N, SIDE_W = 0, 1, 2, 3


@dataclass(frozen=True)
class SurfaceSpec:
    """Dimensions and seam gluings of a quotient grid surface."""

    width: int
    height: int
    x_gluing: str = OPEN
    y_gluing: str = OPEN

    def __post_init__(self):
        if not (isinstance(self.width, int) and isinstance(self.height, int)):
            raise TypeError("width and height must be integers")
        if self.width < 2 or self.height < 2:
            raise ValueError("width and height must be at least 2")
        if self.x_gluing not in GLUINGS or self.y_gluing not in GLUINGS:
            raise ValueError(f"gluings must be one of {GLUINGS}")

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
        try:
            gx, gy = PRESETS[name]
        except KeyError:
            raise ValueError(f"unknown surface {name!r}; presets: {sorted(PRESETS)}")
        return cls(width, height, gx, gy)

    @classmethod
    def rectangle(cls, width: int, height: int) -> "SurfaceSpec":
        return cls.named("rectangle", width, height)

    @classmethod
    def cylinder(cls, width: int, height: int) -> "SurfaceSpec":
        return cls.named("cylinder", width, height)

    @classmethod
    def moebius(cls, width: int, height: int) -> "SurfaceSpec":
        return cls.named("moebius", width, height)

    @classmethod
    def torus(cls, width: int, height: int) -> "SurfaceSpec":
        return cls.named("torus", width, height)

    @classmethod
    def klein(cls, width: int, height: int) -> "SurfaceSpec":
        return cls.named("klein", width, height)

    @classmethod
    def projective(cls, width: int, height: int) -> "SurfaceSpec":
        return cls.named("projective", width, height)


@dataclass(frozen=True, eq=False)
class CellComplex:
    """A quotient grid surface with canonical vertex/edge orbits.

    All arrays are indexed by canonical ids.  ``edge_faces`` holds the one
    or two incident faces of every edge (-1 in the second slot for boundary
    edges); ``edge_sides`` holds the side of each incident face the edge
    occupies; ``edge_parity`` is +1 where the two incident charts agree in
    orientation across the edge and -1 across a reversed seam.
    """

    spec: SurfaceSpec
    n_vertices: int
    n_edges: int
    n_faces: int
    edge_vertices: np.ndarray     # (E, 2) canonical endpoint ids, sorted
    edge_faces: np.ndarray        # (E, 2) face ids, -1 pad
    edge_sides: np.ndarray        # (E, 2) side of edge in each face, -1 pad
    edge_parity: np.ndarray       # (E,)  +1 / -1
    edge_is_horizontal: np.ndarray  # (E,) True for x-direction edges
    edge_is_boundary: np.ndarray  # (E,) bool
    vertex_is_boundary: np.ndarray  # (V,) bool
    face_edges: np.ndarray        # (F, 4) edge id per side S,E,N,W
    face_vertices: np.ndarray     # (F, 4) vertex id per corner SW,SE,NE,NW
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

    @cached_property
    def interior_edges(self) -> np.ndarray:
        return _read_only(np.flatnonzero(~self.edge_is_boundary))

    @cached_property
    def boundary_edges(self) -> np.ndarray:
        return _read_only(np.flatnonzero(self.edge_is_boundary))

    @cached_property
    def n_boundary_components(self) -> int:
        """Number of connected components of the surface boundary."""
        return subgraph_component_count(self, self.boundary_edges)

    @cached_property
    def adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(face_a, face_b, parity, edge_id) over all interior edges."""
        ids = self.interior_edges
        return (
            _read_only(self.edge_faces[ids, 0]),
            _read_only(self.edge_faces[ids, 1]),
            _read_only(self.edge_parity[ids]),
            ids,
        )

    @cached_property
    def directed_adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(source, target, by_source, start), int32: the flood-fill table.

        Rows are the interior adjacencies in both directions, the
        ``adjacency`` pairs (face_a, face_b) first and then (face_b,
        face_a).  The rows leaving face f are
        ``by_source[start[f]:start[f + 1]]``, in increasing row order.
        """
        fa, fb, _par, _ids = self.adjacency
        source = np.concatenate([fa, fb]).astype(np.int32)
        target = np.concatenate([fb, fa]).astype(np.int32)
        by_source = np.argsort(source, kind="stable").astype(np.int32)
        start = np.zeros(self.n_faces + 1, dtype=np.int32)
        np.cumsum(np.bincount(source, minlength=self.n_faces), out=start[1:])
        return _read_only(source), _read_only(target), _read_only(by_source), _read_only(start)

    @cached_property
    def vertex_faces(self):
        """CSR-style incidence: faces around each canonical vertex."""
        corners = self.face_vertices.ravel()
        faces = np.repeat(np.arange(self.n_faces, dtype=np.int64), 4)
        order = np.argsort(corners, kind="stable")
        starts = np.searchsorted(corners[order], np.arange(self.n_vertices + 1))
        return _read_only(starts), _read_only(faces[order])

    @cached_property
    def slot_partners(self) -> np.ndarray:
        """(4F, 2) corner slot matched to each slot across its two sides.

        Slots are ``4*face + corner``.  Slot ``(f, c)`` touches side ``c``
        (where corner ``c`` starts) and side ``c - 1`` (where it ends);
        column 0 holds the slot over the same vertex in the face across
        side ``c``, column 1 the one across side ``c - 1``, and -1 marks a
        side on the surface boundary.  Built once per complex from the
        corner matching across every interior edge.
        """
        ids = self.interior_edges
        fa, fb = self.edge_faces[ids, 0], self.edge_faces[ids, 1]
        sa, sb = self.edge_sides[ids, 0], self.edge_sides[ids, 1]
        fv = self.face_vertices
        ca, cb = sa, (sa + 1) % 4
        da, db = sb, (sb + 1) % 4
        # match the two corners of each edge by underlying vertex
        va, wa = fv[fa, ca], fv[fb, da]
        straight = va == wa
        if not np.all(np.where(straight, fv[fa, cb] == fv[fb, db], (va == fv[fb, db]) & (fv[fa, cb] == wa))):
            raise InvariantViolation("edge corner matching failed")
        a0, a1 = 4 * fa + ca, 4 * fa + cb
        b0, b1 = 4 * fb + da, 4 * fb + db
        out = np.full((4 * self.n_faces, 2), -1, dtype=np.int64)
        # a corner that starts its side looks across it from column 0
        out[a0, 0] = np.where(straight, b0, b1)
        out[a1, 1] = np.where(straight, b1, b0)
        out[b0, 0] = np.where(straight, a0, a1)
        out[b1, 1] = np.where(straight, a1, a0)
        return _read_only(out)

    @cached_property
    def vertex_slot(self) -> np.ndarray:
        """(V,) one corner slot over each vertex (which one is unspecified)."""
        out = np.empty(self.n_vertices, dtype=np.int64)
        out[self.face_vertices.ravel()] = np.arange(4 * self.n_faces, dtype=np.int64)
        return _read_only(out)

    def faces_at_vertex(self, v: int) -> np.ndarray:
        starts, faces = self.vertex_faces
        return np.unique(faces[starts[v]:starts[v + 1]])

    # -- raw-coordinate helpers ------------------------------------------

    def vertex_id(self, i: int, j: int) -> int:
        """Canonical id of grid vertex (i, j), 0 <= i <= W, 0 <= j <= H."""
        W, H = self.spec.width, self.spec.height
        if not (0 <= i <= W and 0 <= j <= H):
            raise ValueError(f"vertex ({i},{j}) outside grid")
        return int(self.vertex_map[j * (W + 1) + i])

    def horizontal_edge(self, i: int, j: int) -> int:
        """Canonical id of the edge from (i, j) to (i+1, j)."""
        W, H = self.spec.width, self.spec.height
        if not (0 <= i < W and 0 <= j <= H):
            raise ValueError(f"horizontal edge ({i},{j}) outside grid")
        return int(self.edge_map[j * W + i])

    def vertical_edge(self, i: int, j: int) -> int:
        """Canonical id of the edge from (i, j) to (i, j+1)."""
        W, H = self.spec.width, self.spec.height
        if not (0 <= i <= W and 0 <= j < H):
            raise ValueError(f"vertical edge ({i},{j}) outside grid")
        return int(self.edge_map[W * (H + 1) + j * (W + 1) + i])

    def face_index(self, i: int, j: int) -> int:
        W, H = self.spec.width, self.spec.height
        if not (0 <= i < W and 0 <= j < H):
            raise ValueError(f"face ({i},{j}) outside grid")
        return j * W + i

    @cached_property
    def edge_raw_representatives(self) -> tuple[np.ndarray, ...]:
        """Raw edge ids in each canonical orbit (1 or 2 entries)."""
        order = _read_only(np.argsort(self.edge_map, kind="stable"))
        starts = np.searchsorted(self.edge_map[order], np.arange(self.n_edges + 1))
        return tuple(order[starts[k]:starts[k + 1]] for k in range(self.n_edges))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _raw_edge_endpoints(W: int, H: int) -> np.ndarray:
    """Raw endpoint vertex ids of every raw edge, horizontal block first."""
    n_h = W * (H + 1)
    n_v = (W + 1) * H
    out = np.empty((n_h + n_v, 2), dtype=np.int64)
    j, i = np.divmod(np.arange(n_h), W)
    out[:n_h, 0] = j * (W + 1) + i
    out[:n_h, 1] = j * (W + 1) + i + 1
    j, i = np.divmod(np.arange(n_v), W + 1)
    out[n_h:, 0] = j * (W + 1) + i
    out[n_h:, 1] = (j + 1) * (W + 1) + i
    return out


def build_complex(spec: SurfaceSpec) -> CellComplex:
    """The canonical cell complex of a quotient grid surface.

    One read-only complex is shared per spec; a spec among the
    ``SHARED_COMPLEXES`` most recently used is not built again.
    """
    return _shared_complex(spec)


@lru_cache(maxsize=SHARED_COMPLEXES)
def _shared_complex(spec: SurfaceSpec) -> CellComplex:
    return _build_complex(spec)


def _build_complex(spec: SurfaceSpec) -> CellComplex:
    """Construct the canonical cell complex of a quotient grid surface."""
    W, H = spec.width, spec.height
    n_faces = W * H
    n_raw_v = (W + 1) * (H + 1)
    HOFF = W * (H + 1)  # vertical raw edges start here
    n_raw_e = HOFF + (W + 1) * H

    def vid(i, j):
        return j * (W + 1) + i

    def he(i, j):
        return j * W + i

    def ve(i, j):
        return HOFF + j * (W + 1) + i

    vpairs: list[tuple[np.ndarray, np.ndarray]] = []
    epairs: list[tuple[np.ndarray, np.ndarray]] = []
    # raw edges of the reversed seams, where orientation flips
    flipped_raw: list[np.ndarray] = []

    jv = np.arange(H + 1)
    je = np.arange(H)
    if spec.x_gluing == PERIODIC:
        vpairs.append((vid(W, jv), vid(0, jv)))
        epairs.append((ve(W, je), ve(0, je)))
    elif spec.x_gluing == REVERSED:
        vpairs.append((vid(W, jv), vid(0, H - jv)))
        epairs.append((ve(W, je), ve(0, H - 1 - je)))
        flipped_raw.append(ve(W, je))

    iv = np.arange(W + 1)
    ie = np.arange(W)
    if spec.y_gluing == PERIODIC:
        vpairs.append((vid(iv, H), vid(iv, 0)))
        epairs.append((he(ie, H), he(ie, 0)))
    elif spec.y_gluing == REVERSED:
        vpairs.append((vid(iv, H), vid(W - iv, 0)))
        epairs.append((he(ie, H), he(W - 1 - ie, 0)))
        flipped_raw.append(he(ie, H))

    # vertex orbits: components of the seam identifications, numbered by
    # their smallest raw id; corner orbits close up under the composition
    # of both seam maps automatically
    va, vb = np.concatenate(vpairs, axis=1) if vpairs else ((), ())
    n_vertices, vertex_map = components(n_raw_v, va, vb)

    # edge orbits have at most two members; pair straight to the minimum
    eroot = np.arange(n_raw_e, dtype=np.int64)
    for a_arr, b_arr in epairs:
        lo = np.minimum(a_arr, b_arr)
        hi = np.maximum(a_arr, b_arr)
        eroot[hi] = lo
    uniq_e, edge_map = np.unique(eroot, return_inverse=True)
    n_edges = len(uniq_e)

    # face incidence tables straight from the grid
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

    # scatter (face, side) incidences into per-edge slots, (f, s) lex order
    flat_edges = face_edges.ravel()
    flat_faces = np.repeat(np.arange(n_faces, dtype=np.int64), 4)
    flat_sides = np.tile(np.arange(4, dtype=np.int64), n_faces)
    order = np.argsort(flat_edges, kind="stable")
    sorted_e = flat_edges[order]
    first = np.searchsorted(sorted_e, np.arange(n_edges))
    counts = np.searchsorted(sorted_e, np.arange(n_edges), side="right") - first
    if counts.min() < 1 or counts.max() > 2:
        raise InvariantViolation("edge incident to zero or more than two faces")
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

    edge_is_boundary = ~two
    edge_is_horizontal = uniq_e < HOFF

    raw_ev = _raw_edge_endpoints(W, H)
    edge_vertices = np.sort(vertex_map[raw_ev[uniq_e]], axis=1)

    vertex_is_boundary = np.zeros(n_vertices, dtype=bool)
    vertex_is_boundary[edge_vertices[edge_is_boundary].ravel()] = True

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
        face_edges=face_edges,
        face_vertices=face_vertices,
        vertex_map=vertex_map,
        edge_map=edge_map,
    )
    _validate_complex(cx)
    return cx


def _validate_complex(c: CellComplex) -> None:
    kind = c.spec.kind
    if c.euler_characteristic != EXPECTED_CHI[kind]:
        raise InvariantViolation(
            f"chi = {c.euler_characteristic} for {kind}, expected {EXPECTED_CHI[kind]}"
        )
    if c.n_boundary_components != EXPECTED_BOUNDARY_COMPONENTS[kind]:
        raise InvariantViolation(
            f"{c.n_boundary_components} boundary components for {kind}, "
            f"expected {EXPECTED_BOUNDARY_COMPONENTS[kind]}"
        )
    # a loop around any interior vertex is contractible, so the parities of
    # its incident edges must multiply to +1 even at reversed seams: each
    # interior vertex meets an even number of -1 endpoint slots
    ids = c.interior_edges
    flipped = ids[c.edge_parity[ids] == -1]
    odd = np.bincount(c.edge_vertices[flipped].ravel(), minlength=c.n_vertices) % 2
    if np.any(odd[~c.vertex_is_boundary]):
        raise InvariantViolation("orientation parities inconsistent around a vertex")


def euler_characteristic(c: CellComplex) -> int:
    """V - E + F of the quotient complex."""
    return c.euler_characteristic


def components(n: int, a, b) -> tuple[int, np.ndarray]:
    """Connected components of the undirected graph on nodes ``0..n-1``
    with edges ``a[k]-b[k]``.

    Returns ``(count, labels)``; component ids increase with each
    component's smallest node, so node 0 is always in component 0.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    g = coo_matrix((np.ones(len(a), dtype=bool), (a, b)), shape=(n, n))
    count, comp = connected_components(g, directed=False)
    first = np.full(count, n, dtype=np.int64)
    np.minimum.at(first, comp, np.arange(n, dtype=np.int64))
    rank = np.empty(count, dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(count)
    return int(count), rank[comp]


def edge_components(c: CellComplex, edge_ids) -> tuple[np.ndarray, np.ndarray]:
    """Components of an edge subgraph over the vertices its edges touch.

    Returns ``(verts, labels)``: the touched canonical vertices in
    increasing order and the component id of each.
    """
    ev = c.edge_vertices[np.asarray(edge_ids, dtype=np.int64)]
    verts, idx = np.unique(ev, return_inverse=True)
    idx = idx.reshape(ev.shape)
    return verts, components(len(verts), idx[:, 0], idx[:, 1])[1]


def subgraph_component_count(c: CellComplex, edge_ids: np.ndarray) -> int:
    """Number of connected components of an edge subgraph.

    Components are counted over the vertices actually touched by the given
    edges; isolated vertices of the ambient complex do not contribute.
    """
    _verts, labels = edge_components(c, edge_ids)
    return int(labels.max()) + 1 if labels.size else 0


def boundary_components(c: CellComplex) -> int:
    """Number of connected components of the surface boundary, counted
    once per complex."""
    return c.n_boundary_components
