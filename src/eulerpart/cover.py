"""Orientation double covers of the moebius and klein surfaces.

The cover of a ``W x H`` moebius grid is the ``W x 2H`` cylinder; the
cover of a klein grid is the torus of the same dimensions.  The covering
map sends a cover face ``(i, j)`` with ``j >= H`` to the base face
``(W-1-i, j-H)``, and the deck involution is
``(i, j) -> (W-1-i, (j+H) mod 2H)``.

Edges project through the face tables of the two complexes, so the cover
needs no raw edge numbering of its own: side ``s`` of a cover face lies
over side ``s`` of the base face below it, except that on the mirrored
upper sheet E and W swap.  A cover edge projects to the base edge that
its first face (``edge_faces[e, 0]``) sees, and an edge between two cover
faces must be seen as the same base edge from both.

A base domain is orientable iff its preimage in the cover splits into two
components, which gives a second, independent route to the orientability
bits that ``from_labels`` finds from the balance of the pieces joined
across the reversed seams.  The preimage count reads each lifted domain's
base domain back from every lifted face, so a lift that straddles two
base domains is an invariant violation rather than a miscount.

A lift and its preimage counts are computed together, from one gather of
the base domains below the cover faces, and memoized per (cover, base
partition) in a weak mapping held by the ``CoverStructure``: the
bookkeeping and the orientability check share them, and both go when
their base partition does.
Lifted partitions live on orientable covers, where no glued edge reverses,
so their labelling is a single component pass.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from .complexes import ID_DTYPE, SIDE_E, SIDE_N, SIDE_S, SIDE_W, CellComplex, SurfaceSpec, build_complex
from .errors import InvariantViolation
from .partition import Partition, boundary_graph, from_labels, invariants

COVERABLE = {"moebius": "cylinder", "klein": "torus"}


@dataclass(frozen=True, eq=False)
class CoverStructure:
    base: CellComplex
    cover: CellComplex
    face_projection: np.ndarray   # cover face -> base face, ID_DTYPE like every id table
    face_deck: np.ndarray         # cover face -> cover face, the involution
    edge_projection: np.ndarray   # cover edge -> base edge
    # base partition -> (its lift, its preimage counts); an entry lives as
    # long as its base
    _lifts: weakref.WeakKeyDictionary = field(
        default_factory=weakref.WeakKeyDictionary, init=False, repr=False
    )


def double_cover(c: CellComplex) -> CoverStructure:
    """Build the orientation double cover of a moebius or klein complex."""
    kind = c.spec.kind
    if kind not in COVERABLE:
        raise ValueError(f"double cover supported for {sorted(COVERABLE)}, not {kind}")
    if c.spec.y_gluing != "reversed":
        raise ValueError("double cover construction expects the reversed seam in y")
    W, H = c.spec.width, c.spec.height
    cover = build_complex(SurfaceSpec.named(COVERABLE[kind], W, 2 * H))

    # the lower sheet, cover faces below c.n_faces, lies over the base as it
    # is; the upper sheet is mirrored in x, and the deck swaps the sheets
    straight = np.arange(c.n_faces, dtype=ID_DTYPE)
    mirrored = straight.reshape(H, W)[:, ::-1].ravel()
    face_projection = np.concatenate([straight, mirrored])
    face_deck = np.concatenate([mirrored + c.n_faces, mirrored])

    # on the mirrored sheet E and W swap
    below = np.empty((2 * c.n_faces, 4), dtype=ID_DTYPE)
    below[:c.n_faces] = c.face_edges
    upper, mirror = below[c.n_faces:].reshape(H, W, 4), c.face_edges.reshape(H, W, 4)[:, ::-1]
    for side, base_side in ((SIDE_S, SIDE_S), (SIDE_E, SIDE_W), (SIDE_N, SIDE_N), (SIDE_W, SIDE_E)):
        upper[..., side] = mirror[..., base_side]
    # each cover edge projects as its first face sees it, at slot 4*face + side
    first = np.multiply(cover.edge_faces[:, 0], 4, dtype=np.intp)
    first += cover.edge_sides[:, 0]
    edge_projection = below.ravel().take(first)

    cs = CoverStructure(
        base=c,
        cover=cover,
        face_projection=face_projection,
        face_deck=face_deck,
        edge_projection=edge_projection,
    )
    _validate_cover(cs, below)
    return cs


def _validate_cover(cs: CoverStructure, below: np.ndarray) -> None:
    for name in ("face_projection", "face_deck", "edge_projection"):
        dtype = getattr(cs, name).dtype
        if dtype != ID_DTYPE:
            raise InvariantViolation(f"{name} holds {dtype} ids, expected {np.dtype(ID_DTYPE)}")
    a, pi = cs.face_deck, cs.face_projection
    if not np.array_equal(a.take(a), np.arange(len(a))):
        raise InvariantViolation("deck map is not an involution")
    if np.any(a == np.arange(len(a))):
        raise InvariantViolation("deck map has a fixed face")
    if not np.array_equal(pi.take(a), pi):
        raise InvariantViolation("deck map does not commute with the projection")
    if np.any(np.bincount(pi, minlength=cs.base.n_faces) != 2):
        raise InvariantViolation("base face without exactly two preimages")
    # every face side must read back the projection of its edge, so the two
    # faces of an edge see one base edge
    if not np.array_equal(cs.edge_projection.take(cs.cover.face_edges), below):
        raise InvariantViolation("the two faces of a cover edge project it differently")
    if not np.all((cs.cover.edge_parity == 1) | cs.cover.edge_is_boundary):
        raise InvariantViolation("cover complex is not orientable")


def lift_partition(cs: CoverStructure, p: Partition) -> Partition:
    """Pull a base partition back through the covering map.

    The lift is computed once per (cover, base partition) and shared by
    every later call; it holds no reference to its base, so the cache
    entry goes when the base partition does.
    """
    return _lift(cs, p)[0]


def preimage_component_counts(cs: CoverStructure, p: Partition) -> np.ndarray:
    """Number of cover components over each base domain (always 1 or 2).

    Counted once per (cover, base partition), beside the lift, and
    returned read-only.
    """
    return _lift(cs, p)[1]


def _lift(cs: CoverStructure, p: Partition) -> tuple[Partition, np.ndarray]:
    """(lift, preimage counts) of a base partition, memoized in ``cs._lifts``.

    The base domain below every cover face is gathered once and serves
    both: it labels the lift, and it is read back from every lifted face,
    so a lifted domain that straddles two base domains is an invariant
    violation rather than a miscount.
    """
    if p.complex is not cs.base and p.complex.spec != cs.base.spec:
        raise ValueError("partition does not live on the base of this cover")
    entry = cs._lifts.get(p)
    if entry is None:
        below = p.domains.take(cs.face_projection)
        walls = np.flatnonzero(p.wall_mask.take(cs.edge_projection)) if p.walls else ()
        lifted = from_labels(cs.cover, below, walls=walls)
        base_of = np.empty(lifted.n_domains, dtype=ID_DTYPE)
        base_of[lifted.domains] = below
        if not np.array_equal(base_of.take(lifted.domains), below):
            raise InvariantViolation("a lifted domain lies over more than one base domain")
        counts = np.bincount(base_of, minlength=p.n_domains)
        if not np.all((counts == 1) | (counts == 2)):
            raise InvariantViolation(f"preimage component counts {counts.tolist()} outside {{1,2}}")
        counts.flags.writeable = False
        entry = cs._lifts[p] = (lifted, counts)
    return entry


def omega_via_cover(cs: CoverStructure, p: Partition) -> np.ndarray:
    """Per-domain orientability: orientable iff the preimage has two parts."""
    return preimage_component_counts(cs, p) == 2


@dataclass(frozen=True)
class CoverReport:
    kappa: int
    beta: int
    sigma: int
    kappa_star: int
    beta_star: int
    sigma_star: int
    n_nonorientable: int
    preimage_counts: tuple
    beta_interior: int            # base boundary-set components off the surface boundary
    beta_interior_star: int
    boundary_circles_joined: bool  # the two cover boundary circles meet through the lifted set
    relation_flags: dict


def cover_bookkeeping(cs: CoverStructure, p: Partition) -> CoverReport:
    """Lift a partition and check the covering relations.

    kappa* = 2 kappa - n and sigma* = 2 sigma are asserted outright.  The
    beta relations (beta* = 2 beta_i - 1 with every domain orientable and
    the cover boundary circles unjoined; beta* = 2 beta with exactly one
    non-orientable domain) are recorded as flagged observations together
    with their preconditions, not hard assertions.
    """
    lifted = lift_partition(cs, p)
    base_rep = invariants(p)
    cover_rep = invariants(lifted)
    counts = preimage_component_counts(cs, p)
    n_bad = int(np.sum(counts == 1))

    if cover_rep.kappa != 2 * base_rep.kappa - n_bad:
        raise InvariantViolation(
            f"kappa* = {cover_rep.kappa} != 2*{base_rep.kappa} - {n_bad}"
        )
    if cover_rep.sigma != 2 * base_rep.sigma:
        raise InvariantViolation(f"sigma* = {cover_rep.sigma} != 2*{base_rep.sigma}")

    joined = _cover_boundary_joined(lifted)
    flags = {
        "beta_star_eq_2beta_interior_minus_1": {
            "applies": n_bad == 0 and not joined and cs.cover.spec.kind == "cylinder",
            "holds": cover_rep.beta == 2 * base_rep.beta_interior - 1,
        },
        "beta_star_eq_2beta": {
            "applies": n_bad == 1,
            "holds": cover_rep.beta == 2 * base_rep.beta,
        },
    }
    return CoverReport(
        kappa=base_rep.kappa,
        beta=base_rep.beta,
        sigma=base_rep.sigma,
        kappa_star=cover_rep.kappa,
        beta_star=cover_rep.beta,
        sigma_star=cover_rep.sigma,
        n_nonorientable=n_bad,
        preimage_counts=tuple(int(x) for x in counts),
        beta_interior=base_rep.beta_interior,
        beta_interior_star=cover_rep.beta_interior,
        boundary_circles_joined=joined,
        relation_flags=flags,
    )


def _cover_boundary_joined(lifted: Partition) -> bool:
    """Do the two cover boundary circles share a component of the lifted
    boundary set united with the cover boundary?  Reads the lift's census
    of that union, which its beta already read."""
    c = lifted.complex
    if c.spec.closed:
        return False
    bg = boundary_graph(lifted)
    verts, comp = bg.union_vertices, bg.union_labels
    # the cylinder cover's boundary circles are the seams x=0 and x=W
    lo = c.vertex_id(0, 0)
    hi = c.vertex_id(c.spec.width, 0)
    return bool(comp[np.searchsorted(verts, lo)] == comp[np.searchsorted(verts, hi)])
