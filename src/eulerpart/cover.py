"""Orientation double covers of the moebius and klein surfaces.

The cover of a ``W x H`` moebius grid is the ``W x 2H`` cylinder; the
cover of a klein grid is the torus of the same dimensions.  The covering
map sends a cover face ``(i, j)`` with ``j >= H`` to the base face
``(W-1-i, j-H)``, and the deck involution is
``(i, j) -> (W-1-i, (j+H) mod 2H)``.  Both are closed forms of (W, H), so
a ``CoverStructure`` stores neither: the lower sheet lies over the base
grid as it is and the upper sheet over its mirror in x, which is how a
lift lays out the base domains below the cover faces, with no index
gather.

The cover needs no edge projection either.  Side ``s`` of a cover face
lies over side ``s`` of the base face below it, except that on the
mirrored upper sheet E and W swap, so a base wall, seen from its first
face (``edge_faces[w, 0]``), lifts to the edge under that side of the
lower-sheet face over it and the edge under the mirrored side of the
upper-sheet face over it: two slots, read in closed form by the cover's
``slot_edges``.

A base domain is orientable iff its preimage in the cover splits into two
components, which gives a second, independent route to the orientability
bits that ``from_labels`` finds from the balance of the pieces joined
across the reversed seams.  The preimage count reads each lifted domain's
base domain back from every lifted face, so a lift that straddles two
base domains is an invariant violation rather than a miscount.

A lift and its preimage counts are computed together, from one layout of
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

#: base side -> the side of the mirrored upper-sheet face over it
_MIRRORED_SIDE = np.array([SIDE_S, SIDE_W, SIDE_N, SIDE_E], dtype=np.int8)


@dataclass(frozen=True, eq=False)
class CoverStructure:
    """A base complex and the complex of its double cover.

    The face projection, the deck map and the lift of a wall are the
    closed forms of the module docstring, so it holds only the two
    complexes and its memo of lifts.
    """

    base: CellComplex
    cover: CellComplex
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
    cover = build_complex(SurfaceSpec.named(COVERABLE[kind], c.spec.width, 2 * c.spec.height))
    if not np.all((cover.edge_parity == 1) | cover.edge_is_boundary):
        raise InvariantViolation("cover complex is not orientable")
    return CoverStructure(base=c, cover=cover)


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

    The base domain below every cover face (the base labels, then their
    mirror in x) is laid out once and serves both: it labels the lift, and
    it is read back from every lifted face, so a lifted domain that
    straddles two base domains is an invariant violation rather than a
    miscount.
    """
    if p.complex is not cs.base and p.complex.spec != cs.base.spec:
        raise ValueError("partition does not live on the base of this cover")
    entry = cs._lifts.get(p)
    if entry is None:
        d, W, H = p.domains, cs.base.spec.width, cs.base.spec.height
        below = np.concatenate([d, d.reshape(H, W)[:, ::-1].ravel()])
        walls = ()
        if p.walls:
            # each wall from its first face f: the same side of cover face f,
            # then the mirrored side of the upper-sheet face over f
            w = np.flatnonzero(p.wall_mask)
            f, s = cs.base.edge_faces[w, 0], cs.base.edge_sides[w, 0]
            upper = cs.base.n_faces + f - f % W + W - 1 - f % W
            walls = cs.cover.slot_edges(np.concatenate([4 * f + s, 4 * upper + _MIRRORED_SIDE[s]]))
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
