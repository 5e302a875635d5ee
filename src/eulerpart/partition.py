"""Labelled partitions of a quotient grid surface and their invariants.

A partition assigns every face a domain.  Domains are the connected
components of equal-label faces under interior face adjacency, where a
set of *wall* edges (interior edges promoted to boundary-set edges, used
by cut surgery) blocks adjacency.  The boundary set consists of the
interior edges whose two sides lie in different domains, together with
the walls.

The invariants computed here are exact integers:

kappa   number of domains;
beta    components of (boundary set union surface boundary) minus
        components of the surface boundary;
sigma   half the total singular index, where an interior vertex meeting
        nu >= 3 boundary-set edges contributes nu - 2 and a surface
        boundary vertex hit by rho >= 1 boundary-set edges contributes rho;
omega   1 iff some domain is non-orientable, found while the domains are
        labelled: *pieces* are the components over glued edges of parity
        +1, labelled over the row runs of equal labels (see
        ``_label_domains``), the few glued edges of parity -1 (on the
        reversed seams) join pieces into domains, and a domain is
        non-orientable iff its piece graph is not bipartite (a balance test
        on a graph the size of the seam); when no glued edge has parity -1
        the pieces are the domains and every domain is orientable;
delta   omega + beta + sigma - kappa.  The *defect* is -delta.

Closed domains are analysed through an abstract closure: the faces of a
domain are glued only along shared non-wall edges interior to the domain,
so each domain becomes a combinatorial surface with boundary regardless
of pinch points or walls in the ambient embedding.  This is the closure
for which chi(surface) + sigma equals the sum of the closed domain Euler
characteristics.  Each chi is a combinatorial Gauss-Bonnet sum over
counts the closure takes anyway: every face has four sides and four
corner slots, so the faces cancel from V - E + F, and 4 chi is twice the
domain's *unglued sides* (both sides of each boundary-set edge and every
surface-boundary side), less its corner slots at the vertices those sides
meet, plus 4 - k for each other vertex with k != 4 slots, read from the
complex's ``odd_vertices``, an O(W + H) table, not scanned.  One
labelling of the corner slots at the vertices the unglued sides meet,
which come from the unglued sides and one round of the complex's
``slot_partners`` and are numbered through one scratch index rather than
sorted and searched, gives the boundary cycles (see ``_ClosureTables``).
The boundary graph is the one census of X, the boundary set united with
the surface boundary: one gather of X's edge ends and one labelling of
its vertices give the checks, sigma and beta, and read only the vertices
of X.

Nothing here gathers over every interior edge.  The grid-interior edges
of a face labelling are two boolean slices of the ``(H, W)`` label grid,
and only the O(W + H) seam edges of ``CellComplex.seam_adjacency`` are
taken one by one: the domains and the boundary set come from the same
masks, in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .complexes import (
    ID_DTYPE,
    CellComplex,
    SurfaceSpec,
    boundary_components,
    build_complex,
    components,
    touched_components,
)
from .errors import CutError, InvariantViolation


@dataclass(frozen=True, eq=False)
class Partition:
    """A total face labelling with connected domains, plus optional walls."""

    complex: CellComplex
    domains: np.ndarray          # (F,) ID_DTYPE domain id per face, 0..n_domains-1
    n_domains: int
    walls: frozenset
    orientable: np.ndarray       # (n_domains,) orientability bit per domain
    boundary_set: np.ndarray     # increasing ids of boundary-set edges (domain changes and walls)
    faces_per_domain: np.ndarray  # (n_domains,) int64 face count per domain

    def __post_init__(self):
        # a partition's invariants are cached, so its arrays must not change
        for a in (self.domains, self.orientable, self.boundary_set, self.faces_per_domain):
            a.flags.writeable = False

    @cached_property
    def wall_mask(self) -> np.ndarray:
        mask = np.zeros(self.complex.n_edges, dtype=bool)
        if self.walls:
            mask[np.fromiter(self.walls, dtype=ID_DTYPE)] = True
        mask.flags.writeable = False
        return mask

    # computed views, cached per partition since everything is immutable
    @cached_property
    def _invariants(self) -> "InvariantReport":
        return _compute_invariants(self)

    @cached_property
    def _boundary_graph(self) -> "BoundaryGraph":
        return _compute_boundary_graph(self)

    @cached_property
    def _closure(self) -> "_ClosureTables":
        return _ClosureTables(self)


def from_labels(c: CellComplex, labels, walls=()) -> Partition:
    """Build a partition from a total face->label map.

    Equal-label faces are re-split into connected domains; domain ids are
    assigned in order of each domain's smallest face index.  Labels must be
    integers (floats, strings and booleans are rejected, never truncated).
    Walls are edge ids checked by ``CellComplex.edge_ids``; they must be
    interior and may not leave dangling ends; a wall that does is
    malformed input and raises ``ValueError``.  Labels
    keep the caller's integer dtype: they are only compared with each
    other, so no label is narrowed (labels 0 and 2**32 stay distinct), and
    the domains come out as ``ID_DTYPE`` ids.
    """
    labels = np.asarray(labels).ravel()
    if labels.shape != (c.n_faces,):
        raise ValueError(f"labels must cover all {c.n_faces} faces, got {labels.shape}")
    if labels.dtype.kind not in "iu":
        raise ValueError(f"labels must be integers, got {labels.dtype} values")
    wall_ids = frozenset(c.edge_ids(walls, "wall edge id"))
    for w in sorted(wall_ids):
        if c.edge_is_boundary[w]:
            raise ValueError(f"wall edge {w} lies on the surface boundary")
    wall_arr = np.fromiter(wall_ids, dtype=ID_DTYPE, count=len(wall_ids))
    domains, n_domains, orientable, bset, faces = _label_domains(c, labels, wall_arr)
    p = Partition(complex=c, domains=domains, n_domains=n_domains, walls=wall_ids,
                  orientable=orientable, boundary_set=bset, faces_per_domain=faces)
    # every vertex of the boundary set must be a genuine crossing, junction,
    # or a transversal hit on the boundary; a caller's wall that dangles is
    # rejected there as malformed input
    boundary_graph(p)
    return p


def _label_domains(c: CellComplex, labels: np.ndarray, walls: np.ndarray):
    """(domains, n_domains, orientable bits, boundary set, faces per domain)
    in one labelling pass.

    Glued edges join equal-label faces across non-wall interior edges.  On
    the face grid ``L = labels.reshape(H, W)`` the grid-interior edges are
    slices: ``hg = L[:, 1:] == L[:, :-1]`` across the sides between
    columns and ``vg = L[1:] == L[:-1]`` across the sides between rows;
    only the seam edges (``c.seam_adjacency``) are taken one by one.

    *Pieces* are the components over glued edges of parity +1.  They are
    labelled over row runs: each maximal run of glued faces in a row is one
    node, numbered in row-major order by its start face, and two runs are
    linked by the first glued side between rows of every stretch where the
    two rows stay in their runs, and by the glued seam edges of parity +1.
    One ``searchsorted`` among the run starts finds the run of every link
    and seam end face, and one ``repeat`` of the run labels by the run
    lengths gives the face labels, so past the masks and the run starts the
    work grows with the label changes, not with the faces.  Runs are
    numbered in the order of their faces, so pieces come out numbered by
    their smallest face.  The glued edges of parity -1 lie on
    the reversed seams and join pieces into domains.  Every edge of the
    piece graph reverses orientation, so a domain is orientable iff its
    piece graph is bipartite (Harary's balance test): in the double graph
    over two sheets per piece, each such edge joins opposite sheets, and a
    domain is non-orientable iff some piece meets its own other sheet.
    That one labelling of the sheets also gives the domains: a domain is
    one sheet component or two, and the one that holds its smallest piece
    on sheet 0 holds its smallest node, so it has the smaller label on
    every piece of the domain.  The domain of piece ``p`` is the dense rank
    of ``min(sheet[p], sheet[p + n])``, which numbers domains by their
    smallest piece, and so by their smallest face.  The faces per domain
    are the run lengths summed per domain, O(runs).

    The boundary set is every unglued interior edge, read from the same
    masks: an unglued side joins two labels, and so two domains, or is a
    wall.
    """
    W, H = c.spec.width, c.spec.height
    between_rows, between_cols = c.grid_interior_edges()
    sa, sb, spar, sids = c.seam_adjacency
    grid = labels.reshape(H, W)
    hg = grid[:, 1:] == grid[:, :-1]
    vg = grid[1:] == grid[:-1]
    sg = labels.take(sa) == labels.take(sb)
    if walls.size:
        wall = np.zeros(c.n_edges, dtype=bool)
        wall[walls] = True
        hg &= ~wall[between_cols]
        vg &= ~wall[between_rows]
        sg &= ~wall[sids]
    bset = np.concatenate([between_rows[~vg], between_cols[~hg], sids[~sg]])
    bset.sort()

    # the run starts, then one past the last face
    starts = np.ones(c.n_faces + 1, dtype=bool)
    np.logical_not(hg, out=starts[:-1].reshape(H, W)[:, 1:])
    bounds = starts.nonzero()[0]
    # a side between rows links the same two runs as the one before it
    # when both rows continue their runs
    link = vg.copy()
    link[:, 1:] &= ~(vg[:, :-1] & hg[:-1] & hg[1:])
    below = np.flatnonzero(link)
    m, s = below.size, sa.size
    # the run of every link and seam end face: the run starts after the first
    # that are not past the face
    run = bounds[1:-1].searchsorted(np.concatenate([below, below + W, sa, sb]), side="right")
    ra, rb = run[2 * m: 2 * m + s], run[2 * m + s:]
    plus = sg & (spar > 0)
    n_pieces, run_label = components(
        bounds.size - 1, np.concatenate([run[:m], ra[plus]]), np.concatenate([run[m: 2 * m], rb[plus]])
    )
    run_lengths = bounds[1:] - bounds[:-1]
    flip = sg & (spar < 0)
    if not flip.any():
        # nothing reverses: pieces are domains and every domain is balanced
        return (np.repeat(run_label, run_lengths), n_pieces, np.ones(n_pieces, dtype=bool), bset,
                _faces_per(run_label, run_lengths, n_pieces))
    pa, pb = run_label.take(ra[flip]), run_label.take(rb[flip])
    n_sheets, sheet = components(
        2 * n_pieces, np.concatenate([pa, pa + n_pieces]), np.concatenate([pb + n_pieces, pb])
    )
    # the sheet component of a domain's smallest piece on sheet 0 holds its
    # smallest node, so it has the domain's smaller label on every piece
    low = np.minimum(sheet[:n_pieces], sheet[n_pieces:])
    first = np.zeros(n_sheets, dtype=bool)
    first[low] = True
    rank = np.cumsum(first, dtype=ID_DTYPE) - 1
    piece_domain = rank.take(low)
    n_domains = int(rank[-1]) + 1
    orientable = np.ones(n_domains, dtype=bool)
    orientable[piece_domain[sheet[:n_pieces] == sheet[n_pieces:]]] = False
    run_domain = piece_domain.take(run_label)
    return (np.repeat(run_domain, run_lengths), n_domains, orientable, bset,
            _faces_per(run_domain, run_lengths, n_domains))


def _faces_per(run_domain: np.ndarray, run_lengths: np.ndarray, n: int) -> np.ndarray:
    """Faces per domain from the row runs: O(runs), exact, since run lengths
    sum to the face count, far below 2**53."""
    return np.bincount(run_domain, weights=run_lengths, minlength=n).astype(np.int64)


# ---------------------------------------------------------------------------
# boundary graph and scalar invariants


@dataclass(frozen=True, eq=False)
class BoundaryGraph:
    """The census of X, the boundary set united with the surface boundary.

    ``degree[v]`` is the number of boundary-set edges at vertex ``v`` (an
    edge whose two ends meet at ``v`` counts twice).  ``union_vertices``
    are the vertices X's edges touch, increasing, and ``union_labels`` the
    component of X holding each, numbered by its smallest vertex: beta,
    sigma and the checks all read this one labelling.  An interior vertex
    of degree nu >= 3 is singular with index nu - 2; a surface-boundary
    vertex of degree rho >= 1 (rho is always 1) is singular with index
    rho.  The singular vertex arrays are sorted, and every array is
    read-only.
    """

    degree: np.ndarray            # (V,) boundary-set edges at each vertex
    union_vertices: np.ndarray    # vertices of X, increasing
    union_labels: np.ndarray      # component of X at each of them
    singular_interior: np.ndarray  # interior vertices with degree >= 3
    singular_boundary: np.ndarray  # surface-boundary vertices with degree >= 1
    sigma: int                    # half the singular index sum


def boundary_graph(p: Partition) -> BoundaryGraph:
    return p._boundary_graph


def _compute_boundary_graph(p: Partition) -> BoundaryGraph:
    c = p.complex
    # X's edge ends in one gather: the boundary set's rows first, then the
    # surface boundary's
    ends = c.edge_vertices.take(np.concatenate([p.boundary_set, c.boundary_edges]), axis=0)
    degree = np.bincount(ends[: len(p.boundary_set)].ravel(), minlength=c.n_vertices)
    verts, labels = touched_components(c.n_vertices, ends.T)
    # every check reads only the vertices of X, never a scan of every vertex
    deg = degree.take(verts)
    on_bdy = c.vertex_is_boundary.take(verts)
    dangling = (deg == 1) & ~on_bdy
    if dangling.any():
        # label changes alone never leave a dangling end, so one at a wall
        # is the caller's malformed input
        walls = np.flatnonzero(p.wall_mask)
        wall_ends = c.edge_vertices.take(walls, axis=0)
        bad = (degree[wall_ends] == 1) & ~c.vertex_is_boundary[wall_ends]
        if bad.any():
            k, end = np.argwhere(bad)[0]
            raise ValueError(f"wall edge {walls[k]} has a dangling end at interior vertex {wall_ends[k, end]}")
        raise InvariantViolation(
            f"boundary set has dangling ends at interior vertices {verts[dangling][:4].tolist()}"
        )
    if np.any(deg[on_bdy] > 1):
        raise InvariantViolation("boundary vertex met by more than one interior edge")

    interior_singular = (deg >= 3) & ~on_bdy
    sing_i = verts[interior_singular]
    sing_b = verts[on_bdy & (deg > 0)]
    index_sum = int(deg[interior_singular].sum()) - 2 * len(sing_i) + int(deg[on_bdy].sum())
    if index_sum % 2:
        raise InvariantViolation(f"odd singular index sum {index_sum}")
    for a in (degree, verts, labels, sing_i, sing_b):
        a.flags.writeable = False
    return BoundaryGraph(degree, verts, labels, sing_i, sing_b, sigma=index_sum // 2)


def orientability_bits(p: Partition) -> np.ndarray:
    """Per-domain orientability, found when the partition was labelled."""
    return p.orientable


@dataclass(frozen=True)
class InvariantReport:
    kappa: int
    beta: int
    sigma: int
    omega: int
    orientable: tuple            # per-domain bits
    beta_interior: int           # boundary-set components not meeting the surface boundary
    n_singular_interior: int
    n_singular_boundary: int
    surface: str

    @property
    def delta(self) -> int:
        return self.omega + self.beta + self.sigma - self.kappa

    @property
    def defect(self) -> int:
        return self.kappa - (self.omega + self.beta + self.sigma)

    def key(self) -> tuple:
        return (self.kappa, self.beta, self.sigma, self.omega)


def _beta_counts(c: CellComplex, bg: BoundaryGraph) -> tuple[int, int]:
    """(beta, beta_interior) from the census's labelling of X, the boundary
    set united with the surface boundary.  A component of X that holds no
    surface-boundary vertex is a boundary-set component off the surface
    boundary, so beta_interior counts those."""
    comp = bg.union_labels
    n = int(comp.max()) + 1 if comp.size else 0
    on_bdy = c.vertex_is_boundary.take(bg.union_vertices)
    beta_i = n - int(np.count_nonzero(np.bincount(comp[on_bdy], minlength=n)))
    return n - boundary_components(c), beta_i


def invariants(p: Partition) -> InvariantReport:
    """Exact invariant tuple (kappa, beta, sigma, omega) of a partition."""
    return p._invariants


def _compute_invariants(p: Partition) -> InvariantReport:
    bg = boundary_graph(p)
    beta, beta_i = _beta_counts(p.complex, bg)
    bits = orientability_bits(p)
    omega = 0 if bool(bits.all()) else 1
    if p.complex.spec.orientable and omega:
        raise InvariantViolation("non-orientable domain found on an orientable surface")
    # beta >= 0 whenever the surface boundary has at most one component; on
    # the cylinder a boundary-set arc joining the two boundary circles gives
    # beta = -1, the sharp lower bound 1 - b0(surface boundary)
    if beta < min(0, 1 - boundary_components(p.complex)) or p.n_domains < 1:
        raise InvariantViolation("invariant out of range")
    return InvariantReport(
        kappa=p.n_domains,
        beta=beta,
        sigma=bg.sigma,
        omega=omega,
        orientable=tuple(bool(b) for b in bits),
        beta_interior=beta_i,
        n_singular_interior=len(bg.singular_interior),
        n_singular_boundary=len(bg.singular_boundary),
        surface=p.complex.spec.kind,
    )


# ---------------------------------------------------------------------------
# verdicts

#: surface -> (verdict mode, expected defect kappa - (omega+beta+sigma)).
#: "pass_fail": the formula is proven and the defect asserted;
#: "conjecture": the same formula is conjectural and only reported;
#: "report_only": no claim.
VERDICT_MODES = {
    "rectangle": ("pass_fail", 1),
    "moebius": ("pass_fail", 0),
    "projective": ("conjecture", 0),
    "klein": ("conjecture", 0),
    "cylinder": ("report_only", None),
    "torus": ("report_only", None),
}


@dataclass(frozen=True)
class Verdict:
    expected_defect: object      # int or None
    measured_defect: int
    status: str                  # pass / fail / report_only / conjecture
    report: InvariantReport

    @property
    def ok(self) -> bool:
        return self.status in ("pass", "report_only", "conjecture")


def verify_euler(p: Partition) -> Verdict:
    """Compare the measured defect against the formula for this surface.

    Surfaces with a proven identity (rectangle, moebius) get a hard
    pass/fail.  The projective plane and the Klein bottle are reported
    with the conjectured value but never asserted.  Torus and cylinder
    carry no claim and are always report-only.
    """
    rep = invariants(p)
    mode, expected = VERDICT_MODES[rep.surface]
    measured = rep.defect
    if mode == "pass_fail":
        status = "pass" if measured == expected else "fail"
    else:
        status = mode
    return Verdict(expected, measured, status, rep)


# ---------------------------------------------------------------------------
# abstract domain closures

class _ClosureTables:
    """Corner-slot gluing data for the closed domains of a partition.

    Slots are (face, corner) pairs, id = 4*face + corner.  Two corner
    slots are identified when their faces are glued along a shared
    non-wall edge interior to one domain; the orbits, a domain's *sectors*
    at a vertex of the complex, are the vertices of the abstract closed
    domains.  The *unglued sides* are both sides of each boundary-set edge
    and every surface-boundary side.  ``chi`` and ``boundary_cycles`` hold
    each domain's Euler characteristic and boundary cycle count; like every
    table a partition caches, the arrays here are read-only.

    The work follows the unglued sides; nothing here reads every face or
    every vertex.  The vertex links of these quotient grids are connected,
    so at a vertex that an unglued side meets every sector runs between
    two unglued ends, the corner slots of the unglued sides: each such
    sector is a boundary vertex of the closure, a domain has as many of
    them as it has unglued sides, and it meets two or more sectors at a
    vertex iff four or more of its unglued ends lie there.  The *touched*
    slots, those over the vertices the unglued sides meet, are the
    unglued ends and one round of ``slot_partners`` from them: the slots
    over a vertex form a cycle or a path of at most four, and the ends
    over it hold two neighbours of the cycle, across a boundary-set edge,
    or both ends of the path, on the surface boundary.  They are numbered
    through one scratch index over the 4F slots (``_slot_index``), never
    sorted or searched, and every glued partner looked up through it is
    checked, in O(touched), to have been indexed; one that was not is an
    invariant violation.  A wall blocks the gluing across it: with walls,
    the edges under the two sides of each touched slot are read in closed
    form (``CellComplex.slot_edges``), so a walled closure reads no face
    table either.  One labelling of the touched slots, joined across glued
    partners and along each unglued side, gives the boundary cycles.

    chi is a sum of corner curvatures, with no face, edge or vertex
    total.  A vertex of the closure with k corner slots has curvature
    1 - k/4, or 1/2 - k/4 on the closure's boundary; every face has four
    slots, and its g glued edges and s unglued sides give 4F = 2g + s, so
    the curvatures sum to V - E + F with E = g + s.  The boundary vertices
    are the s sectors over the touched vertices.  Every other vertex is
    interior and one sector of one domain, with four slots unless it is
    one of the complex's ``odd_vertices``, so only those are curved:
    4 chi = 2s - (touched slots) + the sum of 4 - k over the untouched odd
    vertices.  A remainder mod 4 is an invariant violation.
    """

    def __init__(self, p: Partition):
        c = p.complex
        dom = p.domains
        n = p.n_domains
        bset = p.boundary_set
        bdy = c.boundary_edges

        # unglued sides; (face, side) runs from corner slot side to side + 1
        # (take, not a 2-d fancy index, and intp ids: both are several times
        # faster gathers on numpy 2.4)
        side_face = np.concatenate(
            [c.edge_faces.take(bset, axis=0).ravel(), c.edge_faces[:, 0].take(bdy)]
        ).astype(np.intp)
        side = np.concatenate([c.edge_sides.take(bset, axis=0).ravel(), c.edge_sides[:, 0].take(bdy)])
        side_domain = dom.take(side_face)
        ends = np.concatenate([4 * side_face + side, 4 * side_face + ((side + 1) & 3)])
        # one round of partners, each end's across its other side, since
        # across its unglued side lies another end or -1: an end that starts
        # its unglued side (column 0) reads column 1, one that ends it column 0
        other = c.slot_partners.ravel().take(2 * ends + np.repeat(np.array([1, 0], dtype=ends.dtype), len(side)))
        slots, index = _slot_index(4 * c.n_faces, np.concatenate([ends, other]))
        faces = slots >> 2
        partner = c.slot_partners.take(slots, axis=0)
        slot_domain = dom.take(faces)
        glued = (partner >= 0) & (dom.take(partner >> 2) == slot_domain[:, None])
        if p.walls:
            # the edges under the two sides of each slot 4f + k: side k
            # (column 0) and side k - 1 (column 1)
            sides = c.slot_edges(np.stack([slots, (slots & -4) | ((slots - 1) & 3)], axis=1))
            glued &= ~p.wall_mask[sides]
        pairs = np.flatnonzero(glued)
        across = partner.ravel().take(pairs)
        at = index.take(across)
        # the index holds only what was written: a partner off the touched
        # slots reads a stale entry, which does not lead back to it
        if not np.array_equal(slots.take(at, mode="clip"), across):
            raise InvariantViolation("a glued partner of a touched corner slot lies off the touched slots")
        # a boundary cycle runs through sectors over glued partners and
        # from sector to sector along the unglued sides
        end_at = index.take(ends)
        n_cyc, cyc = components(
            len(slots),
            np.concatenate([pairs >> 1, end_at[: len(side)]]),
            np.concatenate([at, end_at[len(side):]]),
        )
        cycle_domain = np.empty(n_cyc, dtype=ID_DTYPE)
        cycle_domain[cyc] = slot_domain
        self.n_domains = n
        # int64, not ID_DTYPE: the key product vertex * n + domain reaches V * n
        self._end_keys = c.slot_vertices(ends).astype(np.int64) * n + np.tile(side_domain, 2)

        # 4 chi = 2 (unglued sides) - (touched slots) + (4 - slots) summed
        # over the untouched odd vertices, each per domain
        odd, odd_slot, odd_count = c.odd_vertices
        odd_free = (boundary_graph(p).degree.take(odd) == 0) & ~c.vertex_is_boundary.take(odd)
        shortfall = np.bincount(dom.take(odd_slot[odd_free] // 4), weights=4 - odd_count[odd_free], minlength=n)
        self.chi, rest = np.divmod(
            2 * np.bincount(side_domain, minlength=n) - np.bincount(slot_domain, minlength=n)
            + shortfall.astype(np.int64), 4
        )
        if rest.any():
            raise InvariantViolation(
                f"domain {int(np.flatnonzero(rest)[0])}: slots off the touched vertices do not fill whole vertices"
            )
        self.boundary_cycles = np.bincount(cycle_domain, minlength=n)
        for a in (self.chi, self.boundary_cycles, self._end_keys):
            a.flags.writeable = False

    @cached_property
    def non_normal_pairs(self) -> np.ndarray:
        """(vertex, domain) pairs where a domain meets >= 2 corner sectors.

        Each sector at a touched vertex holds two unglued ends and an
        untouched vertex is one sector, so the pairs are the end keys that
        occur four or more times: the sorted keys equal to the one three
        before them.
        """
        keys = np.sort(self._end_keys)
        keys = keys[3:][keys[3:] == keys[:-3]]
        # still sorted, so a key's repeats follow it; keys are never negative
        keys = keys[np.diff(keys, prepend=-1) != 0]
        pairs = np.stack(np.divmod(keys, self.n_domains), axis=1)
        pairs.flags.writeable = False
        return pairs


def _slot_index(n_slots: int, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(distinct, index)``: the distinct non-negative entries of ``slots``
    and a scratch index over ``0..n_slots-1`` with ``index[distinct[k]] == k``.

    The index is ``np.empty``: it is written and read only at the given
    slots, never scanned, so the cost follows ``slots``, not ``n_slots``.
    Where entries repeat a slot, exactly one of them finds its own position
    in the index after the first write, whichever write survived, and it
    keeps the slot.  An entry of the index that was never written holds
    garbage; a caller that looks up other slots must check them.
    """
    slots = slots[slots >= 0]
    index = np.empty(n_slots, dtype=ID_DTYPE)
    pos = np.arange(len(slots), dtype=ID_DTYPE)
    index[slots] = pos
    distinct = slots[index.take(slots) == pos]
    index[distinct] = np.arange(len(distinct), dtype=ID_DTYPE)
    return distinct, index


def closure_tables(p: Partition) -> _ClosureTables:
    return p._closure


@dataclass(frozen=True)
class DomainReport:
    domain: int
    n_faces: int
    chi: int
    orientable: bool
    boundary_circles: int        # q
    genus: object                # g for orientable domains, else None
    crosscaps: object            # c for non-orientable domains, else None
    normal: bool

    @property
    def classification(self) -> str:
        q = self.boundary_circles
        if self.orientable:
            return f"S(0,{self.genus},{q})"
        return f"S(1,{self.crosscaps},{q})"


def domain_reports(p: Partition) -> list[DomainReport]:
    """Classify every closed domain as a surface with boundary.

    With q boundary circles, 2 - q - chi is twice the genus of an
    orientable domain and the crosscap count of a non-orientable one; a
    value that is neither is an invariant violation.
    """
    tables = closure_tables(p)
    bits = orientability_bits(p)
    rest = 2 - tables.boundary_cycles - tables.chi
    bad = np.where(bits, (rest < 0) | (rest % 2 == 1), rest < 1)
    if bad.any():
        d = int(np.flatnonzero(bad)[0])
        kind = "an orientable" if bits[d] else "a non-orientable"
        raise InvariantViolation(
            f"domain {d}: chi={tables.chi[d]}, q={tables.boundary_cycles[d]} not {kind} surface"
        )
    non_normal = set(tables.non_normal_pairs[:, 1].tolist())
    rows = zip(p.faces_per_domain.tolist(), tables.chi.tolist(), bits.tolist(),
               tables.boundary_cycles.tolist(), rest.tolist())
    return [
        DomainReport(domain=d, n_faces=f, chi=chi, orientable=o, boundary_circles=q,
                     genus=r // 2 if o else None, crosscaps=None if o else r, normal=d not in non_normal)
        for d, (f, chi, o, q, r) in enumerate(rows)
    ]


@dataclass(frozen=True)
class ChiSigmaReport:
    chi_surface: int
    sigma: int
    domain_chis: tuple
    lhs: int                     # chi(surface) + sigma
    rhs: int                     # sum of closed-domain chis
    holds: bool


def check_chi_sigma(p: Partition) -> ChiSigmaReport:
    """Check chi(surface) + sigma == sum over domains of chi(closure)."""
    if p.walls:
        raise ValueError("chi-sigma check applies to wall-free partitions")
    tables = closure_tables(p)
    sigma = boundary_graph(p).sigma
    chis = tuple(tables.chi.tolist())
    lhs = p.complex.euler_characteristic + sigma
    rhs = sum(chis)
    return ChiSigmaReport(
        chi_surface=p.complex.euler_characteristic,
        sigma=sigma,
        domain_chis=chis,
        lhs=lhs,
        rhs=rhs,
        holds=lhs == rhs,
    )


# ---------------------------------------------------------------------------
# normalization


#: the refinement factor of ``normalize``: each coarse face becomes 3 x 3
NORMALIZE_FACTOR = 3


def is_normal(p: Partition) -> bool:
    """True iff every domain meets one corner sector at each of its vertices."""
    return len(closure_tables(p).non_normal_pairs) == 0


def refine(p: Partition) -> Partition:
    """Subdivide every face into ``NORMALIZE_FACTOR`` x ``NORMALIZE_FACTOR``
    faces, copying labels."""
    if p.walls:
        raise ValueError("refinement of partitions with walls is not supported")
    spec = p.complex.spec
    k = NORMALIZE_FACTOR
    fine = build_complex(SurfaceSpec(spec.width * k, spec.height * k, spec.x_gluing, spec.y_gluing))
    coarse = p.domains.reshape(spec.height, spec.width)
    labels = np.kron(coarse, np.ones((k, k), dtype=ID_DTYPE)).ravel()
    return from_labels(fine, labels)


def normalize(p: Partition) -> Partition:
    """Make every domain meet each vertex in one corner sector.

    The grid is refined by ``NORMALIZE_FACTOR`` and the face star of every
    *offending* vertex (a vertex where a domain meets two or more sectors)
    becomes a fresh domain, all in one relabelling.  One pass is enough.
    After refinement by 3 a fine vertex that is not the image of a coarse
    vertex lies inside a coarse face or a coarse edge, so it is neither
    singular nor offending.  Images of distinct coarse vertices are at
    least 3 fine steps apart, across the seams too, since every seam map
    sends multiples of 3 to multiples of 3: the stars are disjoint and no
    star touches another singular vertex.  After the relabelling each
    offending vertex lies inside its star's domain, and every vertex on the
    star's rim meets the star in one sector and each other domain in one
    sector, so no new offending vertex appears.  delta and omega are
    preserved and the output is normal; both are asserted.
    """
    if p.walls:
        raise ValueError("normalization applies to wall-free partitions")
    before = invariants(p)
    if is_normal(p):
        return p
    q = refine(p)
    c = q.complex
    # a surface boundary vertex meets at most two faces, so it never offends;
    # a vertex listed for two domains keeps the one id its last write left
    off = closure_tables(q).non_normal_pairs[:, 0]
    fresh = np.full(c.n_vertices, -1, dtype=ID_DTYPE)
    fresh[off] = q.n_domains + np.arange(len(off), dtype=ID_DTYPE)
    # every face with a corner over an offending vertex takes the fresh id
    # of its vertex, read corner by corner from the (H+1, W+1) raw vertex
    # grid; the stars are disjoint, so no face takes two
    W, H = c.spec.width, c.spec.height
    at = fresh.take(c.vertex_map).reshape(H + 1, W + 1)
    labels = q.domains.copy()
    grid = labels.reshape(H, W)
    for corner in (at[:H, :W], at[:H, 1:], at[1:, 1:], at[1:, :W]):
        star = corner >= 0
        grid[star] = corner[star]
    q = from_labels(c, labels)
    after = invariants(q)
    if after.delta != before.delta or after.omega != before.omega:
        raise InvariantViolation(
            f"normalization changed (delta, omega): "
            f"({before.delta},{before.omega}) -> ({after.delta},{after.omega})"
        )
    if not is_normal(q):
        raise InvariantViolation("normalization left an offending vertex")
    return q


# ---------------------------------------------------------------------------
# cut surgery


@dataclass(frozen=True)
class CutPath:
    """A simple path (or cycle) of interior edges, checked against
    ``partition`` by ``plan_cut``; ``cut`` applies it to that partition.

    ``n_crossings`` counts the interior path vertices where the path meets
    the existing boundary set; each is a transversal crossing of a locally
    straight boundary arc.
    """

    partition: Partition
    edges: tuple
    n_crossings: int


def _simple_path(c: CellComplex, edges: list[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check that ``edges``, in order, form a simple path or cycle.

    Returns the path's vertices in the order the edge list first reaches
    them, the number of path edges at each and how many of those are
    horizontal.  The edges must be distinct, each must share a vertex with
    the next, and no vertex may meet more than two of them; then the edges
    run along one walk, which is a cycle iff every vertex meets two.
    """
    if not edges:
        raise CutError("empty edge list")
    if len(set(edges)) != len(edges):
        raise CutError("repeated edge in path")
    ids = np.array(edges, dtype=np.int64)
    ends = c.edge_vertices.take(ids, axis=0)
    shares = (ends[:-1, :, None] == ends[1:, None, :]).any(axis=(1, 2))
    if not shares.all():
        raise CutError(f"edge {edges[int(shares.argmin()) + 1]} does not continue the path")
    verts, first, inverse, counts = np.unique(ends.ravel(), return_index=True,
                                              return_inverse=True, return_counts=True)
    if counts.max() > 2:
        raise CutError("path visits a vertex twice")
    horizontal = np.bincount(inverse, weights=c.edge_is_horizontal.take(ids).repeat(2))
    order = first.argsort()
    return verts[order], counts[order], horizontal[order]


def plan_cut(p: Partition, edges) -> CutPath:
    """Check a cut path against the partition it will be applied to.

    An id that ``CellComplex.edge_ids`` rejects raises ``ValueError``; an
    inadmissible path raises ``CutError``.  Every check reads the
    boundary-set degree at the path's own vertices.  A vertex is singular
    at degree >= 3, or on the surface boundary at degree >= 1.  At a
    crossing (degree 2 at a path-interior vertex) the path takes the two
    edges the boundary set leaves free, so the set turns a corner there iff
    exactly one of the path's two edges is horizontal.

    No path on the preset grids passes through a singular vertex: such a
    vertex has at most four edges, two of them the path's and off the
    boundary set, and a surface-boundary vertex has at most one interior
    edge.  The check stays: the path is caller input, and the check states
    the rule itself instead of leaning on the presets' vertex counts and on
    the checks before it.
    """
    c = p.complex
    edge_list = c.edge_ids(edges, "cut path edge id")
    for e in edge_list:
        if c.edge_is_boundary[e]:
            raise CutError(f"edge {e} lies on the surface boundary")
        if e in p.walls:
            raise CutError(f"edge {e} is already a wall")
    along = np.flatnonzero(np.isin(edge_list, p.boundary_set))
    if along.size:
        raise CutError(f"edge {edge_list[along[0]]} runs along the existing boundary set")

    verts, counts, horizontal = _simple_path(c, edge_list)
    degree = boundary_graph(p).degree.take(verts)
    on_bdy = c.vertex_is_boundary.take(verts)
    singular = (degree >= 3) | (on_bdy & (degree >= 1))
    inner = counts == 2
    crossing = inner & (degree == 2)
    bad = inner & (singular | (crossing & (horizontal == 1)))
    if bad.any():
        k = bad.argmax()
        if singular[k]:
            raise CutError(f"path passes through singular vertex {verts[k]}")
        raise CutError(f"boundary set turns a corner at vertex {verts[k]}; crossing is not transversal")
    # the two ends of an open path
    bad = ~inner & (singular | (~on_bdy & (degree == 0)))
    if bad.any():
        k = bad.argmax()
        if singular[k]:
            raise CutError(f"path endpoint {verts[k]} is a singular vertex")
        raise CutError(
            f"path endpoint {verts[k]} is neither on the surface boundary nor on "
            f"the boundary set (dangling crack)"
        )
    return CutPath(p, tuple(edge_list), int(np.count_nonzero(crossing)))


def cut(path: CutPath) -> Partition:
    """Promote a planned path to walls of the partition it was planned
    against and re-split the domains.

    On the surfaces with a proven formula (mode ``pass_fail`` in
    ``VERDICT_MODES``: rectangle, moebius) delta is constant, so a cut that
    changes it can only come from an inadmissible path that slipped through
    validation or from a genuine bug, and raises.  Elsewhere an admissible cut along a non-separating
    cycle can change delta (a torus meridian takes it from -1 to 0), and
    the cut partition is returned as it is.
    """
    p = path.partition
    before = invariants(p)
    out = from_labels(p.complex, p.domains, walls=p.walls | set(path.edges))
    after = invariants(out)
    if after.delta != before.delta and VERDICT_MODES[p.complex.spec.kind][0] == "pass_fail":
        raise InvariantViolation(
            f"cut changed delta: {before.delta} -> {after.delta}"
        )
    return out


# ---------------------------------------------------------------------------
# circle complements in the projective plane


@dataclass(frozen=True)
class ComplementPiece:
    faces: int
    chi: int
    orientable: bool
    boundary_circles: int
    kind: str                    # "disk" or "moebius"


@dataclass(frozen=True)
class ComplementClass:
    n_components: int
    pieces: tuple                # ComplementPiece, disk first


_COMPLEMENT_KINDS = {"S(0,0,1)": "disk", "S(1,1,1)": "moebius"}


def classify_circle_complement(c: CellComplex, cycle) -> ComplementClass:
    """Classify the complement of a simple closed edge cycle in the
    projective plane.

    The complement has one component (a disk, when the circle does not
    separate) or two (a disk and a Moebius strip), read from
    ``domain_reports``: S(0,0,1) is a disk and S(1,1,1) a Moebius strip.
    Any other outcome is an invariant violation.  An id that
    ``CellComplex.edge_ids`` rejects raises ``ValueError``.
    """
    if c.spec.kind != "projective":
        raise ValueError("circle complement classification runs on the projective plane")
    edge_list = c.edge_ids(cycle, "cycle edge id")
    if (_simple_path(c, edge_list)[1] != 2).any():
        raise CutError("cycle is not closed")
    p = from_labels(c, np.zeros(c.n_faces, dtype=ID_DTYPE), walls=edge_list)
    pieces = [
        ComplementPiece(
            faces=r.n_faces,
            chi=r.chi,
            orientable=r.orientable,
            boundary_circles=r.boundary_circles,
            kind=_COMPLEMENT_KINDS.get(r.classification, r.classification),
        )
        for r in domain_reports(p)
    ]
    pieces.sort(key=lambda x: x.kind != "disk")
    kinds = [x.kind for x in pieces]
    if kinds not in (["disk"], ["disk", "moebius"]):
        raise InvariantViolation(f"complement is {kinds}, not a disk or a disk and a Moebius strip")
    return ComplementClass(len(pieces), tuple(pieces))
