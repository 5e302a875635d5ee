"""Seeded generator of admissible cut paths, used by surgery tests.

Paths are produced by a random walk over interior edges that starts on
the surface boundary or on the boundary set, crosses the boundary set
only straight-through, and stops at an admissible endpoint.  Candidates
are re-validated by plan_cut; the generator retries until one passes.
"""

from __future__ import annotations

from collections import defaultdict

from eulerpart import CutError, plan_cut

from edgerows import interior_edges


def _incidence(p):
    c = p.complex
    bset = set(int(e) for e in p.boundary_set)
    walls = p.walls
    by_vertex = defaultdict(list)
    for e in interior_edges(c).tolist():
        a, b = (int(v) for v in c.edge_vertices[e])
        by_vertex[a].append(e)
        by_vertex[b].append(e)
    return bset, walls, by_vertex


def _walk(p, rng, bset, by_vertex, max_len=64):
    c = p.complex
    from eulerpart import boundary_graph

    bg = boundary_graph(p)
    singular = bg.singular_vertices

    def b_degree(v):
        return sum(1 for e in by_vertex[v] if e in bset)

    def admissible_endpoint(v):
        if v in singular:
            return False
        if c.vertex_is_boundary[v]:
            return b_degree(v) == 0
        return b_degree(v) == 2

    starts = [v for v in by_vertex if admissible_endpoint(v)]
    if not starts:
        return None
    v = int(starts[rng.integers(len(starts))])
    edges, seen = [], {v}
    for _step in range(max_len):
        options = [
            e for e in by_vertex[v]
            if e not in bset and e not in edges and e not in p.walls
        ]
        options = [
            e for e in options
            if int(c.edge_vertices[e][0] if c.edge_vertices[e][1] == v else c.edge_vertices[e][1]) not in seen
        ]
        if b_degree(v) == 2 and edges:
            # mid-path crossing: must continue straight through
            arrive_h = bool(c.edge_is_horizontal[edges[-1]])
            options = [e for e in options if bool(c.edge_is_horizontal[e]) == arrive_h]
        if not options:
            return None
        e = int(options[rng.integers(len(options))])
        a, b = (int(x) for x in c.edge_vertices[e])
        v = b if a == v else a
        edges.append(e)
        seen.add(v)
        if admissible_endpoint(v) and (rng.random() < 0.4 or _step == max_len - 1):
            return edges
    return None


def random_admissible_cut(p, rng, tries=60):
    """A validated CutPath for this partition, or None."""
    bset, _walls, by_vertex = _incidence(p)
    for _ in range(tries):
        edges = _walk(p, rng, bset, by_vertex)
        if not edges:
            continue
        try:
            return plan_cut(p, edges)
        except CutError:
            continue
    return None
