"""The per-edge view of a complex's face graph, for oracles in tests.

The package relates the two faces of an interior edge through slices of
the face grid and its seam table; tests that need one row per interior
edge rebuild it here from ``interior_edges`` and ``edge_faces``.
"""

from __future__ import annotations

import numpy as np


def interior_edges(c):
    """Ids of the edges off the surface boundary, in increasing order."""
    return np.flatnonzero(~c.edge_is_boundary)


def interior_rows(c):
    """(face_a, face_b, parity, edge_id) over every interior edge, in edge
    order: the edge's first face, its second face, its orientation parity
    and its id."""
    ids = interior_edges(c)
    return c.edge_faces[ids, 0], c.edge_faces[ids, 1], c.edge_parity[ids], ids
