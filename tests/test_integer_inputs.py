"""Every integer a caller passes in goes through ``errors.integer``.

Each entry point below rejects ``2.0``, ``True`` and ``"3"`` with a
``ValueError`` naming its field, never truncating or parsing them, and
accepts a numpy integer as the Python ``int`` it stands for.
"""

import re

import numpy as np
import pytest

from eulerpart import (
    NodalConfig,
    SurfaceSpec,
    build_complex,
    classify_circle_complement,
    from_labels,
    plan_cut,
)
from eulerpart.explore import RandomSpec, batch_verify, check_batch_size
from eulerpart.nodal import family
from eulerpart.render import _scene

MOEBIUS = build_complex(SurfaceSpec.named("moebius", 6, 6))
PROJECTIVE = build_complex(SurfaceSpec.named("projective", 8, 8))
ZEROS = np.zeros(36, dtype=int)
#: a wall-free cycle across the moebius grid, admissible as walls and as a cut path
ROW = [MOEBIUS.horizontal_edge(i, 3) for i in range(6)]
#: the boundary of the 2x2 block of faces at (2, 2) on the projective grid
BLOCK = ([PROJECTIVE.horizontal_edge(i, 2) for i in (2, 3)] + [PROJECTIVE.vertical_edge(4, j) for j in (2, 3)]
         + [PROJECTIVE.horizontal_edge(i, 4) for i in (3, 2)] + [PROJECTIVE.vertical_edge(2, j) for j in (3, 2)])


#: field -> (a valid value, what the entry point keeps of it)
ENTRY_POINTS = {
    "surface width": (4, lambda v: SurfaceSpec(v, 4).width),
    "surface height": (4, lambda v: SurfaceSpec.named("moebius", 4, v).height),
    "seed": (7, lambda v: RandomSpec(seed=v, k=2).seed),
    "k": (2, lambda v: RandomSpec(seed=0, k=v).k),
    "size": (4, check_batch_size),
    "count": (1, lambda v: batch_verify("torus", v, 0, size=4).count),
    "k_min": (1, lambda v: batch_verify("torus", 1, 0, k_range=(v, 2), size=4).k_range[0]),
    "k_max": (2, lambda v: batch_verify("torus", 1, 0, k_range=(1, v), size=4).k_range[1]),
    "bands parameter m": (3, lambda v: family("bands", {"m": v}).terms[0].fx.freq),
    "cell_px": (4, lambda v: _scene(from_labels(MOEBIUS, ZEROS), v).cell_px),
    "resolution": (8, lambda v: NodalConfig(n=v).n),
    "max_refine": (2, lambda v: NodalConfig(max_refine=v).max_refine),
    "wall edge id": (ROW[0], lambda v: min(from_labels(MOEBIUS, ZEROS, walls=[v, *ROW[1:]]).walls)),
    "cut path edge id": (ROW[0], lambda v: plan_cut(from_labels(MOEBIUS, ZEROS), [v, *ROW[1:]]).edges[0]),
    "cycle edge id": (BLOCK[0], lambda v: classify_circle_complement(PROJECTIVE, [v, *BLOCK[1:]]).n_components),
    "vertex i": (1, lambda v: PROJECTIVE.vertex_id(v, 2)),
    "vertex j": (1, lambda v: PROJECTIVE.vertex_id(2, v)),
    "horizontal edge i": (1, lambda v: PROJECTIVE.horizontal_edge(v, 2)),
    "horizontal edge j": (1, lambda v: PROJECTIVE.horizontal_edge(2, v)),
    "vertical edge i": (1, lambda v: PROJECTIVE.vertical_edge(v, 2)),
    "vertical edge j": (1, lambda v: PROJECTIVE.vertical_edge(2, v)),
}


@pytest.mark.parametrize("value", [2.0, True, "3"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("field", ENTRY_POINTS)
def test_non_integer_is_rejected_naming_the_field(field, value):
    _good, call = ENTRY_POINTS[field]
    with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer, got {value!r}")):
        call(value)


@pytest.mark.parametrize("field", ENTRY_POINTS)
def test_numpy_integer_is_kept_as_int(field):
    good, call = ENTRY_POINTS[field]
    kept = call(np.int64(good))
    assert type(kept) is int
    assert kept == call(good)


def test_numpy_size_reaches_the_batch():
    result = batch_verify("moebius", 2, 0, size=np.int64(8))
    assert result.count == 2 and result.passes == 2


@pytest.mark.parametrize("call,message", [
    (lambda: classify_circle_complement(PROJECTIVE, [PROJECTIVE.n_edges]), "cycle edge id 128 out of range"),
    (lambda: classify_circle_complement(PROJECTIVE, [-1]), "cycle edge id -1 out of range"),
    (lambda: plan_cut(from_labels(MOEBIUS, ZEROS), [-1]), "cut path edge id -1 out of range"),
    (lambda: from_labels(MOEBIUS, ZEROS, walls=[10**6]), "wall edge id 1000000 out of range"),
], ids=["cycle-past-end", "cycle-negative", "cut-negative", "wall-past-end"])
def test_edge_id_out_of_range_is_rejected(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
