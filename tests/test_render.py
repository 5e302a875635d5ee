import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from eulerpart import SurfaceSpec, build_complex, cut, from_labels, jsonio, render
from eulerpart.render import domain_color, render_ppm, render_svg


def bands3():
    c = build_complex(SurfaceSpec.moebius(12, 12))
    x = (np.arange(12) + 0.5) * math.pi / 12
    return from_labels(c, np.tile((np.sin(3 * x) > 0).astype(int), (12, 1)).ravel())


def test_ppm_header_and_size():
    p = bands3()
    data = render_ppm(p, cell_px=8)
    assert data.startswith(b"P6\n")
    header, rest = data.split(b"\n", 1)
    dims, rest = rest.split(b"\n", 1)
    w, h = (int(t) for t in dims.split())
    maxval, pixels = rest.split(b"\n", 1)
    assert maxval == b"255"
    assert len(pixels) == w * h * 3


def test_renders_byte_identical():
    p = bands3()
    assert render_ppm(p, cell_px=10) == render_ppm(p, cell_px=10)
    assert render_svg(p, cell_px=10) == render_svg(p, cell_px=10)


def test_render_dispatch():
    p = bands3()
    assert render(p, fmt="ppm").startswith(b"P6")
    assert render(p, fmt="svg").startswith(b"<svg")
    with pytest.raises(ValueError):
        render(p, fmt="png")


@pytest.mark.parametrize("cell_px", [0, -3, True, 2.0, "8"])
@pytest.mark.parametrize("fmt", ["ppm", "svg"])
def test_render_rejects_cell_px_below_one_or_not_int(cell_px, fmt):
    with pytest.raises(ValueError, match="cell_px"):
        render(bands3(), cell_px, fmt=fmt)


def test_svg_contains_overlays():
    p = bands3()
    svg = render_svg(p).decode()
    assert "<line" in svg            # boundary set
    assert 'stroke="#282828"' in svg  # thick surface boundary
    assert svg.count("<svg") == 1


def test_walls_drawn_dashed():
    c = build_complex(SurfaceSpec.moebius(6, 6))
    p = cut(
        from_labels(c, np.zeros(36, dtype=int)),
        [c.horizontal_edge(i, 3) for i in range(6)],
    )
    svg = render_svg(p).decode()
    assert "stroke-dasharray" in svg


def test_singular_points_circled():
    c = build_complex(SurfaceSpec.rectangle(6, 6))
    lab = np.zeros((6, 6), dtype=int)
    lab[:3, :3], lab[:3, 3:], lab[3:, :3], lab[3:, 3:] = 0, 1, 2, 3
    p = from_labels(c, lab.ravel())
    svg = render_svg(p).decode()
    assert "<circle" in svg


def test_palette_deterministic_and_distinct():
    head = [domain_color(d) for d in range(30)]
    assert head == [domain_color(d) for d in range(30)]
    assert len(set(head)) == 30


def test_flat_rectangle_single_color():
    c = build_complex(SurfaceSpec.rectangle(4, 4))
    p = from_labels(c, np.zeros(16, dtype=int))
    svg = render_svg(p).decode()
    fills = {part.split('"')[0] for part in svg.split('fill="#')[1:]}
    # background white + one domain color
    assert len(fills) == 2


# sha256 of the default renders of tests/data/moebius_8x8.json, which
# has a boundary set, a surface boundary and seven singular vertices
PINNED_RENDER = {
    "ppm": "d5d6c90487ee866a5736edb89caa3b427af59ed1b61726d71776fa31ef55a73e",
    "svg": "6b94fa780e7f4782999fbc25d737942908fbd8655100e46cd777463fd29f1b61",
}


@pytest.mark.parametrize("fmt", sorted(PINNED_RENDER))
def test_render_bytes_pinned(fmt):
    doc = json.loads((Path(__file__).parent / "data" / "moebius_8x8.json").read_text())
    data = render(jsonio.partition_from_json(doc), fmt=fmt)
    assert hashlib.sha256(data).hexdigest() == PINNED_RENDER[fmt]
