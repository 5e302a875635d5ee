import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from eulerpart import (
    RandomSpec, SurfaceSpec, build_complex, cut, from_labels, jsonio, plan_cut, random_partition, render,
)
from eulerpart.render import domain_color, render_ppm, render_svg


def bands3():
    c = build_complex(SurfaceSpec.named("moebius", 12, 12))
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
    c = build_complex(SurfaceSpec.named("moebius", 6, 6))
    p = cut(plan_cut(
        from_labels(c, np.zeros(36, dtype=int)),
        [c.horizontal_edge(i, 3) for i in range(6)],
    ))
    svg = render_svg(p).decode()
    assert "stroke-dasharray" in svg


def test_singular_points_circled():
    c = build_complex(SurfaceSpec.named("rectangle", 6, 6))
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
    c = build_complex(SurfaceSpec.named("rectangle", 4, 4))
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


def _walled_moebius():
    # a domain change plus a dashed wall that crosses it
    c = build_complex(SurfaceSpec.named("moebius", 8, 6))
    lab = np.zeros((6, 8), dtype=int)
    lab[:, 4:] = 1
    p = from_labels(c, lab.ravel())
    return cut(plan_cut(p, [c.horizontal_edge(i, 3) for i in range(4)]))


def _quadrants(n):
    c = build_complex(SurfaceSpec.named("rectangle", n, n))
    lab = np.zeros((n, n), dtype=int)
    h = n // 2
    lab[:h, h:], lab[h:, :h], lab[h:, h:] = 1, 2, 3
    return from_labels(c, lab.ravel())


def _random(surface, k, seed):
    return random_partition(build_complex(SurfaceSpec.named(surface, 10, 8)), RandomSpec(seed=seed, k=k))


# sha256 of renders that exercise each overlay: dashed walls, singular
# rings clipped at the image edge, a closed surface without a frame, and
# more domains than the fixed palette holds (golden-angle hues)
PINNED_CASES = {
    "walled-moebius": (_walled_moebius, 12),
    "quadrants-px1": (lambda: _quadrants(6), 1),
    "quadrants-px3": (lambda: _quadrants(6), 3),
    "klein": (lambda: _random("klein", 5, 3), 12),
    "many-domains": (lambda: _random("moebius", 20, 11), 4),
}
PINNED_CASE_DIGESTS = {
    ("klein", "ppm"): "c51eeb2925e7b14d4e4f22533c6662c7e95b3063efe753b571a170f93564c82c",
    ("klein", "svg"): "b447e684219f55f56d5e707b7c080e817521953b0687fe8863fd7b325dda1941",
    ("many-domains", "ppm"): "960ab933c9f54d65f5f599bb2c46e7b2d5ffb930f451416d9e587d54fa6d7226",
    ("many-domains", "svg"): "f0cbcba0f414fec9ebce5fcc3ec542503c3e9c8706c8b0a2647a20e32ce0c7b4",
    ("quadrants-px1", "ppm"): "6b06f0ba43d3a2e69395b96423020bdb3b3dbdcd9039d5b77cac99d6da984ad0",
    ("quadrants-px1", "svg"): "1033e03bae8c8cf73b25aded456ed2fc447fcf82e09f22ad1a155375a4c00600",
    ("quadrants-px3", "ppm"): "2decdec3ebdda996a000b45a1c39bcdccdd629f5434f9af33b7ed0a155c64e8b",
    ("quadrants-px3", "svg"): "70efa1cdda3d92a9e9428347879b19074466c1ace53449941ee41edd13568762",
    ("walled-moebius", "ppm"): "5c2348727d03c23253d4580ba005ce4f86280105b0b03ea866994684368aada9",
    ("walled-moebius", "svg"): "9329ca531679630f1e696cb07822ab5bb768d8adff2be2b9af79a84c3465878a",
}


@pytest.mark.parametrize("fmt", ["ppm", "svg"])
@pytest.mark.parametrize("case", sorted(PINNED_CASES))
def test_overlay_render_bytes_pinned(case, fmt):
    build, cell_px = PINNED_CASES[case]
    data = render(build(), cell_px, fmt=fmt)
    assert hashlib.sha256(data).hexdigest() == PINNED_CASE_DIGESTS[case, fmt]


def test_pinned_cases_draw_what_they_pin():
    assert "stroke-dasharray" in render_svg(_walled_moebius()).decode()
    for cell_px in (1, 3):
        assert "<circle" in render_svg(_quadrants(6), cell_px).decode()
    assert _random("klein", 5, 3).complex.boundary_edges.size == 0
    assert _random("moebius", 20, 11).n_domains > 12


def test_ppm_peak_memory_stays_near_the_image_size():
    # one image buffer plus the returned bytes, not a full-image array per ring
    p = _quadrants(64)
    tracemalloc.start()
    try:
        data = render_ppm(p, cell_px=12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * len(data)
