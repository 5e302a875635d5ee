"""Deterministic PPM and SVG rendering of partitions.

One scene, two encoders.  ``_scene`` lays the fundamental domain out once,
in paint order and pixel coordinates: the equal-domain runs of each grid
row as colored blocks, the boundary set in black, walls dashed, the
surface boundary as a thick frame on the open seams, and rings around the
singular vertices.  ``render_ppm`` rasterizes that list and ``render_svg``
writes one element per item, so both formats always draw the same picture.
Identical partition + cell size always produces byte-identical output: the
palette is a fixed table extended by golden-angle hues, coordinates are
integers, and nothing time- or environment-dependent is emitted.
"""

from __future__ import annotations

import colorsys
from typing import NamedTuple

import numpy as np

from .errors import integer
from .partition import Partition, boundary_graph

BOUNDARY_PX = 2                  # boundary-set and wall stroke width
FRAME_PX = 4                     # surface-boundary stroke width
RING_RADIUS_PX = 5               # singular-vertex ring radius
DASH_PX = 4                      # wall dash and gap length
RING_RGB = (170, 20, 20)         # singular-vertex ring colour
#: largest PPM drawn, in pixels: it admits the default 12 px render of a
#: 512² grid (6156 x 6156) and stops a huge ``cell_px`` before the image is
#: allocated; an SVG grows with its runs and strokes, not its pixels
MAX_PIXELS = 1 << 26

_BASE_PALETTE = (
    (141, 211, 199), (255, 255, 179), (190, 186, 218), (251, 128, 114),
    (128, 177, 211), (253, 180, 98), (179, 222, 105), (252, 205, 229),
    (217, 217, 217), (188, 128, 189), (204, 235, 197), (255, 237, 111),
)


def domain_color(d: int) -> tuple[int, int, int]:
    if d < len(_BASE_PALETTE):
        return _BASE_PALETTE[d]
    hue = (d * 0.6180339887498949) % 1.0
    r, g, b = colorsys.hsv_to_rgb(hue, 0.45, 0.95)
    return int(round(r * 255)), int(round(g * 255)), int(round(b * 255))


class _Scene(NamedTuple):
    width: int
    height: int
    cell_px: int
    runs: tuple        # (x, y, width) arrays and (N, 3) colours, top row first
    strokes: list      # (segments (N, 4) x0 y0 x1 y1, width, grey, dashed)
    rings: np.ndarray  # (N, 2) ring centres


def _scene(p: Partition, cell_px: int) -> _Scene:
    s, m = integer(cell_px, "cell_px"), FRAME_PX + 2
    if s < 1:
        raise ValueError(f"cell_px must be at least 1, got {s}")
    c = p.complex
    W, H = c.spec.width, c.spec.height

    # image row 0 is the top, grid row 0 the bottom
    dom = p.domains.reshape(H, W)[::-1]
    starts = np.ones((H, W), dtype=bool)
    starts[:, 1:] = dom[:, 1:] != dom[:, :-1]
    flat = np.flatnonzero(starts)  # every row starts a run, so a run ends where the next starts
    row, col = np.divmod(flat, W)
    palette = np.array([domain_color(d) for d in range(p.n_domains)], dtype=np.uint8)
    runs = (m + col * s, m + row * s, np.diff(flat, append=H * W) * s, palette[dom.ravel()[flat]])

    def px(points):  # (N, 2k) grid (i, j) pairs to pixel (x, y) pairs
        out = m + points * s
        out[:, 1::2] = m + (H - points[:, 1::2]) * s
        return out

    bg = boundary_graph(p)
    strokes = [
        (px(c.edge_segments(bg.edge_ids[~p.wall_mask[bg.edge_ids]])), BOUNDARY_PX, 0, False),
        (px(c.edge_segments(sorted(p.walls))), BOUNDARY_PX, 0, True),
        (px(c.edge_segments(c.boundary_edges)), FRAME_PX, 40, False),
    ]
    rings = px(c.vertex_points(np.concatenate([bg.singular_interior, bg.singular_boundary])))
    return _Scene(W * s + 2 * m, H * s + 2 * m, s, runs, strokes, rings)


def render_ppm(p: Partition, cell_px: int = 12) -> bytes:
    """Binary PPM (P6) image of the partition."""
    sc = _scene(p, cell_px)
    if sc.width * sc.height > MAX_PIXELS:
        raise ValueError(f"cell_px {sc.cell_px} gives {sc.width}x{sc.height} pixels, above the cap of {MAX_PIXELS}")
    header = f"P6\n{sc.width} {sc.height}\n255\n".encode("ascii")
    out = bytearray(header) + bytearray(sc.height * sc.width * 3)
    img = np.frombuffer(out, dtype=np.uint8, offset=len(header)).reshape(sc.height, sc.width, 3)
    img[:] = 255

    x, y, width, colors = sc.runs
    for x0, y0, w, color in zip(x.tolist(), y.tolist(), width.tolist(), colors):
        img[y0:y0 + sc.cell_px, x0:x0 + w] = color

    for segs, width, grey, dashed in sc.strokes:
        half = width // 2
        for ax, ay, bx, by in segs.tolist():
            if ay == by:  # horizontal
                lo, hi = sorted((ax, bx))
                xs = np.arange(lo, hi)
                if dashed:
                    xs = xs[(xs - lo) % (2 * DASH_PX) < DASH_PX]
                img[max(ay - half, 0):ay + width - half, xs] = grey
            else:
                lo, hi = sorted((ay, by))
                ys = np.arange(lo, hi)
                if dashed:
                    ys = ys[(ys - lo) % (2 * DASH_PX) < DASH_PX]
                img[ys, max(ax - half, 0):ax + width - half] = grey

    # each ring lies inside its (2R+3)^2 box, clipped to the image
    R = RING_RADIUS_PX
    for cx, cy in sc.rings.tolist():
        x0, y0 = max(cx - R - 1, 0), max(cy - R - 1, 0)
        box = img[y0:cy + R + 2, x0:cx + R + 2]
        yy, xx = np.ogrid[y0:y0 + box.shape[0], x0:x0 + box.shape[1]]
        r2 = (xx - cx) ** 2 + (yy - cy) ** 2
        box[(r2 >= (R - 1) ** 2) & (r2 <= (R + 1) ** 2)] = RING_RGB
    return bytes(out)


def render_svg(p: Partition, cell_px: int = 12) -> bytes:
    """SVG image of the partition; the same scene as the PPM renderer."""
    sc = _scene(p, cell_px)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{sc.width}" '
        f'height="{sc.height}" viewBox="0 0 {sc.width} {sc.height}">',
        f'<rect width="{sc.width}" height="{sc.height}" fill="#ffffff"/>',
    ]
    x, y, width, colors = sc.runs
    for x0, y0, w, (r, g, b) in zip(x.tolist(), y.tolist(), width.tolist(), colors.tolist()):
        parts.append(
            f'<rect x="{x0}" y="{y0}" width="{w}" height="{sc.cell_px}" fill="#{r:02x}{g:02x}{b:02x}"/>'
        )
    for segs, width, grey, dashed in sc.strokes:
        dash = f' stroke-dasharray="{DASH_PX} {DASH_PX}"' if dashed else ""
        for ax, ay, bx, by in segs.tolist():
            parts.append(
                f'<line x1="{ax}" y1="{ay}" x2="{bx}" y2="{by}" '
                f'stroke="#{grey:02x}{grey:02x}{grey:02x}" stroke-width="{width}"{dash}/>'
            )
    r, g, b = RING_RGB
    for cx, cy in sc.rings.tolist():
        parts.append(
            f'<circle cx="{cx}" cy="{cy}" r="{RING_RADIUS_PX}" '
            f'fill="none" stroke="#{r:02x}{g:02x}{b:02x}" stroke-width="2"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts).encode("utf-8")


def render(p: Partition, cell_px: int = 12, fmt: str = "ppm") -> bytes:
    if fmt == "ppm":
        return render_ppm(p, cell_px)
    if fmt == "svg":
        return render_svg(p, cell_px)
    raise ValueError(f"unknown format {fmt!r}; use ppm or svg")
