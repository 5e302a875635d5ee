"""Deterministic PPM and SVG rendering of partitions.

The fundamental domain is drawn with one colored block per face, the
boundary set in black, walls dashed, the surface boundary as a thick
frame on the open seams, and singular vertices circled.  Identical
partition + cell size always produces byte-identical output: the palette is
a fixed table extended by golden-angle hues, floats are formatted with a
fixed precision, and nothing time- or environment-dependent is emitted.
"""

from __future__ import annotations

import colorsys

import numpy as np

from .complexes import ID_DTYPE
from .partition import Partition, boundary_graph

BOUNDARY_PX = 2                  # boundary-set and wall stroke width
FRAME_PX = 4                     # surface-boundary stroke width
RING_RADIUS_PX = 5               # singular-vertex ring radius
DASH_PX = 4                      # wall dash and gap length

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


def _check_cell_px(cell_px) -> None:
    if isinstance(cell_px, bool) or not isinstance(cell_px, (int, np.integer)) or cell_px < 1:
        raise ValueError(f"cell_px must be an integer of at least 1, got {cell_px!r}")


def _edge_segments(p: Partition, edge_ids) -> list[tuple[int, int, int, int]]:
    """Grid segments (x0, y0, x1, y1) of every raw representative."""
    c = p.complex
    W, H = c.spec.width, c.spec.height
    HOFF = W * (H + 1)
    raw = c.edge_raw_representatives[np.asarray(edge_ids, dtype=ID_DTYPE)].ravel()
    raw = raw[raw >= 0]
    vertical = raw >= HOFF
    j, i = np.where(vertical, np.divmod(raw - HOFF, W + 1), np.divmod(raw, W))
    i1, j1 = np.where(vertical, i, i + 1), np.where(vertical, j + 1, j)
    return list(zip(i.tolist(), j.tolist(), i1.tolist(), j1.tolist()))


def _vertex_points(p: Partition, vertex_ids) -> list[tuple[int, int]]:
    """Grid points (x, y) of every raw vertex over the given vertices."""
    c = p.complex
    raw = np.flatnonzero(np.isin(c.vertex_map, np.asarray(vertex_ids, dtype=ID_DTYPE)))
    j, i = np.divmod(raw, c.spec.width + 1)
    return list(zip(i.tolist(), j.tolist()))


def _overlay_data(p: Partition):
    bg = boundary_graph(p)
    walls = sorted(p.walls)
    bset = bg.edge_ids[~p.wall_mask[bg.edge_ids]]
    singular = np.concatenate([bg.singular_interior, bg.singular_boundary])
    return bset, walls, singular


def render_ppm(p: Partition, cell_px: int = 12) -> bytes:
    """Binary PPM (P6) image of the partition."""
    _check_cell_px(cell_px)
    c = p.complex
    W, H = c.spec.width, c.spec.height
    s = cell_px
    m = FRAME_PX + 2
    width_px = W * s + 2 * m
    height_px = H * s + 2 * m
    img = np.full((height_px, width_px, 3), 255, dtype=np.uint8)

    # faces; image row 0 is the top, grid row 0 the bottom
    dom = p.domains.reshape(H, W)
    for d in range(p.n_domains):
        color = np.array(domain_color(d), dtype=np.uint8)
        jj, ii = np.nonzero(dom == d)
        for j, i in zip(jj, ii):
            y0 = m + (H - 1 - j) * s
            x0 = m + i * s
            img[y0:y0 + s, x0:x0 + s] = color

    def px(gx, gy):
        return m + gx * s, m + (H - gy) * s

    def draw_segment(x0, y0, x1, y1, width, color, dashed=False):
        ax, ay = px(x0, y0)
        bx, by = px(x1, y1)
        half = width // 2
        if ay == by:  # horizontal
            lo, hi = sorted((ax, bx))
            xs = np.arange(lo, hi)
            if dashed:
                xs = xs[(xs - lo) % (2 * DASH_PX) < DASH_PX]
            img[max(ay - half, 0):ay + width - half, xs] = color
        else:
            lo, hi = sorted((ay, by))
            ys = np.arange(lo, hi)
            if dashed:
                ys = ys[(ys - lo) % (2 * DASH_PX) < DASH_PX]
            img[ys, max(ax - half, 0):ax + width - half] = color

    bset, walls, singular = _overlay_data(p)
    for seg in _edge_segments(p, bset):
        draw_segment(*seg, width=BOUNDARY_PX, color=0)
    for seg in _edge_segments(p, walls):
        draw_segment(*seg, width=BOUNDARY_PX, color=0, dashed=True)
    for seg in _edge_segments(p, c.boundary_edges):
        draw_segment(*seg, width=FRAME_PX, color=40)

    # singular vertices: dark red rings
    yy, xx = np.mgrid[0:height_px, 0:width_px]
    for gx, gy in _vertex_points(p, singular):
        cx, cy = px(gx, gy)
        r2 = (xx - cx) ** 2 + (yy - cy) ** 2
        ring = (r2 >= (RING_RADIUS_PX - 1) ** 2) & (r2 <= (RING_RADIUS_PX + 1) ** 2)
        img[ring] = (170, 20, 20)

    header = f"P6\n{width_px} {height_px}\n255\n".encode("ascii")
    return header + img.tobytes()


def render_svg(p: Partition, cell_px: int = 12) -> bytes:
    """SVG image of the partition; same overlays as the PPM renderer."""
    _check_cell_px(cell_px)
    c = p.complex
    W, H = c.spec.width, c.spec.height
    s = cell_px
    m = FRAME_PX + 2
    width_px = W * s + 2 * m
    height_px = H * s + 2 * m

    def px(gx, gy):
        return m + gx * s, m + (H - gy) * s

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width_px}" '
        f'height="{height_px}" viewBox="0 0 {width_px} {height_px}">',
        f'<rect width="{width_px}" height="{height_px}" fill="#ffffff"/>',
    ]
    # merge equal-domain runs within each row to keep files small
    dom = p.domains.reshape(H, W)
    for j in range(H - 1, -1, -1):
        i = 0
        while i < W:
            d = dom[j, i]
            i2 = i
            while i2 < W and dom[j, i2] == d:
                i2 += 1
            x0, y0 = px(i, j + 1)
            r, g, b = domain_color(int(d))
            parts.append(
                f'<rect x="{x0}" y="{y0}" width="{(i2 - i) * s}" height="{s}" '
                f'fill="#{r:02x}{g:02x}{b:02x}"/>'
            )
            i = i2

    bset, walls, singular = _overlay_data(p)

    def lines(edge_ids, stroke, width, dashed=False):
        dash = f' stroke-dasharray="{DASH_PX} {DASH_PX}"' if dashed else ""
        for x0, y0, x1, y1 in _edge_segments(p, edge_ids):
            ax, ay = px(x0, y0)
            bx, by = px(x1, y1)
            parts.append(
                f'<line x1="{ax}" y1="{ay}" x2="{bx}" y2="{by}" '
                f'stroke="{stroke}" stroke-width="{width}"{dash}/>'
            )

    lines(bset, "#000000", BOUNDARY_PX)
    lines(walls, "#000000", BOUNDARY_PX, dashed=True)
    lines(c.boundary_edges, "#282828", FRAME_PX)
    for gx, gy in _vertex_points(p, singular):
        cx, cy = px(gx, gy)
        parts.append(
            f'<circle cx="{cx}" cy="{cy}" r="{RING_RADIUS_PX}" '
            f'fill="none" stroke="#aa1414" stroke-width="2"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts).encode("utf-8")


def render(p: Partition, cell_px: int = 12, fmt: str = "ppm") -> bytes:
    if fmt == "ppm":
        return render_ppm(p, cell_px)
    if fmt == "svg":
        return render_svg(p, cell_px)
    raise ValueError(f"unknown format {fmt!r}; use ppm or svg")
