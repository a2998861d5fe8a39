"""Minimal deterministic SVG rendering for sweep CSVs.

Fixed 800x600 viewport, fixed colors, no timestamps or generated ids, so a
given input always produces byte-identical output.
"""
from __future__ import annotations

WIDTH = 800
HEIGHT = 600
MARGIN_LEFT = 80
MARGIN_RIGHT = 30
MARGIN_TOP = 30
MARGIN_BOTTOM = 60

# Dark-blue to yellow anchors, linearly interpolated.
_COLOR_STOPS = (
    (0.00, (68, 1, 84)),
    (0.25, (59, 82, 139)),
    (0.50, (33, 145, 140)),
    (0.75, (94, 201, 98)),
    (1.00, (253, 231, 37)),
)


def _escape(text):
    """``xml.sax.saxutils.escape``, whose import loads ``urllib``, ``http``, ``email`` and ``ssl``."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _color(fraction):
    fraction = min(max(fraction, 0.0), 1.0)
    for (f0, c0), (f1, c1) in zip(_COLOR_STOPS, _COLOR_STOPS[1:]):
        if fraction <= f1:
            t = 0.0 if f1 == f0 else (fraction - f0) / (f1 - f0)
            rgb = tuple(round(a + t * (b - a)) for a, b in zip(c0, c1))
            return "#%02x%02x%02x" % rgb
    return "#%02x%02x%02x" % _COLOR_STOPS[-1][1]


def _axis_scale(values, pixel_lo, pixel_hi):
    """A value-linear map of ``values`` onto the pixel range, and 5 evenly spaced ``(pixel, value)`` ticks."""
    lo, hi = min(values), max(values)
    if hi == lo:
        lo, hi = lo - 0.5, hi + 0.5
    span = hi - lo

    def scale(v):
        return pixel_lo + (v - lo) / span * (pixel_hi - pixel_lo)

    return scale, [(scale(tick), tick) for tick in (lo + (hi - lo) * k / 4 for k in range(5))]


def _cell_ticks(grid, pixel_start, cell_size):
    """``(pixel, value)`` ticks at the centres of at most 5 cells of ``grid``, the first and last included."""
    picked = sorted({round(k * (len(grid) - 1) / 4) for k in range(5)})
    return [(pixel_start + (index + 0.5) * cell_size, grid[index]) for index in picked]


def _frame(parts, x_label, y_label, x_ticks, y_ticks):
    """The plot frame, axis labels and ticks, each tick a ``(pixel, value)`` pair."""
    parts.append(
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" '
        f'width="{WIDTH - MARGIN_LEFT - MARGIN_RIGHT}" '
        f'height="{HEIGHT - MARGIN_TOP - MARGIN_BOTTOM}" '
        'fill="none" stroke="#000000" stroke-width="1"/>'
    )
    for px, tick in x_ticks:
        parts.append(
            f'<line x1="{px:.2f}" y1="{HEIGHT - MARGIN_BOTTOM}" '
            f'x2="{px:.2f}" y2="{HEIGHT - MARGIN_BOTTOM + 6}" stroke="#000000"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{HEIGHT - MARGIN_BOTTOM + 20}" '
            f'font-size="12" text-anchor="middle">{tick:.6g}</text>'
        )
    for py, tick in y_ticks:
        parts.append(
            f'<line x1="{MARGIN_LEFT - 6}" y1="{py:.2f}" '
            f'x2="{MARGIN_LEFT}" y2="{py:.2f}" stroke="#000000"/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT - 10}" y="{py + 4:.2f}" '
            f'font-size="12" text-anchor="end">{tick:.6g}</text>'
        )
    parts.append(
        f'<text x="{(MARGIN_LEFT + WIDTH - MARGIN_RIGHT) / 2:.2f}" '
        f'y="{HEIGHT - 15}" font-size="14" text-anchor="middle">{_escape(x_label)}</text>'
    )
    parts.append(
        f'<text x="20" y="{(MARGIN_TOP + HEIGHT - MARGIN_BOTTOM) / 2:.2f}" '
        f'font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 20 {(MARGIN_TOP + HEIGHT - MARGIN_BOTTOM) / 2:.2f})">'
        f"{_escape(y_label)}</text>"
    )


def _document(parts):
    header = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">\n'
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>\n'
    )
    return header + "\n".join(parts) + "\n</svg>\n"


def render_line(points, x_label, y_label):
    """Polyline through ``points`` (sequence of (x, y)) as an SVG string."""
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    sx, x_ticks = _axis_scale(xs, MARGIN_LEFT, WIDTH - MARGIN_RIGHT)
    sy, y_ticks = _axis_scale(ys, HEIGHT - MARGIN_BOTTOM, MARGIN_TOP)
    parts = []
    _frame(parts, x_label, y_label, x_ticks, y_ticks)
    coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in points)
    parts.append(
        f'<polyline points="{coords}" fill="none" stroke="#1f4e9c" stroke-width="2"/>'
    )
    return _document(parts)


def render_heatmap(cells, x_label, y_label, value_label):
    """Colored grid from ``cells`` (sequence of (x, y, value)) as an SVG string.

    Cells are placed by the index of their x and y among the distinct grid
    values, so the ticks sit at cell centres and name grid values.
    """
    xs = sorted({c[0] for c in cells})
    ys = sorted({c[1] for c in cells})
    values = [c[2] for c in cells]
    v_lo, v_hi = min(values), max(values)
    span = v_hi - v_lo

    x_index = {x: k for k, x in enumerate(xs)}
    y_index = {y: k for k, y in enumerate(ys)}
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    cell_w = plot_w / len(xs)
    cell_h = plot_h / len(ys)

    parts = []
    x_ticks = _cell_ticks(xs, MARGIN_LEFT, cell_w)
    y_ticks = _cell_ticks(ys, HEIGHT - MARGIN_BOTTOM, -cell_h)
    _frame(parts, f"{x_label}  ({value_label}: {v_lo:.6g} to {v_hi:.6g})", y_label, x_ticks, y_ticks)
    for x, y, value in cells:
        fraction = 0.5 if span == 0 else (value - v_lo) / span
        px = MARGIN_LEFT + x_index[x] * cell_w
        # Row 0 at the bottom.
        py = HEIGHT - MARGIN_BOTTOM - (y_index[y] + 1) * cell_h
        parts.append(
            f'<rect x="{px:.2f}" y="{py:.2f}" width="{cell_w:.2f}" '
            f'height="{cell_h:.2f}" fill="{_color(fraction)}"/>'
        )
    return _document(parts)
