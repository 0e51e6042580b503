"""Tiny static SVG line charts, no renderer dependency.

Fixed 800x600 canvas, linear axes, one polyline per series, legend on the
right. Output is deterministic for identical input.
"""

from __future__ import annotations

WIDTH = 800
HEIGHT = 600
MARGIN_LEFT = 78
MARGIN_RIGHT = 170
MARGIN_TOP = 48
MARGIN_BOTTOM = 64

COLORS = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
)


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    return [lo + i * (hi - lo) / (n - 1) for i in range(n)]


def _fmt(v: float) -> str:
    if v == 0.0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.2e}"
    return f"{v:.4g}"


def _widened(lo: float, hi: float) -> tuple[float, float]:
    """A single value v widened by 0.5 either side, or by an ulp of v if 0.5 rounds away."""
    half = max(0.5, abs(lo) * 2.0**-52) if hi == lo else 0.0
    return lo - half, hi + half


def line_chart(
    series: list[tuple[str, list[tuple[float, float]]]],
    title: str,
    x_label: str,
    y_label: str,
) -> str:
    """Render named (x, y) series to a complete SVG document string."""
    pts = [p for _, data in series for p in data]
    if not pts:
        raise ValueError("nothing to plot")
    x_lo = min(p[0] for p in pts)
    x_hi = max(p[0] for p in pts)
    y_lo = min(p[1] for p in pts)
    y_hi = max(p[1] for p in pts)
    x_lo, x_hi = _widened(x_lo, x_hi)
    y_lo, y_hi = _widened(y_lo, y_hi)
    pad = 0.04 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return MARGIN_TOP + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<text x="{WIDTH // 2}" y="28" text-anchor="middle" '
        f'font-family="sans-serif" font-size="17" fill="#111">{_escape(title)}</text>',
    ]
    # frame
    out.append(
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444" stroke-width="1"/>'
    )
    for xv in _ticks(x_lo, x_hi):
        px = sx(xv)
        out.append(
            f'<line x1="{px:.2f}" y1="{MARGIN_TOP + plot_h}" x2="{px:.2f}" '
            f'y2="{MARGIN_TOP + plot_h + 6}" stroke="#444"/>'
        )
        out.append(
            f'<text x="{px:.2f}" y="{MARGIN_TOP + plot_h + 22}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" fill="#333">{_fmt(xv)}</text>'
        )
    for yv in _ticks(y_lo, y_hi):
        py = sy(yv)
        out.append(
            f'<line x1="{MARGIN_LEFT - 6}" y1="{py:.2f}" x2="{MARGIN_LEFT}" '
            f'y2="{py:.2f}" stroke="#444"/>'
        )
        out.append(
            f'<line x1="{MARGIN_LEFT}" y1="{py:.2f}" x2="{MARGIN_LEFT + plot_w}" '
            f'y2="{py:.2f}" stroke="#ddd" stroke-width="0.5"/>'
        )
        out.append(
            f'<text x="{MARGIN_LEFT - 10}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12" fill="#333">{_fmt(yv)}</text>'
        )
    out.append(
        f'<text x="{MARGIN_LEFT + plot_w / 2:.0f}" y="{HEIGHT - 14}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14" fill="#111">{_escape(x_label)}</text>'
    )
    out.append(
        f'<text x="20" y="{MARGIN_TOP + plot_h / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14" fill="#111" '
        f'transform="rotate(-90 20 {MARGIN_TOP + plot_h / 2:.0f})">{_escape(y_label)}</text>'
    )
    for i, (label, data) in enumerate(series):
        color = COLORS[i % len(COLORS)]
        coords = " ".join(["%.2f,%.2f" % (sx(x), sy(y)) for x, y in data])
        if coords:
            out.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                'stroke-width="1.8"/>'
            )
        ly = MARGIN_TOP + 14 + 20 * i
        lx = WIDTH - MARGIN_RIGHT + 14
        out.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2.5"/>'
        )
        out.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" font-size="12" '
            f'fill="#111">{_escape(label)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
