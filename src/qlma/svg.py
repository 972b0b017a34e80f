"""Minimal standalone SVG line plots; no plotting dependency, fully
deterministic output."""

from __future__ import annotations

import math

WIDTH, HEIGHT = 800, 500
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 50
PALETTE = ("#1f77b4", "#2ca02c", "#d62728", "#ff7f0e", "#9467bd", "#8c564b")


def _finite(values):
    return [v for v in values if v is not None and math.isfinite(v)]


def write_line_plot(path, series: dict[str, tuple[list, list]], title: str = "") -> None:
    """Write polyline curves with log-y decade ticks.

    series maps a label to (xs, ys); non-finite or non-positive y values
    are dropped.
    """
    xs_all, ys_all = [], []
    for xs, ys in series.values():
        xs_all.extend(_finite(xs))
        ys_all.extend(v for v in _finite(ys) if v > 0)
    if not xs_all or not ys_all:
        xs_all, ys_all = [0.0, 1.0], [1.0, 1.0]
    x_min, x_max = min(xs_all), max(xs_all)
    y_min, y_max = min(ys_all), max(ys_all)
    if x_max == x_min:
        x_max = x_min + 1.0
    y_lo, y_hi = math.floor(math.log10(y_min)), math.ceil(math.log10(y_max))
    if y_hi == y_lo:
        y_hi += 1

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x):
        return MARGIN_L + plot_w * (x - x_min) / (x_max - x_min)

    def py(y):
        t = (math.log10(y) - y_lo) / (y_hi - y_lo)
        return MARGIN_T + plot_h * (1.0 - t)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" font-size="16" '
        f'font-family="sans-serif">{title}</text>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333"/>',
    ]

    n_xticks = min(8, max(2, int(x_max - x_min)))
    for i in range(n_xticks + 1):
        x = x_min + (x_max - x_min) * i / n_xticks
        parts.append(
            f'<line x1="{px(x):.2f}" y1="{MARGIN_T + plot_h}" x2="{px(x):.2f}" '
            f'y2="{MARGIN_T + plot_h + 5}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{px(x):.2f}" y="{MARGIN_T + plot_h + 20}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">{x:.0f}</text>'
        )
    for d in range(int(y_lo), int(y_hi) + 1):
        y = 10.0**d
        parts.append(
            f'<line x1="{MARGIN_L - 5}" y1="{py(y):.2f}" x2="{MARGIN_L + plot_w}" '
            f'y2="{py(y):.2f}" stroke="#ddd"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 10}" y="{py(y) + 4:.2f}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif">1e{d}</text>'
        )

    for idx, (label, (xs, ys)) in enumerate(series.items()):
        color = PALETTE[idx % len(PALETTE)]
        pts = [
            f"{px(x):.2f},{py(y):.2f}"
            for x, y in zip(xs, ys)
            if math.isfinite(x) and math.isfinite(y) and y > 0
        ]
        if pts:
            parts.append(
                f'<polyline points="{" ".join(pts)}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        ly = MARGIN_T + 16 + 16 * idx
        parts.append(
            f'<line x1="{MARGIN_L + plot_w - 150}" y1="{ly - 4}" x2="{MARGIN_L + plot_w - 125}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L + plot_w - 120}" y="{ly}" font-size="12" '
            f'font-family="sans-serif">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
