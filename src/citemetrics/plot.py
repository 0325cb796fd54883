"""SVG rendering of the geometric construction: the journal number line,
the citation polyline, an optional trendline, and the crossing marker or
the minimum-distance segment."""

from __future__ import annotations

from itertools import repeat
from operator import add, mul, sub, truediv
from typing import Iterable, Iterator

from .core import CitationProfile
from .geometry import EmptyProfile, GeometricCase, GeometricTrace, LineFit

SVG_WIDTH = 640
SVG_HEIGHT = 480
_MARGIN_LEFT = 62
_MARGIN_RIGHT = 18
_MARGIN_TOP = 18
_MARGIN_BOTTOM = 52
_FRAME_WIDTH = SVG_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
_FRAME_HEIGHT = SVG_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
_FRAME_BOTTOM = SVG_HEIGHT - _MARGIN_BOTTOM

_IDENTITY_COLOR = "blue"
_CITATIONS_COLOR = "brown"
_TRENDLINE_COLOR = "olive"
_MARKER_COLOR = "black"
_DISTANCE_COLOR = "red"


def plot_scales(profile: CitationProfile) -> tuple[float, float]:
    """Data-domain extents (x_max, y_max) of a non-empty profile's plot."""
    x_max = float(max(profile.n, 1))
    y_max = float(max(profile.sorted_desc[0], profile.n, 1))
    return x_max, y_max


def _to_px(
    xs: Iterable[float], ys: Iterable[float], x_max: float, y_max: float
) -> Iterator[tuple[float, float]]:
    """Pixel coordinates of the data points (xs[i], ys[i]), as C-level maps:
    the same code places the n polyline vertices and the single points."""
    pxs = map(add, repeat(_MARGIN_LEFT), map(mul, map(truediv, xs, repeat(x_max)), repeat(_FRAME_WIDTH)))
    pys = map(sub, repeat(_FRAME_BOTTOM), map(mul, map(truediv, ys, repeat(y_max)), repeat(_FRAME_HEIGHT)))
    return zip(pxs, pys)


def _svg_line(a: tuple[float, float], b: tuple[float, float], color: str, dash: str = "") -> str:
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<line x1="{a[0]:.2f}" y1="{a[1]:.2f}" x2="{b[0]:.2f}" y2="{b[1]:.2f}" '
        f'stroke="{color}" stroke-width="2"{extra}/>'
    )


def emit_plot_svg(
    profile: CitationProfile, trace: GeometricTrace, fit: LineFit | None = None
) -> bytes:
    """Render the geometric construction as a standalone SVG document.

    Contains the identity (journal number) line, the citation polyline,
    the trendline with a marker at its exact identity crossing
    (``fit.crossing``) when a fit is given, otherwise a marker at the
    trace's ``crossing`` or a vertical segment showing the minimum-distance
    gap. A marker is drawn only where the identity line is drawn, up to
    min(x_max, y_max): a fit can cross y = x beyond the frame (a flat
    profile of three papers cited 10 times crosses at 10). Output is
    deterministic: identical inputs give identical bytes.
    """
    if profile.n == 0:
        raise EmptyProfile("cannot plot an empty profile")
    x_max, y_max = plot_scales(profile)

    def segment(x1: float, y1: float, x2: float, y2: float, color: str, dash: str = "") -> str:
        return _svg_line(*_to_px((x1, x2), (y1, y2), x_max, y_max), color, dash)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_WIDTH}" height="{SVG_HEIGHT}" viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<rect x="0" y="0" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
    ]
    parts.append(
        f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{_FRAME_WIDTH}" height="{_FRAME_HEIGHT}" '
        f'fill="none" stroke="#444444" stroke-width="1"/>'
    )

    identity_reach = min(x_max, y_max)
    parts.append(segment(0, 0, identity_reach, identity_reach, _IDENTITY_COLOR))

    ranks = range(1, profile.n + 1)
    poly = " ".join(map("%.2f,%.2f".__mod__, _to_px(ranks, profile.sorted_desc, x_max, y_max)))
    parts.append(
        f'<polyline fill="none" stroke="{_CITATIONS_COLOR}" stroke-width="2" points="{poly}"/>'
    )

    if fit is not None:
        lo, hi = _visible_span(fit, x_max, y_max)
        if lo < hi:
            parts.append(segment(lo, fit.predict(lo), hi, fit.predict(hi), _TRENDLINE_COLOR))

    marker = fit.crossing if fit is not None else trace.crossing
    if marker is None:
        if trace.case is GeometricCase.NO_CROSSING_MIN_DISTANCE:
            j = trace.argmin_index
            cited = profile.sorted_desc[j - 1]
            parts.append(segment(j, j, j, cited, _DISTANCE_COLOR, dash="4 3"))
    elif marker <= identity_reach:
        ((mx, my),) = _to_px((float(marker),), (float(marker),), x_max, y_max)
        parts.append(f'<circle cx="{mx:.2f}" cy="{my:.2f}" r="4" fill="{_MARKER_COLOR}"/>')

    label_y = SVG_HEIGHT - 14
    parts.append(
        f'<text x="{(SVG_WIDTH + _MARGIN_LEFT - _MARGIN_RIGHT) / 2:.0f}" y="{label_y}" '
        f'text-anchor="middle" font-size="15" font-family="sans-serif">Journal number</text>'
    )
    mid_y = (SVG_HEIGHT - _MARGIN_BOTTOM + _MARGIN_TOP) / 2
    parts.append(
        f'<text x="16" y="{mid_y:.0f}" text-anchor="middle" font-size="15" '
        f'font-family="sans-serif" transform="rotate(-90 16 {mid_y:.0f})">Citations</text>'
    )
    axis_y = SVG_HEIGHT - _MARGIN_BOTTOM + 18
    parts.append(
        f'<text x="{_MARGIN_LEFT}" y="{axis_y}" text-anchor="middle" '
        f'font-size="12" font-family="sans-serif">0</text>'
    )
    parts.append(
        f'<text x="{SVG_WIDTH - _MARGIN_RIGHT}" y="{axis_y}" text-anchor="middle" '
        f'font-size="12" font-family="sans-serif">{x_max:.0f}</text>'
    )
    parts.append(
        f'<text x="{_MARGIN_LEFT - 8}" y="{_MARGIN_TOP + 5}" text-anchor="end" '
        f'font-size="12" font-family="sans-serif">{y_max:.0f}</text>'
    )
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


def _visible_span(fit: LineFit, x_max: float, y_max: float) -> tuple[float, float]:
    # x interval over which the fitted line stays inside [0, y_max]. A fit's
    # slope is never positive, and a flat fit runs at its one count, <= y_max.
    if fit.slope == 0.0:
        return 0.0, x_max
    return max(0.0, (y_max - fit.intercept) / fit.slope), min(x_max, -fit.intercept / fit.slope)
