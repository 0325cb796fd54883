"""SVG rendering of the geometric construction: the journal number line,
the citation polyline, an optional trendline, and the crossing marker or
the minimum-distance segment."""

from __future__ import annotations

from itertools import chain
from typing import Iterator

from .core import CitationProfile
from .geometry import EmptyProfile, GeometricTrace, LineFit

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


def emit_plot_svg(
    profile: CitationProfile, trace: GeometricTrace, fit: LineFit | None = None
) -> bytes:
    """Render the geometric construction as a standalone SVG document:
    the chunks of ``svg_chunks``, joined."""
    return b"".join(svg_chunks(profile, trace, fit))


def svg_chunks(
    profile: CitationProfile, trace: GeometricTrace, fit: LineFit | None = None
) -> Iterator[bytes]:
    """The SVG document of the geometric construction, as an iterator over
    its byte chunks: the head, the polyline's points in ``_CHUNK``-vertex
    chunks, and the tail.

    Contains the identity (journal number) line, the citation polyline,
    the trendline with a marker at its exact identity crossing
    (``fit.crossing``) when a fit is given, otherwise a marker at the
    trace's ``crossing`` or a vertical segment showing the minimum-distance
    gap. A marker is drawn only up to x = n, where y = x reaches the
    frame's right edge: a fit can cross y = x beyond the frame (a flat
    profile of three papers cited 10 times crosses at 10). Output is
    deterministic: identical inputs give identical bytes.

    Everything that can raise (``EmptyProfile``, the trendline span, the
    marker or segment) runs before this returns; iterating only formats
    vertices. So a caller can open its output file after the call and
    write the chunks as they come.
    """
    if profile.n == 0:
        raise EmptyProfile("cannot plot an empty profile")
    x_max, y_max = profile.n, max(profile.sorted_desc[0], profile.n)

    # The one data-to-pixel transform: the polyline carries it as its SVG
    # matrix, and px places the few single points with the same factors.
    sx, sy = _FRAME_WIDTH / x_max, -_FRAME_HEIGHT / y_max

    def px(x: float, y: float) -> tuple[float, float]:
        return _MARGIN_LEFT + sx * x, _FRAME_BOTTOM + sy * y

    def segment(x1: float, y1: float, x2: float, y2: float, color: str, dash: str = "") -> str:
        (a1, b1), (a2, b2) = px(x1, y1), px(x2, y2)
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        return (
            f'<line x1="{a1:.2f}" y1="{b1:.2f}" x2="{a2:.2f}" y2="{b2:.2f}" '
            f'stroke="{color}" stroke-width="2"{extra}/>'
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_WIDTH}" height="{SVG_HEIGHT}" viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<rect x="0" y="0" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
    ]
    parts.append(
        f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{_FRAME_WIDTH}" height="{_FRAME_HEIGHT}" '
        f'fill="none" stroke="#444444" stroke-width="1"/>'
    )

    parts.append(segment(0, 0, x_max, x_max, _IDENTITY_COLOR))

    # Vertices are the exact (rank, citations) pairs; the stroke keeps its
    # 2 px width under the anisotropic matrix.
    parts.append(
        f'<polyline fill="none" stroke="{_CITATIONS_COLOR}" stroke-width="2" '
        f'vector-effect="non-scaling-stroke" '
        f'transform="matrix({sx!r} 0 0 {sy!r} {_MARGIN_LEFT} {_FRAME_BOTTOM})" points="'
    )
    # The points go between head and tail, in bytes (see _points).
    head = "\n".join(parts).encode("ascii")
    parts = ['"/>']

    if fit is not None:
        lo, hi = _visible_span(fit, x_max, y_max)
        if lo < hi:
            parts.append(segment(lo, fit.predict(lo), hi, fit.predict(hi), _TRENDLINE_COLOR))

    marker = fit.crossing if fit is not None else trace.crossing
    if marker is None:
        j = trace.argmin_index
        if j is not None:
            parts.append(segment(j, j, j, profile.sorted_desc[j - 1], _DISTANCE_COLOR, dash="4 3"))
    elif marker <= x_max:
        mx, my = px(float(marker), float(marker))
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
        f'font-size="12" font-family="sans-serif">{x_max}</text>'
    )
    parts.append(
        f'<text x="{_MARGIN_LEFT - 8}" y="{_MARGIN_TOP + 5}" text-anchor="end" '
        f'font-size="12" font-family="sans-serif">{y_max}</text>'
    )
    parts.append("</svg>\n")
    tail = "\n".join(parts).encode("ascii")
    return chain((head,), _points(profile.sorted_desc), (tail,))


# Vertices per chunk of the points attribute: a caller that writes the
# chunks as they come holds one chunk's bytes and numbers at a time.
_CHUNK = 8192


def _points(sorted_desc: tuple[int, ...]) -> Iterator[bytes]:
    """The polyline's "rank,citations" vertices, space-separated, in chunks,
    each formatted by one % over its ranks and counts interleaved."""
    for lo in range(0, len(sorted_desc), _CHUNK):
        if lo:
            yield b" "
        counts = sorted_desc[lo : lo + _CHUNK]
        flat = [0] * (2 * len(counts))
        flat[0::2] = range(lo + 1, lo + len(counts) + 1)
        flat[1::2] = counts
        yield (b"%d,%d " * len(counts))[:-1] % tuple(flat)


def _visible_span(fit: LineFit, x_max: float, y_max: float) -> tuple[float, float]:
    # x interval over which the fitted line stays inside [0, y_max]. A fit's
    # slope is never positive, and a flat fit runs at its one count, <= y_max.
    if fit.slope == 0.0:
        return 0.0, x_max
    return max(0.0, (y_max - fit.intercept) / fit.slope), min(x_max, -fit.intercept / fit.slope)
