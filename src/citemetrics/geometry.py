"""Cartesian-geometric determination of the h-index.

Plot journal rank on the x-axis and the descending citation counts on the
y-axis. Two curves appear: the journal number line (the identity y = x)
and the citation polyline through the points (rank, citations).

citations[rank] - rank is strictly decreasing (citations are
non-increasing, ranks increase by one), so the ranks on or above y = x
are exactly 1..k, and one bisection finds k. That k is h. The paper's
rules label how the curves meet: they touch at an integer point ("i.a"),
an exactly straight polyline crosses between ranks ("ii.a"), a
curvilinear one is judged by its minimum vertical gap ("iii.b"/"iii.c"),
or it lies entirely above or below y = x. The tests apply each label's
rule as the paper states it and check that it gives k. A touching point
is also the rank of minimum gap, so "i.a" subsumes "iii.a".

A least-squares trendline offers an approximate route for profiles that
are nearly linear; an applicability gate decides when to trust it. The
fit is computed from exact integer sums, and its estimate is the floor of
the exact crossing with y = x.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import accumulate, count, islice, pairwise
from operator import mul, sub
from typing import Iterator, Sequence

from .core import _BLOCK, CitationProfile, HIndexResult, InputError, Method  # _BLOCK: see core


class EmptyProfile(InputError):
    """The geometric construction needs at least one paper."""


class DegenerateFit(InputError):
    """A line cannot be fitted through fewer than two papers."""


@dataclass(frozen=True)
class Point2:
    x: float
    y: float


@dataclass(frozen=True)
class LineFit:
    """Least-squares line y = slope * x + intercept with its fit quality
    and ``crossing``, the exact abscissa where it meets y = x. Only
    estimate_h_via_trendline builds one, so the slope is never positive.
    """

    slope: float
    intercept: float
    r_squared: Fraction
    crossing: Fraction

    def predict(self, x: float) -> float:
        return self.slope * x + self.intercept


class GeometricCase(Enum):
    INTEGER_INTERSECTION = "integer_intersection"
    FRACTIONAL_INTERSECTION = "fractional_intersection"
    NO_CROSSING_MIN_DISTANCE = "no_crossing_min_distance"
    ENTIRELY_ABOVE = "entirely_above"
    ENTIRELY_BELOW = "entirely_below"


@dataclass(frozen=True)
class GeometricTrace:
    """Record of which geometric case fired and the evidence for it.

    ``postulate`` labels the clause applied: "i.a" for an integer
    intersection, "ii.a" for a fractional crossing of an exactly straight
    citation line, "iii.b" for the minimum-distance rule with the nearest
    point below the identity line ("iii.c" marks the extension where it
    lies above, a situation the rule set leaves open), and "n/a" when the
    curves never meet (entirely above or below). "iii.a", the nearest
    point on the identity line, never appears: that point is an integer
    intersection, so "i.a" subsumes it.

    ``crossing``, the exact abscissa of the intersection (x, x) with y = x,
    is present exactly for the two intersection cases; ``argmin_index``
    (1-based, pointing at a true minimum of the gaps |citations - rank|),
    ``first_rank`` and ``distances`` exactly for the minimum-distance
    case. ``distances`` is the window of gaps at ranks ``first_rank``,
    ``first_rank`` + 1, ... within WINDOW_RADIUS of the argmin, clipped to
    1..n: at most 11 gaps, the evidence the reports show. No trace holds
    the counts; ``vertical_distances(profile)`` returns the full table.
    """

    case: GeometricCase
    postulate: str
    crossing: Fraction | None = None
    argmin_index: int | None = None
    first_rank: int | None = None
    distances: tuple[int, ...] | None = None


# Ranks shown on each side of the minimum-distance argmin. The argmin is k
# or k + 1, where citations - rank changes sign, so the window holds both
# straddle ranks and shows the gaps falling to the argmin and rising after.
WINDOW_RADIUS = 5


def _gaps(counts: Sequence[int], first_rank: int = 1) -> Iterator[int]:
    """|citations - rank| for counts at ranks first_rank, first_rank + 1, ..."""
    return map(abs, map(sub, counts, count(first_rank)))


def vertical_distances(profile: CitationProfile) -> list[int]:
    """Vertical gap |citations - rank| at each rank, 1-based.

    Equals the Euclidean distance between (rank, rank) on the identity
    line and (rank, citations) on the polyline, since the x offset is 0.
    """
    if profile.n == 0:
        raise EmptyProfile("no distances for an empty profile")
    return list(_gaps(profile.sorted_desc))


def _is_collinear(sorted_desc: Sequence[int]) -> bool:
    # Integer counts, so exact: one common step between consecutive ranks.
    step = sorted_desc[1] - sorted_desc[0]
    return all(b - a == step for a, b in pairwise(sorted_desc))


def geometric_h_index(profile: CitationProfile) -> tuple[HIndexResult, GeometricTrace | None]:
    """h-index from one bisection, with the trace of the geometric case split.

    g(rank) = citations[rank] - rank falls strictly, so the ranks with
    g >= 0 are exactly 1..k, one bisection finds k, and h = k. The split
    only labels how the polyline meets y = x:

    * g(k) = 0 -> INTEGER_INTERSECTION at (k, k) ("i.a");
    * k = n -> ENTIRELY_ABOVE; k = 0 -> ENTIRELY_BELOW;
    * otherwise the polyline straddles y = x between k and k+1. An exactly
      straight polyline -> FRACTIONAL_INTERSECTION with the exact crossing
      ("ii.a"); a curvilinear one -> NO_CROSSING_MIN_DISTANCE with the
      argmin of |g| and the window of gaps around it. |g| falls up to k
      and rises after it, so the argmin is k ("iii.c") when
      |g(k)| <= |g(k+1)|, else k+1 ("iii.b"); a tie goes to k.

    The tests check that each label's rule, applied as the paper states
    it, gives k. An empty profile yields h = 0 with no trace.
    """
    if profile.n == 0:
        return HIndexResult(0, Method.GEOMETRIC), None
    sd = profile.sorted_desc
    n = profile.n
    k = bisect_right(range(n), 0, key=lambda i: i + 1 - sd[i])

    if k and sd[k - 1] == k:
        trace = GeometricTrace(GeometricCase.INTEGER_INTERSECTION, "i.a", crossing=Fraction(k))
    elif k == n:
        trace = GeometricTrace(GeometricCase.ENTIRELY_ABOVE, "n/a")
    elif k == 0:
        trace = GeometricTrace(GeometricCase.ENTIRELY_BELOW, "n/a")
    elif _is_collinear(sd):
        rise = 1 - (sd[k] - sd[k - 1])  # >= 2: the step is <= -1 on a straddling segment
        crossing = k + Fraction(sd[k - 1] - k, rise)  # strictly inside (k, k+1)
        trace = GeometricTrace(GeometricCase.FRACTIONAL_INTERSECTION, "ii.a", crossing=crossing)
    else:
        if sd[k - 1] - k <= k + 1 - sd[k]:
            argmin, label = k, "iii.c"
        else:
            argmin, label = k + 1, "iii.b"
        lo, hi = max(1, argmin - WINDOW_RADIUS), min(n, argmin + WINDOW_RADIUS)
        trace = GeometricTrace(GeometricCase.NO_CROSSING_MIN_DISTANCE, label, argmin_index=argmin,
                               first_rank=lo, distances=tuple(_gaps(sd[lo - 1 : hi], lo)))
    return HIndexResult(k, Method.GEOMETRIC), trace


def classify_profile(profile: CitationProfile) -> GeometricTrace:
    """The trace of geometric_h_index. Not exported: the benchmark's own
    tests import it. Raises EmptyProfile for n = 0, which has no trace."""
    trace = geometric_h_index(profile)[1]
    if trace is None:
        raise EmptyProfile("cannot classify an empty profile")
    return trace


def intersect_with_identity(fit: LineFit) -> Point2:
    """Where y = slope * x + intercept meets y = x: the exact crossing,
    rounded once to a float."""
    x = float(fit.crossing)
    return Point2(x, x)


def estimate_h_via_trendline(profile: CitationProfile) -> tuple[int, LineFit]:
    """Approximate h as the floor of the trendline's identity crossing,
    returned with the least-squares line through (rank, citations).

    The fit comes from exact integer sums. Ranks are 1..n, so their sums
    have closed forms. The slope and intercept are each one int/int
    quotient, which Python rounds correctly. r_squared stays exact: the
    Fraction Sxy^2 / (Sxx * Syy), 1 for a zero-variance y (a horizontal
    fit through identical values is exact). The counts do not increase,
    so the slope is never positive and the intercept is at least the
    mean count: the crossing is never negative. It can pass n (three
    papers cited 10 times cross at 10), so the estimate is capped at n.
    Only trustworthy for near-linear profiles; combine with
    trendline_applicable. Raises DegenerateFit for fewer than two papers.
    """
    n = profile.n
    if n < 2:
        raise DegenerateFit(f"need at least 2 papers, got {n}")
    sd = profile.sorted_desc
    sx = n * (n + 1) // 2
    sxx = n * (n + 1) * (2 * n + 1) // 6
    sy = sxy = syy = 0
    for lo in range(0, n, _BLOCK):
        block = sd[lo : lo + _BLOCK]
        s = sum(block)
        sy += s
        # over the m = len(block) counts at ranks lo + 1 .. lo + m, the sum of
        # rank * count is (lo + m + 1) * s less the sum of the prefix sums
        sxy += (lo + len(block) + 1) * s - sum(accumulate(block))
        syy += sum(map(mul, block, block))
    # n times the centred sums of squares and products; n cancels below.
    cxx = n * sxx - sx * sx
    cxy = n * sxy - sx * sy
    cyy = n * syy - sy * sy
    top = sy * sxx - sx * sxy  # intercept * cxx
    fit = LineFit(
        slope=cxy / cxx,
        intercept=top / cxx,
        r_squared=Fraction(cxy * cxy, cxx * cyy) if cyy else Fraction(1),
        # Non-increasing counts give cxy <= 0, so the divisor is positive.
        crossing=Fraction(top, cxx - cxy),
    )
    return min(math.floor(fit.crossing), n), fit


# Minimum variance explained for the straight-line story to be credible.
R_SQUARED_GATE = Fraction(19, 20)


def trendline_applicable(profile: CitationProfile, fit: LineFit) -> bool:
    """Gate for trusting the trendline estimate on this profile.

    Requires the fit's exact r_squared to be at least 19/20, compared as
    Fractions, and no single rank-to-rank drop larger than the paper
    count; a cliff that size means the profile is curvilinear no matter
    how good the global fit looks. The gate is a heuristic: it accepts
    near-linear profiles and rejects curvilinear ones, but passing it does
    not certify the estimate (see tests for a pinned divergence case).
    """
    n = profile.n
    if n < 2 or fit.r_squared < R_SQUARED_GATE:
        return False
    sd = profile.sorted_desc
    # Blocks overlap by one count, so every adjacent pair lies in one. No
    # drop in a block exceeds its whole drop, so a block that falls by at
    # most n is skipped unread.
    for lo in range(0, n - 1, _BLOCK):
        hi = min(lo + _BLOCK, n - 1)
        if sd[lo] - sd[hi] > n:
            block = sd[lo : hi + 1]
            if max(map(sub, block, islice(block, 1, None))) > n:
                return False
    return True
