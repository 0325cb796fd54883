"""Geometric h-index machinery: distances, fits, classification, engine."""

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import sub
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citemetrics import (
    DegenerateFit,
    EmptyProfile,
    GeometricCase,
    build_report,
    emit_report,
    estimate_h_via_trendline,
    geometric_h_index,
    h_index_oracle,
    intersect_with_identity,
    normalize_profile,
    trendline_applicable,
    vertical_distances,
)
from citemetrics.geometry import R_SQUARED_GATE, classify_profile
from citemetrics.plot import svg_chunks
from conftest import A1, A2, A3, A4, A5, profile, random_profiles

citation_lists = st.lists(st.integers(min_value=0, max_value=10**6), max_size=200)

# Frozen fit fixtures, computed with exact rational arithmetic on the
# fixture profiles: slope = Sxy/Sxx, intercept = ybar - slope*xbar,
# r^2 = Sxy^2/(Sxx*SStot).
A1_SLOPE = -54 / 55
A1_INTERCEPT = 614 / 55
A1_R2 = 2916 / 2975  # ~0.98017
A1_CROSSING = 614 / 109  # ~5.6330275
A2_R2 = 288 / 313  # ~0.92013, below the 0.95 gate
A4_R2 = 418609 / 433015  # ~0.96673, above the gate; the drop clause rejects a4


# ---------------------------------------------------------------------------
# the trendline fit, as estimate_h_via_trendline returns it


def test_fit_frozen_a1_line():
    fit = estimate_h_via_trendline(profile(A1))[1]
    assert fit.slope == pytest.approx(A1_SLOPE, abs=1e-12)
    assert fit.intercept == pytest.approx(A1_INTERCEPT, abs=1e-12)
    assert fit.r_squared == pytest.approx(A1_R2, abs=1e-12)


def test_fit_exact_straight_profile():
    fit = estimate_h_via_trendline(profile([9, 7, 5, 3, 1]))[1]
    assert (fit.slope, fit.intercept, fit.r_squared) == (-2.0, 11.0, 1.0)


def test_fit_horizontal_line():
    fit = estimate_h_via_trendline(profile([2, 2, 2]))[1]
    assert fit.slope == 0.0
    assert fit.intercept == 2.0
    assert fit.r_squared == 1.0  # zero variance defined as a perfect fit


def test_fit_degenerate_inputs():
    with pytest.raises(DegenerateFit):
        estimate_h_via_trendline(profile([1]))
    with pytest.raises(DegenerateFit):
        estimate_h_via_trendline(profile([]))


@settings(max_examples=200)
@given(st.lists(st.integers(min_value=0, max_value=10**4), min_size=2, max_size=50))
def test_fit_minimizes_squared_residuals(values):
    p = normalize_profile(values)
    fit = estimate_h_via_trendline(p)[1]

    def ssr(slope, intercept):
        return math.fsum((y - (slope * x + intercept)) ** 2 for x, y in enumerate(p.sorted_desc, start=1))

    best = ssr(fit.slope, fit.intercept)
    for ds, dc in ((1e-3, 0.0), (-1e-3, 0.0), (0.0, 1e-3), (0.0, -1e-3)):
        assert ssr(fit.slope + ds, fit.intercept + dc) >= best
    assert 0.0 <= fit.r_squared <= 1.0


# ---------------------------------------------------------------------------
# vertical_distances


def test_vertical_distance_tables():
    assert vertical_distances(profile(A2)) == [9, 7, 4, 1, 3, 5, 6]
    assert vertical_distances(profile(A4)) == [399, 298, 197, 2]
    assert vertical_distances(profile([1])) == [0]


def test_vertical_distances_empty():
    with pytest.raises(EmptyProfile):
        vertical_distances(profile([]))


@given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=200))
def test_vertical_distance_matches_euclidean(values):
    p = normalize_profile(values)
    distances = vertical_distances(p)
    for i, d in enumerate(distances):
        journal = i + 1
        assert d == abs(p.sorted_desc[i] - journal)


# ---------------------------------------------------------------------------
# the geometric trace, as geometric_h_index returns it


def test_classify_integer_intersection():
    trace = geometric_h_index(profile(A5))[1]
    assert trace.case is GeometricCase.INTEGER_INTERSECTION
    assert trace.crossing == 6
    assert trace.postulate == "i.a"
    assert trace.distances is None and trace.argmin_index is None


def test_classify_fractional_intersection():
    trace = geometric_h_index(profile(A3))[1]
    assert trace.case is GeometricCase.FRACTIONAL_INTERSECTION
    assert trace.crossing == Fraction(5, 2)
    assert trace.postulate == "ii.a"


def test_classify_entirely_above_and_below():
    above = geometric_h_index(profile([5, 5]))[1]
    assert above.case is GeometricCase.ENTIRELY_ABOVE
    below = geometric_h_index(profile([0, 0, 0]))[1]
    assert below.case is GeometricCase.ENTIRELY_BELOW
    assert above.crossing is None and below.crossing is None


def test_classify_curvilinear_profiles_report_distances():
    for values, expected_distances, expected_argmin in (
        (A2, (9, 7, 4, 1, 3, 5, 6), 4),
        (A4, (399, 298, 197, 2), 4),
        (A1, (9, 7, 5, 4, 2, 1, 3, 5, 7, 9, 10), 6),
    ):
        trace = geometric_h_index(profile(values))[1]
        assert trace.case is GeometricCase.NO_CROSSING_MIN_DISTANCE
        assert trace.distances == expected_distances
        assert all(type(d) is int for d in trace.distances)
        assert trace.argmin_index == expected_argmin
        assert trace.postulate == "iii.b"
        assert trace.crossing is None


def test_classify_empty():
    with pytest.raises(EmptyProfile):
        classify_profile(profile([]))


@given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=200))
def test_trace_shape_invariants(values):
    trace = geometric_h_index(normalize_profile(values))[1]
    has_intersection = trace.crossing is not None
    assert has_intersection == (
        trace.case in (GeometricCase.INTEGER_INTERSECTION, GeometricCase.FRACTIONAL_INTERSECTION)
    )
    has_distances = trace.distances is not None
    assert has_distances == (trace.case is GeometricCase.NO_CROSSING_MIN_DISTANCE)
    assert (trace.argmin_index is not None) == has_distances == (trace.first_rank is not None)
    if has_distances:
        lo, window = trace.first_rank, trace.distances
        assert 1 <= lo <= trace.argmin_index < lo + len(window) and len(window) <= 11
        assert window[trace.argmin_index - lo] == min(window)
        assert all(type(d) is int and d >= 0 for d in window)


# ---------------------------------------------------------------------------
# geometric_h_index


@pytest.mark.parametrize(
    "values,expected_h,expected_postulate",
    [
        (A1, 5, "iii.b"),
        (A2, 3, "iii.b"),
        (A3, 2, "ii.a"),
        (A4, 3, "iii.b"),
        (A5, 6, "i.a"),
        ([0], 0, "n/a"),
    ],
)
def test_geometric_fixtures(values, expected_h, expected_postulate):
    result, trace = geometric_h_index(profile(values))
    assert result.h == expected_h
    assert trace.postulate == expected_postulate


def test_geometric_floors_the_exact_crossing():
    # the crossing lies just below 2; as a float, k + t rounds up to exactly 2.0
    for top in (2**53, 2**53 - 1):
        p = profile([top, 1])
        result, trace = geometric_h_index(p)
        assert trace.case is GeometricCase.FRACTIONAL_INTERSECTION
        assert 1 + (top - 1) / top == 2.0 and trace.crossing < 2
        assert result.h == 1 == h_index_oracle(p).h


def test_geometric_empty_profile_has_no_trace():
    result, trace = geometric_h_index(profile([]))
    assert result.h == 0
    assert trace is None


def test_geometric_min_distance_rule_details():
    # a2: min gap 1 at journal 4, whose 3 citations sit below the line
    result, trace = geometric_h_index(profile(A2))
    assert trace.argmin_index == 4
    assert min(trace.distances) == 1
    assert result.h == 4 - 1
    # a4: min gap 2 at journal 4
    result, trace = geometric_h_index(profile(A4))
    assert trace.argmin_index == 4
    assert min(trace.distances) == 2
    assert result.h == 3


def test_geometric_min_distance_point_above_the_line():
    # nearest rank (4, citations 5) is above the identity line, a case the
    # base rules leave open; the extension keeps the definition's answer
    result, trace = geometric_h_index(profile([10, 9, 8, 5, 1]))
    assert trace.case is GeometricCase.NO_CROSSING_MIN_DISTANCE
    assert trace.postulate == "iii.c"
    assert trace.argmin_index == 4
    assert result.h == 4 == h_index_oracle(profile([10, 9, 8, 5, 1])).h


@given(citation_lists)
def test_geometric_agrees_with_oracle(values):
    p = normalize_profile(values)
    assert geometric_h_index(p)[0].h == h_index_oracle(p).h


@given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=200))
def test_postulate_labels_never_hit_impossible_branches(values):
    # with citations non-increasing and ranks increasing, an integer
    # intersection with unequal coordinates (i.b / i.c) cannot occur,
    # and a crossing of y = x always has equal coordinates (no ii.b)
    trace = geometric_h_index(normalize_profile(values))[1]
    assert trace.postulate in {"i.a", "ii.a", "iii.b", "iii.c", "n/a"}


@given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=200))
def test_fractional_floor_semantics(values):
    result, trace = geometric_h_index(normalize_profile(values))
    if trace.case is GeometricCase.FRACTIONAL_INTERSECTION:
        x_star = trace.crossing
        assert math.floor(x_star) <= x_star < math.floor(x_star) + 1
        assert result.h == math.floor(x_star)
        # crossing is strictly between integer ranks
        assert x_star != math.floor(x_star)


def test_geometric_seeded_sweep():
    for _, p in random_profiles(seed=4104, count=2000):
        assert geometric_h_index(p)[0].h == h_index_oracle(p).h


# ---------------------------------------------------------------------------
# trendline estimation and its applicability gate


def test_estimate_a1():
    estimate, fit = estimate_h_via_trendline(profile(A1))
    assert estimate == 5
    assert fit.slope == pytest.approx(-0.98182, abs=1e-4)
    crossing = intersect_with_identity(fit)
    assert crossing.x == pytest.approx(A1_CROSSING, abs=1e-12)


def test_estimate_exact_linear_profile():
    # exact fit y = -x + 6 crosses the identity at 3, matching the h-index
    estimate, fit = estimate_h_via_trendline(profile([5, 4, 3, 2, 1]))
    assert (fit.slope, fit.intercept) == (-1.0, 6.0)
    assert estimate == 3 == h_index_oracle(profile([5, 4, 3, 2, 1])).h


def test_estimate_flat_profile():
    estimate, fit = estimate_h_via_trendline(profile([2, 2]))
    assert fit.slope == 0.0
    assert estimate == 2


def test_estimate_clamps_into_paper_count():
    # crossing at 5 exceeds n = 2; the estimate clamps to the paper count
    estimate, _ = estimate_h_via_trendline(profile([5, 5]))
    assert estimate == 2 == h_index_oracle(profile([5, 5])).h


def test_estimate_floors_the_exact_crossing():
    # the fitted line meets y = x at exactly 6; the rounded float fit puts
    # the crossing at 5.999999999999999, whose floor would be 5
    p = profile([12, 11, 11, 11, 8, 6, 3])
    estimate, fit = estimate_h_via_trendline(p)
    assert fit.intercept / (1 - fit.slope) < 6 and fit.crossing == 6
    assert estimate == 6


def test_estimate_degenerate():
    with pytest.raises(DegenerateFit):
        estimate_h_via_trendline(profile([7]))


def test_gate_accepts_near_linear_profiles():
    for values in (A1, A3):
        _, fit = estimate_h_via_trendline(profile(values))
        assert trendline_applicable(profile(values), fit)


def test_gate_rejects_a2_by_fit_quality():
    _, fit = estimate_h_via_trendline(profile(A2))
    assert fit.r_squared == pytest.approx(A2_R2, abs=1e-12)
    assert fit.r_squared < 0.95
    assert not trendline_applicable(profile(A2), fit)


def test_gate_rejects_a4_by_cliff_size():
    # a4 fits surprisingly well (r^2 ~0.967) yet drops 198 in one step,
    # far beyond its 4 papers; the drop clause is what rejects it
    _, fit = estimate_h_via_trendline(profile(A4))
    assert fit.r_squared == pytest.approx(A4_R2, abs=1e-12)
    assert fit.r_squared >= 0.95
    assert not trendline_applicable(profile(A4), fit)


def test_gate_rejects_a5():
    _, fit = estimate_h_via_trendline(profile(A5))
    assert not trendline_applicable(profile(A5), fit)


def test_gate_passing_does_not_certify_the_estimate():
    # pinned divergence: [8, 5, 3] passes the gate (r^2 = 75/76, max drop
    # 3 <= 3) but the fitted line crosses at ~2.95, flooring to 2 while
    # the true h-index is 3; the trendline stays an approximation
    p = profile([8, 5, 3])
    estimate, fit = estimate_h_via_trendline(p)
    assert trendline_applicable(p, fit)
    assert fit.r_squared == pytest.approx(75 / 76, abs=1e-12)
    assert estimate == 2
    assert h_index_oracle(p).h == 3


@given(st.lists(st.integers(min_value=0, max_value=10**4), min_size=2, max_size=100))
def test_estimate_always_within_bounds(values):
    p = normalize_profile(values)
    estimate, _ = estimate_h_via_trendline(p)
    assert 0 <= estimate <= p.n


# ---------------------------------------------------------------------------
# the bisection classifier and the exact fit against naive references


def _reference_trace(sd):
    """(case, postulate, exact crossing, distances, argmin) by full scans."""
    n = len(sd)
    gaps = [c - rank for rank, c in enumerate(sd, start=1)]
    if 0 in gaps:
        touch = gaps.index(0) + 1
        return GeometricCase.INTEGER_INTERSECTION, "i.a", touch, None, None
    if all(g > 0 for g in gaps):
        return GeometricCase.ENTIRELY_ABOVE, "n/a", None, None, None
    if all(g < 0 for g in gaps):
        return GeometricCase.ENTIRELY_BELOW, "n/a", None, None, None
    if len({b - a for a, b in zip(sd, sd[1:])}) == 1:
        step = sd[1] - sd[0]
        # the line y = sd[0] + step * (x - 1) meets y = x here
        crossing = Fraction(sd[0] - step, 1 - step)
        return GeometricCase.FRACTIONAL_INTERSECTION, "ii.a", crossing, None, None
    distances = tuple(abs(g) for g in gaps)
    at_minimum = [rank for rank in range(1, n + 1) if distances[rank - 1] == min(distances)]
    # a tie goes to the rank whose point is above the identity line
    above = [rank for rank in at_minimum if gaps[rank - 1] > 0]
    argmin = (above or at_minimum)[0]
    label = "iii.c" if gaps[argmin - 1] > 0 else "iii.b"
    return GeometricCase.NO_CROSSING_MIN_DISTANCE, label, None, distances, argmin


def _reference_fit(sd):
    """(slope, intercept, r^2, estimate, crossing): textbook least squares in Fractions."""
    n = len(sd)
    xs = range(1, n + 1)
    mean_x, mean_y = Fraction(sum(xs), n), Fraction(sum(sd), n)
    sxx = sum(x * x for x in xs) - n * mean_x * mean_x
    sxy = sum(x * y for x, y in zip(xs, sd)) - n * mean_x * mean_y
    syy = sum(y * y for y in sd) - n * mean_y * mean_y
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    r_squared = sxy * sxy / (sxx * syy) if syy else Fraction(1)
    crossing = intercept / (1 - slope)
    estimate = min(max(math.floor(crossing), 0), n)
    return float(slope), float(intercept), float(r_squared), estimate, crossing


def _check_against_references(values):
    p = normalize_profile(values)
    trace = geometric_h_index(p)[1]
    case, postulate, crossing, table, argmin = _reference_trace(p.sorted_desc)
    window = lo = None
    if table is not None:
        # the trace holds the gaps within 5 ranks of the argmin; the library returns them all
        lo, hi = max(1, argmin - 5), min(p.n, argmin + 5)
        window = table[lo - 1 : hi]
        assert vertical_distances(p) == list(table)
        assert all(type(d) is int for d in trace.distances)
    got = (trace.case, trace.postulate, trace.crossing, trace.distances, trace.argmin_index, trace.first_rank)
    assert got == (case, postulate, crossing, window, argmin, lo)
    if p.n >= 2:
        estimate, fit = estimate_h_via_trendline(p)
        got = (fit.slope, fit.intercept, fit.r_squared, estimate, fit.crossing)
        assert got == _reference_fit(p.sorted_desc)
        point = intersect_with_identity(fit)
        assert point.x == point.y == float(fit.crossing)
    return trace


def _mixed_profiles(seed, count, max_n=200):
    """Profiles that reach every geometric case: counts up to a few times n,
    and one in five an exact arithmetic progression."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_n)
        if rng.random() < 0.2:
            last, step = rng.randint(0, n), rng.randint(0, 3)
            yield [last + step * i for i in range(n)]
        else:
            top = rng.choice((1, n, 2 * n, 4 * n))
            yield [rng.randint(0, top) for _ in range(n)]


def test_fast_paths_match_references_seeded_sweep():
    seen = Counter()
    for values in _mixed_profiles(seed=5309, count=10_000):
        seen[_check_against_references(values).postulate] += 1
    assert set(seen) == {"i.a", "ii.a", "iii.b", "iii.c", "n/a"}


def test_min_distance_tie_goes_to_the_rank_above():
    # gaps 4, 1, -1, -4: |g| ties at ranks 2 and 3; rank 2 lies above
    trace = _check_against_references([5, 3, 2, 0])
    assert (trace.argmin_index, trace.postulate) == (2, "iii.c")


arithmetic_progressions = st.builds(
    lambda last, step, n: [last + step * i for i in range(n)],
    st.integers(0, 200),
    st.integers(0, 5),
    st.integers(1, 100),
)


@settings(max_examples=300)
@given(st.lists(st.integers(min_value=0, max_value=400), min_size=1, max_size=120) | arithmetic_progressions)
def test_fast_paths_match_references(values):
    _check_against_references(values)


# ---------------------------------------------------------------------------
# every small profile

# The smallest profile (fewest papers, then fewest citations, then the
# lowest counts rank by rank) that fires each geometric rule and each
# outcome of the trendline gate (the drop clause judged first), with its h.
# The README prints the same table.
_SMALLEST_WITNESSES = {
    "i.a": ((1,), 1),
    "ii.a": ((2, 0), 1),
    "iii.b": ((3, 1, 0), 1),
    "iii.c": ((2, 0, 0), 1),
    "entirely above": ((2,), 1),
    "entirely below": ((0,), 0),
    "drop > n": ((3, 0), 1),
    "r² < 0.95": ((1, 0, 0), 1),
    "gate passes": ((0, 0), 0),
}


def _gate_outcome(sd):
    """The gate judged in exact integers: r^2 >= 0.95 is 20 cxy^2 >= 19 cxx cyy,
    with cxx, cxy, cyy the centred sums times n. (outcome, exact r^2 clause)."""
    n = len(sd)
    xs = range(1, n + 1)
    cxx = n * sum(x * x for x in xs) - sum(xs) ** 2
    cxy = n * sum(x * y for x, y in zip(xs, sd)) - sum(xs) * sum(sd)
    cyy = n * sum(y * y for y in sd) - sum(sd) ** 2
    r2_passes = 20 * cxy * cxy >= 19 * cxx * cyy
    if max(map(sub, sd, sd[1:])) > n:
        return "drop > n", r2_passes
    return ("gate passes" if r2_passes else "r² < 0.95"), r2_passes


# Every non-increasing profile of 1..max_n papers with counts 0..max_count:
# 19,447 profiles in tier-1, 75,581 in the slow tier (pytest -m slow).
@pytest.mark.parametrize(
    "max_n,max_count",
    [pytest.param(7, 9, id="n7-max9"), pytest.param(8, 10, id="n8-max10", marks=pytest.mark.slow)],
)
def test_every_small_profile(max_n, max_count):
    witnesses, float_differs = {}, []
    for n in range(1, max_n + 1):
        for sd in combinations_with_replacement(range(max_count, -1, -1), n):
            trace = _check_against_references(sd)
            p = normalize_profile(sd)
            report = build_report(p)
            assert report.agreement
            h = report.results[0].h
            assert f'"h": {h},'.encode() in emit_report(report, "json")
            assert f"\nh-index: {h}\n".encode() in emit_report(report, "text")
            rules = [trace.postulate if trace.postulate != "n/a" else trace.case.value.replace("_", " ")]
            fit = None
            if n >= 2:
                outcome, r2_passes = _gate_outcome(sd)
                fitted = estimate_h_via_trendline(p)[1]
                if (fitted.r_squared >= R_SQUARED_GATE) != r2_passes:
                    float_differs.append(sd)
                if trendline_applicable(p, fitted):
                    fit = fitted
                assert (fit is not None) == (outcome == "gate passes")
                rules.append(outcome)
            assert b"".join(svg_chunks(p, trace, fit)).endswith(b"</svg>\n")
            key = (n, sum(sd), sd)
            for rule in rules:
                if rule not in witnesses or key < witnesses[rule][0]:
                    witnesses[rule] = key, (sd, h)
    assert float_differs == []  # the float gate decides as the exact one on every profile
    assert {rule: found for rule, (_, found) in witnesses.items()} == _SMALLEST_WITNESSES


def test_readme_prints_the_smallest_witnesses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = [line for line in readme.splitlines() if line.startswith("| ")]
    for rule, (sd, h) in _SMALLEST_WITNESSES.items():
        cells = f" | {', '.join(map(str, sd))} | {h} |"
        assert [row for row in rows if row.startswith(f"| {rule} | ") and row.endswith(cells)], rule
