"""Parsing, report emission, SVG plots, benchmarks, and the CLI."""

import contextlib
import io
import itertools
import json
import math
import random
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citemetrics import (
    BenchmarkRow,
    DuplicatePaperId,
    EmptyProfile,
    HIndexResult,
    InvalidSize,
    Method,
    NegativeCitation,
    ParseError,
    UnknownMethod,
    build_report,
    emit_citations_json,
    emit_plot_svg,
    emit_report,
    estimate_h_via_trendline,
    generate_citations,
    geometric_h_index,
    normalize_profile,
    parse_citations,
    run_benchmark,
    scaling_exponents,
)
from citemetrics import cli_io, geometry, scaling
from citemetrics.cli_io import report_to_dict
from citemetrics.plot import (
    _FRAME_BOTTOM,
    _FRAME_HEIGHT,
    _FRAME_WIDTH,
    _MARGIN_LEFT,
    _MARGIN_RIGHT,
    SVG_WIDTH,
    plot_scales,
)
from citemetrics.scaling import format_benchmark_report
from conftest import A1, A1_CSV, A2, A3, A4, A5, profile
from test_geometry import _reference_fit

citation_lists = st.lists(st.integers(min_value=0, max_value=10**6), max_size=200)


# ---------------------------------------------------------------------------
# parsing


def test_parse_single_column_csv():
    assert parse_citations(A1_CSV, "csv") == A1


def test_parse_csv_crlf_and_blank_lines():
    assert parse_citations(b"10\r\n9\r\n\r\n8\r\n", "csv") == [10, 9, 8]


def test_parse_csv_whitespace_tolerated():
    assert parse_citations(b"  10 \n9\n", "csv") == [10, 9]


def test_parse_empty_csv():
    assert parse_citations(b"", "csv") == []


def test_parse_two_column_csv():
    body = b"paper_id,citations\np1,4\np2,3\np3,2\np4,1\n"
    assert parse_citations(body, "csv") == [4, 3, 2, 1]


def test_parse_two_column_header_only():
    assert parse_citations(b"paper_id,citations\n", "csv") == []


def test_parse_two_column_duplicate_id():
    body = b"paper_id,citations\np1,4\np1,3\n"
    with pytest.raises(DuplicatePaperId) as exc:
        parse_citations(body, "csv")
    assert "p1" in str(exc.value)


def test_parse_two_column_wrong_arity():
    with pytest.raises(ParseError):
        parse_citations(b"paper_id,citations\np1,4,9\n", "csv")


def test_parse_csv_rejects_non_integer():
    with pytest.raises(ParseError) as exc:
        parse_citations(b"10\nbanana\n", "csv")
    assert "line 2" in str(exc.value)
    # int() alone would read these as 1000 and 3
    for cell in ("1_000", "\u0663"):
        with pytest.raises(ParseError) as exc:
            parse_citations(f"10\n{cell}\n".encode(), "csv")
        assert "line 2" in str(exc.value)


def test_parse_csv_rejects_comma_without_header():
    with pytest.raises(ParseError):
        parse_citations(b"1,2\n3,4\n", "csv")


def test_parse_csv_negative_count():
    with pytest.raises(NegativeCitation):
        parse_citations(b"3\n-1\n", "csv")


def test_parse_json_array():
    assert parse_citations(b"[4, 3, 2, 1]", "json") == [4, 3, 2, 1]
    assert parse_citations(b"[]", "json") == []


def test_parse_json_rejects_bad_documents():
    with pytest.raises(ParseError):
        parse_citations(b"{\"a\": 1}", "json")
    with pytest.raises(ParseError):
        parse_citations(b"[1, 2.5]", "json")
    with pytest.raises(ParseError):
        parse_citations(b"[true]", "json")
    with pytest.raises(ParseError):
        parse_citations(b"[1, 2", "json")


def test_parse_json_negative_count():
    with pytest.raises(NegativeCitation) as exc:
        parse_citations(b"[5, -2]", "json")
    assert exc.value.index == 1


@given(citation_lists)
def test_json_round_trip(values):
    assert parse_citations(emit_citations_json(values), "json") == values


# A copy of the JSON parser as it stood before the all-int fast path, which
# checked and copied every element in a Python loop.
def _reference_parse_json(data):
    try:
        parsed = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno} column {exc.colno}", exc.msg) from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"offset {exc.start}", "input is not valid UTF-8") from None
    except ValueError as exc:
        raise ParseError("document", str(exc)) from None
    except RecursionError:
        raise ParseError("document", "arrays nested too deeply") from None
    if not isinstance(parsed, list):
        raise ParseError("document", "expected a flat JSON array of citation counts")
    values = []
    for i, item in enumerate(parsed):
        if isinstance(item, bool) or not isinstance(item, int):
            raise ParseError(f"element {i}", f"expected an integer citation count, got {item!r}")
        if item < 0:
            raise NegativeCitation(i, item)
        values.append(item)
    return values


def _assert_json_matches_reference(document):
    data = json.dumps(document).encode("utf-8")
    assert _outcome(lambda d: parse_citations(d, "json"), data) == _outcome(_reference_parse_json, data)


# Everything an array element can be that is not a count, mixed with counts.
json_elements = st.one_of(
    st.integers(min_value=-5, max_value=2**60),
    st.booleans(),
    st.sampled_from([2.0, 0.0, -0.0, 1.5, -3.0, 1e20]),
    st.none(),
    st.lists(st.integers(min_value=0, max_value=9), max_size=2),
    st.text(alphabet="07a", max_size=2),
)


@settings(max_examples=500)
@given(st.lists(json_elements, max_size=12) | st.lists(st.integers(min_value=0), max_size=12))
def test_parse_json_fast_path_matches_reference(document):
    _assert_json_matches_reference(document)


def test_parse_json_fast_path_matches_reference_seeded_sweep():
    rng = random.Random(1618)
    oddities = (True, False, 2.0, -0.0, 1.5, None, [], [3], {"a": 1}, "4", -1, -(2**53))
    for _ in range(10_000):
        document = [rng.randint(0, 2**53) for _ in range(rng.randint(0, 12))]
        # half the arrays stay all counts, so that both paths run
        for _ in range(rng.choice((0, 0, 1, 2))):
            document.insert(rng.randint(0, len(document)), rng.choice(oddities))
        _assert_json_matches_reference(document)
    for document in ([], [0], [True], [False, 1], [1, 2.0], [0, -1], [None], [[1, 2]], 7, {}):
        _assert_json_matches_reference(document)


# A copy of the per-line CSV parser as it stood before the single-pass fast
# path: the fast path must never change what a CSV parses to, or how it fails.
_REFERENCE_CELL = re.compile(r"-?[0-9]+")


def _reference_count(cell, lineno, position):
    try:
        if not _REFERENCE_CELL.fullmatch(cell):
            raise ValueError(cell)
        value = int(cell)
    except ValueError:
        raise ParseError(f"line {lineno}", f"not an integer citation count: {cell!r}") from None
    if value < 0:
        raise NegativeCitation(position, value)
    return value


def _reference_parse_csv(data):
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"offset {exc.start}", "input is not valid UTF-8") from None
    lines = text.splitlines()
    if not lines:
        return []
    header = [cell.strip().lower() for cell in lines[0].split(",")]
    if header == ["paper_id", "citations"]:
        seen, values = {}, []
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            cells = [cell.strip() for cell in line.split(",")]
            if len(cells) != 2:
                raise ParseError(f"line {lineno}", f"expected paper_id,citations, got {len(cells)} column(s)")
            paper_id, count_cell = cells
            if not paper_id:
                raise ParseError(f"line {lineno}", "empty paper_id")
            if paper_id in seen:
                raise DuplicatePaperId(
                    f"line {lineno}", f"paper_id {paper_id!r} already appeared on line {seen[paper_id]}"
                )
            seen[paper_id] = lineno
            values.append(_reference_count(count_cell, lineno, len(values)))
        return values
    values = []
    for lineno, line in enumerate(lines, start=1):
        cell = line.strip()
        if not cell:
            continue
        if "," in cell:
            raise ParseError(
                f"line {lineno}",
                "expected one citation count per line "
                "(two-column input needs a paper_id,citations header)",
            )
        values.append(_reference_count(cell, lineno, len(values)))
    return values


def _outcome(parse, data):
    try:
        return parse(data)
    except ValueError as exc:
        return type(exc), str(exc)


def _assert_csv_matches_reference(text, bom=False):
    data = ("\ufeff" if bom else "") + text
    data = data.encode("utf-8")
    assert _outcome(lambda d: parse_citations(d, "csv"), data) == _outcome(_reference_parse_csv, data)


# Digits and every separator or look-alike the two paths might treat apart:
# "\x0b", "\x85" and "\u2028" end a line for splitlines() but not for the
# plain-body check, "\xa0" is whitespace, and "\u0663" is an Arabic-Indic 3.
_CSV_ALPHABET = "0123456789-,_ \t\r\n\x0b\x85\u2028\xa0\u0663"


@settings(max_examples=500)
@given(st.text(alphabet=_CSV_ALPHABET, max_size=40), st.booleans())
def test_parse_csv_fast_path_matches_reference(text, bom):
    _assert_csv_matches_reference(text, bom)


def test_parse_csv_fast_path_matches_reference_seeded_sweep():
    rng = random.Random(2718)
    # Half the draws are mostly digits and newlines, so that both paths run.
    weighted = "0123456789" * 3 + "\n" * 8 + _CSV_ALPHABET
    for _ in range(10_000):
        alphabet = weighted if rng.random() < 0.5 else _CSV_ALPHABET
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        _assert_csv_matches_reference(text, bom=rng.random() < 0.2)


def test_parse_csv_fast_path_edges():
    for text in ("", "\n", "\n\n7\n\n", "007\n0", "1\n" + "9" * 5000 + "\n", "paper_id,citations\n"):
        _assert_csv_matches_reference(text)
    with pytest.raises(ParseError) as exc:
        parse_citations(("1\n" + "9" * 5000 + "\n").encode(), "csv")
    assert "line 2" in str(exc.value)


# ---------------------------------------------------------------------------
# reports

REPORT_KEYS = ["n", "h", "methods", "case", "postulate", "intersection", "distances", "agreement"]


def test_report_json_a1():
    payload = json.loads(emit_report(build_report(profile(A1)), "json"))
    assert list(payload) == REPORT_KEYS
    assert payload["n"] == 11
    assert payload["h"] == 5
    assert payload["methods"] == {"sort_scan": 5, "counting": 5, "oracle": 5, "geometric": 5}
    assert payload["case"] == "no_crossing_min_distance"
    assert payload["postulate"] == "iii.b"
    assert payload["intersection"] is None
    assert payload["distances"] == [9, 7, 5, 4, 2, 1, 3, 5, 7, 9, 10]
    assert payload["agreement"] is True


def test_report_json_a3_carries_intersection():
    payload = json.loads(emit_report(build_report(profile(A3)), "json"))
    assert payload["intersection"] == [2.5, 2.5]
    assert payload["distances"] is None
    assert payload["postulate"] == "ii.a"


def test_report_json_empty_profile():
    payload = json.loads(emit_report(build_report(profile([])), "json"))
    assert payload["n"] == 0 and payload["h"] == 0
    assert payload["case"] is None and payload["postulate"] is None
    assert payload["agreement"] is True


def test_report_text_a1():
    text = emit_report(build_report(profile(A1)), "text").decode()
    assert "h-index: 5" in text
    assert "intersection: (5.633027, 5.633027)" in text
    assert "postulate: iii.b" in text
    assert "min distance: 1 at journal 6" in text


def test_report_text_a5_postulate():
    text = emit_report(build_report(profile(A5)), "text").decode()
    assert "postulate: i.a" in text
    assert "h-index: 6" in text


def test_report_text_a3_trace_intersection():
    text = emit_report(build_report(profile(A3)), "text").decode()
    assert "intersection: (2.500000, 2.500000)" in text


def test_report_text_empty_profile():
    text = emit_report(build_report(profile([])), "text").decode()
    assert "h-index: 0" in text


def test_report_trendline_presence_follows_gate():
    for values, gate in ((A1, True), (A3, True), (A2, False), (A4, False), (A5, False)):
        text = emit_report(build_report(profile(values)), "text").decode()
        for line in ("\ntrendline: ", "\ntrendline estimate: ", "\ntrendline intersection: "):
            assert (line in text) is gate


# One profile per geometric case (touch, fractional, minimum distance,
# above, below), plus n = 1.
_ONE_PER_CASE = (A5, A3, A1, A4, [9, 9, 9], [0, 0], [1])


def test_report_json_matches_plain_json_dumps():
    for values in (*_ONE_PER_CASE, [], A2, list(range(500, 0, -3))):
        report = build_report(profile(values))
        plain = (json.dumps(report_to_dict(report), indent=2) + "\n").encode("utf-8")
        assert emit_report(report, "json") == plain
    cases = {build_report(profile(values)).trace.case for values in _ONE_PER_CASE}
    assert len(cases) == 5


def test_json_report_never_fits_the_trendline(monkeypatch):
    def no_fit(p):
        raise AssertionError("the JSON report fitted a trendline")

    monkeypatch.setattr(cli_io, "estimate_h_via_trendline", no_fit)
    report = build_report(profile(A1))
    json.loads(emit_report(report, "json"))
    monkeypatch.undo()
    calls = []

    def counted(p):
        calls.append(p)
        return estimate_h_via_trendline(p)

    monkeypatch.setattr(cli_io, "estimate_h_via_trendline", counted)
    fit = estimate_h_via_trendline(profile(A1))[1]
    for renders in (1, 2):  # each text render fits exactly once
        text = emit_report(report, "text").decode()
        assert len(calls) == renders
        assert f"\ntrendline: y = {fit.slope:.6f}x + {fit.intercept:.6f} (r^2 = {fit.r_squared:.6f})\n" in text
        assert "\ntrendline estimate: 5\n" in text


def test_text_report_trendline_intersection_is_the_exact_floor():
    # the fitted line crosses y = x at exactly 4, and a crossing computed
    # from the rounded float fit lands just below it
    text = emit_report(build_report(profile([7, 7, 5, 4, 3, 2, 0])), "text").decode()
    assert "trendline estimate: 4\n" in text
    assert "trendline intersection: (4.000000, 4.000000)" in text
    rng = random.Random(31)
    shown = 0
    for _ in range(5000):
        values = sorted((rng.randint(0, 12) for _ in range(rng.randint(2, 8))), reverse=True)
        text = emit_report(build_report(profile(values)), "text").decode()
        match = re.search(r"trendline intersection: \((\d+)\.(\d{6}), \1\.\2\)", text)
        if "trendline: " not in text:
            assert match is None
            continue
        shown += 1
        crossing = _reference_fit(values)[-1]
        assert int(match.group(1)) == math.floor(crossing)  # unclamped
        assert int(match.group(1) + match.group(2)) == math.floor(crossing * 10**6)
    assert shown > 100


def test_text_report_intersection_is_the_exact_floor():
    # the exact crossing is 7.94; the float one is 7.9399999...
    text = emit_report(build_report(profile([348, 299, 250, 201, 152, 103, 54, 5])), "text").decode()
    assert "\nintersection: (7.940000, 7.940000)\n" in text
    rng = random.Random(1)
    shown = floats_below = 0
    for n, step in itertools.product(range(2, 41), range(1, 61)):
        last = rng.randint(0, 29)
        values = [last + step * i for i in range(n)]
        report = build_report(profile(values))
        match = re.search(r"^intersection: \((\d+)\.(\d{6}), \1\.\2\)$", emit_report(report, "text").decode(), re.M)
        if report.trace.crossing is None:
            assert match is None
            continue
        shown += 1
        top = values[-1]  # the line y = top - step * (x - 1) meets y = x at (top + step) / (1 + step)
        micro = math.floor(Fraction(top + step, 1 + step) * 10**6)
        assert int(match.group(1) + match.group(2)) == micro
        floats_below += math.floor(float(report.trace.crossing) * 10**6) != micro
    assert shown > 1000 and floats_below > 0


def test_json_report_intersection_is_the_exact_crossing_rounded_once():
    # k + t rounded twice gave 1.6666666666666665 for [0, 5]; a double
    # cannot resolve 2 - 2**-53 below 2.0, a round-half-to-even tie
    for values, x in (([0, 5], 1.6666666666666667), ([2**53 - 1, 1], 1.9999999999999998), ([2**53, 1], 2.0)):
        assert report_to_dict(build_report(profile(values)))["intersection"] == [x, x]
    rng = random.Random(7)
    shown = 0
    for _ in range(3000):
        n, step = rng.randint(1, 40), rng.randint(0, 60)
        last = rng.choice((rng.randint(0, 29), rng.randint(0, 2**53 - step * (n - 1))))
        sd = [last + step * i for i in range(n)][::-1]
        crossing = Fraction(sd[0] + step, 1 + step)  # where y = sd[0] - step * (x - 1) meets y = x
        expected = [float(crossing)] * 2 if 1 <= crossing <= n else None
        assert report_to_dict(build_report(profile(sd)))["intersection"] == expected
        shown += expected is not None
    assert shown > 500


def test_report_deterministic():
    report = build_report(profile(A1))
    assert emit_report(report, "json") == emit_report(report, "json")
    assert emit_report(report, "text") == emit_report(report, "text")


def test_disagreement_is_surfaced_not_hidden():
    # the agreement flag reflects whatever the results say; a hand-built
    # mismatch (impossible from real inputs) must show up loudly
    report = build_report(profile(A1))
    broken = replace(
        report,
        results=report.results[:3] + (HIndexResult(99, Method.GEOMETRIC),),
        agreement=False,
    )
    payload = json.loads(emit_report(broken, "json"))
    assert payload["agreement"] is False
    assert "disagree" in emit_report(broken, "text").decode()


@settings(max_examples=50)
@given(citation_lists)
def test_report_agreement_on_random_inputs(values):
    report = build_report(normalize_profile(values))
    assert report.agreement is True


# ---------------------------------------------------------------------------
# SVG plots


def _px_reference(x, y, x_max, y_max):
    # the data-to-pixel transform written out for one point
    return _MARGIN_LEFT + (x / x_max) * _FRAME_WIDTH, _FRAME_BOTTOM - (y / y_max) * _FRAME_HEIGHT


def _data_x_of(px_value: float, p) -> float:
    x_max, _ = plot_scales(p)
    return (px_value - _MARGIN_LEFT) / (SVG_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT) * x_max


def test_svg_a1_with_trendline():
    p = profile(A1)
    _, trace = geometric_h_index(p)
    _, fit = estimate_h_via_trendline(p)
    svg = emit_plot_svg(p, trace, fit).decode()
    assert svg.count("<line") + svg.count("<polyline") == 3
    assert svg.count("<circle") == 1
    cx = float(re.search(r'<circle cx="([0-9.]+)"', svg).group(1))
    assert _data_x_of(cx, p) == pytest.approx(5.633, abs=1e-3)
    assert "Journal number" in svg and "Citations" in svg
    ET.fromstring(svg)  # well-formed XML


def test_svg_single_point_marker():
    p = profile([1])
    _, trace = geometric_h_index(p)
    svg = emit_plot_svg(p, trace).decode()
    match = re.search(r'<circle cx="([0-9.]+)" cy="([0-9.]+)"', svg)
    x_max, y_max = plot_scales(p)
    expected = _px_reference(1, 1, x_max, y_max)
    assert (float(match.group(1)), float(match.group(2))) == pytest.approx(expected, abs=0.01)


def test_svg_a4_distance_segment():
    p = profile(A4)
    _, trace = geometric_h_index(p)
    svg = emit_plot_svg(p, trace).decode()
    assert svg.count("<circle") == 0
    x_max, y_max = plot_scales(p)
    top = _px_reference(4, 4, x_max, y_max)
    bottom = _px_reference(4, 2, x_max, y_max)
    segment = re.search(
        r'<line x1="{0:.2f}" y1="{1:.2f}" x2="{2:.2f}" y2="{3:.2f}" stroke="red"'.format(
            top[0], top[1], bottom[0], bottom[1]
        ),
        svg,
    )
    assert segment is not None


def test_svg_marks_no_crossing_beyond_the_identity_line(tmp_path):
    # flat fits pass the gate (r^2 = 1, no drop) and meet y = x at the count,
    # past x_max = n: a marker there sat at cx 1928.67 and 1462.00 of 640 px
    path, out = tmp_path / "flat.csv", tmp_path / "flat.svg"
    for body in (b"10\n10\n10\n", b"5\n5\n"):
        path.write_bytes(body)
        assert cli_io.main(["plot", "--input", str(path), "--output", str(out)]) == 0
        svg = out.read_text()
        assert 'stroke="olive"' in svg and "<circle" not in svg
    # a crossing exactly at the reach, the frame's corner, keeps its marker
    p = profile([3, 3, 3])
    _, fit = estimate_h_via_trendline(p)
    svg = emit_plot_svg(p, geometric_h_index(p)[1], fit).decode()
    assert f'<circle cx="{SVG_WIDTH - _MARGIN_RIGHT:.2f}" cy="18.00"' in svg


def _axis_labels(svg: str) -> tuple[str, str]:
    # (x-axis end label, y-axis top label)
    x_label = re.search(r'<text x="{}" [^>]*>([^<]*)</text>'.format(SVG_WIDTH - _MARGIN_RIGHT), svg).group(1)
    y_label = re.search(r'<text [^>]*text-anchor="end"[^>]*>([^<]*)</text>', svg).group(1)
    return x_label, y_label


def test_large_gaps_and_axis_labels_print_exactly(tmp_path, capsysbinary):
    # "%g" printed these as 5e+06
    path = tmp_path / "big.csv"
    path.write_bytes(b"5000001\n3\n1\n")
    assert cli_io.main(["compute", "--input", str(path), "--output", "text"]) == 0
    text = capsysbinary.readouterr().out.decode()
    assert "\ndistances: 5000000, 1, 2\nmin distance: 1 at journal 2\n" in text
    assert cli_io.main(["compute", "--input", str(path), "--output", "json"]) == 0
    assert b'"distances": [\n    5000000,\n    1,\n    2\n  ]' in capsysbinary.readouterr().out
    for values, labels in (
        ([5000001, 3, 1], ("3", "5000001")),
        ([2**53, 1], ("2", "9007199254740992")),
        (A4, ("4", "400")),
    ):
        p = profile(values)
        assert _axis_labels(emit_plot_svg(p, geometric_h_index(p)[1]).decode()) == labels


def test_svg_deterministic_and_self_contained():
    p = profile(A1)
    _, trace = geometric_h_index(p)
    _, fit = estimate_h_via_trendline(p)
    first = emit_plot_svg(p, trace, fit)
    second = emit_plot_svg(p, trace, fit)
    assert first == second
    text = first.decode()
    assert 'viewBox="0 0 640 480"' in text
    assert 'version="1.1"' in text
    assert "href" not in text  # no external references


def test_svg_empty_profile():
    p = profile(A2)
    _, trace = geometric_h_index(p)
    with pytest.raises(EmptyProfile):
        emit_plot_svg(profile([]), trace)


def _assert_polyline_matches_reference(values):
    p = profile(values)
    _, trace = geometric_h_index(p)
    points = re.search(r'<polyline [^>]*points="([^"]*)"', emit_plot_svg(p, trace).decode()).group(1)
    x_max, y_max = plot_scales(p)
    # one transform and one format per vertex, as the polyline was first drawn
    reference = " ".join(
        "{:.2f},{:.2f}".format(*_px_reference(i, c, x_max, y_max)) for i, c in enumerate(p.sorted_desc, start=1)
    )
    assert points == reference
    assert len(points.split()) == p.n


@given(st.lists(st.integers(min_value=0, max_value=10**6) | st.sampled_from([0, 1, 2**53 - 1, 2**53]), min_size=1, max_size=120))
def test_svg_polyline_matches_per_vertex_reference(values):
    _assert_polyline_matches_reference(values)


def test_svg_polyline_matches_per_vertex_reference_seeded_sweep():
    rng = random.Random(4242)
    for _ in range(10_000):
        n = rng.randint(1, 60)
        top = rng.choice((0, 1, n // 2, n, 3 * n, 10**6, 2**53))
        _assert_polyline_matches_reference([rng.randint(0, top) for _ in range(n)])
    # n = 1, all zero, n above every count, counts at the maximum; at
    # n = 1664, i * (560 / n) rounds rank 559 apart from (i / n) * 560
    for values in ([0], [5], [0] * 7, [1] * 50, [2**53], [2**53, 2**53, 0], [2**53] * 3 + [1], [0] * 1664):
        _assert_polyline_matches_reference(values)


# ---------------------------------------------------------------------------
# benchmark harness


def test_generate_citations_deterministic_and_in_range():
    first = generate_citations(500, seed=9)
    second = generate_citations(500, seed=9)
    assert first == second
    assert len(first) == 500
    assert all(0 <= v <= 1000 for v in first)
    assert generate_citations(500, seed=10) != first


def test_generate_citations_rejects_bad_size():
    with pytest.raises(InvalidSize):
        generate_citations(0, seed=1)


def test_run_benchmark_rows():
    rows = run_benchmark([200, 400], [Method.COUNTING, Method.SORT_SCAN], seed=3, runs=5)
    assert len(rows) == 4
    for row in rows:
        assert isinstance(row, BenchmarkRow)
        assert row.runs == 5
        assert row.median_runtime > 0.0
    assert {row.method for row in rows} == {Method.COUNTING, Method.SORT_SCAN}


def test_run_benchmark_validates_inputs():
    with pytest.raises(UnknownMethod):
        run_benchmark([100], ["quantum"], seed=1)
    with pytest.raises(ValueError):
        run_benchmark([100], [Method.COUNTING], seed=1, runs=2)
    with pytest.raises(InvalidSize):
        run_benchmark([0], [Method.COUNTING], seed=1)


def test_run_benchmark_checks_every_argument_before_generating_input(monkeypatch):
    generated = []

    def recorded(size, seed):
        generated.append(size)
        return [0] * size

    monkeypatch.setattr(scaling, "generate_citations", recorded)
    for sizes, methods, runs, error in (
        ([], [Method.COUNTING], 5, InvalidSize),
        ([1000, 0], [Method.COUNTING], 5, InvalidSize),
        ([1000, 2000, 1000], [Method.COUNTING], 5, InvalidSize),
        ([1000], [Method.COUNTING], 4, InvalidSize),
        ([1000], [], 5, UnknownMethod),
        ([1000], [Method.COUNTING, "quantum"], 5, UnknownMethod),
    ):
        with pytest.raises(error):
            run_benchmark(sizes, methods, seed=1, runs=runs)
    assert generated == []


def test_scaling_exponents_shape():
    rows = run_benchmark([500, 2000], [Method.COUNTING], seed=5, runs=5)
    exponents = scaling_exponents(rows)
    assert set(exponents) == {Method.COUNTING}
    assert 0.0 < exponents[Method.COUNTING] < 3.0


def test_format_benchmark_report():
    rows = [
        BenchmarkRow(n=1000, method=Method.COUNTING, median_runtime=1e-4, runs=5),
        BenchmarkRow(n=10000, method=Method.COUNTING, median_runtime=1e-3, runs=5),
    ]
    text = format_benchmark_report(rows)
    assert "counting" in text
    assert "scaling exponent" in text
    assert "1.000" in text  # exact decade ratio gives slope 1


# ---------------------------------------------------------------------------
# CLI end to end


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "citemetrics", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture()
def a1_csv(tmp_path):
    path = tmp_path / "a1.csv"
    path.write_bytes(A1_CSV)
    return path


def test_cli_compute_json(a1_csv):
    proc = run_cli("compute", "--input", str(a1_csv), "--format", "csv", "--output", "json")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["h"] == 5
    assert payload["agreement"] is True


def test_cli_compute_text(a1_csv):
    proc = run_cli("compute", "--input", str(a1_csv), "--output", "text")
    assert proc.returncode == 0
    assert "h-index: 5" in proc.stdout


def test_cli_compute_single_method(a1_csv):
    proc = run_cli("compute", "--input", str(a1_csv), "--method", "count", "--output", "json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["methods"] == {"counting": 5}
    assert payload["h"] == 5
    assert payload["agreement"] is True


def test_cli_compute_json_input(tmp_path):
    path = tmp_path / "a3.json"
    path.write_bytes(b"[4, 3, 2, 1]")
    proc = run_cli("compute", "--input", str(path), "--format", "json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["h"] == 2


def test_cli_malformed_csv_exits_1(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"10\nbanana\n")
    proc = run_cli("compute", "--input", str(path))
    assert proc.returncode == 1
    assert "error:" in proc.stderr


def test_cli_missing_file_exits_1(tmp_path):
    proc = run_cli("compute", "--input", str(tmp_path / "nope.csv"))
    assert proc.returncode == 1


def test_cli_plot_deterministic(a1_csv, tmp_path):
    out1 = tmp_path / "one.svg"
    out2 = tmp_path / "two.svg"
    for out in (out1, out2):
        proc = run_cli("plot", "--input", str(a1_csv), "--output", str(out))
        assert proc.returncode == 0, proc.stderr
    assert out1.read_bytes() == out2.read_bytes()
    ET.fromstring(out1.read_text())


def test_cli_plot_trendline_modes(a1_csv, tmp_path):
    auto = tmp_path / "auto.svg"
    off = tmp_path / "off.svg"
    run_cli("plot", "--input", str(a1_csv), "--output", str(auto))
    run_cli("plot", "--input", str(a1_csv), "--output", str(off), "--trendline", "off")
    assert "olive" in auto.read_text()
    assert "olive" not in off.read_text()


def test_cli_plot_empty_profile_exits_1(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_bytes(b"")
    proc = run_cli("plot", "--input", str(empty), "--output", str(tmp_path / "x.svg"))
    assert proc.returncode == 1


def test_cli_bench(tmp_path):
    proc = run_cli("bench", "--sizes", "200,400", "--methods", "count", "--seed", "7", "--runs", "5")
    assert proc.returncode == 0, proc.stderr
    assert "counting" in proc.stdout
    assert "scaling exponent" in proc.stdout


def test_cli_bench_unknown_method():
    proc = run_cli("bench", "--sizes", "100", "--methods", "quantum")
    assert proc.returncode == 1
    assert "unknown method" in proc.stderr


def test_cli_bench_bad_sizes():
    proc = run_cli("bench", "--sizes", "abc", "--methods", "count")
    assert proc.returncode == 1
    # int() alone would read these as 100 and 200, 5 and 100
    for sizes in ("1_00,\u066200", "+5,100", "1" * 5000):
        proc = run_cli("bench", "--sizes", sizes, "--methods", "count")
        _assert_input_error(proc)
        assert "bad size list" in proc.stderr


def _assert_input_error(proc):
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr


def test_cli_usage_error_exits_1(a1_csv):
    # exit 2 is reserved for disagreeing methods
    _assert_input_error(run_cli("compute", "--input", str(a1_csv), "--bogus"))
    assert run_cli("compute", "--help").returncode == 0


def test_cli_oversized_integer_exits_1(tmp_path):
    # int() refuses more digits than the interpreter's limit with a bare ValueError
    digits = "1" * 5000
    for name, body in (("big.json", f"[{digits}]"), ("big.csv", digits)):
        path = tmp_path / name
        path.write_text(body)
        proc = run_cli("compute", "--input", str(path), "--format", name.split(".")[1])
        _assert_input_error(proc)


def test_cli_count_too_large_exits_1(tmp_path):
    # a float cannot hold these, so distances and the fit would overflow
    big = "9" * 401
    for name, body in (("big.json", f"[0, {big}, {big}]"), ("big.csv", f"0\n{big}\n{big}\n")):
        path = tmp_path / name
        path.write_text(body)
        for command in (("compute", "--output", "text"), ("plot", "--output", str(tmp_path / "out.svg"))):
            proc = run_cli(command[0], "--input", str(path), "--format", name.split(".")[1], *command[1:])
            _assert_input_error(proc)
            assert "position 1" in proc.stderr and "2**53" in proc.stderr


def test_cli_geometric_agrees_at_the_count_maximum(tmp_path):
    # the float crossing of [2**53, 1] rounds up to exactly 2.0; h is 1
    path = tmp_path / "top.json"
    path.write_text(f"[{2**53}, 1]")
    proc = run_cli("compute", "--input", str(path), "--format", "json", "--output", "text")
    assert proc.returncode == 0, proc.stderr
    assert "agreement: yes" in proc.stdout and "\n  geometric: 1\n" in proc.stdout


def test_plot_never_builds_the_distance_table(monkeypatch, tmp_path):
    path = tmp_path / "a4.json"
    path.write_bytes(emit_citations_json(A4))

    def no_table(sorted_desc):
        raise AssertionError("the distance table was built")

    monkeypatch.setattr(geometry, "_gaps", no_table)
    out = tmp_path / "a4.svg"
    assert cli_io.main(["plot", "--input", str(path), "--format", "json", "--output", str(out)]) == 0
    assert 'stroke="red"' in out.read_text()  # the minimum-distance segment is still drawn
    monkeypatch.undo()
    report = build_report(profile(A4))
    assert json.loads(emit_report(report, "json"))["distances"] == [399, 298, 197, 2]
    assert "\ndistances: 399, 298, 197, 2\n" in emit_report(report, "text").decode()
    assert report.trace.distances is report.trace.distances  # built once


def test_cli_deeply_nested_json_exits_1(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    proc = run_cli("compute", "--input", str(path), "--format", "json")
    _assert_input_error(proc)
    assert "document" in proc.stderr


def test_cli_bench_too_few_runs_exits_1():
    _assert_input_error(run_cli("bench", "--sizes", "100,200", "--methods", "count", "--runs", "2"))


def test_cli_bench_empty_method_list_exits_1():
    # used to time nothing, print the table header and exit 0
    proc = run_cli("bench", "--sizes", "100", "--methods", ",")
    _assert_input_error(proc)
    assert "no benchmark methods" in proc.stderr


def test_cli_bench_repeated_sizes_exits_1():
    proc = run_cli("bench", "--sizes", "100,100", "--methods", "count")
    _assert_input_error(proc)
    assert "distinct" in proc.stderr


# Bytes that reach every parser branch: digits, separators, signs, JSON
# punctuation and literals, non-ASCII digits, and invalid UTF-8.
_FUZZ_TOKENS = st.sampled_from(
    [b"0", b"1", b"7", b"12", b"9" * 17, b"\n", b"\r\n", b",", b" ", b"-", b"[", b"]", b".", b"e", b"1e400",
     b'"', b"true", b"null", b"{}", b"paper_id,citations\n", b"\xd9\xa3", b"\xff", b"\xef\xbb\xbf"]
)
# Counts mixed with what a count must not be, laid out as a JSON array or
# as CSV lines, so that both parsers also succeed.
_FUZZ_ELEMENTS = st.integers(0, 40).map(lambda c: str(c).encode()) | st.sampled_from(
    [str(2**53).encode(), str(2**53 + 1).encode(), b"-1", b"1.5", b"true", b"null", b'"4"', b"[]"]
)
fuzz_inputs = (
    st.binary(max_size=64)
    | st.lists(_FUZZ_TOKENS, max_size=24).map(b"".join)
    | st.lists(_FUZZ_ELEMENTS, max_size=12).map(lambda cells: b"[" + b",".join(cells) + b"]")
    | st.lists(_FUZZ_ELEMENTS, max_size=12).map(b"\n".join)
)


@settings(max_examples=300, deadline=None)
@given(data=fuzz_inputs, fmt=st.sampled_from(["csv", "json"]), command=st.sampled_from(["json", "text", "plot"]))
def test_cli_fuzz_exits_0_or_1_without_traceback(tmp_path_factory, data, fmt, command):
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "input"
    path.write_bytes(data)
    if command == "plot":
        argv = ["plot", "--input", str(path), "--format", fmt, "--output", str(work / "out.svg")]
    else:
        argv = ["compute", "--input", str(path), "--format", fmt, "--output", command]
    out, err = io.TextIOWrapper(io.BytesIO()), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_io.main(argv)  # an escaping exception fails the test with its traceback
    assert code in (0, 1), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("error: ")


def test_report_to_dict_key_order_stable():
    assert list(report_to_dict(build_report(profile(A2)))) == REPORT_KEYS
