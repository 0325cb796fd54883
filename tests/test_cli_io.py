"""Parsing, report emission, SVG plots, benchmarks, and the CLI."""

import contextlib
import hashlib
import importlib
import inspect
import io
import itertools
import json
import math
import pkgutil
import random
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import citemetrics
from citemetrics import (
    BenchmarkRow,
    CitationTooLarge,
    DuplicatePaperId,
    EmptyProfile,
    GeometricCase,
    HIndexResult,
    InputError,
    InvalidSize,
    Method,
    NegativeCitation,
    NonIntegerCitation,
    ParseError,
    UnknownMethod,
    build_report,
    emit_plot_svg,
    emit_report,
    estimate_h_via_trendline,
    generate_citations,
    geometric_h_index,
    normalize_profile,
    parse_citations,
    run_benchmark,
    scaling_exponents,
    vertical_distances,
)
from citemetrics import cli_io, geometry, parse, plot, scaling
from citemetrics.cli_io import report_to_dict
from citemetrics.core import MAX_CITATION, _h_definition_scan
from citemetrics.plot import (
    _FRAME_BOTTOM,
    _FRAME_HEIGHT,
    _FRAME_WIDTH,
    _MARGIN_LEFT,
    _MARGIN_RIGHT,
    SVG_WIDTH,
)
from citemetrics.scaling import format_benchmark_report
from conftest import A1, A1_CSV, A2, A3, A4, A5, FIXTURES, profile, traced_memory
from test_geometry import _mixed_profiles, _reference_fit, arithmetic_progressions

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


def test_parse_csv_breaks_lines_only_at_newline():
    # str.splitlines() read "5\f6" as two counts, and "\f" as a line break
    # in error locations
    for sep in ("\x0c", "\u2028", "\x0b"):
        with pytest.raises(ParseError) as exc:
            parse_citations(f"5{sep}6\n".encode(), "csv")
        assert str(exc.value).startswith("line 1:")
        with pytest.raises(ParseError) as exc:
            parse_citations(f"{sep}\nbanana\n".encode(), "csv")
        assert str(exc.value).startswith("line 2:")


def test_parse_csv_rejects_comma_without_header():
    with pytest.raises(ParseError):
        parse_citations(b"1,2\n3,4\n", "csv")


def test_parse_csv_negative_count():
    # The parser reads the sign; normalize_profile rejects the count.
    assert parse_citations(b"3\n-1\n", "csv") == [3, -1]
    with pytest.raises(NegativeCitation) as exc:
        normalize_profile(parse_citations(b"3\n-1\n", "csv"))
    assert exc.value.index == 1
    # A file must parse before its counts are judged.
    with pytest.raises(ParseError) as exc:
        normalize_profile(parse_citations(b"-1\nbanana\n", "csv"))
    assert "line 2" in str(exc.value)


def test_parse_json_array():
    assert parse_citations(b"[4, 3, 2, 1]", "json") == [4, 3, 2, 1]
    assert parse_citations(b"[]", "json") == []


def test_parse_json_rejects_bad_documents():
    with pytest.raises(ParseError):
        parse_citations(b"{\"a\": 1}", "json")
    with pytest.raises(ParseError):
        parse_citations(b"[1, 2", "json")
    # Elements that are not counts parse; normalize_profile rejects them.
    for document, index in ((b"[1, 2.5]", 1), (b"[true]", 0)):
        with pytest.raises(NonIntegerCitation) as exc:
            normalize_profile(parse_citations(document, "json"))
        assert exc.value.index == index


def test_parse_json_negative_count():
    with pytest.raises(NegativeCitation) as exc:
        normalize_profile(parse_citations(b"[5, -2]", "json"))
    assert exc.value.index == 1


@given(citation_lists)
def test_json_round_trip(values):
    assert parse_citations(json.dumps(values).encode(), "json") == values


# Naive count checks, element by element: type, then sign, in file order;
# then the bound. normalize_profile's fast path and error scan must agree.
def _reference_judge(values):
    for i, item in enumerate(values):
        if isinstance(item, bool) or not isinstance(item, int):
            raise NonIntegerCitation(i, item)
        if item < 0:
            raise NegativeCitation(i, item)
    for i, item in enumerate(values):
        if item > MAX_CITATION:
            raise CitationTooLarge(i, item)
    return values, tuple(sorted(values, reverse=True))


def _parse_and_normalize(data, fmt):
    values = parse_citations(data, fmt)
    return values, normalize_profile(values).sorted_desc


# The JSON parser as a naive reference: json.loads, then the checks above.
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
    return _reference_judge(parsed)


def _assert_json_matches_reference(document):
    data = json.dumps(document).encode("utf-8")
    assert _outcome(lambda d: _parse_and_normalize(d, "json"), data) == _outcome(_reference_parse_json, data)


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


# The per-line CSV parser as a naive reference, followed by the count
# checks above: the single-pass fast path must never change what a CSV
# parses to, or how it fails.
_REFERENCE_CELL = re.compile(r"-?[0-9]+")


def _reference_quote(cell):
    # a message quotes a cell whole up to 40 characters, else its first 20
    # characters and its length
    return repr(cell) if len(cell) <= 40 else f"{cell[:20]!r}... ({len(cell)} characters)"


def _reference_count(cell, lineno):
    try:
        if not _REFERENCE_CELL.fullmatch(cell):
            raise ValueError(cell)
        return int(cell)
    except ValueError:
        raise ParseError(f"line {lineno}", f"not an integer citation count: {_reference_quote(cell)}") from None


def _reference_parse_csv(data):
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"offset {exc.start}", "input is not valid UTF-8") from None
    lines = text.split("\n")
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
                    f"line {lineno}", f"paper_id {_reference_quote(paper_id)} already appeared on line {seen[paper_id]}"
                )
            seen[paper_id] = lineno
            values.append(_reference_count(count_cell, lineno))
        return _reference_judge(values)
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
        values.append(_reference_count(cell, lineno))
    return _reference_judge(values)


def _outcome(parse, data):
    try:
        return parse(data)
    except ValueError as exc:
        return type(exc), getattr(exc, "index", None), str(exc)


def _assert_csv_matches_reference(text, bom=False):
    data = ("\ufeff" if bom else "") + text
    data = data.encode("utf-8")
    assert _outcome(lambda d: _parse_and_normalize(d, "csv"), data) == _outcome(_reference_parse_csv, data)


# Digits and every separator or look-alike the two paths might treat apart:
# "\x0b", "\x85" and "\u2028" are whitespace to str.split() and strip() but
# end no line, "\xa0" is whitespace, and "\u0663" is an Arabic-Indic 3.
_CSV_ALPHABET = "0123456789-,_ \t\r\n\x0b\x85\u2028\xa0\u0663"


@settings(max_examples=500)
@given(st.text(alphabet=_CSV_ALPHABET, max_size=40), st.booleans())
def test_parse_csv_fast_path_matches_reference(text, bom):
    _assert_csv_matches_reference(text, bom)


def _csv_seeded_sweep():
    rng = random.Random(2718)
    # Half the draws are mostly digits and newlines, so that both paths run.
    weighted = "0123456789" * 3 + "\n" * 8 + _CSV_ALPHABET
    for _ in range(10_000):
        alphabet = weighted if rng.random() < 0.5 else _CSV_ALPHABET
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        _assert_csv_matches_reference(text, bom=rng.random() < 0.2)


def test_parse_csv_fast_path_matches_reference_seeded_sweep():
    _csv_seeded_sweep()


def test_parse_two_column_csv_matches_reference_seeded_sweep():
    # headers in any case and spacing, and ids from a small alphabet, so that
    # repeated and empty ids occur; mostly counts that parse, some that do not
    rng = random.Random(3141)
    ids = ("p1", "p2", "p3", "p4", "p5", " p1", "P1", "a b", "p" * 45)
    counts = ("0", "1", "7", "42", "007", " 5 ", "9" * 45)
    bad_counts = ("-3", "", "x", "1_0", "x" * 45, "\u0663", "2,3")
    for _ in range(2_000):
        header = "".join(rng.choice((c, c.upper())) for c in "paper_id") + rng.choice(("", " ", "\t"))
        header += "," + rng.choice(("", " ")) + "".join(rng.choice((c, c.upper())) for c in "citations")
        lines = [header]
        for _ in range(rng.randint(0, 8)):
            paper_id = rng.choice(("", "\xa0")) if rng.random() < 0.04 else rng.choice(ids)
            count = rng.choice(bad_counts) if rng.random() < 0.04 else rng.choice(counts)
            lines.append("" if rng.random() < 0.1 else f"{paper_id},{count}")
        newline = "\r\n" if rng.random() < 0.3 else "\n"
        _assert_csv_matches_reference(newline.join(lines) + rng.choice(("", newline)), bom=rng.random() < 0.2)


def test_parse_two_column_empty_paper_id(tmp_path, capsys):
    body = b"paper_id,citations\n,4\n"
    with pytest.raises(ParseError, match="^line 2: empty paper_id$"):
        parse_citations(body, "csv")
    path = tmp_path / "empty_id.csv"
    path.write_bytes(body)
    assert cli_io.main(["compute", "--input", str(path)]) == 1
    assert capsys.readouterr().err == "error: line 2: empty paper_id\n"


def test_cli_long_cells_give_short_error_lines(tmp_path, capsys):
    # one bad cell, however long, gives one short line on stderr
    long_id = "p" * 100_000
    for body, lineno in (
        ("9" * 1_000_000 + "\n", 1),
        ("paper_id,citations\np1," + "9" * 100_000 + "\n", 2),
        (f"paper_id,citations\n{long_id},1\n{long_id},2\n", 3),
        ("3\n" + "a" * 1_000_000 + "\n", 2),
    ):
        path = tmp_path / "long.csv"
        path.write_text(body)
        assert cli_io.main(["compute", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {lineno}: ") and len(err.encode()) < 200, err[:300]
    assert err == "error: line 2: not an integer citation count: 'aaaaaaaaaaaaaaaaaaaa'... (1000000 characters)\n"
    # a cell of 40 characters is quoted whole, one of 41 is cut at 20
    for cell, quoted in (("x" * 40, repr("x" * 40)), ("x" * 41, repr("x" * 20) + "... (41 characters)")):
        path.write_text(f"3\n{cell}\n")
        assert cli_io.main(["compute", "--input", str(path)]) == 1
        assert capsys.readouterr().err == f"error: line 2: not an integer citation count: {quoted}\n"


def test_parse_csv_fast_path_edges():
    for text in ("", "\n", "\n\n7\n\n", "007\n0", "1\n" + "9" * 5000 + "\n", "paper_id,citations\n"):
        _assert_csv_matches_reference(text)
    with pytest.raises(ParseError) as exc:
        parse_citations(("1\n" + "9" * 5000 + "\n").encode(), "csv")
    assert "line 2" in str(exc.value)


def _assert_digit_limit_reports_its_line(lines, lineno):
    # a count past the digit limit at line lineno, after any slice edges
    lines = [*lines[: lineno - 1], "9" * 5000, *lines[lineno - 1 :]]
    text = "\n".join(lines) + "\n"
    _assert_csv_matches_reference(text)
    with pytest.raises(ParseError, match=f"^line {lineno}: not an integer"):
        parse_citations(text.encode(), "csv")


@pytest.mark.parametrize("size", [1, 2, 7])
def test_parse_csv_slices_match_reference_at_every_edge(monkeypatch, size):
    # The plain body is parsed in slices of at least parse._SLICE bytes,
    # each cut after a "\n"; tiny slices put an edge in every count.
    monkeypatch.setattr(parse, "_SLICE", size)
    edges = (
        "12\n345\n6789\n10111213\n",  # counts across edges
        "1\n\n\n22\n\n\n\n333\n\n",  # blank lines at edges
        "\n\n\n\n\n\n\n\n4",
        "10\n200\n3000",  # no final newline
        "5",
        "0\n",
    )
    for text in edges:
        for bom in (False, True):
            _assert_csv_matches_reference(text, bom)
    _assert_digit_limit_reports_its_line(["7", "", "88", "999"] * 5, 17)
    _csv_seeded_sweep()


def test_parse_csv_slices_above_one_slice():
    # more than 64 KiB at the real slice size: several edges, one of them
    # at a blank line, and a digit-limit count past the first slice
    rng = random.Random(65536)
    lines = [str(rng.randint(0, 10**6)) if rng.random() < 0.9 else "" for _ in range(60_000)]
    text = "\n".join(lines)
    assert len(text) > 4 * parse._SLICE
    for data in (text, text + "\n"):
        _assert_csv_matches_reference(data)
        _assert_csv_matches_reference(data, bom=True)
    assert parse_citations(text.encode(), "csv") == [int(line) for line in lines if line]
    _assert_digit_limit_reports_its_line(lines, 51_234)


def test_parse_csv_peak_memory_stays_near_its_result():
    # one slice of short byte strings at a time, beside the counts: the
    # decoded text and a list of all 100k line strings made 2.9x
    rng = random.Random(100_000)
    data = b"".join(b"%d\n" % rng.randint(0, 200_000) for _ in range(100_000))
    values, peak, retained = traced_memory(parse_citations, data, "csv")
    assert len(values) == 100_000
    assert peak <= 1.25 * retained


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
    # n = 11 and the argmin is 6, so the window is the whole table
    assert payload["distances"] == {"first_rank": 1, "gaps": [9, 7, 5, 4, 2, 1, 3, 5, 7, 9, 10]}
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
        payload = json.loads(emit_report(report, "json"))
        assert payload == report_to_dict(report)
        assert list(payload) == REPORT_KEYS
    cases = {build_report(profile(values)).trace.case for values in _ONE_PER_CASE}
    assert len(cases) == 5


def test_report_to_dict_key_order_stable():
    assert list(report_to_dict(build_report(profile(A2)))) == REPORT_KEYS


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
        assert f"\ntrendline: y = {fit.slope:.6f}x + {fit.intercept:.6f} (r^2 = {float(fit.r_squared):.6f})\n" in text
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


def test_cli_disagreement_prints_a_replay_line(monkeypatch, a1_csv, capsysbinary):
    counting = cli_io.h_index_counting
    monkeypatch.setattr(cli_io, "h_index_counting", lambda p: HIndexResult(counting(p).h + 1, Method.COUNTING))
    assert cli_io.main(["compute", "--input", str(a1_csv)]) == 2
    err = capsysbinary.readouterr().err.decode()
    digest = hashlib.sha256(b"".join(b"%d\n" % c for c in sorted(A1, reverse=True))).hexdigest()
    replay = f"disagreement: n=11 sort_scan=5 counting=6 oracle=5 geometric=5 sha256={digest}\n"
    assert err.endswith("this is a bug in citemetrics\n" + replay)


def test_replay_line_hashes_every_block_of_counts():
    values = list(range(20_000, 0, -1))
    report = build_report(profile(values))
    digest = hashlib.sha256("".join(f"{c}\n" for c in values).encode()).hexdigest()
    assert cli_io._replay_line(report).endswith(f" sha256={digest}")


def test_disagreement_is_surfaced_not_hidden():
    # the agreement flag reflects whatever the results say; a hand-built
    # mismatch (impossible from real inputs) must show up loudly
    report = build_report(profile(A1))
    broken = replace(report, results=report.results[:3] + (HIndexResult(99, Method.GEOMETRIC),))
    payload = json.loads(emit_report(broken, "json"))
    assert payload["agreement"] is False
    assert "disagree" in emit_report(broken, "text").decode()


_TRACED = (
    "h_index_sort_scan",
    "h_index_counting",
    "h_index_oracle",
    "geometric_h_index",
    "estimate_h_via_trendline",
    "trendline_applicable",
)


def test_report_calls_each_traced_name_once(monkeypatch):
    # The benchmark's tracer wraps these cli_io globals and counts the calls
    # of each; build_report and the text report must look them up there.
    calls = Counter()

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)

        return call

    for name in _TRACED:
        monkeypatch.setattr(cli_io, name, counted(name, getattr(cli_io, name)))
    report = build_report(profile(A1))
    assert calls == dict.fromkeys(_TRACED[:4], 1)
    calls.clear()
    emit_report(report, "text")
    assert calls == dict.fromkeys(_TRACED[4:], 1)
    calls.clear()
    one = build_report(profile(A1), (Method.COUNTING,))
    emit_report(one, "text")
    assert calls == {"h_index_counting": 1} and one.trace is None


def test_report_of_one_method():
    report = build_report(profile(A1), (Method.ORACLE,))
    assert report.results == (HIndexResult(5, Method.ORACLE),) and report.agreement
    payload = json.loads(emit_report(report, "json"))
    assert list(payload) == REPORT_KEYS
    assert payload["methods"] == {"oracle": 5} and payload["h"] == 5 and payload["agreement"] is True
    assert [payload[key] for key in ("case", "postulate", "intersection", "distances")] == [None] * 4
    # no trace: one geometry line and no trendline, as for an empty profile
    assert emit_report(report, "text").endswith(b"\nagreement: yes\ngeometry: n/a\n")
    assert emit_report(build_report(profile([])), "text").endswith(b"\nagreement: yes\ngeometry: n/a\n")
    # the methods run, and are listed, in the order given
    both = build_report(profile(A1), (Method.GEOMETRIC, Method.COUNTING))
    assert [r.method for r in both.results] == [Method.GEOMETRIC, Method.COUNTING] and both.trace is not None


def _not_asked(profile):
    raise AssertionError("a method that was not asked for ran")


def test_build_report_checks_the_method_list_before_running_any(monkeypatch):
    monkeypatch.setattr(cli_io, "h_index_counting", _not_asked)
    for methods in ((), (Method.COUNTING, "counting"), (Method.COUNTING, Method.COUNTING)):
        with pytest.raises(UnknownMethod):
            build_report(profile(A1), methods)


@settings(max_examples=50)
@given(citation_lists)
def test_report_agreement_on_random_inputs(values):
    report = build_report(normalize_profile(values))
    assert report.agreement is True


# ---------------------------------------------------------------------------
# SVG plots


def _frame(p):
    # the README's data extents: ranks 0..n across, counts 0..max(n, top count)
    # up, so sx = 560 / n and sy = -410 / max(n, top count)
    return p.n, max(p.sorted_desc[0], p.n)


def _px_reference(x, y, x_max, y_max):
    # the data-to-pixel transform written out for one point, as the
    # polyline's vertices were placed when it was drawn in pixels
    return _MARGIN_LEFT + (x / x_max) * _FRAME_WIDTH, _FRAME_BOTTOM - (y / y_max) * _FRAME_HEIGHT


def _identity_line_end(svg: str) -> tuple[float, float]:
    # the blue y = x line starts at the frame's corner (0, 0)
    line = re.search(r'<line x1="62.00" y1="428.00" x2="([0-9.]+)" y2="([0-9.]+)" stroke="blue"', svg)
    return float(line.group(1)), float(line.group(2))


def _data_x_of(px_value: float, p) -> float:
    x_max, _ = _frame(p)
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
    # y = x ends at (n, n) = (11, 11), the frame's corner (622, 18): top count 10 < n
    assert _identity_line_end(svg) == pytest.approx(_px_reference(11, 11, *_frame(p)), abs=0.005)
    assert "Journal number" in svg and "Citations" in svg
    ET.fromstring(svg)  # well-formed XML


def test_svg_single_point_marker():
    p = profile([1])
    _, trace = geometric_h_index(p)
    svg = emit_plot_svg(p, trace).decode()
    match = re.search(r'<circle cx="([0-9.]+)" cy="([0-9.]+)"', svg)
    expected = _px_reference(1, 1, *_frame(p))
    assert (float(match.group(1)), float(match.group(2))) == pytest.approx(expected, abs=0.01)


def test_svg_a4_distance_segment():
    p = profile(A4)
    _, trace = geometric_h_index(p)
    svg = emit_plot_svg(p, trace).decode()
    assert svg.count("<circle") == 0
    top = _px_reference(4, 4, *_frame(p))
    bottom = _px_reference(4, 2, *_frame(p))
    # y = x ends at (n, n) = (4, 4), at (622, 423.9) on the right edge: top count 400 > n
    assert _identity_line_end(svg) == pytest.approx(top, abs=0.005)
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
    assert "\ndistances: ranks 1-3: 5000000, 1, 2\nmin distance: 1 at journal 2\n" in text
    assert cli_io.main(["compute", "--input", str(path), "--output", "json"]) == 0
    rows = b'"distances": {\n    "first_rank": 1,\n    "gaps": [\n      5000000,\n      1,\n      2\n    ]\n  }'
    assert rows in capsysbinary.readouterr().out
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


_SVG_NS = "{http://www.w3.org/2000/svg}"
_MATRIX = re.compile(r"matrix\((\S+) 0 0 (\S+) (\S+) (\S+)\)")


def _assert_lands_on_pixels(offset, scale, data, pixels):
    # offset + scale * d lies within 0.005 + 1e-9 of "%.2f" % p for every
    # (d, p): half a hundredth of a pixel, plus slack for the float factors
    # of the transform p came from. Exact: scale = num / den, and the
    # printed pixel is hundredths / 100, so both sides are scaled by 1e9 * den.
    num, den = scale.as_integer_ratio()
    bound = den * (5 * 10**6 + 1)
    for d, p in zip(data, pixels):
        hundredths = int(("%.2f" % p).replace(".", ""))
        assert abs(10**9 * (offset * den + num * d) - 10**7 * hundredths * den) <= bound


def _assert_polyline_matches_reference(values):
    p = profile(values)
    _, trace = geometric_h_index(p)
    # a direct child of <svg>, where the benchmark's SVG check looks for it
    (polyline,) = ET.fromstring(emit_plot_svg(p, trace)).findall(_SVG_NS + "polyline")
    # the vertices are the data, exactly: (rank, citations) in rank order
    assert polyline.get("points") == " ".join(f"{i},{c}" for i, c in enumerate(p.sorted_desc, start=1))
    assert polyline.get("vector-effect") == "non-scaling-stroke"
    # the printed matrix, applied in exact arithmetic, puts every vertex where
    # one transform and one "%.2f" per vertex put it when the polyline was
    # drawn in pixels
    sx, sy, ex, ey = map(Fraction, _MATRIX.fullmatch(polyline.get("transform")).groups())
    assert ex.denominator == ey.denominator == 1
    ranks = range(1, p.n + 1)
    reference = [_px_reference(i, c, *_frame(p)) for i, c in zip(ranks, p.sorted_desc)]
    _assert_lands_on_pixels(ex.numerator, sx, ranks, (x for x, _ in reference))
    _assert_lands_on_pixels(ey.numerator, sy, p.sorted_desc, (y for _, y in reference))


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
    for values in (*FIXTURES.values(), [rng.randint(0, 2**53) for _ in range(100_000)]):
        _assert_polyline_matches_reference(values)


# sha256 of whole SVG documents, without and with the trendline: the
# fixtures, and profiles whose polylines end just before, at and after a
# plot._CHUNK edge, and past three chunks.
_SVG_SHA256 = {
    "a1": ("1549eed5ee871976dba93dde0a053de2d4168826c43951198f5be50cb34ae20e",
           "6cfe9b699676203eda30c162e2982980e5ff356c25a3d01542faf085eea81304"),
    "a2": ("625953d5dfcd3a8f207d3b93d1afdd515402dad99328184fc4741dab57db78c7",
           "1ebe938676e9881f5566f4aca47098c7d27a6aa8432c3ffca961a3a589709e95"),
    "a3": ("c0ff8285252da21f14bc198faa1f5c8fd40046037d30d3f033612d2bd7f452c6",
           "83ba3897a41838501d42011fb4127c36c010cefa6d5a5a3738816ebef748af03"),
    "a4": ("07e927d82d6ece9bf80a4f429cea7a28bb584c99d95e00033b7d4b833088611a",
           "6a40e0dc333ef96435ecef0b6eeb5f3ffe519ece5a397da3daaae93ff37e6b0e"),
    "a5": ("88a097d1fc9f71aee617f7824f3a15ff52599d513a675a51845f795f409eed04",
           "68d2a4e4fc19c967edaedd37dd8c159526c1cdebc76147c2a611caff479e0299"),
    8191: ("17ec65a891cc1278d92c1b3cde3c00994f9cd37c193ca13172a7ce43a40d2d9f",
           "786209dfed7389768943a93ce7e7c1ed61e270410b6709c2412f607762fba8df"),
    8192: ("0ab2150d3c1d805efee315a19c2a0ef0765b24ad81e67efe9ff08cbff5c4cf81",
           "bf40acf36831b9ed60ffb34917c2cfc5f1de1f2a503ff19bd6ecf0e841a5495e"),
    8193: ("e7bb25b277c4cc61120a69f1962b8e99db451ac987791a7d1c8a7b9c295b4340",
           "d0ae35bf6dc2e604e6895fec1ad990fda8923438530f363374562bbf264a764b"),
    3 * 8192 + 1: ("4b85ecea63e105b276e4c6319e172efa6a1d0d001ea43b24b3f6d2bdfbe9aa95",
                   "802d234e837fb8bb779a9f456f3c23c8a5a1106a189beda43cf4a9d7f943eed6"),
}


def _svg_chunk_profile(n):
    # uniform counts in [0, 2n], near-linear once sorted: the gate passes
    rng = random.Random(n)
    return profile([rng.randint(0, 2 * n) for _ in range(n)])


def test_svg_documents_are_pinned_across_chunk_edges(tmp_path):
    # emit_plot_svg, and the file `plot` writes chunk by chunk
    assert plot._CHUNK == 8192
    path, out = tmp_path / "in.csv", tmp_path / "out.svg"
    for key, digests in _SVG_SHA256.items():
        p = profile(FIXTURES[key]) if isinstance(key, str) else _svg_chunk_profile(key)
        _, fit = estimate_h_via_trendline(p)
        if not isinstance(key, str):
            assert cli_io._gated_trendline(p)[0] == fit
        trace = geometric_h_index(p)[1]
        assert tuple(hashlib.sha256(emit_plot_svg(p, trace, f)).hexdigest() for f in (None, fit)) == digests
        path.write_bytes(b"".join(b"%d\n" % c for c in p.sorted_desc))
        written = []
        for mode in ("off", "on"):
            assert cli_io.main(["plot", "--input", str(path), "--output", str(out), "--trendline", mode]) == 0
            written.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert tuple(written) == digests


def test_svg_peak_memory_stays_near_its_output():
    # the document is joined once from byte chunks: a str of every vertex,
    # then the whole document as str and as bytes made 6.5x
    p = _svg_chunk_profile(100_000)
    svg, peak, _ = traced_memory(emit_plot_svg, p, geometric_h_index(p)[1])
    assert svg.count(b",") == 100_000
    assert peak <= 3 * len(svg)


@pytest.mark.parametrize("n", [100_000, 300_000])
def test_plot_writes_its_svg_in_bounded_memory(monkeypatch, tmp_path, n):
    # everything `plot` does after the read: the fit, the gate and the SVG,
    # written chunk by chunk. Built whole, the document and its chunks made
    # 2.0x its length, 2.48 MB at n = 100k; the bound does not grow with n.
    p = _svg_chunk_profile(n)
    monkeypatch.setattr(cli_io, "_read_profile", lambda args: p)
    out = tmp_path / "out.svg"
    args = cli_io.build_parser().parse_args(["plot", "--input", "unread", "--output", str(out)])
    code, peak, _ = traced_memory(cli_io._cmd_plot, args)
    assert code == 0 and out.read_bytes().count(b",") == n
    assert 'stroke="olive"' in out.read_text()
    assert peak <= 1_000_000


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


def test_every_bench_pipeline_returns_the_oracle_h():
    # run_benchmark keeps only timings, so check what each pipeline returns,
    # at sizes on both sides of one and two blocks of counts.
    for size in (1, 2, 4095, 4096, 4097, 8193):
        for seed in (1, 2, 3):
            values = generate_citations(size, seed)
            h = _h_definition_scan(sorted(values, reverse=True))
            for method in Method:
                assert scaling._BENCH_PIPELINES[method](values) == h, (method, size, seed)


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
        ([1000], [Method.COUNTING, Method.ORACLE, Method.COUNTING], 5, UnknownMethod),
    ):
        with pytest.raises(error):
            run_benchmark(sizes, methods, seed=1, runs=runs)
    assert generated == []


def test_scaling_exponents_shape():
    rows = run_benchmark([500, 2000], [Method.COUNTING], seed=5, runs=5)
    exponents = scaling_exponents(rows)
    assert set(exponents) == {Method.COUNTING}
    assert 0.0 < exponents[Method.COUNTING] < 3.0


def test_scaling_exponents_skip_a_method_timed_at_one_size():
    # used to raise statistics.StatisticsError: x is constant
    rows = [BenchmarkRow(n=5, method=Method.COUNTING, median_runtime=1e-6, runs=5)] * 2
    assert scaling_exponents(rows) == {}
    assert "scaling exponent" not in format_benchmark_report(rows)


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


def test_cli_compute_runs_only_the_method_asked_for(monkeypatch, a1_csv, capsysbinary):
    for name in ("h_index_sort_scan", "h_index_oracle", "geometric_h_index"):
        monkeypatch.setattr(cli_io, name, _not_asked)
    assert cli_io.main(["compute", "--input", str(a1_csv), "--method", "count"]) == 0
    out = capsysbinary.readouterr().out
    assert json.loads(out)["methods"] == {"counting": 5} and b'\n  "case": null,\n' in out
    assert cli_io.main(["compute", "--input", str(a1_csv), "--method", "count", "--output", "text"]) == 0
    assert capsysbinary.readouterr().out.endswith(b"\n  counting: 5\nagreement: yes\ngeometry: n/a\n")


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


def test_console_script_target_is_main(a1_csv, capsysbinary):
    # pyproject's [project.scripts] entry, read without tomllib (3.11+ only)
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    module, function = re.search(r'^citemetrics = "([\w.]+):(\w+)"$', pyproject, re.MULTILINE).groups()
    target = getattr(importlib.import_module(module), function)
    assert target is cli_io.main
    assert target(["compute", "--input", str(a1_csv)]) == 0
    assert b'"h": 5' in capsysbinary.readouterr().out


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
    # on forces the fit that auto leaves out when the gate fails (A4: a drop of 198 > 4)
    a4 = tmp_path / "a4.csv"
    a4.write_bytes(b"".join(b"%d\n" % c for c in A4))
    for mode, drawn in (("auto", False), ("on", True)):
        out = tmp_path / f"a4-{mode}.svg"
        proc = run_cli("plot", "--input", str(a4), "--output", str(out), "--trendline", mode)
        assert proc.returncode == 0, proc.stderr
        assert ('stroke="olive"' in out.read_text()) is drawn
    # one paper: no line to fit, and no file is made
    one, out = tmp_path / "one.csv", tmp_path / "one.svg"
    one.write_bytes(b"7\n")
    proc = run_cli("plot", "--input", str(one), "--output", str(out), "--trendline", "on")
    assert proc.returncode == 1
    assert proc.stderr == "error: need at least 2 papers, got 1\n"
    assert not out.exists()


def test_cli_plot_empty_profile_exits_1(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_bytes(b"")
    proc = run_cli("plot", "--input", str(empty), "--output", str(tmp_path / "x.svg"))
    assert proc.returncode == 1
    # a failed plot leaves an existing output file as it was
    out = tmp_path / "kept.svg"
    out.write_bytes(b"<svg>earlier</svg>\n")
    malformed, one = tmp_path / "bad.csv", tmp_path / "one.csv"
    malformed.write_bytes(b"10\nbanana\n")
    one.write_bytes(b"7\n")
    for path, mode in ((empty, "auto"), (empty, "on"), (empty, "off"), (malformed, "auto"), (one, "on")):
        proc = run_cli("plot", "--input", str(path), "--output", str(out), "--trendline", mode)
        assert proc.returncode == 1 and proc.stderr.startswith("error: "), (path.name, mode)
        assert out.read_bytes() == b"<svg>earlier</svg>\n"


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


def test_plot_never_builds_the_distance_table(monkeypatch, tmp_path, capsysbinary):
    # nor does a report or the trace: 300000 // rank has its argmin at 547 of
    # 1000 ranks, and each geometric run formats only the 11 gaps around it
    values = [300_000 // rank for rank in range(1, 1001)]
    p = profile(values)
    path = tmp_path / "p.json"
    path.write_bytes(json.dumps(values).encode())
    formatted, gaps = [], geometry._gaps

    def recording_gaps(counts, *args):
        formatted.append(len(counts))
        return gaps(counts, *args)

    monkeypatch.setattr(geometry, "_gaps", recording_gaps)
    trace = geometric_h_index(p)[1]
    out = tmp_path / "p.svg"
    assert cli_io.main(["plot", "--input", str(path), "--format", "json", "--output", str(out)]) == 0
    assert 'stroke="red"' in out.read_text()  # the minimum-distance segment is still drawn
    compute = ["compute", "--input", str(path), "--format", "json", "--output"]
    assert cli_io.main([*compute, "json"]) == 0
    shown = json.loads(capsysbinary.readouterr().out)["distances"]
    assert cli_io.main([*compute, "text"]) == 0
    text = capsysbinary.readouterr().out
    assert formatted == [11] * 4  # one window per geometric run
    monkeypatch.undo()
    lo, hi = trace.first_rank, trace.first_rank + len(trace.distances) - 1
    assert (trace.argmin_index, lo, hi) == (547, 542, 552)
    assert trace.distances == tuple(vertical_distances(p)[lo - 1 : hi])
    assert shown == {"first_rank": 542, "gaps": [11, 9, 7, 5, 3, 1, 1, 3, 5, 7, 9]}
    assert b"\ndistances: ranks 542-552: 11, 9, 7, 5, 3, 1, 1, 3, 5, 7, 9\nmin distance: 1 at journal 547\n" in text


def test_report_stays_small_at_100k_papers():
    # 300000 // rank straddles y = x between ranks 547 and 548 without
    # touching it, and is not a straight line
    p = profile([300_000 // rank for rank in range(1, 100_001)])
    report = build_report(p)
    assert report.trace.case is GeometricCase.NO_CROSSING_MIN_DISTANCE
    output = emit_report(report, "json")
    assert len(output) < 1024
    assert json.loads(output)["distances"] == {"first_rank": 542, "gaps": [11, 9, 7, 5, 3, 1, 1, 3, 5, 7, 9]}


def _check_distance_window(p):
    """The report's window against the full table: exact slice, both
    straddle ranks inside, the global minimum at the argmin."""
    report = build_report(p)
    window = report_to_dict(report)["distances"]
    text = emit_report(report, "text").decode()
    trace = report.trace
    if trace is None or trace.case is not GeometricCase.NO_CROSSING_MIN_DISTANCE:
        assert window is None and "\ndistances: " not in text
        return None
    sd, n, a = p.sorted_desc, p.n, trace.argmin_index
    lo, gaps = window["first_rank"], window["gaps"]
    hi = lo + len(gaps) - 1
    table = vertical_distances(p)
    assert (lo, hi) == (max(1, a - 5), min(n, a + 5))
    assert gaps == table[lo - 1 : hi]
    k = sum(c >= rank for rank, c in enumerate(sd, start=1))  # the last rank on or above y = x
    assert lo <= k and k + 1 <= hi
    assert gaps[a - lo] == min(gaps) == min(table)
    shown = f"\ndistances: ranks {lo}-{hi}: {', '.join(map(str, gaps))}\nmin distance: {min(table)} at journal {a}\n"
    assert shown in text
    return lo == 1, hi == n


def test_distance_window_matches_the_full_table():
    for values in FIXTURES.values():
        _check_distance_window(profile(values))
    # clipped at rank 1 only, at rank n only, at neither
    assert _check_distance_window(profile([12, 1] + [0] * 10)) == (True, False)
    assert _check_distance_window(profile([12] * 9 + [1])) == (False, True)
    assert _check_distance_window(profile([30] * 20 + [0] * 20)) == (False, False)


def test_distance_window_matches_the_full_table_seeded_sweep():
    clipped = Counter()
    for values in _mixed_profiles(seed=5309, count=10_000):
        clipped[_check_distance_window(profile(values))] += 1
    assert all(clipped[ends] for ends in itertools.product((True, False), repeat=2))


@settings(max_examples=300)
@given(st.lists(st.integers(min_value=0, max_value=400), min_size=1, max_size=120) | arithmetic_progressions)
def test_distance_window_matches_the_full_table_fuzzed(values):
    _check_distance_window(profile(values))


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


def test_cli_bench_repeated_methods_exits_1():
    # used to die after timing in scaling_exponents with a StatisticsError
    # traceback, or with two sizes, to print every row twice and exit 0
    proc = run_cli("bench", "--sizes", "5", "--runs", "5", "--methods", "count,count")
    _assert_input_error(proc)
    assert "repeated method" in proc.stderr
    assert "'count'" in proc.stderr
    assert "Method." not in proc.stderr


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


def test_every_package_exception_is_an_input_error():
    # main exits 1 on exactly these two bases (and OSError); a new error type
    # outside them would reach the user as a traceback.
    checked = set()
    for info in pkgutil.iter_modules(citemetrics.__path__):
        module = importlib.import_module(f"citemetrics.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and issubclass(cls, BaseException):
                assert issubclass(cls, (ParseError, InputError)), cls
                checked.add(cls)
    assert {ParseError, InputError, EmptyProfile, UnknownMethod} <= checked


def test_cli_internal_value_error_is_not_an_input_error(a1_csv, monkeypatch):
    def broken(profile):
        raise ValueError("internal bug")

    monkeypatch.setattr(cli_io, "h_index_counting", broken)
    with pytest.raises(ValueError, match="internal bug"):
        cli_io.main(["compute", "--input", str(a1_csv)])
