"""Output checks: is a report or plot correct for the profile it came from?

Each check returns None for a correct output, else a one-line reason. The
expected values come from bench/inputs.py (the benchmark's own reference h
and pinned case), never from the package under test.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET

from inputs import Expected

METHODS = ("sort_scan", "counting", "oracle", "geometric")
_SVG = "{http://www.w3.org/2000/svg}"
_TRENDLINE_STROKE = "olive"


def check_json_report(output: bytes, expected: Expected) -> str | None:
    """h, every method's h, agreement, n and the pinned case of a JSON report."""
    try:
        report = json.loads(output)
    except ValueError as exc:
        return f"report is not JSON: {exc}"
    if not isinstance(report, dict):
        return "report is not a JSON object"
    if report.get("h") != expected.h:
        return f"h is {report.get('h')!r}, expected {expected.h}"
    methods = report.get("methods")
    if not isinstance(methods, dict) or sorted(methods) != sorted(METHODS):
        return f"methods are {methods!r}, expected all of {METHODS}"
    wrong = {name: h for name, h in methods.items() if h != expected.h}
    if wrong:
        return f"methods {wrong} differ from h = {expected.h}"
    if report.get("agreement") is not True:
        return f"agreement is {report.get('agreement')!r}"
    if report.get("n") != expected.n:
        return f"n is {report.get('n')!r}, expected {expected.n}"
    if report.get("case") != expected.case:
        return f"case is {report.get('case')!r}, expected {expected.case}"
    return None


def _text_field(lines: list[str], key: str) -> str | None:
    prefix = key + ": "
    return next((line[len(prefix):] for line in lines if line.startswith(prefix)), None)


def check_text_report(output: bytes, expected: Expected) -> str | None:
    """The h-index line, agreement and the pinned case of a text report."""
    lines = output.decode("utf-8", "replace").splitlines()
    h = _text_field(lines, "h-index")
    if h != str(expected.h):
        return f"h-index line reads {h!r}, expected {expected.h}"
    agreement = _text_field(lines, "agreement")
    if agreement != "yes":
        return f"agreement line reads {agreement!r}"
    case = _text_field(lines, "case")
    if case != expected.case:
        return f"case line reads {case!r}, expected {expected.case}"
    return None


def check_svg(output: bytes, expected: Expected) -> str | None:
    """Well-formed SVG whose polyline has n vertices, with the trendline
    drawn exactly when the gate passes (the plot runs with --trendline auto)."""
    try:
        root = ET.fromstring(output)
    except ET.ParseError as exc:
        return f"SVG is not well-formed XML: {exc}"
    if root.tag != _SVG + "svg":
        return f"root element is {root.tag!r}"
    polylines = root.findall(_SVG + "polyline")
    if len(polylines) != 1:
        return f"{len(polylines)} polylines, expected 1"
    vertices = len(polylines[0].get("points", "").split())
    if vertices != expected.n:
        return f"polyline has {vertices} vertices, expected {expected.n}"
    drawn = any(line.get("stroke") == _TRENDLINE_STROKE for line in root.iter(_SVG + "line"))
    if drawn != expected.gate:
        return f"trendline drawn is {drawn}, gate passes is {expected.gate}"
    return None


CHECKS = {"json": check_json_report, "text": check_text_report, "svg": check_svg}


def shows_fit(fmt: str, output: bytes) -> bool:
    """Does the output carry the least-squares trendline?"""
    if fmt == "json":
        return "trendline" in json.loads(output)
    if fmt == "text":
        return b"\ntrendline: " in output
    return f'stroke="{_TRENDLINE_STROKE}"'.encode() in output


def shows_distances(fmt: str, output: bytes) -> bool:
    """Does the output carry the vertical-distance table?

    A plot never does: it draws at most the one minimum-distance segment.
    """
    if fmt == "json":
        return json.loads(output).get("distances") is not None
    if fmt == "text":
        return b"\ndistances: " in output
    return False
