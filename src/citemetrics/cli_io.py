"""Data ingestion, report and plot emission, benchmark harness, and CLI.

Input formats: CSV (one count per line, or two columns with a
``paper_id,citations`` header) and JSON (a flat array of non-negative
integers). Output: a metrics report as JSON or plain text, an SVG
rendering of the geometric construction, and a benchmark report comparing
how the algorithms scale.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import re
import statistics
import sys
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from operator import add, mul, sub, truediv
from pathlib import Path
from typing import Iterable, Sequence

from .core import (
    CitationProfile,
    CitationTooLarge,
    HIndexResult,
    Method,
    NegativeCitation,
    _h_counting,
    _h_definition_scan,
    _h_scan_ascending,
    h_index_counting,
    h_index_oracle,
    h_index_sort_scan,
    normalize_profile,
)
from .geometry import (
    DegenerateFit,
    EmptyProfile,
    GeometricCase,
    GeometricTrace,
    LineFit,
    estimate_h_via_trendline,
    geometric_h_index,
    trendline_applicable,
)


class ParseError(ValueError):
    """Malformed input, with the location that triggered it."""

    def __init__(self, location: str, reason: str):
        self.location = location
        self.reason = reason
        super().__init__(f"{location}: {reason}")


class DuplicatePaperId(ParseError):
    """The same paper_id appeared twice in a two-column CSV."""


class InvalidSize(ValueError):
    """Benchmark sizes must be positive integers."""


class UnknownMethod(ValueError):
    """A method name that no algorithm answers to."""


# ---------------------------------------------------------------------------
# Parsing


def parse_citations(data: bytes, fmt: str) -> list[int]:
    """Parse citation counts from raw bytes in the given format.

    fmt is "csv" or "json". Returns counts in file order. Raises
    ParseError on malformed input, NegativeCitation on counts below zero,
    and DuplicatePaperId on repeated ids in the two-column CSV variant.
    """
    if fmt == "csv":
        return _parse_csv(data)
    if fmt == "json":
        return _parse_json(data)
    raise ValueError(f"unknown input format: {fmt!r}")


# ASCII digits only: int() alone would also take "1_000" and non-ASCII digits.
_COUNT_CELL = re.compile(r"-?[0-9]+")
# The canonical single-column body: counts in ASCII digits, "\n" between them.
# It has no comma, so it cannot be the paper_id,citations header.
_PLAIN_BODY = re.compile(r"[0-9\n]*")


def _parse_count(cell: str, lineno: int, position: int) -> int:
    try:
        if not _COUNT_CELL.fullmatch(cell):
            raise ValueError(cell)
        value = int(cell)  # raises past the interpreter's digit limit
    except ValueError:
        raise ParseError(f"line {lineno}", f"not an integer citation count: {cell!r}") from None
    if value < 0:
        raise NegativeCitation(position, value)
    return value


def _parse_csv(data: bytes) -> list[int]:
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"offset {exc.start}", "input is not valid UTF-8") from None
    # Checked before splitlines(), so that no second list of lines is live.
    if _PLAIN_BODY.fullmatch(text):
        try:
            return list(map(int, text.split()))
        except ValueError:
            pass  # a count past the digit limit: the loop below reports its line
    lines = text.splitlines()
    if not lines:
        return []

    header = [cell.strip().lower() for cell in lines[0].split(",")]
    if header == ["paper_id", "citations"]:
        return _parse_two_column(lines[1:])

    values: list[int] = []
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
        values.append(_parse_count(cell, lineno, len(values)))
    return values


def _parse_two_column(body: list[str]) -> list[int]:
    seen: dict[str, int] = {}
    values: list[int] = []
    for lineno, line in enumerate(body, start=2):
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
        values.append(_parse_count(count_cell, lineno, len(values)))
    return values


def _parse_json(data: bytes) -> list[int]:
    try:
        parsed = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno} column {exc.colno}", exc.msg) from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"offset {exc.start}", "input is not valid UTF-8") from None
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise ParseError("document", str(exc)) from None
    except RecursionError:
        raise ParseError("document", "arrays nested too deeply") from None
    if not isinstance(parsed, list):
        raise ParseError("document", "expected a flat JSON array of citation counts")
    # The common case, in C-level passes: every element a plain int (type()
    # excludes bool), none negative. json.loads built the list; return it.
    if set(map(type, parsed)) <= {int} and (not parsed or min(parsed) >= 0):
        return parsed
    values: list[int] = []
    for i, item in enumerate(parsed):
        if isinstance(item, bool) or not isinstance(item, int):
            raise ParseError(f"element {i}", f"expected an integer citation count, got {item!r}")
        if item < 0:
            raise NegativeCitation(i, item)
        values.append(item)
    return values


def emit_citations_json(values: Iterable[int]) -> bytes:
    """Serialize counts in the JSON input format; parse() reverses this."""
    return (json.dumps(list(values)) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# Metrics report


@dataclass(frozen=True)
class MetricsReport:
    """All method results for one profile, ready for serialization.

    ``profile`` is the one source of n and the count summary. ``agreement``
    must be true on every real input; a false value is a defect in this
    package and is surfaced loudly (CLI exit code 2), never silently. It is
    stored, not derived from ``results``, so a view that keeps one method's
    result still carries the verdict over all four. ``trendline`` and
    ``trendline_estimate`` are present only when the applicability gate
    passes, and are computed on first access: the JSON report never reads
    them. ``trace`` is absent for n = 0.
    """

    profile: CitationProfile = field(repr=False)
    results: tuple[HIndexResult, ...]
    trace: GeometricTrace | None
    agreement: bool

    @cached_property
    def _fit_and_estimate(self) -> tuple[LineFit | None, int | None]:
        return _gated_trendline(self.profile)

    @property
    def trendline(self) -> LineFit | None:
        return self._fit_and_estimate[0]

    @property
    def trendline_estimate(self) -> int | None:
        return self._fit_and_estimate[1]


def _gated_trendline(profile: CitationProfile) -> tuple[LineFit | None, int | None]:
    """(fit, estimate) when the applicability gate passes, else (None, None)."""
    if profile.n >= 2:
        estimate, fit = estimate_h_via_trendline(profile)
        if trendline_applicable(profile, fit):
            return fit, estimate
    return None, None


def build_report(profile: CitationProfile) -> MetricsReport:
    """Compute every method on the profile and bundle the results."""
    geometric, trace = geometric_h_index(profile)
    results = (
        h_index_sort_scan(profile),
        h_index_counting(profile),
        h_index_oracle(profile),
        geometric,
    )
    return MetricsReport(
        profile=profile,
        results=results,
        trace=trace,
        agreement=len({r.h for r in results}) == 1,
    )


def _headline_h(report: MetricsReport) -> int:
    for result in report.results:
        if result.method is Method.ORACLE:
            return result.h
    return report.results[0].h


def report_to_dict(report: MetricsReport) -> dict:
    """Report as a plain dict with the fixed JSON key order."""
    trace = report.trace
    crossing = trace.crossing if trace is not None else None
    return {
        "n": report.profile.n,
        "h": _headline_h(report),
        "methods": {r.method.value: r.h for r in report.results},
        "case": trace.case.value if trace is not None else None,
        "postulate": trace.postulate if trace is not None else None,
        "intersection": [float(crossing)] * 2 if crossing is not None else None,
        "distances": list(trace.distances) if trace is not None and trace.distances else None,
        "agreement": report.agreement,
    }


def _fmt6_exact(x: Fraction) -> str:
    # first six decimals of a non-negative rational, floored in integers
    whole, micro = divmod(math.floor(x * 10**6), 10**6)
    return f"{whole}.{micro:06d}"


def _report_text(report: MetricsReport) -> str:
    sd = report.profile.sorted_desc
    lines = [f"papers: {len(sd)}", f"total citations: {sum(sd)}"]
    if sd:
        lines.append(f"max citation: {sd[0]}")
        lines.append(f"min citation: {sd[-1]}")
    lines.append(f"h-index: {_headline_h(report)}")
    for result in report.results:
        lines.append(f"  {result.method.value}: {result.h}")
    lines.append(f"agreement: {'yes' if report.agreement else 'NO (methods disagree, this is a bug)'}")
    trace = report.trace
    if trace is None:
        lines.append("geometry: n/a (empty profile)")
    else:
        lines.append(f"case: {trace.case.value}")
        lines.append(f"postulate: {trace.postulate}")
        if trace.crossing is not None:
            crossing = _fmt6_exact(trace.crossing)
            lines.append(f"intersection: ({crossing}, {crossing})")
        if trace.distances is not None:
            lines.append("distances: " + ", ".join(map(str, trace.distances)))
            lines.append(f"min distance: {min(trace.distances)} at journal {trace.argmin_index}")
    if report.trendline is not None:
        fit = report.trendline
        lines.append(
            f"trendline: y = {fit.slope:.6f}x + {fit.intercept:.6f} (r^2 = {fit.r_squared:.6f})"
        )
        lines.append(f"trendline estimate: {report.trendline_estimate}")
        # Never negative: the intercept is at least the mean count, the slope at most 0.
        crossing = _fmt6_exact(fit.crossing)
        lines.append(f"trendline intersection: ({crossing}, {crossing})")
    return "\n".join(lines) + "\n"


def emit_report(report: MetricsReport, fmt: str) -> bytes:
    """Serialize a report as "json" or "text"; deterministic output."""
    if fmt == "json":
        payload = report_to_dict(report)
        table = payload["distances"]
        if table is None:
            return (json.dumps(payload, indent=2) + "\n").encode("utf-8")
        # indent=2 runs json's pure-Python encoder on every element, so the
        # table is laid out here as json would: one integer per line.
        payload["distances"] = None
        rows = "[\n    " + ",\n    ".join(map(str, table)) + "\n  ]"
        text = json.dumps(payload, indent=2).replace('"distances": null', '"distances": ' + rows, 1)
        return (text + "\n").encode("utf-8")
    if fmt == "text":
        return _report_text(report).encode("utf-8")
    raise ValueError(f"unknown report format: {fmt!r}")


# ---------------------------------------------------------------------------
# SVG plot

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


def _to_px(x: float, y: float, x_max: float, y_max: float) -> tuple[float, float]:
    px = _MARGIN_LEFT + (x / x_max) * _FRAME_WIDTH
    py = _FRAME_BOTTOM - (y / y_max) * _FRAME_HEIGHT
    return px, py


def _polyline_points(sorted_desc: Sequence[int], x_max: float, y_max: float) -> str:
    """The points attribute through (rank, count) at ranks 1..n, byte for
    byte what _to_px and "%.2f" give vertex by vertex: C-level maps that
    repeat _to_px's float operations in the same order."""
    ranks = range(1, len(sorted_desc) + 1)
    xs = map(mul, map(truediv, ranks, repeat(x_max)), repeat(_FRAME_WIDTH))
    xs = map(add, repeat(_MARGIN_LEFT), xs)
    ys = map(mul, map(truediv, sorted_desc, repeat(y_max)), repeat(_FRAME_HEIGHT))
    ys = map(sub, repeat(_FRAME_BOTTOM), ys)
    return " ".join(map("%.2f,%.2f".__mod__, zip(xs, ys)))


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
    gap. A fit built by hand without a ``crossing`` gets no marker. Output
    is deterministic: identical inputs give identical bytes.
    """
    if profile.n == 0:
        raise EmptyProfile("cannot plot an empty profile")
    x_max, y_max = plot_scales(profile)

    def px(x: float, y: float) -> tuple[float, float]:
        return _to_px(x, y, x_max, y_max)

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
    parts.append(_svg_line(px(0, 0), px(identity_reach, identity_reach), _IDENTITY_COLOR))

    poly = _polyline_points(profile.sorted_desc, x_max, y_max)
    parts.append(
        f'<polyline fill="none" stroke="{_CITATIONS_COLOR}" stroke-width="2" points="{poly}"/>'
    )

    if fit is not None:
        lo, hi = _visible_span(fit, x_max, y_max)
        if lo < hi:
            parts.append(_svg_line(px(lo, fit.predict(lo)), px(hi, fit.predict(hi)), _TRENDLINE_COLOR))

    marker = fit.crossing if fit is not None else trace.crossing
    if marker is not None:
        mx, my = px(float(marker), float(marker))
        parts.append(f'<circle cx="{mx:.2f}" cy="{my:.2f}" r="4" fill="{_MARKER_COLOR}"/>')
    elif trace.case is GeometricCase.NO_CROSSING_MIN_DISTANCE:
        j = trace.argmin_index
        cited = profile.sorted_desc[j - 1]
        parts.append(_svg_line(px(j, j), px(j, cited), _DISTANCE_COLOR, dash="4 3"))

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
    # x interval over which the fitted line stays inside [0, y_max].
    lo, hi = 0.0, x_max
    if fit.slope != 0.0:
        top = (y_max - fit.intercept) / fit.slope
        bottom = (0.0 - fit.intercept) / fit.slope
        left, right = min(top, bottom), max(top, bottom)
        lo, hi = max(lo, left), min(hi, right)
    elif not 0.0 <= fit.intercept <= y_max:
        return 0.0, 0.0
    return lo, hi


# ---------------------------------------------------------------------------
# Benchmark harness


@dataclass(frozen=True)
class BenchmarkRow:
    n: int
    method: Method
    median_runtime: float  # seconds
    runs: int


def generate_citations(size: int, seed: int) -> list[int]:
    """Pseudo-random counts, uniform in [0, 2*size], fixed by (seed, size)."""
    if size < 1:
        raise InvalidSize(f"benchmark size must be >= 1, got {size}")
    rng = random.Random(f"{seed}:{size}")
    return [rng.randint(0, 2 * size) for _ in range(size)]


# Each method timed as its own honest pipeline from an unsorted list:
# sort-scan and the definition scan pay for their sort, counting does not
# need one, and the geometric route runs the full classification.
_BENCH_PIPELINES = {
    Method.SORT_SCAN: lambda values: _h_scan_ascending(sorted(values)),
    Method.COUNTING: lambda values: _h_counting(values),
    Method.ORACLE: lambda values: _h_definition_scan(sorted(values, reverse=True)),
    Method.GEOMETRIC: lambda values: geometric_h_index(normalize_profile(values))[0].h,
}


def run_benchmark(
    sizes: Sequence[int], methods: Iterable[Method], seed: int, runs: int = 5
) -> list[BenchmarkRow]:
    """Median wall-clock runtimes per (size, method).

    One warmup call per pair is discarded; timings run sequentially to
    avoid cross-contamination. Input generation is deterministic in
    (seed, size); the timings themselves naturally are not.
    """
    if runs < 5:
        raise InvalidSize(f"at least 5 timing runs required, got {runs}")
    if len(set(sizes)) != len(sizes):
        raise InvalidSize(f"benchmark sizes must be distinct, got {list(sizes)}")
    method_list = list(methods)
    for method in method_list:
        if not isinstance(method, Method):
            raise UnknownMethod(f"unknown method: {method!r}")
    rows = []
    for size in sizes:
        values = generate_citations(size, seed)
        for method in method_list:
            pipeline = _BENCH_PIPELINES[method]
            pipeline(values)  # warmup, discarded
            samples = []
            for _ in range(runs):
                start = time.perf_counter()
                pipeline(values)
                samples.append(time.perf_counter() - start)
            rows.append(BenchmarkRow(n=size, method=method, median_runtime=statistics.median(samples), runs=runs))
    return rows


def scaling_exponents(rows: Sequence[BenchmarkRow]) -> dict[Method, float]:
    """Empirical scaling exponent per method: log-log least-squares slope."""
    by_method: dict[Method, tuple[list[float], list[float]]] = {}
    for row in rows:
        xs, ys = by_method.setdefault(row.method, ([], []))
        xs.append(math.log(row.n))
        ys.append(math.log(row.median_runtime))
    return {
        method: statistics.linear_regression(xs, ys).slope
        for method, (xs, ys) in by_method.items()
        if len(xs) >= 2
    }


def format_benchmark_report(rows: Sequence[BenchmarkRow]) -> str:
    lines = [f"{'method':<12} {'n':>10} {'median':>12} {'runs':>5}"]
    for row in rows:
        lines.append(
            f"{row.method.value:<12} {row.n:>10} {row.median_runtime * 1e3:>9.3f} ms {row.runs:>5}"
        )
    exponents = scaling_exponents(rows)
    if exponents:
        lines.append("scaling exponent (log-log slope):")
        for method, exponent in exponents.items():
            lines.append(f"  {method.value}: {exponent:.3f}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# CLI

_METHOD_TOKENS = {
    "sort": Method.SORT_SCAN,
    "count": Method.COUNTING,
    "oracle": Method.ORACLE,
    "geometric": Method.GEOMETRIC,
}

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_DISAGREEMENT = 2


def _read_profile(args) -> CitationProfile:
    data = Path(args.input).read_bytes()
    return normalize_profile(parse_citations(data, args.format))


def _cmd_compute(args) -> int:
    profile = _read_profile(args)
    report = build_report(profile)
    view = report
    if args.method != "all":
        wanted = _METHOD_TOKENS[args.method]
        view = replace(report, results=tuple(r for r in report.results if r.method is wanted))
    sys.stdout.buffer.write(emit_report(view, args.output))
    sys.stdout.buffer.flush()
    if not report.agreement:
        print("error: h-index methods disagree; this is a bug in citemetrics", file=sys.stderr)
        return EXIT_DISAGREEMENT
    return EXIT_OK


def _cmd_plot(args) -> int:
    profile = _read_profile(args)
    _, trace = geometric_h_index(profile)
    if trace is None:
        raise EmptyProfile("cannot plot an empty profile")
    fit = None
    if args.trendline == "on":
        _, fit = estimate_h_via_trendline(profile)
    elif args.trendline == "auto":
        fit, _ = _gated_trendline(profile)
    Path(args.output).write_bytes(emit_plot_svg(profile, trace, fit))
    return EXIT_OK


_DIGITS = re.compile(r"[0-9]+")


def _parse_int_list(text: str, what: str) -> list[int]:
    items = [token.strip() for token in text.split(",") if token.strip()]
    try:
        for token in items:
            # ASCII digits only, as in CSV cells: int() would take "1_00" and "٢00".
            if not _DIGITS.fullmatch(token):
                raise ValueError(f"not a whole number: {token!r}")
        return [int(token) for token in items]
    except ValueError as exc:
        raise InvalidSize(f"bad {what} list {text!r}: {exc}") from None


def _cmd_bench(args) -> int:
    sizes = _parse_int_list(args.sizes, "size")
    if not sizes:
        raise InvalidSize("no benchmark sizes given")
    methods = []
    for token in (t.strip() for t in args.methods.split(",") if t.strip()):
        if token not in _METHOD_TOKENS:
            raise UnknownMethod(
                f"unknown method {token!r} (choose from {', '.join(sorted(_METHOD_TOKENS))})"
            )
        methods.append(_METHOD_TOKENS[token])
    rows = run_benchmark(sizes, methods, seed=args.seed, runs=args.runs)
    sys.stdout.write(format_benchmark_report(rows))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on a usage error, which here means the methods disagree.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="citemetrics",
        description="Compute, draw, and benchmark the h-index of a citation profile.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="compute the h-index and emit a report")
    compute.add_argument("--input", required=True, help="path to the citations file")
    compute.add_argument("--format", choices=["csv", "json"], default="csv")
    compute.add_argument(
        "--method", choices=["sort", "count", "oracle", "geometric", "all"], default="all"
    )
    compute.add_argument("--output", choices=["json", "text"], default="json")
    compute.set_defaults(func=_cmd_compute)

    plot = sub.add_parser("plot", help="render the geometric construction as SVG")
    plot.add_argument("--input", required=True, help="path to the citations file")
    plot.add_argument("--format", choices=["csv", "json"], default="csv")
    plot.add_argument("--output", required=True, help="path of the SVG file to write")
    plot.add_argument(
        "--trendline",
        choices=["auto", "on", "off"],
        default="auto",
        help="auto draws the trendline only when the applicability gate passes",
    )
    plot.set_defaults(func=_cmd_plot)

    bench = sub.add_parser("bench", help="compare algorithm runtimes across input sizes")
    bench.add_argument("--sizes", required=True, help="comma-separated input sizes")
    bench.add_argument("--runs", type=int, default=5, help="timing runs per size and method")
    bench.add_argument("--seed", type=int, default=0, help="seed for input generation")
    bench.add_argument(
        "--methods", default="sort,count,oracle,geometric", help="comma-separated method names"
    )
    bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        ParseError,
        NegativeCitation,
        CitationTooLarge,
        InvalidSize,
        UnknownMethod,
        EmptyProfile,
        DegenerateFit,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
