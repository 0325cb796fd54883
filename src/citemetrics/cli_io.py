"""The metrics report (JSON or plain text) and the command-line interface.

The CLI reads counts through ``parse``, draws through ``plot`` and times
through ``scaling``. ``build_report`` and ``_gated_trendline`` look up the
methods, the trendline fit and its gate by the names this module imports,
on every call, so that a tracer can wrap them here.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

from .core import (
    CitationProfile,
    HIndexResult,
    InputError,
    Method,
    UnknownMethod,
    check_methods,
    h_index_counting,
    h_index_oracle,
    h_index_sort_scan,
    normalize_profile,
)
from .geometry import (
    GeometricTrace,
    LineFit,
    estimate_h_via_trendline,
    geometric_h_index,
    trendline_applicable,
)
from .parse import ParseError, parse_citations
from .plot import emit_plot_svg, svg_chunks  # bench/tracing.py draws by cli_io.emit_plot_svg
from .scaling import InvalidSize, format_benchmark_report, run_benchmark


# ---------------------------------------------------------------------------
# Metrics report


@dataclass(frozen=True)
class MetricsReport:
    """The results of the methods that ran on one profile, ready to emit.

    ``profile`` is the one source of n and the count summary. ``trace`` is
    absent when the geometric method did not run, or for n = 0. The report
    holds no trendline: the text report fits and gates one from ``profile``
    when it renders a trace, and the JSON report never fits one.
    """

    profile: CitationProfile = field(repr=False)
    results: tuple[HIndexResult, ...]
    trace: GeometricTrace | None

    @property
    def agreement(self) -> bool:
        """Whether every method that ran returned the same h, trivially so for one. False on
        a real input is a defect in this package, surfaced loudly (CLI exit code 2)."""
        return len({r.h for r in self.results}) == 1


def _gated_trendline(profile: CitationProfile) -> tuple[LineFit | None, int | None]:
    """(fit, estimate) when the applicability gate passes, else (None, None)."""
    if profile.n >= 2:
        estimate, fit = estimate_h_via_trendline(profile)
        if trendline_applicable(profile, fit):
            return fit, estimate
    return None, None


def build_report(profile: CitationProfile, methods: Iterable[Method] = tuple(Method)) -> MetricsReport:
    """Run each given method once, in order, and bundle the results; the
    geometric trace is built only when Method.GEOMETRIC is among them. The
    list is checked (UnknownMethod) before any method runs, and each method
    is looked up by its name in this module on every call.
    """
    methods = check_methods(methods, "report methods")
    algebraic = {Method.SORT_SCAN: h_index_sort_scan, Method.COUNTING: h_index_counting,
                 Method.ORACLE: h_index_oracle}
    results, trace = [], None
    for method in methods:
        if method is Method.GEOMETRIC:
            result, trace = geometric_h_index(profile)
        else:
            result = algebraic[method](profile)
        results.append(result)
    return MetricsReport(profile=profile, results=tuple(results), trace=trace)


def _headline_h(report: MetricsReport) -> int:
    for result in report.results:
        if result.method is Method.ORACLE:
            return result.h
    return report.results[0].h


def _distance_window(trace: GeometricTrace | None) -> dict | None:
    """The trace's window of gaps as {"first_rank": lo, "gaps": [...]};
    None unless the minimum-distance case fired."""
    if trace is None or trace.distances is None:
        return None
    return {"first_rank": trace.first_rank, "gaps": list(trace.distances)}


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
        "distances": _distance_window(trace),
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
    if trace is None:  # no geometric method ran, or n = 0: nothing to fit either
        lines.append("geometry: n/a")
    else:
        lines.append(f"case: {trace.case.value}")
        lines.append(f"postulate: {trace.postulate}")
        if trace.crossing is not None:
            crossing = _fmt6_exact(trace.crossing)
            lines.append(f"intersection: ({crossing}, {crossing})")
        if trace.distances is not None:
            lo, gaps, argmin = trace.first_rank, trace.distances, trace.argmin_index
            lines.append(f"distances: ranks {lo}-{lo + len(gaps) - 1}: " + ", ".join(map(str, gaps)))
            lines.append(f"min distance: {gaps[argmin - lo]} at journal {argmin}")
        fit, estimate = _gated_trendline(report.profile)
        if fit is not None:
            lines.append(f"trendline: y = {fit.slope:.6f}x + {fit.intercept:.6f} (r^2 = {float(fit.r_squared):.6f})")
            lines.append(f"trendline estimate: {estimate}")
            # Never negative: the intercept is at least the mean count, the slope at most 0.
            crossing = _fmt6_exact(fit.crossing)
            lines.append(f"trendline intersection: ({crossing}, {crossing})")
    return "\n".join(lines) + "\n"


def emit_report(report: MetricsReport, fmt: str) -> bytes:
    """Serialize a report as "json" or "text"; deterministic output."""
    if fmt == "json":
        return (json.dumps(report_to_dict(report), indent=2) + "\n").encode("utf-8")
    if fmt == "text":
        return _report_text(report).encode("utf-8")
    raise ValueError(f"unknown report format: {fmt!r}")


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
    # The bytes are dropped when the parse returns, before the sort.
    return normalize_profile(parse_citations(Path(args.input).read_bytes(), args.format))


def _replay_line(report: MetricsReport) -> str:
    """n, every method's h and the sha256 of the counts written in
    descending order, one per line, each newline-terminated: for a
    one-column CSV that is the digest of `sort -rn counts.csv`."""
    import hashlib  # loads OpenSSL, a few MiB of RSS that only this path needs

    sd = report.profile.sorted_desc
    digest = hashlib.sha256()
    for lo in range(0, len(sd), 8192):  # in blocks: no n-sized string
        digest.update(b"".join(map(b"%d\n".__mod__, sd[lo : lo + 8192])))
    methods = " ".join(f"{r.method.value}={r.h}" for r in report.results)
    return f"disagreement: n={len(sd)} {methods} sha256={digest.hexdigest()}"


def _cmd_compute(args) -> int:
    methods = tuple(Method) if args.method == "all" else (_METHOD_TOKENS[args.method],)
    report = build_report(_read_profile(args), methods)
    sys.stdout.buffer.write(emit_report(report, args.output))
    sys.stdout.buffer.flush()
    if not report.agreement:
        print("error: h-index methods disagree; this is a bug in citemetrics", file=sys.stderr)
        print(_replay_line(report), file=sys.stderr)
        return EXIT_DISAGREEMENT
    return EXIT_OK


def _cmd_plot(args) -> int:
    profile = _read_profile(args)
    _, trace = geometric_h_index(profile)
    fit = None
    if args.trendline == "on":
        _, fit = estimate_h_via_trendline(profile)
    elif args.trendline == "auto":
        fit, _ = _gated_trendline(profile)
    # Everything that can raise runs here, before open() truncates the file.
    chunks = svg_chunks(profile, trace, fit)
    with open(args.output, "wb") as out:
        out.writelines(chunks)
    return EXIT_OK


_DIGITS = re.compile(r"[0-9]+")


def _parse_sizes(text: str) -> list[int]:
    items = [token.strip() for token in text.split(",") if token.strip()]
    try:
        for token in items:
            # ASCII digits only, as in CSV cells: int() would take "1_00" and "٢00".
            if not _DIGITS.fullmatch(token):
                raise ValueError(f"not a whole number: {token!r}")
        return [int(token) for token in items]
    except ValueError as exc:
        raise InvalidSize(f"bad size list {text!r}: {exc}") from None


def _cmd_bench(args) -> int:
    sizes = _parse_sizes(args.sizes)
    methods = []
    for token in (t.strip() for t in args.methods.split(",") if t.strip()):
        if token not in _METHOD_TOKENS:
            raise UnknownMethod(
                f"unknown method {token!r} (choose from {', '.join(sorted(_METHOD_TOKENS))})"
            )
        if _METHOD_TOKENS[token] in methods:
            raise UnknownMethod(f"repeated method {token!r}")
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
    compute.add_argument("--method", choices=[*_METHOD_TOKENS, "all"], default="all")
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
    bench.add_argument("--methods", default=",".join(_METHOD_TOKENS), help="comma-separated method names")
    bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
