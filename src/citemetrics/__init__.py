"""citemetrics: compute, draw, and benchmark the h-index.

Three independent algebraic routes (sort-and-scan, linear counting, and a
brute-force definition oracle) plus a Cartesian-geometric determination,
cross-validated against each other, with CSV/JSON ingestion, report and
SVG emission, and a scaling benchmark harness.
"""

from .cli_io import MetricsReport, build_report, emit_report, main
from .core import (
    CitationProfile,
    CitationTooLarge,
    HIndexResult,
    InputError,
    Method,
    NegativeCitation,
    NonIntegerCitation,
    UnknownMethod,
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
    Point2,
    classify_profile,  # not in __all__: the benchmark's tests import it from here
    estimate_h_via_trendline,
    geometric_h_index,
    intersect_with_identity,
    trendline_applicable,
    vertical_distances,
)
from .parse import DuplicatePaperId, ParseError, parse_citations
from .plot import emit_plot_svg
from .scaling import (
    BenchmarkRow,
    InvalidSize,
    format_benchmark_report,
    generate_citations,
    run_benchmark,
    scaling_exponents,
)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkRow",
    "CitationProfile",
    "CitationTooLarge",
    "DegenerateFit",
    "DuplicatePaperId",
    "EmptyProfile",
    "GeometricCase",
    "GeometricTrace",
    "HIndexResult",
    "InputError",
    "InvalidSize",
    "LineFit",
    "Method",
    "MetricsReport",
    "NegativeCitation",
    "NonIntegerCitation",
    "ParseError",
    "Point2",
    "UnknownMethod",
    "build_report",
    "emit_plot_svg",
    "emit_report",
    "estimate_h_via_trendline",
    "format_benchmark_report",
    "generate_citations",
    "geometric_h_index",
    "h_index_counting",
    "h_index_oracle",
    "h_index_sort_scan",
    "intersect_with_identity",
    "main",
    "normalize_profile",
    "parse_citations",
    "run_benchmark",
    "scaling_exponents",
    "trendline_applicable",
    "vertical_distances",
]
