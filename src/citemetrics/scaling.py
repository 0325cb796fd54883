"""The `citemetrics bench` harness: median runtimes per input size and
method, and the empirical scaling exponent each method shows."""

from __future__ import annotations

import math
import random
import statistics
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import Method, _h_counting, _h_definition_scan, _h_scan_ascending, normalize_profile
from .geometry import geometric_h_index


class InvalidSize(ValueError):
    """Benchmark sizes must be positive integers."""


class UnknownMethod(ValueError):
    """A method name that no algorithm answers to."""


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

    Every argument is checked before any input is generated or timed. One
    warmup call per pair is discarded; timings run sequentially to avoid
    cross-contamination. Input generation is deterministic in (seed, size);
    the timings themselves naturally are not.
    """
    if runs < 5:
        raise InvalidSize(f"at least 5 timing runs required, got {runs}")
    if not sizes or min(sizes) < 1 or len(set(sizes)) != len(sizes):
        raise InvalidSize(f"benchmark sizes must be one or more distinct integers >= 1, got {list(sizes)}")
    method_list = list(methods)
    if not method_list:
        raise UnknownMethod("no benchmark methods given")
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
