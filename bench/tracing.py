"""The pipeline as the CLI runs it, spans around its stages, per-layer metrics.

The operations below call the package's public functions in the same order
as ``cli_io._cmd_compute``, ``cli_io._cmd_plot`` and a library caller, each
stage inside a span. Inside build_report and the plot path, the methods,
the trendline fit and the gate become child spans by wrapping the names
``cli_io`` looks up, in this process only and only while traced.

Stage names follow the modules and the ROADMAP pipeline:
cli_io: read, parse, report.build, emit (and process start-up);
core: normalize, method.sort_scan, method.counting, method.oracle;
geometry: method.geometric, trendline.fit, trendline.gate.
"""

from __future__ import annotations

import contextlib
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from checks import CHECKS, shows_distances, shows_fit
from inputs import Expected

STAGES = (
    "read",
    "parse",
    "normalize",
    "report.build",
    "method.sort_scan",
    "method.counting",
    "method.oracle",
    "method.geometric",
    "trendline.fit",
    "trendline.gate",
    "emit",
)

# Names cli_io looks up when it runs, and the stage each one is.
WRAPPED = {
    "h_index_sort_scan": "method.sort_scan",
    "h_index_counting": "method.counting",
    "h_index_oracle": "method.oracle",
    "geometric_h_index": "method.geometric",
    "estimate_h_via_trendline": "trendline.fit",
    "trendline_applicable": "trendline.gate",
}

_MIB = 1024 * 1024


class NullTracer:
    """Records nothing; the untraced runs use it."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


NULL = NullTracer()


class Tracer:
    """Spans kept in memory as [name, start, end, parent index].

    With memory=True (tracemalloc must be running) it keeps instead, per
    stage, the largest tracemalloc peak above the memory in use when the
    stage began, children included. It then records no spans, so that its
    own bookkeeping allocates nothing inside a stage.
    """

    def __init__(self, memory: bool = False):
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.peaks: dict[str, int] = {}
        self._memory = memory
        self._open: list[list] = []  # [span index, memory at start, highest peak seen]

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        frame = [len(self.spans), 0, 0]
        if self._memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent[2] = max(parent[2], peak)
            tracemalloc.reset_peak()
            frame[1] = frame[2] = current
        else:
            record = [name, time.perf_counter(), None, parent[0] if parent else None]
            self.spans.append(record)
        self.calls[name] += 1
        self._open.append(frame)
        try:
            yield
        finally:
            self._open.pop()
            if self._memory:
                top = max(frame[2], tracemalloc.get_traced_memory()[1])
                self.peaks[name] = max(self.peaks.get(name, 0), top - frame[1])
                if parent is not None:
                    parent[2] = max(parent[2], top)
            else:
                record[2] = time.perf_counter()

    def self_seconds(self) -> Counter:
        """Per stage: span time not covered by child spans, summed."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        own: Counter = Counter()
        for (name, start, end, _), child in zip(self.spans, covered):
            own[name] += end - start - child
        return own


@dataclass
class Tally:
    """Distance tables the geometric method built, seen from its return value."""

    tables_built: int = 0


@contextlib.contextmanager
def instrumented(cli, tracer: Tracer, tally: Tally):
    """Wrap the WRAPPED names of the cli_io module in spans while inside."""
    originals = {name: getattr(cli, name) for name in WRAPPED}

    def traced(fn, stage):
        def call(*args, **kwargs):
            with tracer.span(stage):
                result = fn(*args, **kwargs)
            if stage == "method.geometric" and result[1] is not None and result[1].distances is not None:
                tally.tables_built += 1
            return result

        return call

    try:
        for name, stage in WRAPPED.items():
            setattr(cli, name, traced(originals[name], stage))
        yield
    finally:
        for name, fn in originals.items():
            setattr(cli, name, fn)


def compute_op(cli, tracer, input_path: Path, output_path: Path) -> bytes:
    """`citemetrics compute --format csv --method all --output json`."""
    with tracer.span("read"):
        data = input_path.read_bytes()
    with tracer.span("parse"):
        values = cli.parse_citations(data, "csv")
    with tracer.span("normalize"):
        profile = cli.normalize_profile(values)
    with tracer.span("report.build"):
        report = cli.build_report(profile)
    with tracer.span("emit"):
        output = cli.emit_report(report, "json")
        output_path.write_bytes(output)
    return output


def plot_op(cli, tracer, input_path: Path, output_path: Path) -> bytes:
    """`citemetrics plot --format json --trendline auto`."""
    with tracer.span("read"):
        data = input_path.read_bytes()
    with tracer.span("parse"):
        values = cli.parse_citations(data, "json")
    with tracer.span("normalize"):
        profile = cli.normalize_profile(values)
    _, trace = cli.geometric_h_index(profile)
    fit = None
    if profile.n >= 2:
        _, candidate = cli.estimate_h_via_trendline(profile)
        if cli.trendline_applicable(profile, candidate):
            fit = candidate
    with tracer.span("emit"):
        output = cli.emit_plot_svg(profile, trace, fit)
        output_path.write_bytes(output)
    return output


def batch_op(cli, tracer, data: bytes) -> bytes:
    """One author profile through the library: JSON bytes in, text report out."""
    with tracer.span("parse"):
        values = cli.parse_citations(data, "json")
    with tracer.span("normalize"):
        profile = cli.normalize_profile(values)
    with tracer.span("report.build"):
        report = cli.build_report(profile)
    with tracer.span("emit"):
        output = cli.emit_report(report, "text")
    return output


def startup_seconds(env: dict, pairs: int = 7) -> float:
    """Median fresh `import citemetrics` minus median bare interpreter start."""
    bare, loaded = [], []
    for _ in range(pairs):
        for code, samples in (("pass", bare), ("import citemetrics", loaded)):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            samples.append(time.perf_counter() - start)
    return statistics.median(loaded) - statistics.median(bare)


@dataclass
class Pass:
    """The traced unit of work: `op(tracer, input)` once per item, where an
    item is (input, what its output must show)."""

    op: Callable[[object, object], bytes]
    items: list[tuple[object, Expected]]
    fmt: str
    input_bytes: float

    @property
    def ops(self) -> int:
        return len(self.items)

    def run(self, tracer, items=None) -> list[bytes]:
        return [self.op(tracer, given) for given, _ in (items or self.items)]


def per_layer(cli, work: Pass, seconds: float, startup_s: float):
    """After one warm-up pass, alternate untraced and traced passes for
    `seconds` (at least two of each), then run the largest 1% of the items
    (at least one) under tracemalloc: the per-operation memory peaks grow
    with n, so the largest profiles hold them.

    Returns (metrics, attempted, failed); metrics maps name -> (value, unit).
    Times are per operation, medians over passes.
    """
    check = CHECKS[work.fmt]
    expected = [want for _, want in work.items]
    untraced, traced, own = [], [], []
    tally, fits_built, fits_shown, tables_shown = Tally(), 0, 0, 0
    attempted = failed = 0
    work.run(NULL)
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < seconds:
        began = time.perf_counter()
        outputs = work.run(NULL)
        untraced.append((time.perf_counter() - began) / work.ops)
        tracer = Tracer()
        with instrumented(cli, tracer, tally):
            began = time.perf_counter()
            traced_outputs = work.run(tracer)
            traced.append((time.perf_counter() - began) / work.ops)
        for output, want in zip(outputs + traced_outputs, expected * 2):
            attempted += 1
            problem = check(output, want)
            if problem is not None:
                failed += 1
                print(f"failed op: {problem}", file=sys.stderr)
        fits_built += tracer.calls["trendline.fit"]
        fits_shown += sum(shows_fit(work.fmt, out) for out in traced_outputs)
        tables_shown += sum(shows_distances(work.fmt, out) for out in traced_outputs)
        own.append(tracer.self_seconds())

    largest = sorted(work.items, key=lambda item: item[1].n, reverse=True)[: max(1, work.ops // 100)]
    memory = Tracer(memory=True)
    tracemalloc.start()
    try:
        with instrumented(cli, memory, Tally()):
            work.run(memory, largest)
    finally:
        tracemalloc.stop()

    def ratio(used, built):
        # Nothing built means nothing wasted.
        return used / built if built else 1.0

    metrics = {"startup.s": (startup_s, "s")}
    for stage in STAGES:
        name = "report.build.self_s" if stage == "report.build" else f"{stage}.s"
        metrics[name] = (statistics.median(by_stage[stage] for by_stage in own) / work.ops, "s")
    metrics["parse.bytes"] = (work.input_bytes, "bytes")
    metrics["emit.bytes"] = (sum(map(len, traced_outputs)) / work.ops, "bytes")
    for stage in ("normalize", "report.build", "emit"):
        metrics[f"{stage}.peak_mib"] = (memory.peaks.get(stage, 0) / _MIB, "MiB")
    metrics["trendline.fits_used_ratio"] = (ratio(fits_shown, fits_built), "ratio")
    metrics["geometric.distances_used_ratio"] = (ratio(tables_shown, tally.tables_built), "ratio")
    for stage in STAGES:
        metrics[f"calls.{stage}"] = (tracer.calls[stage] / work.ops, "count/op")
    metrics["trace.untraced_op_s"] = (statistics.median(untraced), "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    return metrics, attempted, failed
