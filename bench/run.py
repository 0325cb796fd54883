"""citemetrics benchmark: one workload per run, end to end or traced.

    python3 bench/run.py --workload compute_large --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's src/. One process, one client, closed loop: each operation
starts when the previous one ends, and nothing runs in parallel.

Inputs are generated and written by a short-lived child process, so this
process stays small: a child started with vfork takes this process's peak
RSS into its own ru_maxrss at exec, and peak_rss_mib must be the working
child's alone.

--trace 0 measures end to end (setup_s, latency_p50_s, ops_per_s,
peak_rss_mib, output_bytes; latency_p99_s only on a comment line).
--trace 1 runs the same pipeline in this process with a span around every
stage and reports per-layer metrics (see tracing.py). Either way every
output is checked, and the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import inputs
import tracing
from checks import CHECKS, check_text_report

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Input generation, pin checks and input writes run this many times per
# benchmark run and setup_s takes their median; the warm-up runs once.
SETUP_REPEATS = 3


@dataclass(frozen=True)
class CliWorkload:
    command: str  # compute or plot
    input_fmt: str  # csv or json
    output_fmt: str  # json or svg

    def argv(self, input_path: Path, output_path: Path) -> list[str]:
        args = [sys.executable, "-m", "citemetrics", self.command, "--input", str(input_path)]
        args += ["--format", self.input_fmt]
        if self.command == "compute":
            return args + ["--method", "all", "--output", "json"]
        return args + ["--trendline", "auto", "--output", str(output_path)]


CLI_WORKLOADS = {
    "compute_large": CliWorkload("compute", "csv", "json"),
    "plot_large": CliWorkload("plot", "json", "svg"),
}
WORKLOADS = (*CLI_WORKLOADS, "author_batch")


def nearest_rank(samples: list[float], q: float) -> float:
    """The q-quantile by nearest rank; the maximum below 1/(1-q) samples."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_cli(spec: CliWorkload, input_path: Path, output_path: Path, env: dict) -> tuple[float, float, int]:
    """One CLI process: (wall seconds, peak RSS in MiB, exit code)."""
    stdout = output_path if spec.command == "compute" else os.devnull
    with open(stdout, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(spec.argv(input_path, output_path), stdout=out, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return elapsed, usage.ru_maxrss / 1024, code


def set_up(name: str, seed: int, work: Path, env: dict) -> tuple[float, dict]:
    """Generate and write the inputs SETUP_REPEATS times, each in a fresh
    child; return the median wall time and the written description."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-child", str(work)]
    argv += ["--workload", name, "--seed", str(seed)]
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True)
        setups.append(time.perf_counter() - start)
    return statistics.median(setups), json.loads((work / "expected.json").read_text())


def setup_child(name: str, seed: int, work: Path) -> int:
    """Write a workload's input and expected.json, what its outputs must show."""
    if name == "author_batch":
        profiles = inputs.author_batch(seed)
        with open(work / "batch.txt", "wb") as out:
            for p in profiles:
                out.write(json.dumps(dataclasses.asdict(p.expected)).encode() + b"\n")
                out.write(inputs.encode(p.values, "json") + b"\n")
        expected = inputs.batch_mix(profiles)
    else:
        spec = CLI_WORKLOADS[name]
        profile = inputs.large_profile(seed)
        (work / f"input.{spec.input_fmt}").write_bytes(inputs.encode(profile.values, spec.input_fmt))
        expected = dataclasses.asdict(profile.expected)
    (work / "expected.json").write_text(json.dumps(expected))
    return 0


def cli_end_to_end(name: str, seed: int, seconds: float, work: Path, env: dict):
    spec = CLI_WORKLOADS[name]
    input_path = work / f"input.{spec.input_fmt}"
    setup, written = set_up(name, seed, work, env)
    expected = inputs.Expected(**written)
    warmup, _, _ = run_cli(spec, input_path, work / "warmup.out", env)

    # Outputs go to one file per operation and are checked after the loop,
    # so the checks do not count against the run's wall time.
    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        output_path = work / f"out-{len(runs)}"
        runs.append((output_path, *run_cli(spec, input_path, output_path, env)))
    wall = time.perf_counter() - start

    failed, sizes = 0, []
    for output_path, _, _, code in runs:
        output = output_path.read_bytes() if output_path.exists() else b""
        output_path.unlink(missing_ok=True)
        sizes.append(len(output))
        problem = f"exit code {code}" if code else CHECKS[spec.output_fmt](output, expected)
        if problem is not None:
            failed += 1
            print(f"failed op: {problem}", file=sys.stderr)
    latencies = [r[1] for r in runs]
    print(f"# input: n={expected.n} h={expected.h} case={expected.case} gate_pass={expected.gate}")
    return {
        "setup_s": setup + warmup,
        "latencies": latencies,
        "ops": len(runs),
        "failed": failed,
        "wall": wall,
        "peak_rss_mib": statistics.median(r[2] for r in runs),
        "output_bytes": statistics.fmean(sizes),
    }


def read_batch(path: Path) -> list[tuple[inputs.Expected, bytes]]:
    """(expected, JSON input) pairs, two lines each, as setup_child wrote them."""
    lines = path.read_bytes().splitlines()
    return [(inputs.Expected(**json.loads(meta)), data) for meta, data in zip(lines[::2], lines[1::2])]


def batch_end_to_end(seed: int, seconds: float, work: Path, env: dict):
    """Set up in children, then run one pass over the batch per child
    process until the passes add up to the run's seconds.

    One child's speed differs from the next one's more than it drifts
    within a child (memory layout, where the host places the process), so
    a run samples many processes, as the CLI workloads do with one process
    per operation. Each child's peak RSS is the batch's alone.
    """
    batch_path = work / "batch.txt"
    setup, mix = set_up("author_batch", seed, work, env)
    print(f"# input: {json.dumps(mix)}")

    argv = [sys.executable, str(Path(__file__).resolve()), "--batch-child", str(batch_path)]
    passes = []
    while not passes or sum(p["wall"] for p in passes) < seconds:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT)
        with proc.stdout:
            lines = proc.stdout.read().decode().splitlines()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"batch child exited with {proc.returncode}")
        passes.append(dict(json.loads(lines[-1]), peak_rss_mib=usage.ru_maxrss / 1024))
    return {
        "setup_s": setup + statistics.median(p["setup_s"] for p in passes),
        "latencies": [t for p in passes for t in p["latencies"]],
        "ops": sum(p["ops"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "wall": sum(p["wall"] for p in passes),
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
        "output_bytes": statistics.fmean(p["output_bytes"] for p in passes),
    }


def batch_child(batch_path: Path) -> int:
    """One timed pass over the batch, in a process of its own."""
    start = time.perf_counter()
    cli = import_cli()
    batch = read_batch(batch_path)
    for _, data in batch[: len(batch) // 10]:  # warm-up: a tenth of a pass
        tracing.batch_op(cli, tracing.NULL, data)
    setup = time.perf_counter() - start

    latencies, sizes, failed = [], [], 0
    start = time.perf_counter()
    for expected, data in batch:
        began = time.perf_counter()
        try:
            output = tracing.batch_op(cli, tracing.NULL, data)
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc()
            output = b""
        latencies.append(time.perf_counter() - began)
        sizes.append(len(output))
        problem = check_text_report(output, expected)
        if problem is not None:
            failed += 1
            print(f"failed op: {problem}", file=sys.stderr)
    wall = time.perf_counter() - start
    summary = {
        "setup_s": setup,
        "latencies": latencies,
        "ops": len(latencies),
        "failed": failed,
        "wall": wall,
        "output_bytes": statistics.fmean(sizes),
    }
    print(json.dumps(summary))
    return 0


def end_to_end(name: str, seed: int, seconds: float, work: Path, env: dict):
    if name == "author_batch":
        run = batch_end_to_end(seed, seconds, work, env)
    else:
        run = cli_end_to_end(name, seed, seconds, work, env)
    latencies = run["latencies"]
    completed = run["ops"] - run["failed"]
    print(f"# samples: {len(latencies)} operations in {run['wall']:.3f} s")
    print(f"# failed_ops_ratio: {run['failed'] / run['ops']} ratio")
    # Not a regression metric: between runs of the same code it spreads past
    # any allowed bound on a shared host (see README.md).
    print(f"# latency_p99_s: {nearest_rank(latencies, 0.99):.6g} s over {len(latencies)} samples")
    metrics = {
        "setup_s": (run["setup_s"], "s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "ops_per_s": (completed / run["wall"], "1/s"),
        "peak_rss_mib": (run["peak_rss_mib"], "MiB"),
        "output_bytes": (run["output_bytes"], "bytes"),
    }
    return metrics, run["ops"], run["failed"]


def traced(name: str, seed: int, seconds: float, work: Path, env: dict):
    startup_s = tracing.startup_seconds(env)
    cli = import_cli()
    if name == "author_batch":
        profiles = inputs.author_batch(seed)
        print(f"# input: {json.dumps(inputs.batch_mix(profiles))}")
        batch = [(inputs.encode(p.values, "json"), p.expected) for p in profiles]
        work_pass = tracing.Pass(
            op=lambda tracer, data: tracing.batch_op(cli, tracer, data),
            items=batch,
            fmt="text",
            input_bytes=statistics.fmean(len(data) for data, _ in batch),
        )
    else:
        spec = CLI_WORKLOADS[name]
        profile = inputs.large_profile(seed)
        input_path = work / f"input.{spec.input_fmt}"
        input_path.write_bytes(inputs.encode(profile.values, spec.input_fmt))
        op = tracing.compute_op if spec.command == "compute" else tracing.plot_op
        output_path = work / "out"
        work_pass = tracing.Pass(
            op=lambda tracer, path: op(cli, tracer, path, output_path),
            items=[(input_path, profile.expected)],
            fmt=spec.output_fmt,
            input_bytes=input_path.stat().st_size,
        )
    return tracing.per_layer(cli, work_pass, seconds, startup_s)


def import_cli():
    """citemetrics.cli_io from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    from citemetrics import cli_io

    if not Path(cli_io.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"citemetrics imported from {cli_io.__file__}, not from {SRC}")
    return cli_io


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--batch-child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "citemetrics" / "__init__.py").is_file():
        print(f"error: no citemetrics package under {SRC}", file=sys.stderr)
        return 2
    if args.setup_child is not None:
        return setup_child(args.workload, args.seed, args.setup_child)
    if args.batch_child is not None:
        return batch_child(args.batch_child)
    if args.workload is None:
        parser.error("--workload is required")

    env = dict(os.environ, PYTHONPATH=str(SRC))
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            metrics, attempted, failed = traced(args.workload, args.seed, args.seconds, work, env)
        else:
            metrics, attempted, failed = end_to_end(args.workload, args.seed, args.seconds, work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
