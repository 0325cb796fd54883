"""Mutants that the tier-1 tests must kill.

Each row names a module of the package, an exact snippet of its source, a
replacement, and tier-1 tests that must fail once the replacement is made.
The test copies src/ to a temporary directory, applies one row, and runs
the named tests in one pytest subprocess with PYTHONPATH set to the copy;
exactly those tests must fail. A snippet must occur exactly once, so the
table breaks loudly when the code it names moves. The no-op control row
runs every named test on an unchanged copy, and they must all pass. The
rows run one after another, never in parallel. Slow tier: pytest -m slow.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

CORE = "tests/test_core.py::"
GEOMETRY = "tests/test_geometry.py::"
CLI_IO = "tests/test_cli_io.py::"

# (module, snippet, replacement, tests that must fail)
CORE_REAL_SIZE = CORE + "test_counting_and_sort_scan_blocks_at_the_real_size"
PIPELINES = CLI_IO + "test_every_bench_pipeline_returns_the_oracle_h"
SMALL_PROFILES = GEOMETRY + "test_every_small_profile[n7-max9]"
MUTANTS = [
    # counting and sort-scan read the counts in blocks
    ("core", "enumerate(reversed(block), n - hi)", "enumerate(reversed(block), n - hi + 1)",
     [CORE_REAL_SIZE, CORE + "test_sort_scan_fixtures[a5]", PIPELINES]),
    ("core", "max(0, hi - _BLOCK)", "hi - _BLOCK",
     [CORE_REAL_SIZE, CORE + "test_counting_and_sort_scan_blocks_match_the_oracle_at_every_edge[7]", PIPELINES]),
    ("core", "values[lo : lo + _BLOCK]", "values[lo + 1 : lo + _BLOCK]",
     [CORE_REAL_SIZE, CORE + "test_counting_fixtures"]),
    ("core", "c if c < n else n]", "c if c < n else n - 1]",
     [CORE_REAL_SIZE, CORE + "test_counting_fixtures"]),
    ("core", "remaining <= cited", "remaining < cited",
     [CORE_REAL_SIZE, CORE + "test_sort_scan_fixtures[a5]"]),
    ("scaling", "_h_scan_tail(sorted(values, reverse=True))", "_h_scan_tail(sorted(values))",
     [PIPELINES]),
    # the trendline fit and gate read the counts in blocks
    ("geometry", "hi = min(lo + _BLOCK, n - 1)", "hi = min(lo + _BLOCK - 1, n - 1)",
     [GEOMETRY + "test_gate_blocks_at_the_real_size",
      GEOMETRY + "test_fit_and_gate_blocks_match_references_at_every_edge[7]"]),
    ("geometry", "if sd[lo] - sd[hi] > n:", "if sd[lo] - sd[hi] >= n:",
     [GEOMETRY + "test_gate_blocks_at_the_real_size"]),
    ("geometry", "(lo + len(block) + 1) * s", "(lo + len(block)) * s",
     [GEOMETRY + "test_fit_and_gate_match_references_at_the_real_block_size", GEOMETRY + "test_fit_frozen_a1_line"]),
    # the bisection and the trace of the case split; h is k, so the first
    # three change only the trace
    ("geometry", "if sd[k - 1] - k <= k + 1 - sd[k]:", "if sd[k - 1] - k < k + 1 - sd[k]:",
     [GEOMETRY + "test_min_distance_tie_goes_to_the_rank_above", SMALL_PROFILES]),
    ("geometry", "rise = 1 - (sd[k] - sd[k - 1])", "rise = 2 - (sd[k] - sd[k - 1])",
     [GEOMETRY + "test_classify_fractional_intersection", SMALL_PROFILES]),
    ("geometry", "pairwise(sorted_desc))", "pairwise(sorted_desc[:3]))",
     [GEOMETRY + "test_classify_curvilinear_profiles_report_distances", SMALL_PROFILES]),
    ("geometry", "key=lambda i: i + 1 - sd[i]", "key=lambda i: i - sd[i]",
     [GEOMETRY + "test_classify_entirely_above_and_below", GEOMETRY + "test_geometric_floors_the_exact_crossing",
      SMALL_PROFILES]),
    ("geometry", "WINDOW_RADIUS = 5", "WINDOW_RADIUS = 6",
     [CLI_IO + "test_distance_window_matches_the_full_table"]),
    # input validation and the text report's exact floor
    ("parse", 're.compile(r"-?[0-9]+")', 're.compile(r"[0-9]+")',
     [CLI_IO + "test_parse_csv_negative_count"]),
    ("parse", "len(cell) <= 40", "len(cell) < 40",
     [CLI_IO + "test_cli_long_cells_give_short_error_lines"]),
    ("core", "sorted_desc[0] <= MAX_CITATION", "sorted_desc[0] < MAX_CITATION",
     [CORE + "test_normalize_rejects_counts_above_the_maximum_with_position",
      CLI_IO + "test_cli_geometric_agrees_at_the_count_maximum"]),
    ("cli_io", "math.floor(x * 10**6)", "round(x * 10**6)",
     [CLI_IO + "test_text_report_intersection_is_the_exact_floor",
      CLI_IO + "test_text_report_trendline_intersection_is_the_exact_floor"]),
]

# Every test the table names passes on the copy with no change made.
CONTROL = ("core", "_BLOCK = 4096", "_BLOCK = 4096", sorted({test for *_, tests in MUTANTS for test in tests}))


def _run_on_copy(tmp_path, module, snippet, replacement, tests):
    """Apply one row to a copy of src/ and run its tests: (exit code, FAILED node ids, output)."""
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "citemetrics" / f"{module}.py"
    text = path.read_text()
    assert text.count(snippet) == 1, f"{module}.py holds {snippet!r} {text.count(snippet)} times"
    path.write_text(text.replace(snippet, replacement))
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests]
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    failed = set(re.findall(r"^FAILED (\S+)", done.stdout, re.M))
    return done.returncode, failed, done.stdout + done.stderr


def _row_id(row):
    module, snippet, replacement, _ = row
    return f"{module}: {snippet} -> {replacement}"


@pytest.mark.slow
@pytest.mark.parametrize("row", MUTANTS, ids=_row_id)
def test_mutant_fails_its_tests(tmp_path, row):
    code, failed, output = _run_on_copy(tmp_path, *row)
    # exit code 1: tests ran and some failed (2 would be an error in collection)
    assert code == 1, output
    assert failed == set(row[3]), output


@pytest.mark.slow
def test_unmutated_copy_passes_the_same_tests(tmp_path):
    code, failed, output = _run_on_copy(tmp_path, *CONTROL)
    assert (code, failed) == (0, set()), output
