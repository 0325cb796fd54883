"""Tests of the benchmark itself: its inputs, reference h and output checks.

    python3 -m pytest bench/tests -q
"""

import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import inputs  # noqa: E402
from checks import check_json_report, check_svg, check_text_report  # noqa: E402
from citemetrics import (  # noqa: E402
    build_report,
    classify_profile,
    emit_plot_svg,
    emit_report,
    estimate_h_via_trendline,
    geometric_h_index,
    normalize_profile,
    trendline_applicable,
)

FIXTURES = {
    "a1": ([10, 9, 8, 8, 7, 5, 4, 3, 2, 1, 1], 5),
    "a2": ([10, 9, 7, 3, 2, 1, 1], 3),
    "a3": ([4, 3, 2, 1], 2),
    "a4": ([400, 300, 200, 2], 3),
    "a5": ([700, 600, 8, 7, 7, 6], 6),
}
PIN_SEEDS = (1, 2, 3)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_reference_h_matches_fixtures(name):
    values, expected = FIXTURES[name]
    assert inputs.reference_h(values) == expected


def _package_view(values):
    """Case and gate as the package computes them, for cross-checking."""
    profile = normalize_profile(values)
    gate = profile.n >= 2 and trendline_applicable(profile, estimate_h_via_trendline(profile)[1])
    return classify_profile(profile).case.value, gate


def test_own_classifier_and_gate_agree_with_the_package():
    rng = random.Random(5)
    seen = set()
    for _ in range(3000):
        n = rng.randint(1, 12)
        top = rng.choice((1, 3, 10, 40))
        values = [rng.randint(0, top) for _ in range(n)]
        if rng.random() < 0.1:  # exact arithmetic progressions
            start, step = rng.randint(0, 30), rng.randint(0, 4)
            values = [max(0, start - step * i) for i in range(n)]
        mine = inputs.describe(values)
        assert (mine.case, mine.gate) == _package_view(values), values
        assert mine.h == geometric_h_index(normalize_profile(values))[0].h
        seen.add(mine.case)
    assert seen == set(inputs.CASES)


def test_large_profile_is_deterministic_per_seed():
    first = inputs.large_profile(7)
    assert inputs.large_profile(7) == first
    assert inputs.large_profile(8).values != first.values


@pytest.mark.parametrize("seed", PIN_SEEDS)
def test_large_profile_pins_case_gate_and_n(seed):
    profile = inputs.large_profile(seed)
    assert (profile.n, profile.case, profile.gate) == (inputs.LARGE_N, inputs.MIN_DISTANCE, True)
    assert _package_view(profile.values) == (inputs.MIN_DISTANCE, True)


def test_untouch_moves_a_touch_off_without_changing_h():
    values = [5, 3, 3, 3, 3, 0]  # touch at rank 3, two 3s inside the top 3
    assert inputs.describe(values).case == inputs.INTEGER
    inputs._untouch(values, 3)
    after = inputs.describe(values)
    assert (after.case, after.h) == (inputs.MIN_DISTANCE, 3)
    assert _package_view(values)[0] == inputs.MIN_DISTANCE


def test_touch_moves_a_straddle_onto_rank_h():
    values = [9, 7, 2, 1]  # straddle between ranks 2 and 3, h = 2
    assert inputs.describe(values).case == inputs.MIN_DISTANCE
    inputs._touch(values, 2)
    after = inputs.describe(values)
    assert (after.case, after.h) == (inputs.INTEGER, 2)


def test_author_batch_is_deterministic_per_seed():
    assert inputs.author_batch(4) == inputs.author_batch(4)


def test_author_batch_pins_sizes_cases_and_gate_across_seeds():
    classes = sorted(inputs.batch_classes())
    mixes = []
    for seed in PIN_SEEDS:
        batch = inputs.author_batch(seed)
        assert sorted((p.n, p.case, p.gate) for p in batch) == classes
        mixes.append(inputs.batch_mix(batch))
    assert mixes[0] == mixes[1] == mixes[2]
    assert all(count > 0 for count in mixes[0]["cases"].values())
    assert 0 < mixes[0]["gate_pass"] < mixes[0]["profiles"]


def _expected(values):
    return inputs.describe(list(values))


def test_json_check_accepts_the_real_report_and_rejects_tampering():
    values, _ = FIXTURES["a2"]
    expected = _expected(values)
    report = json.loads(emit_report(build_report(normalize_profile(values)), "json"))
    assert check_json_report(json.dumps(report).encode(), expected) is None
    tampered = [
        {**report, "h": report["h"] + 1},
        {**report, "methods": {**report["methods"], "counting": report["h"] - 1}},
        {**report, "methods": {k: v for k, v in report["methods"].items() if k != "oracle"}},
        {**report, "agreement": False},
        {**report, "case": inputs.INTEGER},
    ]
    for bad in tampered:
        assert check_json_report(json.dumps(bad).encode(), expected) is not None, bad
    assert check_json_report(b"{not json", expected) is not None


def test_text_check_accepts_the_real_report_and_rejects_tampering():
    values, h = FIXTURES["a1"]
    expected = _expected(values)
    text = emit_report(build_report(normalize_profile(values)), "text")
    assert check_text_report(text, expected) is None
    assert check_text_report(text.replace(f"h-index: {h}".encode(), f"h-index: {h + 1}".encode()), expected)
    assert check_text_report(text.replace(b"agreement: yes", b"agreement: NO"), expected)


def test_svg_check_accepts_the_real_plot_and_rejects_tampering():
    values, _ = FIXTURES["a1"]  # near-linear: the gate passes, the trendline is drawn
    expected = _expected(values)
    assert expected.gate
    profile = normalize_profile(values)
    _, trace = geometric_h_index(profile)
    svg = emit_plot_svg(profile, trace, estimate_h_via_trendline(profile)[1])
    assert check_svg(svg, expected) is None
    points_start = svg.index(b'points="') + len(b'points="')
    dropped_vertex = svg[:points_start] + svg[svg.index(b" ", points_start) + 1 :]
    assert check_svg(dropped_vertex, expected) is not None
    assert check_svg(emit_plot_svg(profile, trace, None), expected) is not None  # trendline missing
    assert check_svg(svg[:-20], expected) is not None  # truncated, not well-formed
