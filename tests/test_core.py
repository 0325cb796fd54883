"""Profile normalization and the three algebraic h-index methods."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citemetrics import (
    CitationProfile,
    CitationTooLarge,
    Method,
    NegativeCitation,
    NonIntegerCitation,
    geometric_h_index,
    h_index_counting,
    h_index_oracle,
    h_index_sort_scan,
    normalize_profile,
)
from citemetrics import core, geometry
from conftest import A1, EXPECTED_H, FIXTURES, profile, random_profiles, traced_memory
from test_geometry import _mixed_profiles, _Slices

citation_lists = st.lists(st.integers(min_value=0, max_value=10**6), max_size=200)


# ---------------------------------------------------------------------------
# normalize_profile


def test_normalize_sorts_descending_and_counts_papers():
    p = normalize_profile(A1)
    assert p.sorted_desc == (10, 9, 8, 8, 7, 5, 4, 3, 2, 1, 1)
    assert p.n == 11


def test_normalize_ascending_input_gives_same_sorted_view():
    ascending = sorted(A1)
    assert normalize_profile(ascending).sorted_desc == normalize_profile(A1).sorted_desc


def test_normalize_empty():
    p = normalize_profile([])
    assert p.sorted_desc == () and p.n == 0


def test_normalize_rejects_negative_with_position():
    with pytest.raises(NegativeCitation) as exc:
        normalize_profile([3, 1, -2, 5])
    assert exc.value.index == 2
    assert exc.value.value == -2


def test_normalize_rejects_counts_above_the_maximum_with_position():
    assert normalize_profile([2**53, 0]).sorted_desc == (2**53, 0)
    with pytest.raises(CitationTooLarge) as exc:
        normalize_profile([3, 2**53 + 1, 5, 10**400])
    assert exc.value.index == 1
    assert exc.value.value == 2**53 + 1
    assert "position 1" in str(exc.value)
    with pytest.raises(NegativeCitation):  # a negative count is reported first
        normalize_profile([10**400, -1])


def test_normalize_rejects_values_that_are_not_ints_with_position():
    # Used to build a profile that build_report and emit_plot_svg then tripped over.
    for raw, index, type_name in (
        ([2.5, 1.0, True], 0, "float"),
        ([1, True], 1, "bool"),
        ([1, None], 1, "NoneType"),
        ([1, "2"], 1, "str"),
        (["3", "1"], 0, "str"),  # used to escape as a bare TypeError from sorted()
    ):
        with pytest.raises(NonIntegerCitation) as exc:
            normalize_profile(raw)
        assert exc.value.index == index
        assert exc.value.value is raw[index]
        assert str(exc.value) == f"citation count at position {index} is not an integer: {type_name}"
    # A fault is reported at the first faulty element, whichever kind it is.
    with pytest.raises(NegativeCitation) as exc:
        normalize_profile([-1, 2.5])
    assert exc.value.index == 0


def test_normalize_reads_a_one_pass_iterable_once():
    with pytest.raises(NegativeCitation) as exc:
        normalize_profile(iter([3, -1]))
    assert (exc.value.index, exc.value.value) == (1, -1)
    assert normalize_profile(iter([1, 3, 2])).sorted_desc == (3, 2, 1)


def test_normalize_copies_a_list_only_into_its_sorted_profile():
    # a list or tuple is read in place: the sorted list and the profile's
    # tuple are the only n-sized containers (a copy of the input made 3x)
    rng = random.Random(7)
    values = [rng.randint(0, 200_000) for _ in range(100_000)]
    p, peak, retained = traced_memory(normalize_profile, values)
    assert p.sorted_desc == tuple(sorted(values, reverse=True))
    assert peak <= 2.5 * retained


@given(citation_lists)
def test_normalize_invariants(values):
    p = normalize_profile(values)
    assert sorted(values) == sorted(p.sorted_desc)
    assert all(p.sorted_desc[i] >= p.sorted_desc[i + 1] for i in range(p.n - 1))
    assert p.n == len(values) == len(p.sorted_desc)


# ---------------------------------------------------------------------------
# fixture values for each method


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_sort_scan_fixtures(name):
    result = h_index_sort_scan(profile(FIXTURES[name]))
    assert result.h == EXPECTED_H[name]
    assert result.method is Method.SORT_SCAN


def test_sort_scan_edge_cases():
    assert h_index_sort_scan(profile([])).h == 0
    assert h_index_sort_scan(profile([0, 0, 0])).h == 0


def test_counting_fixtures():
    assert h_index_counting(profile(A1)).h == 5
    # 700 and 600 clamp into bucket n=6 without changing the answer
    assert h_index_counting(profile([700, 600, 8, 7, 7, 6])).h == 6
    assert h_index_counting(profile([1])).h == 1


def test_oracle_fixtures():
    assert h_index_oracle(profile(A1)).h == 5
    # separates >= from strict >: strict would wrongly give 2 here
    assert h_index_oracle(profile([3, 3, 3])).h == 3
    assert h_index_oracle(profile([0])).h == 0


# ---------------------------------------------------------------------------
# invariants and properties


@given(citation_lists)
def test_methods_agree(values):
    p = normalize_profile(values)
    hs = {h_index_sort_scan(p).h, h_index_counting(p).h, h_index_oracle(p).h}
    assert len(hs) == 1


@given(citation_lists)
def test_upper_bound(values):
    p = normalize_profile(values)
    assert 0 <= h_index_oracle(p).h <= p.n


@given(citation_lists, st.randoms(use_true_random=False))
def test_order_invariance(values, rnd):
    shuffled = list(values)
    rnd.shuffle(shuffled)
    assert h_index_sort_scan(normalize_profile(shuffled)).h == h_index_sort_scan(normalize_profile(values)).h


@given(citation_lists, st.integers(min_value=0, max_value=10**6))
def test_appending_a_paper_never_decreases_h(values, extra):
    before = h_index_oracle(normalize_profile(values)).h
    after = h_index_oracle(normalize_profile(values + [extra])).h
    assert after >= before


@given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=200), st.data())
def test_incrementing_a_citation_never_decreases_h(values, data):
    index = data.draw(st.integers(min_value=0, max_value=len(values) - 1))
    bumped = list(values)
    bumped[index] += 1
    before = h_index_oracle(normalize_profile(values)).h
    after = h_index_oracle(normalize_profile(bumped)).h
    assert after >= before


@given(citation_lists)
def test_clamping_counts_at_n_preserves_h(values):
    n = len(values)
    clamped = [min(c, n) for c in values]
    assert h_index_oracle(normalize_profile(clamped)).h == h_index_oracle(normalize_profile(values)).h


@given(citation_lists)
def test_definition_soundness(values):
    p = normalize_profile(values)
    h = h_index_oracle(p).h
    assert all(p.sorted_desc[i] >= h for i in range(h))
    if h < p.n:
        assert p.sorted_desc[h] < h + 1


@settings(max_examples=30)
@given(citation_lists)
def test_every_method_within_bounds(values):
    p = normalize_profile(values)
    for result in (h_index_sort_scan(p), h_index_counting(p), h_index_oracle(p), geometric_h_index(p)[0]):
        assert 0 <= result.h <= p.n


def test_large_counts_are_handled():
    big = 2**31 - 1
    p = profile([big, big, big])
    assert h_index_sort_scan(p).h == 3
    assert h_index_counting(p).h == 3
    assert h_index_oracle(p).h == 3


def test_seeded_sweep_methods_agree():
    # denser pseudo-random coverage than hypothesis defaults: counts up to
    # 1e6 (h = n in almost every profile), then counts near n (h < n in most)
    wide = (p for _, p in random_profiles(seed=1729, count=2000))
    near_n = map(normalize_profile, _mixed_profiles(seed=1729, count=2000))
    for stream in (wide, near_n):
        for p in stream:
            ho = h_index_oracle(p).h
            assert h_index_sort_scan(p).h == ho
            assert h_index_counting(p).h == ho
            assert geometric_h_index(p)[0].h == ho


# ---------------------------------------------------------------------------
# block edges of counting and sort-scan


@pytest.mark.parametrize("size", [1, 2, 3, 7])
def test_counting_and_sort_scan_blocks_match_the_oracle_at_every_edge(monkeypatch, size):
    # Both read the counts in blocks of core._BLOCK, which geometry shares;
    # tiny blocks put an edge between most counts, and most profiles then
    # span several blocks, so the pre-touch runs too.
    monkeypatch.setattr(core, "_BLOCK", size)
    monkeypatch.setattr(geometry, "_BLOCK", size)
    for values in _mixed_profiles(seed=5309, count=10_000):
        p = normalize_profile(values)
        assert h_index_sort_scan(p).h == h_index_counting(p).h == h_index_oracle(p).h


def _blocked_h(method, sd):
    """(h, lengths of the slices of the counts taken) of one method."""
    counts = _Slices(sd)
    counts.taken = []
    h = method(CitationProfile(counts)).h
    return h, [len(range(*key.indices(len(sd)))) for key in counts.taken]


def test_counting_and_sort_scan_blocks_at_the_real_size():
    # Sort-scan's exit at ascending positions B-2, B-1, B and B+1, and at
    # h = n (position 0) and h = 0 (no exit: every block read). Counting
    # reads every block; sort-scan reads blocks from the tail up to the one
    # holding its exit, and neither takes a slice longer than a block.
    block = core._BLOCK
    for n in (block - 1, block, block + 1, 2 * block + 1):
        blocks = -(-n // block)
        for at in sorted({0, block - 2, block - 1, block, block + 1, n} & set(range(n + 1))):
            h = n - at
            # n counts of h, and h counts of h above n - h counts of h - 1
            shapes = [[h] * n] + ([[h] * h + [h - 1] * (n - h)] if h else [])
            for sd in shapes:
                assert h_index_oracle(CitationProfile(tuple(sd))).h == h
                h_scan, scan_slices = _blocked_h(h_index_sort_scan, sd)
                assert h_scan == h
                assert len(scan_slices) == (at // block + 1 if h else blocks)
                h_count, count_slices = _blocked_h(h_index_counting, sd)
                assert h_count == h
                assert len(count_slices) == blocks
                assert max(scan_slices + count_slices) <= block
