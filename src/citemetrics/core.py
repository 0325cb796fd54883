"""Citation profiles and the algebraic h-index algorithms.

An author's h-index is the largest h such that at least h of their papers
have h or more citations each. This module holds the validated profile
type plus three interchangeable ways of computing the index:

* sort-and-scan: sort ascending, walk until the papers remaining at the
  current position are all cited at least that many times;
* counting: bucket counts clamped at n (the index can never exceed the
  number of papers), then a linear suffix sweep;
* a deliberately naive definition scan, kept as the ground-truth oracle
  that the other methods (including the geometric one) are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence


class InputError(ValueError):
    """Input the package rejects, which the CLI reports with exit 1."""


class NonIntegerCitation(InputError):
    """A value that is not exactly an int (bool included); the message names its type, not its repr."""

    def __init__(self, index: int, value: object):
        self.index = index
        self.value = value
        super().__init__(f"citation count at position {index} is not an integer: {type(value).__name__}")


class NegativeCitation(InputError):
    """A citation count below zero is invalid input."""

    def __init__(self, index: int, value: int):
        self.index = index
        self.value = value
        super().__init__(f"citation count at position {index} is negative: {value}")


# Largest accepted count: it keeps the fitted line and the intersection
# float finite. Vertical distances are exact integers at any size.
MAX_CITATION = 2**53


class CitationTooLarge(InputError):
    """A citation count above MAX_CITATION is invalid input."""

    def __init__(self, index: int, value: int):
        self.index = index
        self.value = value
        # The value itself may run to thousands of digits; name the bound instead.
        super().__init__(f"citation count at position {index} exceeds the maximum 2**53")


class Method(Enum):
    """Which algorithm produced an h-index result."""

    SORT_SCAN = "sort_scan"
    COUNTING = "counting"
    ORACLE = "oracle"
    GEOMETRIC = "geometric"


class UnknownMethod(InputError):
    """A method name that no algorithm answers to."""


def check_methods(methods: Iterable[Method], what: str) -> tuple[Method, ...]:
    """The methods as a tuple if they are one or more distinct Method members, else UnknownMethod."""
    checked = tuple(methods)
    if not checked:
        raise UnknownMethod(f"no {what} given")
    for i, method in enumerate(checked):
        if not isinstance(method, Method) or method in checked[:i]:
            raise UnknownMethod(f"unknown or repeated method: {method}")
    return checked


@dataclass(frozen=True)
class CitationProfile:
    """Per-paper citation counts of one author, validated by normalize_profile.

    ``sorted_desc`` holds the counts, ints in [0, MAX_CITATION], arranged
    non-increasingly: the form every algorithm here works on.
    """

    sorted_desc: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.sorted_desc)


@dataclass(frozen=True)
class HIndexResult:
    """An h value and the method that computed it."""

    h: int
    method: Method


def normalize_profile(raw: Iterable[int]) -> CitationProfile:
    """Validate citation counts, the one place they are judged, and build a profile.

    Accepts any order; an empty input gives n = 0. Raises NonIntegerCitation (not exactly
    an int) or NegativeCitation at the first fault in input order; failing both, CitationTooLarge.
    """
    values = raw if type(raw) in (list, tuple) else tuple(raw)  # read up to three times
    if set(map(type, values)) <= {int}:
        sorted_desc = tuple(sorted(values, reverse=True))
        if not sorted_desc or (sorted_desc[-1] >= 0 and sorted_desc[0] <= MAX_CITATION):
            return CitationProfile(sorted_desc)
    for i, v in enumerate(values):
        if type(v) is not int:  # the fast path's test, so a rejected input always has a fault
            raise NonIntegerCitation(i, v)
        if v < 0:
            raise NegativeCitation(i, v)
    raise CitationTooLarge(*next((i, v) for i, v in enumerate(values) if v > MAX_CITATION))


def _h_scan_ascending(ascending: Sequence[int]) -> int:
    """Scan an ascending-sorted citation list for the h threshold.

    At 0-based position i there are n - i papers left, each cited at
    least ascending[i] times; the first position where that remainder is
    covered by the citation count yields h. Exhausting the scan means no
    paper clears its own rank, so h = 0.
    """
    n = len(ascending)
    for i, cited in enumerate(ascending):
        remaining = n - i
        if remaining <= cited:
            return remaining
    return 0


def _h_counting(values: Sequence[int]) -> int:
    """Linear-time h from unsorted counts via clamped bucket counting.

    Counts above n clamp into bucket n, safe because h never exceeds n.
    The suffix sweep finds the largest h with at least h papers cited
    h or more times, down to h = 1; when none qualifies, h = 0. No
    sorting anywhere, so worst-case work is O(n).
    """
    n = len(values)
    counts = [0] * (n + 1)
    for c in values:
        counts[c if c < n else n] += 1
    cumulative = 0
    for h in range(n, 0, -1):
        cumulative += counts[h]
        if cumulative >= h:
            return h
    return 0


def _h_definition_scan(sorted_desc: Sequence[int]) -> int:
    """Ground-truth oracle: test every rank against the definition.

    Deliberately exhaustive (no early exit, no cleverness) so it stays
    independent of the optimized paths it is used to check.
    """
    best = 0
    for rank, cited in enumerate(sorted_desc, start=1):
        if cited >= rank:
            best = rank
    return best


def h_index_sort_scan(profile: CitationProfile) -> HIndexResult:
    """h-index by the sort-and-scan recipe (O(n log n) with the sort)."""
    ascending = profile.sorted_desc[::-1]
    return HIndexResult(_h_scan_ascending(ascending), Method.SORT_SCAN)


def h_index_counting(profile: CitationProfile) -> HIndexResult:
    """h-index by clamped counting; linear time, needs no sorted view."""
    return HIndexResult(_h_counting(profile.sorted_desc), Method.COUNTING)


def h_index_oracle(profile: CitationProfile) -> HIndexResult:
    """h-index straight from the definition; the reference for tests."""
    return HIndexResult(_h_definition_scan(profile.sorted_desc), Method.ORACLE)
