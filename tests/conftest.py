"""Shared fixture data: the five canonical use cases and helpers."""

import random
import tracemalloc

from citemetrics import CitationProfile, normalize_profile

A1 = [10, 9, 8, 8, 7, 5, 4, 3, 2, 1, 1]
A2 = [10, 9, 7, 3, 2, 1, 1]
A3 = [4, 3, 2, 1]
A4 = [400, 300, 200, 2]
A5 = [700, 600, 8, 7, 7, 6]

FIXTURES = {"a1": A1, "a2": A2, "a3": A3, "a4": A4, "a5": A5}
EXPECTED_H = {"a1": 5, "a2": 3, "a3": 2, "a4": 3, "a5": 6}

A1_CSV = b"10\n9\n8\n8\n7\n5\n4\n3\n2\n1\n1\n"


def profile(values) -> CitationProfile:
    return normalize_profile(values)


def random_profiles(seed: int, count: int, max_n: int = 200, max_citation: int = 10**6):
    """Deterministic stream of (values, profile) pairs for property sweeps."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(0, max_n)
        values = [rng.randint(0, max_citation) for _ in range(n)]
        yield values, normalize_profile(values)


def traced_memory(fn, *args):
    """(result, peak, retained): fn(*args) and the bytes it allocated, at
    their peak and still held after it returns, counted by tracemalloc."""
    running = tracemalloc.is_tracing()
    if not running:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        if not running:
            tracemalloc.stop()
    return result, peak - before, current - before
