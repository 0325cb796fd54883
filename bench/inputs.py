"""Benchmark inputs: generators, their pinned properties, the reference h.

Every input is built here from the benchmark seed. Nothing comes from
``citemetrics.generate_citations``: on its profile the geometric case flips
with the seed (integer touch on some seeds, minimum distance on others), so
a benchmark built on it would swing with the seed, not with the code.

The properties the package's behaviour depends on (n, geometric case,
whether the trendline gate passes) are computed here with code of the
benchmark's own, never with the package's, and checked at generation time.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import random
from dataclasses import dataclass

LARGE_N = 300_000
BATCH_PROFILES = 3_000
BATCH_MAX_N = 3_000

# Geometric case names, spelled as the package's reports spell them.
INTEGER = "integer_intersection"
FRACTIONAL = "fractional_intersection"
MIN_DISTANCE = "no_crossing_min_distance"
ABOVE = "entirely_above"
BELOW = "entirely_below"
CASES = (INTEGER, MIN_DISTANCE, ABOVE, FRACTIONAL, BELOW)

# The package's applicability gate: r^2 >= 0.95, written as a ratio of
# integers so that the comparison below is exact.
_GATE_NUM, _GATE_DEN = 19, 20

# A batch slot whose class no draw reaches within this many tries is a
# generator defect, not bad luck: on seeds 1-4 the hardest slot took 2287.
_MAX_DRAWS = 20_000


class PinError(RuntimeError):
    """A generated input lacks a property its workload pins."""


@dataclass(frozen=True)
class Expected:
    """What the outputs for one input must show: its pinned properties and h."""

    n: int
    h: int
    case: str
    gate: bool


@dataclass(frozen=True)
class Profile:
    """One input profile with the properties the benchmark pins and checks."""

    values: list[int]  # in file order, not sorted
    h: int
    case: str
    gate: bool

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def expected(self) -> Expected:
        return Expected(self.n, self.h, self.case, self.gate)


def classify(ranked: list[int], h: int) -> str:
    """Geometric case of a non-increasing profile (n >= 1) with index h.

    The gap ranked[r-1] - r strictly decreases with r, so its sign pattern
    decides the case: a zero gap is a touch, one sign throughout means the
    polyline is entirely above or below, and otherwise it crosses once,
    exactly straight (fractional crossing) or curved (minimum distance).
    """
    n = len(ranked)
    if h and ranked[h - 1] == h:
        return INTEGER
    if h == n:
        return ABOVE
    if h == 0:
        return BELOW
    if len(set(map(operator.sub, ranked, ranked[1:]))) == 1:
        return FRACTIONAL
    return MIN_DISTANCE


def gate_passes(ranked: list[int]) -> bool:
    """Least-squares r^2 >= 0.95 on (rank, citations) and no drop larger than n.

    r^2 = Sxy^2 / (Sxx * Syy), with the sums kept as exact integers; a
    profile with no spread in citations fits exactly (r^2 = 1).
    """
    n = len(ranked)
    if n < 2:
        return False
    if max(map(operator.sub, ranked, ranked[1:])) > n:
        return False
    sum_x = n * (n + 1) // 2
    sum_xx = n * (n + 1) * (2 * n + 1) // 6
    sum_y = sum(ranked)
    sum_yy = sum(map(operator.mul, ranked, ranked))
    sum_xy = sum(map(operator.mul, range(1, n + 1), ranked))
    sxx = n * sum_xx - sum_x * sum_x
    syy = n * sum_yy - sum_y * sum_y
    sxy = n * sum_xy - sum_x * sum_y
    if syy == 0:
        return True
    return _GATE_DEN * sxy * sxy >= _GATE_NUM * sxx * syy


def _h_of_ranked(ranked: list[int]) -> int:
    return sum(1 for rank, cited in enumerate(ranked, start=1) if cited >= rank)


def reference_h(values) -> int:
    """h from the definition: the number of ranks r whose paper has >= r citations."""
    return _h_of_ranked(sorted(values, reverse=True))


def describe(values: list[int]) -> Profile:
    ranked = sorted(values, reverse=True)
    h = _h_of_ranked(ranked)
    return Profile(values=values, h=h, case=classify(ranked, h), gate=gate_passes(ranked))


def require(profile: Profile, *, n: int, case: str, gate: bool) -> Profile:
    """Return the profile, or raise PinError if a pinned property is off."""
    got = (profile.n, profile.case, profile.gate)
    if got != (n, case, gate):
        raise PinError(f"pinned (n, case, gate) = {(n, case, gate)}, generated {got}")
    return profile


def _untouch(values: list[int], h: int) -> None:
    """Turn an integer touch at rank h into a minimum-distance straddle.

    Raises to h + 1 every paper of exactly h citations that sits within the
    top h, so that ranks 1..h all hold more than h citations and ranks after
    h hold at most h. h itself does not change.
    """
    inside = h - sum(1 for v in values if v > h)
    for i, v in enumerate(values):
        if inside == 0:
            break
        if v == h:
            values[i] = h + 1
            inside -= 1


def _touch(values: list[int], h: int) -> None:
    """Turn a straddle without touch into a touch at rank h.

    Lowers to h one paper holding the smallest count of the top h (which
    is above h); h does not change.
    """
    lowest_top = sorted(values, reverse=True)[h - 1]
    values[values.index(lowest_top)] = h


def large_profile(seed: int) -> Profile:
    """n = LARGE_N counts uniform in [0, 2n], pinned to the minimum-distance case.

    The crossing with y = x sits near rank 2n/3; whether a rank lands on it
    exactly is a coin flip per seed, so a touch is moved off by one
    citation. Both large workloads use this profile; its near-linear shape
    passes the trendline gate (r^2 about 0.99999).
    """
    n = LARGE_N
    rng = random.Random(f"large:{seed}")
    values = rng.choices(range(2 * n + 1), k=n)
    drawn = describe(values)
    if drawn.case == INTEGER:
        _untouch(values, drawn.h)
    return require(describe(values), n=n, case=MIN_DISTANCE, gate=True)


def batch_sizes() -> list[int]:
    """BATCH_PROFILES sizes log-uniform in [1, BATCH_MAX_N], at fixed quantiles.

    Each size is the integer part of a log-uniform real. The same sizes
    come out for every seed, so the work per pass is pinned; the seed
    decides their order and the counts.
    """
    top = math.log(BATCH_MAX_N)
    count = BATCH_PROFILES
    return [max(1, int(math.exp(top * (i + 0.5) / count))) for i in range(count)]


# Log-normal counts: log(count) ~ N(mu, _COUNT_SIGMA) around a per-author
# mu ~ N(_AUTHOR_MU, _AUTHOR_SIGMA). No published source fixes these; they
# were picked by a grid search so that batch_classes() comes close to the
# mix of the draw this workload was specified from (1381 integer touch, 1224
# minimum distance, 308 above, 49 fractional, 38 below, gate passing about
# 2%). They give 1309 / 1271 / 327 / 52 / 41 with 73 gate passes (2.4%).
_AUTHOR_MU, _AUTHOR_SIGMA, _COUNT_SIGMA = 1.8, 0.8, 1.3


def _natural_counts(rng: random.Random, n: int) -> list[int]:
    mu = rng.gauss(_AUTHOR_MU, _AUTHOR_SIGMA)
    return [int(math.exp(rng.gauss(mu, _COUNT_SIGMA))) for _ in range(n)]


@functools.cache
def batch_classes() -> tuple[tuple[int, str, bool], ...]:
    """The (n, case, gate) of each batch slot, the same for every seed.

    Drawn from the natural distribution with a fixed generator, so the
    case mix and the gate-pass count are those of a natural population but
    do not depend on the benchmark seed. A constant of the benchmark,
    computed once per process.
    """
    rng = random.Random("author_batch:classes")
    classes = []
    for n in batch_sizes():
        drawn = describe(_natural_counts(rng, n))
        classes.append((n, drawn.case, drawn.gate))
    return tuple(classes)


def _draw(rng: random.Random, n: int, case: str, gate: bool) -> Profile:
    for _ in range(_MAX_DRAWS):
        values = _natural_counts(rng, n)
        profile = describe(values)
        # A touch and a minimum-distance straddle differ by one citation
        # at rank h; steer instead of redrawing.
        if case == MIN_DISTANCE and profile.case == INTEGER:
            _untouch(values, profile.h)
            profile = describe(values)
        elif case == INTEGER and profile.case == MIN_DISTANCE:
            _touch(values, profile.h)
            profile = describe(values)
        if (profile.case, profile.gate) == (case, gate):
            return profile
    raise PinError(f"no draw of n={n} reached case {case} with gate {gate}")


def author_batch(seed: int) -> list[Profile]:
    """About 3,000 small heavy-tailed author profiles.

    Sizes, per-slot geometric case and per-slot gate result are pinned
    (see batch_classes); the seed shuffles the slots and draws the counts.
    """
    rng = random.Random(f"author_batch:{seed}")
    classes = list(batch_classes())
    rng.shuffle(classes)
    return [_draw(rng, n, case, gate) for n, case, gate in classes]


def batch_mix(profiles: list[Profile]) -> dict:
    """Case counts and gate-pass count of a batch, for the benchmark's output."""
    mix = {case: 0 for case in CASES}
    for p in profiles:
        mix[p.case] += 1
    return {"cases": mix, "gate_pass": sum(p.gate for p in profiles), "profiles": len(profiles)}


def encode(values: list[int], fmt: str) -> bytes:
    """Counts as a headerless CSV or a flat JSON array."""
    if fmt == "csv":
        return ("\n".join(map(str, values)) + "\n").encode("ascii")
    if fmt == "json":
        return json.dumps(values).encode("ascii")
    raise ValueError(f"unknown input format {fmt!r}")
