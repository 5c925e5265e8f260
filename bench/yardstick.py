"""A fixed piece of work, timed next to every measured unit, that cancels the host's speed swings.

The benchmark runs on shared hosts whose speed drifts by up to 2x, both from
one second to the next and over minutes. Medians over a 30 s run do not
remove that: over ten runs of the same code, the medians' interquartile range
was 15-40 % of their median on a 2-vCPU VM.
The yardstick is read (timed) just before and just after every unit and every
set-up, and between the configurations of a sweep. Its time divided by its
time on a reference host is the host's slowdown at that moment. Each stretch
of a unit between two readings is divided by the mean slowdown of those two
readings; the sum is the unit's time in reference seconds, the time it would
take on the reference host. The readings' own time counts in neither. The
yardstick's code does not depend on railho, so a change to railho moves
reference seconds exactly as it moves seconds.

The host slows interpreter-bound and memory-bound code by different factors,
so the yardstick has two parts, timed apart: an interpreted loop over floats,
a dict and a sort, and a numpy pass and random gather over 2 MiB arrays,
whose working set is larger than a core's cache. Each workload weighs the two parts by how its
own time splits between interpreter and memory (``Workload.memory_share``).
"""

from __future__ import annotations

import bisect
import random
from time import perf_counter as clock

import numpy

# About the fastest each part runs on a 2-vCPU x86-64 VM (Python 3.11, numpy 2.4).
REFERENCE_INTERPRETED_S = 0.006
REFERENCE_MEMORY_S = 0.007

_VALUES = [random.Random(7).random() for _ in range(60_000)]
_rng = numpy.random.default_rng(7)
_ARRAY = _rng.random(1 << 18)
_GATHER = _rng.permutation(1 << 18)


def _interpreted() -> float:
    acc = 0.0
    table = {}
    for i, x in enumerate(_VALUES):
        if x > 0.5:
            acc += x * 1.5
        else:
            acc -= x
        table[i & 255] = acc
    return acc + sorted(_VALUES)[0] + table[0]


def _memory() -> float:
    squares = numpy.sqrt(_ARRAY * _ARRAY + 1.0)
    return float(numpy.cumsum(squares[_GATHER])[-1])


def measure() -> tuple[float, float]:
    """Seconds each part of the yardstick takes now: (interpreted, memory)."""
    t0 = clock()
    _interpreted()
    t1 = clock()
    _memory()
    return t1 - t0, clock() - t1


def slowdown(parts: tuple[float, float], memory_share: float) -> float:
    """The host's slowdown against the reference host, for code with this memory share."""
    interpreted_s, memory_s = parts
    return ((1.0 - memory_share) * interpreted_s / REFERENCE_INTERPRETED_S
            + memory_share * memory_s / REFERENCE_MEMORY_S)


class Log:
    """The yardstick readings of one run, in time order."""

    def __init__(self, memory_share: float) -> None:
        self.memory_share = memory_share
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.slowdowns: list[float] = []

    def read(self) -> None:
        start = clock()
        parts = measure()
        end = clock()
        self.starts.append(start)
        self.ends.append(end)
        self.slowdowns.append(slowdown(parts, self.memory_share))

    def seconds(self, t0: float, t1: float) -> tuple[float, float]:
        """(seconds, reference seconds) of [t0, t1] without the readings inside it.

        There must be a reading that ends by t0 and one that starts at or after t1.
        """
        first = bisect.bisect_right(self.ends, t0) - 1  # the reading just before t0
        last = bisect.bisect_left(self.starts, t1)  # the reading just after t1
        if first < 0 or last >= len(self.starts):
            raise ValueError("no yardstick reading before or after the interval")
        plain = reference = 0.0
        begin = t0
        for i in range(first, last):
            end = self.starts[i + 1] if i + 1 < last else t1
            plain += end - begin
            reference += (end - begin) / ((self.slowdowns[i] + self.slowdowns[i + 1]) / 2)
            begin = self.ends[i + 1]
        return plain, reference
