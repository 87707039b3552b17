"""The calibration loop that defines the benchmark's time unit, the ``cal``.

One ``cal`` is the duration of one call of :func:`calibration_loop`.  The
loop is fixed: changing it re-bases every figure the benchmark has ever
reported.  It imports nothing from ``iseq``.  Like the program it calibrates
it is plain interpreted Python of three kinds, each tracking the host's
speed on one kind of work the program does: allocating small objects and
following references, formatting and matching short strings, and calling
methods on instances.  It runs with the garbage collector paused, so the
program's heap cannot change its speed.  Timing a workload against samples
of it taken every few tens of milliseconds in the same process cancels most
of the host's speed drift, which on a shared virtual machine moves raw
wall-clock figures by far more than the bounds the benchmark enforces.
"""

from __future__ import annotations

import gc
import re
import time

_OPTION = re.compile(r"--?([a-z]+)(=(.*))?")


class _Cell:
    __slots__ = ("value", "tag", "link")

    def __init__(self, value, tag, link):
        self.value = value
        self.tag = tag
        self.link = link


class _Counter:
    def __init__(self, base, step):
        self.base = base
        self.step = step

    def next(self, flag):
        return self.base + flag if flag else self.step


def calibration_loop() -> int:
    """Fixed work: cells and tuple hashes, string options, method calls."""
    acc = 0
    cells = []
    for i in range(1000):
        cell = _Cell(i, i & 3, None)
        cells.append(cell)
        old = cells[i >> 1]
        acc += old.value + (old.tag if old.link is None else 0)
        acc ^= hash((old.value, cell.tag)) & 255
    seen: dict = {}
    for i in range(500):
        text = f"--opt{i & 15}={i}"
        match = _OPTION.match(text.replace("opt", "o"))
        key = match.group(1)
        seen[key] = seen.get(key, 0) + len(text.split("=")[1])
        acc += len(" ".join((key, text)).upper())
    counters = []
    for i in range(700):
        counter = _Counter(base=i, step=i & 7)
        counters.append(counter)
        acc += counters[i >> 1].next(i & 1)
    return acc + len(seen)


def time_calibration() -> float:
    """Duration in seconds of one calibration loop, collector paused."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        calibration_loop()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
