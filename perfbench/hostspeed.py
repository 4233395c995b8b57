"""How fast the host runs interpreted code while a pass runs.

The benchmark runs on a shared host whose speed for pure-Python code swings
by tens of percent from one second to the next and drifts over minutes; the
program and any other Python code slow down together.  A :class:`Sampler`
thread times a fixed reference slice of interpreted work every
:data:`INTERVAL_S` for as long as a pass runs, in CPU time of its own
thread (so waiting for the interpreter lock does not count).  ``run.py``
scales the pass's host times by :data:`REFERENCE_SLICE_S` over the mean
slice time, i.e. to the speed at which a slice takes ``REFERENCE_SLICE_S``.

The slice lives in the benchmark, not in the program, so no change to the
program can move it.  It mixes what the program spends its time on: an
interpreter loop over a register file and a memory list, dict updates,
attribute access on small objects and sorting.  Sampling costs about 2% of
a pass, the same share whatever the program's speed.
"""

from __future__ import annotations

import bisect
import threading
import time
from operator import attrgetter

#: CPU seconds one slice takes at the reference speed (about the defining
#: host's typical speed, so scaled times read like seconds).
REFERENCE_SLICE_S = 0.002
#: Seconds between the end of one slice and the start of the next.
INTERVAL_S = 0.1

_MEMORY_WORDS = 1 << 12
#: The slice's loop body: (opcode, rd, rs, rt).
_PROGRAM = (
    ("addi", 1, 1, 1),
    ("mul", 2, 1, 7),
    ("and", 3, 2, 6),
    ("load", 4, 3, 0),
    ("add", 5, 5, 4),
    ("xor", 4, 4, 1),
    ("store", 3, 4, 0),
    ("sub", 0, 0, 8),
)
_STEPS = 1000


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value


def reference_slice() -> int:
    """Fixed interpreted work; returns a checksum of what it computed."""
    memory = list(range(_MEMORY_WORDS))
    regs = [0] * 9
    regs[0] = _STEPS
    regs[6] = _MEMORY_WORDS - 1
    regs[7] = 2654435761
    regs[8] = 1
    counts: dict[str, int] = {}
    while regs[0] > 0:
        for op, rd, rs, rt in _PROGRAM:
            counts[op] = counts.get(op, 0) + 1
            if op == "addi":
                regs[rd] = regs[rs] + rt
            elif op == "mul":
                regs[rd] = (regs[rs] * regs[rt]) & 0xFFFFFFFF
            elif op == "and":
                regs[rd] = regs[rs] & regs[rt]
            elif op == "load":
                regs[rd] = memory[regs[rs]]
            elif op == "add":
                regs[rd] = (regs[rs] + regs[rt]) & 0xFFFFFFFF
            elif op == "xor":
                regs[rd] = regs[rs] ^ regs[rt]
            elif op == "store":
                memory[regs[rd]] = regs[rs]
            else:
                regs[rd] = regs[rs] - regs[rt]
    nodes = [_Node((i * 40503) & 0xFFFF, memory[i * 16])
             for i in range(_MEMORY_WORDS // 16)]
    nodes.sort(key=attrgetter("key"))
    checksum = regs[5] + sum(counts.values())
    for node in nodes:
        checksum = (checksum * 31 + node.value) & 0xFFFFFFFF
    return checksum


class Sampler:
    """Background thread timing one reference slice every ``INTERVAL_S``."""

    def __init__(self):
        #: ``[perf_counter at the end, CPU seconds]`` of each slice.
        self.slices: list[list[float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def start(self) -> "Sampler":
        self._thread.start()
        return self

    def stop(self) -> list[list[float]]:
        self._stop.set()
        self._thread.join()
        return self.slices

    def _loop(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            started = time.thread_time()
            reference_slice()
            spent = time.thread_time() - started
            self.slices.append([time.perf_counter(), spent])


def scale(slices: list[list[float]]) -> float:
    """Factor that converts host times measured while ``slices`` were
    timed into times at the reference speed (1.0 without slices)."""
    if not slices:
        return 1.0
    return REFERENCE_SLICE_S * len(slices) / sum(spent for _, spent in slices)


def local_scales(windows: list[list[float]], slices: list[list[float]],
                 nearest: int = 8) -> list[float]:
    """The scale of each ``[start, end]`` window (perf_counter times, which
    every process of the host shares), from the slices timed during it, or
    from the ``nearest`` slices to its middle when fewer ran during it."""
    ordered = sorted(slices)
    times = [at for at, _ in ordered]
    scales = []
    for start, end in windows:
        low = bisect.bisect_left(times, start)
        high = bisect.bisect_right(times, end)
        if high - low < nearest:
            middle = (start + end) / 2
            low = high = bisect.bisect_left(times, middle)
            while high - low < nearest and (low > 0 or high < len(times)):
                if low > 0 and (high == len(times) or
                                middle - times[low - 1] <= times[high] - middle):
                    low -= 1
                else:
                    high += 1
        scales.append(scale(ordered[low:high]))
    return scales
