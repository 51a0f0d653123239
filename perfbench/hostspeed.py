"""A fixed pure-Python kernel that measures how fast the host runs right now.

On a shared host the same pass can run 1.3x slower for minutes at a time,
which moves a run's median by more than any bound a benchmark can keep.  So
while a pass runs its commands, ``Sampler`` interrupts it every ``PERIOD_S``
seconds to time one call of this kernel, and run.py scales the pass's time,
without the interruptions, by ``REFERENCE_S / median(kernel times)``: the
times it reports are those of a host on which the kernel takes
``REFERENCE_S``.  The kernel uses nothing from permpat, so a change to the
program moves the scaled times and leaves the kernel alone.

The kernel mixes two kinds of work the engine does: composing permutation
tuples into a set, and plain integer arithmetic in the interpreter loop.
Samples taken only before and after a pass miss how the host's speed moves
during it; taken throughout, they follow it on all three workloads.
"""
from __future__ import annotations

import gc
import itertools
import signal
import time

#: Seconds the kernel takes on the reference host: about its median on the
#: 2-core Xeon guest the benchmark was tuned on.
REFERENCE_S = 0.005
#: Seconds of a pass's own work between two kernel calls, about 5% overhead.
PERIOD_S = 0.1

_PERMS = list(itertools.permutations(range(7)))[:800]
_RIGHT = _PERMS[:4]
#: What one kernel call returns; the kernel's own output check.
CHECKSUM = (3200, 804, 63999)


def kernel() -> tuple[int, int, int]:
    seen = set()
    for p in _PERMS:
        for q in _RIGHT:
            seen.add(tuple([p[i] for i in q]))
    total = 0
    for i in range(32000):
        total += i * i % 7
    return len(_PERMS) * len(_RIGHT), len(seen), total


def samples(n: int) -> list[float]:
    """Time ``n`` kernel calls, with the cyclic collector off so the heap the
    commands built does not change the kernel's work."""
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(n):
            start = time.perf_counter()
            result = kernel()
            times.append(time.perf_counter() - start)
            if result != CHECKSUM:
                raise RuntimeError(f"host-speed kernel returned {result}, expected {CHECKSUM}")
    finally:
        if enabled:
            gc.enable()
    return times


class Sampler:
    """Times one kernel call every ``PERIOD_S`` seconds of the code run inside
    ``with sampler:``, from a SIGALRM handler in the main thread.

    ``times`` holds the kernel times; ``spent`` the seconds the interruptions
    took in all, which the caller subtracts from the time it measured.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.times += samples(1)
        # one-shot timer, re-armed here, so a slow call never overlaps the next
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        self.spent += time.perf_counter() - start

    def __enter__(self) -> Sampler:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
