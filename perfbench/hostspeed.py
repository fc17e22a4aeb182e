"""How fast the host runs Python right now, against a fixed reference.

The benchmark's shared 2-core host switches between two speeds about 2x
apart, for stretches of seconds to minutes.  Raw timings of the same work
then spread 30 to 60 % between runs, more than any bound can allow.  A
fixed pure-Python kernel (the oracle's shattered-set count on a constant
7-point class: sets of tuples, like the VC engine) slows down by the same
factor: over one minute the ratio of a ``vc_dimension`` call to the kernel
stayed within 1.173 to 1.194 while the raw times moved by 40 %.

So every timed operation is also reported *at reference speed*: its raw
time divided by the host's slowdown, the kernel's time next to the
operation over ``REF_S``, the kernel's time on the 2-core host this was
built on in its fast state.  The kernel is benchmark code with the
garbage collector off, so no change to the program can move it.  A
``priverm`` command is scaled instead by the start of a child process
that imports numpy, over ``CHILD_REF_S``: over one minute the ratio of a
short command to that probe stayed within 1.439 to 1.486.
"""

from __future__ import annotations

import gc
import random
import subprocess
import sys
import time

import oracles

REF_S = 1.40e-3
REPROBE_S = 0.25
# a child process's start: what dominates a short ``priverm`` command
CHILD_PROBE = (sys.executable, "-c", "import numpy")
CHILD_REF_S = 0.15
CHILD_REPROBE_S = 2.0


class HostSpeed:
    def __init__(self) -> None:
        rng = random.Random(20261017)
        self._cls = [tuple(rng.randint(0, 1) for _ in range(7)) for _ in range(24)]
        self._slowdown = 1.0
        self._at = float("-inf")
        self._child_slowdown = 1.0
        self._child_at = float("-inf")

    def probe(self) -> float:
        """The host's slowdown now: the best of three kernel runs over REF_S."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                oracles.shattered_counts(self._cls, 7)
                best = min(best, time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        self._slowdown = best / REF_S
        self._at = time.perf_counter()
        return self._slowdown

    def slowdown(self) -> float:
        """The last probe, taken again when older than REPROBE_S."""
        if time.perf_counter() - self._at > REPROBE_S:
            self.probe()
        return self._slowdown

    def child_slowdown(self) -> float:
        """A child process's start over CHILD_REF_S, taken again when older
        than CHILD_REPROBE_S.  The kernel overstates how much a child's
        start slows: about 2.1x against 1.5x in the host's slow state."""
        if time.perf_counter() - self._child_at > CHILD_REPROBE_S:
            start = time.perf_counter()
            subprocess.run(CHILD_PROBE, check=True)
            self._child_slowdown = (time.perf_counter() - start) / CHILD_REF_S
            self._child_at = time.perf_counter()
        return self._child_slowdown

    def timed_child(self, fn, *args, **kwargs):
        """Like ``timed``, for a call that runs a child process."""
        slowdown = self.child_slowdown()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        raw = time.perf_counter() - start
        return result, raw, raw / slowdown

    def timed(self, fn, *args, **kwargs):
        """Run ``fn``; return (result, raw seconds, seconds at reference speed).

        An operation longer than REPROBE_S is scaled by the mean slowdown of
        the probes before and after it.
        """
        before = self.slowdown()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        raw = time.perf_counter() - start
        slowdown = before if raw < REPROBE_S else (before + self.probe()) / 2
        return result, raw, raw / slowdown
