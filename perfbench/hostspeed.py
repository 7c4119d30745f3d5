"""Host-speed calibration: times in reference seconds.

The shared hosts this benchmark runs on change speed by up to 2x over
spells of seconds to minutes, for every process on them, so a raw unit time
moves with the host more than with the code.  While work is timed, a fixed
micro-kernel is timed beside it: interpreted Python (calls, attribute loads,
float maths) and numpy operations on arrays the size of the solvers'
(64 x 41 and 321 x 81).  It is the kind of work the solvers do, it imports
nothing from hjbqvi (so no change to the package can move it), and it
allocates nothing the garbage collector tracks.  Its mean time over
``KERNEL_REF_S`` is the host's slowdown while the work ran; the work's time
divided by it is the time the work takes on a host where the kernel takes
``KERNEL_REF_S``.  That is what ``ref_wall_s`` and ``setup_s`` report.

For a unit, ``Sampler`` runs the kernel once as the unit starts and then on
SIGALRM every ``PERIOD_S`` (between bytecodes, in the one thread), so the
samples spread over the unit; their time is taken out of the unit's time.
"""

from __future__ import annotations

import math
import signal
import statistics
from time import perf_counter

import numpy as np

# The kernel's time on the host the bounds were set on, in a typical spell;
# scaling by this constant keeps reported values near that host's seconds.
KERNEL_REF_S = 0.003
PERIOD_S = 0.05

_rng = np.random.default_rng(0)
_SMALL = _rng.random((64, 41))
_MID = _rng.random((321, 81))
_XS = tuple(i / 1000.0 for i in range(1000))


class _Affine:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def at(self, x):
        return self.a * x + self.b if x > 0.5 else math.exp(-x) * self.b


_F = _Affine(1.5, 0.25)


def kernel() -> None:
    # Interpreter work (calls, attribute loads, float maths, a dict), as in
    # the audit and the per-node loops; then small and solver-sized numpy
    # operations, as in the control argmax and the intervention tables.
    for _ in range(8):
        best = -math.inf
        for x in _XS:
            v = _F.at(x)
            if v > best:
                best = v
        sums = {}
        for i in range(300):
            sums[i % 17] = sums.get(i % 17, 0.0) + _XS[i]
    for _ in range(60):
        x = _SMALL + _SMALL[:, :1]
        x.argmax(axis=1)
        np.maximum(x, 0.5).sum()
    for _ in range(3):
        x = _MID * 1.0001 + _MID[:, :1]
        x.argmax(axis=1)
        np.take_along_axis(x, x.argsort(axis=1)[:, :2], 1)


def kernel_seconds(repeats: int) -> float:
    """Total time of ``repeats`` kernel runs back to back."""
    start = perf_counter()
    for _ in range(repeats):
        kernel()
    return perf_counter() - start


def ref_seconds(seconds, slowdowns) -> float:
    """Median over units of each unit's time divided by its slowdown."""
    return statistics.median(s / k for s, k in zip(seconds, slowdowns, strict=True))


class Sampler:
    """Times the kernel at the start of a unit and every PERIOD_S during it.

    After the ``with`` block, ``kernel_s`` is the time spent in the kernel
    and ``slowdown`` the mean kernel time over KERNEL_REF_S.
    """

    def __enter__(self):
        self.kernel_s, self.samples, self._busy = 0.0, 0, False
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _sample(self, *_signal_args):
        if self._busy:      # a tick during a sample (a stalled host): skip it
            return
        self._busy = True
        start = perf_counter()
        kernel()
        self.kernel_s += perf_counter() - start
        self.samples += 1
        self._busy = False

    @property
    def slowdown(self) -> float:
        return self.kernel_s / self.samples / KERNEL_REF_S
