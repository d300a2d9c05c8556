"""Machine-speed reference for steady timings on a shared machine.

On a small shared host the same work runs up to twice as fast in one second
as in the next.  While ops run, a wall-clock timer interrupts them every
``SAMPLE_EVERY_S`` and times a short, fixed reference kernel in the running
thread.  Each op's time, less the time spent in those interruptions, is
multiplied by ``REFERENCE_S`` over the median kernel time sampled during the
op (or within ``MIN_WINDOW_S`` around it for short ops).  A scaled time
reads as the time the op takes while the kernel runs in ``REFERENCE_S``.

The kernel is the benchmark's own code, the same on every commit.  It mixes
the work the package does: small numpy products, dict and string handling,
and Philox generator set-up.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from array import array
from time import perf_counter

import numpy as np

# about the kernel's median time on the machine the bounds were set on (2-core
# Intel Xeon, Python 3.11.7, numpy 2.4.6)
REFERENCE_S = 0.001
SAMPLE_EVERY_S = 0.02
MIN_WINDOW_S = 0.1

_MATRIX = np.random.default_rng(0).standard_normal((8, 8))
_BLOCK = np.array([0, 1, 4, 5])


def kernel_seconds() -> float:
    """Time one run of the reference kernel."""
    start = perf_counter()
    total = 0.0
    lines = []
    for _ in range(44):
        m = np.eye(8)
        m[np.ix_(_BLOCK, _BLOCK)] = _MATRIX[:4, :4]
        c = m @ _MATRIX @ m.T
        row = {"x": c[0, 0], "p": c[1, 1]}
        lines.append(f"{row['x']:.5f} {row['p']:+.4f}")
        total += float(c[2, 3])
    for k in range(22):
        total += float(np.random.Generator(np.random.Philox(key=[7, k])).standard_normal(4)[0])
    elapsed = perf_counter() - start
    if not np.isfinite(total) or len(lines) != 44:
        raise RuntimeError("reference kernel produced no result")
    return elapsed


class SpeedSampler:
    """Samples the kernel on a SIGALRM timer while the ``with`` block runs.

    ``taken`` holds the time each sample started, ``kernel`` its kernel
    time and ``spent`` the whole time the sample interrupted the caller, which
    is also passed to ``on_sample``.
    """

    def __init__(self, on_sample=None):
        self.taken = array("d")
        self.kernel = array("d")
        self.spent = array("d")
        self._on_sample = on_sample
        self._previous = None

    def _sample(self, *_):
        start = perf_counter()
        self.kernel.append(kernel_seconds())
        self.taken.append(start)
        self.spent.append(perf_counter() - start)
        if self._on_sample is not None:
            self._on_sample(self.spent[-1])

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def interrupted(self, start: float, end: float) -> float:
        """Time spent in samples that started within [start, end].

        A sample runs between two bytecodes of the interrupted code, so one
        that starts after ``start`` was read has ended before ``end`` is read.
        """
        low = bisect.bisect_left(self.taken, start)
        high = bisect.bisect_right(self.taken, end)
        return sum(self.spent[low:high])

    def factor(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the median kernel time sampled around [start, end]."""
        pad = max(0.0, (MIN_WINDOW_S - (end - start)) / 2.0)
        low = bisect.bisect_left(self.taken, start - pad)
        high = bisect.bisect_right(self.taken, end + pad)
        window = self.kernel[low:high]
        if not window:  # nothing sampled nearby: use the nearest sample
            nearest = min(max(low, 0), len(self.kernel) - 1)
            window = self.kernel[nearest : nearest + 1]
        return REFERENCE_S / statistics.median(window)

    def median_kernel(self) -> float:
        return statistics.median(self.kernel)
