"""Yardstick: how fast the shared host runs at each moment of a run.

On the test host the same code slows by up to 80 % for stretches of
seconds to minutes, while other tenants load the machine.  Statistics taken
inside one run cannot remove a slow stretch that outlasts the run, so two
sets of runs taken an hour apart disagree.

A SIGALRM interval timer takes a sample every PERIOD_S seconds, also in the
middle of a long library call: it runs a small fixed kernel twice and times
the second run, so that the sample measures the host and not what the
program left in the caches.  Each op's time is then multiplied by
nominal / (median sample from WINDOW_NS before the op to WINDOW_NS after
it), which puts every time at the kernel's nominal speed.  The time the
handler itself takes is subtracted from the op it interrupted.  Set-up is
scaled the same way, by samples taken just before and after it.

There are two kernels, one for each kind of work, because each tracks the
slowdowns of its own kind and not the other's:

* ``python``: the benchmark's closed-form verdict oracle over a fixed set of
  engine-mix queries, in plain ``Fraction`` arithmetic (engine-mix);
* ``memory``: a NumPy sum over 16 MB, past the core's own caches, bound by
  memory bandwidth as the big point clouds and grids are (tent-scan,
  quadrature).

Neither calls into rkhs_sandwich, so no change to the program moves them.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from array import array

import numpy as np

PERIOD_S = 0.2
WINDOW_NS = 1_000_000_000


def _python_kernel():
    from engine_mix import engine_catalog, expected_verdict
    queries = [q for q in engine_catalog()[::50] if expected_verdict(q) is not None]

    def run():
        for q in queries:
            expected_verdict(q)
    return run


def _memory_kernel():
    a = np.random.default_rng(0).random(2_000_000)

    def run():
        return float(a.sum())
    return run


# kind -> (kernel factory, nominal kernel time in ns: about its median on
# the benchmark host while the baseline in README.md was taken)
KERNELS = {"python": (_python_kernel, 2_050_000), "memory": (_memory_kernel, 2_200_000)}


class Yardstick:
    def __init__(self, kind: str):
        factory, self.nominal_ns = KERNELS[kind]
        self.kind, self.kernel = kind, factory()
        self.at, self.took = array("q"), array("q")
        self.spent_ns = 0  # total time inside the handler

    def _tick(self, signum=None, frame=None) -> int:
        t_in = time.perf_counter_ns()
        self.kernel()  # warms the caches for the timed run
        t0 = time.perf_counter_ns()
        self.kernel()
        t1 = time.perf_counter_ns()
        self.at.append((t0 + t1) // 2)
        self.took.append(t1 - t0)
        self.spent_ns += time.perf_counter_ns() - t_in
        return t1 - t0

    def scale_now(self, n: int = 3) -> float:
        """nominal / median of n samples taken now (timer stopped)."""
        return self.nominal_ns / statistics.median(self._tick() for _ in range(n))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @contextlib.contextmanager
    def paused(self):
        """No samples while set-up runs a child process next to this one."""
        self.stop()
        try:
            yield
        finally:
            self.start()

    def scales(self, starts_ns, ends_ns) -> np.ndarray:
        """NOMINAL_NS over the median kernel time around each op."""
        at = np.frombuffer(self.at, dtype=np.int64)
        took = np.frombuffer(self.took, dtype=np.int64).astype(float)
        lo = np.searchsorted(at, np.asarray(starts_ns) - WINDOW_NS)
        hi = np.searchsorted(at, np.asarray(ends_ns) + WINDOW_NS)
        cache, out = {}, np.empty(len(lo))
        for i, (a, b) in enumerate(zip(lo.tolist(), hi.tolist())):
            if (a, b) not in cache:
                if b <= a:
                    raise RuntimeError("no yardstick sample within 1 s of an op")
                cache[(a, b)] = self.nominal_ns / float(np.median(took[a:b]))
            out[i] = cache[(a, b)]
        return out

    def median_ns(self) -> float:
        return statistics.median(self.took)
