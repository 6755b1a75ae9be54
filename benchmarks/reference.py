"""Fixed reference computations, sampled while the program runs, that
measure how fast the machine is running at each moment, so that times can be
stated at one nominal speed.

On a shared virtual machine the speed of a core swings by up to 2x, both
within a second and over tens of seconds, and everything running at that
moment slows, though not all code by the same factor.  A `Sampler`
interrupts the process every `INTERVAL_S` of wall time (SIGALRM) and runs one
reference unit inside the signal handler, so the units sample the machine's
speed during the program's own work, not only between calls.  A stretch of
the program's work is then stated at nominal speed as (wall time - time spent
in units) x the mean of `nominal / unit time` over the units run in it.

Two units exist.  `python_unit` (dict churn and integer arithmetic) needs no
import, so set-up can be sampled from the first line of a process.
`numeric_unit` (small-matrix expm, solve and einsum plus dict churn) needs
numpy and scipy; once they are loaded the sampler alternates the two.  Slow
phases slow the two units by different factors, and the program's calls by
factors that differ from call to call; over eight seeds per workload
the mean of both tracked the calls at least as well as either unit alone.
Neither calls `poissonlie`, so a change to the program cannot move them."""

from __future__ import annotations

import bisect
import signal
import time

#: times of one unit in the fast phase of the machine the benchmark was
#: defined on (2 vCPU Xeon VM, Python 3.11.7, numpy 2.4.6, scipy 1.17.1, one
#: BLAS thread); the scale of the reported times
PYTHON_UNIT_NOMINAL_S = 0.0010
NUMERIC_UNIT_NOMINAL_S = 0.0008
#: wall time between two units
INTERVAL_S = 0.02
#: a stretch with fewer units in it than this borrows the nearest ones
MIN_UNITS = 12


def _churn(n: int) -> int:
    table: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(n):
        key = (i % 37, i % 11)
        table[key] = table.get(key, 0) + i
        acc += (i * 7) % 13
    return acc


def python_unit() -> float:
    """Run the plain-Python reference work once and return its wall time."""
    t0 = time.perf_counter()
    acc = _churn(4000)
    elapsed = time.perf_counter() - t0
    if acc != 23990:
        raise RuntimeError("reference computation gave a wrong checksum")
    return elapsed


def make_numeric_unit():
    """Return the numeric reference unit; imports numpy and scipy, so call it
    once they are loaded."""
    import numpy as np
    import scipy.linalg

    mats = np.random.default_rng(20220328).standard_normal((6, 5, 5)) * 0.3

    def numeric_unit() -> float:
        """Run the numeric reference work once and return its wall time."""
        t0 = time.perf_counter()
        acc = 0.0
        for a in mats:
            e = scipy.linalg.expm(a)
            acc += np.linalg.solve(e, a[:, 0])[0]
            acc += np.einsum("ij,jk->ik", e, a).trace()
        acc += _churn(1500)
        elapsed = time.perf_counter() - t0
        if not np.isfinite(acc):
            raise RuntimeError("reference computation produced a non-finite value")
        return elapsed

    return numeric_unit


class Sampler:
    """Runs a reference unit every `INTERVAL_S` while started, taking the
    units it uses in turn, and records when each began, how long it took and
    its nominal time."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.units: list[float] = []
        self.nominals: list[float] = []
        self._cycle = [(python_unit, PYTHON_UNIT_NOMINAL_S)]

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        unit, nominal = self._cycle[len(self.units) % len(self._cycle)]
        self.units.append(unit())
        self.starts.append(start)
        self.nominals.append(nominal)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def add_numeric_unit(self) -> None:
        """Alternate `python_unit` and `numeric_unit` from now on."""
        self._cycle.append((make_numeric_unit(), NUMERIC_UNIT_NOMINAL_S))

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def nominal(self, t0: float, t1: float) -> tuple[float, float]:
        """Return (raw, nominal) seconds of the work between perf_counter
        readings `t0` and `t1`: raw is the wall time less the units run in
        it, nominal is raw at the reference's nominal speed, taken from the
        units run in the stretch or, when it holds fewer than `MIN_UNITS`,
        from the `MIN_UNITS` units nearest to it."""
        if not self.units:
            raise RuntimeError("no reference unit ran; the sampler was not started")
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        raw = (t1 - t0) - sum(self.units[lo:hi])
        while hi - lo < min(MIN_UNITS, len(self.units)):
            before = t0 - self.starts[lo - 1] if lo > 0 else float("inf")
            after = self.starts[hi] - t1 if hi < len(self.starts) else float("inf")
            if before <= after:
                lo -= 1
            else:
                hi += 1
        factor = sum(n / u for n, u in zip(self.nominals[lo:hi], self.units[lo:hi])) / (hi - lo)
        return raw, raw * factor
