"""Host-speed correction: a fixed computation timed between operations.

The shared 2-vCPU host this benchmark was written on (a KVM guest, Intel
Xeon family 6 model 143) runs the same code at two speeds about 1.6 apart,
and switches between them within a fraction of a second: timed in 0.1 s
bins, a Python loop's speed correlates 0.77 with the next bin and 0.09 with
the bin 0.5 s later.  One fixed ``many-marginal`` operation, repeated for
240 s, gave 24 s window medians from 0.168 to 0.232 s, a quartile spread of
0.33 of their median.  Wall time alone cannot tell two versions of mmotlab
apart within a 25% bound there.

So the benchmark times ``reference()``, a fixed mix of Python, numpy and
LAPACK work that runs no mmotlab code, right before every operation and
after the last one, and rescales each operation's wall time to the host
speed at which the reference takes ``NOMINAL_S``::

    corrected = wall * NOMINAL_S / mean(reference before, reference after)

The reference never changes with the program, so a faster mmotlab still
reads faster.  The run is pinned to one CPU (see run.py), because a
reference timed on the other vCPU did not track the operation's speed.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np
import scipy.linalg

#: about the reference's time on that host in its slower state; the value
#: only sets the scale, since both sides of a comparison use it
NOMINAL_S = 0.005

_rng = np.random.default_rng(0)
_MATRIX = _rng.standard_normal((150, 150)) + 150.0 * np.eye(150)
_RHS = _rng.standard_normal(150)
_TENSOR = _rng.standard_normal((12, 12, 12, 12))
_INDEX = tuple(_rng.integers(0, 12, size=(4, 4000)))


def _python_work() -> int:
    """Tuple building, dict lookups and float arithmetic, as in the analyses."""
    seen: dict = {}
    total = 0
    for i in range(2000):
        key = (i % 97, i % 89, i % 7)
        seen[key] = seen.get(key, 0) + 1
        total += int(abs(1.0 / (1.0 + (i % 13) ** 2) - 0.5) * 1000)
    return total + len(seen)


def _array_work() -> float:
    """Gathers, reductions, sorts and LU solves, as in the solver."""
    acc = 0.0
    for _ in range(5):
        acc += float(_TENSOR[_INDEX].sum())
        flat = _TENSOR.reshape(-1)
        acc += float(flat[np.argmin(flat)]) + float(np.sort(flat)[100])
        acc += float(scipy.linalg.lu_solve(scipy.linalg.lu_factor(_MATRIX), _RHS)[0])
    return acc


def reference() -> float:
    """Seconds taken by one run of the fixed reference computation.

    The cyclic garbage collector is paused meanwhile, so the time does not
    depend on how many objects the workload keeps alive.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _python_work()
        _array_work()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def references(count: int) -> list[float]:
    """``count`` reference timings in a row."""
    return [reference() for _ in range(count)]


class Pacer:
    """Reference timings between the operations of a run.

    The host's speed changes within a fraction of a second, so a reference
    is timed right before every operation and once after the last one, and
    each operation is corrected by the two on either side of it.
    """

    def __init__(self):
        self.refs: list[float] = []

    def before_op(self) -> int:
        """Time a reference; return its index."""
        self.refs.append(reference())
        return len(self.refs) - 1

    def finish(self):
        """Time the reference after the last operation."""
        self.refs.append(reference())

    def estimate(self, seconds: float) -> float:
        """``seconds`` corrected by the latest reference, while the run goes on."""
        return corrected(seconds, self.refs[-1:])

    def scale(self, index: int) -> float:
        """``NOMINAL_S`` over the mean of references ``index`` and ``index + 1``."""
        return NOMINAL_S / statistics.fmean(self.refs[index:index + 2])


def corrected(seconds: float, refs: list[float]) -> float:
    """``seconds`` rescaled by the median of the reference times ``refs``."""
    return seconds * NOMINAL_S / statistics.median(refs)
