"""Reference kernel: a fixed piece of work, independent of desynclab, that
the untimed gaps of an untraced run repeat to track the host's speed.

The host is shared, and its speed drifts by 10-40 % over tens of seconds,
for the program's CPU time as much as for wall time. The drift moves every
op type together, so a run's op times are scaled by the ratio of `REF_S`
to the reference kernel's mean time during the run: the end-to-end times
are seconds at the speed at which one reference call takes `REF_S`. The
kernel mixes the three kinds of work the workloads do: interpreted Python,
numpy calls on small arrays and one dense LAPACK eigensolve.
"""

from __future__ import annotations

import time

import numpy as np

# A round figure within the time of one reference call on the baseline
# machine (2-core Xeon at 2.1 GHz, one BLAS thread): 55-90 ms, with the
# host's state. Only ratios between runs matter.
REF_S = 0.070

_rng = np.random.default_rng(0)
_DENSE = _rng.random((192, 192))
_SMALL = _rng.random((400, 16))


def _interpreter() -> float:
    table, s = {}, 0.0
    for i in range(60000):
        s += (i * 0.5) % 7.0
        table[i & 255] = s
    return s


def _small_arrays() -> float:
    x = _SMALL.copy()
    for _ in range(300):
        x = np.sort(np.mod(x + 0.37, 1.0), axis=1)
        x.argmin(axis=1)
        x.sum()
    return float(x.sum())


def reference() -> float:
    """Run the kernel once; return its wall time in seconds."""
    t0 = time.perf_counter()
    _interpreter()
    _small_arrays()
    np.linalg.eigvals(_DENSE)
    return time.perf_counter() - t0
