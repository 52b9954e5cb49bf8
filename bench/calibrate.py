"""Machine-speed calibration kernels.

The host this benchmark was built on shares its two cores with other
tenants, and its speed drifts by up to 2x over minutes: the same ``risk``
pass took 4.3 s to 9.1 s within 200 s, with no change in CPU time share.
Raw wall time therefore cannot meet a 25% bound from run to run. Each job
is timed next to a short fixed kernel, run in the same process just before
the job, and its time is scaled by ``REFERENCE_S[kernel] / kernel time``,
which expresses it at a fixed reference speed. The kernels are part of the
benchmark, never of the program, so a faster program still reads faster.

Two kernels, because the slowdown hits interpreted Python and NumPy array
code differently: normalising the ``risk`` jobs by the Python kernel cut
the run-to-run quartile spread from 0.43 to 0.11 where the NumPy kernel
left 0.31, while the ``index`` and ``brute`` jobs track the NumPy kernel
(0.12 to 0.05, and 0.10 to 0.06) and not the Python one.
"""

from __future__ import annotations

import time

import numpy as np

#: Kernel times at the reference speed: typical medians on the 2-core Intel
#: Xeon host (Python 3.11, NumPy 2.4) the benchmark was built on.
REFERENCE_S = {"python": 0.028, "numpy": 0.019}


def python_kernel() -> float:
    """Seconds for a fixed loop of integer arithmetic and dict stores."""
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(150_000):
        total += i * i % 7
        table[i & 255] = total
    return time.perf_counter() - start


def numpy_kernel() -> float:
    """Seconds for fixed elementwise exp passes over an in-cache array."""
    x = np.linspace(0.0, 1.0, 200_000)
    start = time.perf_counter()
    for _ in range(20):
        y = np.exp(-3.0 * x) * 0.5 + x
        (y > 0.7).any()
    return time.perf_counter() - start


KERNELS = {"python": python_kernel, "numpy": numpy_kernel}


def scale(kernel: str, seconds: float) -> float:
    """Factor that turns a time measured next to ``kernel`` into reference time."""
    return REFERENCE_S[kernel] / seconds
