"""A fixed reference computation that times the machine, not the program.

On a shared machine the speed of a core drifts with its neighbours' load:
a fixed computation can take half as long again for minutes at a time, and
the whole process slows with it.  The benchmark runs this kernel next to
every op and scales the op's time by ``REFERENCE_S / kernel time``, so the
end-to-end times read as seconds at one fixed machine speed.  The kernel
uses no xsdof code, so a change to the program cannot move it; a mix of
small LAPACK calls and interpreter work follows both kinds of cost the
workloads have.
"""

from __future__ import annotations

import time

import numpy as np

#: Median kernel time on the machine the benchmark was defined on (2 vCPU
#: Intel Xeon VM, Python 3.11, numpy 2.4, OpenBLAS on one thread) in a quiet
#: stretch.  It sets only the scale of the normalized times.
REFERENCE_S = 0.002

_SIDE = 40
_MATRIX = np.exp(0.1j * np.outer(np.arange(_SIDE), np.arange(_SIDE))) + np.eye(_SIDE)


def kernel_seconds() -> float:
    """Time one run of the reference kernel."""
    t0 = time.perf_counter()
    for _ in range(6):
        np.linalg.svd(_MATRIX, compute_uv=False)
    total = 0
    for i in range(15000):
        total += i * i
    return time.perf_counter() - t0
