"""Machine-speed calibration kernel, independent of linecancel.

On a shared 2-core VM the same computation runs up to 25% slower from one
minute to the next.  Each worker times this fixed kernel between its ops,
and run.py scales each op time by REFERENCE_S / (kernel time around that
op), so gated op times are in reference seconds and the machine's swings
largely cancel while any change in linecancel still shows in full.

The kernel is elementwise arithmetic and shifted-slice updates on a batch
of 64 complex 22x22 matrices, the shape of work that dominates the package
(density-matrix steps and the numpy calls of fits and lab sampling).  Over
ten runs per workload on a 2-core VM, scaling by it (per process) cut the
IQR/median of op_s_p50 from 0.07-0.12 in wall seconds to 0.04-0.08, more
than a kernel of small numpy calls from a Python loop did.
"""
from __future__ import annotations

import time

import numpy as np

# Median kernel time on the 2-core VM the bounds were set on; reference
# seconds equal wall seconds at that machine speed.
REFERENCE_S = 7.6e-3

_Z = np.random.default_rng(0).standard_normal((64, 22, 22)) * (1.0 + 1.0j)


def kernel():
    y = _Z.copy()
    for _ in range(25):
        y = y * 0.999 + 0.001 * _Z
        y[:, 1:, 1:] += 1e-4 * y[:, :-1, :-1]
    return y


def burst():
    """Seconds one kernel run takes."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
