"""Reference kernel for scaling timings to a nominal machine speed.

The machines the benchmark runs on are shared, and their speed drifts by
tens of percent over minutes, in wall and CPU time alike. The drift moves
every computation together. So the benchmark times a fixed kernel that
uses no wle code, interleaved with the workload, and scales each timing
by REF_NOMINAL_S / (median kernel time). The kernel mixes the package's
kinds of cost: a Python loop over small numpy and scipy.special calls,
and whole-array passes over arrays larger than L2.
"""

from time import perf_counter

import numpy as np
from scipy.special import ndtr

# about the median reference_kernel() time inside a workload process on
# the machine described in README.md, so scaled times read close to raw
REF_NOMINAL_S = 0.020

_SMALL = np.linspace(-3.0, 3.0, 30)
_LARGE = np.linspace(-3.0, 3.0, 400_000)


def reference_kernel():
    """Run the fixed reference work once; returns its wall time."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(1200):
        z = (_SMALL - 1e-3 * i) / 1.3
        acc += float(ndtr(z).sum()) + float(np.log1p(np.abs(z)).sum())
    acc += float(ndtr(_LARGE).sum()) + float(np.exp(-np.abs(_LARGE)).sum())
    elapsed = perf_counter() - t0
    if not np.isfinite(acc):
        raise ArithmeticError("reference kernel produced a non-finite sum")
    return elapsed
