"""One cold set-up of wle, timed inside a fresh interpreter.

Imports the package from the source tree given as the first argument,
loads every bundled dataset (each load verifies its checksum) and makes
a first root search. Prints the elapsed seconds and then the median time
of the reference kernel run right after, in this same process.
"""

import time

t0 = time.perf_counter()

import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])

import wle  # noqa: E402

for name in wle.dataset_names():
    wle.load_dataset(name)
x = wle.load_dataset("newcomb").column("deviation")
wle.bootstrap_root_search(wle.get_family("normal"), x, wle.ResidualConfig(),
                          wle.GammaKernel(1.01), wle.SolverConfig())
setup_s = time.perf_counter() - t0

import statistics  # noqa: E402

from calib import reference_kernel  # noqa: E402

print(setup_s, statistics.median(reference_kernel() for _ in range(5)))
