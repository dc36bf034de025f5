"""Multiple roots as a feature: two beetle species in one sample.

Lubischew's flea-beetle data mixes 21 Chaetocnema concinna with 22
Ch. heptapotamica. Fitting a single normal to the front-angle measurement
is misspecified on purpose: the weighted likelihood equation then has
three distinct roots, and each species-specific root cleanly separates
the sample by its weights. One bivariate root search on (width, angle)
finds the combined root and both species roots among its distinct roots.

Run:  python demos/beetle_roots.py
"""

import numpy as np

from wle import (GammaKernel, ResidualConfig, SolverConfig,
                 bootstrap_root_search, get_family, load_dataset)

ds = load_dataset("lubischew")
angle = ds.column("angle")
species = ds.column("species")
fam = get_family("normal")

rs = bootstrap_root_search(fam, angle, ResidualConfig(), GammaKernel(1.02),
                           SolverConfig(seed=0))
print(f"bootstrap root search: {rs.n_restarts} starts, "
      f"{len(rs.roots)} distinct roots\n")
for i, root in enumerate(rs.roots):
    tag = " (selected)" if i == rs.selected_index else ""
    print(f"root {i}: mu = {root.theta[0]:8.4f}  s2 = {root.theta[1]:7.4f}  "
          f"weight sum = {root.weight_sum:5.1f}{tag}")
    for name in ("concinna", "heptapotamica"):
        wsub = root.weights[species == name]
        print(f"    {name:14s} mean weight = {wsub.mean():.3f}   "
              f"(> 0.9: {np.sum(wsub > 0.9)} of {len(wsub)})")

# the same three-root structure for the bivariate (width, angle) fit
xy = ds.numeric()
brs = bootstrap_root_search(get_family("bivariate_normal"), xy,
                            ResidualConfig(kind="bivariate"),
                            GammaKernel(1.01), SolverConfig(seed=0))
print(f"\nbivariate root search: {len(brs.roots)} distinct roots")
for i, root in enumerate(brs.roots):
    m1, m2, s1, s2, rho = root.theta
    tag = " (selected)" if i == brs.selected_index else ""
    print(f"  root {i}: mean = ({m1:8.3f}, {m2:8.3f})  "
          f"var = ({s1:7.3f}, {s2:7.3f})  rho = {rho:6.3f}  "
          f"weight sum = {root.weight_sum:5.1f}{tag}")
