"""Weighted likelihood on Newcomb's passage-of-light measurements.

The sample has 66 measurements with two gross outliers (-44 and -2) that
drag the maximum-likelihood variance up by a factor of five. Weighted
likelihood assigns those two observations near-zero weight and lands on
the estimates a careful analyst would report, for every weight family.

Run:  python demos/passage_of_light.py
"""

from wle import (GammaKernel, GevKernel, ResidualConfig, SolverConfig,
                 WeibullKernel, bootstrap_root_search, get_family,
                 load_dataset)

x = load_dataset("newcomb").column("deviation")
fam = get_family("normal")

mle = fam.mle(x)
print(f"n = {len(x)} measurements")
print(f"MLE:              mu = {mle[0]:8.4f}   sigma^2 = {mle[1]:9.4f}")

specs = [("gamma   alpha=1.01", GammaKernel(1.01)),
         ("gamma   alpha=1.1 ", GammaKernel(1.1)),
         ("weibull k=1.05    ", WeibullKernel(1.05)),
         ("weibull k=1.1     ", WeibullKernel(1.1)),
         ("gev     xi=5      ", GevKernel(5.0)),
         ("gev     xi=10     ", GevKernel(10.0))]

print("\nselected roots of the bootstrap root search:")
roots = [bootstrap_root_search(fam, x, ResidualConfig(), spec,
                               SolverConfig(seed=0)).selected
         for _, spec in specs]
for (label, _), root in zip(specs, roots):
    print(f"  {label}  mu = {root.theta[0]:8.4f}   "
          f"sigma^2 = {root.theta[1]:9.4f}   "
          f"weight sum = {root.weight_sum:5.1f} / {len(x)}")

# show which observations the gamma(1.01) fit discounts
print("\nobservations with weight < 0.5:")
for xi, wi in sorted(zip(x, roots[0].weights)):
    if wi < 0.5:
        print(f"  x = {xi:6.1f}   weight = {wi:.4f}")
