"""Monte-Carlo contamination study, a small-scale version of the full one.

Samples of size 30 are drawn from (1 - eps) N(0,1) + eps N(0,25) and the
mean is estimated by maximum likelihood and by two weighted-likelihood
estimators. Already at eps = 0.1 the weighted estimators halve the MSE;
on clean data they give up almost nothing.

Run:  python demos/contamination_study.py          (about 15 seconds)
"""

from wle import SimulationPlan, run_simulation

plan = SimulationPlan(scheme="scale", eps_grid=(0.0, 0.1, 0.2, 0.3),
                      reps=200, seed=0)
report = run_simulation(plan)

header = "eps    " + "".join(f"{lab:>28s}" for lab in report.estimators)
print(header)
for ie, eps in enumerate(report.eps_grid):
    row = f"{eps:4.1f}   "
    row += "".join(f"{report.mse[ie, je]:22.4f} MSE" + " " * 3
                   for je in range(len(report.estimators)))
    print(row)

print("\nMonte-Carlo standard errors of the MSE entries:")
for ie, eps in enumerate(report.eps_grid):
    ses = "  ".join(f"{report.mc_se[ie, je]:.4f}"
                    for je in range(len(report.estimators)))
    print(f"  eps={eps:3.1f}: {ses}")

print("\naverage number of distinct roots per replication:")
for ie, eps in enumerate(report.eps_grid):
    cts = "  ".join(f"{report.mean_root_count[ie, je]:.2f}"
                    for je in range(len(report.estimators)))
    print(f"  eps={eps:3.1f}: {cts}")

# reports serialize losslessly for archiving
round_trip = type(report).from_json(report.to_json())
assert round_trip == report
print("\nJSON round trip: OK")
