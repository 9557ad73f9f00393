#!/usr/bin/env python3
"""Transport distances between ensembles: exact, entropic, and bottleneck.

The combined metric adds the worst-coupled-pair L2 distance (a bottleneck
value) to the order-p average in H^s.
"""

import numpy as np

from kdvlab import (
    GaussianSpec,
    combined_metric_parts,
    cost_matrix,
    sample_gaussian,
    wasserstein_inf,
    wasserstein_p_entropic,
    wasserstein_p_exact,
)

a = sample_gaussian(GaussianSpec(n_modes=8, seed=1), 64)
b = sample_gaussian(GaussianSpec(n_modes=8, seed=2), 64)

print("== exact order-2 distance in H^0.25 ==")
value, plan = wasserstein_p_exact(a, b, 0.25, 2.0)
print(f"W_2 = {value:.6f}; plan marginal residuals "
      f"{plan.row_residual:.1e} / {plan.col_residual:.1e}")

print("\n== entropic estimates approach the exact value from above ==")
med = float(np.median(cost_matrix(a, b, 0.25, 2.0)))
for factor in (1.0, 0.1, 0.01):
    res = wasserstein_p_entropic(a, b, 0.25, 2.0, epsilon=factor * med)
    print(f"eps = {factor:5.2f} * median: value {res.value:.6f} "
          f"({res.iterations} target-level sweeps)")
print(f"exact:                      {value:.6f}")

print("\n== bottleneck distance in L2 ==")
w_inf, _ = wasserstein_inf(a, b)
print(f"least feasible worst-pair distance = {w_inf:.6f}")

print("\n== combined metric ==")
parts = combined_metric_parts(a, b, 0.25, 2.0)
print(f"combined = w_inf + w_p = {parts.w_inf:.6f} + {parts.w_p:.6f} = {parts.total:.6f}")

print("\n== identical ensembles sit at distance zero ==")
print(f"combined(a, a) = {combined_metric_parts(a, a, 0.25, 2.0).total}")
