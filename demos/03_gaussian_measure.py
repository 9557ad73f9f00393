#!/usr/bin/env python3
"""The Gaussian ensemble: random Fourier series with 1/n amplitude decay.

Draws are reproducible counter-based streams, so the same (seed, index) pair
always yields the same field regardless of scheduling.
"""

import numpy as np

from kdvlab import GaussianSpec, expected_hs_norm_sq, sample_gaussian, tail_fit
from kdvlab.spectral import linf_norms_many

spec = GaussianSpec(n_modes=16, seed=42)
ens = sample_gaussian(spec, 8192)

print("== second moments against the closed form 2 sum n^(2s-2) ==")
for s in (0.0, 0.25, 0.45):
    vals = ens.hs_norms(s) ** 2
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    print(
        f"s = {s:4}: sample {vals.mean():.4f}  closed form "
        f"{expected_hs_norm_sq(16, s):.4f}  (z = {(vals.mean() - expected_hs_norm_sq(16, s)) / se:+.2f})"
    )

print("\n== tail decay: log survival is linear in R^2 ==")
targets = np.exp(np.linspace(np.log(0.45), np.log(2e-3), 12))
for name, values in (
    ("sup norm ", linf_norms_many(ens.coeffs)),
    ("L2 norm  ", ens.l2_norms()),
    ("H^0.25   ", ens.hs_norms(0.25)),
):
    fit = tail_fit(ens, values, np.quantile(values, 1.0 - targets))
    print(f"{name}: fitted slope {fit.slope:+.4f} (R^2 = {fit.r_squared:.4f})")

print("\n== determinism ==")
again = sample_gaussian(spec, 8192)
print("re-drawn ensemble identical:", bool(np.array_equal(ens.coeffs, again.coeffs)))
