#!/usr/bin/env python3
"""Space-time norms weighted by the distance to the cubic dispersion surface.

Free waves sit exactly on tau = k^3 and carry weight one; off-shell content
is amplified by <tau - k^3>^b.  Two inequality probes sample the L4 bound
and the T^(1/12)-scaled derivative-product bound on random band fields.
"""

import numpy as np

from kdvlab import (
    SpaceTimeField,
    bilinear_scaling_probe,
    cosine_mode,
    l4_inequality_probe,
    traveling_wave,
    xsb_norm,
    ys_norm,
    zs_norm,
)

print("== single-mode sheets ==")
wave = traveling_wave(cosine_mode(1), 64, 64)
print(f"on-shell  X^(0,1/2) = {xsb_norm(wave, 0.0, 0.5):.6f}  (= sqrt(2 pi))")
x = 2 * np.pi * np.arange(64) / 64
t = -np.pi + 2 * np.pi * np.arange(64) / 64
off = SpaceTimeField(np.cos(x[:, None] + 9.0 * t[None, :]) / np.sqrt(np.pi))
print(f"off-shell X^(0,1/2) = {xsb_norm(off, 0.0, 0.5):.6f}  (amplified by <8>^0.5 = 3)")
print(f"Y^0 of the wave     = {ys_norm(wave, 0.0):.6f}")
print(f"Z^0 of the wave     = {zs_norm(wave, 0.0):.6f}")

print("\n== L4 inequality probe (100 random band fields) ==")
low = l4_inequality_probe(100, (64, 64), seed=0)
high = l4_inequality_probe(100, (128, 128), seed=0)
quantiles = np.quantile(low.ratios, (0.5, 0.9, 1.0))
print(f"ratio quantiles (50/90/100%): {[round(float(q), 4) for q in quantiles]}")
print(f"max ratio at 64x64   = {low.max_ratio:.6f}")
print(f"max ratio at 128x128 = {high.max_ratio:.6f}  "
      f"(growth {abs(high.max_ratio / low.max_ratio - 1):.2%})")

print("\n== bilinear scaling probe over shrinking windows ==")
probe = bilinear_scaling_probe(wave, wave, 0.25, [1.0, 0.5, 0.25, 0.125])
for t_val, ratio in zip(probe.values, probe.ratios):
    print(f"T = {t_val:5.3f}: normalised ratio {ratio:.5f}")
print(f"fitted constant (max) = {probe.max_ratio:.5f}")

probe.write_csv("bilinear_ratios.csv")
low.write_csv("l4_ratios.csv")
print("\nwrote bilinear_ratios.csv and l4_ratios.csv")
