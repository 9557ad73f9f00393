#!/usr/bin/env python3
"""Invariance probes: the free group freezes mode statistics exactly; the
nonlinear flow leaves the Gibbs ensemble statistically still.

The nonlinear flow is the Galerkin flow on the measure's 16 modes: it
conserves |u|_{L2} and H_16 and is divergence-free, so it keeps the truncated
Gibbs measure mu_16 (the experiment reads no ``solver_modes``).  The check
compares moment drifts against bootstrap noise and places the
ensemble-to-pushforward distance inside the band spanned by independent
same-law ensemble pairs.
"""

from kdvlab.experiments import parse_config_text, run_experiment

print("== linear flow: per-mode second moments are exactly frozen ==")
linear_cfg = parse_config_text(
    "experiment = invariance_linear\nmeasure = gaussian\nmodes = 16\n"
    "ensemble_size = 1024\ntime_grid = 0.5, 2.0\nseed = 1\n"
)
rep = run_experiment(linear_cfg)
for row in rep.series:
    print(f"t = {row['t']:4}: worst per-mode drift {row['max_mode_moment_drift']:.2e}")

print("\n== nonlinear flow on a Gibbs ensemble (reduced scale) ==")
nonlinear_cfg = parse_config_text(
    "experiment = invariance_nonlinear\nmeasure = gibbs\nmodes = 16\n"
    "ensemble_size = 512\ntime_grid = 0.5\n"
    "bootstrap_replicas = 60\nseed = 1\n"
)
rep = run_experiment(nonlinear_cfg)
s = rep.summary
print(f"E|u|_L2^2 drift   = {s['l2_sq_drift']:.2e}  ({s['l2_sq_drift_z']:.2f} bootstrap SEs)")
print(f"E int u^3 drift   = {s['cubic_drift']:.2e}  ({s['cubic_drift_z']:.2f} bootstrap SEs)")
print(f"push distance     = {s['distance']:.4f}")
print(f"same-law 95% band = [{s['null_lo95']:.4f}, {s['null_hi95']:.4f}]"
      f"  -> inside: {s['inside_null_band']}")
