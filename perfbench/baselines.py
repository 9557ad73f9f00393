"""Reproduce the ROADMAP's scratch baselines at full scale with the benchmark's tracer.

    python3 perfbench/baselines.py        # about 25 s on two cores

The benchmark's workloads are scaled down to fit its time budget; this script
runs the three full-scale figures the ROADMAP quotes once, traced, and prints
each next to the quoted value:

* c09 continuity (Gibbs 256, grid 0.25/0.5/1.0): 14.4 s wall;
* the 2048 x 2048 H^s distance matrix: 1.28 s, seen as the self time of
  ``transport.cost_matrix`` on two 2048-draw Gibbs ensembles;
* the Gibbs sampler: 24.5 us per draw at 2048 draws.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import run  # pins BLAS threads before numpy loads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from layers import LayerProbe, layer_share  # noqa: E402

from kdvlab import experiments, measures, transport  # noqa: E402

C09 = """experiment = continuity
measure = gibbs
modes = 16
ensemble_size = 256
solver_modes = 48
time_grid = 0.25, 0.5, 1.0
perturbation = mode_shift
perturbation_mode = 3
perturbation_delta = 1e-3
s = 0.25
p = 2
seed = 0
"""


def traced(fn):
    probe = LayerProbe()
    tracer = probe.tracer()
    wall, metrics = run.traced_pass(probe, tracer, fn, capture=True)
    return wall, metrics, tracer.spans


def main() -> int:
    cfg = experiments.parse_config_text(C09)
    t0 = time.perf_counter()
    experiments.run_experiment(cfg)
    c09_wall = time.perf_counter() - t0
    _, c09, c09_spans = traced(lambda: experiments.run_experiment(cfg))

    spec = measures.GibbsSpec(measures.GaussianSpec(n_modes=16, seed=0))
    a, _ = measures.sample_gibbs(spec, 2048)
    b, _ = measures.sample_gibbs(measures.GibbsSpec(measures.GaussianSpec(16, seed=1)), 2048)
    _, cost, _ = traced(lambda: transport.cost_matrix(a, b, 0.25, 2.0))
    _, sample, _ = traced(lambda: measures.sample_gibbs(spec, 2048))

    rows = (
        ("c09 continuity wall (untraced), s", 14.4, c09_wall),
        ("cost_matrix self at 2048^2, s", 1.28, cost["transport.cost_matrix.self_s"]),
        ("Gibbs sampler, us per draw", 24.5, sample["measures.us_per_draw"]),
    )
    for label, quoted, measured in rows:
        print(f"{label:<40} ROADMAP {quoted:>7.3g}  measured {measured:>8.4g}  "
              f"ratio {measured / quoted:.3f}")
    print(f"c09 flow share of traced wall            {layer_share(c09_spans, 'flow', sum(s[2] - s[1] for s in c09_spans if s[3] < 0)):.3f}")
    for key in ("flow.calls", "flow.rows", "flow.live_row_frac", "flow_h_drift"):
        print(f"c09 {key:<36} {c09[key]:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
