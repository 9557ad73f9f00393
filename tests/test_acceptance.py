"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria run at their stated tolerances and scales; the slow ones (the
nonlinear-invariance band and the transport oracle sweep) dominate the
module's runtime.
"""

import itertools
import json
import time

import numpy as np
import pytest

from kdvlab.experiments import parse_config_text, run_and_write, run_experiment
from kdvlab.fitting import weighted_linear_fit
from kdvlab.flow import SolverConfig, conserved_report, evolve, linear_flow, trajectory
from kdvlab.measures import (
    GaussianSpec,
    GibbsSpec,
    WeightedEnsemble,
    expected_hs_norm_sq,
    f_convergence_probe,
    sample_gaussian,
    tail_fit,
)
from kdvlab.bourgain import (
    SpaceTimeField,
    bilinear_scaling_probe,
    l4_inequality_probe,
    random_band_field,
    traveling_wave,
    xsb_norm,
    ys_norm,
    zs_norm,
)
from kdvlab.spectral import TorusField, cosine_mode, sobolev_norm
from kdvlab.transport import cost_matrix, wasserstein_p_entropic, wasserstein_p_exact


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _random_field(rng, m, scale=0.25):
    return TorusField(scale * (rng.standard_normal(m) + 1j * rng.standard_normal(m)))


def test_c01_conservation():
    u0 = cosine_mode(1, 2) + 0.5 * cosine_mode(2)
    start = time.time()
    traj = trajectory(u0, np.linspace(0.05, 1.0, 20), SolverConfig(n_modes=64, dt=1e-3))
    elapsed = time.time() - start
    drift = conserved_report(traj)
    ok = (
        drift.l2_rel_drift < 1e-8
        and drift.hamiltonian_rel_drift < 1e-6
        and drift.mean_abs_drift == 0.0
        and elapsed < 10.0
    )
    _report(
        1,
        ok,
        f"L2 drift {drift.l2_rel_drift:.2e} < 1e-8, H drift "
        f"{drift.hamiltonian_rel_drift:.2e} < 1e-6, mean {drift.mean_abs_drift}, "
        f"runtime {elapsed:.1f}s < 10s",
    )


def test_c02_linear_flow_exactness():
    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(100):
        u = _random_field(rng, int(rng.integers(1, 16)))
        t = float(rng.uniform(-5, 5))
        s = float(rng.uniform(0, 2))
        n0 = sobolev_norm(u, s)
        worst = max(worst, abs(sobolev_norm(linear_flow(u, t), s) - n0) / max(1.0, n0))
    cfg = SolverConfig(n_modes=16, dt=1e-3)
    ratios = []
    for eps in (1e-4, 5e-5):
        u0 = eps * cosine_mode(1)
        d = sobolev_norm(evolve(u0, 0.1, cfg) - linear_flow(u0, 0.1), 0.0)
        ratios.append(d / eps**2)
    stable = 0.5 <= ratios[0] / ratios[1] <= 2.0
    ok = worst <= 1e-12 and stable
    _report(
        2,
        ok,
        f"isometry defect {worst:.2e} <= 1e-12; eps^2 ratio factor "
        f"{ratios[0] / ratios[1]:.3f} within [0.5, 2]",
    )


def test_c03_temporal_order():
    u0 = 0.5 * (cosine_mode(1, 2) + 0.5 * cosine_mode(2))
    ref = evolve(u0, 0.5, SolverConfig(n_modes=32, dt=2.5e-3 / 16))
    errs = [
        sobolev_norm(evolve(u0, 0.5, SolverConfig(n_modes=32, dt=dt)) - ref, 0.0)
        for dt in (1e-2, 5e-3, 2.5e-3)
    ]
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]
    ok = all(3.5 <= o <= 4.5 for o in orders)
    _report(3, ok, f"observed orders {[round(o, 2) for o in orders]} within [3.5, 4.5]")


def test_c04_galerkin_rate():
    cfg = parse_config_text(
        "experiment = galerkin\nmeasure = gaussian\nmodes = 64\nsolver_modes = 96\n"
        "projection_grid = 4, 8, 16, 32\ntime_grid = 0.5\ns = 0.2\nsigma = 0.45\nseed = 2\n"
    )
    start = time.time()
    rep = run_experiment(cfg)
    elapsed = time.time() - start
    slope = rep.summary["loglog_slope"]
    bound = rep.summary["slope_bound"]
    ok = slope <= bound and rep.summary["monotone_within_noise"] and elapsed < 120.0
    _report(
        4,
        ok,
        f"fitted slope {slope:.3f} <= {bound:.2f}, monotone within noise, "
        f"runtime {elapsed:.1f}s < 120s",
    )


def test_c05_sampler_moments():
    ens = sample_gaussian(GaussianSpec(n_modes=16, seed=0), 4096)
    details = []
    ok = True
    for s in (0.0, 0.25, 0.45):
        vals = ens.hs_norms(s) ** 2
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        z = (vals.mean() - expected_hs_norm_sq(16, s)) / se
        details.append(f"s={s}: z={z:+.2f}")
        ok = ok and abs(z) < 3.0
    _report(5, ok, "; ".join(details) + " (all |z| < 3)")


def test_c06_gaussian_tails():
    ens = sample_gaussian(GaussianSpec(n_modes=16, seed=1), 8192)
    targets = np.exp(np.linspace(np.log(0.45), np.log(2e-3), 12))
    details = []
    ok = True
    for functional, values in (
        ("linf", None),
        ("l2", ens.l2_norms()),
        ("hs", ens.hs_norms(0.25)),
    ):
        if values is None:
            from kdvlab.spectral import linf_norms_many

            values = linf_norms_many(ens.coeffs)
        radii = np.quantile(values, 1.0 - targets)
        fit = tail_fit(ens, functional, radii, s=0.25 if functional == "hs" else None)
        details.append(f"{functional}: slope {fit.slope:.3f}, R2 {fit.r_squared:.3f}")
        ok = ok and fit.slope < 0 and fit.r_squared >= 0.9
    _report(6, ok, "; ".join(details) + " (slopes < 0, R2 >= 0.9)")


def _uniform(n, m, seed, scale=0.3):
    rng = np.random.default_rng(seed)
    coeffs = scale * (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
    return WeightedEnsemble(coeffs, np.full(n, 1.0 / n))


def test_c07_transport_oracle():
    worst_gap = 0.0
    for seed in range(100):
        a = _uniform(5, 3, seed)
        b = _uniform(5, 3, 10_000 + seed)
        value, _ = wasserstein_p_exact(a, b, 0.25, 2.0)
        cost = cost_matrix(a, b, 0.25, 2.0)
        brute = min(
            sum(cost[i, perm[i]] for i in range(5))
            for perm in itertools.permutations(range(5))
        )
        worst_gap = max(worst_gap, abs(value - (brute / 5.0) ** 0.5))
    oracle_ok = worst_gap <= 1e-9

    worst_violation = -np.inf
    for seed in range(200):
        a = _uniform(4, 3, 20_000 + seed)
        b = _uniform(4, 3, 30_000 + seed)
        c = _uniform(4, 3, 40_000 + seed)
        dab, _ = wasserstein_p_exact(a, b, 0.25, 2.0)
        dac, _ = wasserstein_p_exact(a, c, 0.25, 2.0)
        dcb, _ = wasserstein_p_exact(c, b, 0.25, 2.0)
        worst_violation = max(worst_violation, dab - dac - dcb)
    triangle_ok = worst_violation <= 1e-9

    worst_rel = 0.0
    for seed in range(20):
        a = _uniform(5, 3, 50_000 + seed)
        b = _uniform(5, 3, 60_000 + seed)
        exact, _ = wasserstein_p_exact(a, b, 0.25, 2.0)
        med = float(np.median(cost_matrix(a, b, 0.25, 2.0)))
        est = wasserstein_p_entropic(a, b, 0.25, 2.0, epsilon=0.01 * med).value
        worst_rel = max(worst_rel, (est - exact) / exact)
    sinkhorn_ok = worst_rel < 0.01

    ok = oracle_ok and triangle_ok and sinkhorn_ok
    _report(
        7,
        ok,
        f"brute-force gap {worst_gap:.1e} <= 1e-9; triangle violation "
        f"{worst_violation:.1e} <= 1e-9; sinkhorn rel err {worst_rel:.4f} < 1%",
    )


def test_c08_f_convergence():
    spec = GibbsSpec(GaussianSpec(n_modes=32, seed=2))
    res = f_convergence_probe(spec, [2, 4, 8, 32], 8192)
    decreasing = bool(np.all(res.pair_deltas > -2.0 * res.pair_std_errors)) and bool(
        np.all(np.diff(res.estimates[:3]) < 0)
    )
    exact_zero = res.estimates[-1] == 0.0
    ok = decreasing and exact_zero
    _report(
        8,
        ok,
        f"estimates {np.array2string(res.estimates[:3], precision=2)} strictly "
        f"decreasing within 2 SE; value at N >= M exactly {res.estimates[-1]}",
    )


def _c09_config(delta: str):
    return parse_config_text(
        "experiment = continuity\nmeasure = gibbs\nmodes = 16\nensemble_size = 256\n"
        "solver_modes = 48\ntime_grid = 0.25, 0.5, 1.0\nperturbation = mode_shift\n"
        f"perturbation_mode = 3\nperturbation_delta = {delta}\ns = 0.25\np = 2\nseed = 0\n"
    )


def test_c09_continuity():
    # The continuity estimate bounds d_t / d_0 by a constant of t and the norm
    # radii only, so the ratio series must not depend on the size of d_0:
    # halving the perturbation must leave every ratio in place (the remainder
    # is second order in delta).  A log-linear trend in t is not implied, so
    # its fit is reported as a diagnostic and not asserted.
    rep = run_experiment(_c09_config("1e-3"))
    half = run_experiment(_c09_config("5e-4"))
    ratios = [row["ratio"] for row in rep.series[1:]]
    tol = 1e-6
    ratio_gap = max(
        abs(a["ratio"] - b["ratio"]) for a, b in zip(rep.series, half.series, strict=True)
    )
    clauses = {
        "ratios finite": all(np.isfinite(r) for r in ratios),
        "t = 0 ratio is 1": rep.series[0]["ratio"] == 1.0,
        "ratio independent of delta": ratio_gap <= tol,
        "coupled-plan bound dominates": rep.summary["bound_dominates"],
    }
    failed = [name for name, held in clauses.items() if not held]
    _report(
        9,
        not failed,
        f"failed clauses {failed}; max |ratio(delta 1e-3) - ratio(delta 5e-4)| "
        f"{ratio_gap:.1e} <= {tol:.0e}; diagnostics: ratios "
        f"{[round(r, 5) for r in ratios]}, log-ratio slope "
        f"{rep.summary['log_ratio_slope']:.2e}, R2 {rep.summary['log_ratio_r_squared']:.3f}",
    )


def test_c10_gibbs_invariance():
    cfg = parse_config_text(
        "experiment = invariance_nonlinear\nmeasure = gibbs\nmodes = 16\n"
        "ensemble_size = 2048\nsolver_modes = 48\ntime_grid = 0.5\n"
        "bootstrap_replicas = 200\nseed = 0\n"
    )
    start = time.time()
    rep = run_experiment(cfg)
    elapsed = time.time() - start
    s = rep.summary
    ok = (
        s["l2_sq_drift"] <= 3.0 * s["l2_sq_se"]
        and s["cubic_drift"] <= 3.0 * s["cubic_se"]
        and s["inside_null_band"]
        and elapsed < 600.0
    )
    _report(
        10,
        ok,
        f"L2^2 drift z {s['l2_sq_drift_z']:.2f} <= 3; cubic drift z "
        f"{s['cubic_drift_z']:.2f} <= 3; distance {s['distance']:.4f} in "
        f"[{s['null_lo95']:.4f}, {s['null_hi95']:.4f}]; runtime {elapsed:.0f}s < 600s",
    )


def test_c11_linear_invariance():
    cfg = parse_config_text(
        "experiment = invariance_linear\nmeasure = gaussian\nmodes = 16\n"
        "ensemble_size = 2048\ntime_grid = 0.5, 1.5\nseed = 0\n"
    )
    rep = run_experiment(cfg)
    worst = rep.summary["worst_mode_moment_drift"]
    _report(11, worst <= 1e-12, f"per-mode second-moment drift {worst:.2e} <= 1e-12")


def test_c12_bourgain_diagnostics():
    fld = random_band_field(3, 0, 4, 8, 32, 64)
    doubled = SpaceTimeField(2.0 * np.asarray(fld.values))
    homog = max(
        abs(xsb_norm(doubled, 0.3, 0.5) - 2.0 * xsb_norm(fld, 0.3, 0.5)),
        abs(ys_norm(doubled, 0.3) - 2.0 * ys_norm(fld, 0.3)),
        abs(zs_norm(doubled, 0.3) - 2.0 * zs_norm(fld, 0.3)),
    ) / ys_norm(doubled, 0.3)
    homog_ok = homog <= 1e-12

    low = l4_inequality_probe(100, (64, 64), seed=0)
    high = l4_inequality_probe(100, (128, 128), seed=0)
    growth = abs(high.max_ratio / low.max_ratio - 1.0)
    l4_ok = growth < 0.10

    wave = traveling_wave(cosine_mode(1), 64, 512)
    probe = bilinear_scaling_probe(wave, wave, 0.25, [1.0, 0.5, 0.25, 0.125])
    bilinear_ok = bool(
        np.all(np.isfinite(probe.ratios)) and np.all(probe.ratios <= probe.fitted_constant)
    )
    ok = homog_ok and l4_ok and bilinear_ok
    _report(
        12,
        ok,
        f"homogeneity defect {homog:.1e} <= 1e-12; L4 max-ratio growth "
        f"{growth:.3f} < 0.10; T^(1/12)-normalised ratios bounded by "
        f"{probe.fitted_constant:.4f}",
    )


def test_c13_determinism(tmp_path):
    text = (
        "experiment = invariance_nonlinear\nmeasure = gibbs\nmodes = 8\n"
        "ensemble_size = 256\nsolver_modes = 24\ntime_grid = 0.2\n"
        "bootstrap_replicas = 10\nseed = 7\n"
    )
    outs = [tmp_path / name for name in ("one", "two", "four")]
    run_and_write(parse_config_text(text, threads=1), outs[0])
    run_and_write(parse_config_text(text, threads=1), outs[1])
    run_and_write(parse_config_text(text, threads=4), outs[2])
    reports = [(d / "report.json").read_bytes() for d in outs]
    ensembles = [(d / "base.kdve").read_bytes() for d in outs]
    series = [(d / "series.csv").read_bytes() for d in outs]
    ok = (
        reports[0] == reports[1] == reports[2]
        and ensembles[0] == ensembles[1] == ensembles[2]
        and series[0] == series[1] == series[2]
    )
    _report(13, ok, "reports, series and ensemble files byte-identical at 1 and 4 threads")
