import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdvlab.experiments import (
    EXPERIMENTS,
    PERTURBATIONS,
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    config_hash,
    load_config,
    parse_config_text,
    run_and_write,
    run_continuity,
    run_experiment,
    run_galerkin,
    run_stability,
    run_tails,
    write_report,
)
from kdvlab.flow import SolverConfig, evolve_many, evolve_projected
from kdvlab.measures import FUNCTIONALS, sample_gibbs
from kdvlab.spectral import TorusField, hamiltonian, sobolev_norms_many


SMALL_INVARIANCE = """
experiment = invariance_nonlinear
measure = gibbs
modes = 8
ensemble_size = 128
solver_modes = 24
time_grid = 0.2
bootstrap_replicas = 12
seed = 5
"""


def test_readme_config_table_names_every_key_in_order():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Experiment configuration", 1)[1].split("\n## ", 1)[0]
    keys = re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)
    assert keys == [f.name for f in dataclasses.fields(ExperimentConfig)]


def test_parse_defaults_and_overrides():
    cfg = parse_config_text("experiment = tails\nmeasure = gaussian\n")
    assert cfg.experiment == "tails"
    assert cfg.s == 0.25 and cfg.p == 2.0
    cfg2 = parse_config_text("experiment = tails\nmeasure = gaussian\n", seed=9)
    assert cfg2.seed == 9


def test_parse_rejects_unknown_and_bad_values():
    with pytest.raises(ConfigError):
        parse_config_text("nonsense = 1\n")
    with pytest.raises(ConfigError):
        parse_config_text("modes = not_an_int\n")
    with pytest.raises(ConfigError):
        parse_config_text("experiment tails\n")


def test_config_invariants():
    with pytest.raises(ConfigError):
        parse_config_text("experiment = continuity\np = 0.5\n")
    with pytest.raises(ConfigError):
        parse_config_text("experiment = continuity\ns = 0.7\n")
    with pytest.raises(ConfigError):
        parse_config_text("experiment = continuity\ntime_grid = 1, 9\n")
    with pytest.raises(ConfigError):
        parse_config_text("experiment = continuity\ntime_grid = 0.5, 0.25\n")
    with pytest.raises(ConfigError):
        parse_config_text("experiment = galerkin\ns = 0.5\nsigma = 0.4\n")
    with pytest.raises(ConfigError):
        parse_config_text("experiment = tails\nmeasure = gibbs\n")
    with pytest.raises(ConfigError):
        parse_config_text("experiment = invariance_nonlinear\nmeasure = gaussian\n")
    for bad in ("inf", "-inf", "nan"):
        with pytest.raises(ConfigError, match="cubic_coefficient"):
            parse_config_text(f"cubic_coefficient = {bad}\n")


def test_config_hash_stability():
    a = parse_config_text(SMALL_INVARIANCE)
    b = parse_config_text(SMALL_INVARIANCE)
    assert config_hash(a) == config_hash(b)
    c = parse_config_text(SMALL_INVARIANCE, seed=6)
    assert config_hash(a) != config_hash(c)


def test_report_finiteness_guard(tmp_path):
    # a non-finite series or summary value is named, and no file is written
    for series, summary, where in (([{"v": math.inf}], {}, r"series\[0\]\.v"),
                                   ([], {"x": [1.0, math.nan]}, r"summary\.x\[1\]")):
        rep = ExperimentReport("x", series, summary, {})
        for fmt in ("csv", "json"):
            with pytest.raises(ValueError, match=f"non-finite value at .*{where}$"):
                write_report(rep, tmp_path / fmt, fmt)
            assert list((tmp_path / fmt).iterdir()) == []


def test_write_report_files(tmp_path):
    rep = ExperimentReport("demo", [{"t": 0.5, "value": 1.25}], {"score": 2.0}, {"seed": 0})
    write_report(rep, tmp_path, "csv")
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["experiment"] == "demo" and data["summary"]["score"] == 2.0
    assert (tmp_path / "series.csv").read_text().splitlines()[0] == "t,value"
    write_report(rep, tmp_path, "json")
    assert json.loads((tmp_path / "series.json").read_text())[0]["t"] == 0.5


def test_invariance_linear_moments_frozen():
    cfg = parse_config_text(
        "experiment = invariance_linear\nmeasure = gaussian\nmodes = 12\n"
        "ensemble_size = 256\ntime_grid = 0.3, 0.9\nseed = 2\n"
    )
    rep = run_experiment(cfg)
    assert rep.summary["worst_mode_moment_drift"] <= 1e-12


def test_invariance_nonlinear_small(tmp_path):
    cfg = parse_config_text(SMALL_INVARIANCE)
    rep = run_experiment(cfg)
    assert rep.summary["kappa"] > 0
    assert rep.summary["null_hi95"] >= rep.summary["null_lo95"] > 0
    assert math.isfinite(rep.summary["distance"])


GIBBS_16 = """
experiment = invariance_nonlinear
measure = gibbs
modes = 16
ensemble_size = 512
solver_modes = 48
time_grid = 0.2
bootstrap_replicas = 2
seed = 0
"""


def test_invariance_pushes_by_the_galerkin_flow_at_the_measure_modes(monkeypatch):
    from kdvlab import experiments

    cfg = parse_config_text(GIBBS_16)
    assert cfg.solver() == SolverConfig(n_modes=16)
    push = experiments.pushforward
    calls = []

    def spy(ens, t, solver):
        calls.append((ens, t, push(ens, t, solver)))
        return calls[-1][2]

    monkeypatch.setattr(experiments, "pushforward", spy)
    run_experiment(cfg)
    ((ens, t, pushed),) = calls
    # the pushed draws live on the measure's 16 modes: no mode above N exists
    assert pushed.coeffs.shape == (ens.n, 16)
    # and they are the band-16 flow on 48 modes (both at the 1e-3 step cap)
    wide = SolverConfig(n_modes=48)
    live = np.flatnonzero(ens.weights > 0)
    assert live.size > 10
    for i in live:
        want = evolve_projected(ens.field(i), t, 16, wide).modes
        assert not np.any(want[16:])
        assert np.max(np.abs(pushed.coeffs[i] - want[:16])) <= 1e-14 * np.max(np.abs(want))


def test_galerkin_flow_drift_of_l2_and_h16_falls_as_the_step_halves():
    cfg = parse_config_text(GIBBS_16)
    ens = sample_gibbs(cfg.gibbs_spec(), cfg.ensemble_size)[0]
    c0 = ens.coeffs[ens.weights > 0]

    def invariants(c):
        return sobolev_norms_many(c, 0.0), np.array([hamiltonian(TorusField(row)) for row in c])

    l2_0, h_0 = invariants(c0)
    drifts = []
    for h in (1e-3, 5e-4, 2.5e-4):
        l2, ham = invariants(evolve_many(c0, 0.5, SolverConfig(n_modes=16, dt=h)))
        drifts.append([np.max(np.abs(l2 - l2_0)), np.max(np.abs(ham - h_0))])
    # observed: H_16 drift 1.7e-3, 6.6e-5, 2.3e-6 (L2 1.1e-5, 4.4e-7, 1.5e-8), order 4.7-4.9
    orders = np.log2(np.array(drifts[:-1]) / np.array(drifts[1:]))
    assert np.all(orders >= 4.0), orders


def test_determinism_across_runs_and_threads(tmp_path):
    cfg1 = parse_config_text(SMALL_INVARIANCE, threads=1)
    cfg4 = parse_config_text(SMALL_INVARIANCE, threads=4)
    out = [tmp_path / name for name in ("a", "b", "c")]
    run_and_write(cfg1, out[0])
    run_and_write(cfg1, out[1])
    run_and_write(cfg4, out[2])
    blobs = [(d / "report.json").read_bytes() for d in out]
    assert blobs[0] == blobs[1] == blobs[2]
    ensembles = [(d / "base.kdve").read_bytes() for d in out]
    assert ensembles[0] == ensembles[1] == ensembles[2]
    series = [(d / "series.csv").read_bytes() for d in out]
    assert series[0] == series[1] == series[2]


def test_null_band_pools_only_above_one_worker(monkeypatch):
    from kdvlab import experiments

    cfg = parse_config_text(SMALL_INVARIANCE, threads=1)
    pool_class = experiments.ThreadPoolExecutor
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 4)  # the pool is capped by the host

    def no_pool(*args, **kwargs):
        raise AssertionError("threads = 1 built an executor")

    monkeypatch.setattr(experiments, "ThreadPoolExecutor", no_pool)
    serial = experiments._null_band(cfg, 4)
    pools = []

    def counted_pool(*args, **kwargs):
        pools.append(kwargs)
        return pool_class(*args, **kwargs)

    monkeypatch.setattr(experiments, "ThreadPoolExecutor", counted_pool)
    pooled = experiments._null_band(dataclasses.replace(cfg, threads=2), 4)
    assert pools == [{"max_workers": 2}]
    assert serial.shape == (4,) and serial.tobytes() == pooled.tobytes()


def test_null_band_pool_is_capped_by_threads_replicas_and_cores(monkeypatch):
    from kdvlab import experiments

    sizes = []

    class InlinePool:  # records its size and maps in the calling thread
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(experiments, "ThreadPoolExecutor", InlinePool)
    cfg = parse_config_text(SMALL_INVARIANCE, threads=1)
    serial = experiments._null_band(cfg, 3)
    for cores, threads, replicas, size in [(8, 100_000, 3, 3), (2, 100_000, 3, 2), (8, 5, 3, 3),
                                           (8, 2, 3, 2), (None, 100_000, 3, None), (1, 4, 3, None)]:
        sizes.clear()
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: cores)
        band = experiments._null_band(dataclasses.replace(cfg, threads=threads), replicas)
        assert sizes == ([] if size is None else [size])
        assert band.tobytes() == serial.tobytes()


def test_stability_ratio_scales_with_delta():
    base = (
        "experiment = stability\nmeasure = gibbs\nmodes = 8\nensemble_size = 96\n"
        "solver_modes = 24\ntime_grid = 0.2\nperturbation = mode_shift\nseed = 4\n"
    )
    rep_full = run_stability(parse_config_text(base + "perturbation_delta = 1e-3\n"))
    rep_half = run_stability(parse_config_text(base + "perturbation_delta = 5e-4\n"))
    ratio = rep_half.summary["distance_to_reference"] / rep_full.summary["distance_to_reference"]
    assert 0.4 <= ratio <= 0.6
    assert rep_full.series[0]["t"] == 0.0 and rep_full.series[0]["distance"] == 0.0


def test_a_zero_step_moves_no_draw():
    base = (
        "measure = gaussian\nmodes = 8\nensemble_size = 64\nsolver_modes = 24\n"
        "time_grid = 0.0, 0.25\nseed = 3\n"
    )
    stability = run_stability(parse_config_text("experiment = stability\n" + base))
    assert stability.series[1]["t"] == 0.0 and stability.series[1]["distance"] == 0.0
    continuity = run_continuity(parse_config_text("experiment = continuity\n" + base))
    assert continuity.series[1]["t"] == 0.0 and continuity.series[1]["ratio"] == 1.0


def test_continuity_small_structure():
    shifted = parse_config_text(
        "experiment = continuity\nmeasure = gibbs\nmodes = 8\nensemble_size = 64\n"
        "solver_modes = 24\ntime_grid = 0.2, 0.4\nseed = 3\n"
    )
    # a resampled perturbation shares no weights with its base, so its pairs run the LP
    resampled = parse_config_text(
        "experiment = continuity\nmeasure = gibbs\nmodes = 8\nensemble_size = 64\n"
        "solver_modes = 16\ntime_grid = 0.05, 0.1\nperturbation = resample\nseed = 1\n"
    )
    for cfg in (shifted, resampled):
        rep = run_continuity(cfg)
        assert rep.series[0]["ratio"] == 1.0
        assert rep.summary["bound_dominates"] is True
        assert all(math.isfinite(v) for v in rep.summary.values() if isinstance(v, float))
        for row in rep.series:
            assert row["bound_combined"] >= row["combined"] - 1e-12
            assert math.isfinite(row["ratio"])


def test_continuity_identical_ensembles_zero():
    cfg = parse_config_text(
        "experiment = continuity\nmeasure = gibbs\nmodes = 8\nensemble_size = 64\n"
        "solver_modes = 24\ntime_grid = 0.2, 0.4\nperturbation_delta = 0\nseed = 3\n"
    )
    # delta = 0 makes nu identical to mu: distances vanish at every time
    from kdvlab.experiments import _base_ensemble, _perturb
    from kdvlab.measures import pushforward
    from kdvlab.transport import combined_metric_parts

    mu, _ = _base_ensemble(cfg)
    nu = _perturb(mu, cfg)
    assert combined_metric_parts(mu, nu, cfg.s, cfg.p).total == 0.0
    solver = cfg.solver()
    mu_t = pushforward(mu, 0.2, solver)
    nu_t = pushforward(nu, 0.2, solver)
    assert combined_metric_parts(mu_t, nu_t, cfg.s, cfg.p).total == 0.0


def test_galerkin_report_shape():
    cfg = parse_config_text(
        "experiment = galerkin\nmeasure = gaussian\nmodes = 32\nsolver_modes = 48\n"
        "projection_grid = 4, 8, 16\ntime_grid = 0.3\ns = 0.2\nsigma = 0.45\nseed = 2\n"
    )
    rep = run_galerkin(cfg)
    errors = [row["error"] for row in rep.series]
    assert all(e > 0 for e in errors)
    assert rep.summary["slope_bound"] == pytest.approx(0.25)
    assert rep.summary["loglog_slope"] <= rep.summary["slope_bound"]
    with pytest.raises(ConfigError):
        run_galerkin(
            parse_config_text(
                "experiment = galerkin\nmeasure = gaussian\nmodes = 16\n"
                "solver_modes = 16\nprojection_grid = 8, 32\ntime_grid = 0.3\n"
                "s = 0.2\nsigma = 0.45\n"
            )
        )


def test_galerkin_zero_time_errors_vanish():
    cfg = parse_config_text(
        "experiment = galerkin\nmeasure = gaussian\nmodes = 16\nsolver_modes = 24\n"
        "projection_grid = 4, 8\ntime_grid = 0.3\ns = 0.2\nsigma = 0.45\nseed = 1\n"
    )
    from kdvlab.experiments import sample_gaussian
    from kdvlab.flow import evolve, evolve_projected
    from kdvlab.spectral import sobolev_norm

    u0 = sample_gaussian(cfg.gaussian_spec(), 1).field(0)
    solver = cfg.solver()
    for n_band in (4, 8):
        err = sobolev_norm(
            evolve_projected(u0, 0.0, n_band, solver) - evolve(u0, 0.0, solver), 0.2
        )
        assert err == 0.0


def test_tails_experiment_negative_slopes():
    cfg = parse_config_text(
        "experiment = tails\nmeasure = gaussian\nmodes = 8\nensemble_size = 2048\nseed = 6\n"
    )
    rep = run_tails(cfg)
    for fn in ("linf", "l2", "hs"):
        assert rep.summary[f"{fn}_slope"] < 0
        assert rep.summary[f"{fn}_r_squared"] > 0.9


def test_run_experiment_dispatch(tmp_path):
    cfg = parse_config_text(
        "experiment = tails\nmeasure = gaussian\nmodes = 8\nensemble_size = 1024\nseed = 1\n"
    )
    rep = run_experiment(cfg)
    assert rep.name == "tails"
    run_and_write(cfg, tmp_path / "t")
    assert (tmp_path / "t" / "report.json").exists()
    assert (tmp_path / "t" / "series.csv").exists()
    assert (tmp_path / "t" / "base.kdve").exists()


def test_load_config_file(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("experiment = tails\nmeasure = gaussian\n# comment\nmodes = 8\n")
    cfg = load_config(path, seed=3)
    assert cfg.modes == 8 and cfg.seed == 3


def test_paired_seed_control():
    # same seed gives the identical empirical measure: distance exactly zero
    from kdvlab.measures import GaussianSpec, GibbsSpec, sample_gibbs
    from kdvlab.transport import combined_metric_parts

    a, _ = sample_gibbs(GibbsSpec(GaussianSpec(8, seed=13)), 256)
    b, _ = sample_gibbs(GibbsSpec(GaussianSpec(8, seed=13)), 256)
    assert combined_metric_parts(a, b, 0.25, 2.0).total == 0.0


# --- the bound is priced on the ensembles the distance is computed from -------

CONTINUITY_OFF_STEP = """
experiment = continuity
measure = gibbs
modes = 16
ensemble_size = 160
solver_modes = 48
time_grid = 0.0625, 0.125, 0.25
perturbation = mode_shift
perturbation_mode = 3
perturbation_delta = 1e-3
"""


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_continuity_bound_dominates_off_the_step_grid(seed):
    # grid times that are not multiples of the 1e-3 step: stepped from grid
    # time to grid time, the distance and a bound re-evolved from t = 0 come
    # from two different numerical trajectories, and the bound fell short of
    # the distance by up to 4e-11 on these seeds
    rep = run_continuity(parse_config_text(CONTINUITY_OFF_STEP, seed=seed))
    assert rep.summary["bound_dominates"] is True
    for row in rep.series:
        assert row["bound_combined"] >= row["combined"] - 1e-12
        assert row["bound_w_p"] >= row["w_p"] - 1e-12
        assert row["bound_w_inf"] >= row["w_inf"] - 1e-12


def test_continuity_evolves_only_live_rows_once_per_grid_step(monkeypatch):
    import kdvlab.flow
    from kdvlab.experiments import _base_ensemble, _perturb

    cfg = parse_config_text(
        "experiment = continuity\nmeasure = gibbs\nmodes = 8\nensemble_size = 64\n"
        "solver_modes = 24\ntime_grid = 0.1, 0.2, 0.4\nseed = 3\n"
    )
    mu, _ = _base_ensemble(cfg)
    nu = _perturb(mu, cfg)
    live = int(np.count_nonzero(mu.weights > 0))
    assert live == int(np.count_nonzero(nu.weights > 0))
    assert 0 < live < mu.n  # dead rows exist, so evolving them would show

    evolve_many = kdvlab.flow.evolve_many
    rows = []

    def spy(coeffs, t, solver):
        rows.append(np.atleast_2d(coeffs).shape[0])
        return evolve_many(coeffs, t, solver)

    # the one name the package reaches the batched flow through
    monkeypatch.setattr(kdvlab.flow, "evolve_many", spy)
    run_continuity(cfg)
    # mu and nu go through one flow map: one call per grid step
    assert len(rows) == len(cfg.time_grid)
    assert sum(rows) == 2 * live * len(cfg.time_grid)


def test_every_config_field_parses_from_text():
    # a field whose type the parser does not know fails here
    lines, expected = [], {}
    for f in dataclasses.fields(ExperimentConfig):
        value = f.default
        if value is None:  # optional floats: None has no text form, a number does
            value = 0.125
        if isinstance(value, tuple):
            text = ", ".join(str(v) for v in value)
        elif isinstance(value, bool):
            text = "true" if value else "false"
        else:
            text = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{f.name} = {text}")
        expected[f.name] = value
    cfg = parse_config_text("\n".join(lines))
    assert dataclasses.asdict(cfg) == expected
    for key in ("dt", "epsilon"):
        with pytest.raises(ConfigError):
            parse_config_text(f"{key} = none\n")


# values of every kind a key takes, well formed or not, and text of any kind
_NUMBER = st.one_of(
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["0", "-0", "1e-320", "1e400", "nan", "-inf", "1_0", "0x10", ""]),
).map(str)
_WORD = st.sampled_from(EXPERIMENTS + PERTURBATIONS + FUNCTIONALS
                        + ("gaussian", "gibbs", "csv", "json", "exact", "entropic", "true", "no"))
_VALUE = st.one_of(_NUMBER, _WORD, st.lists(st.one_of(_NUMBER, _WORD), max_size=5).map(", ".join),
                   st.text(max_size=12))
_LINE = st.tuples(st.sampled_from([f.name for f in dataclasses.fields(ExperimentConfig)]), _VALUE)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(lines=st.lists(_LINE, max_size=8))
def test_parse_config_text_gives_a_config_or_a_config_error(lines):
    text = "\n".join(f"{key} = {value}" for key, value in lines)
    try:
        cfg = parse_config_text(text)
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)


SMALL_CONTINUITY = (
    "experiment = continuity\nmeasure = gibbs\nmodes = 8\nensemble_size = 64\n"
    "solver_modes = 24\ntime_grid = 0.1, 0.2, 0.4\nseed = 3\n"
)


def test_continuity_solves_each_exact_transport_once(count_calls):
    from kdvlab.transport import wasserstein_p_exact

    cfg = parse_config_text(SMALL_CONTINUITY)
    solves = count_calls(wasserstein_p_exact)
    rep = run_continuity(cfg)
    # one solve at t = 0, whose plan is also the bound's, and one per grid time
    assert len(solves) == 1 + len(cfg.time_grid)
    assert rep.summary["bound_dominates"] is True
    assert rep.series[0]["bound_w_p"] == rep.series[0]["w_p"]


def test_continuity_at_the_c09_config_solves_no_lp(count_calls):
    # μ and its perturbation keep equal weights under the flow, so every
    # exact W_p is certified from its optimal assignment
    from kdvlab.transport import _transport_lp

    cfg = parse_config_text(
        "experiment = continuity\nmeasure = gibbs\nmodes = 16\nensemble_size = 256\n"
        "solver_modes = 48\ntime_grid = 0.25, 0.5, 1.0\nperturbation = mode_shift\n"
        "perturbation_mode = 3\nperturbation_delta = 1e-3\ns = 0.25\np = 2\nseed = 0\n"
    )
    lps = count_calls(_transport_lp)
    rep = run_continuity(cfg)
    assert lps == []
    assert rep.summary["bound_dominates"] is True


def test_entropic_continuity_bounds_the_bottleneck_by_the_bottleneck_plan():
    # the rounded Sinkhorn plan touches nearly every live pair, so its longest
    # edge says nothing; the bottleneck part is priced over the W_inf plan,
    # which on this coupled pair is the exact backend's plan as well
    exact = run_continuity(parse_config_text(SMALL_CONTINUITY))
    entropic = run_continuity(parse_config_text(SMALL_CONTINUITY + "backend = entropic\n"))
    assert entropic.summary["bound_dominates"] is True
    for row, ref in zip(entropic.series, exact.series, strict=True):
        assert row["w_inf"] == ref["w_inf"]
        assert row["bound_w_inf"] == ref["bound_w_inf"]
        assert row["w_inf"] <= row["bound_w_inf"] < 2 * row["w_inf"]


def test_run_and_write_samples_the_base_ensemble_once(tmp_path, count_calls):
    from kdvlab.kdve_io import read_ensemble
    from kdvlab.measures import sample_gibbs

    draws = count_calls(sample_gibbs)
    report = run_and_write(parse_config_text(SMALL_CONTINUITY), tmp_path / "c")
    assert len(draws) == 1
    back = read_ensemble(tmp_path / "c" / "base.kdve")
    assert np.array_equal(back.coeffs, report.ensemble.coeffs)
    assert np.array_equal(back.weights, report.ensemble.weights)

    # experiments without a base ensemble write none
    cfg = parse_config_text("experiment = galerkin\nmeasure = gaussian\nmodes = 8\n")
    report = run_and_write(cfg, tmp_path / "g")
    assert report.ensemble is None and not (tmp_path / "g" / "base.kdve").exists()


def test_invariance_prices_the_cubic_on_live_rows_only(monkeypatch):
    import kdvlab.experiments
    from kdvlab.spectral import integral_u3_many

    rows = []

    def spy(coeffs):
        rows.append(coeffs.shape[0])
        return integral_u3_many(coeffs)

    monkeypatch.setattr(kdvlab.experiments, "integral_u3_many", spy)
    rep = run_experiment(parse_config_text(SMALL_INVARIANCE))
    ens = rep.ensemble
    live = int(np.count_nonzero(ens.weights > 0))
    assert 0 < live < ens.n
    assert rows == [live, live]
    # dead draws add nothing: the mean equals the one over every row
    w = ens.weights
    assert rep.series[0]["cubic_mean"] == float(np.sum(w * integral_u3_many(ens.coeffs)) / w.sum())
