import numpy as np
import pytest

from kdvlab.fitting import bootstrap_weighted_mean
from kdvlab.measures import (
    DegenerateEnsembleError,
    GaussianSpec,
    GibbsSpec,
    InsufficientDataError,
    WeightedEnsemble,
    expected_hs_norm_sq,
    f_convergence_probe,
    gibbs_weight,
    pushforward,
    pushforward_linear,
    pushforward_many,
    sample_gaussian,
    sample_gibbs,
    tail_fit,
)
from kdvlab.flow import SolverConfig
from kdvlab.rng import substream
from kdvlab.spectral import cosine_mode, linf_norms_many, sobolev_norm, zero_field

SQRT_PI = np.sqrt(np.pi)


def test_single_sample_definition():
    # sample 0 of stream sigma uses the first 2M normals: M cosines then M sines
    ens = sample_gaussian(GaussianSpec(n_modes=1, seed=7), 1)
    z = substream(7, 0).standard_normal(2)
    manual = (z[0] - 1j * z[1]) * SQRT_PI / 2.0
    assert ens.coeffs[0, 0] == manual


def test_sampler_determinism():
    spec = GaussianSpec(n_modes=8, seed=123)
    a = sample_gaussian(spec, 64)
    b = sample_gaussian(spec, 64)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert np.array_equal(a.weights, b.weights)


def test_sampler_moments_small():
    ens = sample_gaussian(GaussianSpec(n_modes=16, seed=5), 2048)
    for s in (0.0, 0.25, 0.45):
        vals = ens.hs_norms(s) ** 2
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - expected_hs_norm_sq(16, s)) < 3.0 * se


def test_expected_hs_norm_sq_values():
    assert expected_hs_norm_sq(1, 0.3) == pytest.approx(2.0)
    assert expected_hs_norm_sq(2, 0.0) == pytest.approx(2.5)
    # independent partial-sum oracle
    total = 0.0
    for n in range(1, 17):
        total += 2.0 * n**-2.0
    assert expected_hs_norm_sq(16, 0.0) == pytest.approx(total, abs=1e-14)
    for s in (0.5, -0.1, np.nan):  # the closed form's range is 0 <= s < 1/2
        with pytest.raises(ValueError, match="0 <= s < 1/2"):
            expected_hs_norm_sq(4, s)


def test_expected_hs_norm_monotone_in_truncation():
    values = [expected_hs_norm_sq(m, 0.25) for m in range(1, 40)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_gibbs_weight_examples():
    spec = GibbsSpec(GaussianSpec(n_modes=2))
    assert gibbs_weight(2.0 * cosine_mode(1), spec) == 0.0  # outside the L2 ball
    assert gibbs_weight(zero_field(2), spec) == 1.0
    u = 0.5 * (cosine_mode(1, 2) + cosine_mode(2))
    expect = np.exp((1.0 / 6.0) * 0.125 * 3.0 / (2.0 * SQRT_PI))
    assert gibbs_weight(u, spec) == pytest.approx(expect, rel=1e-12)
    assert expect == pytest.approx(1.0178, abs=1e-4)


def test_gibbs_weight_projection():
    spec = GibbsSpec(GaussianSpec(n_modes=2), projection=1)
    u = 0.5 * (cosine_mode(1, 2) + cosine_mode(2))
    # the projected field is a pure cosine whose cubic integral vanishes
    assert gibbs_weight(u, spec) == pytest.approx(1.0, rel=1e-12)


def test_sample_gibbs_flat_when_unweighted():
    spec = GibbsSpec(GaussianSpec(n_modes=4, seed=9), cubic_coefficient=0.0,
                     cutoff_radius=np.inf)
    ens, kappa = sample_gibbs(spec, 128)
    assert kappa == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(ens.weights, 1.0 / 128)


def test_sample_gibbs_support_and_degeneracy():
    ens, _ = sample_gibbs(GibbsSpec(GaussianSpec(n_modes=16, seed=1)), 512)
    live = ens.weights > 0
    assert np.all(ens.l2_norms()[live] <= 1.0)
    with pytest.raises(DegenerateEnsembleError):
        sample_gibbs(GibbsSpec(GaussianSpec(n_modes=16, seed=1), cutoff_radius=1e-8), 64)


def test_sample_gibbs_kappa_cross_seed():
    # kappa from one seed must be inside the bootstrap interval of another run
    from kdvlab.measures import _gaussian_coeffs, _gibbs_weights_raw

    spec_a = GibbsSpec(GaussianSpec(n_modes=16, seed=21))
    spec_b = GibbsSpec(GaussianSpec(n_modes=16, seed=22))
    _, kappa_a = sample_gibbs(spec_a, 4096)
    raw_b = _gibbs_weights_raw(_gaussian_coeffs(spec_b.base, 4096), spec_b)
    boot = bootstrap_weighted_mean(
        raw_b, np.full(raw_b.size, 1.0 / raw_b.size), n_replicas=200, seed=3
    )
    lo, hi = 1.0 / boot.hi95, 1.0 / boot.lo95
    assert lo <= kappa_a <= hi


def test_resampling_flag_and_uniformity():
    spec = GibbsSpec(GaussianSpec(n_modes=8, seed=4))
    ens, _ = sample_gibbs(spec, 256, resample=True)
    assert ens.resampled is True
    assert np.allclose(ens.weights, 1.0 / 256)
    again, _ = sample_gibbs(spec, 256, resample=True)
    assert np.array_equal(ens.coeffs, again.coeffs)


def test_gibbs_spec_rejects_a_non_finite_cubic_coefficient():
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="cubic coefficient"):
            GibbsSpec(GaussianSpec(n_modes=4), cubic_coefficient=bad)


def test_weighted_ensemble_validation():
    coeffs = np.zeros((2, 2), dtype=complex)
    with pytest.raises(ValueError):
        WeightedEnsemble(coeffs, [0.7, 0.7])
    with pytest.raises(ValueError):
        WeightedEnsemble(coeffs, [-0.2, 1.2])
    with pytest.raises(ValueError):
        WeightedEnsemble(np.zeros((0, 2), dtype=complex), [])


def test_tail_fit_trivial_cases():
    coeffs = np.tile(cosine_mode(1).modes, (600, 1))
    ens = WeightedEnsemble(coeffs, np.full(600, 1.0 / 600))
    # every field equals c_1; survival above its L2 norm is zero everywhere
    with pytest.raises(InsufficientDataError):
        tail_fit(ens, "l2", [1.5, 2.0, 2.5, 3.0])

    gauss = sample_gaussian(GaussianSpec(n_modes=8, seed=2), 1024)
    radii = np.quantile(gauss.l2_norms(), [0.5, 0.7, 0.9, 0.95, 0.99])
    fit = tail_fit(gauss, "l2", radii)
    assert fit.slope < 0
    below = tail_fit(gauss, "l2", np.concatenate([[1e-6, 2e-6], radii]))
    assert below.survival[0] == 1.0 and below.survival[1] == 1.0


def test_tail_fit_needs_effective_samples():
    small = sample_gaussian(GaussianSpec(n_modes=4, seed=3), 100)
    with pytest.raises(InsufficientDataError):
        tail_fit(small, "l2", [0.5, 1.0, 1.5])


def test_tail_fit_hs_negative_slope():
    ens = sample_gaussian(GaussianSpec(n_modes=16, seed=6), 2048)
    radii = np.quantile(ens.hs_norms(0.25), [0.55, 0.7, 0.85, 0.95, 0.99])
    fit = tail_fit(ens, "hs", radii, s=0.25)
    assert fit.slope < 0


def test_f_convergence_exact_zero_cases():
    spec = GibbsSpec(GaussianSpec(n_modes=8, seed=8))
    res = f_convergence_probe(spec, [2, 8, 16], 512)
    assert res.estimates[-1] == 0.0  # projection at the sampler truncation
    flat = f_convergence_probe(
        GibbsSpec(GaussianSpec(n_modes=8, seed=8), cubic_coefficient=0.0), [2, 4], 512
    )
    assert np.all(flat.estimates == 0.0)


def test_f_convergence_decreasing():
    spec = GibbsSpec(GaussianSpec(n_modes=32, seed=3))
    res = f_convergence_probe(spec, [2, 4, 8], 4096)
    assert np.all(res.pair_deltas > -2.0 * res.pair_std_errors)
    assert np.all(np.diff(res.estimates) < 0)


def test_pushforward_keeps_weights_and_dead_points():
    ens, _ = sample_gibbs(GibbsSpec(GaussianSpec(n_modes=8, seed=11)), 64)
    out = pushforward(ens, 0.05, SolverConfig(n_modes=16, dt=1e-3))
    assert np.array_equal(out.weights, ens.weights)
    dead = ens.weights == 0
    assert np.array_equal(out.coeffs[dead][:, :8], ens.coeffs[dead])
    live = ~dead
    assert np.any(np.abs(out.coeffs[live][:, :8] - ens.coeffs[live]) > 1e-12)


def _same_ensemble(x, y):
    return (
        np.array_equal(x.coeffs.view(np.float64), y.coeffs.view(np.float64))
        and np.array_equal(x.weights, y.weights)
        and x.resampled == y.resampled
    )


def test_pushforward_many_equals_pushforward_when_the_steps_agree():
    cfg = SolverConfig(n_modes=16)
    mu, _ = sample_gibbs(GibbsSpec(GaussianSpec(n_modes=8, seed=11)), 64)
    nu, _ = sample_gibbs(GibbsSpec(GaussianSpec(n_modes=8, seed=12)), 96)
    assert np.any(mu.weights == 0) and np.any(nu.weights == 0)
    # the 1e-3 cap binds for both, so the joint batch keeps each one's step
    amps = [np.max(linf_norms_many(e.coeffs[e.weights > 0])) for e in (mu, nu)]
    assert all(cfg.step_size(a) == 1e-3 for a in amps)
    joint = pushforward_many([mu, nu], 0.03, cfg)
    assert len(joint) == 2
    assert _same_ensemble(joint[0], pushforward(mu, 0.03, cfg))
    assert _same_ensemble(joint[1], pushforward(nu, 0.03, cfg))


@pytest.mark.parametrize("resample", [False, True])
def test_resampled_flag_survives_every_derived_ensemble(tmp_path, resample):
    from kdvlab.experiments import _perturb, parse_config_text
    from kdvlab.kdve_io import read_ensemble, write_ensemble

    ens, _ = sample_gibbs(GibbsSpec(GaussianSpec(n_modes=8, seed=4)), 64, resample=resample)
    assert ens.resampled is resample
    cfg = SolverConfig(n_modes=16)
    derived = {
        "padded": ens.padded(12),
        "replace": ens.replace(coeffs=2.0 * ens.coeffs),
        "pushforward_many": pushforward_many([ens, ens], 0.01, cfg)[1],
        "pushforward_linear": pushforward_linear(ens, 0.3),
    }
    for perturbation in ("mode_shift", "rescale"):
        exp = parse_config_text(f"perturbation = {perturbation}\nperturbation_mode = 10\n")
        derived[perturbation] = _perturb(ens, exp)
    write_ensemble(tmp_path / "e.kdve", ens)
    derived["kdve round trip"] = read_ensemble(tmp_path / "e.kdve")
    for name, out in derived.items():
        assert out.resampled is resample, name


def test_pushforward_many_steps_every_ensemble_with_the_smaller_step():
    cfg = SolverConfig(n_modes=16)
    rng = np.random.default_rng(5)
    calm = WeightedEnsemble(0.05 * rng.standard_normal((6, 8)), np.full(6, 1 / 6))
    wild = WeightedEnsemble(20.0 * rng.standard_normal((6, 8)), np.full(6, 1 / 6))
    wild_step = cfg.step_size(float(np.max(linf_norms_many(wild.coeffs))))
    assert wild_step < cfg.step_size(float(np.max(linf_norms_many(calm.coeffs)))) == 1e-3
    joint = pushforward_many([calm, wild], 0.01, cfg)
    assert _same_ensemble(joint[1], pushforward(wild, 0.01, cfg))
    assert not _same_ensemble(joint[0], pushforward(calm, 0.01, cfg))
    at_wild_step = SolverConfig(n_modes=16, dt=wild_step)
    assert _same_ensemble(joint[0], pushforward(calm, 0.01, at_wild_step))


def test_pushforward_many_fits_each_ensemble_to_the_solver_modes():
    cfg = SolverConfig(n_modes=16)
    mu, _ = sample_gibbs(GibbsSpec(GaussianSpec(n_modes=8, seed=11)), 64)
    nu, _ = sample_gibbs(GibbsSpec(GaussianSpec(n_modes=12, seed=12)), 96)
    padded = [e.padded(16) for e in (mu, nu)]
    assert all(np.any(e.weights == 0) for e in padded)
    # the 1e-3 cap binds for both, so the joint batch keeps each one's step
    amps = [np.max(linf_norms_many(e.coeffs[e.weights > 0])) for e in padded]
    assert all(cfg.step_size(a) == 1e-3 for a in amps)
    joint = pushforward_many([mu, nu], 0.03, cfg)
    for got, ens in zip(joint, padded, strict=True):
        want = pushforward(ens, 0.03, cfg)
        assert np.array_equal(got.coeffs.view(np.float64), want.coeffs.view(np.float64))
        assert np.array_equal(got.weights, want.weights) and got.resampled == want.resampled


def test_weighted_ensemble_rejects_non_finite_coefficients():
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        coeffs = np.zeros((2, 3), dtype=complex)
        coeffs[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            WeightedEnsemble(coeffs, [0.5, 0.5])


@pytest.mark.parametrize("m", [1, 5, 16])
@pytest.mark.parametrize("seed", [0, 2**63 + 7, 0xDEADBEEFCAFEBABE])
def test_gaussian_coeffs_match_the_per_substream_reference(seed, m):
    from kdvlab.measures import _gaussian_coeffs
    from kdvlab.spectral import BASIS_TO_MODE

    n = 96
    scale = BASIS_TO_MODE / np.arange(1, m + 1, dtype=np.float64)
    expect = np.empty((n, m), dtype=np.complex128)
    for i in range(n):
        z = substream(seed, i).standard_normal(2 * m)
        expect[i] = (z[:m] - 1j * z[m:]) * scale
    assert _gaussian_coeffs(GaussianSpec(n_modes=m, seed=seed), n).tobytes() == expect.tobytes()


@pytest.mark.parametrize("projection", [None, 3])
def test_gibbs_weights_price_the_cubic_inside_the_cutoff_only(projection, monkeypatch):
    from kdvlab import spectral
    from kdvlab.measures import _gaussian_coeffs, _gibbs_weights_raw

    spec = GibbsSpec(GaussianSpec(n_modes=8, seed=5), cutoff_radius=1.2, projection=projection)
    coeffs = _gaussian_coeffs(spec.base, 400)
    before = coeffs.copy()
    full = coeffs.copy()
    if projection is not None:
        full[:, projection:] = 0.0
    inside = spectral.sobolev_norms_many(coeffs, 0.0) <= spec.cutoff_radius
    assert 0 < inside.sum() < coeffs.shape[0]
    expect = np.where(
        inside, np.exp(spec.cubic_coefficient * spectral.integral_u3_many(full)), 0.0
    )

    seen = []
    integral = spectral.integral_u3_many

    def recording(rows):
        seen.append(rows.copy())
        return integral(rows)

    monkeypatch.setattr(spectral, "integral_u3_many", recording)
    raw = _gibbs_weights_raw(coeffs, spec)
    assert raw.tobytes() == expect.tobytes()
    assert np.all(raw[~inside] == 0.0) and np.all(raw[inside] > 0.0)
    assert len(seen) == 1 and np.array_equal(seen[0], full[inside])
    assert np.array_equal(coeffs, before)
