import numpy as np
import pytest

from kdvlab.bourgain import (
    SpaceTimeField,
    bilinear_scaling_probe,
    l4_inequality_probe,
    random_band_field,
    smooth_bump,
    traveling_wave,
    xsb_norm,
    ys_norm,
    zs_norm,
)
from kdvlab.rng import derive_seed, substream
from kdvlab.spectral import MODE_TO_EXP, TorusField, cosine_mode

SQRT_2PI = np.sqrt(2.0 * np.pi)


def hand_traveling_wave(u0, n_x, n_t):
    """The free sheet synthesised mode by mode on the window [-pi, pi), the reference."""
    t = -np.pi + 2.0 * np.pi * np.arange(n_t) / n_t
    m = u0.n_modes
    k = np.arange(1, m + 1, dtype=np.float64)
    coeffs = u0.modes[None, :] * np.exp(1j * k[None, :] ** 3 * t[:, None])
    spec = np.zeros((n_t, n_x // 2 + 1), dtype=np.complex128)
    spec[:, 1 : m + 1] = coeffs * MODE_TO_EXP
    return (np.fft.irfft(spec, n_x, axis=1) * n_x).T


def hand_band_field(seed, trial, k_band, tau_band, n_x, n_t):
    """The band field's spectrum filled entry by entry, the reference."""
    rng = substream(derive_seed(seed, 0xBA2D), trial)
    z = rng.standard_normal((k_band, 2 * tau_band + 1, 2)).view(np.complex128)[..., 0]
    full = np.zeros((n_x, n_t), dtype=np.complex128)
    for row, k in enumerate(range(1, k_band + 1)):
        for col, m in enumerate(range(-tau_band, tau_band + 1)):
            full[k, m] = z[row, col]
            full[-k, -m] = np.conj(z[row, col])
    return np.real(np.fft.ifft2(full) * (n_x * n_t))


def same_bits(got, want):
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("m, n_x, n_t", [(1, 8, 16), (5, 32, 8), (12, 64, 256), (31, 64, 64)])
def test_traveling_wave_has_the_bits_of_the_hand_synthesis(m, n_x, n_t):
    rng = np.random.default_rng(m)
    u0 = TorusField(rng.standard_normal(m) + 1j * rng.standard_normal(m))
    got = traveling_wave(u0, n_x, n_t).values
    assert same_bits(got, hand_traveling_wave(u0, n_x, n_t))


@pytest.mark.parametrize("seed, trial, k_band, tau_band, n_x, n_t", [
    (3, 0, 4, 8, 32, 64), (1, 2, 1, 0, 8, 8), (5, 7, 7, 20, 16, 64), (2, 1, 3, 3, 64, 8),
])
def test_band_field_has_the_bits_of_the_hand_synthesis(seed, trial, k_band, tau_band, n_x, n_t):
    got = random_band_field(seed, trial, k_band, tau_band, n_x, n_t).values
    assert same_bits(got, hand_band_field(seed, trial, k_band, tau_band, n_x, n_t))


def test_grid_validation():
    with pytest.raises(ValueError):
        SpaceTimeField(np.zeros((12, 16)))  # not a power of two
    with pytest.raises(ValueError):
        SpaceTimeField(np.zeros((4, 16)))  # too small
    vals = np.ones((16, 16))  # nonzero spatial mean
    with pytest.raises(ValueError):
        SpaceTimeField(vals)


def test_on_shell_wave_norm_values():
    # the free single-mode wave sits exactly on tau = k^3, weight one for all b
    wave = traveling_wave(cosine_mode(1), 64, 64)
    assert wave.l2_norm() == pytest.approx(SQRT_2PI, rel=1e-12)
    for b in (-0.5, 0.0, 0.5, 1.0):
        assert xsb_norm(wave, 0.0, b) == pytest.approx(SQRT_2PI, rel=1e-12)
    # two-term norms in closed form: each adds another sqrt(2 pi)
    assert ys_norm(wave, 0.0) == pytest.approx(2.0 * SQRT_2PI, rel=1e-12)
    assert zs_norm(wave, 0.0) == pytest.approx(2.0 * SQRT_2PI, rel=1e-12)


def test_off_shell_weight_ratio():
    n_x, n_t = 64, 64
    x = 2.0 * np.pi * np.arange(n_x) / n_x
    t = -np.pi + 2.0 * np.pi * np.arange(n_t) / n_t
    on = traveling_wave(cosine_mode(1), n_x, n_t)
    off = SpaceTimeField(np.cos(x[:, None] + 9.0 * t[None, :]) / np.sqrt(np.pi))
    for b in (0.5, -0.5, 1.0):
        ratio = xsb_norm(off, 0.0, b) / xsb_norm(on, 0.0, b)
        assert ratio == pytest.approx(9.0**b, rel=1e-12)  # <8> = 9


def test_zero_field_norms():
    zero = SpaceTimeField(np.zeros((16, 16)))
    assert xsb_norm(zero, 0.3, 0.5) == 0.0
    assert ys_norm(zero, 0.3) == 0.0
    assert zs_norm(zero, 0.3) == 0.0


def test_absolute_homogeneity():
    fld = random_band_field(3, 0, 4, 8, 32, 64)
    doubled = SpaceTimeField(2.0 * np.asarray(fld.values))
    for s in (0.0, 0.4):
        assert abs(xsb_norm(doubled, s, 0.5) - 2.0 * xsb_norm(fld, s, 0.5)) <= 1e-12 * xsb_norm(doubled, s, 0.5)
        assert abs(ys_norm(doubled, s) - 2.0 * ys_norm(fld, s)) <= 1e-12 * ys_norm(doubled, s)
        assert abs(zs_norm(doubled, s) - 2.0 * zs_norm(fld, s)) <= 1e-12 * zs_norm(doubled, s)


def test_plancherel_identity():
    for trial in range(5):
        fld = random_band_field(11, trial, 5, 12, 64, 64)
        l2 = fld.l2_norm()
        assert abs(xsb_norm(fld, 0.0, 0.0) - l2) <= 1e-10 * max(1.0, l2)


def test_band_field_determinism_and_resolution_independence():
    a = random_band_field(5, 7, 4, 10, 64, 64)
    b = random_band_field(5, 7, 4, 10, 64, 64)
    assert np.array_equal(a.values, b.values)
    fine = random_band_field(5, 7, 4, 10, 128, 128)
    # band-limited: the L4 quadrature is already exact at both resolutions
    assert a.l4_norm() == pytest.approx(fine.l4_norm(), rel=1e-12)


def test_smooth_bump_shape():
    x = np.array([-2.5, -2.0, -1.5, -1.0, 0.0, 1.0, 1.5, 2.0, 3.0])
    vals = smooth_bump(x)
    assert np.all(vals[np.abs(x) <= 1.0] == 1.0)
    assert np.all(vals[np.abs(x) >= 2.0] == 0.0)
    assert np.all((vals >= 0) & (vals <= 1))


def test_l4_probe_amplitude_invariance_and_stability():
    res = l4_inequality_probe(100, (64, 64), seed=1)
    assert np.all(np.isfinite(res.ratios)) and res.max_ratio > 0
    doubled = l4_inequality_probe(100, (128, 128), seed=1)
    growth = doubled.max_ratio / res.max_ratio - 1.0
    assert abs(growth) < 0.10

    # single on-shell mode: the ratio does not depend on the amplitude
    wave = traveling_wave(cosine_mode(1), 64, 64)
    big = SpaceTimeField(7.0 * np.asarray(wave.values))
    weight = (1.0 + np.abs(wave.tau[None, :] - wave.k[:, None] ** 3)) ** (2.0 / 3.0)
    for fld in (wave, big):
        rhs = np.sqrt(np.sum(weight * np.abs(fld.spectrum) ** 2))
        ratio = fld.l4_norm() / rhs
        assert ratio == pytest.approx(wave.l4_norm() / np.sqrt(np.sum(weight * np.abs(wave.spectrum) ** 2)), rel=1e-12)


def test_l4_probe_requires_enough_trials():
    with pytest.raises(ValueError):
        l4_inequality_probe(10, (64, 64))


def test_bilinear_probe_single_mode():
    u = traveling_wave(cosine_mode(1), 64, 512)
    res = bilinear_scaling_probe(u, u, 0.0, [1.0, 0.5, 0.25, 0.125])
    assert np.all(np.isfinite(res.ratios))
    assert np.all(res.ratios <= res.max_ratio)
    assert res.max_ratio > 0
    # s = 0 symmetric inputs: the normaliser reduces to 2 |u|_{Y^0}^2
    y0 = ys_norm(u, 0.0)
    assert res.rhs[0] == pytest.approx(2.0 * y0 * y0, rel=1e-12)


def test_bilinear_probe_zero_input():
    u = traveling_wave(cosine_mode(1), 64, 512)
    zero = SpaceTimeField(np.zeros_like(u.values))
    res = bilinear_scaling_probe(u, zero, 0.25, [1.0, 0.5, 0.25, 0.125])
    assert np.all(res.lhs == 0.0)
    assert np.all(res.ratios == 0.0)


def test_bilinear_probe_grid_validation():
    u = traveling_wave(cosine_mode(1), 64, 512)
    with pytest.raises(ValueError):
        bilinear_scaling_probe(u, u, 0.0, [1.0, 0.5])  # too few points
    with pytest.raises(ValueError):
        bilinear_scaling_probe(u, u, 0.0, [2.0, 1.0, 0.5, 0.25])  # outside (0, 1]


@pytest.mark.parametrize("s", [float("nan"), float("inf"), -1.0])
def test_bourgain_exponents_obey_the_hs_rule(s):
    # the exponent rule every other H^s norm keeps, with its message
    u = traveling_wave(cosine_mode(1), 64, 512)
    for norm in (lambda: xsb_norm(u, s, 0.5), lambda: ys_norm(u, s), lambda: zs_norm(u, s),
                 lambda: bilinear_scaling_probe(u, u, s, [1.0, 0.5, 0.25, 0.125])):
        with pytest.raises(ValueError, match="regularity exponent must be >= 0 and finite"):
            norm()


def test_probe_csv_outputs(tmp_path):
    res = l4_inequality_probe(100, (64, 64), seed=2)
    path = tmp_path / "l4.csv"
    res.write_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "trial,resolution,lhs,rhs,ratio"

    u = traveling_wave(cosine_mode(1), 64, 512)
    res2 = bilinear_scaling_probe(u, u, 0.0, [1.0, 0.5, 0.25, 0.125])
    path2 = tmp_path / "bil.csv"
    res2.write_csv(path2)
    assert path2.read_text().splitlines()[0] == "trial,T,lhs,rhs,ratio"
