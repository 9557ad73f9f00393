import numpy as np
import pytest

from kdvlab.flow import (
    FlowDivergenceError,
    SolverConfig,
    conserved_report,
    evolve,
    evolve_many,
    evolve_projected,
    linear_flow,
    linear_flow_many,
    trajectory,
)
from kdvlab.spectral import (
    TorusField,
    alias_free_points,
    cosine_mode,
    fit_modes,
    linf_norms_many,
    sine_mode,
    sobolev_norm,
)


def random_field(rng, m, scale=0.2):
    return TorusField(scale * (rng.standard_normal(m) + 1j * rng.standard_normal(m)))


def test_linear_flow_single_mode_rotation():
    t = 0.7
    target = np.cos(t) * cosine_mode(1) + (-np.sin(t)) * sine_mode(1)
    assert np.allclose(linear_flow(cosine_mode(1), t).modes, target.modes, atol=1e-15)


def test_linear_flow_identity_and_full_period():
    u = TorusField([0.3 - 0.1j, 0.2j, 0.05])
    assert np.array_equal(linear_flow(u, 0.0).modes, u.modes)
    # mode 2 at t = pi/4 accumulates phase 8 * pi/4 = 2 pi
    moved = linear_flow(cosine_mode(2), np.pi / 4)
    assert np.allclose(moved.modes, cosine_mode(2).modes, atol=1e-14)


def test_linear_flow_isometry():
    rng = np.random.default_rng(10)
    for _ in range(100):
        u = random_field(rng, int(rng.integers(1, 16)))
        t = float(rng.uniform(-5, 5))
        s = float(rng.uniform(0, 2))
        n0 = sobolev_norm(u, s)
        n1 = sobolev_norm(linear_flow(u, t), s)
        assert abs(n1 - n0) <= 1e-12 * max(1.0, n0)


def test_linear_flow_is_its_batched_form_row_by_row():
    rng = np.random.default_rng(12)
    for m in range(1, 97):
        rows = 0.3 * (rng.standard_normal((3, m)) + 1j * rng.standard_normal((3, m)))
        t = float(rng.uniform(-5, 5))
        batch = linear_flow_many(rows, t)
        k = np.arange(1, m + 1, dtype=np.float64)
        for row, got in zip(rows, batch):
            # the one-field formula linear_flow had before it became a view
            want = row * np.exp(1j * k**3 * t)
            assert np.array_equal(got.view(np.float64), want.view(np.float64))
            assert np.array_equal(linear_flow(TorusField(row), t).modes, got)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(n_modes=2)
    for dt in (-1e-3, np.inf, np.nan):
        with pytest.raises(ValueError, match="finite and positive"):
            SolverConfig(dt=dt)
    cfg = SolverConfig(n_modes=64, dt=1.0)
    with pytest.raises(ValueError):
        evolve(cosine_mode(1), 0.5, cfg)  # dt above the stability limit


def test_evolve_identity_at_zero_time():
    u = cosine_mode(1, 2) + 0.5 * cosine_mode(2)
    assert evolve(u, 0.0, SolverConfig(n_modes=16)) is u


def test_batch_flow_is_the_identity_at_zero_time():
    rng = np.random.default_rng(0)
    c = rng.standard_normal((200, 16)) + 1j * rng.standard_normal((200, 16))
    padded = np.pad(c, ((0, 0), (0, 8)))
    for got, want in [
        (evolve_many(c, 0.0, SolverConfig(n_modes=24)), padded),
        (evolve_many(c, 0.0, SolverConfig(n_modes=16)), c),
        (evolve_many(padded, 0.0, SolverConfig(n_modes=16)), c),  # zero modes are cut
    ]:
        assert got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))
    with pytest.raises(ValueError):
        evolve_many(c, 0.0, SolverConfig(n_modes=8))  # nonzero modes above the truncation


def test_zero_modes_padding_a_field_do_not_change_its_flow():
    # the step is sized on the rows fitted to the solver's modes, so the
    # sup-norm grid, and with it the step, does not see the input's width
    rng = np.random.default_rng(3)
    c = 8.0 * (rng.standard_normal((6, 8)) + 1j * rng.standard_normal((6, 8)))
    padded = np.pad(c, ((0, 0), (0, 8)))
    cfg = SolverConfig(n_modes=16)
    # the input widths sample different sup-norms, both past the 1e-3 cap
    amps = [float(np.max(linf_norms_many(x))) for x in (c, padded)]
    assert amps[0] != amps[1] and max(cfg.step_size(a) for a in amps) < 1e-3
    narrow, wide = evolve_many(c, 1.0, cfg), evolve_many(padded, 1.0, cfg)
    assert np.array_equal(narrow.view(np.float64), wide.view(np.float64))


def test_evolve_small_amplitude_matches_linear_flow():
    cfg = SolverConfig(n_modes=16, dt=1e-3)
    ratios = []
    for eps in (1e-4, 5e-5):
        u0 = eps * cosine_mode(1)
        d = sobolev_norm(evolve(u0, 0.1, cfg) - linear_flow(u0, 0.1), 0.0)
        ratios.append(d / eps**2)
    assert 0.5 < ratios[0] / ratios[1] < 2.0


def test_evolve_l2_conservation_single_mode():
    out = evolve(cosine_mode(1), 0.5, SolverConfig(n_modes=64, dt=1e-3))
    assert abs(sobolev_norm(out, 0.0) - 1.0) < 1e-8


def test_conserved_report_trivial_and_linear():
    u = cosine_mode(1, 2) + 0.5 * cosine_mode(2)
    rep = conserved_report(trajectory(u, [0.4], SolverConfig(n_modes=8, dt=1e-2)))
    assert rep.l2_rel_drift == 0.0 and rep.hamiltonian_rel_drift == 0.0
    assert rep.mean_abs_drift == 0.0

    # exact isometry of the linear group
    times = np.linspace(0.1, 1.0, 10)
    states = [linear_flow(cosine_mode(1), float(t)) for t in times]
    l2 = np.array([sobolev_norm(st, 0.0) for st in states])
    assert np.max(np.abs(l2 - l2[0])) < 1e-12


def test_conserved_report_nonlinear_run():
    u0 = cosine_mode(1, 2) + 0.5 * cosine_mode(2)
    traj = trajectory(u0, np.linspace(0.1, 1.0, 10), SolverConfig(n_modes=64, dt=1e-3))
    rep = conserved_report(traj)
    assert rep.l2_rel_drift < 1e-8
    assert rep.hamiltonian_rel_drift < 1e-6
    assert rep.mean_abs_drift == 0.0


def test_group_property_aligned_steps():
    rng = np.random.default_rng(11)
    cfg = SolverConfig(n_modes=32, dt=1e-3)
    for _ in range(5):
        u = random_field(rng, 8, scale=0.1)
        scale = sobolev_norm(u, 0.0)
        if scale > 1.0:
            u = (1.0 / scale) * u
        composed = evolve(evolve(u, 0.3, cfg), 0.2, cfg)
        direct = evolve(u, 0.5, cfg)
        drift = conserved_report(
            trajectory(u, [0.25, 0.5], cfg)
        ).l2_rel_drift
        gap = sobolev_norm(composed - direct, 0.0)
        assert gap < 5.0 * max(drift, 1e-13)


def test_reversibility():
    u0 = cosine_mode(1, 2) + 0.5 * cosine_mode(2)
    cfg = SolverConfig(n_modes=64, dt=1e-3)
    back = evolve(evolve(u0, 0.5, cfg), -0.5, cfg)
    assert sobolev_norm(back - u0.padded(64), 0.0) < 1e-7


def test_temporal_order_fourth():
    u0 = 0.5 * (cosine_mode(1, 2) + 0.5 * cosine_mode(2))
    ref = evolve(u0, 0.5, SolverConfig(n_modes=32, dt=2.5e-3 / 16))
    errs = [
        sobolev_norm(evolve(u0, 0.5, SolverConfig(n_modes=32, dt=dt)) - ref, 0.0)
        for dt in (1e-2, 5e-3, 2.5e-3)
    ]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(3.5 <= o <= 4.5 for o in orders), orders


def test_projected_equals_full_at_band():
    u0 = cosine_mode(1, 2) + 0.5 * cosine_mode(2)
    cfg = SolverConfig(n_modes=32, dt=1e-3)
    a = evolve(u0, 0.4, cfg)
    b = evolve_projected(u0, 0.4, 32, cfg)
    assert np.max(np.abs(a.modes - b.modes)) < 1e-10


def test_projected_zero_low_band_is_linear():
    hi = TorusField(np.concatenate([np.zeros(5), [0.3 - 0.2j, 0.1j]]))
    cfg = SolverConfig(n_modes=16, dt=1e-3)
    lp = evolve_projected(hi, 0.3, 5, cfg)
    lin = linear_flow(hi.padded(16), 0.3)
    assert np.max(np.abs(lp.modes - lin.modes)) < 1e-12


def test_projected_trivial_cases():
    cfg = SolverConfig(n_modes=8)
    u = cosine_mode(1)
    assert evolve_projected(u, 0.0, 1, cfg) is u
    with pytest.raises(ValueError):
        evolve_projected(u, 0.1, 9, cfg)


def test_evolve_batch_matches_single():
    rng = np.random.default_rng(12)
    cfg = SolverConfig(n_modes=16, dt=1e-3)
    coeffs = np.stack([random_field(rng, 8).modes for _ in range(4)])
    batch = evolve_many(coeffs, 0.2, cfg)
    # shared batch step size must be reproduced for a fair comparison
    for i in range(4):
        single = evolve_many(coeffs[i : i + 1], 0.2, cfg)
        assert np.max(np.abs(batch[i] - single[0])) < 1e-9


def _oracle_rhs(m, nl_band, grid_n):
    # the allocate-per-stage right-hand side the preallocated stepper replaced
    n_bins = grid_n // 2 + 1
    ik = 1j * np.arange(m + 1, dtype=np.float64)

    def rhs(chat):
        buf = np.zeros(chat.shape[:-1] + (n_bins,), dtype=np.complex128)
        buf[..., 1 : nl_band + 1] = chat[..., 1 : nl_band + 1]
        u = np.fft.irfft(buf, grid_n, axis=-1, norm="forward")
        what = np.fft.rfft(u * u, axis=-1, norm="forward")
        out = -0.5 * ik * what[..., : m + 1]
        out[..., nl_band + 1 :] = 0.0
        return out

    return rhs


def _oracle_ifrk4(chat, n_steps, h, m, rhs):
    k = np.arange(m + 1, dtype=np.float64)
    phase = 1j * k**3
    e_full = np.exp(h * phase)
    e_half = np.exp(0.5 * h * phase)
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(n_steps):
            n1 = rhs(chat)
            n2 = rhs(e_half * (chat + (0.5 * h) * n1))
            n3 = rhs(e_half * chat + (0.5 * h) * n2)
            n4 = rhs(e_full * chat + h * (e_half * n3))
            chat = e_full * chat + (h / 6.0) * (e_full * n1 + 2.0 * e_half * (n2 + n3) + n4)
            if not np.all(np.isfinite(chat.view(np.float64))):
                raise FlowDivergenceError(step)
    return chat


def _oracle_evolve(coeffs, t, cfg, band=None):
    from kdvlab import flow

    m = cfg.n_modes
    coeffs = fit_modes(coeffs, m)
    amplitude = float(np.max(flow.linf_norms_many(coeffs)))
    dt = cfg.step_size(amplitude)
    n_steps = max(1, int(np.ceil(abs(t) / dt)))
    rhs = _oracle_rhs(m, m if band is None else band, alias_free_points(m))
    chat = _oracle_ifrk4(_row_major_state(coeffs), n_steps, t / n_steps, m, rhs)
    return chat[..., 1:] / flow.MODE_TO_EXP


def _row_major_state(coeffs):
    """Amplitudes (batch, m) -> the oracles' (batch, m+1) state of e^{ikx} coefficients."""
    from kdvlab import flow

    return np.pad(coeffs * flow.MODE_TO_EXP, ((0, 0), (1, 0)))


def _bits(x):
    """The bit patterns of a complex array, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(x).view(np.int64)


def _smooth(n):
    """Whether n is 2^a, 3 * 2^a or 5 * 2^a."""
    while n % 2 == 0:
        n //= 2
    return n in (1, 3, 5)


def test_grid_size_is_the_least_fast_alias_free_length():
    # the stepper calls the even-length forward transform only
    assert all(alias_free_points(m) % 2 == 0 for m in range(1, 4097))
    for m in range(4, 257):
        n = alias_free_points(m)
        power = 1 << (3 * m).bit_length()  # least power of two >= 3m+1
        assert 3 * m + 1 <= n <= power and _smooth(n)
        assert not any(_smooth(k) for k in range(3 * m + 1, n))
    want = [64, 80, 96, 160, 256, 256, 320]
    assert [alias_free_points(m) for m in (16, 24, 31, 48, 64, 80, 96)] == want


def _convolution_rhs(chat, m, band):
    """-(ik/2) sum_{j+l=k} u_j u_l over the modes |j|, |l| <= band, directly in mode space."""
    x = chat[1 : band + 1]
    full = np.concatenate([np.conj(x[::-1]), [0.0], x])  # modes -band..band
    square = np.convolve(full, full)[2 * band :]  # modes 0..2 band
    out = np.zeros(m + 1, dtype=np.complex128)
    k = np.arange(min(m, 2 * band) + 1)
    out[k] = -0.5j * k * square[k]
    out[band + 1 :] = 0.0
    return out


@pytest.mark.parametrize("m", [4, 16, 31, 48, 96])
def test_rhs_on_the_padded_grid_is_the_alias_free_convolution(m):
    # the stepper's rhs is the oracle's bit for bit (the test below); here the
    # oracle on the grid alias_free_points picks equals the direct convolution,
    # and a grid of 3m points, one short, lets the product's top modes fold back
    rng = np.random.default_rng(m)
    chat = np.zeros(m + 1, dtype=np.complex128)
    chat[1:] = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    for band in (m, max(1, m // 3)):
        want = _convolution_rhs(chat, m, band)
        got = _oracle_rhs(m, band, alias_free_points(m))(chat)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    want = _convolution_rhs(chat, m, m)
    short = _oracle_rhs(m, m, 3 * m)(chat)
    assert np.max(np.abs(short - want)) > 1e-3 * np.max(np.abs(want))


@pytest.mark.parametrize("m", [16, 48, 64])
def test_stepper_matches_the_allocating_oracle_bit_for_bit(m):
    from kdvlab.flow import _evolve_state

    rng = np.random.default_rng(13 + m)
    cfg = SolverConfig(n_modes=m, dt=1e-3)
    coeffs = np.stack([random_field(rng, 8).modes for _ in range(640)])
    with_zero = np.vstack([coeffs[:4], np.zeros_like(coeffs[:1]), coeffs[4:9]])
    for batch in [coeffs[:rows] for rows in (1, 10, 47, 640)] + [with_zero]:
        for t in (0.012, -0.007):
            got = evolve_many(batch, t, cfg)
            want = _oracle_evolve(batch, t, cfg)
            assert np.array_equal(_bits(got), _bits(want))
    band = m // 3
    for batch in (coeffs[:10], with_zero):
        got = _evolve_state(batch, 0.01, cfg, nl_band=band)
        want = _oracle_evolve(batch, 0.01, cfg, band=band)
        assert np.array_equal(_bits(got), _bits(want))


def _just_below_the_limit(coeffs, m):
    """A solver whose user step sits just below the stability limit of the rows."""
    amplitude = float(np.max(linf_norms_many(fit_modes(coeffs, m))))
    return SolverConfig(n_modes=m, dt=1.999 / (m * (1.0 + amplitude)))


def test_stepper_diverges_at_the_oracle_step_on_the_whole_batch():
    growing = np.linspace(0.5, 8.0, 20)[:, None] * cosine_mode(1, 8).modes[None, :]
    wild = _just_below_the_limit(growing, 16)
    with pytest.raises(FlowDivergenceError) as want:
        _oracle_evolve(growing, 5.0, wild)
    with pytest.raises(FlowDivergenceError) as got:
        evolve_many(growing, 5.0, wild)
    assert got.value.step == want.value.step


def _np_fft_ifrk4(chat, n_steps, h, m, band, grid_n):
    # the preallocated stepper before it called pocketfft's gufuncs: np.fft
    # transforms, a stage-input copy into the spectrum and a band clear per rhs
    rows = chat.shape[0]
    k = np.arange(m + 1, dtype=np.float64)
    phase = 1j * k**3
    e_full = np.exp(h * phase)
    e_half = np.exp(0.5 * h * phase)
    two_e_half = 2.0 * e_half
    neg_half_ik = -0.5 * (1j * k)
    half_h, sixth_h = 0.5 * h, h / 6.0
    spectrum = np.zeros((rows, grid_n // 2 + 1), dtype=np.complex128)
    grid = np.empty((rows, grid_n), dtype=np.float64)
    product = np.empty_like(spectrum)
    n1, n2, n3, n4, a, b = (np.empty_like(chat) for _ in range(6))

    def rhs(x, out):
        spectrum[:, 1 : band + 1] = x[:, 1 : band + 1]
        np.fft.irfft(spectrum, grid_n, axis=-1, norm="forward", out=grid)
        np.multiply(grid, grid, out=grid)
        np.fft.rfft(grid, axis=-1, norm="forward", out=product)
        np.multiply(neg_half_ik, product[:, : m + 1], out=out)
        out[:, band + 1 :] = 0.0

    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(n_steps):
            rhs(chat, n1)
            np.multiply(half_h, n1, out=a)
            np.add(chat, a, out=a)
            np.multiply(e_half, a, out=a)
            rhs(a, n2)
            np.multiply(e_half, chat, out=a)
            np.multiply(half_h, n2, out=b)
            np.add(a, b, out=a)
            rhs(a, n3)
            np.multiply(e_full, chat, out=b)
            np.multiply(e_half, n3, out=a)
            np.multiply(h, a, out=a)
            np.add(b, a, out=a)
            rhs(a, n4)
            np.add(n2, n3, out=n2)
            np.multiply(two_e_half, n2, out=n2)
            np.multiply(e_full, n1, out=n1)
            np.add(n1, n2, out=n1)
            np.add(n1, n4, out=n1)
            np.multiply(sixth_h, n1, out=n1)
            np.add(b, n1, out=chat)
            if not np.all(np.isfinite(chat.view(np.float64))):
                raise FlowDivergenceError(step)
    return chat


def test_gufunc_stepper_equals_the_np_fft_stepper_bit_for_bit():
    from kdvlab.flow import _ifrk4

    def stepper(start, n_steps, h, m, band, grid_n):
        # the stepper's state is mode-major: (m+1, rows)
        return _ifrk4(np.ascontiguousarray(start.T), n_steps, h, band, grid_n).T

    rng = np.random.default_rng(5)
    m = 48
    coeffs = np.stack([random_field(rng, 16, scale=0.5).modes for _ in range(38)])
    coeffs[7] = 0.0  # an all-zero row, whose result is all signed zeros
    for grid_n in (alias_free_points(m), 128):  # the stepper's grid and a power of two
        for rows, band in ((1, m), (20, m), (38, m), (20, 20), (5, 0), (8, m), (8, 5)):
            start = _row_major_state(fit_modes(coeffs[:rows], m))
            got = stepper(start.copy(), 40, 1e-3, m, band, grid_n)
            want = _np_fft_ifrk4(start.copy(), 40, 1e-3, m, band, grid_n)
            assert np.array_equal(_bits(got), _bits(want))
    # a step that overflows is reported at the same step
    growing = np.linspace(0.5, 8.0, 150)[:, None] * cosine_mode(1, 16).modes[None, :]
    start = _row_major_state(growing)
    with pytest.raises(FlowDivergenceError) as want:
        _np_fft_ifrk4(start.copy(), 100, 0.4, 16, 16, 64)
    with pytest.raises(FlowDivergenceError) as got:
        stepper(start.copy(), 100, 0.4, 16, 16, 64)
    assert got.value.step == want.value.step


@pytest.mark.parametrize("n", [64, 160])
def test_pocketfft_gufuncs_are_the_np_fft_transforms(n):
    # the stepper calls these private gufuncs directly; if numpy moves them or
    # changes what they compute, this fails before any evolution does
    from numpy.fft import _pocketfft_umath as pfu

    rng = np.random.default_rng(n)
    spectrum = rng.standard_normal((3, n // 2 + 1)) + 1j * rng.standard_normal((3, n // 2 + 1))
    grid = np.empty((3, n))
    pfu.irfft(spectrum, 1.0, out=grid)
    assert np.array_equal(grid, np.fft.irfft(spectrum, n, axis=-1, norm="forward"))
    product = np.empty((3, n // 2 + 1), dtype=np.complex128)
    pfu.rfft_n_even(grid, 1 / n, out=product)
    assert np.array_equal(product, np.fft.rfft(grid, axis=-1, norm="forward"))


def test_evolve_rejects_unresolvable_modes():
    cfg = SolverConfig(n_modes=4)
    with pytest.raises(ValueError):
        evolve(cosine_mode(6), 0.1, cfg)
    # also at t = 0, where the fitted rows are the result
    cfg = SolverConfig(n_modes=64)
    with pytest.raises(ValueError):
        evolve(cosine_mode(80), 0.0, cfg)
    with pytest.raises(ValueError):
        evolve_projected(cosine_mode(80), 0.0, 8, cfg)


def test_divergence_reports_step():
    u0 = 5.0 * cosine_mode(1)
    with pytest.raises(FlowDivergenceError) as err:
        evolve(u0, 5.0, _just_below_the_limit(u0.modes, 32))
    assert err.value.step >= 0


def separation(u0, v0, t, s, cfg):
    """H^s distance of two states evolved to time t (the probe of a Lipschitz envelope)."""
    return sobolev_norm(evolve(u0, t, cfg) - evolve(v0, t, cfg), s)


def test_lipschitz_probe_trivials():
    cfg = SolverConfig(n_modes=16, dt=1e-3)
    u = cosine_mode(1)
    assert separation(u, u, 0.3, 0.25, cfg) == 0.0 and separation(u, u, 0.3, 0.0, cfg) == 0.0
    v = u + 1e-3 * cosine_mode(3)
    at0 = separation(u, v, 0.0, 0.25, cfg)
    assert at0 == pytest.approx(sobolev_norm(u - v, 0.25), rel=1e-12)


def test_lipschitz_probe_log_growth_bounded():
    cfg = SolverConfig(n_modes=32, dt=1e-3)
    u = cosine_mode(1)
    v = u + 1e-3 * cosine_mode(3)
    logs = np.log([separation(u, v, t, 0.25, cfg) for t in (0.25, 0.5, 1.0, 2.0)])
    assert np.all(np.isfinite(logs))
    # at-most-linear growth of the log distance in t
    slopes = np.diff(logs) / np.diff([0.25, 0.5, 1.0, 2.0])
    assert np.max(np.abs(slopes)) < 10.0


def test_trajectory_validation():
    cfg = SolverConfig(n_modes=8)
    with pytest.raises(ValueError):
        trajectory(cosine_mode(1), [0.2, 0.2], cfg)
