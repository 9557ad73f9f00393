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
    lipschitz_probe,
    trajectory,
)
from kdvlab.spectral import (
    TorusField,
    cosine_mode,
    make_field,
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
    u = make_field([0.3 - 0.1j, 0.2j, 0.05])
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


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(n_modes=2)
    with pytest.raises(ValueError):
        SolverConfig(dt=-1e-3)
    with pytest.raises(ValueError):
        SolverConfig(cfl_constant=0.0)
    cfg = SolverConfig(n_modes=64, dt=1.0)
    with pytest.raises(ValueError):
        evolve(cosine_mode(1), 0.5, cfg)  # dt above the stability limit


def test_evolve_identity_at_zero_time():
    u = cosine_mode(1, 2) + 0.5 * cosine_mode(2)
    assert evolve(u, 0.0, SolverConfig(n_modes=16)) is u


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
    hi = make_field(np.concatenate([np.zeros(5), [0.3 - 0.2j, 0.1j]]))
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


def test_row_blocks_leave_the_batch_result_unchanged(monkeypatch):
    from kdvlab import flow

    rng = np.random.default_rng(13)
    cfg = SolverConfig(n_modes=16, dt=1e-3)
    coeffs = np.stack([random_field(rng, 8).modes for _ in range(150)])
    monkeypatch.setattr(flow, "_BLOCK_BYTES", 32 * 16 * 33)  # 32-row blocks on the 64-point grid
    blocked = evolve_many(coeffs, 0.05, cfg)
    wild = SolverConfig(n_modes=16, dt=0.4, cfl_constant=1e9)
    growing = np.linspace(0.5, 8.0, 150)[:, None] * cosine_mode(1, 8).modes[None, :]
    with pytest.raises(FlowDivergenceError) as blocked_err:
        evolve_many(growing, 40.0, wild)
    monkeypatch.setattr(flow, "_BLOCK_BYTES", 1 << 40)  # the whole batch in one block
    assert np.array_equal(blocked, evolve_many(coeffs, 0.05, cfg))
    with pytest.raises(FlowDivergenceError) as whole_err:
        evolve_many(growing, 40.0, wild)
    assert blocked_err.value.step == whole_err.value.step


def test_evolve_rejects_unresolvable_modes():
    cfg = SolverConfig(n_modes=4)
    with pytest.raises(ValueError):
        evolve(cosine_mode(6), 0.1, cfg)


def test_divergence_reports_step():
    cfg = SolverConfig(n_modes=32, dt=0.4, cfl_constant=1e9)
    with pytest.raises(FlowDivergenceError) as err:
        evolve(5.0 * cosine_mode(1), 40.0, cfg)
    assert err.value.step >= 0


def test_lipschitz_probe_trivials():
    cfg = SolverConfig(n_modes=16, dt=1e-3)
    u = cosine_mode(1)
    same = lipschitz_probe(u, u, 0.3, 0.25, cfg)
    assert same.hs_distance == 0.0 and same.l2_distance == 0.0
    v = u + 1e-3 * cosine_mode(3)
    at0 = lipschitz_probe(u, v, 0.0, 0.25, cfg)
    assert at0.hs_distance == pytest.approx(at0.initial_hs_distance, rel=1e-12)


def test_lipschitz_probe_log_growth_bounded():
    cfg = SolverConfig(n_modes=32, dt=1e-3)
    u = cosine_mode(1)
    v = u + 1e-3 * cosine_mode(3)
    records = [lipschitz_probe(u, v, t, 0.25, cfg) for t in (0.25, 0.5, 1.0, 2.0)]
    logs = np.log([r.hs_distance for r in records])
    assert np.all(np.isfinite(logs))
    # at-most-linear growth of the log distance in t
    slopes = np.diff(logs) / np.diff([0.25, 0.5, 1.0, 2.0])
    assert np.max(np.abs(slopes)) < 10.0


def test_trajectory_validation():
    cfg = SolverConfig(n_modes=8)
    with pytest.raises(ValueError):
        trajectory(cosine_mode(1), [0.2, 0.2], cfg)
