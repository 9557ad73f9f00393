import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import dense_plan
from kdvlab import transport
from kdvlab.flow import SolverConfig, evolve_many
from kdvlab.measures import WeightedEnsemble
from kdvlab.spectral import cosine_mode, sobolev_norm
from kdvlab.transport import (
    _MASS_EPS,
    SinkhornConvergenceError,
    _distance_matrix,
    _plan_from,
    _restricted_lp,
    combined_metric,
    combined_metric_parts,
    cost_matrix,
    plan_cost,
    wasserstein_inf,
    wasserstein_p_entropic,
    wasserstein_p_exact,
)


def uniform_ensemble(n, m, seed, scale=0.3):
    rng = np.random.default_rng(seed)
    coeffs = scale * (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
    return WeightedEnsemble(coeffs, np.full(n, 1.0 / n))


def weighted_ensemble(n, m, seed, scale=0.3):
    rng = np.random.default_rng(seed)
    coeffs = scale * (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
    w = rng.random(n)
    return WeightedEnsemble(coeffs, w / w.sum())


def singleton(field):
    return WeightedEnsemble(field.modes[None, :], [1.0])


# --- brute-force oracles ------------------------------------------------------


def brute_wp_uniform(a, b, s, p):
    cost = cost_matrix(a, b, s, p).entries
    n = a.n
    best = min(
        sum(cost[i, perm[i]] for i in range(n))
        for perm in itertools.permutations(range(n))
    )
    return (best / n) ** (1.0 / p)


def brute_winf_uniform(a, b):
    dist = cost_matrix(a, b, 0.0, 1.0).entries
    n = a.n
    return min(
        max(dist[i, perm[i]] for i in range(n))
        for perm in itertools.permutations(range(n))
    )


def brute_wp_2x2(wa, wb, cost, p):
    # one-parameter family: mass x on edge (0,0), boundaries are the optima
    lo = max(0.0, wa[0] + wb[0] - 1.0)
    hi = min(wa[0], wb[0])
    best = np.inf
    for x in (lo, hi):
        total = (
            x * cost[0, 0]
            + (wa[0] - x) * cost[0, 1]
            + (wb[0] - x) * cost[1, 0]
            + (1.0 - wa[0] - wb[0] + x) * cost[1, 1]
        )
        best = min(best, total)
    return best ** (1.0 / p)


def brute_winf_2x2(wa, wb, dist):
    lo = max(0.0, wa[0] + wb[0] - 1.0)
    hi = min(wa[0], wb[0])
    best = np.inf
    for x in (lo, hi):
        masses = np.array(
            [x, wa[0] - x, wb[0] - x, 1.0 - wa[0] - wb[0] + x]
        )
        edges = np.array([dist[0, 0], dist[0, 1], dist[1, 0], dist[1, 1]])
        best = min(best, edges[masses > 1e-15].max())
    return best


# --- cost matrices ------------------------------------------------------------


def test_cost_matrix_diagonal_and_singletons():
    a = uniform_ensemble(4, 3, seed=0)
    cm = cost_matrix(a, a, 0.25, 2.0)
    assert np.all(np.diag(cm.entries) == 0.0)

    x = cosine_mode(1, 3)
    y = 0.5 * cosine_mode(2, 3)
    cm1 = cost_matrix(singleton(x), singleton(y), 0.25, 2.0)
    assert cm1.entries.shape == (1, 1)
    assert cm1.entries[0, 0] == pytest.approx(sobolev_norm(x - y, 0.25) ** 2, rel=1e-12)


def test_cost_matrix_translation_consistency():
    a = uniform_ensemble(3, 4, seed=1)
    b = uniform_ensemble(5, 4, seed=2)
    delta = 0.05
    shifted = a.replace(coeffs=a.coeffs + delta * cosine_mode(2, 4).modes[None, :])
    base = cost_matrix(a, b, 0.3, 1.0).entries
    moved = cost_matrix(shifted, b, 0.3, 1.0).entries
    # row entries move by at most the norm of the shift (triangle inequality)
    shift_norm = sobolev_norm(delta * cosine_mode(2, 4), 0.3)
    assert np.max(np.abs(moved - base)) <= shift_norm + 1e-12


def test_cost_matrix_pads_mode_counts():
    a = uniform_ensemble(3, 2, seed=3)
    b = uniform_ensemble(4, 5, seed=4)
    cm = cost_matrix(a, b, 0.0, 2.0)
    assert cm.entries.shape == (3, 4)
    assert np.all(cm.entries >= 0)


def test_cost_matrix_argument_validation():
    a = uniform_ensemble(2, 2, seed=5)
    with pytest.raises(ValueError):
        cost_matrix(a, a, -0.1, 2.0)
    with pytest.raises(ValueError):
        cost_matrix(a, a, 0.2, 0.5)


# --- exact solver ---------------------------------------------------------


def test_exact_singletons_and_identity():
    x = cosine_mode(1, 3)
    y = 0.4 * cosine_mode(3)
    value, plan = wasserstein_p_exact(singleton(x), singleton(y), 0.25, 2.0)
    assert value == pytest.approx(sobolev_norm(x - y, 0.25), rel=1e-12)
    assert plan.check()

    a = uniform_ensemble(6, 3, seed=6)
    value, plan = wasserstein_p_exact(a, a, 0.25, 2.0)
    assert value == 0.0
    assert plan.check()


def test_exact_two_point_pairings():
    for seed in range(10):
        a = uniform_ensemble(2, 3, seed=seed)
        b = uniform_ensemble(2, 3, seed=100 + seed)
        for p in (1.0, 2.0, 3.0):
            value, plan = wasserstein_p_exact(a, b, 0.25, p)
            assert value == pytest.approx(brute_wp_uniform(a, b, 0.25, p), abs=1e-9)
            assert plan.check()


def test_exact_uniform_matches_permutation_oracle():
    for seed in range(30):
        a = uniform_ensemble(5, 3, seed=seed)
        b = uniform_ensemble(5, 3, seed=1000 + seed)
        value, plan = wasserstein_p_exact(a, b, 0.25, 2.0)
        assert value == pytest.approx(brute_wp_uniform(a, b, 0.25, 2.0), abs=1e-9)
        assert plan.check()


def test_exact_weighted_matches_2x2_oracle():
    rng = np.random.default_rng(7)
    for seed in range(20):
        a = weighted_ensemble(2, 3, seed=seed)
        b = weighted_ensemble(2, 3, seed=200 + seed)
        cost = cost_matrix(a, b, 0.25, 2.0).entries
        value, plan = wasserstein_p_exact(a, b, 0.25, 2.0)
        assert value == pytest.approx(
            brute_wp_2x2(a.weights, b.weights, cost, 2.0), abs=1e-9
        )
        assert plan.check()


def test_exact_rejects_bad_marginals():
    a = uniform_ensemble(3, 2, seed=8)
    b = uniform_ensemble(3, 2, seed=9)
    b.weights[:] = b.weights * 0.5  # break normalisation behind the constructor
    with pytest.raises(ValueError):
        wasserstein_p_exact(a, b, 0.25, 2.0)
    with pytest.raises(ValueError):
        wasserstein_p_exact(a, a, 0.25, np.inf)


def test_exact_prunes_zero_weight_points():
    rng = np.random.default_rng(10)
    coeffs = 0.3 * (rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)))
    w = np.array([0.5, 0.5, 0.0, 0.0])
    a = WeightedEnsemble(coeffs, w)
    b = WeightedEnsemble(coeffs[:2], [0.5, 0.5])
    value, plan = wasserstein_p_exact(a, b, 0.25, 2.0)
    assert value == 0.0
    assert np.all(dense_plan(plan)[2:] == 0.0)


# --- entropic solver -------------------------------------------------------


def test_entropic_identical_ensembles_tiny():
    a = uniform_ensemble(6, 3, seed=11)
    res = wasserstein_p_entropic(a, a, 0.25, 2.0, epsilon=1e-4)
    assert res.value <= 1e-6
    assert res.plan.check()


def test_entropic_singleton_any_epsilon():
    x = cosine_mode(1, 2)
    y = 0.3 * cosine_mode(2)
    for eps in (10.0, 0.1, 1e-3):
        res = wasserstein_p_entropic(singleton(x), singleton(y), 0.25, 2.0, epsilon=eps)
        assert res.value == pytest.approx(sobolev_norm(x - y, 0.25), rel=1e-12)


def test_entropic_epsilon_trend_toward_exact():
    for seed in range(5):
        a = uniform_ensemble(5, 3, seed=seed)
        b = uniform_ensemble(5, 3, seed=500 + seed)
        exact, _ = wasserstein_p_exact(a, b, 0.25, 2.0)
        med = float(np.median(cost_matrix(a, b, 0.25, 2.0).entries))
        values = [
            wasserstein_p_entropic(a, b, 0.25, 2.0, epsilon=f * med).value
            for f in (1.0, 0.1, 0.01)
        ]
        assert values[0] >= values[1] - 1e-9 >= values[2] - 2e-9
        assert values[-1] >= exact - 1e-9
        assert (values[-1] - exact) / exact < 0.01


def test_entropic_default_epsilon_is_set_from_the_live_costs():
    a, b = sparse_pair()
    ia, ib = live(a, b)
    want = 0.01 * float(np.median(dense_distances(a, b, 0.25)[np.ix_(ia, ib)] ** 2))
    res = wasserstein_p_entropic(a, b, 0.25, 2.0)
    assert res.epsilon == want
    assert res.value == wasserstein_p_entropic(a, b, 0.25, 2.0, epsilon=want).value
    parts = combined_metric_parts(a, b, 0.25, 2.0, backend="entropic")
    assert parts.epsilon == want and parts.w_p == res.value
    with pytest.raises(ValueError):
        wasserstein_p_entropic(a, b, 0.25, 2.0, epsilon=0.0)


def test_entropic_nonconvergence_error():
    a = uniform_ensemble(5, 3, seed=12)
    b = uniform_ensemble(5, 3, seed=13)
    with pytest.raises(SinkhornConvergenceError) as err:
        wasserstein_p_entropic(a, b, 0.25, 2.0, epsilon=1e-7, max_iter=5, tol=1e-12)
    assert err.value.residual > 0


# --- bottleneck -------------------------------------------------------------


def test_bottleneck_singletons_and_identity():
    x = cosine_mode(1, 2)
    y = 0.2 * cosine_mode(2)
    value, plan = wasserstein_inf(singleton(x), singleton(y))
    assert value == pytest.approx(sobolev_norm(x - y, 0.0), rel=1e-12)
    a = uniform_ensemble(5, 3, seed=14)
    value, plan = wasserstein_inf(a, a)
    assert value == 0.0
    assert plan.check()


def test_bottleneck_uniform_matches_permutation_oracle():
    for seed in range(30):
        a = uniform_ensemble(5, 3, seed=seed)
        b = uniform_ensemble(5, 3, seed=2000 + seed)
        value, plan = wasserstein_inf(a, b)
        assert value == pytest.approx(brute_winf_uniform(a, b), abs=1e-12)
        assert plan.check()
        dist = cost_matrix(a, b, 0.0, 1.0).entries
        assert np.max(dist[plan.rows, plan.cols]) <= value + 1e-12


def coo_flow_feasible(mask, ia_units, ib_units):
    """The max-flow test on a network assembled as COO triplets."""
    from scipy import sparse
    from scipy.sparse.csgraph import maximum_flow

    n, m = mask.shape
    src, dst = n + m, n + m + 1
    rows_i, cols_j = np.nonzero(mask)
    row = np.concatenate([np.full(n, src), rows_i, n + np.arange(m)])
    col = np.concatenate([np.arange(n), n + cols_j, np.full(m, dst)])
    cap = np.concatenate([ia_units, np.full(rows_i.size, transport._FLOW_SCALE), ib_units])
    graph = sparse.coo_matrix((cap.astype(np.int32), (row, col)), shape=(n + m + 2,) * 2)
    return maximum_flow(graph.tocsr(), src, dst).flow_value == transport._FLOW_SCALE


def test_flow_network_written_as_csr_decides_as_the_coo_build():
    rng = np.random.default_rng(31)
    answers = []
    for _ in range(40):
        n, m = rng.integers(1, 30, size=2)
        wa, wb = rng.random(n) + 0.01, rng.random(m) + 0.01
        ua = transport._round_to_total(wa / wa.sum(), transport._FLOW_SCALE)
        ub = transport._round_to_total(wb / wb.sum(), transport._FLOW_SCALE)
        mask = rng.random((n, m)) <= rng.uniform(0.05, 0.7)
        answers.append(not transport._max_flow(mask, ua, ub)[1].any())
        assert answers[-1] == coo_flow_feasible(mask, ua, ub)
    assert 0 < sum(answers) < len(answers)  # both answers occur


def test_bottleneck_weighted_matches_2x2_oracle():
    for seed in range(20):
        a = weighted_ensemble(2, 3, seed=seed)
        b = weighted_ensemble(2, 3, seed=300 + seed)
        dist = cost_matrix(a, b, 0.0, 1.0).entries
        value, plan = wasserstein_inf(a, b)
        assert value == pytest.approx(brute_winf_2x2(a.weights, b.weights, dist), abs=1e-9)
        assert plan.check()


# --- combined metric and pushforward ---------------------------------------


def test_combined_metric_trivial_cases():
    a = uniform_ensemble(4, 3, seed=15)
    assert combined_metric(a, a, 0.25, 2.0) == 0.0
    x = cosine_mode(1, 2)
    y = 0.3 * cosine_mode(2)
    expect = sobolev_norm(x - y, 0.0) + sobolev_norm(x - y, 0.25)
    assert combined_metric(singleton(x), singleton(y), 0.25, 2.0) == pytest.approx(
        expect, rel=1e-12
    )


def test_combined_metric_matches_permutation_oracle():
    for seed in range(10):
        a = uniform_ensemble(4, 3, seed=seed)
        b = uniform_ensemble(4, 3, seed=3000 + seed)
        got = combined_metric(a, b, 0.25, 2.0)
        expect = brute_winf_uniform(a, b) + brute_wp_uniform(a, b, 0.25, 2.0)
        assert got == pytest.approx(expect, abs=1e-9)


def test_metric_axioms():
    rng = np.random.default_rng(16)
    for trial in range(50):
        a = uniform_ensemble(4, 3, seed=4000 + trial)
        b = uniform_ensemble(4, 3, seed=5000 + trial)
        c = uniform_ensemble(4, 3, seed=6000 + trial)
        dab, _ = wasserstein_p_exact(a, b, 0.25, 2.0)
        dba, _ = wasserstein_p_exact(b, a, 0.25, 2.0)
        assert abs(dab - dba) <= 1e-9
        dac, _ = wasserstein_p_exact(a, c, 0.25, 2.0)
        dcb, _ = wasserstein_p_exact(c, b, 0.25, 2.0)
        assert dab <= dac + dcb + 1e-9


def test_monotone_in_p_on_rescaled_instances():
    for seed in range(10):
        a = uniform_ensemble(5, 3, seed=seed, scale=0.1)
        b = uniform_ensemble(5, 3, seed=700 + seed, scale=0.1)
        values = [wasserstein_p_exact(a, b, 0.25, p)[0] for p in (1.0, 1.5, 2.0, 3.0)]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-9


def test_pushforward_cost_trivials_and_bound():
    cfg = SolverConfig(n_modes=16, dt=1e-3)
    a = uniform_ensemble(4, 8, seed=17, scale=0.1)
    b = a.replace(coeffs=a.coeffs + 1e-3 * cosine_mode(2, 8).modes[None, :])

    def evolved(ens, t):
        return ens.replace(coeffs=evolve_many(ens.coeffs, t, cfg))

    value0, plan = wasserstein_p_exact(a, b, 0.25, 2.0)
    at0 = plan_cost(a, b, plan, 0.0, 0.25, 2.0)
    assert at0.w_p_bound == pytest.approx(value0, rel=1e-12)

    # identity plan on a == b keeps coupled points together at every time
    _, ident = wasserstein_p_exact(a, a, 0.25, 2.0)
    a_moved = evolved(a, 0.4)
    moved = plan_cost(a_moved, a_moved, ident, 0.4, 0.25, 2.0)
    assert moved.w_p_bound == 0.0 and moved.w_inf_bound == 0.0

    # re-optimising after evolution can only decrease the coupled-plan price
    t = 0.5
    a_t, b_t = evolved(a, t), evolved(b, t)
    bound = plan_cost(a_t, b_t, plan, t, 0.25, 2.0)
    re_opt, _ = wasserstein_p_exact(a_t, b_t, 0.25, 2.0)
    assert bound.w_p_bound >= re_opt - 1e-12


def test_entropic_backend_flagged():
    a = uniform_ensemble(5, 3, seed=18)
    b = uniform_ensemble(5, 3, seed=19)
    parts = combined_metric_parts(a, b, 0.25, 2.0, backend="entropic")
    assert parts.backend == "entropic"
    assert parts.epsilon is not None and parts.epsilon > 0
    exact = combined_metric(a, b, 0.25, 2.0)
    assert parts.total >= exact - 1e-9
    with pytest.raises(ValueError):
        combined_metric(a, b, 0.25, 2.0, backend="fancy")


# --- pruning to the live support leaves every number unchanged ---------------


def sparse_pair():
    """Two ensembles with unequal mode counts where most draws weigh zero.

    Every other dead draw is scaled up twentyfold, so the largest distances
    of a dense build all belong to draws that carry no mass.
    """
    rng = np.random.default_rng(23)

    def make(n, m, live):
        coeffs = 0.3 * (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
        w = np.zeros(n)
        idx = np.sort(rng.choice(n, size=live, replace=False))
        w[idx] = rng.random(live) + 0.1
        coeffs[np.setdiff1d(np.arange(n), idx)[::2]] *= 20.0
        return WeightedEnsemble(coeffs, w / w.sum())

    return make(40, 6, 7), make(33, 9, 5)


def dense_distances(a, b, s):
    """H^s distances over every pair of the zero-padded ensembles."""
    m = max(a.n_modes, b.n_modes)
    return _distance_matrix(a.padded(m).coeffs, b.padded(m).coeffs, s)


def live(a, b):
    return np.flatnonzero(a.weights > 0), np.flatnonzero(b.weights > 0)


def solve_on_dense_slices(monkeypatch, a, b, solve):
    """Run a solver with its live-block distances sliced out of a dense build."""
    ia, ib = live(a, b)

    def dense_slice(xa, xb, s):
        assert xa.shape[0] == ia.size and xb.shape[0] == ib.size  # only live draws reach here
        return dense_distances(a, b, s)[np.ix_(ia, ib)]

    with monkeypatch.context() as patch:
        patch.setattr(transport, "_distance_matrix", dense_slice)
        return solve()


def assert_dead_zero(plan, a, b):
    ia, ib = live(a, b)
    assert np.all(np.delete(dense_plan(plan), ia, axis=0) == 0.0)
    assert np.all(np.delete(dense_plan(plan), ib, axis=1) == 0.0)


def test_pruned_exact_equals_dense_reference():
    a, b = sparse_pair()
    ia, ib = live(a, b)
    s, p = 0.25, 2.0
    dist = dense_distances(a, b, s)
    dense = dist**p
    full = np.zeros((a.n, b.n))
    block = dense[np.ix_(ia, ib)]
    _, _, mass = _restricted_lp(a.weights[ia], b.weights[ib], block, np.ones(block.shape, bool))
    full[np.ix_(ia, ib)] = mass.reshape(block.shape)  # the full LP's variables are row-major
    rows, cols = np.nonzero(full >= _MASS_EPS)  # the reference plan's row-major support
    ref_value = float(np.sum(full[rows, cols] * dense[rows, cols])) ** (1.0 / p)
    dense_value = float(np.sum(full * dense)) ** (1.0 / p)
    assert abs(ref_value - dense_value) <= 1e-15 * dense_value

    value, plan = wasserstein_p_exact(a, b, s, p)
    assert value == ref_value
    assert np.array_equal(plan.rows, rows) and np.array_equal(plan.cols, cols)
    assert np.array_equal(plan.mass, full[rows, cols])
    assert_dead_zero(plan, a, b)
    # the live block of the dense build is exactly the pruned build
    assert np.array_equal(
        dist[np.ix_(ia, ib)], _distance_matrix(a.padded(b.n_modes).coeffs[ia], b.coeffs[ib], s)
    )


def test_pruned_bottleneck_and_entropic_equal_dense_reference(monkeypatch):
    a, b = sparse_pair()
    w_inf, plan = wasserstein_inf(a, b)
    ref_inf, ref_plan = solve_on_dense_slices(monkeypatch, a, b, lambda: wasserstein_inf(a, b))
    assert w_inf == ref_inf
    assert np.array_equal(dense_plan(plan), dense_plan(ref_plan))
    assert_dead_zero(plan, a, b)

    ia, ib = live(a, b)
    epsilon = 0.05 * float(np.median(dense_distances(a, b, 0.25)[np.ix_(ia, ib)] ** 2))
    res = wasserstein_p_entropic(a, b, 0.25, 2.0, epsilon)
    ref = solve_on_dense_slices(
        monkeypatch, a, b, lambda: wasserstein_p_entropic(a, b, 0.25, 2.0, epsilon)
    )
    assert res.value == ref.value and res.iterations == ref.iterations
    assert np.array_equal(dense_plan(res.plan), dense_plan(ref.plan))
    assert_dead_zero(res.plan, a, b)
    assert res.plan.check()


def test_pruned_pushforward_cost_equals_dense_reference():
    a, b = sparse_pair()
    cfg = SolverConfig(n_modes=16)
    s, p = 0.25, 2.0
    _, plan_p = wasserstein_p_exact(a, b, s, p)
    _, plan_inf = wasserstein_inf(a, b)
    for plan in (plan_p, plan_inf):
        for t in (0.0, 0.05):
            xa, xb = a.padded(b.n_modes).coeffs, b.coeffs
            if t != 0.0:
                xa, xb = evolve_many(xa, t, cfg), evolve_many(xb, t, cfg)
            full = dense_plan(plan)
            mask = full > 1e-15
            dist_hs = _distance_matrix(xa, xb, s)
            dist_l2 = _distance_matrix(xa, xb, 0.0)
            got = plan_cost(a.replace(coeffs=xa), b.replace(coeffs=xb), plan, t, s, p)
            assert got.w_p_bound == float(np.sum(full[mask] * dist_hs[mask] ** p)) ** (1 / p)
            assert got.w_inf_bound == float(np.max(dist_l2[mask]))


def test_pruned_metric_of_an_ensemble_with_itself_is_zero():
    a, _ = sparse_pair()
    assert combined_metric(a, a, 0.25, 2.0) == 0.0


def test_plan_cost_never_prices_dead_rows():
    a, b = sparse_pair()
    cfg = SolverConfig(n_modes=16)
    s, p = 0.25, 2.0
    _, plan_p = wasserstein_p_exact(a, b, s, p)
    _, plan_inf = wasserstein_inf(a, b)
    for plan in (plan_p, plan_inf):
        for t in (0.0, 0.05):
            xa, xb = a.padded(b.n_modes).coeffs, b.coeffs
            if t != 0.0:
                xa, xb = evolve_many(xa, t, cfg), evolve_many(xb, t, cfg)
            want = plan_cost(a.replace(coeffs=xa), b.replace(coeffs=xb), plan, t, s, p)
            # rows and columns of zero weight may hold anything: they are never priced
            ya, yb = xa.copy(), xb.copy()
            ya[a.weights == 0] = 1e3
            yb[b.weights == 0] = -1e3
            junk = plan_cost(a.replace(coeffs=ya), b.replace(coeffs=yb), plan, t, s, p)
            assert junk == want


# --- a plan is its support ----------------------------------------------------


def test_plan_support_keeps_mass_at_the_threshold_and_drops_mass_below_it():
    coeffs = np.zeros((3, 2), dtype=complex)
    a = WeightedEnsemble(coeffs, [0.5, 0.0, 0.5])
    b = WeightedEnsemble(coeffs[:2], [0.5, 0.5])
    ia, ib = live(a, b)
    below = np.nextafter(_MASS_EPS, 0.0)
    r, c = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
    mass = np.array([0.5 - _MASS_EPS, _MASS_EPS, below, 0.5])
    plan, kept_r, kept_c = _plan_from(r, c, mass, ia, ib, a, b)
    assert plan.shape == (3, 2)
    assert plan.rows.tolist() == [0, 0, 2] and plan.cols.tolist() == [0, 1, 1]
    assert plan.mass.tolist() == [0.5 - _MASS_EPS, _MASS_EPS, 0.5]
    assert kept_r.tolist() == [0, 0, 1] and kept_c.tolist() == [0, 1, 1]
    # the residuals read the same support: the entry below the threshold counts nowhere
    assert plan.row_residual == abs((0.5 - _MASS_EPS) + _MASS_EPS - 0.5)
    assert plan.col_residual == max(abs(0.5 - _MASS_EPS - 0.5), abs(_MASS_EPS + 0.5 - 0.5))


def test_value_is_the_price_of_its_plan_at_time_zero():
    # the same sum over the same support with the same per-pair costs: equal bit for bit
    s, p = 0.25, 2.0
    pairs = [sparse_pair()] + [
        (uniform_ensemble(30, 6, seed=k), uniform_ensemble(30, 6, seed=100 + k)) for k in range(10)
    ]
    for a, b in pairs:
        value, plan = wasserstein_p_exact(a, b, s, p)
        assert value == plan_cost(a, b, plan, 0.0, s, p).w_p_bound


def test_solvers_allocate_nothing_of_the_full_layout():
    rng = np.random.default_rng(42)

    def ensemble(n, live):
        coeffs = 0.3 * (rng.standard_normal((n, 8)) + 1j * rng.standard_normal((n, 8)))
        w = np.zeros(n)
        w[rng.choice(n, size=live, replace=False)] = rng.random(live) + 0.1
        return WeightedEnsemble(coeffs, w / w.sum())

    a, b = ensemble(4096, 40), ensemble(4096, 41)
    for backend in ("exact", "entropic"):
        tracemalloc.start()
        try:
            parts = combined_metric_parts(a, b, 0.25, 2.0, backend)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * 4096 * 4096 * 8  # 5% of one dense float64 (n, m) array
        assert parts.plan.shape == (4096, 4096) and parts.plan.check()
        assert parts.inf_plan.shape == (4096, 4096) and parts.inf_plan.check()


# --- the bottleneck bracket ---------------------------------------------------


def light_draw_pair():
    """A weighted pair where one live draw of a weighs 1e-12 and sits far from every draw of b."""
    rng = np.random.default_rng(3)
    coeffs = 0.3 * (rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4)))
    coeffs[5] += 10.0
    w = rng.random(6) + 0.1
    w[5] = 0.0
    w /= w.sum()
    w[5], w[0] = 1e-12, w[0] - 1e-12
    b = weighted_ensemble(5, 4, seed=4)
    return WeightedEnsemble(coeffs, w), b


def nearest_edge(a, b, i):
    return float(np.min(cost_matrix(a, b, 0.0, 1.0).entries[i]))


def test_bottleneck_reaches_every_positive_weight():
    # the flow test rounds a weight of 1e-12 to no units at all and an LP
    # accepts the empty row within its tolerance: only the lower bound, every
    # live draw's nearest edge, keeps the light draw in the value
    a, b = light_draw_pair()
    far = nearest_edge(a, b, 5)
    assert far > 10 * np.max(np.min(cost_matrix(a, b, 0.0, 1.0).entries[:5], axis=1))
    assert wasserstein_inf(a, b)[0] == far
    assert combined_metric_parts(a, b, 0.25, 2.0).w_inf == far
    # the matching path: uniform equal-size marginals, one draw far from the rest
    rng = np.random.default_rng(5)
    x = 0.3 * (rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4)))
    y = x + 1e-3 * (rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4)))
    x[4] += 10.0
    a, b = WeightedEnsemble(x, np.full(5, 0.2)), WeightedEnsemble(y, np.full(5, 0.2))
    far = nearest_edge(a, b, 4)
    assert wasserstein_inf(a, b)[0] == far == brute_winf_uniform(a, b)


def gibbs_pair(seed, shifted):
    from kdvlab.measures import GaussianSpec, GibbsSpec, sample_gibbs

    a, _ = sample_gibbs(GibbsSpec(GaussianSpec(16, seed=seed)), 160)
    if shifted:
        return a, a.replace(coeffs=a.coeffs + 1e-3 * cosine_mode(3, 16).modes[None, :])
    return a, sample_gibbs(GibbsSpec(GaussianSpec(16, seed=100 + seed)), 160)[0]


def witness_cases():
    """(a, b, witness) with the witness each pair's W_p plan (or an entropic one)."""
    pairs = [sparse_pair(), light_draw_pair()]
    pairs += [(uniform_ensemble(5, 3, seed=k), uniform_ensemble(5, 3, seed=2000 + k)) for k in range(10)]
    pairs += [(weighted_ensemble(6, 3, seed=k), weighted_ensemble(4, 3, seed=300 + k)) for k in range(10)]
    pairs += [gibbs_pair(k, shifted=True) for k in range(3)]
    pairs += [gibbs_pair(k, shifted=False) for k in range(3)]
    for a, b in pairs:
        yield a, b, wasserstein_p_exact(a, b, 0.25, 2.0)[1]
    for a, b in pairs[2:5] + pairs[-2:]:
        yield a, b, wasserstein_p_entropic(a, b, 0.25, 2.0).plan


def test_witness_leaves_the_bottleneck_value_unchanged():
    for a, b, witness in witness_cases():
        value, plan = wasserstein_inf(a, b, witness)
        assert value == wasserstein_inf(a, b)[0]
        assert plan.check()
        # the plan carries mass only on edges at or below the value
        assert np.max(_distance_matrix(*transport._common_modes(a, b), 0.0)[plan.rows, plan.cols]) <= value


def test_closed_bracket_costs_no_probe_and_no_confirming_lp(count_calls):
    from scipy.optimize import linprog
    from scipy.sparse.csgraph import maximum_flow

    a, b = gibbs_pair(0, shifted=True)
    probes, lps = count_calls(maximum_flow), count_calls(linprog)
    parts = combined_metric_parts(a, b, 0.25, 2.0)
    assert len(probes) == 0 and len(lps) == 1  # the W_p solve only
    assert parts.inf_plan is parts.plan
    assert parts.w_inf == wasserstein_inf(a, b)[0]


def test_a_witness_that_cannot_certify_is_ignored():
    from kdvlab.transport import MARGINAL_TOL, TransportPlan

    # support misses the light live draw, yet the residual passes check()
    a, b = light_draw_pair()
    rest = WeightedEnsemble(a.coeffs, np.where(np.arange(6) == 5, 0.0, a.weights))
    _, p = wasserstein_p_exact(rest.replace(weights=rest.weights / rest.weights.sum()), b, 0.25, 2.0)
    partial = TransportPlan(p.rows, p.cols, p.mass, p.shape, 1e-12, p.col_residual)
    assert partial.check() and 5 not in partial.rows
    value, plan = wasserstein_inf(a, b, partial)
    assert value == nearest_edge(a, b, 5) and plan is not partial

    # the W_p plan of a coupled pair closes the bracket, unless its residual is too large
    a, b = gibbs_pair(1, shifted=True)
    _, good = wasserstein_p_exact(a, b, 0.25, 2.0)
    assert wasserstein_inf(a, b, good)[1] is good
    loose = TransportPlan(good.rows, good.cols, good.mass, good.shape, 2 * MARGINAL_TOL, 0.0)
    value, plan = wasserstein_inf(a, b, loose)
    assert plan is not loose and value == wasserstein_inf(a, b)[0]


def test_self_distance_is_zero_with_the_witness_as_the_plan():
    for a in (sparse_pair()[0], uniform_ensemble(6, 3, seed=7), gibbs_pair(2, shifted=False)[0]):
        parts = combined_metric_parts(a, a, 0.25, 2.0)
        assert parts.total == 0.0 and parts.inf_plan is parts.plan


# --- the cut-guided climb against the bisection it replaced -------------------


def bisection_winf(a, b, witness=None):
    """The bisection over sorted levels with a confirming LP, as (value, plan, probes).

    This is the search ``wasserstein_inf`` ran before the climb: a feasibility
    probe at the lower bound, bisection up to the witness's edge (or the top
    level), then an exact LP on the final mask for the plan.  Probes count
    every max-flow and matching call, the uniform path's plan included.
    """
    from scipy import sparse
    from scipy.sparse.csgraph import maximum_bipartite_matching

    ia, ib, xa, xb = transport._live_support(a, b)
    sub = _distance_matrix(xa, xb, 0.0)
    wa, wb = a.weights[ia], b.weights[ib]
    levels = np.unique(sub)
    lower = max(sub.min(axis=1).max(), sub.min(axis=0).max())
    top = transport._witness_edge(witness, ia, ib, sub)
    lo = int(np.searchsorted(levels, lower))
    hi = levels.size - 1 if top is None else int(np.searchsorted(levels, top))
    uniform = transport._uniform_equal(a, b)
    ua = transport._round_to_total(wa, transport._FLOW_SCALE)
    ub = transport._round_to_total(wb, transport._FLOW_SCALE)
    probes = 0

    def matching(lam):
        nonlocal probes
        probes += 1
        return maximum_bipartite_matching(sparse.csr_matrix(sub <= lam), perm_type="column")

    def feasible(lam):
        nonlocal probes
        if uniform:
            return bool(np.all(matching(lam) >= 0))
        probes += 1
        return coo_flow_feasible(sub <= lam, ua, ub)

    if lo < hi and feasible(levels[lo]):
        hi = lo
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(levels[mid]):
            hi = mid
        else:
            lo = mid + 1
    idx = hi
    if top is not None and levels[idx] == top:
        return float(levels[idx]), witness, probes
    if uniform:
        match = matching(levels[idx])
        support = np.arange(match.size), match, np.full(match.size, 1.0 / a.n)
    else:
        support = _restricted_lp(wa, wb, sub, sub <= levels[idx])
        while support is None and idx + 1 < levels.size:
            idx += 1
            support = _restricted_lp(wa, wb, sub, sub <= levels[idx])
    return float(levels[idx]), _plan_from(*support, ia, ib, a, b)[0], probes


def quantized_pair(seed, n, m, uniform):
    """Coefficients on a coarse integer lattice, so many pairwise distances tie."""
    rng = np.random.default_rng(seed)

    def make(k):
        coeffs = 0.3 * (rng.integers(-1, 2, (k, 3)) + 1j * rng.integers(-1, 2, (k, 3)))
        w = np.full(k, 1.0) if uniform else rng.integers(1, 5, k).astype(float)
        return WeightedEnsemble(coeffs, w / w.sum())

    return make(n), make(m)


def bottleneck_cases():
    """(a, b, witness) pairs over every search path; the witness is None or the W_p plan."""
    pairs = [sparse_pair(), light_draw_pair()]
    pairs += [(weighted_ensemble(n, 4, seed=k), weighted_ensemble(n + 3, 4, seed=50 + k))
              for k, n in enumerate((3, 8, 20, 40))]
    pairs += [quantized_pair(k, 12, 9, uniform=False) for k in range(4)]
    pairs += [quantized_pair(10 + k, 10, 10, uniform=True) for k in range(3)]
    pairs += [(uniform_ensemble(n, 3, seed=k), uniform_ensemble(n, 3, seed=70 + k))
              for k, n in enumerate((4, 12, 30))]
    # one complex mode: uniform pairs whose value lies above the lower bound
    pairs += [(uniform_ensemble(n, 1, seed=k), uniform_ensemble(n, 1, seed=70 + k))
              for k, n in ((2, 6), (1, 12), (0, 30))]
    pairs += [gibbs_pair(k, shifted=True) for k in range(2)]
    pairs += [gibbs_pair(k, shifted=False) for k in range(3)]
    for a, b in pairs:
        yield a, b, None
        yield a, b, wasserstein_p_exact(a, b, 0.25, 2.0)[1]


def test_cut_search_equals_the_bisection_it_replaced(count_calls):
    from scipy.optimize import linprog
    from scipy.sparse.csgraph import maximum_bipartite_matching, maximum_flow

    probes = count_calls(maximum_flow), count_calls(maximum_bipartite_matching)
    lps = count_calls(linprog)
    climbed = 0
    for a, b, witness in bottleneck_cases():
        want, _, want_probes = bisection_winf(a, b, witness)
        before = len(probes[0]) + len(probes[1]), len(lps)
        value, plan = wasserstein_inf(a, b, witness)
        made = len(probes[0]) + len(probes[1]) - before[0]
        assert value == want
        assert made <= want_probes
        assert len(lps) == before[1]  # no LP inside the bottleneck search
        assert plan.check()
        if plan is witness:
            continue
        climbed += made > 1
        assert max(plan.row_residual, plan.col_residual) < 2.0**-30
        ia, ib = live(a, b)
        edges = _distance_matrix(*transport._common_modes(a, b), 0.0)[plan.rows, plan.cols]
        every_draw_holds_a_unit = all(
            np.all(transport._round_to_total(w, transport._FLOW_SCALE) > 0)
            for w in (a.weights[ia], b.weights[ib])
        )
        if every_draw_holds_a_unit:
            assert edges.max() == value
        else:
            assert edges.max() <= value
    assert climbed > 10  # the cases exercise the jumps, not only the lower bound


def reference_jump(sub, lam, ua, ub):
    """The least edge leaving the residual reach of a max flow at ``lam``, by a generic BFS.

    The source side of the minimal min cut is the same for every maximum
    flow, so an Edmonds-Karp flow on a COO-built network names the same cut
    as the search's own flow.
    """
    from scipy import sparse
    from scipy.sparse.csgraph import breadth_first_order, maximum_flow

    n, m = sub.shape
    src, dst = n + m, n + m + 1
    rows_i, cols_j = np.nonzero(sub <= lam)
    row = np.concatenate([np.full(n, src), rows_i, n + np.arange(m)])
    col = np.concatenate([np.arange(n), n + cols_j, np.full(m, dst)])
    cap = np.concatenate([ua, np.full(rows_i.size, ua.sum()), ub]).astype(np.int32)
    graph = sparse.coo_matrix((cap, (row, col)), shape=(n + m + 2,) * 2).tocsr()
    flow = maximum_flow(graph, src, dst, method="edmonds_karp").flow
    residual = sparse.csr_matrix(graph.toarray() - flow.toarray() > 0)
    reach = breadth_first_order(residual, src, return_predecessors=False)
    rows = reach[reach < n]
    cols = np.setdiff1d(np.arange(m), reach[(reach >= n) & (reach < n + m)] - n)
    return sub[np.ix_(rows, cols)].min()


def test_each_jump_lands_on_the_least_edge_leaving_the_min_cut(monkeypatch):
    for a, b, _ in itertools.islice(bottleneck_cases(), 0, None, 2):
        ia, ib, xa, xb = transport._live_support(a, b)
        sub = _distance_matrix(xa, xb, 0.0)
        if transport._uniform_equal(a, b):
            ua = ub = np.ones(a.n, np.int64)
        else:
            ua = transport._round_to_total(a.weights[ia], transport._FLOW_SCALE)
            ub = transport._round_to_total(b.weights[ib], transport._FLOW_SCALE)
        seen = []
        for name in ("_max_flow", "_max_matching"):
            def spy(mask, *units, probe=getattr(transport, name)):
                seen.append(sub[mask].max())
                return probe(mask, *units)
            monkeypatch.setattr(transport, name, spy)
        value, _ = wasserstein_inf(a, b)
        monkeypatch.undo()
        assert seen[0] == max(sub.min(axis=1).max(), sub.min(axis=0).max())
        assert seen[-1] == value
        for lam, nxt in zip(seen, seen[1:]):
            assert nxt == reference_jump(sub, lam, ua, ub)


def test_a_cut_that_cannot_raise_the_threshold_stops_the_search(monkeypatch):
    # a short row whose reach covers every column leaves no crossing edge
    sub = np.array([[0.1, 0.2], [0.3, 0.4]])
    none = np.array([], int)
    short = np.array([True, False])
    assert transport._cut_threshold(sub, sub <= 0.4, short, none, none) == np.inf
    a, b = gibbs_pair(1, shifted=False)  # climbs above its lower bound
    for stuck in (lambda sub, mask, *flow: np.inf, lambda sub, mask, *flow: sub[mask].max()):
        monkeypatch.setattr(transport, "_cut_threshold", stuck)
        with pytest.raises(RuntimeError, match="bottleneck feasibility"):
            wasserstein_inf(a, b)
