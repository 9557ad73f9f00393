import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_plan
from kdvlab import transport
from kdvlab.flow import SolverConfig, evolve_many
from kdvlab.measures import GaussianSpec, GibbsSpec, WeightedEnsemble, sample_gaussian, sample_gibbs
from kdvlab.spectral import cosine_mode, hs_weights, sobolev_norm
from kdvlab.transport import (
    _MASS_EPS,
    SinkhornConvergenceError,
    TransportPlan,
    _distance_matrices,
    _live_block,
    _plan_from,
    _transport_lp,
    combined_metric_parts,
    cost_matrix,
    plan_cost,
    wasserstein_inf,
    wasserstein_p_entropic,
    wasserstein_p_exact,
    write_plan_csv,
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


def distances(xa, xb, s):
    """Pairwise H^s distances from the transport kernel."""
    return _distance_matrices(xa, xb, (s,))[0]


# --- brute-force oracles ------------------------------------------------------


def brute_wp_uniform(a, b, s, p):
    cost = cost_matrix(a, b, s, p)
    n = a.n
    best = min(
        sum(cost[i, perm[i]] for i in range(n))
        for perm in itertools.permutations(range(n))
    )
    return (best / n) ** (1.0 / p)


def brute_winf_uniform(a, b):
    dist = cost_matrix(a, b, 0.0, 1.0)
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
    assert np.all(np.diag(cm) == 0.0)

    x = cosine_mode(1, 3)
    y = 0.5 * cosine_mode(2, 3)
    cm1 = cost_matrix(singleton(x), singleton(y), 0.25, 2.0)
    assert cm1.shape == (1, 1)
    assert cm1[0, 0] == pytest.approx(sobolev_norm(x - y, 0.25) ** 2, rel=1e-12)


def test_cost_matrix_translation_consistency():
    a = uniform_ensemble(3, 4, seed=1)
    b = uniform_ensemble(5, 4, seed=2)
    delta = 0.05
    shifted = a.replace(coeffs=a.coeffs + delta * cosine_mode(2, 4).modes[None, :])
    base = cost_matrix(a, b, 0.3, 1.0)
    moved = cost_matrix(shifted, b, 0.3, 1.0)
    # row entries move by at most the norm of the shift (triangle inequality)
    shift_norm = sobolev_norm(delta * cosine_mode(2, 4), 0.3)
    assert np.max(np.abs(moved - base)) <= shift_norm + 1e-12


def test_cost_matrix_pads_mode_counts():
    a = uniform_ensemble(3, 2, seed=3)
    b = uniform_ensemble(4, 5, seed=4)
    cm = cost_matrix(a, b, 0.0, 2.0)
    assert cm.shape == (3, 4)
    assert np.all(cm >= 0)


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
        cost = cost_matrix(a, b, 0.25, 2.0)
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
        med = float(np.median(cost_matrix(a, b, 0.25, 2.0)))
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
    # an infinite epsilon used to end in a Sinkhorn failure with residual nan
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="regularisation must be finite and positive"):
            wasserstein_p_entropic(a, b, 0.25, 2.0, epsilon=bad)


def test_entropic_nonconvergence_error(monkeypatch):
    a = uniform_ensemble(5, 3, seed=12)
    b = uniform_ensemble(5, 3, seed=13)
    monkeypatch.setattr(transport, "SINKHORN_MAX_SWEEPS", 5)
    monkeypatch.setattr(transport, "SINKHORN_TOL", 1e-12)
    with pytest.raises(SinkhornConvergenceError) as err:
        wasserstein_p_entropic(a, b, 0.25, 2.0, epsilon=1e-7)
    assert err.value.residual > 0


def test_entropic_results_keep_their_values_and_sweeps():
    # default epsilon, s 0.25, p 2: values and target-level sweeps before the two-reduction sweep
    gauss = [sample_gaussian(GaussianSpec(8, seed), 10) for seed in (0, 100)]
    gibbs = [sample_gibbs(GibbsSpec(GaussianSpec(8, seed)), 52)[0] for seed in (1, 101)]
    for (a, b), value, sweeps in ((gauss, 2.4611726289588924, 1392),
                                  (gibbs, 1.3787882667286353, 40)):
        res = wasserstein_p_entropic(a, b, 0.25, 2.0)
        assert res.value == pytest.approx(value, rel=1e-12, abs=0.0)
        assert res.iterations == sweeps


def test_sinkhorn_makes_two_reductions_a_sweep_and_one_a_level(monkeypatch):
    # a sweep used to make a third reduction, over a log-plan it built only for its residual
    axes = []

    def counted(values, axis):
        axes.append(axis)
        return logsumexp(values, axis=axis)

    logsumexp = transport.logsumexp
    monkeypatch.setattr(transport, "logsumexp", counted)
    a, b = uniform_ensemble(6, 3, seed=12), uniform_ensemble(7, 3, seed=13)
    cost = cost_matrix(a, b, 0.25, 2.0)
    # one level: epsilon above a quarter of the cost range runs no annealing
    res = wasserstein_p_entropic(a, b, 0.25, 2.0, epsilon=float(np.ptp(cost)))
    assert len(axes) == 2 * res.iterations + 1
    axes.clear()
    res = wasserstein_p_entropic(a, b, 0.25, 2.0)
    levels, level = 1, 0.25 * float(np.ptp(cost))
    while level > res.epsilon:
        levels, level = levels + 1, level / 2.0
    assert levels > 2
    # each sweep makes one column reduction and one row reduction; each level one row more
    assert axes.count(1) == axes.count(0) + levels and len(axes) == 2 * axes.count(0) + levels


@pytest.mark.parametrize("p", [np.inf, np.nan, 0.5, 0.0])
def test_entropic_rejects_an_order_exact_rejects(p, tmp_path):
    # p = inf used to run every Sinkhorn sweep on NaN potentials before failing;
    # the dense costs, the plan price and the plan file read the same rule, where
    # cost_matrix returned an all-inf matrix at p = inf, plan_cost priced p = 0.5
    # and p = inf and divided by zero at p = 0, and write_plan_csv wrote p = 0.5
    a, b = uniform_ensemble(6, 3, seed=12), uniform_ensemble(6, 3, seed=13)
    plan = wasserstein_p_exact(a, b, 0.25, 2.0)[1]
    readers = [lambda: wasserstein_p_exact(a, b, 0.25, p),
               lambda: wasserstein_p_entropic(a, b, 0.25, p),
               lambda: cost_matrix(a, b, 0.25, p), lambda: plan_cost(a, b, plan, 0.25, p),
               lambda: write_plan_csv(tmp_path / "plan.csv", plan, a, b, 0.25, p)]
    for read in readers:
        with pytest.raises(ValueError, match="the transport order must be a finite p >= 1"):
            read()
    assert not (tmp_path / "plan.csv").exists()


def test_plan_pricing_refuses_a_negative_exponent(tmp_path):
    # plan_cost used to price s = -1, which no distance accepts
    a, b = uniform_ensemble(6, 3, seed=12), uniform_ensemble(6, 3, seed=13)
    plan = wasserstein_p_exact(a, b, 0.25, 2.0)[1]
    for s in (-1.0, np.nan):
        for read in (lambda: plan_cost(a, b, plan, s, 2.0), lambda: cost_matrix(a, b, s, 2.0),
                     lambda: write_plan_csv(tmp_path / "plan.csv", plan, a, b, s, 2.0)):
            with pytest.raises(ValueError, match="regularity exponent must be >= 0"):
                read()
    assert not (tmp_path / "plan.csv").exists()


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
        dist = cost_matrix(a, b, 0.0, 1.0)
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
        dist = cost_matrix(a, b, 0.0, 1.0)
        value, plan = wasserstein_inf(a, b)
        assert value == pytest.approx(brute_winf_2x2(a.weights, b.weights, dist), abs=1e-9)
        assert plan.check()


# --- combined metric and pushforward ---------------------------------------


def test_combined_metric_trivial_cases():
    a = uniform_ensemble(4, 3, seed=15)
    assert combined_metric_parts(a, a, 0.25, 2.0).total == 0.0
    x = cosine_mode(1, 2)
    y = 0.3 * cosine_mode(2)
    expect = sobolev_norm(x - y, 0.0) + sobolev_norm(x - y, 0.25)
    assert combined_metric_parts(singleton(x), singleton(y), 0.25, 2.0).total == pytest.approx(
        expect, rel=1e-12
    )


def test_combined_metric_matches_permutation_oracle():
    for seed in range(10):
        a = uniform_ensemble(4, 3, seed=seed)
        b = uniform_ensemble(4, 3, seed=3000 + seed)
        got = combined_metric_parts(a, b, 0.25, 2.0).total
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
    at0 = plan_cost(a, b, plan, 0.25, 2.0)
    assert at0.w_p_bound == pytest.approx(value0, rel=1e-12)

    # identity plan on a == b keeps coupled points together at every time
    _, ident = wasserstein_p_exact(a, a, 0.25, 2.0)
    a_moved = evolved(a, 0.4)
    moved = plan_cost(a_moved, a_moved, ident, 0.25, 2.0)
    assert moved.w_p_bound == 0.0 and moved.w_inf_bound == 0.0

    # re-optimising after evolution can only decrease the coupled-plan price
    t = 0.5
    a_t, b_t = evolved(a, t), evolved(b, t)
    bound = plan_cost(a_t, b_t, plan, 0.25, 2.0)
    re_opt, _ = wasserstein_p_exact(a_t, b_t, 0.25, 2.0)
    assert bound.w_p_bound >= re_opt - 1e-12


def test_entropic_backend_flagged():
    a = uniform_ensemble(5, 3, seed=18)
    b = uniform_ensemble(5, 3, seed=19)
    parts = combined_metric_parts(a, b, 0.25, 2.0, backend="entropic")
    assert parts.backend == "entropic"
    assert parts.epsilon is not None and parts.epsilon > 0
    exact = combined_metric_parts(a, b, 0.25, 2.0).total
    assert parts.total >= exact - 1e-9
    with pytest.raises(ValueError):
        combined_metric_parts(a, b, 0.25, 2.0, backend="fancy")


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
    return distances(a.padded(m).coeffs, b.padded(m).coeffs, s)


def live(a, b):
    return np.flatnonzero(a.weights > 0), np.flatnonzero(b.weights > 0)


def solve_on_dense_slices(monkeypatch, a, b, solve):
    """Run a solver with its live-block distances sliced out of a dense build."""
    ia, ib = live(a, b)

    def dense_slice(xa, xb, exponents):
        assert xa.shape[0] == ia.size and xb.shape[0] == ib.size  # only live draws reach here
        return [dense_distances(a, b, s)[np.ix_(ia, ib)] for s in exponents]

    with monkeypatch.context() as patch:
        patch.setattr(transport, "_distance_matrices", dense_slice)
        return solve()


def assert_dead_zero(plan, a, b):
    ia, ib = live(a, b)
    assert np.all(np.delete(dense_plan(plan), ia, axis=0) == 0.0)
    assert np.all(np.delete(dense_plan(plan), ib, axis=1) == 0.0)


def linprog_lp(wa, wb, cost, mask):
    """Transportation LP on the allowed edges of ``mask`` through ``linprog``, as (rows, cols, mass), or None.

    Variables are the allowed edges in row-major order; one row constraint
    per supply and one column constraint per demand, less one redundant
    column.  An all-True mask is the full LP that ``_transport_lp`` solves
    on a bare HiGHS model; this is its reference.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    n, m = cost.shape
    rows_i, cols_j = np.nonzero(mask)
    n_var = rows_i.size
    data = np.ones(2 * n_var)
    row_idx = np.concatenate([rows_i, n + cols_j])
    col_idx = np.concatenate([np.arange(n_var), np.arange(n_var)])
    a_eq = sparse.csr_matrix((data, (row_idx, col_idx)), shape=(n + m, n_var))[:-1]
    b_eq = np.concatenate([wa, wb[:-1]])
    res = linprog(cost[rows_i, cols_j], A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        return None
    return rows_i, cols_j, np.maximum(res.x, 0.0)


def test_pruned_exact_equals_dense_reference():
    a, b = sparse_pair()
    ia, ib = live(a, b)
    s, p = 0.25, 2.0
    dist = dense_distances(a, b, s)
    dense = dist**p
    full = np.zeros((a.n, b.n))
    block = dense[np.ix_(ia, ib)]
    _, _, mass = linprog_lp(a.weights[ia], b.weights[ib], block, np.ones(block.shape, bool))
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
        dist[np.ix_(ia, ib)], distances(a.padded(b.n_modes).coeffs[ia], b.coeffs[ib], s)
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
            dist_hs = distances(xa, xb, s)
            dist_l2 = distances(xa, xb, 0.0)
            got = plan_cost(a.replace(coeffs=xa), b.replace(coeffs=xb), plan, s, p)
            assert got.w_p_bound == float(np.sum(full[mask] * dist_hs[mask] ** p)) ** (1 / p)
            assert got.w_inf_bound == float(np.max(dist_l2[mask]))


def test_pruned_metric_of_an_ensemble_with_itself_is_zero():
    a, _ = sparse_pair()
    assert combined_metric_parts(a, a, 0.25, 2.0).total == 0.0


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
            want = plan_cost(a.replace(coeffs=xa), b.replace(coeffs=xb), plan, s, p)
            # rows and columns of zero weight may hold anything: they are never priced
            ya, yb = xa.copy(), xb.copy()
            ya[a.weights == 0] = 1e3
            yb[b.weights == 0] = -1e3
            junk = plan_cost(a.replace(coeffs=ya), b.replace(coeffs=yb), plan, s, p)
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
        assert value == plan_cost(a, b, plan, s, p).w_p_bound


def traced_peak(call):
    """The tracemalloc peak, in bytes, of ``call()`` and its result."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


def test_solvers_allocate_nothing_of_the_full_layout():
    rng = np.random.default_rng(42)

    def ensemble(n, live, modes=8):
        coeffs = 0.3 * (rng.standard_normal((n, modes)) + 1j * rng.standard_normal((n, modes)))
        w = np.zeros(n)
        w[rng.choice(n, size=live, replace=False)] = rng.random(live) + 0.1
        return WeightedEnsemble(coeffs, w / w.sum())

    dense = 0.05 * 4096 * 4096 * 8  # 5% of one dense float64 (n, m) array
    padded = 4096 * 48 * 16  # one full ensemble zero-padded to 48 complex modes
    cases = [
        (ensemble(4096, 40), ensemble(4096, 41), dense),
        (ensemble(4096, 40, modes=16), ensemble(4096, 40, modes=48), padded),
    ]
    for a, b, bound in cases:
        for backend in ("exact", "entropic"):
            peak, parts = traced_peak(lambda: combined_metric_parts(a, b, 0.25, 2.0, backend))
            assert peak < bound
            assert parts.plan.shape == (4096, 4096) and parts.plan.check()
            assert parts.inf_plan.shape == (4096, 4096) and parts.inf_plan.check()


def test_plan_pricing_gathers_only_the_support(tmp_path):
    # 40 pairs between 4096 draws of 16 modes and 4096 of 48: padding the
    # 16-mode ensemble whole would take 4096 * 48 * 16 bytes, 3.1 MB
    rng = np.random.default_rng(8)
    a, b = (WeightedEnsemble(0.3 * (rng.standard_normal((4096, k)) + 1j * rng.standard_normal((4096, k))),
                             np.full(4096, 1.0 / 4096)) for k in (16, 48))
    rows, cols = np.sort(rng.choice(4096, 40, replace=False)), rng.choice(4096, 40, replace=False)
    plan = TransportPlan(rows, cols, np.full(40, 1.0 / 40), (4096, 4096), 0.0, 0.0)
    peak, cost = traced_peak(lambda: plan_cost(a, b, plan, 0.25, 2.0))
    assert peak < 1e6
    dist = np.diagonal(distances(a.padded(48).coeffs[rows], b.coeffs[cols], 0.25))
    assert cost.w_p_bound == float(np.sum(plan.mass * dist**2.0)) ** 0.5
    peak, _ = traced_peak(lambda: write_plan_csv(tmp_path / "plan.csv", plan, a, b, 0.25, 2.0))
    assert peak < 1e6
    written = np.loadtxt(tmp_path / "plan.csv", delimiter=",", skiprows=1)
    assert np.array_equal(written[:, 3], dist**2.0)


@pytest.mark.parametrize("n", [300, 1024])
def test_distance_kernel_holds_two_real_buffers_per_block(n):
    # 300 rows make one block of 2^22 / (300 * 16) rows, 1024 rows make four
    rng = np.random.default_rng(n)
    xa, xb = (0.3 * (rng.standard_normal((n, 16)) + 1j * rng.standard_normal((n, 16)))
              for _ in range(2))
    peak, out = traced_peak(lambda: _distance_matrices(xa, xb, (0.25, 0.0)))
    block = min(n, (1 << 22) // (n * 16)) * n * 16
    assert peak - sum(d.nbytes for d in out) < 2.5 * 8 * block


def complex_difference_distances(xa, xb, s):
    """H^s distances from each row's complex difference, the arithmetic the kernel must keep."""
    w = hs_weights(xa.shape[1], s)
    rows = []
    for x in xa:
        d = x - xb
        rows.append(np.sqrt(np.sum(w * (d.real**2 + d.imag**2), axis=-1)))
    return np.array(rows)


def test_in_place_kernel_has_the_bits_of_the_complex_difference():
    rng = np.random.default_rng(5)
    # 1000 x 1024 x 16 takes four row blocks, the last one short
    for n, m, k in [(1, 1, 1), (7, 5, 3), (40, 41, 48), (1000, 1024, 16)]:
        xa = 0.3 * (rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))
        xb = 0.3 * (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k)))
        xb[::3] = xa[rng.integers(0, n, xb[::3].shape[0])]  # ties, which must give exact zeros
        exponents = (0.25, 0.0)
        for got, s in zip(_distance_matrices(xa, xb, exponents), exponents):
            want = complex_difference_distances(xa, xb, s)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            assert np.count_nonzero(got == 0.0) >= xb[::3].shape[0]
        rows, cols = rng.integers(0, n, 500), rng.integers(0, m, 500)
        a, b = (WeightedEnsemble(x, np.full(len(x), 1.0 / len(x))) for x in (xa, xb))
        got = transport._pair_distances(a, b, rows, cols, 0.25)
        d = xa[rows] - xb[cols]
        want = np.sqrt(np.sum(hs_weights(k, 0.25) * (d.real**2 + d.imag**2), axis=-1))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


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
    return float(np.min(cost_matrix(a, b, 0.0, 1.0)[i]))


def test_bottleneck_reaches_every_positive_weight():
    # the flow test rounds a weight of 1e-12 to no units at all and an LP
    # accepts the empty row within its tolerance: only the lower bound, every
    # live draw's nearest edge, keeps the light draw in the value
    a, b = light_draw_pair()
    far = nearest_edge(a, b, 5)
    assert far > 10 * np.max(np.min(cost_matrix(a, b, 0.0, 1.0)[:5], axis=1))
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
        assert np.max(dense_distances(a, b, 0.0)[plan.rows, plan.cols]) <= value


def test_closed_bracket_costs_no_probe_and_no_confirming_lp(count_calls):
    from scipy.sparse.csgraph import maximum_flow

    a, b = gibbs_pair(0, shifted=True)
    probes, lps = count_calls(maximum_flow), count_calls(_transport_lp)
    parts = combined_metric_parts(a, b, 0.25, 2.0)
    assert len(probes) == 0 and len(lps) == 0  # W_p is certified from its assignment
    assert parts.inf_plan is parts.plan
    assert parts.w_inf == wasserstein_inf(a, b)[0]


def test_combined_metric_builds_one_live_block(count_calls):
    # one pass over the live draws and one distance build serve both parts
    blocks, kernels = count_calls(_live_block), count_calls(_distance_matrices)
    for a, b in [sparse_pair(), gibbs_pair(0, shifted=False), gibbs_pair(1, shifted=True)]:
        for backend in ("exact", "entropic"):
            blocks.clear()
            kernels.clear()
            parts = combined_metric_parts(a, b, 0.25, 2.0, backend)
            assert len(blocks) == 1 and len(kernels) == 1
            want = (wasserstein_p_exact(a, b, 0.25, 2.0)[0] if backend == "exact"
                    else wasserstein_p_entropic(a, b, 0.25, 2.0).value)
            assert parts.w_p == want and parts.w_inf == wasserstein_inf(a, b)[0]
    # a square pair with equal weights still solves no LP
    a, b = gibbs_pair(2, shifted=True)
    lps = count_calls(_transport_lp)
    combined_metric_parts(a, b, 0.25, 2.0)
    assert lps == []


# --- the assignment certificate of exact W_p -----------------------------------


def lp_oracle(a, b, s, p):
    """Exact W_p and its plan from the full transportation LP on the live block, through ``linprog``."""
    block = _live_block(a, b, s)
    cost = block.hs**p
    support = linprog_lp(block.wa, block.wb, cost, np.ones(cost.shape, bool))
    plan, r, c = _plan_from(*support, block.ia, block.ib, a, b)
    return float(np.sum(plan.mass * cost[r, c])) ** (1.0 / p), plan


def test_bare_highs_model_is_the_linprog_lp():
    # _transport_lp drives scipy's private HiGHS binding; if scipy moves it or
    # changes what it solves, this fails before any distance does
    from scipy.optimize._highspy import _core

    assert callable(_core._Highs) and callable(_core.HighsLp)
    for n, m in ((7, 5), (6, 6), (1, 4), (4, 1)):
        a, b = weighted_ensemble(n, 3, seed=30 + n), weighted_ensemble(m, 3, seed=40 + m)
        cost = cost_matrix(a, b, 0.25, 2.0)
        (r, c, mass), (r0, c0, mass0) = (
            _transport_lp(a.weights, b.weights, cost),
            linprog_lp(a.weights, b.weights, cost, np.ones(cost.shape, bool)),
        )
        assert np.array_equal(r, r0) and np.array_equal(c, c0)
        # linprog's presolve may round a mass differently in the last bits
        # (3e-17 on the 1 x 4 case); the support and the optimum agree
        assert np.max(np.abs(mass - mass0)) <= 1e-16
        assert abs(mass @ cost.ravel() - mass0 @ cost.ravel()) <= 1e-15 * (mass0 @ cost.ravel())
    # a demand above the total supply leaves no feasible plan
    with pytest.raises(RuntimeError, match="transport LP failed"):
        _transport_lp(np.array([0.5, 0.5]), np.array([1.5, -0.5]), np.ones((2, 2)))


def assert_same_plan(got, want):
    for name in ("rows", "cols", "mass"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert (got.shape, got.row_residual, got.col_residual) == (want.shape, want.row_residual, want.col_residual)


def test_equal_weights_are_certified_from_the_assignment_with_no_lp(count_calls):
    lps = count_calls(_transport_lp)
    for k in range(3):
        a, b = gibbs_pair(k, shifted=True)
        assert not np.allclose(a.weights[a.weights > 0], a.weights.max())  # not uniform
        value, plan = wasserstein_p_exact(a, b, 0.25, 2.0)
        assert lps == []
        want, want_plan = lp_oracle(a, b, 0.25, 2.0)
        lps.clear()
        assert value == want
        assert_same_plan(plan, want_plan)


def test_unequal_or_non_square_weights_solve_one_lp(count_calls):
    from scipy.optimize import linear_sum_assignment

    # b's weights are a's permuted, but its draws are independent of a's, so
    # the optimal assignment carries some weight onto an unequal one
    a = weighted_ensemble(6, 3, seed=21)
    b = weighted_ensemble(6, 3, seed=22).replace(weights=a.weights[::-1].copy())
    _, c = linear_sum_assignment(cost_matrix(a, b, 0.25, 2.0))
    assert not np.array_equal(a.weights, b.weights[c])
    lps = count_calls(_transport_lp)
    for a, b in [(a, b), (weighted_ensemble(6, 3, seed=23), weighted_ensemble(4, 3, seed=24))]:
        value, plan = wasserstein_p_exact(a, b, 0.25, 2.0)
        assert len(lps) == 1
        want, want_plan = lp_oracle(a, b, 0.25, 2.0)
        lps.clear()
        assert value == want
        assert_same_plan(plan, want_plan)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    ties=st.integers(2, 4),
    noise=st.sampled_from([1e-3, 10.0]),
    data=st.data(),
)
def test_permuted_weights_give_the_lp_value(n, seed, ties, noise, data):
    # b's draws are a's, permuted and moved by noise, with a's weights permuted
    # the same way; small noise lets the certificate fire, large noise and
    # tied weights (drawn from `ties` levels) exercise both paths
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    w = rng.integers(1, ties + 1, n).astype(float)
    a = WeightedEnsemble(coeffs, w / w.sum())
    perm = np.array(data.draw(st.permutations(range(n))))
    moved = coeffs[perm] + noise * (rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3)))
    b = WeightedEnsemble(moved, a.weights[perm])
    value, plan = wasserstein_p_exact(a, b, 0.25, 2.0)
    want, _ = lp_oracle(a, b, 0.25, 2.0)
    assert abs(value - want) <= 1e-14 * want
    assert plan.check()


def test_distance_of_a_weighted_file_with_itself_is_zero_with_no_lp(tmp_path, capsys, count_calls):
    import json

    from kdvlab.cli import EXIT_OK, cli_entry
    from kdvlab.kdve_io import read_ensemble

    path = tmp_path / "g.kdve"
    assert cli_entry(["sample", "--measure", "gibbs", "--modes", "6", "--n", "96",
                      "--seed", "4", "--out", str(path)]) == EXIT_OK
    w = read_ensemble(path).weights
    assert np.unique(w[w > 0]).size > 1  # weights are not uniform
    capsys.readouterr()
    lps = count_calls(_transport_lp)
    assert cli_entry(["distance", "--a", str(path), "--b", str(path)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["distance"] == 0.0
    assert lps == []


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

    block = _live_block(a, b, 0.0)
    ia, ib, wa, wb, sub = block.ia, block.ib, block.wa, block.wb, block.l2
    levels = np.unique(sub)
    lower = max(sub.min(axis=1).max(), sub.min(axis=0).max())
    top = transport._witness_edge(witness, ia, ib, sub)
    lo = int(np.searchsorted(levels, lower))
    hi = levels.size - 1 if top is None else int(np.searchsorted(levels, top))
    uniform = block.uniform
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
        support = linprog_lp(wa, wb, sub, sub <= levels[idx])
        while support is None and idx + 1 < levels.size:
            idx += 1
            support = linprog_lp(wa, wb, sub, sub <= levels[idx])
    return float(levels[idx]), _plan_from(*support, ia, ib, a, b)[0], probes


def quantized_pair(seed, n, m, uniform):
    """Coefficients on a coarse integer lattice, so many pairwise distances tie."""
    rng = np.random.default_rng(seed)

    def make(k):
        coeffs = 0.3 * (rng.integers(-1, 2, (k, 3)) + 1j * rng.integers(-1, 2, (k, 3)))
        w = np.full(k, 1.0) if uniform else rng.integers(1, 5, k).astype(float)
        return WeightedEnsemble(coeffs, w / w.sum())

    return make(n), make(m)


def two_cluster_pair(seed, n=6, m=7):
    """Two clusters holding halves of a's mass but 2/5 and 3/5 of b's.

    Each draw fits inside its own cluster, so the singleton bound is an edge
    within a cluster, while the first cluster's rows together lack a tenth of
    the mass: the deficient cut spans several rows and the climb must jump.
    """
    rng = np.random.default_rng(seed)
    centres = 0.5 * (rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4)))

    def make(k, shares):
        side = np.arange(k) % 2
        noise = rng.standard_normal((k, 4)) + 1j * rng.standard_normal((k, 4))
        coeffs = centres[side] + 0.05 * noise
        w = rng.random(k) + 0.5
        for c, share in enumerate(shares):
            w[side == c] *= share / w[side == c].sum()
        return WeightedEnsemble(coeffs, w)

    return make(n, (0.5, 0.5)), make(m, (0.4, 0.6))


def singleton_hall_bound(sub, ua, ub):
    """The least threshold at which each single row's and column's units fit, edge by edge."""

    def least(dist, supply, demand):
        return max(min(lam for lam in d if demand[d <= lam].sum() >= u)
                   for d, u in zip(dist, supply))

    return max(least(sub, ua, ub), least(sub.T, ub, ua))


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
    pairs += [two_cluster_pair(k) for k in range(3)]
    for a, b in pairs:
        yield a, b, None
        yield a, b, wasserstein_p_exact(a, b, 0.25, 2.0)[1]


def test_cut_search_equals_the_bisection_it_replaced(count_calls):
    from scipy.sparse.csgraph import maximum_bipartite_matching, maximum_flow

    probes = count_calls(maximum_flow), count_calls(maximum_bipartite_matching)
    lps = count_calls(_transport_lp)
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
        edges = dense_distances(a, b, 0.0)[plan.rows, plan.cols]
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
        block = _live_block(a, b, 0.0)
        sub = block.l2
        if block.uniform:
            ua = ub = np.ones(a.n, np.int64)
        else:
            ua = transport._round_to_total(block.wa, transport._FLOW_SCALE)
            ub = transport._round_to_total(block.wb, transport._FLOW_SCALE)
        seen = []
        for name in ("_max_flow", "_max_matching"):
            def spy(mask, *units, probe=getattr(transport, name)):
                seen.append(sub[mask].max())
                return probe(mask, *units)
            monkeypatch.setattr(transport, name, spy)
        value, _ = wasserstein_inf(a, b)
        monkeypatch.undo()
        assert seen[0] == singleton_hall_bound(sub, ua, ub)
        assert seen[-1] == value
        for lam, nxt in zip(seen, seen[1:]):
            assert nxt == reference_jump(sub, lam, ua, ub)


def test_a_cut_that_cannot_raise_the_threshold_stops_the_search(monkeypatch):
    # a short row whose reach covers every column leaves no crossing edge
    sub = np.array([[0.1, 0.2], [0.3, 0.4]])
    none = np.array([], int)
    short = np.array([True, False])
    assert transport._cut_threshold(sub, sub <= 0.4, short, none, none) == np.inf
    a, b = two_cluster_pair(0)  # climbs above its singleton bound
    for stuck in (lambda sub, mask, *flow: np.inf, lambda sub, mask, *flow: sub[mask].max()):
        monkeypatch.setattr(transport, "_cut_threshold", stuck)
        with pytest.raises(RuntimeError, match="bottleneck feasibility"):
            wasserstein_inf(a, b)


def test_sinkhorn_stops_where_its_potentials_stop_moving():
    # at epsilon = 1e-300 the potentials lose every bit that the plan needs: a
    # sweep gives back the g it started from, and no later sweep can converge
    a, b = uniform_ensemble(3, 4, 0), uniform_ensemble(5, 4, 1)
    with pytest.raises(SinkhornConvergenceError) as failed, np.errstate(over="ignore"):
        wasserstein_p_entropic(a, b, 0.25, 2.0, epsilon=1e-300)
    assert failed.value.iterations < 10
