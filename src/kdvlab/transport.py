"""Optimal transport between weighted ensembles of torus fields.

Three solvers over the coupling polytope Marg(a, b):

* an exact one (optimal assignment for uniform equal-size marginals, a
  linear program otherwise),
* a bottleneck solver for the order-infinity distance (a threshold search
  that climbs from every live draw's nearest edge, each failed max-flow or
  matching naming the next threshold through its min cut, capped by a
  witness coupling; the last flow is the plan),
* an entropically regularised one whose plan is rounded back to exact
  feasibility, so its value always upper-bounds the exact optimum; its
  default regularisation is set from the live costs.

Distances are |x - y|_{H^s} raised to the requested power; the combined
metric adds the bottleneck value in L2 to the p-cost in H^s.

Zero-weight draws carry no mass in any coupling, so every solver gathers
the positive-weight rows and columns first and builds distances on that
live block only; a Gibbs ensemble keeps only a few percent of its draws.
A plan is stored as its support, in full-layout indices, so no solver
allocates an (n, m) array; values, residuals, ``plan_cost`` (on ensembles
already evolved to time t) and ``write_plan_csv`` all read that support.
``combined_metric_parts`` solves the order-p part first, hands its plan to
the bottleneck search as the witness, and returns both plans, so a caller
never solves the same pair twice.  Where the witness's longest edge meets
the lower bound (as on a pair and its small perturbation), the bottleneck
value is certified with no probe; the bottleneck never solves an LP.
``cost_matrix`` is the dense matrix over every draw, for callers that want
it; no solver uses it.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse.csgraph import maximum_bipartite_matching, maximum_flow
from scipy.special import logsumexp

from .measures import WeightedEnsemble
from .spectral import NORM_FACTOR

MARGINAL_TOL = 1e-9
_MASS_EPS = 1e-15  # plan entries below this are treated as structural zeros


class SinkhornConvergenceError(RuntimeError):
    def __init__(self, residual: float, iterations: int):
        super().__init__(
            f"Sinkhorn failed to reach the marginal tolerance after "
            f"{iterations} iterations (residual {residual:.3e})"
        )
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class CostMatrix:
    """Pairwise costs c_ij = |x_i - y_j|_{H^s}^p."""

    entries: np.ndarray
    s: float
    p: float


@dataclass(frozen=True)
class TransportPlan:
    """Coupling of ``shape`` (n, m) as its support, with the marginal residuals it achieves.

    Entry k moves ``mass[k]`` >= ``_MASS_EPS`` from draw ``rows[k]`` to draw
    ``cols[k]``, in row-major order; every other entry is zero.
    """

    rows: np.ndarray
    cols: np.ndarray
    mass: np.ndarray
    shape: tuple[int, int]
    row_residual: float
    col_residual: float

    def check(self, tol: float = MARGINAL_TOL) -> bool:
        return self.row_residual <= tol and self.col_residual <= tol


def _plan_from(r, c, mass, ia, ib, a: WeightedEnsemble, b: WeightedEnsemble):
    """The plan of live-block entries (r, c, mass), given row-major, and the (r, c) it keeps.

    ``ia`` and ``ib`` map block indices to the full layout.  Entries below
    ``_MASS_EPS`` are dropped, so the value and the residuals read the plan's support.
    """
    keep = mass >= _MASS_EPS
    r, c, mass = r[keep], c[keep], mass[keep]
    rows, cols = ia[r], ib[c]

    def residual(idx, w):
        return float(np.max(np.abs(np.bincount(idx, weights=mass, minlength=w.size) - w)))

    res = residual(rows, a.weights), residual(cols, b.weights)
    return TransportPlan(rows, cols, mass, (a.n, b.n), *res), r, c


def _block_entries(block: np.ndarray):
    """Every entry of a live-block matrix as (rows, cols, mass), in row-major order."""
    r, c = np.divmod(np.arange(block.size), block.shape[1])
    return r, c, block.ravel()


def _common_modes(a: WeightedEnsemble, b: WeightedEnsemble):
    m = max(a.n_modes, b.n_modes)
    return a.padded(m).coeffs, b.padded(m).coeffs


def _live_support(a: WeightedEnsemble, b: WeightedEnsemble):
    """Positive-weight indices of both ensembles and their live common-mode coefficients."""
    xa, xb = _common_modes(a, b)
    ia = np.flatnonzero(a.weights > 0)
    ib = np.flatnonzero(b.weights > 0)
    return ia, ib, xa[ia], xb[ib]


def _hs_norms(diff: np.ndarray, s: float) -> np.ndarray:
    """H^s norms of the amplitude vectors along the last axis."""
    k = np.arange(1, diff.shape[-1] + 1, dtype=np.float64)
    w = NORM_FACTOR * k ** (2 * s)
    return np.sqrt(np.sum(w * (diff.real**2 + diff.imag**2), axis=-1))


def _distance_matrix(xa: np.ndarray, xb: np.ndarray, s: float) -> np.ndarray:
    """Pairwise H^s distances by direct differencing (exact zeros on ties)."""
    n, m = xa.shape[0], xb.shape[0]
    out = np.empty((n, m))
    block = max(1, (1 << 22) // max(1, m * xa.shape[1]))
    for start in range(0, n, block):
        stop = min(start + block, n)
        out[start:stop] = _hs_norms(xa[start:stop, None, :] - xb[None, :, :], s)
    return out


def _pair_distances(
    xa: np.ndarray, xb: np.ndarray, rows: np.ndarray, cols: np.ndarray, s: float
) -> np.ndarray:
    """H^s distances |xa[rows[k]] - xb[cols[k]]| for the listed pairs only."""
    out = np.empty(rows.size)
    block = max(1, (1 << 22) // max(1, xa.shape[1]))
    for start in range(0, rows.size, block):
        stop = min(start + block, rows.size)
        out[start:stop] = _hs_norms(xa[rows[start:stop]] - xb[cols[start:stop]], s)
    return out


def _costs(xa: np.ndarray, xb: np.ndarray, s: float, p: float) -> np.ndarray:
    if s < 0:
        raise ValueError("regularity exponent must be >= 0")
    if not p >= 1:
        raise ValueError("the transport order must satisfy p >= 1")
    return _distance_matrix(xa, xb, s) ** p


def cost_matrix(a: WeightedEnsemble, b: WeightedEnsemble, s: float, p: float) -> CostMatrix:
    """H^s distances to the power p between all support pairs.

    Ensembles with different truncations are zero-padded to the larger one.
    This is the dense matrix over every draw, dead ones included; the
    solvers build costs on the live block instead.
    """
    xa, xb = _common_modes(a, b)
    return CostMatrix(entries=_costs(xa, xb, s, p), s=s, p=p)


def _check_marginals(a: WeightedEnsemble, b: WeightedEnsemble) -> None:
    if abs(a.weights.sum() - 1.0) > MARGINAL_TOL or abs(b.weights.sum() - 1.0) > MARGINAL_TOL:
        raise ValueError("infeasible marginals: ensemble weights must both sum to one")


def _uniform_equal(a: WeightedEnsemble, b: WeightedEnsemble) -> bool:
    if a.n != b.n:
        return False
    return np.allclose(a.weights, 1.0 / a.n, atol=1e-12, rtol=0.0) and np.allclose(
        b.weights, 1.0 / b.n, atol=1e-12, rtol=0.0
    )


def _restricted_lp(wa, wb, cost, mask):
    """Transportation LP on the allowed edges of ``mask``, as (rows, cols, mass), or None.

    Variables are the allowed edges in row-major order; one row constraint
    per supply and one column constraint per demand, less one redundant
    column.  An all-True mask is the full transportation LP, which is what
    :func:`wasserstein_p_exact`, the only caller, solves; the mask is kept
    for a column-generation solve on a candidate subset of edges.
    """
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


def wasserstein_p_exact(
    a: WeightedEnsemble, b: WeightedEnsemble, s: float, p: float
) -> tuple[float, TransportPlan]:
    """Exact order-p transport distance and an optimal plan.

    Uniform equal-size marginals reduce to an optimal assignment; anything
    else is solved as a linear program.  Zero-weight support points are
    pruned before any distance is built; the plan holds only the pairs that
    carry mass, and the value is priced over them.
    """
    if not (p >= 1 and math.isfinite(p)):
        raise ValueError("the transport order must be a finite p >= 1")
    _check_marginals(a, b)
    ia, ib, xa, xb = _live_support(a, b)
    cost = _costs(xa, xb, s, p)
    if _uniform_equal(a, b):
        r, c = linear_sum_assignment(cost)
        support = r, c, np.full(r.size, 1.0 / a.n)
    else:
        support = _restricted_lp(a.weights[ia], b.weights[ib], cost, np.ones(cost.shape, bool))
        if support is None:
            raise RuntimeError("transport LP failed")
    plan, r, c = _plan_from(*support, ia, ib, a, b)
    return float(np.sum(plan.mass * cost[r, c])) ** (1.0 / p), plan


def _round_to_feasible(plan: np.ndarray, wa: np.ndarray, wb: np.ndarray) -> np.ndarray:
    """Project an almost-feasible nonnegative matrix onto Marg(wa, wb)."""
    rows = plan.sum(axis=1)
    scale = np.where(rows > 0, np.minimum(1.0, wa / np.where(rows > 0, rows, 1.0)), 0.0)
    plan = plan * scale[:, None]
    cols = plan.sum(axis=0)
    scale = np.where(cols > 0, np.minimum(1.0, wb / np.where(cols > 0, cols, 1.0)), 0.0)
    plan = plan * scale[None, :]
    err_a = wa - plan.sum(axis=1)
    err_b = wb - plan.sum(axis=0)
    total = err_a.sum()
    if total > 0:
        plan = plan + np.outer(err_a, err_b) / total
    return plan


@dataclass(frozen=True)
class EntropicResult:
    value: float
    plan: TransportPlan
    iterations: int
    residual: float
    epsilon: float


def wasserstein_p_entropic(
    a: WeightedEnsemble,
    b: WeightedEnsemble,
    s: float,
    p: float,
    epsilon: float | None = None,
    max_iter: int = 20000,
    tol: float = 1e-5,
) -> EntropicResult:
    """Sinkhorn estimate of the order-p distance, always >= the exact value.

    Log-domain Sinkhorn with an annealed regularisation schedule (halving
    from a quarter of the cost range down to the target epsilon) warm-starts
    the potentials; the target level then iterates until the worst marginal
    violation falls below tol.  The plan is finally rounded to exact
    feasibility, so the reported cost is that of a true coupling (marginals
    are exact regardless of tol) and decreases toward the exact optimum as
    epsilon shrinks.  The default epsilon is 1% of the median live-pair
    cost (at least 1e-12); ``EntropicResult.epsilon`` reports the one used.
    """
    if epsilon is not None and not epsilon > 0:
        raise ValueError("regularisation must be positive")
    _check_marginals(a, b)
    ia, ib, xa, xb = _live_support(a, b)
    wa, wb = a.weights[ia], b.weights[ib]
    cost = _costs(xa, xb, s, p)
    if epsilon is None:
        epsilon = max(0.01 * float(np.median(cost)), 1e-12)
    la, lb = np.log(wa), np.log(wb)
    f = np.zeros(wa.size)
    g = np.zeros(wb.size)

    def sweep(eps: float):
        f2 = eps * (la - logsumexp((g[None, :] - cost) / eps, axis=1))
        g2 = eps * (lb - logsumexp((f2[:, None] - cost) / eps, axis=0))
        log_plan = (f2[:, None] + g2[None, :] - cost) / eps
        rows = np.exp(logsumexp(log_plan, axis=1))
        return f2, g2, log_plan, float(np.max(np.abs(rows - wa)))

    level = max(epsilon, 0.25 * float(np.ptp(cost)))
    while level > epsilon:
        for _ in range(50):
            f, g, _, residual = sweep(level)
            if residual < tol:
                break
        level /= 2.0
    residual = math.inf
    iterations = 0
    log_plan = None
    for it in range(1, max_iter + 1):
        iterations = it
        f, g, log_plan, residual = sweep(epsilon)
        if residual < tol:
            break
    else:
        raise SinkhornConvergenceError(residual, iterations)
    block = _round_to_feasible(np.exp(log_plan), wa, wb)
    plan, r, c = _plan_from(*_block_entries(block), ia, ib, a, b)
    value = float(np.sum(plan.mass * cost[r, c])) ** (1.0 / p)
    return EntropicResult(value, plan, iterations, residual, epsilon)


# --- bottleneck distance ----------------------------------------------------

_FLOW_SCALE = 1 << 30  # integer mass resolution for the max-flow feasibility test


def _round_to_total(weights: np.ndarray, total: int) -> np.ndarray:
    """Largest-remainder rounding of weights summing to one onto integers summing to total."""
    raw = weights * total
    base = np.floor(raw).astype(np.int64)
    short = total - base.sum()
    if short > 0:
        order = np.argsort(-(raw - base), kind="stable")
        base[order[:short]] += 1
    return base


def _max_flow(mask: np.ndarray, ia_units: np.ndarray, ib_units: np.ndarray):
    """A maximum flow of integer supplies ``ia_units`` to demands ``ib_units`` over ``mask``.

    Returns the row-to-column flow as (rows, cols, mass) in row-major order,
    with mass in multiples of ``1 / _FLOW_SCALE``, and the rows that still
    hold unshipped supply; the flow is feasible when no row does.  The
    network (rows 0..n-1, columns n..n+m-1, source n+m, sink n+m+1) is
    written straight into CSR: the row-major edges of ``mask``, then each
    column to the sink, then the source to each row.
    """
    n, m = mask.shape
    src, dst = n + m, n + m + 1
    rows_i, cols_j = np.nonzero(mask)
    per_row = np.concatenate([np.bincount(rows_i, minlength=n), np.ones(m, np.int64), [n, 0]])
    indptr = np.concatenate([[0], np.cumsum(per_row)]).astype(np.int32)
    indices = np.concatenate([n + cols_j, np.full(m, dst), np.arange(n)]).astype(np.int32)
    cap = np.concatenate([np.full(rows_i.size, _FLOW_SCALE), ib_units, ia_units]).astype(np.int32)
    graph = sparse.csr_matrix((cap, indices, indptr), shape=(n + m + 2, n + m + 2))
    flow = maximum_flow(graph, src, dst).flow
    # rows 0..n-1 of the flow hold the forward edges to columns and the
    # (negative) reverse edge from the source; keep the positive ones
    end = flow.indptr[n]
    r = np.repeat(np.arange(n), np.diff(flow.indptr[: n + 1]))
    keep = flow.data[:end] > 0
    r, c, units = r[keep], flow.indices[:end][keep] - n, flow.data[:end][keep]
    order = np.lexsort((c, r))
    r, c, units = r[order], c[order], units[order]
    short = np.bincount(r, weights=units, minlength=n) < ia_units
    return (r, c, units / _FLOW_SCALE), short


def _max_matching(mask: np.ndarray):
    """A maximum matching on square ``mask`` as (rows, cols, 1/n each) and its unmatched rows."""
    match = maximum_bipartite_matching(sparse.csr_matrix(mask), perm_type="column")
    r = np.flatnonzero(match >= 0)
    return (r, match[r], np.full(r.size, 1.0 / mask.shape[0])), match < 0


def _cut_threshold(sub: np.ndarray, mask: np.ndarray, short: np.ndarray, r, c) -> float:
    """The least threshold above ``mask`` at which the min cut of a failed flow can change.

    The source side of the min cut is the residual reach of the rows in
    ``short``: the columns they touch through ``mask``, the rows whose flow
    (r, c) enters those columns, and so on until nothing new is reached.
    No edge of ``mask`` leaves it, so the same cut stays deficient until an
    edge from a reached row to an unreached column is admitted: every
    threshold below the shortest such edge is infeasible too.  Infinite
    when no edge crosses the cut.
    """
    rows, cols = short.copy(), np.zeros(mask.shape[1], bool)
    new_rows = short
    while new_rows.any():
        new_cols = mask[new_rows].any(axis=0) & ~cols
        cols |= new_cols
        new_rows = np.zeros_like(rows)
        new_rows[r[new_cols[c]]] = True
        new_rows &= ~rows
        rows |= new_rows
    return sub[np.ix_(rows, ~cols)].min(initial=np.inf)


def _witness_edge(witness: TransportPlan | None, ia, ib, sub: np.ndarray):
    """Longest edge of ``witness`` on the live block ``sub``, or None if it certifies nothing.

    A witness bounds W_inf from above only if it is a coupling within
    ``MARGINAL_TOL`` whose support rows and columns are exactly the live
    draws: a draw lighter than the tolerance may be missing from a plan that
    still passes ``check``.
    """
    if witness is None or not witness.check():
        return None
    if not np.array_equal(np.unique(witness.rows), ia):
        return None
    if not np.array_equal(np.unique(witness.cols), ib):
        return None
    return sub[np.searchsorted(ia, witness.rows), np.searchsorted(ib, witness.cols)].max()


def wasserstein_inf(
    a: WeightedEnsemble, b: WeightedEnsemble, witness: TransportPlan | None = None
) -> tuple[float, TransportPlan]:
    """Bottleneck transport value in L2: the least threshold carrying a feasible plan.

    The search climbs from a lower bound: every live row and column needs
    one edge, so the value is at least the largest nearest-edge distance of
    any live draw, however light.  At each threshold λ a maximum flow on the
    edges ``<= λ`` decides feasibility: integer units of mass (weights
    rounded to multiples of ``1 / _FLOW_SCALE`` by largest remainder) for
    general marginals, a bipartite matching for uniform equal-size ones.
    When the flow falls short, its min cut (the rows reachable from unshipped
    supply along residual edges) stays deficient at every threshold below
    its shortest crossing edge, so the search jumps straight to that edge.
    The flow at the first feasible threshold is the plan: units over
    ``_FLOW_SCALE``, within 2^-30 of the weights, or 1/n per matched pair.

    An optional ``witness``, a coupling of the same pair
    (``combined_metric_parts`` passes the order-p plan), carries all mass at
    its longest L2 edge and so caps the search: when the climb reaches that
    edge, the witness is returned as the plan, and when the lower bound
    already equals it, no threshold is probed at all.  The witness is used
    only if its residuals pass ``check`` and its support rows and columns
    are exactly the live draws.  Zero-weight support points are pruned
    before any distance is built.
    """
    _check_marginals(a, b)
    ia, ib, xa, xb = _live_support(a, b)
    sub = _distance_matrix(xa, xb, 0.0)
    if _uniform_equal(a, b):
        probe = _max_matching
    else:
        ua = _round_to_total(a.weights[ia], _FLOW_SCALE)
        ub = _round_to_total(b.weights[ib], _FLOW_SCALE)
        probe = lambda mask: _max_flow(mask, ua, ub)
    top = _witness_edge(witness, ia, ib, sub)
    lam = max(sub.min(axis=1).max(), sub.min(axis=0).max())
    while top is None or lam < top:
        mask = sub <= lam
        flow, short = probe(mask)
        if not short.any():
            return float(lam), _plan_from(*flow, ia, ib, a, b)[0]
        nxt = _cut_threshold(sub, mask, short, *flow[:2])
        # The flow is exact integer arithmetic, so the jump always lands on a
        # finite edge above lam: were every column reached, each would be
        # saturated (an unsaturated one ends an augmenting path) and the flow
        # complete; a crossing edge within lam would have put its column in
        # the reach.  The check only turns a broken invariant into an error.
        if not lam < nxt < np.inf:
            raise RuntimeError("bottleneck feasibility could not be established")
        lam = nxt
    return float(top), witness


# --- combined metric and pushforward bounds ---------------------------------


@dataclass(frozen=True)
class CombinedDistance:
    """Bottleneck and order-p parts of the combined metric, with the plan of each part."""

    w_inf: float
    w_p: float
    backend: str
    plan: TransportPlan = field(compare=False, repr=False)  # order-p plan
    inf_plan: TransportPlan = field(compare=False, repr=False)  # bottleneck plan
    epsilon: float | None = None
    iterations: int | None = None  # Sinkhorn target-level sweeps; None when exact

    @property
    def total(self) -> float:
        return self.w_inf + self.w_p


def combined_metric_parts(
    a: WeightedEnsemble,
    b: WeightedEnsemble,
    s: float,
    p: float,
    backend: str = "exact",
    epsilon: float | None = None,
) -> CombinedDistance:
    """Combined metric split into its parts, each with the plan it was solved for.

    The order-p part is solved first, and its plan is the witness that
    caps the bottleneck search from above (see :func:`wasserstein_inf`):
    where the search reaches the witness's longest edge, ``inf_plan`` is
    ``plan``, and where that edge is the lower bound, the bottleneck costs
    no probe.  With the entropic backend ``plan`` is the rounded Sinkhorn
    plan whose price is the reported ``w_p``, and ``epsilon`` the
    regularisation used (by default set from the live costs).
    """
    iterations = None
    if backend == "exact":
        w_p, plan = wasserstein_p_exact(a, b, s, p)
    elif backend == "entropic":
        res = wasserstein_p_entropic(a, b, s, p, epsilon)
        w_p, plan, epsilon, iterations = res.value, res.plan, res.epsilon, res.iterations
    else:
        raise ValueError(f"unknown backend {backend!r}")
    w_inf, inf_plan = wasserstein_inf(a, b, plan)
    return CombinedDistance(w_inf, w_p, backend, plan, inf_plan, epsilon, iterations)


def combined_metric(
    a: WeightedEnsemble,
    b: WeightedEnsemble,
    s: float,
    p: float,
    backend: str = "exact",
    epsilon: float | None = None,
) -> float:
    """Bottleneck-in-L2 plus order-p-in-H^s distance between two ensembles."""
    return combined_metric_parts(a, b, s, p, backend, epsilon).total


@dataclass(frozen=True)
class PushforwardCost:
    """Cost of one fixed coupling after both supports are evolved."""

    t: float
    w_p_bound: float
    w_inf_bound: float

    @property
    def combined_bound(self) -> float:
        return self.w_inf_bound + self.w_p_bound


def plan_cost(
    a_t: WeightedEnsemble,
    b_t: WeightedEnsemble,
    plan: TransportPlan,
    t: float,
    s: float,
    p: float,
    inf_plan: TransportPlan | None = None,
) -> PushforwardCost:
    """Price fixed plans on two ensembles already evolved to time t.

    The order-p bound is the price of ``plan`` in H^s; the bottleneck bound
    is the longest L2 edge of ``inf_plan`` (``plan`` when None).  Only the pairs in a plan's support are priced, so rows and columns of
    zero weight may hold any finite values (``measures.pushforward`` leaves
    them unevolved).  Priced on the same evolved ensembles that a re-optimised
    distance at t is computed from, each plan is one of the couplings that
    distance minimises over, so each bound dominates it by construction.
    """
    inf_plan = plan if inf_plan is None else inf_plan
    xa, xb = _common_modes(a_t, b_t)
    dist_hs = _pair_distances(xa, xb, plan.rows, plan.cols, s)
    dist_l2 = _pair_distances(xa, xb, inf_plan.rows, inf_plan.cols, 0.0)
    w_p = float(np.sum(plan.mass * dist_hs**p)) ** (1.0 / p)
    w_inf = float(np.max(dist_l2)) if dist_l2.size else 0.0
    return PushforwardCost(t=t, w_p_bound=w_p, w_inf_bound=w_inf)


# --- persistence ------------------------------------------------------------


def write_plan_csv(
    path, plan: TransportPlan, a: WeightedEnsemble, b: WeightedEnsemble, s: float, p: float
) -> None:
    """Plan support as CSV rows (i, j, mass, cost), cost = |a_i - b_j|_{H^s}^p.

    Only the support pairs are priced, with the same bits as the
    corresponding entries of :func:`cost_matrix`; mass and cost are written
    as the shortest decimal that reads back to the same double.
    """
    xa, xb = _common_modes(a, b)
    cost = _pair_distances(xa, xb, plan.rows, plan.cols, s) ** p
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "mass", "cost"])
        for i, j, mass, c in zip(plan.rows, plan.cols, plan.mass, cost):
            writer.writerow([int(i), int(j), repr(float(mass)), repr(float(c))])


def write_distance_json(path, distance: CombinedDistance) -> None:
    """The distance, its parts, Sinkhorn iterations and the plan's marginal residuals as JSON."""
    payload = {
        "distance": distance.total,
        "w_inf": distance.w_inf,
        "w_p": distance.w_p,
        "backend": distance.backend,
        "epsilon": distance.epsilon,
        "iterations": distance.iterations,
        "marginal_residuals": [distance.plan.row_residual, distance.plan.col_residual],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
