"""Optimal transport between weighted ensembles of torus fields.

Three solvers over the coupling polytope Marg(a, b):

* an exact one (an optimal assignment where it is certified optimal: for
  uniform equal-size marginals, and wherever it carries every live weight
  onto an equal one, as between an ensemble and its perturbed copy; a
  linear program otherwise, built in numpy as one HiGHS model and solved
  through scipy's private HiGHS binding, without ``linprog``),
* a bottleneck solver for the order-infinity distance (a threshold search
  that climbs from the least threshold at which every single live draw's
  mass fits, each failed max-flow or matching naming the next threshold
  through its min cut, capped by a witness coupling; the last flow is the
  plan),
* an entropically regularised one whose plan is rounded back to exact
  feasibility, so its value always upper-bounds the exact optimum; its
  default regularisation is set from the live costs.

Distances are |x - y|_{H^s} raised to the requested power; the combined
metric adds the bottleneck value in L2 to the p-cost in H^s.

Zero-weight draws carry no mass in any coupling, so the solvers work on
the live block only (a Gibbs ensemble keeps a few percent of its draws).
One private builder checks the marginals, gathers the live draws and
weights, decides whether the marginals are uniform and equal-size, and
fills the live H^s and L2 distances from one squared difference per row
block, held with its weighted copy in two real buffers that every block
reuses.  Plans are priced by the same kernel; each gathers the draws it
needs before zero-padding them to the common mode count.
``combined_metric_parts``
builds that block once per pair and hands it to both solvers; a solver
called alone builds its own.  A plan is stored as its support, in
full-layout indices, so no solver allocates an (n, m) array.  The
order-p plan is the bottleneck search's witness, and both plans are
returned, so a caller never solves a pair twice.
Where the witness's longest edge meets the lower bound (as on a pair and
its small perturbation, whose weights agree and whose order-p part one
assignment certifies), the metric runs no LP and no max-flow.
``cost_matrix`` is the dense ndarray over every draw, from the same
distance kernel; no solver uses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
# perfbench's tracer wraps the solver names bound here, linprog (no longer called) included
from scipy.optimize import linear_sum_assignment, linprog  # noqa: F401
from scipy.optimize._highspy import _core as _highs  # private HiGHS binding, see _transport_lp
from scipy.sparse.csgraph import maximum_bipartite_matching, maximum_flow
from scipy.special import logsumexp

from .kdve_io import write_json, write_rows
from .measures import WeightedEnsemble
from .spectral import fit_modes, hs_weights

MARGINAL_TOL = 1e-9
SINKHORN_TOL = 1e-5  # worst row-marginal violation at which a Sinkhorn level stops
SINKHORN_MAX_SWEEPS = 20000  # target-level sweeps before Sinkhorn gives up
_MASS_EPS = 1e-15  # plan entries below this are treated as structural zeros


class TransportSolveError(RuntimeError):
    """A transport solver found no optimum: its LP failed, or its bottleneck search broke."""


class SinkhornConvergenceError(RuntimeError):
    def __init__(self, residual: float, iterations: int):
        super().__init__(
            f"Sinkhorn failed to reach the marginal tolerance after "
            f"{iterations} iterations (residual {residual:.3e})"
        )
        self.residual = residual
        self.iterations = iterations


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

    def check(self) -> bool:
        return self.row_residual <= MARGINAL_TOL and self.col_residual <= MARGINAL_TOL


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


def _gathered(a: WeightedEnsemble, b: WeightedEnsemble, ia, ib):
    """Rows ``ia`` of a and ``ib`` of b, those alone zero-padded to the common mode count."""
    m = max(a.n_modes, b.n_modes)
    return fit_modes(a.coeffs[ia], m), fit_modes(b.coeffs[ib], m)


def _weighted_norms(outs, weights, ar, ai, br, bi, sq, tmp) -> None:
    """Write sqrt(sum_k w_k |a_k - b_k|^2) of the broadcast pair (a, b) into ``outs``, one per w.

    ``(ar, ai)`` and ``(br, bi)`` are the real and imaginary parts of a and
    b; ``sq`` and ``tmp`` are real buffers of their broadcast shape.  These
    are the IEEE operations of ``d.real**2 + d.imag**2`` on the complex
    difference d and of ``np.sum(w * sq, axis=-1)``, in the same order, so
    every distance has their bits; no complex or weighted block is allocated.
    """
    np.subtract(ar, br, out=sq)
    np.subtract(ai, bi, out=tmp)
    np.square(sq, out=sq)
    np.square(tmp, out=tmp)
    np.add(sq, tmp, out=sq)
    for out, w in zip(outs, weights):
        np.sum(np.multiply(w, sq, out=tmp), axis=-1, out=out)
        np.sqrt(out, out=out)


def _distance_matrices(xa: np.ndarray, xb: np.ndarray, exponents) -> list[np.ndarray]:
    """Pairwise H^s distances for each s in ``exponents``, by direct differencing.

    Each row block forms its squared differences once and weighs them for
    every s, so ties give exact zeros and every s costs one weighted sum.
    The two real block buffers are allocated once and reused by every block.
    """
    (n, k), m = xa.shape, xb.shape[0]
    weights = [hs_weights(k, s) for s in exponents]
    out = [np.empty((n, m)) for _ in exponents]
    block = max(1, (1 << 22) // max(1, m * k))
    sq, tmp = (np.empty((min(block, n), m, k)) for _ in range(2))
    ar, ai, br, bi = (np.ascontiguousarray(part) for x in (xa, xb) for part in (x.real, x.imag))
    for start in range(0, n, block):
        rows, size = slice(start, start + block), min(block, n - start)
        _weighted_norms(
            [dist[rows] for dist in out], weights, ar[rows, None], ai[rows, None],
            br[None], bi[None], sq[:size], tmp[:size],
        )
    return out


def _pair_distances(a: WeightedEnsemble, b: WeightedEnsemble, rows, cols, s: float) -> np.ndarray:
    """H^s distances |a_{rows[k]} - b_{cols[k]}| for the listed pairs, priced as the kernel does.

    Each block gathers and pads only its own pairs' draws.
    """
    k = max(a.n_modes, b.n_modes)
    w = hs_weights(k, s)
    out = np.empty(rows.size)
    block = max(1, (1 << 22) // max(1, k))
    sq, tmp = (np.empty((min(block, rows.size), k)) for _ in range(2))
    for start in range(0, rows.size, block):
        xa, xb = _gathered(a, b, rows[start : start + block], cols[start : start + block])
        _weighted_norms(
            [out[start : start + xa.shape[0]]], [w], xa.real, xa.imag, xb.real, xb.imag,
            sq[: xa.shape[0]], tmp[: xa.shape[0]],
        )
    return out


def _require_order(p: float) -> None:
    """The one transport-order rule: every W_p, cost and plan price needs a finite p >= 1."""
    if not (p >= 1 and math.isfinite(p)):
        raise ValueError("the transport order must be a finite p >= 1")


def cost_matrix(a: WeightedEnsemble, b: WeightedEnsemble, s: float, p: float) -> np.ndarray:
    """H^s distances to the power p between all support pairs, as an (n, m) array.

    Ensembles with different truncations are zero-padded to the larger one.
    This is the dense matrix over every draw, dead ones included; the
    solvers build distances on the live block instead.
    """
    _require_order(p)
    return _distance_matrices(*_gathered(a, b, slice(None), slice(None)), (s,))[0] ** p


@dataclass(frozen=True)
class _LiveBlock:
    """The positive-weight draws of a pair, their weights and their distances."""

    ia: np.ndarray  # block index -> full-layout index
    ib: np.ndarray
    wa: np.ndarray
    wb: np.ndarray
    uniform: bool  # uniform equal-size marginals
    hs: np.ndarray  # H^s distances at the builder's s
    l2: np.ndarray  # L2 distances (``hs`` itself when s is 0)


def _live_block(a: WeightedEnsemble, b: WeightedEnsemble, s: float) -> _LiveBlock:
    """Check the marginals of (a, b), gather its live draws and build their distances once."""
    if abs(a.weights.sum() - 1.0) > MARGINAL_TOL or abs(b.weights.sum() - 1.0) > MARGINAL_TOL:
        raise ValueError("infeasible marginals: ensemble weights must both sum to one")
    ia, ib = np.flatnonzero(a.weights > 0), np.flatnonzero(b.weights > 0)
    xa, xb = _gathered(a, b, ia, ib)
    both = np.concatenate([a.weights, b.weights])
    uniform = a.n == b.n and np.allclose(both, 1.0 / a.n, atol=1e-12, rtol=0.0)
    dist = _distance_matrices(xa, xb, (s, 0.0) if s != 0 else (0.0,))
    return _LiveBlock(ia, ib, a.weights[ia], b.weights[ib], uniform, dist[0], dist[-1])


def _live_costs(a, b, s: float, p: float, block: _LiveBlock | None):
    """The live block (built unless passed) and its order-p costs, refused unless all finite."""
    _require_order(p)
    block = _live_block(a, b, s) if block is None else block
    cost = block.hs**p
    if not np.isfinite(cost).all():
        raise ValueError("transport costs overflow float64")
    return block, cost


def _transport_lp(wa, wb, cost):
    """The full transportation LP on the live block, solved by HiGHS, as (rows, cols, mass).

    One variable per pair (i, j), in row-major order, so (rows, cols) is
    every pair; one row constraint per supply and one column constraint per
    demand, less the redundant last one.  The model is built column-wise in
    numpy, passed as arrays (int32 indices) and solved on one bare HiGHS
    object with presolve and output off.
    Skipping ``linprog``'s wrapper and presolve leaves about a third of its
    time per solve on the live blocks of a Gibbs pair, at the same optimum.
    Raises ``TransportSolveError`` unless HiGHS reports an optimum.
    """
    n, m = cost.shape
    rows, cols = np.divmod(np.arange(n * m), m)
    two = cols < m - 1  # column n + j holds demand j, except the dropped last one
    start = np.zeros(n * m + 1, np.int32)
    np.cumsum(1 + two, out=start[1:])
    index = np.empty(start[-1], np.int32)
    index[start[:-1]] = rows
    index[start[:-1][two] + 1] = n + cols[two]
    bounds = np.concatenate([wa, wb[:-1]])
    highs = _highs._Highs()
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue("presolve", "off")
    # positional: sizes, format, sense, offset, costs, column and row bounds, matrix, integrality
    highs.passModel(
        n * m, n + m - 1, index.size, int(_highs.MatrixFormat.kColwise),
        int(_highs.ObjSense.kMinimize), 0.0, cost.ravel(), np.zeros(n * m),
        np.full(n * m, np.inf), bounds, bounds, start, index, np.ones(index.size),
        np.zeros(n * m, np.int32),
    )
    highs.run()
    if highs.getModelStatus() != _highs.HighsModelStatus.kOptimal:
        raise TransportSolveError("transport LP failed")
    return rows, cols, np.maximum(np.array(highs.getSolution().col_value), 0.0)


def wasserstein_p_exact(
    a: WeightedEnsemble, b: WeightedEnsemble, s: float, p: float, *, block: _LiveBlock | None = None
) -> tuple[float, TransportPlan]:
    """Exact order-p transport distance and an optimal plan.

    A square live block is first solved as an optimal assignment c.  For
    uniform equal-size marginals that is the plan, mass 1/n per pair.  It is
    also the plan, mass ``wa[i]`` on (i, c(i)), whenever the live weights
    satisfy ``wa == wb[c]`` exactly, as for an ensemble and a perturbed copy
    of it: the plan is then a coupling, and the assignment duals (u, v),
    feasible for the transport LP (u_i + v_j <= C_ij) and tight on its
    support, price it at sum_i wa_i u_i + sum_j wb_j v_j, so LP duality
    certifies it optimal.  Anything else is solved as the full transportation
    LP on one bare HiGHS model (see ``_transport_lp``).
    The costs are the H^s distances of the live block (zero-weight draws
    pruned), built here or passed in by ``combined_metric_parts`` as
    ``block``; the plan holds only the pairs that carry mass, and the value
    is priced over them.
    """
    block, cost = _live_costs(a, b, s, p, block)
    wa, wb = block.wa, block.wb
    support = None
    if wa.size == wb.size:
        r, c = linear_sum_assignment(cost)
        if block.uniform:
            support = r, c, np.full(r.size, 1.0 / a.n)
        elif np.array_equal(wa, wb[c]):
            support = r, c, wa
    if support is None:
        support = _transport_lp(wa, wb, cost)
    plan, r, c = _plan_from(*support, block.ia, block.ib, a, b)
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
    epsilon: float


def wasserstein_p_entropic(
    a: WeightedEnsemble,
    b: WeightedEnsemble,
    s: float,
    p: float,
    epsilon: float | None = None,
    *,
    block: _LiveBlock | None = None,
) -> EntropicResult:
    """Sinkhorn estimate of the order-p distance, always >= the exact value.

    Log-domain Sinkhorn, warm-started by annealing (halving from a quarter of
    the cost range to epsilon, at most 50 sweeps a level), sweeps until the
    worst row-marginal violation is below ``SINKHORN_TOL`` or g comes back
    unchanged (a fixed point), at most ``SINKHORN_MAX_SWEEPS`` times.  A sweep
    makes two reductions: the column one gives g, the row one the next f and
    the row sums of the plan (f, g).  That plan, formed once, is rounded to a
    true coupling of the live block, whose cost falls toward the exact optimum
    as epsilon shrinks.  The default epsilon, 1% of the median live-pair cost
    (at least 1e-12), is reported as ``EntropicResult.epsilon``.
    """
    if epsilon is not None and not 0 < epsilon < math.inf:
        raise ValueError("regularisation must be finite and positive")
    block, cost = _live_costs(a, b, s, p, block)
    wa, wb = block.wa, block.wb
    if epsilon is None:
        epsilon = max(0.01 * float(np.median(cost)), 1e-12)
    la, lb = np.log(wa), np.log(wb)

    def run(g, eps: float, sweeps: int):
        """At most ``sweeps`` sweeps at eps from g: the last (f, g), their row residual, the count."""
        lse = logsumexp((g[None, :] - cost) / eps, axis=1)
        for sweep in range(1, sweeps + 1):
            f = eps * (la - lse)
            g_next = eps * (lb - logsumexp((f[:, None] - cost) / eps, axis=0))
            lse = logsumexp((g_next[None, :] - cost) / eps, axis=1)
            residual = float(np.max(np.abs(np.exp(f / eps + lse) - wa)))
            if residual < SINKHORN_TOL or np.array_equal(g_next, g, equal_nan=True):
                return f, g_next, residual, sweep
            g = g_next
        return f, g, residual, sweep

    g = np.zeros(wb.size)
    level = max(epsilon, 0.25 * float(np.ptp(cost)))
    while level > epsilon:
        g = run(g, level, 50)[1]
        level /= 2.0
    f, g, residual, iterations = run(g, epsilon, SINKHORN_MAX_SWEEPS)
    if not residual < SINKHORN_TOL:
        raise SinkhornConvergenceError(residual, iterations)
    rounded = _round_to_feasible(np.exp((f[:, None] + g[None, :] - cost) / epsilon), wa, wb)
    r, c = np.divmod(np.arange(rounded.size), rounded.shape[1])  # every entry, row-major
    plan, r, c = _plan_from(r, c, rounded.ravel(), block.ia, block.ib, a, b)
    value = float(np.sum(plan.mass * cost[r, c])) ** (1.0 / p)
    return EntropicResult(value, plan, iterations, epsilon)


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


def _singleton_bound(sub: np.ndarray, ua: np.ndarray, ub: np.ndarray) -> float:
    """The least threshold at which each single row's units, and each column's, fit within it.

    Row i's supply ``ua[i]`` can ship only to the columns within λ, so every
    λ below the least one at which their demand units reach ``ua[i]`` is
    infeasible; likewise for each column.  This is Hall's condition on
    single draws; a row of no units needs its nearest edge, so the bound
    is never below the nearest-edge one.
    """

    def side(dist, supply, demand):
        order = np.argsort(dist, axis=1)  # the order of tied edges cannot move the threshold
        reach = np.cumsum(demand[order], axis=1)  # demand within each row's nearest columns
        first = np.count_nonzero(reach < supply[:, None], axis=1)
        rows = np.arange(dist.shape[0])
        return dist[rows, order[rows, first]].max()

    return max(side(sub, ua, ub), side(sub.T, ub, ua))


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
    a: WeightedEnsemble,
    b: WeightedEnsemble,
    witness: TransportPlan | None = None,
    *,
    block: _LiveBlock | None = None,
) -> tuple[float, TransportPlan]:
    """Bottleneck transport value in L2: the least threshold carrying a feasible plan.

    The search climbs from a lower bound: every live row and column needs
    one edge, so the value is at least the largest nearest-edge distance of
    any live draw, however light.  For general marginals it starts higher,
    at the least λ at which each single draw's mass fits into the draws
    within λ of it (``_singleton_bound``); below that λ no flow is
    feasible, so the climb ends at the same λ with the same flow, in fewer
    probes.  At each threshold λ a maximum flow on the
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
    already reaches it, no threshold is probed at all.  The witness is used
    only if its residuals pass ``check`` and its support rows and columns
    are exactly the live draws.  The distances are the L2 ones of the live
    block (zero-weight draws pruned), built here or passed in as ``block``.
    """
    block = _live_block(a, b, 0.0) if block is None else block
    ia, ib, sub = block.ia, block.ib, block.l2
    if block.uniform:
        probe = _max_matching
        lam = max(sub.min(axis=1).max(), sub.min(axis=0).max())
    else:
        ua, ub = (_round_to_total(w, _FLOW_SCALE) for w in (block.wa, block.wb))
        probe = lambda mask: _max_flow(mask, ua, ub)
        lam = _singleton_bound(sub, ua, ub)
    top = _witness_edge(witness, ia, ib, sub)
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
            raise TransportSolveError("bottleneck feasibility could not be established")
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

    The pair's live block is built once and read by both solvers.  The
    order-p part is solved first, and its plan is the witness that
    caps the bottleneck search from above (see :func:`wasserstein_inf`):
    where the search reaches the witness's longest edge, ``inf_plan`` is
    ``plan``, and where that edge is the lower bound, the bottleneck costs
    no probe.  With the entropic backend ``plan`` is the rounded Sinkhorn
    plan whose price is the reported ``w_p``, and ``epsilon`` the
    regularisation used (by default set from the live costs).
    """
    block = _live_block(a, b, s)
    iterations = None
    if backend == "exact":
        w_p, plan = wasserstein_p_exact(a, b, s, p, block=block)
    elif backend == "entropic":
        res = wasserstein_p_entropic(a, b, s, p, epsilon, block=block)
        w_p, plan, epsilon, iterations = res.value, res.plan, res.epsilon, res.iterations
    else:
        raise ValueError(f"unknown backend {backend!r}")
    w_inf, inf_plan = wasserstein_inf(a, b, plan, block=block)
    return CombinedDistance(w_inf, w_p, backend, plan, inf_plan, epsilon, iterations)


@dataclass(frozen=True)
class PushforwardCost:
    """Cost of one fixed coupling after both supports are evolved."""

    w_p_bound: float
    w_inf_bound: float


def plan_cost(
    a_t: WeightedEnsemble,
    b_t: WeightedEnsemble,
    plan: TransportPlan,
    s: float,
    p: float,
    inf_plan: TransportPlan | None = None,
) -> PushforwardCost:
    """Price fixed plans on two ensembles already evolved to some time t.

    The order-p bound is the price of ``plan`` in H^s; the bottleneck bound
    is the longest L2 edge of ``inf_plan`` (``plan`` when None).  Only the
    pairs in a plan's support are priced, so rows and columns of zero
    weight may hold any finite values (``measures.pushforward`` leaves
    them unevolved).  Priced on the same evolved ensembles that a re-optimised
    distance at t is computed from, each plan is one of the couplings that
    distance minimises over, so each bound dominates it by construction.
    """
    _require_order(p)
    inf_plan = plan if inf_plan is None else inf_plan
    dist_hs = _pair_distances(a_t, b_t, plan.rows, plan.cols, s)
    dist_l2 = _pair_distances(a_t, b_t, inf_plan.rows, inf_plan.cols, 0.0)
    w_p = float(np.sum(plan.mass * dist_hs**p)) ** (1.0 / p)
    w_inf = float(np.max(dist_l2)) if dist_l2.size else 0.0
    return PushforwardCost(w_p_bound=w_p, w_inf_bound=w_inf)


# --- persistence ------------------------------------------------------------


def write_plan_csv(
    path, plan: TransportPlan, a: WeightedEnsemble, b: WeightedEnsemble, s: float, p: float
) -> None:
    """Plan support as CSV rows (i, j, mass, cost), cost = |a_i - b_j|_{H^s}^p.

    Only the support pairs are priced, with the same bits as the
    corresponding entries of :func:`cost_matrix`; mass and cost are written
    as the shortest decimal that reads back to the same double.
    """
    _require_order(p)
    cost = _pair_distances(a, b, plan.rows, plan.cols, s) ** p
    write_rows(path, ["i", "j", "mass", "cost"], zip(plan.rows, plan.cols, plan.mass, cost))


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
    write_json(path, payload)
