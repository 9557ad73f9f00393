"""Per-layer metrics of kdvlab, computed from the tracer's spans.

A layer is one package module. Span names are ``<module>.<function>`` for
the public functions and ``transport.lp`` / ``transport.assignment`` /
``transport.probe`` for the scipy solvers that transport calls. Work counts
come from hooks that read arguments and results at the span boundary, so
every ratio is measured where the work happens.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from tracing import ATTRS, END, NAME, PARENT, START, Tracer, self_times

LAYERS = (
    "spectral",
    "flow",
    "measures",
    "rng",
    "transport",
    "fitting",
    "kdve_io",
    "experiments",
    "cli",
)
# called once per draw: a span each would swamp the sampler it measures
COUNT_ONLY = ("rng.substream", "rng.derive_seed")

EVOLVE = ("flow.evolve", "flow.evolve_many", "flow.evolve_projected")
PAIR_FUNCS = tuple(
    f"transport.{f}"
    for f in (
        "cost_matrix",
        "wasserstein_p_exact",
        "wasserstein_inf",
        "wasserstein_p_entropic",
        "combined_metric_parts",
        "combined_metric",
        "pushforward_cost",
    )
)
SAMPLERS = ("measures.sample_gaussian", "measures.sample_gibbs")
SCALAR = tuple(
    f"spectral.{f}"
    for f in (
        "evaluate",
        "sobolev_norm",
        "linf_norm",
        "integral_u3",
        "integral_u3_quadrature",
        "hamiltonian",
        "inner_product",
        "project",
        "basis_coeffs",
    )
)
BATCHED_NORMS = ("spectral.sobolev_norms_many", "spectral.linf_norms_many", "spectral.evaluate_many")

# name, unit, better -- the order of the printed report and of BENCHMARK.json
PER_LAYER = (
    ("transport.cost_matrix.calls", "count", "lower"),
    ("transport.cost_matrix.self_s", "s", "lower"),
    ("transport.wasserstein_inf.self_s", "s", "lower"),
    ("transport.wasserstein_p_exact.self_s", "s", "lower"),
    ("transport.combined_metric_parts.calls", "count", "lower"),
    ("transport.pairs_dense", "count", "lower"),
    ("transport.pairs_live", "count", "lower"),
    ("transport.live_pair_frac", "frac", "higher"),
    ("transport.lp.calls", "count", "lower"),
    ("transport.lp.vars", "count", "lower"),
    ("transport.lp.self_s", "s", "lower"),
    ("transport.probes", "count", "lower"),
    ("transport.probe.self_s", "s", "lower"),
    ("transport.assignment.self_s", "s", "lower"),
    ("transport.pushforward_cost.self_s", "s", "lower"),
    ("flow.calls", "count", "lower"),
    ("flow.rows", "count", "lower"),
    ("flow.row_time", "row_s", "lower"),
    ("flow.self_s", "s", "lower"),
    ("flow.live_row_frac", "frac", "higher"),
    ("flow_h_drift", "rel", "lower"),
    ("measures.sample.self_s", "s", "lower"),
    ("measures.draws", "count", "lower"),
    ("measures.us_per_draw", "us", "lower"),
    ("measures.live_draw_frac", "frac", "higher"),
    ("measures.pushforward.self_s", "s", "lower"),
    ("rng.substream.calls", "count", "lower"),
    ("spectral.integral_u3_many.rows", "count", "lower"),
    ("spectral.integral_u3_many.self_s", "s", "lower"),
    ("spectral.batched_norms.self_s", "s", "lower"),
    ("spectral.scalar.calls", "count", "lower"),
    ("spectral.scalar.self_s", "s", "lower"),
    ("fitting.bootstrap.self_s", "s", "lower"),
    ("kdve_io.read.self_s", "s", "lower"),
    ("kdve_io.read.bytes", "B", "lower"),
    ("kdve_io.write.self_s", "s", "lower"),
    ("experiments.run.self_s", "s", "lower"),
    ("cli.entry.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage", "frac", "higher"),
    ("src.lines", "count", "lower"),
)
# metrics that must repeat exactly between two traced runs on one seed (all but timings)
DETERMINISTIC = tuple(
    name for name, unit, _ in PER_LAYER if unit not in ("s", "us") and name != "trace.coverage"
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _row_key(row: np.ndarray) -> bytes:
    nz = np.flatnonzero(row)
    return row[: nz[-1] + 1 if nz.size else 0].tobytes()


def hamiltonians(coeffs: np.ndarray) -> np.ndarray:
    """H(u) = |u_x|^2 / 2 - (1/6) int u^3 per row, computed independently of kdvlab.

    Uses the package's amplitude convention (u_hat(k), k = 1..M, with
    |u|_{H^s}^2 = (4/pi) sum k^{2s} |u_hat(k)|^2); the cubic integral is the
    trapezoid rule on a grid of at least 3M+1 points, exact for this degree.
    """
    coeffs = np.atleast_2d(coeffs)
    m = coeffs.shape[-1]
    k = np.arange(1, m + 1, dtype=np.float64)
    kinetic = 0.5 * (4.0 / np.pi) * np.sum(k**2 * np.abs(coeffs) ** 2, axis=-1)
    n = 8
    while n < 3 * m + 1:
        n *= 2
    spec = np.zeros(coeffs.shape[:-1] + (n // 2 + 1,), dtype=np.complex128)
    spec[..., 1 : m + 1] = coeffs / np.pi
    u = np.fft.irfft(spec, n, axis=-1) * n
    cubic = np.sum(u**3, axis=-1) * (2.0 * np.pi / n)
    return kinetic - cubic / 6.0


class LayerProbe:
    """Hooks for the tracer plus the state they share.

    ``live`` maps each support row of every ensemble handed to
    ``measures.pushforward`` or ``transport.pushforward_cost`` to whether its
    weight is positive, so the flow can tell zero-weight rows from live ones.
    Flow inputs and outputs are captured (while ``capture`` is set) for the
    Hamiltonian drift.
    """

    def __init__(self):
        self.live: dict[bytes, bool] = {}
        self.flow_io: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.capture = True

    def tracer(self) -> Tracer:
        hooks = {name: self._pairs for name in PAIR_FUNCS}
        hooks.update({name: self._draws for name in SAMPLERS})
        hooks.update(
            {
                "flow.evolve": self._evolve,
                "flow.evolve_many": self._evolve_many,
                "flow.evolve_projected": self._evolve_projected,
                "transport.lp": lambda a, k, r: {"vars": int(np.size(_arg(a, k, 0, "c")))},
                "spectral.integral_u3_many": lambda a, k, r: {
                    "rows": int(np.atleast_2d(_arg(a, k, 0, "coeffs")).shape[0])
                },
                "kdve_io.read_ensemble": lambda a, k, r: {
                    "bytes": os.path.getsize(_arg(a, k, 0, "path"))
                },
            }
        )
        pre_hooks = {
            "measures.pushforward": lambda a, k: self._register(_arg(a, k, 0, "ens")),
            "transport.pushforward_cost": lambda a, k: (
                self._register(_arg(a, k, 0, "a")),
                self._register(_arg(a, k, 1, "b")),
            ),
        }
        return Tracer(LAYERS, hooks=hooks, pre_hooks=pre_hooks, count_only=COUNT_ONLY)

    def reset(self) -> None:
        self.live.clear()
        self.flow_io.clear()

    # --- hooks ----------------------------------------------------------------

    def _register(self, ens) -> None:
        for row, w in zip(ens.coeffs, ens.weights):
            key = _row_key(row)
            self.live[key] = self.live.get(key, False) or bool(w > 0)

    def _live_mask(self, coeffs: np.ndarray) -> np.ndarray:
        # rows never registered (a single field, a batch built by the caller) count as live
        return np.array([self.live.get(_row_key(row), True) for row in coeffs], dtype=bool)

    def _flow(self, coeffs, out, t, conserving=True) -> dict:
        coeffs = np.atleast_2d(coeffs)
        live = self._live_mask(coeffs)
        if self.capture and conserving:
            self.flow_io.append((coeffs, np.atleast_2d(out), live))
        rows = coeffs.shape[0]
        return {"rows": rows, "live": int(live.sum()), "row_time": rows * abs(float(t))}

    def _evolve(self, args, kwargs, result) -> dict:
        u0 = _arg(args, kwargs, 0, "u0")
        return self._flow(u0.modes, result.modes, _arg(args, kwargs, 1, "t"))

    def _evolve_many(self, args, kwargs, result) -> dict:
        return self._flow(_arg(args, kwargs, 0, "coeffs"), result, _arg(args, kwargs, 1, "t"))

    def _evolve_projected(self, args, kwargs, result) -> dict:
        u0 = _arg(args, kwargs, 0, "u0")
        return self._flow(u0.modes, result.modes, _arg(args, kwargs, 1, "t"), conserving=False)

    @staticmethod
    def _pairs(args, kwargs, result) -> dict:
        a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
        live = int(np.count_nonzero(a.weights > 0)) * int(np.count_nonzero(b.weights > 0))
        return {"pairs": a.n * b.n, "live_pairs": live}

    @staticmethod
    def _draws(args, kwargs, result) -> dict:
        ens = result[0] if isinstance(result, tuple) else result
        return {"draws": ens.n, "live": int(np.count_nonzero(ens.weights > 0))}

    # --- derived metrics --------------------------------------------------------

    def h_drift(self) -> float:
        """Largest relative Hamiltonian change over the live rows the flow evolved."""
        worst = 0.0
        for before, after, live in self.flow_io:
            if not live.any():
                continue
            h0 = hamiltonians(before[live])
            h1 = hamiltonians(after[live])
            worst = max(worst, float(np.max(np.abs(h1 - h0) / np.abs(h0))))
        return worst


def _has_ancestor(spans, i: int, prefix: str) -> bool:
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME].startswith(prefix):
            return True
        p = spans[p][PARENT]
    return False


def layer_share(spans, layer: str, wall: float) -> float:
    """Time inside a layer (outermost spans of that layer) as a share of wall."""
    prefix = layer + "."
    total = sum(
        s[END] - s[START]
        for i, s in enumerate(spans)
        if s[NAME].startswith(prefix) and not _has_ancestor(spans, i, prefix)
    )
    return total / wall if wall > 0 else 0.0


def src_lines(src: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(src.glob("kdvlab/*.py")))


def pass_metrics(spans, counts, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (trace-level ones are added by the caller)."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    attr_sum: dict[str, float] = {}
    for i, s in enumerate(spans):
        name = s[NAME]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + selfs[i]
        if s[ATTRS]:
            for key, value in s[ATTRS].items():
                attr_sum[f"{name}:{key}"] = attr_sum.get(f"{name}:{key}", 0.0) + value

    def n_calls(*names):
        return sum(calls.get(n, 0) for n in names)

    def t_self(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    def t_layer(layer):
        return sum(v for n, v in self_s.items() if n.startswith(layer + "."))

    def attr(names, key):
        return sum(attr_sum.get(f"{n}:{key}", 0.0) for n in names)

    pairs = live_pairs = 0
    for i, s in enumerate(spans):
        if s[NAME] in PAIR_FUNCS and not _has_ancestor(spans, i, "transport."):
            pairs += s[ATTRS]["pairs"] if s[ATTRS] else 0
            live_pairs += s[ATTRS]["live_pairs"] if s[ATTRS] else 0
    rows = attr(EVOLVE, "rows")
    draws = attr(SAMPLERS, "draws")
    sample_incl = sum(s[END] - s[START] for s in spans if s[NAME] in SAMPLERS)

    return {
        "transport.cost_matrix.calls": n_calls("transport.cost_matrix"),
        "transport.cost_matrix.self_s": t_self("transport.cost_matrix"),
        "transport.wasserstein_inf.self_s": t_self("transport.wasserstein_inf"),
        "transport.wasserstein_p_exact.self_s": t_self("transport.wasserstein_p_exact"),
        "transport.combined_metric_parts.calls": n_calls("transport.combined_metric_parts"),
        "transport.pairs_dense": pairs,
        "transport.pairs_live": live_pairs,
        "transport.live_pair_frac": live_pairs / pairs if pairs else 0.0,
        "transport.lp.calls": n_calls("transport.lp"),
        "transport.lp.vars": attr(("transport.lp",), "vars"),
        "transport.lp.self_s": t_self("transport.lp"),
        "transport.probes": n_calls("transport.probe"),
        "transport.probe.self_s": t_self("transport.probe"),
        "transport.assignment.self_s": t_self("transport.assignment"),
        "transport.pushforward_cost.self_s": t_self("transport.pushforward_cost"),
        "flow.calls": n_calls(*EVOLVE),
        "flow.rows": rows,
        "flow.row_time": attr(EVOLVE, "row_time"),
        "flow.self_s": t_layer("flow"),
        "flow.live_row_frac": attr(EVOLVE, "live") / rows if rows else 0.0,
        "measures.sample.self_s": t_self(*SAMPLERS),
        "measures.draws": draws,
        "measures.us_per_draw": 1e6 * sample_incl / draws if draws else 0.0,
        "measures.live_draw_frac": attr(SAMPLERS, "live") / draws if draws else 0.0,
        "measures.pushforward.self_s": t_self("measures.pushforward"),
        "rng.substream.calls": counts.get("rng.substream", 0),
        "spectral.integral_u3_many.rows": attr(("spectral.integral_u3_many",), "rows"),
        "spectral.integral_u3_many.self_s": t_self("spectral.integral_u3_many"),
        "spectral.batched_norms.self_s": t_self(*BATCHED_NORMS),
        "spectral.scalar.calls": n_calls(*SCALAR),
        "spectral.scalar.self_s": t_self(*SCALAR),
        "fitting.bootstrap.self_s": t_self("fitting.bootstrap_weighted_mean"),
        "kdve_io.read.self_s": t_self("kdve_io.read_ensemble"),
        "kdve_io.read.bytes": attr(("kdve_io.read_ensemble",), "bytes"),
        "kdve_io.write.self_s": t_self("kdve_io.write_ensemble"),
        "experiments.run.self_s": t_layer("experiments"),
        "cli.entry.self_s": t_layer("cli"),
        "trace.coverage": sum(selfs) / wall if wall > 0 else 0.0,
    }


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Metric-wise median over passes; work counts are equal in every pass."""
    return {k: float(np.median([m[k] for m in per_pass])) for k in per_pass[0]}
