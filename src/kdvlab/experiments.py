"""Configuration-driven experiment pipelines with reproducible reports.

Configs are flat ``key = value`` text files (README's "Experiment
configuration" table lists every key with its type and default).  Every
pipeline returns an :class:`ExperimentReport` carrying a per-point series, a
summary of fitted quantities, and provenance (config hash, seed, package
versions); reports depend only on (config, seed), never on thread count or
scheduling.

``continuity`` and ``stability`` share two pieces.  :func:`_pair` builds the
base ensemble, its perturbation and their time-zero distance, and refuses a
perturbation that leaves that distance 0 (both pipelines divide by it) as a
:class:`ConfigError` naming ``perturbation_delta``.  :func:`_walk` steps a
list of ensembles through the time grid as one batch, one flow map per grid
step.
"""

from __future__ import annotations

import hashlib
import math
import os
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .fitting import bootstrap_weighted_mean, weighted_linear_fit
from .flow import SolverConfig, evolve, evolve_projected
from .kdve_io import require_finite, write_ensemble, write_json, write_rows
from .measures import (
    FUNCTIONALS,
    GaussianSpec,
    GibbsSpec,
    WeightedEnsemble,
    functional_values,
    pushforward,
    pushforward_linear,
    pushforward_many,
    sample_gaussian,
    sample_gibbs,
    tail_fit,
)
from .rng import derive_seed
from .spectral import cosine_mode, hs_weights, integral_u3_many, sobolev_norm, squared_norms_many
from .transport import CombinedDistance, combined_metric_parts, plan_cost


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


PERTURBATIONS = ("mode_shift", "rescale", "resample")
HORIZON = 4.0  # largest admissible |t| in a time grid


@dataclass(frozen=True)
class ExperimentConfig:
    """Typed view of a flat experiment config; field names are the file keys."""

    experiment: str = "continuity"
    seed: int = 0
    out_dir: str = "runs/out"
    threads: int = 1
    format: str = "csv"
    # measure
    measure: str = "gibbs"
    modes: int = 16
    ensemble_size: int = 256
    cutoff_radius: float = 1.0
    cubic_coefficient: float = 1.0 / 6.0
    resample: bool = False
    # metric context
    s: float = 0.25
    p: float = 2.0
    # flow
    solver_modes: int = 48
    dt: float | None = None
    time_grid: tuple[float, ...] = (0.25, 0.5, 1.0)
    # perturbation family
    perturbation: str = "mode_shift"
    perturbation_mode: int = 3
    perturbation_delta: float = 1e-3
    # galerkin / f-convergence
    projection_grid: tuple[int, ...] = (4, 8, 16, 32)
    sigma: float = 0.45
    # tails
    tail_functionals: tuple[str, ...] = ("linf", "l2", "hs")
    # statistics
    bootstrap_replicas: int = 200
    backend: str = "exact"
    epsilon: float | None = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.perturbation not in PERTURBATIONS:
            raise ConfigError(f"unknown perturbation {self.perturbation!r}")
        if self.measure not in ("gaussian", "gibbs"):
            raise ConfigError(f"unknown measure {self.measure!r}")
        if not 1 <= self.p < math.inf:
            raise ConfigError("the transport order must be a finite p >= 1")
        if self.epsilon is not None and not 0 < self.epsilon < math.inf:
            raise ConfigError("epsilon must be finite and positive")
        if self.experiment != "galerkin" and not 0 < self.s < 0.5:
            raise ConfigError("measure experiments need 0 < s < 1/2")
        if self.experiment == "galerkin" and not (0 <= self.s < self.sigma):
            raise ConfigError("galerkin needs 0 <= s < sigma")
        if not all(math.isfinite(t) for t in self.time_grid):
            raise ConfigError("time grid entries must be finite")
        try:  # the solver and the measure specs state their own rules
            solver = self.solver()
            self.gibbs_spec()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if any(abs(t) > HORIZON for t in self.time_grid):
            raise ConfigError(f"time grid exceeds the horizon {HORIZON}")
        if any(t2 <= t1 for t1, t2 in zip(self.time_grid, self.time_grid[1:])):
            raise ConfigError("time grid must be strictly increasing")
        if self.experiment != "tails" and not self.time_grid:
            raise ConfigError(f"{self.experiment} needs a nonempty time grid")
        if self.experiment == "continuity" and len(self.time_grid) < 2:
            raise ConfigError("continuity fits a line: its time grid needs >= 2 times")
        if self.experiment == "invariance_nonlinear" and self.cubic_coefficient != 1.0 / 6.0:
            # only then is the Gibbs weight exp(-H_N), the law the Galerkin flow keeps
            raise ConfigError(
                f"invariance_nonlinear needs cubic_coefficient = 1/6, got {self.cubic_coefficient!r}"
            )
        if self.perturbation_mode < 1:
            raise ConfigError("perturbation_mode must be >= 1")
        if self.ensemble_size < 1:
            raise ConfigError("ensemble_size must be positive")
        evolves = self.experiment not in ("tails", "invariance_linear")
        if evolves and self.modes > solver.n_modes:
            raise ConfigError(f"{self.experiment} evolves its draws: modes must be <= solver_modes")
        shifts = self.experiment in ("continuity", "stability") and self.perturbation == "mode_shift"
        if shifts and self.perturbation_mode > self.solver_modes:
            raise ConfigError("the shifted perturbation_mode must be <= solver_modes")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.format not in ("csv", "json"):
            raise ConfigError("format must be csv or json")
        if self.backend not in ("exact", "entropic"):
            raise ConfigError("backend must be exact or entropic")
        if self.experiment in ("tails", "invariance_linear") and self.measure != "gaussian":
            raise ConfigError(f"{self.experiment} needs measure = gaussian")
        if self.experiment == "invariance_nonlinear" and self.measure != "gibbs":
            raise ConfigError("invariance_nonlinear needs measure = gibbs")
        if self.experiment == "invariance_nonlinear" and self.bootstrap_replicas < 2:
            raise ConfigError("invariance_nonlinear needs bootstrap_replicas >= 2")
        if self.experiment == "galerkin" and len(set(self.projection_grid)) < 2:
            raise ConfigError("galerkin fits a line: projection_grid needs >= 2 distinct bands")
        bands = self.projection_grid
        if self.experiment == "galerkin" and not 1 <= min(bands) <= max(bands) <= self.solver_modes:
            raise ConfigError("projection_grid bands must lie in 1..solver_modes")
        unknown = sorted(set(self.tail_functionals) - set(FUNCTIONALS))
        if self.experiment == "tails" and unknown:
            raise ConfigError(f"unknown tail functionals {unknown}; expected any of {FUNCTIONALS}")
        if self.experiment == "tails" and not self.tail_functionals:
            raise ConfigError("tails needs a nonempty list of tail functionals")

    def solver(self) -> SolverConfig:
        """The experiment's flow, at ``solver_modes``; invariance_nonlinear's is the
        Galerkin flow at the measure's ``modes``, which keeps its truncated Gibbs measure."""
        n_modes = self.modes if self.experiment == "invariance_nonlinear" else self.solver_modes
        return SolverConfig(n_modes=n_modes, dt=self.dt)

    def gaussian_spec(self, seed: int | None = None) -> GaussianSpec:
        return GaussianSpec(n_modes=self.modes, seed=self.seed if seed is None else seed)

    def gibbs_spec(self, seed: int | None = None) -> GibbsSpec:
        return GibbsSpec(self.gaussian_spec(seed), cubic_coefficient=self.cubic_coefficient,
                         cutoff_radius=self.cutoff_radius)


_BOOL = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}


def _coerce(name: str, kind, raw: str):
    raw = raw.strip()
    try:
        if kind is bool:
            return _BOOL[raw.lower()]
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is str:
            return raw
        if typing.get_origin(kind) is tuple:
            item = typing.get_args(kind)[0]
            return tuple(item(v.strip()) for v in raw.split(",") if v.strip())
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad value for {name}: {raw!r}") from exc
    raise ConfigError(f"unsupported type for key {name}")


def _key_kinds() -> dict:
    """Value type of each config key: its field type, ``X | None`` read as X."""
    kinds = {}
    for name, hint in typing.get_type_hints(ExperimentConfig).items():
        args = typing.get_args(hint)
        kinds[name] = args[0] if type(None) in args else hint
    return kinds


_KEY_KINDS = _key_kinds()


def parse_config_text(text: str, **overrides) -> ExperimentConfig:
    """Parse ``key = value`` lines; '#' starts a comment; keys match the schema."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _KEY_KINDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        values[key] = _coerce(key, _KEY_KINDS[key], raw)
    values.update(overrides)
    try:
        return ExperimentConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path, **overrides) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config_text(fh.read(), **overrides)


_RUNTIME_KEYS = {"threads", "out_dir", "format"}  # never affect the numbers


def config_hash(cfg: ExperimentConfig) -> str:
    payload = "\n".join(
        f"{f.name}={getattr(cfg, f.name)!r}"
        for f in fields(cfg)
        if f.name not in _RUNTIME_KEYS
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ExperimentReport:
    """A run's series, summary and provenance, plus the base ensemble it ran on."""

    name: str
    series: list[dict]
    summary: dict
    provenance: dict
    ensemble: WeightedEnsemble | None = field(default=None, compare=False, repr=False)


def _provenance(cfg: ExperimentConfig) -> dict:
    import scipy

    from . import __version__

    return {
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "kdvlab_version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
    }


def write_report(report: ExperimentReport, out_dir, fmt: str = "csv") -> None:
    """Persist report.json plus the series as series.csv or series.json."""
    os.makedirs(out_dir, exist_ok=True)
    require_finite(report.series, "series")  # write_json checks the summary before any file
    payload = {
        "experiment": report.name,
        "summary": report.summary,
        "provenance": report.provenance,
    }
    write_json(os.path.join(out_dir, "report.json"), payload)
    if fmt == "json":
        write_json(os.path.join(out_dir, "series.json"), report.series)
        return
    header = list(report.series[0])  # every pipeline reports at least one row
    write_rows(os.path.join(out_dir, "series.csv"), header,
               ([row[k] for k in header] for row in report.series))


# --- shared pieces -----------------------------------------------------------


def _base_ensemble(cfg: ExperimentConfig, seed: int | None = None) -> tuple[WeightedEnsemble, float | None]:
    if cfg.measure == "gaussian":
        return sample_gaussian(cfg.gaussian_spec(seed), cfg.ensemble_size), None
    return sample_gibbs(cfg.gibbs_spec(seed), cfg.ensemble_size, resample=cfg.resample)


def _perturb(ens: WeightedEnsemble, cfg: ExperimentConfig) -> WeightedEnsemble:
    """Apply the configured perturbation family to an ensemble."""
    if cfg.perturbation == "mode_shift":
        shift = cosine_mode(cfg.perturbation_mode, max(cfg.perturbation_mode, ens.n_modes))
        base = ens.padded(shift.n_modes)
        coeffs = base.coeffs + cfg.perturbation_delta * shift.modes[None, :]
        return base.replace(coeffs=coeffs)
    if cfg.perturbation == "rescale":
        coeffs = ens.coeffs * (1.0 + cfg.perturbation_delta)
        return ens.replace(coeffs=coeffs)
    ens2, _ = _base_ensemble(cfg, seed=derive_seed(cfg.seed, 0xFE))
    return ens2


def _pair(cfg: ExperimentConfig) -> tuple[WeightedEnsemble, WeightedEnsemble, CombinedDistance]:
    """The base ensemble, its perturbation and their time-zero distance.

    Continuity and stability divide by that distance, so a perturbation that
    moves no draw is refused as a config error: a delta that is zero or not
    finite before anything is sampled (a NaN delta would make the perturbed
    draws invalid), and one that every coefficient absorbs (1e-300) once the
    distance is known.  Both are checked here rather than in the config, so a
    zero-delta config still builds the identical pair through :func:`_perturb`.
    """
    delta = cfg.perturbation_delta
    refusal = ConfigError(
        f"{cfg.experiment} with {cfg.perturbation} needs a finite perturbation_delta "
        f"that moves a draw, got {delta!r}"
    )
    if cfg.perturbation != "resample" and not (math.isfinite(delta) and delta != 0):
        raise refusal
    mu, _ = _base_ensemble(cfg)
    nu = _perturb(mu, cfg)
    d0 = combined_metric_parts(mu, nu, cfg.s, cfg.p, cfg.backend, cfg.epsilon)
    if d0.total == 0:
        raise refusal
    return mu, nu, d0


def _walk(cfg: ExperimentConfig, ensembles: list[WeightedEnsemble]):
    """Yield ``(t, ensembles pushed to t)`` at each grid time.

    The ensembles are stepped as one batch (one discrete flow map, one step
    size) from grid time to grid time, evolving only their positive-weight
    draws.
    """
    solver = cfg.solver()
    t_prev = 0.0
    for t in cfg.time_grid:
        ensembles = pushforward_many(ensembles, t - t_prev, solver)
        t_prev = t
        yield t, ensembles


def _measure_radii(cfg: ExperimentConfig, ens: WeightedEnsemble) -> dict:
    """The norm statistics entering the continuity envelope."""
    live = ens.weights > 0
    l2_sup = float(np.max(ens.l2_norms()[live]))
    hs_mom = float(np.sum(ens.weights * ens.hs_norms(cfg.s) ** cfg.p) ** (1.0 / cfg.p))
    return {"l2_sup": l2_sup, "hs_moment": hs_mom}


# --- experiment pipelines ----------------------------------------------------


def run_continuity(cfg: ExperimentConfig) -> ExperimentReport:
    """Track the combined distance of a coupled pair of ensembles through time.

    Builds a base ensemble and its perturbation (:func:`_pair`) and steps
    both as one batch (:func:`_walk`).  At every grid time it
    re-optimises the distance on the evolved pair and prices the time-zero
    optimal plans on that same pair (the order-p part over the order-p
    plan, the bottleneck part over the bottleneck plan): a pushed plan is a
    coupling of the evolved ensembles, so its price bounds the re-optimised
    distance from above by construction.  Finally it fits log(distance
    ratio) linearly in t.  The fit is a growth-rate diagnostic only: the
    continuity estimate bounds the ratio from above by a constant of t and
    the norm radii, and states no trend in t.
    """
    mu, nu, d0 = _pair(cfg)
    ra = _measure_radii(cfg, mu)
    rb = _measure_radii(cfg, nu)
    r1 = (ra["l2_sup"] + rb["l2_sup"]) ** 12
    r2 = ra["hs_moment"] + rb["hs_moment"]

    def series_row(t: float, parts, w_inf_bound: float, w_p_bound: float) -> dict:
        return {
            "t": t,
            "w_inf": parts.w_inf,
            "w_p": parts.w_p,
            "combined": parts.total,
            "bound_w_inf": w_inf_bound,
            "bound_w_p": w_p_bound,
            "bound_combined": w_inf_bound + w_p_bound,
            "ratio": parts.total / d0.total,
        }

    series = [series_row(0.0, d0, d0.w_inf, d0.w_p)]
    for t, (mu_t, nu_t) in _walk(cfg, [mu, nu]):
        dt_parts = combined_metric_parts(mu_t, nu_t, cfg.s, cfg.p, cfg.backend, cfg.epsilon)
        bound = plan_cost(mu_t, nu_t, d0.plan, cfg.s, cfg.p, d0.inf_plan)
        series.append(series_row(t, dt_parts, bound.w_inf_bound, bound.w_p_bound))
    ts = np.array([row["t"] for row in series[1:]])
    ratios = np.array([row["ratio"] for row in series[1:]])
    fit = weighted_linear_fit(np.abs(ts), np.log(ratios))
    bound_ok = all(row["bound_combined"] >= row["combined"] - 1e-12 for row in series)
    summary = {
        "base_distance": d0.total,
        "base_w_inf": d0.w_inf,
        "base_w_p": d0.w_p,
        "log_ratio_slope": fit.slope,
        "log_ratio_intercept": fit.intercept,
        "log_ratio_r_squared": fit.r_squared,
        "r1_l2_sup_pow12": r1,
        "r2_hs_moment_sum": r2,
        "bound_dominates": bound_ok,
        "backend": cfg.backend,
    }
    return ExperimentReport("continuity", series, summary, _provenance(cfg), ensemble=mu)


def run_stability(cfg: ExperimentConfig) -> ExperimentReport:
    """Compare an ensemble's drift from itself against its distance to the Gibbs one.

    The reference ensemble plays the invariant measure; the perturbed copy is
    evolved and the ratio of |nu^t - nu| to |nu - rho| is reported with the
    envelope ingredients of the perturbed ensemble.
    """
    rho, nu, d0 = _pair(cfg)
    rb = _measure_radii(cfg, nu)
    series = [{"t": 0.0, "distance": 0.0, "ratio": 0.0}]
    for t, (nu_t,) in _walk(cfg, [nu]):
        dist = combined_metric_parts(nu, nu_t, cfg.s, cfg.p, cfg.backend, cfg.epsilon).total
        series.append({"t": t, "distance": dist, "ratio": dist / d0.total})
    summary = {
        "distance_to_reference": d0.total,
        "max_ratio": max(row["ratio"] for row in series[1:]),
        "r1_l2_sup_pow12": (1.0 + rb["l2_sup"]) ** 12,
        "r2_hs_moment": rb["hs_moment"],
        "backend": cfg.backend,
    }
    return ExperimentReport("stability", series, summary, _provenance(cfg), ensemble=rho)


def _null_band(cfg: ExperimentConfig, n_replicas: int) -> np.ndarray:
    """Distances between independent same-law ensemble pairs (the zero baseline)."""

    def one(r: int) -> float:
        ens_a, _ = _base_ensemble(cfg, seed=derive_seed(cfg.seed, 0xA0, r, 0))
        ens_b, _ = _base_ensemble(cfg, seed=derive_seed(cfg.seed, 0xA0, r, 1))
        return combined_metric_parts(ens_a, ens_b, cfg.s, cfg.p, cfg.backend, cfg.epsilon).total

    workers = min(cfg.threads, n_replicas, os.cpu_count() or 1)
    if workers == 1:
        return np.array([one(r) for r in range(n_replicas)])
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return np.array(list(pool.map(one, range(n_replicas))))


_S_REPORT = (0.0, 0.25, 0.45)  # H^s exponents of the moment drifts invariance_linear reports


def _run_invariance_linear(cfg: ExperimentConfig) -> ExperimentReport:
    """Push a Gaussian ensemble by the free group; per-mode moments must not move."""
    ens = sample_gaussian(cfg.gaussian_spec(), cfg.ensemble_size)
    weights = {s_val: hs_weights(ens.n_modes, s_val) for s_val in _S_REPORT}

    def second_moments(e: WeightedEnsemble) -> np.ndarray:  # E|u_hat(k)|^2
        return np.sum(e.weights[:, None] * np.abs(e.coeffs) ** 2, axis=0)

    base = second_moments(ens)
    series = []
    for t in cfg.time_grid:
        moments = second_moments(pushforward_linear(ens, t))
        row = {"t": t, "max_mode_moment_drift": float(np.max(weights[0.0] * np.abs(moments - base)))}
        for s_val, w in weights.items():
            row[f"hs_moment_drift_s{s_val}"] = abs(float(np.sum(w * moments) - np.sum(w * base)))
        series.append(row)
    worst = max(row["max_mode_moment_drift"] for row in series)
    summary = {"worst_mode_moment_drift": worst, "n": ens.n, "modes": ens.n_modes}
    return ExperimentReport("invariance_linear", series, summary, _provenance(cfg))


def _run_invariance_nonlinear(cfg: ExperimentConfig) -> ExperimentReport:
    """Push a Gibbs ensemble by the nonlinear flow and test measure-level stillness.

    The flow is the N-mode Galerkin flow, N the measure's ``modes`` (see
    :meth:`ExperimentConfig.solver`; ``solver_modes`` is not read).  It
    conserves |u|_{L2} and H_N and is divergence-free, so it keeps the
    truncated Gibbs measure mu_N, and the pushed draws stay on its N modes.
    Weighted means of |u|_{L2}^2 and the cubic integral are compared against
    bootstrap standard errors of the unevolved ensemble; the combined distance
    between the ensemble and its pushforward is located inside the null band
    of independent same-law pair distances.
    """
    ens, kappa = _base_ensemble(cfg)
    t_star = cfg.time_grid[-1]
    pushed = pushforward(ens, t_star, cfg.solver())
    dist = combined_metric_parts(ens, pushed, cfg.s, cfg.p, cfg.backend, cfg.epsilon).total
    null = _null_band(cfg, cfg.bootstrap_replicas)
    lo, hi = (float(edge) for edge in np.percentile(null, [2.5, 97.5]))
    row = {"t": t_star, "distance": dist, "null_lo95": lo, "null_hi95": hi}
    summary = {
        **row,
        "kappa": kappa,
        "effective_sample_size": ens.effective_sample_size(),
        "inside_null_band": bool(lo <= dist <= hi),
        "null_replicas": int(null.size),
    }
    # dead draws weigh nothing, but the bootstrap resamples every index: price
    # each invariant on the live rows and keep zeros in the full-length layout
    live = ens.weights > 0
    boot_seed = derive_seed(cfg.seed, 0xB5)
    invariants = (("l2_sq", lambda coeffs: squared_norms_many(coeffs, 0.0)), ("cubic", integral_u3_many))
    for index, (name, invariant) in enumerate(invariants):
        before, after = np.zeros(ens.n), np.zeros(pushed.n)
        before[live] = invariant(ens.coeffs[live])
        after[live] = invariant(pushed.coeffs[live])
        boot = bootstrap_weighted_mean(before, ens.weights, cfg.bootstrap_replicas, boot_seed + index)
        row[f"{name}_mean"] = boot.mean
        row[f"{name}_pushed"] = float(np.sum(pushed.weights * after))
        drift = abs(row[f"{name}_pushed"] - boot.mean)
        summary[f"{name}_drift"] = drift
        summary[f"{name}_se"] = boot.std_error
        summary[f"{name}_drift_z"] = drift / boot.std_error if boot.std_error > 0 else math.inf
    return ExperimentReport("invariance_nonlinear", [row], summary, _provenance(cfg), ensemble=ens)


def run_galerkin(cfg: ExperimentConfig) -> ExperimentReport:
    """Convergence of the band-projected flow to the reference flow.

    The initial state is one Gaussian draw (slowly decaying spectrum, so the
    projection tail genuinely controls the data error); errors against the
    full-band reference are fitted log-log in the band size.
    """
    ens = sample_gaussian(cfg.gaussian_spec(), 1)
    u0 = ens.field(0)
    solver = cfg.solver()
    t_star = cfg.time_grid[-1]
    reference = evolve(u0, t_star, solver)
    series = []
    errors = []
    for n_band in cfg.projection_grid:
        approx = evolve_projected(u0, t_star, n_band, solver)
        err = sobolev_norm(approx - reference, cfg.s)
        errors.append(err)
        series.append({"n_proj": int(n_band), "error": err})
    errors_arr = np.array(errors)
    fit = weighted_linear_fit(np.log(np.array(cfg.projection_grid, dtype=float)), np.log(errors_arr))
    monotone = bool(np.all(errors_arr[1:] <= errors_arr[:-1] * 1.05 + 1e-14))
    summary = {
        "t": t_star,
        "s": cfg.s,
        "sigma": cfg.sigma,
        "loglog_slope": fit.slope,
        "loglog_r_squared": fit.r_squared,
        "slope_bound": -(cfg.sigma - cfg.s) + 0.5,
        "monotone_within_noise": monotone,
        "u0_hsigma_norm": sobolev_norm(u0, cfg.sigma),
        "u0_l2_norm": sobolev_norm(u0, 0.0),
    }
    return ExperimentReport("galerkin", series, summary, _provenance(cfg))


_TAIL_GRID_POINTS = 12  # survival targets per functional


def run_tails(cfg: ExperimentConfig) -> ExperimentReport:
    """Gaussian tail-decay fits for the configured norm functionals."""
    ens = sample_gaussian(cfg.gaussian_spec(), cfg.ensemble_size)
    series = []
    summary = {}
    for functional in cfg.tail_functionals:
        values = functional_values(ens, functional, cfg.s)
        # survival targets spaced between 0.45 and ~2e-3 pick the usable range
        targets = np.exp(np.linspace(math.log(0.45), math.log(2e-3), _TAIL_GRID_POINTS))
        radii = np.quantile(values, 1.0 - targets)
        fit = tail_fit(ens, values, radii)
        for r_val, surv, used in zip(radii, fit.survival, fit.used):
            series.append(
                {
                    "functional": functional,
                    "radius": float(r_val),
                    "survival": float(surv),
                    "used": bool(used),
                }
            )
        summary[f"{functional}_slope"] = fit.slope
        summary[f"{functional}_r_squared"] = fit.r_squared
    return ExperimentReport("tails", series, summary, _provenance(cfg), ensemble=ens)


_RUNNERS = {
    "continuity": run_continuity,
    "stability": run_stability,
    "invariance_linear": _run_invariance_linear,
    "invariance_nonlinear": _run_invariance_nonlinear,
    "galerkin": run_galerkin,
    "tails": run_tails,
}
EXPERIMENTS = tuple(_RUNNERS)


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    return _RUNNERS[cfg.experiment](cfg)


def run_and_write(cfg: ExperimentConfig, out_dir=None) -> ExperimentReport:
    """Run the configured experiment; persist its report and, if any, its base ensemble."""
    report = run_experiment(cfg)
    target = out_dir if out_dir is not None else cfg.out_dir
    write_report(report, target, cfg.format)
    if report.ensemble is not None:
        write_ensemble(os.path.join(target, "base.kdve"), report.ensemble)
    return report
