"""Configuration-driven experiment pipelines with reproducible reports.

Configs are flat ``key = value`` text files (README's "Experiment
configuration" table lists every key with its type and default).  Every
pipeline returns an :class:`ExperimentReport` carrying a per-point series, a
summary of fitted quantities, and provenance (config hash, seed, package
versions); reports depend only on (config, seed), never on thread count or
scheduling.
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
from .transport import combined_metric_parts, plan_cost


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
        if kind == tuple[float, ...]:
            return tuple(float(v) for v in raw.split(",") if v.strip())
        if kind == tuple[int, ...]:
            return tuple(int(v) for v in raw.split(",") if v.strip())
        if kind == tuple[str, ...]:
            return tuple(v.strip() for v in raw.split(",") if v.strip())
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
    path = os.path.join(out_dir, "series.csv")
    if not report.series:
        open(path, "w").close()
        return
    header = list(report.series[0])
    write_rows(path, header, ([row[k] for k in header] for row in report.series))


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


def _require_perturbation(cfg: ExperimentConfig) -> None:
    """Continuity and stability divide by the initial distance: it must not vanish.

    Checked when the experiment runs rather than in the config itself, so a
    zero-delta config can still build the identical pair that checks
    :func:`_perturb`.
    """
    delta = cfg.perturbation_delta
    if cfg.perturbation in ("mode_shift", "rescale") and not (math.isfinite(delta) and delta != 0):
        raise ConfigError(
            f"{cfg.experiment} with {cfg.perturbation} needs a finite nonzero "
            f"perturbation_delta, got {delta!r}"
        )


def _measure_radii(cfg: ExperimentConfig, ens: WeightedEnsemble) -> dict:
    """The norm statistics entering the continuity envelope."""
    live = ens.weights > 0
    l2_sup = float(np.max(ens.l2_norms()[live]))
    hs_mom = float(np.sum(ens.weights * ens.hs_norms(cfg.s) ** cfg.p) ** (1.0 / cfg.p))
    return {"l2_sup": l2_sup, "hs_moment": hs_mom}


# --- experiment pipelines ----------------------------------------------------


def run_continuity(cfg: ExperimentConfig) -> ExperimentReport:
    """Track the combined distance of a coupled pair of ensembles through time.

    Builds a base ensemble and its perturbation and steps both as one batch
    (one discrete flow map, one step size) from grid time to grid time,
    evolving only the positive-weight draws.  At every grid time it
    re-optimises the distance on the evolved pair and prices the time-zero
    optimal plans on that same pair (the order-p part over the order-p
    plan, the bottleneck part over the bottleneck plan): a pushed plan is a
    coupling of the evolved ensembles, so its price bounds the re-optimised
    distance from above by construction.  Finally it fits log(distance
    ratio) linearly in t.  The fit is a growth-rate diagnostic only: the
    continuity estimate bounds the ratio from above by a constant of t and
    the norm radii, and states no trend in t.
    """
    _require_perturbation(cfg)
    mu, _ = _base_ensemble(cfg)
    nu = _perturb(mu, cfg)
    solver = cfg.solver()
    d0 = combined_metric_parts(mu, nu, cfg.s, cfg.p, cfg.backend, cfg.epsilon)
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
    mu_t, nu_t = mu, nu
    t_prev = 0.0
    for t in cfg.time_grid:
        mu_t, nu_t = pushforward_many([mu_t, nu_t], t - t_prev, solver)
        t_prev = t
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
    _require_perturbation(cfg)
    rho, _ = _base_ensemble(cfg)
    nu = _perturb(rho, cfg)
    solver = cfg.solver()
    d_base = combined_metric_parts(rho, nu, cfg.s, cfg.p, cfg.backend, cfg.epsilon).total
    rb = _measure_radii(cfg, nu)
    series = [{"t": 0.0, "distance": 0.0, "ratio": 0.0}]
    nu_t = nu
    t_prev = 0.0
    for t in cfg.time_grid:
        nu_t = pushforward(nu_t, t - t_prev, solver)
        t_prev = t
        dist = combined_metric_parts(nu, nu_t, cfg.s, cfg.p, cfg.backend, cfg.epsilon).total
        ratio = dist / d_base if d_base > 0 else math.inf
        series.append({"t": t, "distance": dist, "ratio": ratio})
    finite_ratios = [row["ratio"] for row in series[1:] if math.isfinite(row["ratio"])]
    summary = {
        "distance_to_reference": d_base,
        "max_ratio": max(finite_ratios) if finite_ratios else math.inf,
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

    if cfg.threads == 1:
        return np.array([one(r) for r in range(n_replicas)])
    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        return np.array(list(pool.map(one, range(n_replicas))))


_S_REPORT = (0.0, 0.25, 0.45)  # H^s exponents of the moment drifts invariance_linear reports


def _run_invariance_linear(cfg: ExperimentConfig) -> ExperimentReport:
    """Push a Gaussian ensemble by the free group; per-mode moments must not move."""
    ens = sample_gaussian(cfg.gaussian_spec(), cfg.ensemble_size)
    weights = {s_val: hs_weights(ens.n_modes, s_val) for s_val in _S_REPORT}
    base = np.sum(ens.weights[:, None] * np.abs(ens.coeffs) ** 2, axis=0)  # E|u_hat(k)|^2
    series = []
    for t in cfg.time_grid:
        pushed = pushforward_linear(ens, t)
        moments = np.sum(pushed.weights[:, None] * np.abs(pushed.coeffs) ** 2, axis=0)
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
    solver = cfg.solver()
    t_star = cfg.time_grid[-1]
    pushed = pushforward(ens, t_star, solver)

    l2_sq0 = squared_norms_many(ens.coeffs, 0.0)
    l2_sq1 = squared_norms_many(pushed.coeffs, 0.0)
    # dead draws weigh nothing, but the bootstrap resamples every index: price
    # the cubic on the live rows and keep zeros in the full-length layout
    live = ens.weights > 0
    cubic0 = np.zeros(ens.n)
    cubic1 = np.zeros(pushed.n)
    cubic0[live] = integral_u3_many(ens.coeffs[live])
    cubic1[live] = integral_u3_many(pushed.coeffs[live])
    boot_seed = derive_seed(cfg.seed, 0xB5)
    b_l2 = bootstrap_weighted_mean(l2_sq0, ens.weights, cfg.bootstrap_replicas, boot_seed)
    b_cu = bootstrap_weighted_mean(cubic0, ens.weights, cfg.bootstrap_replicas, boot_seed + 1)
    drift_l2 = abs(float(np.sum(pushed.weights * l2_sq1)) - b_l2.mean)
    drift_cu = abs(float(np.sum(pushed.weights * cubic1)) - b_cu.mean)

    dist = combined_metric_parts(ens, pushed, cfg.s, cfg.p, cfg.backend, cfg.epsilon).total
    null = _null_band(cfg, cfg.bootstrap_replicas)
    lo, hi = np.percentile(null, [2.5, 97.5])
    series = [
        {
            "t": t_star,
            "distance": dist,
            "null_lo95": float(lo),
            "null_hi95": float(hi),
            "l2_sq_mean": b_l2.mean,
            "l2_sq_pushed": float(np.sum(pushed.weights * l2_sq1)),
            "cubic_mean": b_cu.mean,
            "cubic_pushed": float(np.sum(pushed.weights * cubic1)),
        }
    ]
    summary = {
        "t": t_star,
        "kappa": kappa,
        "effective_sample_size": ens.effective_sample_size(),
        "l2_sq_drift": drift_l2,
        "l2_sq_se": b_l2.std_error,
        "l2_sq_drift_z": drift_l2 / b_l2.std_error if b_l2.std_error > 0 else math.inf,
        "cubic_drift": drift_cu,
        "cubic_se": b_cu.std_error,
        "cubic_drift_z": drift_cu / b_cu.std_error if b_cu.std_error > 0 else math.inf,
        "distance": dist,
        "null_lo95": float(lo),
        "null_hi95": float(hi),
        "inside_null_band": bool(lo <= dist <= hi),
        "null_replicas": int(null.size),
    }
    return ExperimentReport("invariance_nonlinear", series, summary, _provenance(cfg), ensemble=ens)


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
        fit = tail_fit(ens, functional, radii, s=cfg.s if functional == "hs" else None)
        for r_val, surv, used in zip(fit.radii, fit.survival, fit.used):
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
