"""Random fields on the torus: Gaussian ensembles, Gibbs reweighting, tail fits.

The base measure is the law of phi = sum_{n=1..M} (h_n c_n + l_n s_n) / n
with independent standard normal h_n, l_n.  The Gibbs measure reweights it by
f(u) = 1[|u|_{L2} <= r] * exp(kappa3 * integral of (P_N u)^3), represented
here by self-normalised importance weights on Gaussian draws.  Empirical
measures are carried as weighted ensembles, which remember one bit of how
they were drawn: whether they were multinomially resampled.  The metric
they are compared in is chosen by the caller of each distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import flow, spectral
from .fitting import weighted_linear_fit
from .rng import derive_seed, substream, substreams
from .spectral import BASIS_TO_MODE, TorusField, fit_modes


class DegenerateEnsembleError(RuntimeError):
    """All importance weights vanished (every draw fell outside the cutoff)."""


class InsufficientDataError(RuntimeError):
    """Too few usable grid points or samples for a requested fit."""


@dataclass(frozen=True)
class GaussianSpec:
    """Truncation and seed of the Gaussian sampler."""

    n_modes: int
    seed: int = 0

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError(f"sampler needs at least one mode, got n_modes={self.n_modes}")


@dataclass(frozen=True)
class GibbsSpec:
    """Cubic-exponential reweighting of a Gaussian base measure.

    ``projection=None`` means the cubic integral is taken of the full field;
    an integer N replaces it by the projection onto modes <= N.
    """

    base: GaussianSpec
    cubic_coefficient: float = 1.0 / 6.0
    cutoff_radius: float = 1.0
    projection: int | None = None

    def __post_init__(self):
        if not self.cutoff_radius > 0:
            raise ValueError(f"cutoff radius must be positive, got cutoff_radius={self.cutoff_radius}")
        if not math.isfinite(self.cubic_coefficient):
            raise ValueError(
                f"cubic coefficient must be finite, got cubic_coefficient={self.cubic_coefficient}"
            )
        if self.projection is not None:
            spectral.projection_cutoff(self.projection)


class WeightedEnsemble:
    """Finite weighted collection of fields standing in for a measure.

    Samples are stored as a (n, M) array of finite mode amplitudes; weights
    are nonnegative and sum to one.  ``resampled`` records whether the draws
    were multinomially resampled to uniform weights; every ensemble derived
    from this one keeps it, and the .kdve flags byte stores it.
    """

    def __init__(self, coeffs, weights, resampled: bool = False):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.ndim != 2 or coeffs.shape[0] == 0 or coeffs.shape[1] == 0:
            raise ValueError("ensemble needs a nonempty (n, M) coefficient array")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (coeffs.shape[0],):
            raise ValueError("one weight per sample required")
        if np.any(weights < 0) or not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite and nonnegative")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to one within 1e-12")
        self.coeffs = coeffs
        self.weights = weights
        self.resampled = bool(resampled)

    @property
    def n(self) -> int:
        return self.coeffs.shape[0]

    @property
    def n_modes(self) -> int:
        return self.coeffs.shape[1]

    def field(self, i: int) -> TorusField:
        return TorusField(self.coeffs[i])

    def effective_sample_size(self) -> float:
        return float(1.0 / np.sum(self.weights**2))

    def l2_norms(self) -> np.ndarray:
        return spectral.sobolev_norms_many(self.coeffs, 0.0)

    def hs_norms(self, s: float) -> np.ndarray:
        return spectral.sobolev_norms_many(self.coeffs, s)

    def padded(self, m: int) -> "WeightedEnsemble":
        return self.replace(coeffs=fit_modes(self.coeffs, m))

    def replace(self, coeffs=None, weights=None) -> "WeightedEnsemble":
        return WeightedEnsemble(
            self.coeffs if coeffs is None else coeffs,
            self.weights if weights is None else weights,
            self.resampled,
        )


def _gaussian_coeffs(spec: GaussianSpec, n: int) -> np.ndarray:
    if n < 1:  # the draw count of every sampler
        raise ValueError("need at least one sample")
    m = spec.n_modes
    z = np.empty((n, 2 * m))
    for row, gen in zip(z, substreams(spec.seed, range(n))):
        gen.standard_normal(out=row)
    scale = BASIS_TO_MODE / np.arange(1, m + 1, dtype=np.float64)
    return (z[:, :m] - 1j * z[:, m:]) * scale


def sample_gaussian(spec: GaussianSpec, n: int) -> WeightedEnsemble:
    """Draw n independent fields from the Gaussian measure, uniform weights.

    Sample i consumes only the substream (seed, i): first the M cosine
    amplitudes h, then the M sine amplitudes l.  All n substreams come from
    one re-keyed Philox (:func:`kdvlab.rng.substreams`), which draws exactly
    what a generator built per sample would, so results are identical
    regardless of how the draw loop is scheduled.
    """
    return WeightedEnsemble(_gaussian_coeffs(spec, n), np.full(n, 1.0 / n))


def expected_hs_norm_sq(n_modes: int, s: float) -> float:
    """Closed-form E |phi|_{H^s}^2 = 2 sum_{n<=M} n^{2s-2}, valid for s < 1/2."""
    if not 0 <= s < 0.5:
        raise ValueError("second moment formula requires 0 <= s < 1/2")
    n = np.arange(1, n_modes + 1, dtype=np.float64)
    return float(2.0 * np.sum(n ** (2 * s - 2)))


def _gibbs_weights_raw(coeffs: np.ndarray, spec: GibbsSpec) -> np.ndarray:
    # the cubic integral is priced only inside the cutoff; outside, f is 0 anyway
    inside = spectral.sobolev_norms_many(coeffs, 0.0) <= spec.cutoff_radius
    live = coeffs[inside]  # a copy: the projection below leaves coeffs alone
    if spec.projection is not None:
        live[:, spec.projection :] = 0.0
    out = np.zeros(coeffs.shape[0])
    out[inside] = np.exp(spec.cubic_coefficient * spectral.integral_u3_many(live))
    return out


def gibbs_weight(u: TorusField, spec: GibbsSpec) -> float:
    """Unnormalised Gibbs density of one field against the Gaussian base."""
    return float(_gibbs_weights_raw(u.modes[None, :], spec)[0])


def sample_gibbs(spec: GibbsSpec, n: int, resample: bool = False) -> tuple[WeightedEnsemble, float]:
    """Importance-weighted Gibbs ensemble plus the normalisation estimate.

    Draws phi_i from the Gaussian base, sets w_i proportional to f(phi_i) and
    self-normalises; kappa is estimated by n / sum_i f(phi_i).  With
    ``resample=True`` the ensemble is multinomially resampled back to uniform
    weights (recorded in ``resampled`` and the file flags).
    """
    coeffs = _gaussian_coeffs(spec.base, n)
    raw = _gibbs_weights_raw(coeffs, spec)
    total = raw.sum()
    if total == 0.0:
        raise DegenerateEnsembleError(
            "every draw fell outside the L2 cutoff; increase the sample count "
            "or change the seed"
        )
    kappa = n / total
    weights = raw / total
    if resample:
        rng = substream(derive_seed(spec.base.seed, 0x5E5A), 0)
        idx = np.sort(rng.choice(n, size=n, p=weights))
        coeffs = coeffs[idx]
        weights = np.full(n, 1.0 / n)
    return WeightedEnsemble(coeffs, weights, resample), float(kappa)


def pushforward_many(ensembles, t: float, cfg: flow.SolverConfig) -> list[WeightedEnsemble]:
    """Push several ensembles through one discrete flow map; weights are carried along.

    Each ensemble is first fitted to the solver's modes by
    :func:`~kdvlab.spectral.fit_modes` (zero-padded; cutting a nonzero mode
    raises), the rule the flow applies to its input, so the ensembles may
    carry different numbers of modes.  The positive-weight draws of all of
    them are then evolved in one batch, so they share one step size: the one
    the largest amplitude of the live draws sets.  Where each ensemble alone
    would get that same step (the 1e-3 cap binds for all of them), every
    result equals :func:`pushforward` of that ensemble bit for bit; where
    the amplitudes differ past the cap, every ensemble takes the one smaller
    step.  Zero-weight draws are not evolved (they carry no mass), which
    keeps the cost proportional to the effective support.
    """
    fitted = [fit_modes(ens.coeffs, cfg.n_modes) for ens in ensembles]
    lives = [ens.weights > 0 for ens in ensembles]
    evolved = flow.evolve_many(
        np.concatenate([coeffs[live] for coeffs, live in zip(fitted, lives)]), t, cfg
    )
    ends = np.cumsum([np.count_nonzero(live) for live in lives])[:-1]
    for coeffs, live, rows in zip(fitted, lives, np.split(evolved, ends)):
        coeffs[live] = rows
    return [ens.replace(coeffs=coeffs) for ens, coeffs in zip(ensembles, fitted)]


def pushforward(ens: WeightedEnsemble, t: float, cfg: flow.SolverConfig) -> WeightedEnsemble:
    """Evolve every positive-weight draw by the nonlinear flow (see :func:`pushforward_many`)."""
    return pushforward_many([ens], t, cfg)[0]


def pushforward_linear(ens: WeightedEnsemble, t: float) -> WeightedEnsemble:
    """Exact pushforward under the linear group."""
    return ens.replace(coeffs=flow.linear_flow_many(ens.coeffs, t))


FUNCTIONALS = ("linf", "l2", "hs")


def functional_values(ens: WeightedEnsemble, functional: str, s: float) -> np.ndarray:
    """Each draw's value of a tail functional, one of :data:`FUNCTIONALS`; only ``hs`` reads s."""
    if functional == "linf":
        return spectral.linf_norms_many(ens.coeffs)
    if functional == "l2":
        return ens.l2_norms()
    if functional == "hs":
        return ens.hs_norms(s)
    raise ValueError(f"unknown functional {functional!r}; expected one of {FUNCTIONALS}")


@dataclass(frozen=True)
class TailFit:
    """Weighted least-squares fit of log survival against R^2."""

    slope: float
    intercept: float
    r_squared: float
    survival: np.ndarray
    used: np.ndarray  # boolean mask of grid points entering the fit


def tail_fit(ens: WeightedEnsemble, values, radii) -> TailFit:
    """Fit log P(F(u) > R) ~ intercept + slope * R^2, F(u) each draw's entry of ``values``.

    Grid points with survival outside [1e-3, 0.5] are excluded; fewer than
    three usable points raises :class:`InsufficientDataError`.  Points are
    weighted by their effective tail count, the inverse-variance scale of a
    log survival estimate.
    """
    if ens.effective_sample_size() < 500:
        raise InsufficientDataError("tail fits need >= 500 effective samples")
    values = np.asarray(values, dtype=np.float64)
    radii = np.asarray(list(radii), dtype=np.float64)
    survival = np.array([ens.weights[values > r].sum() for r in radii])
    used = (survival >= 1e-3) & (survival <= 0.5)
    if used.sum() < 3:
        raise InsufficientDataError(
            f"only {int(used.sum())} usable grid points with survival in [1e-3, 0.5]"
        )
    x = radii[used] ** 2
    y = np.log(survival[used])
    w = survival[used] * ens.effective_sample_size()
    fit = weighted_linear_fit(x, y, w)
    return TailFit(fit.slope, fit.intercept, fit.r_squared, survival, used)


@dataclass(frozen=True)
class FConvergenceResult:
    """Monte-Carlo estimates of E |f - f_N| over a projection grid."""

    projections: np.ndarray
    estimates: np.ndarray
    std_errors: np.ndarray
    pair_deltas: np.ndarray  # est[i] - est[i+1], paired over common samples
    pair_std_errors: np.ndarray
    loglog_slope: float


def f_convergence_probe(spec: GibbsSpec, projections, n: int) -> FConvergenceResult:
    """Estimate the L1 distance between the full and projected Gibbs densities.

    All projections are evaluated on one common set of base draws, so the
    per-N estimates and their successive differences come with paired
    standard errors.
    """
    projections = np.asarray(list(projections), dtype=np.int64)
    if np.any(np.diff(projections) <= 0):
        raise ValueError("projection grid must be strictly increasing")
    coeffs = _gaussian_coeffs(spec.base, n)
    full = _gibbs_weights_raw(coeffs, GibbsSpec(spec.base, spec.cubic_coefficient, spec.cutoff_radius, None))
    diffs = []
    for n_proj in projections:
        trunc = GibbsSpec(spec.base, spec.cubic_coefficient, spec.cutoff_radius, int(n_proj))
        diffs.append(np.abs(full - _gibbs_weights_raw(coeffs, trunc)))
    diffs = np.array(diffs)
    estimates = diffs.mean(axis=1)
    std_errors = diffs.std(axis=1, ddof=1) / math.sqrt(n)
    deltas = diffs[:-1] - diffs[1:]
    pair_deltas = deltas.mean(axis=1)
    pair_ses = deltas.std(axis=1, ddof=1) / math.sqrt(n)
    positive = estimates > 0
    if positive.sum() >= 2:
        fit = weighted_linear_fit(np.log(projections[positive]), np.log(estimates[positive]))
        slope = fit.slope
    else:
        slope = float("nan")
    return FConvergenceResult(
        projections=projections,
        estimates=estimates,
        std_errors=std_errors,
        pair_deltas=pair_deltas,
        pair_std_errors=pair_ses,
        loglog_slope=slope,
    )
