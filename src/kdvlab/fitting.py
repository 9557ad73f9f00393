"""Small fitting and resampling helpers shared by the statistics layers."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import derive_seed, substreams


@dataclass(frozen=True)
class LinearFit:
    slope: float
    intercept: float
    r_squared: float


def weighted_linear_fit(x, y, w=None) -> LinearFit:
    """Least-squares line through (x, y) with optional nonnegative weights.

    The reported r_squared is the weighted coefficient of determination; a
    perfectly flat y gives r_squared = 1 when the fit is exact.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size or x.size < 2:
        raise ValueError("need at least two points to fit a line")
    w = np.ones_like(x) if w is None else np.asarray(w, dtype=np.float64)
    if np.any(w < 0) or w.sum() == 0:
        raise ValueError("weights must be nonnegative with positive total")
    w = w / w.sum()
    xm = np.sum(w * x)
    ym = np.sum(w * y)
    sxx = np.sum(w * (x - xm) ** 2)
    if sxx == 0:
        raise ValueError("cannot fit a line through a single abscissa")
    slope = float(np.sum(w * (x - xm) * (y - ym)) / sxx)
    intercept = float(ym - slope * xm)
    resid = y - (intercept + slope * x)
    ss_res = float(np.sum(w * resid**2))
    ss_tot = float(np.sum(w * (y - ym) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return LinearFit(slope=slope, intercept=intercept, r_squared=float(r2))


@dataclass(frozen=True)
class BootstrapSummary:
    mean: float
    std_error: float
    lo95: float
    hi95: float
    replicates: np.ndarray


def bootstrap_weighted_mean(
    values, weights, n_replicas: int = 200, seed: int = 0
) -> BootstrapSummary:
    """Resampling distribution of a self-normalised weighted mean.

    Replicate r draws n indices uniformly with replacement from the support
    (substream (seed', r), deterministic under any scheduling) and recomputes
    the weighted mean over the drawn indices.
    """
    values = np.asarray(values, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    n = values.size
    if weights.shape != (n,) or n == 0:
        raise ValueError("values and weights must be matching nonempty arrays")
    base = derive_seed(seed, 0xB007)
    reps = np.empty(n_replicas)
    for r, gen in enumerate(substreams(base, range(n_replicas))):
        idx = gen.integers(0, n, size=n)
        w = weights[idx]
        total = w.sum()
        reps[r] = np.sum(w * values[idx]) / total if total > 0 else math.nan
    reps = reps[np.isfinite(reps)]
    if reps.size < 2:
        raise ValueError("bootstrap degenerated; too few valid replicates")
    lo, hi = np.percentile(reps, [2.5, 97.5])
    return BootstrapSummary(
        mean=float(np.sum(weights * values) / weights.sum()),
        std_error=float(reps.std(ddof=1)),
        lo95=float(lo),
        hi95=float(hi),
        replicates=reps,
    )
