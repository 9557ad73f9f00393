"""Time evolution on the torus: exact linear group, full KdV, projected KdV.

The equation integrated is u_t + u_xxx + (u^2/2)_x = 0.  In mode space the
dispersive part is the exact phase factor exp(i k^3 t), so the stepper is an
integrating-factor Runge-Kutta scheme of order four: the linear group is
applied exactly each step and only the quadratic term is integrated
numerically, evaluated pseudospectrally on the zero-padded grid of
``spectral.alias_free_points`` (the least 2^a, 3 * 2^a or 5 * 2^a of at
least 3M+1 points), on which the product is alias-free.  The solver has no
other grid and no setting besides its modes and its step.  Every evolution
(single field, projected, batch) fits its input to the solver's modes once
(``spectral.fit_modes``), so zero padding never changes its step, and goes
through one stepper, which steps the whole batch as one mode-major state in
buffers allocated once per call.  Its transforms call numpy's pocketfft
gufuncs directly, as ``np.fft.irfft`` and ``np.fft.rfft`` call them, so a
step pays no wrapper checks; the results are the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.fft._pocketfft_umath import irfft as _irfft  # private gufuncs, see _ifrk4
from numpy.fft._pocketfft_umath import rfft_n_even as _rfft  # grid_n is always even

from .spectral import (
    MODE_TO_EXP,
    TorusField,
    alias_free_points,
    fit_modes,
    hamiltonian_many,
    linf_norms_many,
    projection_cutoff,
    sobolev_norms_many,
)


MAX_STEPS = 10**7  # ~3000x the most steps any test, demo or bench call takes (3,200)


class FlowDivergenceError(RuntimeError):
    """Raised when the state stops being finite during time stepping."""

    def __init__(self, step: int):
        super().__init__(f"solution became non-finite at step {step}")
        self.step = step


@dataclass(frozen=True)
class SolverConfig:
    """The integrator's two settings: its truncation and its time step.

    ``dt=None`` selects the amplitude-aware default
    min(1e-3, 0.5 / (n_modes * (1 + |u0|_inf))); any step is accepted as
    long as it stays below the stability limit 2 / (n_modes * (1 + |u0|_inf)).
    ``ExperimentConfig.solver()`` builds an experiment's from its ``dt`` and
    its ``solver_modes`` (``invariance_nonlinear`` reads ``modes``), and a
    ``ValueError`` from the constructor's checks is a config error.
    """

    n_modes: int = 64
    dt: float | None = None

    def __post_init__(self):
        if self.n_modes < 4:
            raise ValueError("solver needs at least 4 modes")
        if self.dt is not None and not 0 < self.dt < math.inf:
            raise ValueError("dt must be finite and positive")

    def step_size(self, amplitude: float) -> float:
        """Step for a state of the given sup-norm amplitude; past the stability limit it raises."""
        dt = min(1e-3, 0.5 / (self.n_modes * (1.0 + amplitude))) if self.dt is None else self.dt
        limit = 2.0 / (self.n_modes * (1.0 + amplitude))
        if dt > limit:
            raise ValueError(
                f"dt={dt:g} exceeds stability limit {limit:g} "
                f"(n_modes={self.n_modes}, amplitude={amplitude:g})"
            )
        return dt


def linear_flow(u: TorusField, t: float) -> TorusField:
    """Exact Airy group on one field (see :func:`linear_flow_many`)."""
    return TorusField(linear_flow_many(u.modes, t))


def linear_flow_many(coeffs: np.ndarray, t: float) -> np.ndarray:
    """Exact Airy group on a (batch, M) amplitude array: mode k picks up exp(i k^3 t)."""
    k = np.arange(1, coeffs.shape[-1] + 1, dtype=np.float64)
    return coeffs * np.exp(1j * k**3 * t)


def _ifrk4(u: np.ndarray, n_steps: int, h: float, band: int, grid_n: int) -> np.ndarray:
    """Step the mode-major state u, row k holding the e^{ikx} coefficients, in place.

    The quadratic term -(1/2) d_x (P u)^2 is projected onto modes <= band;
    only the rhs reads the band.  The factors are broadcast to u's shape
    once, so every stage runs over whole arrays allocated once per call, in
    the expression order of its comment, which fixes its bits.  The
    transforms are pocketfft's gufuncs, called as ``np.fft.irfft`` /
    ``np.fft.rfft`` call them for ``norm="forward"`` (factors 1 and 1/grid_n;
    grid_n is even), without the wrapper's checks; the inverse zero-pads
    above the band itself.
    """
    rows = u.shape[1]
    k = np.arange(u.shape[0], dtype=np.float64)[:, None]
    phase = 1j * k**3
    e_full, e_half = (np.repeat(np.exp(c * phase), rows, axis=1) for c in (h, 0.5 * h))
    two_e_half = 2.0 * e_half
    neg_half_ik = np.repeat(-0.5 * (1j * k[: band + 1]), rows, axis=1)
    half_h, sixth_h = 0.5 * h, h / 6.0
    inv_n = 1 / grid_n
    grid = np.empty((rows, grid_n), dtype=np.float64)
    product = np.empty((grid_n // 2 + 1, rows), dtype=np.complex128)
    # the rhs writes modes 0..band only; modes above the band stay zero
    n1, n2, n3, n4 = (np.zeros_like(u) for _ in range(4))
    a, b = np.empty_like(u), np.empty_like(u)
    state = u.view(np.float64)

    def rhs(src: np.ndarray, out: np.ndarray) -> None:
        """out[:band+1] = -(1/2) i k FFT((IFFT src[:band+1])^2)."""
        _irfft(src[: band + 1].T, 1.0, out=grid)
        np.multiply(grid, grid, out=grid)
        _rfft(grid, inv_n, out=product.T)
        np.multiply(neg_half_ik, product[: band + 1], out=out[: band + 1])

    # overflow of an unstable step is caught by the finite check below
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(n_steps):
            rhs(u, n1)
            # n2 = rhs(e_half * (u + (h/2) n1))
            np.multiply(half_h, n1, out=a)
            np.add(u, a, out=a)
            np.multiply(e_half, a, out=a)
            rhs(a, n2)
            # n3 = rhs(e_half * u + (h/2) n2)
            np.multiply(e_half, u, out=a)
            np.multiply(half_h, n2, out=b)
            np.add(a, b, out=a)
            rhs(a, n3)
            # n4 = rhs(e_full * u + h (e_half n3)); b keeps e_full * u
            np.multiply(e_full, u, out=b)
            np.multiply(e_half, n3, out=a)
            np.multiply(h, a, out=a)
            np.add(b, a, out=a)
            rhs(a, n4)
            # u = e_full * u + (h/6) (e_full n1 + 2 e_half (n2 + n3) + n4)
            np.add(n2, n3, out=n2)
            np.multiply(two_e_half, n2, out=n2)
            np.multiply(e_full, n1, out=n1)
            np.add(n1, n2, out=n1)
            np.add(n1, n4, out=n1)
            np.multiply(sixth_h, n1, out=n1)
            np.add(b, n1, out=u)
            # any non-finite entry makes the sum non-finite; finite entries can overflow it too
            if not math.isfinite(np.add.reduce(state, axis=None)) and not np.all(np.isfinite(state)):
                raise FlowDivergenceError(step)
    return u


def _evolve_state(
    coeffs: np.ndarray, t: float, cfg: SolverConfig, nl_band: int | None = None
) -> np.ndarray:
    """The one evolution path; coeffs are mode amplitudes (batch, M).

    The rows are fitted to the solver's m modes once, and are the result at
    t = 0.  The whole batch is stepped at once with the step size the largest
    fitted amplitude sets; more than ``MAX_STEPS`` steps raise ``ValueError``
    before the first.  A divergence reports the earliest step at which any
    row stops being finite.
    """
    m = cfg.n_modes
    band = m if nl_band is None else nl_band
    fitted = fit_modes(coeffs, m)
    if t == 0.0:
        return fitted
    dt = cfg.step_size(float(np.max(linf_norms_many(fitted))))
    if not abs(t) <= MAX_STEPS * dt:
        raise ValueError(f"t={t:g} needs more than {MAX_STEPS} steps of dt={dt:g}")
    n_steps = max(1, math.ceil(abs(t) / dt))
    u = np.zeros((m + 1, fitted.shape[0]), dtype=np.complex128)
    u[1:] = fitted.T * MODE_TO_EXP
    _ifrk4(u, n_steps, t / n_steps, band, alias_free_points(m))
    return np.ascontiguousarray(u[1:].T) / MODE_TO_EXP


def evolve(u0: TorusField, t: float, cfg: SolverConfig) -> TorusField:
    """Approximate the nonlinear flow at time t (negative t runs backwards); u0 itself at t = 0."""
    out = _evolve_state(u0.modes, t, cfg)
    return u0 if t == 0.0 else TorusField(out[0])


def evolve_projected(u0: TorusField, t: float, n_band: int, cfg: SolverConfig) -> TorusField:
    """Flow with the quadratic term restricted to modes <= n_band.

    Modes above the band see only the exact linear group, so the splitting
    between the low-mode ODE and the free high-mode evolution is respected
    at every step.
    """
    if projection_cutoff(n_band) > cfg.n_modes:
        raise ValueError("projection band exceeds the solver truncation")
    out = _evolve_state(u0.modes, t, cfg, nl_band=n_band)
    return u0 if t == 0.0 else TorusField(out[0])


def evolve_many(coeffs: np.ndarray, t: float, cfg: SolverConfig) -> np.ndarray:
    """Batched :func:`evolve` on a (batch, M) amplitude array.

    All rows share one step size, set by the largest amplitude in the batch,
    so a row's result can depend on its batch where the amplitudes straddle
    the 1e-3 step cap.  What holds is that rows evolved with the same step
    are independent of their batch: each one's result is bit for bit that of
    the row evolved alone at that step.
    """
    return _evolve_state(coeffs, t, cfg)


@dataclass(frozen=True)
class Trajectory:
    """Sampled flow history with the conserved-quantity log; row i of ``coeffs`` is at times[i]."""

    times: np.ndarray
    coeffs: np.ndarray  # (samples, n_modes) amplitudes on the solver's modes
    means: np.ndarray  # zeros: the zero mode is structurally absent
    l2_norms: np.ndarray
    hamiltonians: np.ndarray


def sample_times(times) -> np.ndarray:
    """Times as a float array, refused unless nonempty and strictly increasing."""
    times = np.fromiter(times, dtype=np.float64)
    if times.size == 0 or not np.all(np.diff(times) > 0):
        raise ValueError("sample times must be nonempty and strictly increasing")
    return times


def trajectory(u0: TorusField, times, cfg: SolverConfig) -> Trajectory:
    """Step one array state by :func:`evolve_many` through :func:`sample_times`, checked first."""
    times = sample_times(times)
    coeffs = np.empty((times.size, cfg.n_modes), dtype=np.complex128)
    state = u0.modes
    for i, span in enumerate(np.diff(times, prepend=0.0)):
        state = coeffs[i] = evolve_many(state, float(span), cfg)[0]
    l2 = sobolev_norms_many(coeffs, 0.0)
    return Trajectory(times, coeffs, np.zeros_like(l2), l2, hamiltonian_many(coeffs))


@dataclass(frozen=True)
class DriftSummary:
    """Worst-case drifts of the conserved quantities along a trajectory."""

    l2_rel_drift: float
    hamiltonian_rel_drift: float
    mean_abs_drift: float


def _rel_drift(values: np.ndarray) -> float:
    ref = values[0]
    scale = abs(ref) if abs(ref) > 1e-300 else 1.0
    return float(np.max(np.abs(values - ref)) / scale)


def conserved_report(traj: Trajectory) -> DriftSummary:
    return DriftSummary(
        l2_rel_drift=_rel_drift(traj.l2_norms),
        hamiltonian_rel_drift=_rel_drift(traj.hamiltonians),
        mean_abs_drift=float(np.max(np.abs(traj.means - traj.means[0]))),
    )
