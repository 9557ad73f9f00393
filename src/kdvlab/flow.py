"""Time evolution on the torus: exact linear group, full KdV, projected KdV.

The equation integrated is u_t + u_xxx + (u^2/2)_x = 0.  In mode space the
dispersive part is the exact phase factor exp(i k^3 t), so the stepper is an
integrating-factor Runge-Kutta scheme of order four: the linear group is
applied exactly each step and only the quadratic term is integrated
numerically, evaluated pseudospectrally on a zero-padded grid of at least
3M+1 points (the least 2^a, 3 * 2^a or 5 * 2^a, see ``_grid_size``) so the
product is alias-free.  Every evolution (single field, projected, batch)
goes through one stepper that steps the whole batch in buffers allocated
once per call.  Its transforms call numpy's pocketfft gufuncs directly, as
``np.fft.irfft`` and ``np.fft.rfft`` call them, so a step pays no wrapper
checks; the results are the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.fft._pocketfft_umath import irfft as _irfft  # private gufuncs, see _ifrk4
from numpy.fft._pocketfft_umath import rfft_n_even as _rfft_n_even
from numpy.fft._pocketfft_umath import rfft_n_odd as _rfft_n_odd

from .spectral import (
    MODE_TO_EXP,
    TorusField,
    hamiltonian,
    linf_norms_many,
    sobolev_norm,
)


class FlowDivergenceError(RuntimeError):
    """Raised when the state stops being finite during time stepping."""

    def __init__(self, step: int):
        super().__init__(f"solution became non-finite at step {step}")
        self.step = step


@dataclass(frozen=True)
class SolverConfig:
    """Discretisation parameters for the nonlinear integrator.

    ``dt=None`` selects the amplitude-aware default
    min(1e-3, 0.5 / (n_modes * (1 + |u0|_inf))); an explicit dt is accepted
    as long as it stays below cfl_constant / (n_modes * (1 + |u0|_inf)).
    """

    n_modes: int = 64
    dt: float | None = None
    dealias: bool = True
    cfl_constant: float = 2.0

    def __post_init__(self):
        if self.n_modes < 4:
            raise ValueError("solver needs at least 4 modes")
        if self.dt is not None and not self.dt > 0:
            raise ValueError("time step must be positive")
        if not self.cfl_constant > 0:
            raise ValueError("cfl_constant must be positive")

    def step_size(self, amplitude: float) -> float:
        """Target step for a state of the given sup-norm amplitude."""
        if self.dt is not None:
            return self.dt
        return min(1e-3, 0.5 / (self.n_modes * (1.0 + amplitude)))

    def check_step(self, dt: float, amplitude: float) -> None:
        limit = self.cfl_constant / (self.n_modes * (1.0 + amplitude))
        if dt > limit:
            raise ValueError(
                f"dt={dt:g} exceeds stability limit {limit:g} "
                f"(n_modes={self.n_modes}, amplitude={amplitude:g})"
            )


def linear_flow(u: TorusField, t: float) -> TorusField:
    """Exact Airy group: mode k picks up the phase exp(i k^3 t)."""
    k = np.arange(1, u.n_modes + 1, dtype=np.float64)
    return TorusField(u.modes * np.exp(1j * k**3 * t))


def linear_flow_many(coeffs: np.ndarray, t: float) -> np.ndarray:
    k = np.arange(1, coeffs.shape[-1] + 1, dtype=np.float64)
    return coeffs * np.exp(1j * k**3 * t)


def _grid_size(m: int, dealias: bool) -> int:
    """Points of the padded grid on which the stepper squares the field.

    Dealiased, it is the least 2^a, 3 * 2^a or 5 * 2^a of at least 3m+1: a
    product of two modes of size <= m has modes q with |q| <= 2m, whose
    aliases q -/+ N lie at least N - 2m >= m + 1 away, outside the band.
    Those lengths are fast for the FFT, and the rule never returns more
    than the power of two.  Without dealiasing the grid stays the least
    power of two of at least 2m+2, because the modes an aliased product
    folds back depend on the grid.
    """
    need, bases = (3 * m + 1, (1, 3, 5)) if dealias else (2 * m + 2, (1,))
    sizes = []
    for n in bases:
        while n < need:
            n *= 2
        sizes.append(n)
    return min(sizes)


def _ifrk4(chat: np.ndarray, n_steps: int, h: float, m: int, band: int, grid_n: int) -> np.ndarray:
    """Step the (batch, m+1) state n_steps times in place and return it.

    The quadratic term -(1/2) d_x (P u)^2 is projected back onto modes
    <= band.  Every buffer is allocated once per call and every stage is
    written into one of them, so a step allocates nothing batch-sized.  Each
    stage evaluates the formula in its comment in that expression order,
    which fixes its result bit for bit; a stage input is read only on modes
    1..band, so its last expression is written there straight into the
    padded spectrum.  The transforms are pocketfft's gufuncs, called as
    ``np.fft.irfft`` / ``np.fft.rfft`` call them for ``norm="forward"``
    (factors 1 and 1/grid_n), without the wrapper's per-call checks.
    """
    rows = chat.shape[0]
    k = np.arange(m + 1, dtype=np.float64)
    phase = 1j * k**3
    e_full = np.exp(h * phase)
    e_half = np.exp(0.5 * h * phase)
    two_e_half = 2.0 * e_half
    neg_half_ik = -0.5 * (1j * k)
    half_h, sixth_h = 0.5 * h, h / 6.0
    rfft = _rfft_n_even if grid_n % 2 == 0 else _rfft_n_odd
    inv_n = 1 / grid_n
    spectrum = np.zeros((rows, grid_n // 2 + 1), dtype=np.complex128)
    grid = np.empty((rows, grid_n), dtype=np.float64)
    product = np.empty_like(spectrum)
    # the rhs writes modes 0..band only; modes above the band stay zero
    n1, n2, n3, n4 = (np.zeros_like(chat) for _ in range(4))
    a = np.empty((rows, band), dtype=np.complex128)  # stage scratch on modes 1..band
    b = np.empty_like(chat)
    lo, top = slice(1, band + 1), slice(0, band + 1)
    spec_lo, chat_lo, b_lo = spectrum[:, lo], chat[:, lo], b[:, lo]
    n1_lo, n2_lo, n3_lo, e_half_lo = n1[:, lo], n2[:, lo], n3[:, lo], e_half[lo]
    ik_top, product_top = neg_half_ik[top], product[:, top]
    state = chat.view(np.float64)

    def rhs(out: np.ndarray) -> None:
        """out[:, :band+1] = -(1/2) i k FFT((IFFT spectrum)^2), the rhs of the stage in ``spectrum``."""
        _irfft(spectrum, 1.0, out=grid)
        np.multiply(grid, grid, out=grid)
        rfft(grid, inv_n, out=product)
        np.multiply(ik_top, product_top, out=out[:, top])

    # overflow of an unstable step is caught by the finite check below
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(n_steps):
            spec_lo[...] = chat_lo
            rhs(n1)
            # n2 = rhs(e_half * (chat + (h/2) n1))
            np.multiply(half_h, n1_lo, out=a)
            np.add(chat_lo, a, out=a)
            np.multiply(e_half_lo, a, out=spec_lo)
            rhs(n2)
            # n3 = rhs(e_half * chat + (h/2) n2)
            np.multiply(e_half_lo, chat_lo, out=a)
            np.multiply(half_h, n2_lo, out=b_lo)
            np.add(a, b_lo, out=spec_lo)
            rhs(n3)
            # n4 = rhs(e_full * chat + h (e_half n3)); b keeps e_full * chat
            np.multiply(e_full, chat, out=b)
            np.multiply(e_half_lo, n3_lo, out=a)
            np.multiply(h, a, out=a)
            np.add(b_lo, a, out=spec_lo)
            rhs(n4)
            # chat = e_full * chat + (h/6) (e_full n1 + 2 e_half (n2 + n3) + n4)
            np.add(n2, n3, out=n2)
            np.multiply(two_e_half, n2, out=n2)
            np.multiply(e_full, n1, out=n1)
            np.add(n1, n2, out=n1)
            np.add(n1, n4, out=n1)
            np.multiply(sixth_h, n1, out=n1)
            np.add(b, n1, out=chat)
            # any non-finite entry makes the sum non-finite; finite entries can overflow it too
            if not math.isfinite(np.add.reduce(state, axis=None)) and not np.all(np.isfinite(state)):
                raise FlowDivergenceError(step)
    return chat


def _to_state(coeffs: np.ndarray, m: int) -> np.ndarray:
    """Mode amplitudes (batch, M) -> solver state (batch, m+1) of e^{ikx} coefficients."""
    src = np.atleast_2d(coeffs)
    if src.shape[-1] > m and np.any(src[..., m:] != 0):
        raise ValueError(
            f"initial data carries modes above the solver truncation {m}"
        )
    chat = np.zeros(src.shape[:-1] + (m + 1,), dtype=np.complex128)
    keep = min(src.shape[-1], m)
    chat[..., 1 : keep + 1] = src[..., :keep] * MODE_TO_EXP
    return chat


def _evolve_state(
    coeffs: np.ndarray, t: float, cfg: SolverConfig, nl_band: int | None = None
) -> np.ndarray:
    """The one evolution path; coeffs are mode amplitudes (batch, M).

    The whole batch is stepped at once with the step size its largest
    amplitude sets; a divergence reports the earliest step at which any row
    stops being finite.
    """
    m = cfg.n_modes
    band = m if nl_band is None else nl_band
    if t == 0.0:
        return _to_state(coeffs, m)[..., 1:] / MODE_TO_EXP
    amplitude = float(np.max(linf_norms_many(np.atleast_2d(coeffs))))
    dt = cfg.step_size(amplitude)
    cfg.check_step(dt, amplitude)
    n_steps = max(1, math.ceil(abs(t) / dt))
    chat = _ifrk4(_to_state(coeffs, m), n_steps, t / n_steps, m, band, _grid_size(m, cfg.dealias))
    return chat[..., 1:] / MODE_TO_EXP


def evolve(u0: TorusField, t: float, cfg: SolverConfig) -> TorusField:
    """Approximate the nonlinear flow at time t (negative t runs backwards)."""
    if t == 0.0:
        return u0
    out = _evolve_state(u0.modes[None, :], t, cfg)
    return TorusField(out[0])


def evolve_projected(u0: TorusField, t: float, n_band: int, cfg: SolverConfig) -> TorusField:
    """Flow with the quadratic term restricted to modes <= n_band.

    Modes above the band see only the exact linear group, so the splitting
    between the low-mode ODE and the free high-mode evolution is respected
    at every step.
    """
    if n_band > cfg.n_modes:
        raise ValueError("projection band exceeds the solver truncation")
    if n_band < 0:
        raise ValueError("projection band must be >= 0")
    if t == 0.0:
        return u0
    out = _evolve_state(u0.modes[None, :], t, cfg, nl_band=n_band)
    return TorusField(out[0])


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
    """Sampled flow history with the conserved-quantity log."""

    times: np.ndarray
    states: list[TorusField]
    means: np.ndarray
    l2_norms: np.ndarray
    hamiltonians: np.ndarray

    def __post_init__(self):
        if len(self.states) != self.times.size or self.times.size == 0:
            raise ValueError("trajectory needs one state per sample time")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("sample times must be strictly increasing")


def trajectory(u0: TorusField, times, cfg: SolverConfig) -> Trajectory:
    """Integrate u0 through the given strictly increasing sample times."""
    times = np.asarray(list(times), dtype=np.float64)
    states: list[TorusField] = []
    state = u0
    t_prev = 0.0
    for t in times:
        state = evolve(state, float(t) - t_prev, cfg)
        t_prev = float(t)
        states.append(state)
    l2 = np.array([sobolev_norm(s, 0.0) for s in states])
    ham = np.array([hamiltonian(s) for s in states])
    means = np.zeros_like(l2)  # the zero mode is structurally absent
    return Trajectory(times=times, states=states, means=means, l2_norms=l2, hamiltonians=ham)


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


@dataclass(frozen=True)
class LipschitzProbe:
    """Distances between two evolved states plus the bound ingredients."""

    hs_distance: float
    l2_distance: float
    initial_hs_distance: float
    initial_l2_distance: float
    hs_norm_sum: float
    l2_norm_sum_pow12: float
    s: float
    t: float


def lipschitz_probe(
    u0: TorusField, v0: TorusField, t: float, s: float, cfg: SolverConfig
) -> LipschitzProbe:
    """Evolve both states and report the separation data used for envelope fits."""
    ut = evolve(u0, t, cfg)
    vt = evolve(v0, t, cfg)
    return LipschitzProbe(
        hs_distance=sobolev_norm(ut - vt, s),
        l2_distance=sobolev_norm(ut - vt, 0.0),
        initial_hs_distance=sobolev_norm(u0 - v0, s),
        initial_l2_distance=sobolev_norm(u0 - v0, 0.0),
        hs_norm_sum=sobolev_norm(u0, s) + sobolev_norm(v0, s),
        l2_norm_sum_pow12=(sobolev_norm(u0, 0.0) + sobolev_norm(v0, 0.0)) ** 12,
        s=s,
        t=t,
    )
