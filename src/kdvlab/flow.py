"""Time evolution on the torus: exact linear group, full KdV, projected KdV.

The equation integrated is u_t + u_xxx + (u^2/2)_x = 0.  In mode space the
dispersive part is the exact phase factor exp(i k^3 t), so the stepper is an
integrating-factor Runge-Kutta scheme of order four: the linear group is
applied exactly each step and only the quadratic term is integrated
numerically, evaluated pseudospectrally on a zero-padded grid so the product
is alias-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    # padded grid >= 3M+1 makes the quadratic product alias-free in the band
    need = 3 * m + 1 if dealias else 2 * m + 2
    n = 8
    while n < need:
        n *= 2
    return n


def _make_rhs(m: int, nl_band: int, grid_n: int):
    """Quadratic term -(1/2) d_x (P u)^2 projected back onto modes <= nl_band."""
    n_bins = grid_n // 2 + 1
    ik = 1j * np.arange(m + 1, dtype=np.float64)

    def rhs(chat: np.ndarray) -> np.ndarray:
        buf = np.zeros(chat.shape[:-1] + (n_bins,), dtype=np.complex128)
        buf[..., 1 : nl_band + 1] = chat[..., 1 : nl_band + 1]
        u = np.fft.irfft(buf, grid_n, axis=-1) * grid_n
        what = np.fft.rfft(u * u, axis=-1) / grid_n
        out = -0.5 * ik * what[..., : m + 1]
        out[..., nl_band + 1 :] = 0.0
        return out

    return rhs


def _ifrk4(chat: np.ndarray, n_steps: int, h: float, m: int, rhs) -> np.ndarray:
    k = np.arange(m + 1, dtype=np.float64)
    phase = 1j * k**3
    e_full = np.exp(h * phase)
    e_half = np.exp(0.5 * h * phase)
    # overflow of an unstable step is caught by the finite check below
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(n_steps):
            n1 = rhs(chat)
            n2 = rhs(e_half * (chat + (0.5 * h) * n1))
            n3 = rhs(e_half * chat + (0.5 * h) * n2)
            n4 = rhs(e_full * chat + h * (e_half * n3))
            chat = e_full * chat + (h / 6.0) * (e_full * n1 + 2.0 * e_half * (n2 + n3) + n4)
            if not np.all(np.isfinite(chat.view(np.float64))):
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


_BLOCK_BYTES = 120 * 1024  # largest RHS temporary of one row block


def _evolve_state(
    coeffs: np.ndarray, t: float, cfg: SolverConfig, nl_band: int | None = None
) -> np.ndarray:
    """Shared batched stepper; coeffs are mode amplitudes (batch, M)."""
    m = cfg.n_modes
    band = m if nl_band is None else nl_band
    if t == 0.0:
        return _to_state(coeffs, m)[..., 1:] / MODE_TO_EXP
    amplitude = float(np.max(linf_norms_many(np.atleast_2d(coeffs))))
    dt = cfg.step_size(amplitude)
    cfg.check_step(dt, amplitude)
    n_steps = max(1, math.ceil(abs(t) / dt))
    h = t / n_steps
    chat = _to_state(coeffs, m)
    grid_n = _grid_size(m, cfg.dealias)
    rhs = _make_rhs(m, band, grid_n)
    # Once h is fixed the rows evolve independently, so they are stepped in
    # row blocks whose largest RHS temporary (one complex spectrum per row)
    # stays below glibc's default 128 KiB mmap threshold: a whole large batch
    # would map, fault in and unmap fresh pages on every call.  Results do
    # not depend on the blocking.
    block = max(1, _BLOCK_BYTES // (16 * (grid_n // 2 + 1)))
    diverged = []
    for start in range(0, chat.shape[0], block):
        try:
            chat[start : start + block] = _ifrk4(chat[start : start + block], n_steps, h, m, rhs)
        except FlowDivergenceError as exc:
            diverged.append(exc.step)
    if diverged:
        raise FlowDivergenceError(min(diverged))
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

    All rows share one step size (set by the largest amplitude in the batch),
    so results do not depend on how the batch is split.
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
