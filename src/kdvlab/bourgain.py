"""Discrete Bourgain-type space-time norms and inequality probes.

Fields live on an N_x by N_t grid over torus x time-window [-pi, pi); their
space-time spectrum F_hat(k, tau) is weighted by powers of the distance
<tau - k^3> = 1 + |tau - k^3| to the cubic dispersion surface.  The window
is fixed: with half-width pi the time axis is itself a torus and every
integer frequency, in particular every k^3, sits exactly on a DFT bin.
Free evolution sheets are built from the flow's exact linear group and the
spectral grid evaluation.

Continuous tau-integrals are replaced by sums over the window's DFT
frequencies with uniform trapezoid weight; constants are normalised so the
unweighted norm reproduces the discrete space-time L2 norm exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .flow import linear_flow_many
from .kdve_io import write_rows
from .rng import derive_seed, substream
from .spectral import TorusField, evaluate_many


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class SpaceTimeField:
    """Real samples u(x_i, t_j), x equispaced on [0, 2pi) and t on [-pi, pi)."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2:
            raise ValueError("expected a (n_x, n_t) sample grid")
        n_x, n_t = vals.shape
        if not (_is_pow2(n_x) and _is_pow2(n_t) and n_x >= 8 and n_t >= 8):
            raise ValueError("grid sizes must be powers of two, at least 8")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid values must be finite")
        col_means = vals.mean(axis=0)
        if np.max(np.abs(col_means)) > 1e-10 * max(1.0, np.max(np.abs(vals))):
            raise ValueError("spatial mean must vanish at every time slice")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n_x(self) -> int:
        return self.values.shape[0]

    @property
    def n_t(self) -> int:
        return self.values.shape[1]

    @property
    def t(self) -> np.ndarray:
        return -math.pi + 2.0 * math.pi * np.arange(self.n_t) / self.n_t

    @property
    def k(self) -> np.ndarray:
        return np.fft.fftfreq(self.n_x, d=1.0 / self.n_x)

    @property
    def tau(self) -> np.ndarray:
        dt = 2.0 * math.pi / self.n_t
        return 2.0 * np.pi * np.fft.fftfreq(self.n_t, d=dt)

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Coefficients G with u = sum G[k,m] e^{i k x} e^{i tau_m (t+pi)}."""
        return np.fft.fft2(self.values) / (self.n_x * self.n_t)

    def l2_norm(self) -> float:
        dx = 2.0 * np.pi / self.n_x
        dt = 2.0 * math.pi / self.n_t
        return float(np.sqrt(np.sum(self.values**2) * dx * dt))

    def l4_norm(self) -> float:
        dx = 2.0 * np.pi / self.n_x
        dt = 2.0 * math.pi / self.n_t
        return float(np.sum(self.values**4) * dx * dt) ** 0.25


def _dispersion_weight(field: SpaceTimeField) -> np.ndarray:
    k = field.k[:, None]
    tau = field.tau[None, :]
    return 1.0 + np.abs(tau - k**3)


def _spatial_weight(field: SpaceTimeField, s: float) -> np.ndarray:
    k = np.abs(field.k)
    w = np.zeros_like(k)
    nz = k > 0
    w[nz] = k[nz] ** (2 * s)
    return w[:, None]


def xsb_norm(field: SpaceTimeField, s: float, b: float) -> float:
    """Dispersion-weighted l2_k L2_tau norm; (s, b) = (0, 0) is plain space-time L2."""
    g2 = np.abs(field.spectrum) ** 2
    w = _spatial_weight(field, s) * _dispersion_weight(field) ** (2 * b)
    total = np.sum(w * g2)
    return float(np.sqrt(2.0 * np.pi * (2.0 * math.pi) * total))


def _l1_tau_term(field: SpaceTimeField, s: float, damped: bool) -> float:
    g = np.abs(field.spectrum)
    if damped:
        g = g / _dispersion_weight(field)
    inner = g.sum(axis=1) ** 2
    w = _spatial_weight(field, s)[:, 0]
    return float(2.0 * np.pi * np.sqrt(np.sum(w * inner)))


def ys_norm(field: SpaceTimeField, s: float) -> float:
    """X^{s,1/2} plus the l2_k L1_tau term."""
    return xsb_norm(field, s, 0.5) + _l1_tau_term(field, s, damped=False)


def zs_norm(field: SpaceTimeField, s: float) -> float:
    """X^{s,-1/2} plus the dispersion-damped l2_k L1_tau term."""
    return xsb_norm(field, s, -0.5) + _l1_tau_term(field, s, damped=True)


# --- field constructors -----------------------------------------------------


def traveling_wave(u0: TorusField, n_x: int, n_t: int) -> SpaceTimeField:
    """The free evolution sheet (S(t) u0)(x): spectrum sits on tau = k^3."""
    t = -math.pi + 2.0 * math.pi * np.arange(n_t) / n_t
    return SpaceTimeField(evaluate_many(linear_flow_many(u0.modes, t[:, None]), n_x).T)


def random_band_field(
    seed: int,
    trial: int,
    k_band: int,
    tau_band: int,
    n_x: int,
    n_t: int,
) -> SpaceTimeField:
    """Real random field with spectrum supported on 1 <= |k| <= k_band, |tau| <= tau_band.

    The coefficient draw depends only on (seed, trial) and the band, never on
    the grid size, so the same field can be re-evaluated at finer resolutions.
    """
    if 2 * k_band + 1 > n_x or 2 * tau_band + 1 > n_t:
        raise ValueError("band does not fit the requested grid")
    rng = substream(derive_seed(seed, 0xBA2D), trial)
    z = rng.standard_normal((k_band, 2 * tau_band + 1, 2)).view(np.complex128)[..., 0]
    k = np.arange(1, k_band + 1)
    m = np.arange(-tau_band, tau_band + 1)  # negative indices wrap
    full = np.zeros((n_x, n_t), dtype=np.complex128)
    full[np.ix_(k, m)] = z
    full[np.ix_(-k, -m)] = np.conj(z)  # rows k and -k are disjoint, as 2 k_band < n_x
    vals = np.fft.ifft2(full) * (n_x * n_t)
    return SpaceTimeField(np.real(vals))


def smooth_bump(x) -> np.ndarray:
    """C-infinity cutoff: 1 on [-1, 1], 0 outside (-2, 2)."""
    x = np.abs(np.asarray(x, dtype=np.float64))
    out = np.zeros_like(x)
    out[x <= 1.0] = 1.0
    mid = (x > 1.0) & (x < 2.0)
    a = x[mid] - 1.0  # in (0, 1)
    ha = np.exp(-1.0 / a)
    hb = np.exp(-1.0 / (1.0 - a))
    out[mid] = hb / (ha + hb)
    return out


# --- probes -----------------------------------------------------------------


@dataclass(frozen=True)
class L4ProbeResult:
    """Ratios of L4 norms to dispersion-weighted spectral sums."""

    resolution: tuple[int, int]
    lhs: np.ndarray
    rhs: np.ndarray

    @property
    def ratios(self) -> np.ndarray:
        return self.lhs / self.rhs

    @property
    def max_ratio(self) -> float:
        return float(np.max(self.ratios))

    def quantiles(self) -> list[float]:
        return [float(v) for v in np.quantile(self.ratios, (0.5, 0.9, 1.0))]

    def write_csv(self, path) -> None:
        res = f"{self.resolution[0]}x{self.resolution[1]}"
        rows = [(i, res, lo, hi, lo / hi) for i, (lo, hi) in enumerate(zip(self.lhs, self.rhs))]
        write_rows(path, ["trial", "resolution", "lhs", "rhs", "ratio"], rows)


def l4_inequality_probe(
    trials: int,
    resolution: tuple[int, int] = (64, 64),
    seed: int = 0,
) -> L4ProbeResult:
    """Sample |F|_{L4} / (sum <tau-k^3>^{2/3} |F_hat|^2)^{1/2} on the band |k| <= 4, |tau| <= 10.

    Both sides are degree-one homogeneous, so the ratio measures only the
    shape of the spectrum.  Draws are keyed by (seed, trial); rerunning at a
    doubled resolution reuses identical spectra, isolating quadrature error.
    """
    if trials < 100:
        raise ValueError("the ratio statistics need at least 100 trials")
    n_x, n_t = resolution
    lhs = np.empty(trials)
    rhs = np.empty(trials)
    for i in range(trials):
        fld = random_band_field(seed, i, 4, 10, n_x, n_t)
        lhs[i] = fld.l4_norm()
        g2 = np.abs(fld.spectrum) ** 2
        w = _dispersion_weight(fld) ** (2.0 / 3.0)
        rhs[i] = float(np.sqrt(np.sum(w * g2)))
    return L4ProbeResult(resolution=(n_x, n_t), lhs=lhs, rhs=rhs)


@dataclass(frozen=True)
class BilinearProbeResult:
    """T^{1/12}-normalised derivative-product ratios over a window grid."""

    s: float
    t_grid: np.ndarray
    numerators: np.ndarray
    denominators: np.ndarray

    @property
    def ratios(self) -> np.ndarray:
        # a vanishing input makes both sides zero; the ratio is zero by convention
        return np.where(self.denominators > 0, self.numerators / np.where(
            self.denominators > 0, self.denominators, 1.0), 0.0)

    @property
    def fitted_constant(self) -> float:
        return float(np.max(self.ratios))

    def write_csv(self, path) -> None:
        rows = zip(range(self.t_grid.size), self.t_grid, self.numerators, self.denominators,
                   self.ratios)
        write_rows(path, ["trial", "T", "lhs", "rhs", "ratio"], rows)


def bilinear_scaling_probe(
    u: SpaceTimeField, v: SpaceTimeField, s: float, t_grid
) -> BilinearProbeResult:
    """Ratio of |eta_T d_x(uv)|_{Z^s} to T^{1/12} (|u|_{Y^s}|v|_{Y^0} + |u|_{Y^0}|v|_{Y^s}).

    The cutoff eta_T(t) = eta(t/T) localises the product near t = 0; the probe
    checks that the normalised ratio stays bounded as the window shrinks.
    """
    if u.values.shape != v.values.shape:
        raise ValueError("probe inputs must share one grid")
    t_grid = np.asarray(list(t_grid), dtype=np.float64)
    if t_grid.size < 4 or np.any(t_grid <= 0) or np.any(t_grid > 1):
        raise ValueError("need at least four window widths inside (0, 1]")
    if 2.0 * np.max(t_grid) >= math.pi:
        raise ValueError("largest cutoff support must fit inside the window")
    y_us, y_u0 = ys_norm(u, s), ys_norm(u, 0.0)
    y_vs, y_v0 = ys_norm(v, s), ys_norm(v, 0.0)
    # spectral x-derivative of the pointwise product
    prod = u.values * v.values
    spec = np.fft.fft(prod, axis=0)
    spec *= 1j * u.k[:, None]
    spec[0, :] = 0.0
    deriv = np.real(np.fft.ifft(spec, axis=0))
    nums = np.empty(t_grid.size)
    dens = np.empty(t_grid.size)
    for i, t_val in enumerate(t_grid):
        eta = smooth_bump(u.t / t_val)
        windowed = SpaceTimeField(deriv * eta[None, :])
        nums[i] = zs_norm(windowed, s)
        dens[i] = t_val ** (1.0 / 12.0) * (y_us * y_v0 + y_u0 * y_vs)
    return BilinearProbeResult(s=s, t_grid=t_grid, numerators=nums, denominators=dens)
