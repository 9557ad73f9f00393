"""Mean-zero real fields on the 1-D torus, stored as positive-frequency Fourier modes.

A field is represented by complex amplitudes ``u_hat(k)`` for k = 1..M only;
negative frequencies are implied by conjugacy and the zero mode is
structurally absent, so every representable function is real with zero
spatial mean.  Amplitudes are normalised against the orthonormal L2 basis
``c_n(x) = cos(nx)/sqrt(pi)``, ``s_n(x) = sin(nx)/sqrt(pi)``:

    u = sum_n a_n c_n + b_n s_n   <->   u_hat(n) = (a_n - i b_n) * sqrt(pi)/2

which makes ``sobolev_norm(c_1, s=0) == 1``.  A Sobolev norm sums squared
amplitudes weighted by :func:`hs_weights` in the order of transport's
distance kernel, so it is the distance to 0, bit for bit.  A field is built
from its amplitudes with ``TorusField`` itself, or from basis modes with
``cosine_mode`` and ``sine_mode``; ``fit_modes`` is the one rule that brings
amplitudes to m modes, for fields, the flow, ensembles and transport alike.
The norms, their squares, the cubic integral, the energy and the grid evaluation
are batched over a (batch, M) amplitude array; the one-field forms are views.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# u_hat(n) = (a_n - i b_n) * BASIS_TO_MODE for basis coefficients (a_n, b_n)
BASIS_TO_MODE = np.sqrt(np.pi) / 2.0
# |u|_{H^s}^2 = NORM_FACTOR * sum_k k^{2s} |u_hat(k)|^2
NORM_FACTOR = 4.0 / np.pi
# conventional Fourier coefficient of e^{ikx}: c_k = u_hat(k) * MODE_TO_EXP
MODE_TO_EXP = 1.0 / np.pi


@dataclass(frozen=True, eq=False)
class TorusField:
    """Immutable mean-zero real field; ``modes[k-1]`` is ``u_hat(k)``."""

    modes: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.modes, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("a field needs at least one mode")
        if not np.all(np.isfinite(arr)):
            raise ValueError("mode amplitudes must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "modes", arr)

    @property
    def n_modes(self) -> int:
        return self.modes.size

    def padded(self, m: int) -> "TorusField":
        """The field on m modes, by :func:`fit_modes`."""
        return TorusField(fit_modes(self.modes, m)[0])

    def __add__(self, other: "TorusField") -> "TorusField":
        m = max(self.n_modes, other.n_modes)
        return TorusField(self.padded(m).modes + other.padded(m).modes)

    def __sub__(self, other: "TorusField") -> "TorusField":
        m = max(self.n_modes, other.n_modes)
        return TorusField(self.padded(m).modes - other.padded(m).modes)

    def __mul__(self, scalar: float) -> "TorusField":
        return TorusField(self.modes * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "TorusField":
        return TorusField(-self.modes)


def fit_modes(coeffs: np.ndarray, m: int) -> np.ndarray:
    """Mode amplitudes (batch, M) zero-padded or cut to m modes; cutting a nonzero mode raises."""
    src = np.atleast_2d(coeffs)
    if np.any(src[..., m:] != 0):
        raise ValueError(f"amplitudes carry nonzero modes above the truncation {m}")
    out = np.zeros(src.shape[:-1] + (m,), dtype=np.complex128)
    out[..., : src.shape[-1]] = src[..., :m]
    return out


def zero_field(m: int = 1) -> TorusField:
    return TorusField(np.zeros(m, dtype=np.complex128))


def _basis_field(n: int, m: int | None, amplitude: complex) -> TorusField:
    if n < 1:
        raise ValueError("mode index must be >= 1")
    out = np.zeros(m if m is not None else n, dtype=np.complex128)
    out[n - 1] = amplitude
    return TorusField(out)


def cosine_mode(n: int, m: int | None = None) -> TorusField:
    """The basis field c_n = cos(nx)/sqrt(pi), optionally padded to m modes."""
    return _basis_field(n, m, BASIS_TO_MODE)


def sine_mode(n: int, m: int | None = None) -> TorusField:
    """The basis field s_n = sin(nx)/sqrt(pi)."""
    return _basis_field(n, m, -1j * BASIS_TO_MODE)


def evaluate(u: TorusField, n: int | None = None) -> np.ndarray:
    """Sample u on an equispaced grid of n points (default max(8M, 32), always real)."""
    return evaluate_many(u.modes, max(8 * u.n_modes, 32) if n is None else n)


def evaluate_many(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Sample each row of a (batch, M) amplitude array on an equispaced grid of n points."""
    m = coeffs.shape[-1]
    if n < 2 * m + 1:
        raise ValueError(f"grid of {n} points cannot resolve {m} modes")
    spec = np.zeros(coeffs.shape[:-1] + (n // 2 + 1,), dtype=np.complex128)
    spec[..., 1 : m + 1] = coeffs * MODE_TO_EXP
    return np.fft.irfft(spec, n, axis=-1) * n


def sobolev_norm(u: TorusField, s: float) -> float:
    """Homogeneous H^s norm; s = 0 is the L2 norm, normalised so |c_1| = 1."""
    return float(sobolev_norms_many(u.modes, s))


def hs_weights(m: int, s: float) -> np.ndarray:
    """Weights w_k = NORM_FACTOR k^{2s}, k = 1..m, of |u|_{H^s}^2 = sum_k w_k |u_hat(k)|^2."""
    if not 0 <= s < np.inf:
        raise ValueError("regularity exponent must be >= 0 and finite")
    k = np.arange(1, m + 1, dtype=np.float64)
    return NORM_FACTOR * k ** (2 * s)


def squared_norms_many(coeffs: np.ndarray, s: float) -> np.ndarray:
    """Squared H^s norms sum_k w_k (re_k^2 + im_k^2) of each row, in the distance kernel's order."""
    x = np.ascontiguousarray(coeffs)  # the kernel, too, sums over a contiguous last axis
    return np.sum(hs_weights(x.shape[-1], s) * (x.real**2 + x.imag**2), axis=-1)


def sobolev_norms_many(coeffs: np.ndarray, s: float) -> np.ndarray:
    """H^s norms of each row of a (batch, M) amplitude array: each row's H^s distance to 0."""
    return np.sqrt(squared_norms_many(coeffs, s))


def linf_norm(u: TorusField) -> float:
    """Sup norm approximated on an 8x-oversampled equispaced grid."""
    return float(linf_norms_many(u.modes))


def linf_norms_many(coeffs: np.ndarray) -> np.ndarray:
    """Sup norm of each row on an 8x-oversampled equispaced grid (at least 32 points).

    Exact maximisation of a trigonometric polynomial is not attempted; the
    grid error is spectrally small at this oversampling.
    """
    n = max(8 * coeffs.shape[-1], 32)
    return np.max(np.abs(evaluate_many(coeffs, n)), axis=-1)


def projection_cutoff(n_keep: int) -> int:
    """The cutoff of a projection onto modes k <= n_keep, for fields and Gibbs weights alike."""
    if n_keep < 0:
        raise ValueError(f"projection cutoff must be >= 0, got {n_keep}")
    return n_keep


def project(u: TorusField, n_keep: int) -> TorusField:
    """Orthogonal projection onto modes k <= n_keep (idempotent)."""
    out = np.array(u.modes)
    out[projection_cutoff(n_keep):] = 0.0
    return TorusField(out)


def integral_u3(u: TorusField) -> float:
    """Integral of u^3 over the torus, by the quadrature of :func:`integral_u3_many`."""
    return float(integral_u3_many(u.modes))


def alias_free_points(m: int) -> int:
    """Points of the grid on which a product of m-mode fields is alias-free.

    It is the least 2^a, 3 * 2^a or 5 * 2^a of at least 3m+1: a product of
    two modes of size <= m has modes q with |q| <= 2m, whose aliases q -/+ N
    lie at least N - 2m >= m + 1 away, outside the band, and the trapezoid
    rule integrates a product of three exactly.  Those lengths are fast for
    the FFT, and the rule never returns more than the least power of two.
    """
    # the least b * 2^a >= 3m+1 is b << bit_length(ceil((3m+1)/b) - 1)
    return min(b << (3 * m // b).bit_length() for b in (1, 3, 5))


def integral_u3_many(coeffs: np.ndarray) -> np.ndarray:
    """Cubic integrals of each row of a (batch, M) amplitude array, by quadrature.

    The periodic trapezoid rule on the stepper's grid of n >= 3M+1 points
    (:func:`alias_free_points`) is exact for trigonometric polynomials of
    degree <= 3M, so each row is the exact triple mode convolution up to
    roundoff.
    """
    n = alias_free_points(coeffs.shape[-1])
    vals = evaluate_many(coeffs, n)
    return np.sum(vals**3, axis=-1) * (2.0 * np.pi / n)


def hamiltonian(u: TorusField) -> float:
    """Energy functional H(u) = |d_x u|_{L2}^2 / 2 - (1/6) integral of u^3."""
    return float(hamiltonian_many(u.modes))


def hamiltonian_many(coeffs: np.ndarray) -> np.ndarray:
    """Energy functional H of each row of a (batch, M) amplitude array."""
    return 0.5 * squared_norms_many(coeffs, 1.0) - integral_u3_many(coeffs) / 6.0
