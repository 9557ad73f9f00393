import numpy as np
import pytest

from kdvlab.measures import GaussianSpec, GibbsSpec, WeightedEnsemble, sample_gibbs
from kdvlab.spectral import (
    MODE_TO_EXP,
    NORM_FACTOR,
    TorusField,
    cosine_mode,
    evaluate,
    hamiltonian,
    hamiltonian_many,
    hs_weights,
    integral_u3,
    integral_u3_many,
    linf_norm,
    project,
    sine_mode,
    sobolev_norm,
    sobolev_norms_many,
    squared_norms_many,
    zero_field,
)
from kdvlab.transport import cost_matrix

SQRT_PI = np.sqrt(np.pi)


def random_field(rng, m, scale=0.3):
    return TorusField(scale * (rng.standard_normal(m) + 1j * rng.standard_normal(m)))


def torus_grid(n):
    return 2.0 * np.pi * np.arange(n) / n


def test_field_basis_examples():
    c1 = TorusField([SQRT_PI / 2])
    x = torus_grid(64)
    assert np.allclose(evaluate(c1, 64), np.cos(x) / SQRT_PI, atol=1e-14)
    assert np.array_equal(c1.modes, cosine_mode(1).modes)
    assert np.allclose(evaluate(TorusField([0.0]), 64), 0.0)
    s1 = TorusField([-1j * SQRT_PI / 2])
    assert np.allclose(evaluate(s1, 64), np.sin(x) / SQRT_PI, atol=1e-14)
    assert np.array_equal(s1.modes, sine_mode(1).modes)


def test_empty_field_rejected():
    with pytest.raises(ValueError):
        TorusField([])


def test_reconstruction_matches_mode_sum():
    # grid samples must equal sum_k 2 Re(u_hat(k) e^{ikx}) / pi to roundoff
    rng = np.random.default_rng(0)
    u = random_field(rng, 7)
    n = 64
    x = torus_grid(n)
    direct = sum(
        2.0 * np.real(u.modes[k - 1] * np.exp(1j * k * x)) / np.pi
        for k in range(1, 8)
    )
    assert np.max(np.abs(evaluate(u, n) - direct)) < 1e-12


def test_sobolev_norm_examples():
    assert sobolev_norm(cosine_mode(1), 0.0) == pytest.approx(1.0, abs=1e-14)
    assert sobolev_norm(sine_mode(2), 0.5) == pytest.approx(np.sqrt(2.0), abs=1e-14)
    assert sobolev_norm(zero_field(4), 0.7) == 0.0
    with pytest.raises(ValueError):
        sobolev_norm(cosine_mode(1), -0.1)
    # the one H^s weight states the exponent rule for every norm and distance
    # an infinite exponent used to price cos(x) at 1 - 2^-53 and cos(2x) at inf
    for s in (-0.1, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="regularity exponent must be >= 0"):
            hs_weights(3, s)


@pytest.mark.parametrize("s", [0.0, 0.25, 1.0])
def test_a_norm_is_the_distance_to_zero_bit_for_bit(s):
    ens, _ = sample_gibbs(GibbsSpec(base=GaussianSpec(n_modes=16, seed=0)), 2048)
    zero = WeightedEnsemble(zero_field(1).modes[None], [1.0])
    distance = cost_matrix(ens, zero, s, 1.0)[:, 0]
    assert np.array_equal(sobolev_norms_many(ens.coeffs, s), distance)
    # a column-major copy of the same draws gives the same bits
    assert np.array_equal(sobolev_norms_many(np.asfortranarray(ens.coeffs), s), distance)
    assert sobolev_norm(ens.field(7), s) == distance[7]


def test_linf_norm_examples():
    assert linf_norm(cosine_mode(1)) == pytest.approx(1.0 / SQRT_PI, abs=1e-12)
    assert linf_norm(zero_field(3)) == 0.0
    u = cosine_mode(1, 2) + cosine_mode(2)
    assert linf_norm(u) == pytest.approx(2.0 / SQRT_PI, abs=1e-12)


def test_project_examples_and_properties():
    u = cosine_mode(1, 2) + cosine_mode(2)
    assert np.allclose(project(u, 1).modes, cosine_mode(1, 2).modes)
    assert np.allclose(project(cosine_mode(1), 0).modes, 0.0)
    assert np.allclose(project(u, 5).modes, u.modes)
    with pytest.raises(ValueError, match="projection cutoff must be >= 0"):
        project(u, -1)

    rng = np.random.default_rng(2)
    for _ in range(50):
        v = random_field(rng, 12)
        w = random_field(rng, 12)
        n_keep = int(rng.integers(0, 14))
        pv = project(v, n_keep)
        # idempotent
        assert np.allclose(project(pv, n_keep).modes, pv.modes, atol=1e-15)
        # self-adjoint in the L2 pairing
        lhs = NORM_FACTOR * np.sum(pv.modes * np.conj(w.modes)).real
        rhs = NORM_FACTOR * np.sum(v.modes * np.conj(project(w, n_keep).modes)).real
        assert abs(lhs - rhs) < 1e-12
        # contraction in every H^s
        for s in (0.0, 0.3, 1.0):
            assert sobolev_norm(pv, s) <= sobolev_norm(v, s) + 1e-14


def test_projection_tail_bound():
    # |(1 - P_N) u|_{H^s} <= N^{s - sigma} |u|_{H^sigma} for s < sigma
    rng = np.random.default_rng(3)
    for _ in range(50):
        u = random_field(rng, 24)
        for n_keep in (2, 5, 11):
            tail = u - project(u, n_keep)
            for s, sigma in ((0.0, 0.5), (0.2, 0.45), (0.25, 1.0)):
                bound = n_keep ** (s - sigma) * sobolev_norm(u, sigma)
                assert sobolev_norm(tail, s) <= bound + 1e-12


def test_integral_u3_examples():
    assert integral_u3(1.7 * cosine_mode(1)) == pytest.approx(0.0, abs=1e-12)
    u = cosine_mode(1, 2) + cosine_mode(2)
    assert integral_u3(u) == pytest.approx(3.0 / (2.0 * SQRT_PI), abs=1e-12)
    assert integral_u3(zero_field(2)) == 0.0


def convolution_u3(modes):
    """Integral of u^3 by triple mode convolution: exact, so the quadrature's oracle."""
    m = modes.size
    c = modes * MODE_TO_EXP
    full = np.concatenate([np.conj(c[::-1]), [0.0], c])  # k = -M..M
    sq = np.convolve(full, full)  # coefficients of u^2, k = -2M..2M
    seg = sq[m : 3 * m + 1]  # k = -M..M
    # integral = 2 pi * sum_k (u^2)_hat(k) u_hat(-k)
    return float(2.0 * np.pi * np.sum(seg * full[::-1]).real)


def test_integral_u3_convolution_vs_quadrature():
    # the exact convolution checks the batched quadrature, its one-field view
    # and the hamiltonian that reads it, row by row
    rng = np.random.default_rng(4)
    for m in range(1, 97):
        rows = np.array([random_field(rng, m).modes for _ in range(3)])
        rows *= np.minimum(1.0, 2.0 / sobolev_norms_many(rows, 0.0))[:, None]
        quad = integral_u3_many(rows)
        for row, q in zip(rows, quad):
            u, exact = TorusField(row), convolution_u3(row)
            assert abs(exact - q) < 1e-10
            assert abs(exact - integral_u3(u)) < 1e-10
            gradient = 0.5 * sobolev_norm(u, 1.0) ** 2
            expect = gradient - exact / 6.0
            assert abs(hamiltonian(u) - expect) <= 1e-13 * (gradient + abs(exact) / 6.0)


def test_hamiltonian_examples():
    a = 0.8
    assert hamiltonian(a * cosine_mode(1)) == pytest.approx(a * a / 2.0, abs=1e-12)
    assert hamiltonian(zero_field(1)) == 0.0
    u = cosine_mode(1, 2) + cosine_mode(2)
    expect = 2.5 - 1.0 / (4.0 * SQRT_PI)
    assert hamiltonian(u) == pytest.approx(expect, abs=1e-12)


def test_parseval_against_grid_quadrature():
    rng = np.random.default_rng(5)
    for _ in range(100):
        u = random_field(rng, int(rng.integers(1, 24)))
        n = 8 * u.n_modes + 8
        vals = evaluate(u, n)
        quad = np.sum(vals**2) * (2.0 * np.pi / n)
        norm_sq = sobolev_norm(u, 0.0) ** 2
        assert abs(quad - norm_sq) <= 1e-10 * max(norm_sq, 1e-30)


def test_field_arithmetic_and_padding():
    u = cosine_mode(1)
    v = sine_mode(3)
    w = u + v
    assert w.n_modes == 3
    assert np.allclose((w - v).modes[:1], u.modes)
    assert np.allclose((2.0 * u).modes, 2.0 * u.modes)
    with pytest.raises(ValueError):
        u.padded(0)


def test_nonfinite_modes_rejected():
    with pytest.raises(ValueError):
        TorusField([np.nan + 0j])



def scalar_evaluate(u, n):
    """The one-field grid evaluation that ``evaluate`` did before it became a view."""
    spec = np.zeros(n // 2 + 1, dtype=np.complex128)
    spec[1 : u.n_modes + 1] = u.modes * MODE_TO_EXP
    return np.fft.irfft(spec, n) * n


def test_batched_invariants_carry_the_one_field_bits():
    # each row of the batched energy is the one-field energy of that row, and
    # each squared norm is the squared sum itself, whose root is the norm
    rng = np.random.default_rng(43)
    for m in range(1, 130):
        rows = np.array([random_field(rng, m).modes for _ in range(3)])
        energies = hamiltonian_many(rows)
        assert energies.shape == (3,)
        assert [float(e) for e in energies] == [hamiltonian(TorusField(row)) for row in rows]
        k = np.arange(1, m + 1, dtype=np.float64)
        for s in (0.0, 0.25, 1.0):
            squares = squared_norms_many(rows, s)
            want = [np.sum(NORM_FACTOR * k ** (2 * s) * (r.real**2 + r.imag**2)) for r in rows]
            assert np.array_equal(squares, want)
            assert np.array_equal(np.sqrt(squares), sobolev_norms_many(rows, s))


def test_scalar_views_equal_the_scalar_formulas():
    rng = np.random.default_rng(41)
    for m in (1, 2, 3, 7, 16, 33, 64, 129):
        k = np.arange(1, m + 1, dtype=np.float64)
        default = max(8 * m, 32)
        for _ in range(5):
            u = random_field(rng, m)
            for s in (0.0, 0.25, 0.45, 1.0):
                squares = u.modes.real**2 + u.modes.imag**2
                want = float(np.sqrt(np.sum(NORM_FACTOR * k ** (2 * s) * squares)))
                assert sobolev_norm(u, s) == want
            assert np.array_equal(evaluate(u), scalar_evaluate(u, default))
            n = 2 * m + 1 + int(rng.integers(0, 9))
            assert np.array_equal(evaluate(u, n), scalar_evaluate(u, n))
            assert linf_norm(u) == float(np.max(np.abs(scalar_evaluate(u, default))))
    u = cosine_mode(3)
    with pytest.raises(ValueError):
        sobolev_norm(u, -0.1)
    with pytest.raises(ValueError):
        evaluate(u, 6)  # 2M + 1 = 7 points are the least that resolve 3 modes
