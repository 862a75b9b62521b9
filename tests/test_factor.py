import time

import numpy as np
import pytest

import toepsys as ts
import toepsys.factor as factor
from toepsys.factor import _shift_indices, _square_and_jacobian, laurent_roots

from conftest import boundary_density, random_positive_fr


def test_one_plus_cos():
    # 1 + cos theta = |q|^2 with q = (1 + z) / sqrt(2)
    a = ts.fr_from_coeffs([0.5, 1.0, 0.5])
    f = ts.fejer_riesz_factorize(a)
    assert np.allclose(np.abs(f.q), [1 / np.sqrt(2), 1 / np.sqrt(2)])
    assert f.q[0].real > 0 and abs(f.q[0].imag) < 1e-12
    assert ts.factorization_residual(a, f) < 1e-12


def test_constant_sequence():
    a = ts.fr_from_coeffs([0, 0, 4.0, 0, 0])
    f = ts.fejer_riesz_factorize(a)
    assert np.allclose(f.q, [2.0])


def test_minimum_phase_and_phase_convention(rng):
    for _ in range(50):
        n = int(rng.integers(2, 10))
        a = random_positive_fr(n, rng)
        f = ts.fejer_riesz_factorize(a)
        roots = np.roots(np.trim_zeros(f.q)[::-1]) if f.q.size > 1 else []
        assert all(abs(z) <= 1 + 1e-7 for z in roots)
        assert f.q[0].real >= 0 and abs(f.q[0].imag) <= 1e-10 * abs(f.q[0])


def test_negative_input_rejected():
    with pytest.raises(ValueError):
        ts.fejer_riesz_factorize(ts.fr_from_coeffs([0.8, 1.0, 0.8]))


def test_small_tol_is_honoured():
    # min of the circle function is -2e-10, about -1e-10 ||a||_1
    a = ts.fr_from_coeffs([0.5, 1 - 2e-10, 0.5])
    ts.fejer_riesz_factorize(a)
    with pytest.raises(ValueError, match="nonnegative"):
        ts.fejer_riesz_factorize(a, tol=1e-12)


def test_boundary_touching_zero():
    # (1 + cos)^2 touches zero: circle root of multiplicity 4
    a = ts.fr_from_coeffs([0.5, 1.0, 0.5])
    a2 = ts.fr_convolve(a, a)
    f = ts.fejer_riesz_factorize(a2)
    assert ts.factorization_residual(a2, f) < 1e-8


def test_laurent_roots_conventions():
    # delta_0 has no roots once the support is trimmed
    assert laurent_roots(ts.fr_delta(0, 3)).size == 0
    # 1 + cos theta: double root at -1
    r = laurent_roots(ts.fr_from_coeffs([0.5, 1.0, 0.5]))
    assert np.allclose(sorted(r), [-1, -1], atol=1e-7)
    with pytest.raises(ValueError):
        laurent_roots(ts.fr_from_coeffs([0, 0, 0]))


def test_squared_modulus_matches_on_circle(rng):
    for _ in range(20):
        n = int(rng.integers(2, 9))
        a = random_positive_fr(n, rng)
        f = ts.fejer_riesz_factorize(a)
        theta = rng.uniform(0, 2 * np.pi, 16)
        lhs = np.real(a(theta))
        rhs = np.abs(f(np.exp(1j * theta))) ** 2
        assert np.allclose(lhs, rhs, atol=1e-9 * np.abs(a.a).sum())


def test_jacobian_matches_central_differences(rng):
    m = 7
    q = rng.normal(size=m) + 1j * rng.normal(size=m)
    ia, ib = _shift_indices(m)
    b, J = _square_and_jacobian(q, ia, ib)
    assert np.allclose(b, np.convolve(np.conj(q[::-1]), q), atol=1e-14)
    h = 1e-6
    x = np.concatenate([q.real, q.imag])
    fd = np.empty_like(J)
    for j in range(2 * m):
        cols = []
        for sign in (1.0, -1.0):
            xs = x.copy()
            xs[j] += sign * h
            bs, _ = _square_and_jacobian(xs[:m] + 1j * xs[m:], ia, ib)
            cols.append(np.concatenate([bs.real, bs.imag]))
        fd[:, j] = (cols[0] - cols[1]) / (2 * h)
    assert np.abs(J - fd).max() <= 1e-7 * np.abs(J).max()


@pytest.mark.parametrize("n", [64, 128])
def test_boundary_repeated_circle_roots_large_n(rng, n):
    for _ in range(2):
        a = boundary_density(n, rng)
        start = time.perf_counter()
        f = ts.fejer_riesz_factorize(a)
        assert time.perf_counter() - start < 2.0
        assert f.q.size == n
        assert ts.factorization_residual(a, f) <= 1e-8 * np.abs(a.a).sum()
        # minimum phase: a double circle root of q is only determined to
        # about residual**(1/4) ~ 1e-3, while reflecting a disc root of
        # modulus <= 0.9 would put it at >= 1.11
        assert np.abs(np.roots(f.q[::-1])).max() <= 1 + 1e-3


@pytest.mark.parametrize("n", [8, 16, 32])
def test_boundary_polish_stops_at_rounding(n, monkeypatch):
    # circle roots make the polish converge linearly; it stops once its
    # residual is at rounding instead of running toward its step cap
    calls = []

    def counted(*args):
        calls.append(1)
        return _square_and_jacobian(*args)

    monkeypatch.setattr(factor, "_square_and_jacobian", counted)
    rng = np.random.default_rng(300 + n)
    counts = []
    for _ in range(8):
        a = boundary_density(n, rng)
        calls.clear()
        f = ts.fejer_riesz_factorize(a)
        counts.append(len(calls))
        assert ts.factorization_residual(a, f) <= 1e-10 * np.abs(a.a).sum()
    assert max(counts) <= factor._POLISH_STEPS + 1
    assert np.mean(counts) <= 15


def test_residual_is_coefficient_l1_bound(rng):
    a = random_positive_fr(6, rng)
    f = ts.SpectralFactor(ts.fejer_riesz_factorize(a).q * (1 + 1e-3))
    bound = ts.factorization_residual(a, f)
    assert bound == pytest.approx(np.abs((a - f.squared_modulus()).a).sum())
    theta = np.linspace(0, 2 * np.pi, 4001)
    assert np.abs(a(theta) - np.abs(f(np.exp(1j * theta))) ** 2).max() <= bound
