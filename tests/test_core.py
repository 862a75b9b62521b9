import numpy as np
import pytest

import toepsys as ts
from toepsys.core import (fr_from_json, fr_to_json, toeplitz_from_json,
                          toeplitz_to_json)

from conftest import (boundary_density, dense_samples, pure_density,
                      random_hermitian_toeplitz, random_palindromic)


def test_dense_layout():
    T = ts.toeplitz_from_coeffs([-2, -1, 0, 1, 2])
    M = T.dense()
    assert M[1, 0] == 1 and M[0, 1] == -1
    assert M[2, 0] == 2 and M[0, 2] == -2
    assert np.all(np.diag(M) == 0)


def test_coeff_indexing():
    T = ts.toeplitz_from_coeffs([1j, 2, 3, 4, 5j])
    assert T.coeff(0) == 3
    assert T.coeff(-2) == 1j and T.coeff(2) == 5j
    with pytest.raises(IndexError):
        T.coeff(3)


def test_even_length_rejected():
    with pytest.raises(ValueError):
        ts.toeplitz_from_coeffs([1, 2])


def test_hermitian_and_adjoint(rng):
    T = random_hermitian_toeplitz(5, rng)
    assert T.hermitian
    assert np.allclose(T.dense(), T.dense().conj().T)
    A = ts.toeplitz_from_coeffs([1, 2j, 3, 4, 5])
    assert not A.hermitian
    assert np.allclose(A.conj_transpose().dense(), A.dense().conj().T)


def test_involution_and_palindromic(rng):
    a = random_palindromic(4, rng)
    assert a.palindromic
    b = ts.fr_from_coeffs([1, 2j, 3])
    assert np.allclose(b.involution().a, [np.conj(3), np.conj(2j), 1])


def test_circle_function_values():
    # 1 + cos theta has coefficients (1/2, 1, 1/2)
    a = ts.fr_from_coeffs([0.5, 1.0, 0.5])
    theta = np.linspace(0, 2 * np.pi, 7)
    assert np.allclose(a(theta), 1 + np.cos(theta))


def test_compress_symbol():
    T = ts.compress_symbol({0: 1.0, 1: 0.5, -1: 0.5, 7: 9.0}, 3)
    assert T.coeff(1) == 0.5 and T.coeff(0) == 1.0 and T.coeff(2) == 0


def test_is_positive_identity_and_shift():
    eye = ts.compress_symbol({0: 1.0}, 4)
    ok, lam = ts.is_positive(eye)
    assert ok and lam == pytest.approx(1.0)
    # t_0 = 1, t_1 = t_-1 = 0.6 is positive for n = 2 but not with t_1 = 1.1
    ok, _ = ts.is_positive(ts.toeplitz_from_coeffs([0.6, 1, 0.6]))
    assert ok
    ok, lam = ts.is_positive(ts.toeplitz_from_coeffs([1.1, 1, 1.1]))
    assert not ok and lam < 0


def test_pairing_is_quadratic_form(rng):
    # pairing(T, xi* conv xi) = <xi, T xi>
    for _ in range(25):
        n = int(rng.integers(2, 8))
        T = random_hermitian_toeplitz(n, rng)
        xi = rng.normal(size=n) + 1j * rng.normal(size=n)
        f = ts.fr_from_coeffs(np.concatenate([np.zeros(n - 1), xi]))
        dens = ts.fr_convolve(f.involution(), f).resize(n)
        val = ts.pairing(T, dens)
        ref = np.vdot(xi, T.dense() @ xi)
        assert abs(val - ref) < 1e-10 * (1 + abs(ref))


def test_trig_minimum_exact():
    a = ts.fr_from_coeffs([0.5, 1.0, 0.5])  # 1 + cos theta
    m, arg = ts.trig_minimum(a)
    assert m == pytest.approx(0.0, abs=1e-12)
    assert np.cos(arg) == pytest.approx(-1.0)


def test_fr_is_positive(rng):
    assert ts.fr_is_positive(ts.fr_from_coeffs([0.5, 1.0, 0.5]))
    assert not ts.fr_is_positive(ts.fr_from_coeffs([0.8, 1.0, 0.8]))
    with pytest.raises(ValueError):
        ts.fr_is_positive(ts.fr_from_coeffs([1.0, 1.0, 0.0]))


@pytest.mark.parametrize("n", [8, 16, 64, 128])
def test_fr_is_positive_accepts_circle_roots(rng, n):
    # circle roots of multiplicity 2 and 4, and a pure density whose n-1
    # double roots cluster where it is below rounding; every accepted
    # density reads >= -tol ||a||_1 on a dense grid
    for a in (boundary_density(n, rng), pure_density(n, rng)):
        assert ts.fr_is_positive(a)
        assert dense_samples(a).min() >= -1e-9 * np.abs(a.a).sum()


@pytest.mark.parametrize("n", [8, 16, 64, 128])
@pytest.mark.parametrize("dip", [1e-7, 2e-9])
def test_fr_is_positive_rejects_dips(rng, n, dip):
    # lowering a density with circle roots by dip ||a||_1, past tol = 1e-9
    for a in (boundary_density(n, rng), pure_density(n, rng)):
        c = a.a.copy()
        c[n - 1] -= dip * np.abs(a.a).sum()
        assert not ts.fr_is_positive(ts.fr_from_coeffs(c))


def test_trig_minimum_matches_dense_grid(rng):
    # the dense grid's minimum exceeds the true one by at most
    # max |a''| (h / 2)^2 / 2; trig_minimum is within rounding of it
    n, N = 128, 2 ** 16
    k = np.arange(-n + 1, n)
    for a in (random_palindromic(n, rng), boundary_density(n, rng)):
        m, theta = ts.trig_minimum(a)
        norm = np.abs(a.a).sum()
        grid = dense_samples(a, N).min()
        curvature = np.abs(k ** 2 * a.a).sum()
        assert m <= grid + 1e-10 * norm
        assert m >= grid - curvature * (2 * np.pi / N) ** 2 / 8 - 1e-10 * norm
        assert np.real(a(theta)) == pytest.approx(m, abs=1e-10 * norm)


def test_extreme_ray_properties(rng):
    lam = np.exp(1j * 1.234)
    G = ts.extreme_ray(lam, 4)
    M = G.dense()
    w = np.linalg.eigvalsh(M)
    assert np.trace(M).real == pytest.approx(1.0)
    assert np.sum(w > 1e-12) == 1
    f = ts.fourier_vector(lam, 4)
    assert np.allclose(M, np.outer(f, np.conj(f)))
    with pytest.raises(ValueError):
        ts.extreme_ray(0.5, 4)


def test_convolution_is_polynomial_product(rng):
    a = ts.fr_from_coeffs(rng.normal(size=5) + 1j * rng.normal(size=5))
    b = ts.fr_from_coeffs(rng.normal(size=7) + 1j * rng.normal(size=7))
    c = ts.fr_convolve(a, b)
    theta = rng.uniform(0, 2 * np.pi, 11)
    assert np.allclose(c(theta), a(theta) * b(theta))


def test_json_round_trip(rng):
    T = random_hermitian_toeplitz(3, rng)
    assert np.allclose(toeplitz_from_json(toeplitz_to_json(T)).t, T.t)
    a = random_palindromic(3, rng)
    assert np.allclose(fr_from_json(fr_to_json(a)).a, a.a)
    with pytest.raises(ValueError):
        toeplitz_from_json({"n": 5, "t": [[1, 0]]})
