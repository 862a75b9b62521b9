import numpy as np
import pytest

import toepsys as ts
from toepsys.circulant import (CirculantMatrix, circulant_from_json,
                               circulant_to_json, diagonalizer,
                               fourier_matrix)

from conftest import random_hermitian_toeplitz


def test_dense_layout():
    C = CirculantMatrix([1, 2, 3])
    M = C.dense()
    assert M[0, 0] == 1 and M[1, 0] == 2 and M[0, 1] == 3
    assert M[2, 0] == 3 and M[0, 2] == 2


def test_fourier_of_deltas():
    assert np.allclose(ts.fourier_transform([1, 0, 0, 0]), np.ones(4))
    xi = np.exp(-2j * np.pi / 3)
    assert np.allclose(ts.fourier_transform([0, 1, 0]), [1, xi, xi ** 2])


def test_plancherel_and_inversion(rng):
    for m in (1, 2, 5, 16):
        f = rng.normal(size=m) + 1j * rng.normal(size=m)
        F = ts.fourier_transform(f)
        assert np.vdot(F, F).real == pytest.approx(m * np.vdot(f, f).real)
        # F composed with the conjugate transform is m times the identity
        back = np.conj(ts.fourier_transform(np.conj(F)))
        assert np.allclose(back, m * f)


def test_convolution_theorem(rng):
    m = 8
    f = rng.normal(size=m)
    g = rng.normal(size=m)
    conv = np.array([sum(f[l] * g[(j - l) % m] for l in range(m))
                     for j in range(m)])
    assert np.allclose(ts.fourier_transform(conv),
                       ts.fourier_transform(f) * ts.fourier_transform(g),
                       atol=1e-10)


def test_group_pairing_indices():
    assert ts.group_pairing([1, 0, 0], [1, 0, 0]) == 1
    assert ts.group_pairing([0, 1, 0, 0], [0, 0, 0, 1]) == 1
    assert ts.group_pairing([0, 1, 0], [0, 1, 0]) == 0
    with pytest.raises(ValueError):
        ts.group_pairing([1, 0], [1, 0, 0])


def test_diagonalization(rng):
    for m in (3, 10, 64):
        c = rng.normal(size=m) + 1j * rng.normal(size=m)
        C = CirculantMatrix(c)
        U = diagonalizer(m)
        assert np.allclose(U.conj().T @ U, np.eye(m), atol=1e-12)
        D = U.conj().T @ C.dense() @ U
        assert np.abs(D - np.diag(C.eigenvalues())).max() <= 1e-10


def test_hermitian_tolerance():
    assert CirculantMatrix([1, 0.1, 0.1]).hermitian
    assert CirculantMatrix([2.0]).hermitian
    assert not CirculantMatrix([1j]).hermitian
    # asymmetric by 3e-7, far above the 1.1e-13 allowed; within allclose's
    # default rtol only
    assert not CirculantMatrix([1, 0.1, 0.1 * (1 + 3e-6)]).hermitian


def test_completion_layout():
    T = ts.toeplitz_from_coeffs([4j, 1, 2, 3, 5j])
    C = ts.complete_toeplitz(T, 5)
    assert np.allclose(C.c, [2, 3, 5j, 4j, 1])
    assert np.allclose(C.dense()[:3, :3], T.dense())
    with pytest.raises(ValueError):
        ts.complete_toeplitz(T, 4)


def test_completion_round_trip(rng):
    for n in (2, 3, 5):
        T = random_hermitian_toeplitz(n, rng)
        for m in (2 * n - 1, 2 * n, 3 * n):
            C = ts.complete_toeplitz(T, m)
            assert C.hermitian
            T2 = ts.compress_circulant(C, n)
            assert np.abs(T2.t - T.t).max() == 0.0


def test_compression_preserves_positivity(rng):
    m = 9
    spectrum = rng.uniform(0.1, 2.0, m)
    c = np.conj(ts.fourier_transform(np.conj(spectrum))) / m  # inverse transform
    C = CirculantMatrix(c)
    assert np.linalg.eigvalsh(C.dense()).min() > 0
    T = ts.compress_circulant(C, 4)
    ok, _ = ts.is_positive(T)
    assert ok


def test_tensor_map_rank_prime_and_composite():
    assert ts.tensor_map_rank(2) == 9
    assert ts.tensor_map_rank(3) == 25
    # 2n-1 = 9 is composite; the rank is reported, not asserted bijective
    assert ts.tensor_map_rank(5) <= 81


def test_json_round_trip(rng):
    C = CirculantMatrix(rng.normal(size=4) + 1j * rng.normal(size=4))
    assert np.allclose(circulant_from_json(circulant_to_json(C)).c, C.c)


def _dense_tensor_map_rank(n):
    """The rank of the map f (x) T -> sum_k f_k S^k (T + 0) S^-k, from its
    dense m^2 x m(2n-1) matrix."""
    m = 2 * n - 1
    S = np.zeros((m, m))
    S[np.arange(m), (np.arange(m) - 1) % m] = 1.0
    Sk = [np.linalg.matrix_power(S, k) for k in range(m)]
    cols = []
    for k in range(m):
        for j in range(-n + 1, n):
            tau = np.zeros(2 * n - 1, dtype=complex)
            tau[j + n - 1] = 1.0
            emb = np.zeros((m, m), dtype=complex)
            emb[:n, :n] = ts.toeplitz_from_coeffs(tau).dense()
            cols.append((Sk[k] @ emb @ Sk[k].T).ravel())
    A = np.array(cols).T
    return int(np.linalg.matrix_rank(A, tol=1e-9 * np.linalg.norm(A, 2)))


def test_tensor_map_rank_exact():
    expected = [9, 25, 49, 77, 121, 169, 209]
    for n, rank in zip(range(2, 9), expected):
        assert ts.tensor_map_rank(n) == rank == _dense_tensor_map_rank(n)


def test_tensor_map_rank_full_iff_prime():
    for n in range(2, 61):
        m = 2 * n - 1
        prime = all(m % p for p in range(2, int(m ** 0.5) + 1))
        assert (ts.tensor_map_rank(n) == m * m) == prime
