import numpy as np
import pytest

import toepsys as ts

from conftest import (random_positive_toeplitz, rays_toeplitz,
                      separated_angles)


def test_reconstruct_single_ray():
    vd = ts.VandermondeDecomposition([0.7], [2.0])
    T = ts.reconstruct(vd, 4)
    assert np.allclose(T.t, (2.0 * ts.extreme_ray(np.exp(1j * 0.7), 4)).t)


def test_reconstruct_rejects_negative_weights():
    with pytest.raises(ValueError):
        ts.reconstruct(ts.VandermondeDecomposition([0.0], [-1.0]), 3)


def test_kernel_roots_two_rays():
    T = rays_toeplitz(4, [0.7, 2.1], [2.0, 0.5])
    nodes = ts.kernel_roots(T)
    got = np.sort(np.angle(nodes) % (2 * np.pi))
    assert np.allclose(got, [0.7, 2.1], atol=1e-8)


def test_kernel_roots_nonsingular_rejected():
    T = ts.compress_symbol({0: 1.0}, 3)
    with pytest.raises(ValueError):
        ts.kernel_roots(T)


def test_decompose_identity():
    # identity = equal-weight combination over any full node set; only the
    # reconstruction is canonical
    eye = ts.compress_symbol({0: 1.0}, 4)
    vd = ts.vandermonde_decompose(eye)
    R = ts.reconstruct(vd, 4)
    assert np.abs(R.t - eye.t).max() < 1e-9
    assert vd.rank >= 4


def test_decompose_low_rank_recovers_nodes(rng):
    for _ in range(40):
        n = int(rng.integers(3, 10))
        r = int(rng.integers(1, n))
        angles = separated_angles(r, rng)
        weights = rng.uniform(0.2, 2.0, r)
        T = rays_toeplitz(n, angles, weights)
        vd = ts.vandermonde_decompose(T)
        assert vd.rank == r
        assert np.allclose(np.sort(vd.angles), angles, atol=1e-7)
        assert np.allclose(
            vd.weights[np.argsort(vd.angles)], weights[np.argsort(angles)],
            atol=1e-7)


def test_decompose_full_rank_reconstructs(rng):
    for _ in range(20):
        n = int(rng.integers(2, 9))
        T = random_positive_toeplitz(n, n + 1, rng)
        scale = ts.operator_norm(T)
        vd = ts.vandermonde_decompose(T)
        err = np.abs(ts.reconstruct(vd, n).t - T.t).max()
        assert err <= 1e-9 * scale


def test_decompose_rejects_nonpositive():
    with pytest.raises(ValueError):
        ts.vandermonde_decompose(ts.toeplitz_from_coeffs([1.1, 1.0, 1.1]))


def test_det_multiplicity_interior_and_boundary(rng):
    assert ts.det_multiplicity(ts.compress_symbol({0: 1.0}, 4)) == 0
    for _ in range(30):
        n = int(rng.integers(2, 7))
        r = int(rng.integers(1, n))
        T = rays_toeplitz(n, separated_angles(r, rng),
                          rng.uniform(0.2, 2.0, r))
        assert ts.det_multiplicity(T) == n - r


@pytest.mark.parametrize("n", [16, 32, 64])
def test_det_multiplicity_large_n(rng, n):
    r = n // 2
    angles = 2 * np.pi * (np.arange(r) + rng.uniform(0, 0.5, r)) / r
    T = rays_toeplitz(n, angles, rng.uniform(0.2, 2.0, r))
    assert ts.det_multiplicity(T) == n - r


def test_det_multiplicity_scale_invariance(rng):
    T = rays_toeplitz(4, separated_angles(2, rng), [1.0, 0.7])
    assert ts.det_multiplicity(T) == ts.det_multiplicity(100.0 * T) == 2
