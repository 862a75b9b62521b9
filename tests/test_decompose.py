import numpy as np
import pytest

import toepsys as ts

from conftest import (random_positive_toeplitz, rays_toeplitz,
                      separated_angles, slotted_angles)


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


def _cyclic_deviation(nodes, angles):
    got = np.sort(np.angle(nodes) % (2 * np.pi))
    want = np.sort(np.asarray(angles) % (2 * np.pi))
    assert got.size == want.size
    return np.abs((got - want + np.pi) % (2 * np.pi) - np.pi).max()


def test_kernel_roots_large_n_separated(rng):
    n = 128
    r = n // 2
    angles = 2 * np.pi * (np.arange(r) + rng.uniform(0, 0.5, r)) / r
    T = rays_toeplitz(n, angles, rng.uniform(0.2, 2.0, r))
    assert _cyclic_deviation(ts.kernel_roots(T), angles) <= 1e-8


def test_kernel_roots_close_pair(rng):
    # two nodes 1e-3 apart stay two nodes, also across angle zero
    n = 128
    for angles in ([1.0, 1.001, 3.0], [2 * np.pi - 5e-4, 5e-4, 2.5, 4.0]):
        T = rays_toeplitz(n, angles, rng.uniform(0.2, 2.0, len(angles)))
        assert _cyclic_deviation(ts.kernel_roots(T), angles) <= 1e-8


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


@pytest.mark.parametrize("n", [16, 32, 64])
def test_decompose_full_rank_stops_at_rounding(n, monkeypatch):
    # n + 3 resolvable rays: the residual of the peeled remainder reaches
    # rounding within a step or two, and Gauss-Newton stops there; two
    # lstsq calls go to the subspace nodes and the starting weights
    calls = []
    lstsq = np.linalg.lstsq

    def counted(*args, **kwargs):
        calls.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    rng = np.random.default_rng(n)
    for _ in range(5):
        T = rays_toeplitz(n, slotted_angles(n + 3, rng), rng.uniform(0.2, 2.0, n + 3))
        calls.clear()
        vd = ts.vandermonde_decompose(T)
        assert len(calls) <= 6
        err = np.abs(ts.reconstruct(vd, n).t - T.t).max()
        assert err <= 1e-10 * ts.operator_norm(T)


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


@pytest.mark.parametrize("n", [16, 32, 64])
@pytest.mark.parametrize("extra", [-1, 3])
def test_one_rank_rule(n, extra):
    # the rank of the decomposition, det_multiplicity and the kernel nodes
    # read one spectrum with one cut, so they add up at any rank; the nodes
    # are uniform random, not separated
    rng = np.random.default_rng([n, n + extra])
    for _ in range(10):
        T = random_positive_toeplitz(n, n + extra, rng)
        m = ts.det_multiplicity(T)
        assert ts.vandermonde_decompose(T).rank + m == n
        if m:
            assert ts.kernel_roots(T).size == n - m


def test_one_rank_rule_hand_built(rng):
    # rank 7 at n = 8 lifted by 1e-11 ||T|| I: nonsingular at RANK_CUT
    T = rays_toeplitz(8, separated_angles(7, rng), rng.uniform(0.2, 2.0, 7))
    T = T + ts.compress_symbol({0: 1e-11 * ts.operator_norm(T)}, 8)
    assert ts.vandermonde_decompose(T).rank == 8
    assert ts.det_multiplicity(T) == 0
    with pytest.raises(ValueError, match="nonsingular"):
        ts.kernel_roots(T)


def test_small_tol_is_honoured(rng):
    T = rays_toeplitz(8, separated_angles(5, rng), rng.uniform(0.2, 2.0, 5))
    T = T - ts.compress_symbol({0: 1e-10 * ts.operator_norm(T)}, 8)
    ts.vandermonde_decompose(T)
    ts.kernel_roots(T)
    for solve in (ts.vandermonde_decompose, ts.kernel_roots):
        with pytest.raises(ValueError, match="positive"):
            solve(T, tol=1e-12)


def test_det_multiplicity_scale_invariance(rng):
    T = rays_toeplitz(4, separated_angles(2, rng), [1.0, 0.7])
    assert ts.det_multiplicity(T) == ts.det_multiplicity(100.0 * T) == 2
