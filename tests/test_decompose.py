import numpy as np
import pytest

import toepsys as ts
from toepsys.decompose import _half_lstsq

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


def test_kernel_roots_zero_matrix():
    # the zero matrix is positive and has no nodes
    for n in (1, 3):
        zero = ts.toeplitz_from_coeffs(np.zeros(2 * n - 1))
        assert ts.kernel_roots(zero).size == 0
        assert ts.vandermonde_decompose(zero).rank == 0


def test_kernel_roots_are_decomposition_nodes():
    # unseparated rays: least-squares weights on the nodes rebuild T
    n = 64
    k = np.arange(-n + 1, n)
    for d in range(10):
        T = random_positive_toeplitz(n, n - 1, np.random.default_rng([5, n, n - 1, d]))
        A = np.exp(1j * np.outer(k, np.angle(ts.kernel_roots(T)))) / n
        w, *_ = np.linalg.lstsq(np.vstack([A.real, A.imag]),
                                np.concatenate([T.t.real, T.t.imag]), rcond=None)
        assert w.min() >= 0
        assert np.abs(A @ w - T.t).max() <= 1e-8 * np.abs(T.t).max()
    # draws where a tight cluster once cost a node: all n - m are found
    n = 96
    for r, draw in ((95, 18), (99, 9)):
        rng = np.random.default_rng([5, n, r])
        for _ in range(draw + 1):
            T = random_positive_toeplitz(n, r, rng)
        assert ts.kernel_roots(T).size == n - ts.det_multiplicity(T)


@pytest.mark.parametrize("scale", [1e-20, 1e-14, 1e-13, 1.0, 1e13, 1e20])
def test_weight_cut_is_scale_invariant(scale):
    angles = [0.5, 2.0, 4.0]
    T = scale * rays_toeplitz(6, angles, [1.0, 0.7, 1.3])
    vd = ts.vandermonde_decompose(T)
    assert vd.rank == 6 - ts.det_multiplicity(T) == 3
    assert np.allclose(vd.angles, angles, atol=1e-8)
    assert np.abs(ts.reconstruct(vd, 6).t - T.t).max() <= 1e-9 * np.abs(T.t).max()
    assert _cyclic_deviation(ts.kernel_roots(T), angles) <= 1e-8


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


def test_refine_half_rows_match_full_rows():
    # one ray peeled off a sum of rays: t is Hermitian only to rounding;
    # the weight fit and one Gauss-Newton step of _refine, on the rows
    # k >= 0, match lstsq on all 2n - 1 rows
    n, rng = 16, np.random.default_rng(16)
    angles = separated_angles(12, rng)
    weights = rng.uniform(0.2, 2.0, 12)
    T = rays_toeplitz(n, angles, weights) - weights[0] * ts.extreme_ray(np.exp(1j * angles[0]), n)
    assert np.abs(T.t - np.conj(T.t[::-1])).max() > 0

    def full_lstsq(M, t):
        return np.linalg.lstsq(np.vstack([M.real, M.imag]),
                               np.concatenate([t.real, t.imag]), rcond=None)[0]

    th = angles[1:] + rng.uniform(-1e-3, 1e-3, 11)
    k, kf = np.arange(n), np.arange(-n + 1, n)
    E, Ef = np.exp(1j * np.outer(k, th)) / n, np.exp(1j * np.outer(kf, th)) / n
    d, d_ref = _half_lstsq(E, T.t), full_lstsq(Ef, T.t)
    assert np.linalg.norm(d - d_ref) <= 1e-9 * np.linalg.norm(d_ref)
    m = E @ d
    resid = T.t - np.concatenate([np.conj(m[:0:-1]), m])
    assert np.allclose(resid, T.t - Ef @ d, rtol=0, atol=1e-14)
    step = _half_lstsq(np.hstack([1j * k[:, None] * E * d, E]), resid)
    ref = full_lstsq(np.hstack([1j * kf[:, None] * Ef * d, Ef]), resid)
    assert np.linalg.norm(step - ref) <= 1e-9 * np.linalg.norm(ref)


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
