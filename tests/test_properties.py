"""Property tests; skipped where hypothesis is not installed."""
import numpy as np
import pytest

import toepsys as ts

from conftest import random_positive_fr, random_state, slotted_angles

hypothesis = pytest.importorskip("hypothesis")
given, settings, st = hypothesis.given, hypothesis.settings, hypothesis.strategies


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 24),
       touching=st.booleans())
def test_factor_round_trip_property(seed, n, touching):
    rng = np.random.default_rng(seed)
    a = random_positive_fr(n, rng, margin=0.0 if touching else None)
    f = ts.fejer_riesz_factorize(a)
    diff = f.squared_modulus().resize(n) - a
    assert np.abs(diff.a).sum() <= 1e-8 * np.abs(a.a).sum()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 12))
def test_kantorovich_symmetry_property(seed, n):
    rng = np.random.default_rng(seed)
    phi, psi = random_state(n, rng), random_state(n, rng)
    quad_tol = 1e-8
    assert abs(ts.kantorovich(phi, psi, quad_tol)
               - ts.kantorovich(psi, phi, quad_tol)) <= 2 * quad_tol


def rays(angles, weights, n):
    return ts.reconstruct(ts.VandermondeDecomposition(angles, weights), n)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 128))
def test_decompose_reconstruct_round_trip_property(seed, n):
    # resolvable nodes, below and above full rank, as in the uniqueness
    # half of criterion 2; unseparated random rays at n >~ 70 have their
    # smallest eigenvalues at rounding, where the rank cut misreads them
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, n + 4))
    T = rays(slotted_angles(r, rng), rng.uniform(0.2, 2.0, r), n)
    vd = ts.vandermonde_decompose(T)
    assert np.all(vd.weights > 0)
    err = np.abs(ts.reconstruct(vd, n).t - T.t).max()
    assert err <= 1e-8 * ts.operator_norm(T)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(3, 128),
       phi=st.floats(0.0, 2 * np.pi))
def test_decompose_rotation_equivariance_property(seed, n, phi):
    # below full rank the decomposition is unique, and t_k e^{ik phi}
    # moves every node by phi and keeps its weight
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, n))
    k = np.arange(-n + 1, n)
    T = rays(slotted_angles(r, rng), rng.uniform(0.2, 2.0, r), n)
    vd = ts.vandermonde_decompose(T)
    vd_phi = ts.vandermonde_decompose(ts.toeplitz_from_coeffs(T.t * np.exp(1j * k * phi)))
    assert vd.rank == vd_phi.rank == r
    moved = (vd.angles + phi) % (2 * np.pi)
    dist = np.abs((moved[:, None] - vd_phi.angles[None, :] + np.pi) % (2 * np.pi) - np.pi)
    match = np.argmin(dist, axis=1)
    assert dist.min(axis=1).max() <= 1e-7
    assert np.allclose(vd.weights, vd_phi.weights[match], atol=1e-7)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 24))
def test_connes_distance_metric_properties(seed, n):
    # each value lies within gap of the distance: symmetry within 2 gap,
    # the triangle inequality within 3 gap, and kantorovich, which the
    # distance dominates, within gap plus its own quad_tol
    rng = np.random.default_rng(seed)
    a, b, c = (random_state(n, rng) for _ in range(3))
    gap, quad_tol = 1e-6, 1e-8
    ab, ba, ac, cb = (ts.connes_distance(x, y, gap) for x, y in
                      ((a, b), (b, a), (a, c), (c, b)))
    assert all(r.converged for r in (ab, ba, ac, cb))
    assert abs(ab.value - ba.value) <= 2 * gap
    assert ab.value <= ac.value + cb.value + 3 * gap
    assert ts.kantorovich(a, b, quad_tol) <= ab.value + gap + quad_tol
