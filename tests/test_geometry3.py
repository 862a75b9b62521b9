import numpy as np
import pytest

import toepsys as ts
from toepsys import geometry3 as g3


def test_delta_origin_and_curve():
    assert g3.delta(g3.ConeCoords(0, 0, 0, 0)) == 1.0
    for x in np.linspace(0, 2 * np.pi, 17):
        p = g3.gamma_curve(x)
        assert abs(g3.delta(p)) < 1e-12
        assert np.abs(g3.grad_delta(p)).max() < 1e-12


def test_gamma_curve_is_extreme_ray():
    p = g3.gamma_curve(0.0)
    assert p.as_tuple() == (1, 0, 1, 0, 1)
    assert np.allclose(p.toeplitz().dense(), np.ones((3, 3)))
    for x in (0.3, 2.8):
        A = g3.gamma_curve(x).toeplitz().dense()
        B = 3.0 * ts.extreme_ray(np.exp(1j * x), 3).dense()
        assert np.allclose(A, B)


def test_delta_is_determinant(rng):
    for _ in range(200):
        p = g3.ConeCoords(*rng.uniform(-2, 2, 4))
        det = float(np.real(np.linalg.det(p.toeplitz().dense())))
        assert g3.delta(p) == pytest.approx(det, abs=1e-11)


def test_sigma_endpoints_and_boundary(rng):
    x = 1.234
    assert np.allclose(g3.sigma(x, x, 0.3).as_tuple(),
                       g3.gamma_curve(x).as_tuple())
    for _ in range(100):
        x, y = rng.uniform(0, 2 * np.pi, 2)
        s = rng.uniform(0, 1)
        assert abs(g3.delta(g3.sigma(x, y, s))) < 1e-12


def test_epsilon_symmetry_and_surface(rng):
    for _ in range(100):
        x, y = rng.uniform(0, 2 * np.pi, 2)
        e = g3.epsilon_state(x, y)
        assert np.allclose(e.as_tuple(), g3.epsilon_state(y, x).as_tuple())
        assert abs(g3.surface_residual(e.X, e.Y, e.Z)) < 1e-10


def test_surface_fixed_points():
    assert g3.surface_residual(0, 0, 0) == 0
    assert g3.surface_residual(0, 0, 1) == 0


def test_discriminant_transcription_via_quartic(rng):
    # the transcribed polynomial must be proportional to the resultant-based
    # discriminant of the support quartic; the ratio is a fixed constant
    from numpy.polynomial import polynomial as P

    def resultant(p, q):
        # Sylvester determinant, coefficients highest degree first
        pn, qn = len(p) - 1, len(q) - 1
        S = np.zeros((pn + qn, pn + qn))
        for i in range(qn):
            S[i, i:i + pn + 1] = p
        for i in range(pn):
            S[qn + i, i:i + qn + 1] = q
        return float(np.linalg.det(S))

    ratios = []
    for _ in range(20):
        q = g3.StateCoords(*rng.uniform(-0.5, 0.5, 4))
        c = g3.support_quartic(q)
        dc = np.polyder(c)
        disc = resultant(c, dc) / c[0]
        d = g3.discriminant(q)
        if abs(disc) > 1e-8:
            ratios.append(d / disc)
    ratios = np.array(ratios)
    assert np.allclose(ratios, ratios[0], rtol=1e-6)


def test_discriminant_vanishes_on_boundary(rng):
    for _ in range(100):
        x, y = rng.uniform(0, 2 * np.pi, 2)
        s = rng.uniform(0, 1)
        b = g3.beta(x, y, s)
        assert abs(g3.discriminant(b)) < 1e-10


def test_gradient_vanishes_exactly_on_extreme_states(rng):
    for _ in range(50):
        x, y = rng.uniform(0, 2 * np.pi, 2)
        e = g3.epsilon_state(x, y)
        assert np.abs(g3.grad_discriminant(e)).max() < 1e-10
    # interior of the segments is non-singular
    count = 0
    for _ in range(50):
        x = rng.uniform(0, 2 * np.pi)
        y = x + rng.uniform(0.5, np.pi - 0.5)
        s = rng.uniform(0.1, 0.9)
        if np.abs(g3.grad_discriminant(g3.beta(x, y, s))).max() > 1e-6:
            count += 1
    assert count == 50


def test_grad_discriminant_matches_finite_differences(rng):
    q = g3.StateCoords(*rng.uniform(-0.5, 0.5, 4))
    g = g3.grad_discriminant(q)
    h = 1e-6
    for i in range(4):
        v = list(q.as_tuple())
        v[i] += h
        up = g3.discriminant(g3.StateCoords(*v))
        v[i] -= 2 * h
        dn = g3.discriminant(g3.StateCoords(*v))
        assert g[i] == pytest.approx((up - dn) / (2 * h), abs=1e-5, rel=1e-5)


def test_epsilon_is_pure_state(rng):
    basis = [g3.ConeCoords(*v) for v in np.eye(5)]
    for _ in range(20):
        x, y = rng.uniform(0, 2 * np.pi, 2)
        e = g3.epsilon_state(x, y)
        xi = ts.pure_state_from_angles([x, y]).xi
        for p in basis:
            ref = float(np.real(np.vdot(xi, p.toeplitz().dense() @ xi)))
            assert e(p) == pytest.approx(ref, abs=1e-12)


def test_sample_surfaces():
    header, rows = g3.sample_surfaces("state-surface", 50, seed=1)
    assert header == ("X", "Y", "Z")
    assert len(rows) == 50
    for X, Y, Z in rows:
        assert abs(g3.surface_residual(X, Y, Z)) < 1e-8
    header, rows = g3.sample_surfaces("cone-slice", 40, seed=1)
    for a, b, c, d in rows:
        assert abs(g3.delta(g3.ConeCoords(a, b, c, d))) < 1e-10
    header, rows = g3.sample_surfaces("boundary", 10, seed=1)
    for row in rows:
        assert abs(g3.discriminant(g3.StateCoords(*row))) < 1e-10
    assert g3.sample_surfaces("boundary", 0)[1] == []
    with pytest.raises(ValueError):
        g3.sample_surfaces("nope", 1)


def test_run_checks():
    out = g3.run_checks(samples=200)
    assert out["ok"]


def test_discriminant_arrays_match_scalar_api(rng):
    pts = rng.uniform(-1, 1, size=(4, 6, 5))
    values = g3._discriminant_values(pts)
    grads = g3._grad_discriminant_values(pts)
    assert values.shape == (6, 5) and grads.shape == (4, 6, 5)
    for idx in np.ndindex(6, 5):
        q = g3.StateCoords(*pts[(slice(None),) + idx])
        assert values[idx] == pytest.approx(g3.discriminant(q), rel=1e-12)
        assert np.allclose(grads[(slice(None),) + idx],
                           g3.grad_discriminant(q), rtol=1e-12, atol=0)


def test_discriminant_equals_plain_sum_over_terms():
    W, X, Y, Z = 0.3, -0.7, 0.45, 0.2
    plain = sum(c * W ** pw * X ** px * Y ** py * Z ** pz
                for c, (pw, px, py, pz) in g3.DISCRIMINANT_TERMS)
    assert g3.discriminant(g3.StateCoords(W, X, Y, Z)) == pytest.approx(
        plain, rel=1e-12)
