import numpy as np
import pytest

import toepsys as ts
from toepsys import geometry3 as g3

# The paper's boundary sextic d(W, X, Y, Z) as (coefficient, (pW, pX, pY,
# pZ)) terms: an independent reference for geometry3's evaluation through
# the support quartic's invariants
DISCRIMINANT_TERMS = [
    (1, (6, 0, 0, 0)),
    (3, (4, 2, 0, 0)),
    (15, (4, 0, 2, 0)),
    (-18, (4, 0, 1, 0)),
    (-12, (4, 0, 0, 2)),
    (-1, (4, 0, 0, 0)),
    (108, (3, 1, 1, 1)),
    (-36, (3, 1, 0, 1)),
    (3, (2, 4, 0, 0)),
    (-78, (2, 2, 2, 0)),
    (84, (2, 2, 0, 2)),
    (-2, (2, 2, 0, 0)),
    (48, (2, 0, 4, 0)),
    (-144, (2, 0, 3, 0)),
    (96, (2, 0, 2, 2)),
    (80, (2, 0, 2, 0)),
    (-144, (2, 0, 1, 2)),
    (16, (2, 0, 1, 0)),
    (48, (2, 0, 0, 4)),
    (80, (2, 0, 0, 2)),
    (-108, (1, 3, 1, 1)),
    (-36, (1, 3, 0, 1)),
    (-288, (1, 1, 2, 1)),
    (-288, (1, 1, 0, 3)),
    (32, (1, 1, 0, 1)),
    (1, (0, 6, 0, 0)),
    (15, (0, 4, 2, 0)),
    (18, (0, 4, 1, 0)),
    (-12, (0, 4, 0, 2)),
    (-1, (0, 4, 0, 0)),
    (48, (0, 2, 4, 0)),
    (144, (0, 2, 3, 0)),
    (96, (0, 2, 2, 2)),
    (80, (0, 2, 2, 0)),
    (144, (0, 2, 1, 2)),
    (-16, (0, 2, 1, 0)),
    (48, (0, 2, 0, 4)),
    (80, (0, 2, 0, 2)),
    (-64, (0, 0, 6, 0)),
    (-192, (0, 0, 4, 2)),
    (128, (0, 0, 4, 0)),
    (-192, (0, 0, 2, 4)),
    (256, (0, 0, 2, 2)),
    (-64, (0, 0, 2, 0)),
    (-64, (0, 0, 0, 6)),
    (128, (0, 0, 0, 4)),
    (-64, (0, 0, 0, 2)),
]


def _table_sums(W, X, Y, Z):
    """The table's value and gradient at one point, by plain sums."""
    v = (W, X, Y, Z)
    value = sum(c * W ** pw * X ** px * Y ** py * Z ** pz
                for c, (pw, px, py, pz) in DISCRIMINANT_TERMS)
    grad = [sum(c * p[i] * np.prod([v[j] ** (p[j] - (j == i))
                                    for j in range(4)])
                for c, p in DISCRIMINANT_TERMS if p[i])
            for i in range(4)]
    return value, grad


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


def test_cone_coordinates_round_trip(rng):
    for _ in range(50):
        p = g3.ConeCoords(*rng.uniform(-2, 2, 5))
        T = p.toeplitz()
        assert g3.cone_from_toeplitz(T).as_tuple() == p.as_tuple()
        assert np.array_equal(g3.cone_from_toeplitz(T).toeplitz().t, T.t)
    with pytest.raises(ValueError):
        g3.cone_from_toeplitz(ts.compress_symbol({0: 1.0}, 4))
    with pytest.raises(ValueError):
        g3.cone_from_toeplitz(ts.toeplitz_from_coeffs([1, 2j, 3, 4, 5]))


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
    # the boundary polynomial must be proportional to the resultant-based
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
    # the normalization: d is -1/256 times the quartic's discriminant
    assert np.allclose(ratios, -1 / 256, rtol=1e-6)


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
    values = g3.discriminant(g3.StateCoords(*pts))
    grads = g3.grad_discriminant(g3.StateCoords(*pts))
    assert values.shape == (6, 5) and grads.shape == (4, 6, 5)
    for idx in np.ndindex(6, 5):
        point = pts[(slice(None),) + idx]
        q = g3.StateCoords(*point)
        value, grad = _table_sums(*point.tolist())
        assert values[idx] == pytest.approx(g3.discriminant(q), rel=1e-12)
        assert values[idx] == pytest.approx(value, rel=1e-12)
        assert np.allclose(grads[(slice(None),) + idx],
                           g3.grad_discriminant(q), rtol=1e-12, atol=0)
        assert np.allclose(grads[(slice(None),) + idx], grad,
                           rtol=1e-12, atol=0)


def test_discriminant_equals_plain_sum_over_terms():
    W, X, Y, Z = 0.3, -0.7, 0.45, 0.2
    plain = sum(c * W ** pw * X ** px * Y ** py * Z ** pz
                for c, (pw, px, py, pz) in DISCRIMINANT_TERMS)
    assert g3.discriminant(g3.StateCoords(W, X, Y, Z)) == pytest.approx(
        plain, rel=1e-12)


def test_negative_counts_are_rejected():
    for kind in ("cone-slice", "state-surface", "boundary"):
        with pytest.raises(ValueError, match="count must be >= 0"):
            g3.sample_surfaces(kind, -2)
    for samples in (0, -1):
        with pytest.raises(ValueError, match="samples >= 1"):
            g3.run_checks(samples=samples)


def _assert_matches(arrays, scalars):
    """Array results against stacked per-point scalar results, 1e-15
    relative to their size."""
    ref = np.asarray(scalars)
    np.testing.assert_allclose(np.asarray(arrays), ref,
                               rtol=1e-15, atol=1e-15 * np.abs(ref).max())


def test_array_calls_match_scalar_calls(rng):
    k = 300
    x, y = rng.uniform(0, 2 * np.pi, size=(2, k))
    s = rng.uniform(0, 1, k)
    pts = rng.uniform(-2, 2, size=(4, k))
    p = g3.ConeCoords(*pts)
    scalar_points = [g3.ConeCoords(*col) for col in pts.T]
    assert all(type(v) is float for v in scalar_points[0].as_tuple())
    assert type(g3.delta(scalar_points[0])) is float
    _assert_matches(g3.delta(p), [g3.delta(q) for q in scalar_points])
    _assert_matches(g3.grad_delta(p),
                    np.transpose([g3.grad_delta(q) for q in scalar_points]))
    _assert_matches(np.linalg.det(p.dense()),
                    [np.linalg.det(q.toeplitz().dense()) for q in scalar_points])
    for name, args in (("gamma_curve", (x,)), ("sigma", (x, y, s)),
                       ("epsilon_state", (x, y)), ("beta", (x, y, s))):
        f = getattr(g3, name)
        points = [f(*a) for a in zip(*args)]
        assert all(type(v) is float for v in points[0].as_tuple())
        _assert_matches(np.broadcast_arrays(*f(*args).as_tuple()),
                        np.transpose([q.as_tuple() for q in points]))
    e = g3.epsilon_state(x, y)
    scalar_states = [g3.epsilon_state(*a) for a in zip(x, y)]
    _assert_matches(e(p), [f(q) for f, q in zip(scalar_states, scalar_points)])
    _assert_matches(g3.surface_residual(e.X, e.Y, e.Z),
                    [g3.surface_residual(f.X, f.Y, f.Z) for f in scalar_states])
    with pytest.raises(ValueError):
        p.toeplitz()
    # the discriminant's arrays are compared in
    # test_discriminant_arrays_match_scalar_api; coordinates of mixed
    # shapes broadcast
    assert type(g3.discriminant(scalar_states[0])) is float
    assert g3.grad_delta(g3.ConeCoords(0, 0, x, 0)).shape == (4, k)
    assert g3.discriminant(g3.StateCoords(0, x, 0.1, 0)).shape == (k,)
    mixed = [g3.support_quartic(g3.StateCoords(0, u, 0.1, v))
             for u, v in zip(x, y)]
    _assert_matches(g3.support_quartic(g3.StateCoords(0, x, 0.1, y)),
                    np.transpose(mixed))


def _reference_samples(kind, count, seed, slice_d=-0.4):
    """The point clouds by one scalar draw and one scalar call per point."""
    rng = np.random.default_rng(seed)
    rows = []
    if kind == "cone-slice":
        while len(rows) < count:
            a = rng.uniform(-1.5, 1.5)
            b = rng.uniform(-1.5, 1.5)
            q2 = -1.0
            q1 = 2 * a * a - 2 * b * b
            q0 = (-2 * a * a + 4 * a * b * slice_d - 2 * b * b
                  - slice_d * slice_d + 1)
            disc = q1 * q1 - 4 * q2 * q0
            if disc < 0:
                continue
            for sgn in (1.0, -1.0):
                if len(rows) >= count:
                    break
                rows.append((a, b, (-q1 + sgn * np.sqrt(disc)) / (2 * q2),
                             slice_d))
    elif kind == "state-surface":
        for x, y in rng.uniform(0, 2 * np.pi, size=(count, 2)):
            rows.append(g3.epsilon_state(x, y).as_tuple()[1:])
    else:
        for x, y, s in rng.uniform(0, 1, size=(count, 3)):
            rows.append(g3.beta(2 * np.pi * x, 2 * np.pi * y, s).as_tuple())
    return rows


@pytest.mark.parametrize("kind", ["cone-slice", "state-surface", "boundary"])
@pytest.mark.parametrize("seed", [1, 2024])
def test_sample_surfaces_match_scalar_reference(kind, seed):
    _, rows = g3.sample_surfaces(kind, 101, seed=seed)
    assert all(type(v) is float for row in rows for v in row)
    ref = _reference_samples(kind, 101, seed)
    assert len(rows) == len(ref) == 101
    np.testing.assert_allclose(rows, ref, rtol=0, atol=1e-15)


def _reference_checks(samples, seed):
    """The residuals of run_checks by one scalar call per sample."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0, 2 * np.pi, samples)
    ys = rng.uniform(0, 2 * np.pi, samples)
    ss = rng.uniform(0, 1, samples)
    pts = rng.uniform(-2, 2, size=(samples, 4))
    eps = [g3.epsilon_state(x, y) for x, y in zip(xs, ys)]
    out = {
        "delta_on_sigma": max(abs(g3.delta(g3.sigma(x, y, s)))
                              for x, y, s in zip(xs, ys, ss)),
        "grad_delta_on_gamma": max(np.abs(g3.grad_delta(g3.gamma_curve(x))).max()
                                   for x in xs),
        "delta_vs_det": max(abs(g3.delta(g3.ConeCoords(*p)) - np.real(
            np.linalg.det(g3.ConeCoords(*p).toeplitz().dense()))) for p in pts),
        "surface_on_epsilon": max(abs(g3.surface_residual(e.X, e.Y, e.Z))
                                  for e in eps),
        "discriminant_on_beta": max(abs(g3.discriminant(g3.beta(x, y, s)))
                                    for x, y, s in zip(xs, ys, ss)),
        "grad_discriminant_on_epsilon": max(
            np.abs(g3.grad_discriminant(e)).max() for e in eps),
        "epsilon_symmetry": max(
            np.abs(np.subtract(e.as_tuple(),
                               g3.epsilon_state(y, x).as_tuple())).max()
            for e, x, y in zip(eps, xs, ys)),
    }
    basis = [g3.ConeCoords(*row) for row in np.eye(5)]
    out["epsilon_pure_state_bridge"] = max(
        abs(e(p) - np.real(np.vdot(xi, p.toeplitz().dense() @ xi)))
        for e, xi in ((e, ts.pure_state_from_angles([x, y]).xi)
                      for e, x, y in zip(eps[:100], xs, ys))
        for p in basis)
    out["gamma_extreme_ray_bridge"] = max(
        np.abs(g3.gamma_curve(x).toeplitz().dense()
               - 3.0 * ts.extreme_ray(np.exp(1j * x), 3).dense()).max()
        for x in xs[:100])
    return out


def test_run_checks_match_scalar_reference():
    out = g3.run_checks(samples=50, seed=3)
    ref = _reference_checks(50, 3)
    assert out["ok"] is True
    assert list(out) == list(ref) + ["ok"]
    for key, val in ref.items():
        assert type(out[key]) is float
        assert out[key] == pytest.approx(val, rel=0, abs=1e-12), key


@pytest.mark.parametrize("name", ["delta", "surface_residual", "discriminant"])
def test_run_checks_bite(monkeypatch, name):
    f = getattr(g3, name)
    monkeypatch.setattr(g3, name, lambda *args: f(*args) + 1e-6)
    assert g3.run_checks(samples=50)["ok"] is False
