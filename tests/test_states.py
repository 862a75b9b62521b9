import numpy as np
import pytest

import toepsys as ts
from toepsys.core import CircleLayer
from toepsys.factor import laurent_roots
from toepsys import states
from toepsys.states import (_damped_fit, _fits_pure, _has_positive_well,
                            _log_fit, _log_model, _node_density,
                            _node_jacobian, _paired_nodes)

from conftest import random_hermitian_toeplitz, random_state, slotted_angles


def test_trace_state():
    s = ts.trace_state(3)
    eye = ts.compress_symbol({0: 1.0}, 3)
    assert ts.evaluate(s, eye) == pytest.approx(1.0)
    G = ts.extreme_ray(np.exp(0.4j), 3)
    assert ts.evaluate(s, G) == pytest.approx(1.0 / 3)


def test_state_normalization():
    a = ts.fr_from_coeffs([0, 2.0, 0])
    s = ts.state_from_density(a)
    assert s.density.coeff(0) == pytest.approx(1.0)


def test_invalid_densities_rejected():
    with pytest.raises(ValueError):
        ts.state_from_density(ts.fr_from_coeffs([0.8, 1.0, 0.8]))
    with pytest.raises(ValueError):
        ts.state_from_density(ts.fr_from_coeffs([0.5, -1.0, 0.5]))
    with pytest.raises(ValueError):
        ts.state_from_density(ts.fr_from_coeffs([1.0, 1.0, 0.5]))
    # asymmetric by 3e-6 relative: within allclose's default rtol only
    with pytest.raises(ValueError, match="palindromic"):
        ts.state_from_density(ts.fr_from_coeffs([0.1 * (1 + 3e-6), 1, 0.1]))


def test_small_tol_is_honoured():
    # min of the circle function is -2e-10, about -1e-10 ||a||_1
    a = ts.fr_from_coeffs([0.5, 1 - 2e-10, 0.5])
    ts.state_from_density(a)
    with pytest.raises(ValueError, match="nonnegative"):
        ts.state_from_density(a, tol=1e-12)


def test_states_positive_on_positive(rng):
    for _ in range(30):
        n = int(rng.integers(2, 8))
        s = random_state(n, rng)
        G = ts.extreme_ray(np.exp(1j * rng.uniform(0, 2 * np.pi)), n)
        assert ts.evaluate(s, G) >= -1e-12


def test_pure_state_known_vectors():
    ps = ts.pure_state_from_angles([0.0, 0.0])
    assert np.allclose(ps.xi, np.array([1, 2, 1]) / np.sqrt(6))
    ps = ts.pure_state_from_angles([np.pi])
    assert np.allclose(ps.xi, np.array([1, -1]) / np.sqrt(2))


def test_pure_state_closed_form(rng):
    # xi = (1, e^{ix} + e^{iy}, e^{i(x+y)}) / sqrt(4 + 2 cos(x-y))
    for _ in range(20):
        x, y = rng.uniform(0, 2 * np.pi, 2)
        ps = ts.pure_state_from_angles([x, y])
        ref = np.array([1, np.exp(1j * x) + np.exp(1j * y),
                        np.exp(1j * (x + y))])
        ref /= np.sqrt(4 + 2 * np.cos(x - y))
        assert np.allclose(ps.xi, ref)


@pytest.mark.parametrize("n", [64, 128])
def test_pure_state_many_nodes(rng, n):
    # one node per slot: xi(z) = prod (1 + e^{i angle_j} z) vanishes at
    # z = -e^{-i angle_j} to rounding, and the state is pure
    angles = slotted_angles(n - 1, rng)
    ps = ts.pure_state_from_angles(angles)
    at_nodes = np.polyval(ps.xi[::-1], -np.exp(-1j * angles))
    assert np.abs(at_nodes).max() <= 1e-12 * np.abs(ps.xi).sum()
    assert ts.is_pure(ps.state())


def test_pure_state_permutation_invariance(rng):
    ang = rng.uniform(0, 2 * np.pi, 4)
    a = ts.pure_state_from_angles(ang).state().density.a
    b = ts.pure_state_from_angles(ang[::-1]).state().density.a
    assert np.allclose(a, b)


def test_vector_state_is_quadratic_form(rng):
    for _ in range(20):
        n = int(rng.integers(2, 8))
        xi = rng.normal(size=n) + 1j * rng.normal(size=n)
        T = random_hermitian_toeplitz(n, rng)
        s = ts.vector_state(xi)
        u = xi / np.linalg.norm(xi)
        assert ts.evaluate(s, T) == pytest.approx(
            float(np.real(np.vdot(u, T.dense() @ u))), abs=1e-11)


def test_rotation_equivariance(rng):
    ang = rng.uniform(0, 2 * np.pi, 3)
    alpha = 0.613
    d0 = ts.pure_state_from_angles(ang).state().density
    d1 = ts.pure_state_from_angles(ang + alpha).state().density
    k = np.arange(-d0.n + 1, d0.n)
    assert np.allclose(d1.a, d0.a * np.exp(1j * k * alpha))


def test_is_pure_conventions(rng):
    assert not ts.is_pure(ts.trace_state(3))
    assert ts.is_pure(ts.pure_state_from_angles([0.0, 0.0]).state())
    # degenerate density: 1 + cos theta viewed in n = 3 misses two roots
    onecos = ts.state_from_density(ts.fr_from_coeffs([0, 0.5, 1, 0.5, 0]))
    assert not ts.is_pure(onecos)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        s = ts.pure_state_from_angles(rng.uniform(0, 2 * np.pi, n - 1)).state()
        assert ts.is_pure(s)
        assert not ts.is_pure(random_state(n, rng))
    # at n = 16 and 32, random nodes crowd into arcs where the density is
    # below rounding level; its Laurent roots there scatter far off the circle
    for n in [16] * 12 + [32] * 6:
        s = ts.pure_state_from_angles(rng.uniform(0, 2 * np.pi, n - 1)).state()
        assert ts.is_pure(s)
        assert not ts.is_pure(random_state(n, rng))


def test_is_pure_is_a_backward_error():
    # nodes pulled to radius 1 - eps: the nearest pure density is O(eps^2) away
    angles = np.array([0.3, 1.4, 2.0, 3.5, 5.1])
    near = ts.vector_state(np.poly((1 - 1e-5) * np.exp(1j * angles))[::-1])
    assert ts.is_pure(near)
    off = ts.vector_state(np.poly((1 - 1e-2) * np.exp(1j * angles))[::-1])
    assert not ts.is_pure(off)
    assert ts.is_pure(off, tol=1e-2)


def test_node_jacobian_matches_central_differences():
    n = 8
    L = 2 * n
    phi = 2 * np.pi * np.arange(L) / L
    rng = np.random.default_rng(8)
    theta = rng.uniform(0, 2 * np.pi, n - 1)
    theta[0] = phi[3]  # a node on a sample: a double zero there
    log_s = -0.3
    vals, _, h = _node_density(theta, log_s, phi)
    J = _node_jacobian(vals, h)
    assert np.all(np.isfinite(J)) and J[3, 0] == 0.0
    x, eps = np.append(theta, log_s), 1e-6
    for j in range(n):
        e = np.zeros(n)
        e[j] = eps
        up = _node_density((x + e)[:-1], (x + e)[-1], phi)[0]
        down = _node_density((x - e)[:-1], (x - e)[-1], phi)[0]
        assert np.allclose(J[:, j], (up - down) / (2 * eps),
                           rtol=1e-6, atol=1e-8 * np.abs(vals).max())


def test_log_jacobian_matches_central_differences():
    n, L = 8, 64
    phi = 2 * np.pi * np.arange(L) / L
    rng = np.random.default_rng(9)
    theta = rng.uniform(0, 2 * np.pi, n - 1)
    theta[0] = phi[3]  # a node on a sample: log clamped, no log(0)
    log_s = -0.3
    f, J = _log_model(theta, log_s, phi)
    assert np.all(np.isfinite(f)) and np.all(np.isfinite(J)) and J[3, 0] == 0.0
    x, eps = np.append(theta, log_s), 1e-6
    for j in range(n):
        e = np.zeros(n)
        e[j] = eps
        up = _log_model((x + e)[:-1], (x + e)[-1], phi)[0]
        down = _log_model((x - e)[:-1], (x - e)[-1], phi)[0]
        assert np.allclose(J[:, j], (up - down) / (2 * eps), rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
def test_is_pure_pure_and_mixed(n):
    rng = np.random.default_rng(n)
    for _ in range(3):
        s = ts.pure_state_from_angles(rng.uniform(0, 2 * np.pi, n - 1)).state()
        assert ts.is_pure(s)
        assert not ts.is_pure(random_state(n, rng))


def test_pure_states_nonnegative_on_rays(rng):
    for _ in range(20):
        n = int(rng.integers(2, 7))
        ps = ts.pure_state_from_angles(rng.uniform(0, 2 * np.pi, n - 1))
        lam = np.exp(1j * rng.uniform(0, 2 * np.pi))
        val = ts.evaluate(ps.state(), ts.extreme_ray(lam, n))
        f = ts.fourier_vector(lam, n)
        assert val == pytest.approx(abs(np.vdot(f, ps.xi)) ** 2, abs=1e-11)
        assert val >= -1e-12


def _pure_node_sets(n, rng):
    """Node sets of the pure states at size n: random, one per slot,
    repeated in pairs, and in clusters of width 1e-3."""
    r = n - 1
    centres = rng.uniform(0, 2 * np.pi, (r + 3) // 4)
    yield rng.uniform(0, 2 * np.pi, r)
    yield slotted_angles(r, rng)
    yield np.repeat(rng.uniform(0, 2 * np.pi, (r + 1) // 2), 2)[:r]
    yield (np.repeat(centres, 4)[:r] + rng.uniform(0, 1e-3, r)) % (2 * np.pi)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 12, 16, 24, 32, 48, 64, 96, 128])
def test_positive_well_never_on_pure_states(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(3):
        for angles in _pure_node_sets(n, rng):
            a = ts.pure_state_from_angles(angles).state().density.a
            assert not _has_positive_well(CircleLayer(a), 1e-6)
            assert not _has_positive_well(CircleLayer(a), 1e-12)
    assert not _has_positive_well(CircleLayer(ts.pure_state_from_angles([0.0, 0.0]).state().density.a), 1e-6)
    # the state of test_is_pure_is_a_backward_error whose nodes sit at
    # radius 1 - 1e-5: a pure density lies O(1e-10) away
    angles = np.array([0.3, 1.4, 2.0, 3.5, 5.1])
    near = ts.vector_state(np.poly((1 - 1e-5) * np.exp(1j * angles))[::-1])
    assert not _has_positive_well(CircleLayer(near.density.a), 1e-6)


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_positive_well_agrees_with_the_fit(n):
    # where the well answers, the node fit started as is_pure starts it
    # finds no pure density either; it answers on most mixtures
    rng = np.random.default_rng(200 + n)
    fired = 0
    for _ in range(6):
        a = random_state(n, rng).density
        if _has_positive_well(CircleLayer(a.a), 1e-6):
            fired += 1
            assert not _fits_pure(a.a, _paired_nodes(laurent_roots(a)), 1e-6)
    assert fired >= 4


def test_positive_well_hand_built():
    # 1 + cos(2 theta) / 2: minima 1/2 at +-pi / 2 between maxima 3/2
    well = ts.fr_from_coeffs([0.25, 0, 1, 0, 0.25])
    assert _has_positive_well(CircleLayer(well.a), 1e-6)
    assert not ts.is_pure(ts.state_from_density(well))
    # (1 + cos theta)(1 + cos(theta) / 2): one double zero at pi and one
    # maximum, no well; not pure (one node at n = 3), which the fit decides
    hump = ts.fr_from_coeffs([0.125, 0.75, 1.25, 0.75, 0.125])
    assert not _has_positive_well(CircleLayer(hump.a), 1e-6)
    assert not ts.is_pure(ts.state_from_density(hump))
    # a constant has no well at any size
    assert not _has_positive_well(CircleLayer(ts.trace_state(4).density.a), 1e-6)
    assert not _has_positive_well(CircleLayer(ts.trace_state(1).density.a), 1e-6)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 12, 16, 24, 32, 48, 64, 96, 128])
def test_log_fit_never_gives_up_on_pure_states(n):
    # the log-space give-up is not certified; on pure densities it must not
    # fire, so that the certified value fit decides them
    for angles in _pure_node_sets(n, np.random.default_rng(300 + n)):
        d = ts.pure_state_from_angles(angles).state().density
        theta = _log_fit(CircleLayer(d.a), _paired_nodes(laurent_roots(d)), 1e-6)
        assert theta is not None


@pytest.mark.parametrize("n, least", [(64, 12), (128, 11)])
def test_is_pure_random_nodes_at_large_n(n, least):
    # random nodes crowd into arcs below rounding, where a fit in values is
    # steered by nothing; the log-space start reaches 12 and 11 of 12 here
    passed = 0
    for seed in range(12):
        rng = np.random.default_rng(seed)
        passed += ts.is_pure(ts.pure_state_from_angles(rng.uniform(0, 2 * np.pi, n - 1)).state())
        assert not ts.is_pure(random_state(n, rng))
    assert passed >= least


def _record_exits(monkeypatch):
    """The (exit, steps) of every ``_damped_fit`` call from now on."""
    seen, fit = [], states._damped_fit

    def recorded(*args):
        out = fit(*args)
        seen.append(out[2:])
        return out

    monkeypatch.setattr(states, "_damped_fit", recorded)
    return seen


def test_singular_solves_end_at_damping():
    # a zero Jacobian makes every solve singular; each counts as a rejected
    # step, so the damping grows until the loop gives up, and nothing raises
    fit = (np.ones(3), lambda: np.zeros((3, 2)))
    x, r, exit, steps = _damped_fit(lambda x: fit, np.zeros(2), fit,
                                    lambda steps, fit, cost: None)
    assert exit == "damping" and steps > 0
    assert np.all(x == 0) and np.all(r == 1)


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_log_fit_within_floor_takes_no_step(monkeypatch, n):
    # started at the exact nodes pi - angle, the log residual is within what
    # the rounding of the samples accounts for
    seen = _record_exits(monkeypatch)
    angles = np.random.default_rng(n).uniform(0, 2 * np.pi, n - 1)
    nodes = (np.pi - angles) % (2 * np.pi)
    a = ts.pure_state_from_angles(angles).state().density.a
    assert np.array_equal(_log_fit(CircleLayer(a), nodes, 1e-6), nodes)
    assert seen == [("floor", 0)]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 12, 16, 24, 32, 48, 64, 96, 128])
def test_fit_exits_are_named(monkeypatch, n):
    seen = _record_exits(monkeypatch)
    for angles in _pure_node_sets(n, np.random.default_rng(400 + n)):
        d = ts.pure_state_from_angles(angles).state().density
        theta = _log_fit(CircleLayer(d.a), _paired_nodes(laurent_roots(d)), 1e-6)
        assert seen.pop()[0] in {"floor", "slow", "damping"}
        if theta is not None:
            _fits_pure(d.a, theta, 1e-6)
            assert seen.pop()[0] in {"certified", "window", "cap", "damping"}
