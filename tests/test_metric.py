import time

import numpy as np
import pytest

import toepsys as ts
from toepsys import metric
from toepsys.metric import connes_via_dual

from conftest import random_palindromic, random_state


def n2_state(w):
    a1 = (w[0] + 1j * w[1]) / 2
    return ts.state_from_density(ts.fr_from_coeffs([np.conj(a1), 1.0, a1]))


def test_dirac_commutator_coefficients():
    eye = ts.compress_symbol({0: 1.0}, 3)
    assert np.abs(ts.dirac_commutator(eye).t).max() == 0
    tau1 = ts.compress_symbol({1: 1.0}, 3)
    assert np.allclose(ts.dirac_commutator(tau1).t,
                       (1j * tau1).t)


def test_commutator_matches_dense_bracket(rng):
    n = 5
    half = rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)
    T = ts.toeplitz_from_coeffs(
        np.concatenate([np.conj(half[::-1]), [0.3 + 0j], half]))
    D = ts.DiracTruncation(n).dense()
    assert np.allclose(ts.dirac_commutator(T).dense(),
                       1j * (D @ T.dense() - T.dense() @ D))


def test_n2_commutator_norm():
    # n=2: || d([[u, a-ib],[a+ib, u]]) || = sqrt(a^2 + b^2)
    a, b = 0.3, -0.7
    T = ts.toeplitz_from_coeffs([a - 1j * b, 1.2, a + 1j * b])
    nrm = ts.operator_norm(ts.dirac_commutator(T))
    assert nrm == pytest.approx(np.hypot(a, b), abs=1e-12)


def test_primitive_round_trip(rng):
    b = random_palindromic(4, rng)
    coeffs = b.a.copy()
    coeffs[3] = 0.0
    b = ts.fr_from_coeffs(coeffs)
    B = ts.primitive(b)
    k = np.arange(-3, 4)
    assert np.allclose(1j * k * B.a, b.a)
    with pytest.raises(ValueError):
        ts.primitive(ts.fr_delta(0, 3))


def test_distance_of_state_with_itself(rng):
    s = random_state(3, rng)
    r = ts.connes_distance(s, s)
    assert r.value == pytest.approx(0.0, abs=1e-9)


def test_n2_closed_form(rng):
    for _ in range(25):
        w = rng.uniform(-0.6, 0.6, 2)
        wp = rng.uniform(-0.6, 0.6, 2)
        r = ts.connes_distance(n2_state(w), n2_state(wp))
        assert r.upper - r.lower <= 1e-6 + 1e-12
        assert r.value == pytest.approx(float(np.linalg.norm(w - wp)),
                                        abs=2e-6)


def test_certificates_and_feasibility(rng):
    phi, psi = random_state(4, rng), random_state(4, rng)
    r = ts.connes_distance(phi, psi)
    assert r.lower <= r.value <= r.upper
    assert r.upper - r.lower <= 1e-6 + 1e-12
    assert ts.operator_norm(ts.dirac_commutator(r.optimizer)) <= 1 + 1e-9
    # the optimizer certifies the lower bound
    attained = ts.evaluate(phi, r.optimizer) - ts.evaluate(psi, r.optimizer)
    assert attained == pytest.approx(r.value, abs=1e-9)


def test_symmetry_and_triangle(rng):
    gap = 1e-6
    a, b, c = (random_state(3, rng) for _ in range(3))
    dab = ts.connes_distance(a, b, gap).value
    dba = ts.connes_distance(b, a, gap).value
    dac = ts.connes_distance(a, c, gap).value
    dcb = ts.connes_distance(c, b, gap).value
    assert abs(dab - dba) <= 2 * gap
    assert dab <= dac + dcb + 2 * gap


def test_dual_norm_dominates_l1(rng):
    # || b ||_* >= circle L1 norm of b
    for _ in range(5):
        b = random_palindromic(3, rng)
        r = ts.dual_norm(b)
        theta = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
        l1 = float(np.mean(np.abs(b(theta))))
        assert r.value >= l1 - 1e-4
        assert ts.operator_norm(r.optimizer) <= 1 + 1e-9
    assert ts.dual_norm(ts.fr_from_coeffs([0, 0, 0])).value == 0.0


def test_dual_route_matches_primal(rng):
    gap = 1e-6
    for n in (2, 3, 4):
        phi, psi = random_state(n, rng), random_state(n, rng)
        primal = ts.connes_distance(phi, psi, gap).value
        dual, c = connes_via_dual(phi, psi, gap)
        assert abs(primal - dual) <= 2 * gap
        # the returned shift attains the infimum over c
        B = ts.primitive(psi.density - phi.density)
        shifted = ts.dual_norm(B - ts.fr_delta(0, n, c), gap).value
        assert abs(shifted - dual) <= 2 * gap


def test_dual_route_reports_non_convergence(rng, monkeypatch):
    monkeypatch.setattr(metric, "MAX_NEWTON", 1)
    phi, psi = random_state(3, rng), random_state(3, rng)
    with pytest.raises(RuntimeError, match="lower .* upper"):
        connes_via_dual(phi, psi)


@pytest.mark.parametrize("n, gap", [(3, 1e-8), (6, 1e-8), (16, 1e-6),
                                    (24, 1e-6)])
def test_converges_to_gap(rng, n, gap):
    phi, psi = random_state(n, rng), random_state(n, rng)
    start = time.perf_counter()
    r = ts.connes_distance(phi, psi, gap=gap)
    assert time.perf_counter() - start < 10.0
    assert r.converged
    assert r.lower <= r.upper <= r.lower + gap
    assert ts.operator_norm(ts.dirac_commutator(r.optimizer)) <= 1 + 1e-9


def _hermitian_basis(n, with_t0):
    """Hermitian Toeplitz matrices of the coordinates t_0, Re t_j, Im t_j."""
    out = [ts.compress_symbol({0: 1.0}, n)] if with_t0 else []
    for j in range(1, n):
        for z in (1.0, 1j):
            out.append(ts.compress_symbol({j: z, -j: np.conj(z)}, n))
    return out


def test_dual_matrix_certifies_upper_bound(rng):
    n = 5
    phi, psi = random_state(n, rng), random_state(n, rng)
    r = ts.connes_distance(phi, psi)
    W = r.dual
    assert np.allclose(W, W.conj().T)
    assert r.upper == pytest.approx(np.abs(np.linalg.eigvalsh(W)).sum(),
                                    abs=1e-12)
    # tr(W G_i) is the objective on every constraint direction
    for A in _hermitian_basis(n, with_t0=False):
        G = ts.dirac_commutator(A).dense()
        objective = ts.evaluate(phi, A) - ts.evaluate(psi, A)
        assert abs(np.trace(W @ G) - objective) <= 1e-12
    b = random_palindromic(n, rng)
    r = ts.dual_norm(b)
    for T in _hermitian_basis(n, with_t0=True):
        assert abs(np.trace(r.dual @ T.dense()) - ts.pairing(T, b)) <= 1e-12


def test_kantorovich_oracle():
    uniform = ts.trace_state(2)
    onecos = ts.state_from_density(ts.fr_from_coeffs([0.5, 1.0, 0.5]))
    assert ts.kantorovich(uniform, onecos) == pytest.approx(2 / np.pi,
                                                            abs=1e-8)


def test_kantorovich_basic_properties(rng):
    s = random_state(4, rng)
    assert ts.kantorovich(s, s) == 0.0
    # translation covariance
    phi, psi = random_state(3, rng), random_state(3, rng)
    alpha = 1.1
    k = np.arange(-2, 3)
    rot = np.exp(1j * k * alpha)
    phir = ts.state_from_density(ts.fr_from_coeffs(phi.density.a * rot))
    psir = ts.state_from_density(ts.fr_from_coeffs(psi.density.a * rot))
    assert ts.kantorovich(phir, psir) == pytest.approx(
        ts.kantorovich(phi, psi), abs=1e-8)


def test_connes_dominates_kantorovich(rng):
    for _ in range(10):
        n = int(rng.integers(2, 9))
        phi, psi = random_state(n, rng), random_state(n, rng)
        c = ts.connes_distance(phi, psi)
        k = ts.kantorovich(phi, psi)
        assert c.value >= k - (1e-6 + 1e-8)


@pytest.mark.parametrize("n", [3, 8, 12, 64, 128])
def test_kantorovich_matches_grid_minimum(rng, n):
    # reference: min over a of the rectangle rule for the integral of
    # |alpha - a| on 2^20 angles, attained at the sample median; alpha is
    # the primitive of the density difference over 2 pi, up to a constant
    # that the minimum over a absorbs.  Euler-Maclaurin bounds the rule's
    # error at each kink of |alpha - a| by h^2 |alpha'| / 6.
    quad_tol = 1e-8
    phi, psi = random_state(n, rng), random_state(n, rng)
    c = (phi.density - psi.density).a
    k = np.arange(-n + 1, n)
    N = 2 ** 20
    h = 2 * np.pi / N
    w = np.zeros(N, dtype=complex)
    w[k[k != 0] % N] = c[k != 0] / (2j * np.pi * k[k != 0])
    alpha = np.real(np.fft.ifft(w)) * N
    level = np.median(alpha)
    ref = h * np.abs(alpha - level).sum()
    side = alpha > level
    kinks = side != np.roll(side, -1)
    slope = np.abs(np.roll(alpha, -1) - alpha) / h
    err = h ** 2 / 6 * slope[kinks].sum()
    got = ts.kantorovich(phi, psi, quad_tol=quad_tol)
    assert abs(got - ref) <= quad_tol + 2 * err


def test_kantorovich_zero_quad_tol(rng):
    # the search stops once the bracket is at float resolution
    for n in (2, 5, 12):
        phi, psi = random_state(n, rng), random_state(n, rng)
        exact = ts.kantorovich(phi, psi, quad_tol=0.0)
        assert exact <= ts.kantorovich(phi, psi) + 1e-14
        assert ts.kantorovich(phi, psi) - exact <= 1e-8
