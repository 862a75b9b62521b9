import numpy as np
import pytest

import toepsys as ts


def random_palindromic(n, rng):
    """A random palindromic sequence (real circle function, any sign)."""
    half = rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)
    return ts.fr_from_coeffs(
        np.concatenate([np.conj(half[::-1]), [rng.normal() + 0j], half]))


def random_positive_fr(n, rng, margin=None):
    """A random nonnegative palindromic sequence, lifted above its minimum."""
    a = random_palindromic(n, rng)
    m, _ = ts.trig_minimum(a)
    if margin is None:
        margin = float(rng.uniform(0.0, 1.0))
    coeffs = a.a.copy()
    coeffs[n - 1] += -m + margin
    return ts.fr_from_coeffs(coeffs)


def boundary_density(n, rng):
    """|q|^2 for q with simple and double roots at random circle angles and
    the remaining roots in the disc: circle roots of multiplicity 2 and 4."""
    simple = np.exp(1j * rng.uniform(0, 2 * np.pi, n // 8))
    double = np.exp(1j * rng.uniform(0, 2 * np.pi, n // 16))
    inner = n - 1 - simple.size - 2 * double.size
    disc = rng.uniform(0.3, 0.9, inner) * np.exp(
        1j * rng.uniform(0, 2 * np.pi, inner))
    roots = np.concatenate([simple, double, double, disc])
    q = np.poly(roots)[::-1]
    q /= np.linalg.norm(q)
    return ts.fr_from_coeffs(np.convolve(np.conj(q[::-1]), q))


def pure_density(n, rng):
    """The density of a pure state with n-1 random circle nodes."""
    return ts.pure_state_from_angles(rng.uniform(0, 2 * np.pi, n - 1)).state().density


def dense_samples(a, N=2 ** 16):
    """The circle function of a on N equispaced angles, by one FFT."""
    w = np.zeros(N, dtype=complex)
    w[np.arange(-a.n + 1, a.n) % N] = a.a
    return np.real(np.fft.ifft(w)) * N


def random_hermitian_toeplitz(n, rng):
    half = rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)
    return ts.toeplitz_from_coeffs(
        np.concatenate([np.conj(half[::-1]), [rng.normal() + 0j], half]))


def separated_angles(r, rng, gap=0.1):
    """r angles on the circle with pairwise (cyclic) separation above gap."""
    while True:
        a = np.sort(rng.uniform(0, 2 * np.pi, r))
        if r == 1 or np.diff(np.concatenate([a, [a[0] + 2 * np.pi]])).min() > gap:
            return a


def slotted_angles(r, rng):
    """r angles, one per slot of width 2 pi / r, at least min(0.1, pi / 2r)
    apart."""
    width = 2 * np.pi / r
    gap = min(0.1, np.pi / (2 * r))
    return np.sort(np.arange(r) * width + rng.uniform(0, width - gap, r))


def rays_toeplitz(n, angles, weights):
    T = ts.toeplitz_from_coeffs(np.zeros(2 * n - 1, dtype=complex))
    for a, w in zip(angles, weights):
        T = T + float(w) * ts.extreme_ray(np.exp(1j * a), n)
    return T


def random_positive_toeplitz(n, r, rng, gap=0.0):
    """Sum of r extreme rays with random weights; gap > 0 separates nodes."""
    if gap > 0:
        angles = separated_angles(r, rng, gap)
    else:
        angles = rng.uniform(0, 2 * np.pi, r)
    return rays_toeplitz(n, angles, rng.uniform(0.2, 2.0, r))


def random_state(n, rng, min_mix=0.2):
    """A random mixture of two pure states."""
    s1 = ts.pure_state_from_angles(rng.uniform(0, 2 * np.pi, n - 1)).state()
    s2 = ts.pure_state_from_angles(rng.uniform(0, 2 * np.pi, n - 1)).state()
    lam = float(rng.uniform(min_mix, 1 - min_mix))
    return ts.state_from_density(
        ts.fr_from_coeffs(lam * s1.density.a + (1 - lam) * s2.density.a))


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


# acceptance criterion verdicts, echoed after the run so they survive
# pytest's fd-level output capture
acceptance_lines = []


def pytest_terminal_summary(terminalreporter):
    for line in acceptance_lines:
        terminalreporter.write_line(line)
