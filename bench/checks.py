"""
Independent references for every result the benchmark gets back.

The tolerances are those of the acceptance gate in tests/test_acceptance.py.
The references are computed here with numpy from the inputs the benchmark
built itself; none of them calls toepsys.
"""

import numpy as np

from inputs import autocorrelation

GAP = 1e-6
QUAD_TOL = 1e-8
#: coefficient l1 bound for a spectral factor, relative to ||a||_1
FACTOR_TOL = 1e-8
#: relative reconstruction error of a node decomposition
RECON_TOL = 1e-8
#: node deviation of kernel_roots against the nodes the matrix was built from
NODE_TOL = 1e-6
CLOSED_FORM_TOL = 1e-6


def factor_error(a, q):
    """||coeff(a - |q|^2)||_1 / ||a||_1, a rigorous bound on sup |a - |q|^2|."""
    a = np.asarray(a, dtype=complex)
    b = autocorrelation(q)
    pad = (b.size - a.size) // 2
    if pad > 0:
        a = np.pad(a, pad)
    elif pad < 0:
        b = np.pad(b, -pad)
    return float(np.abs(a - b).sum() / np.abs(a).sum())


def toeplitz_dense(t):
    n = (len(t) + 1) // 2
    idx = np.arange(n)
    return np.asarray(t)[(idx[:, None] - idx[None, :]) + n - 1]


def rays(angles, weights, n):
    k = np.arange(-n + 1, n)
    return (np.exp(1j * np.outer(k, np.asarray(angles, dtype=float)))
            / n) @ np.asarray(weights, dtype=float)


def recon_error(t, angles, weights):
    """max |t - sum_i w_i gamma(angle_i)| relative to the operator norm."""
    n = (len(t) + 1) // 2
    if len(angles) and np.min(weights) < 0:
        return np.inf
    err = np.abs(rays(angles, weights, n) - t).max()
    return float(err / np.linalg.norm(toeplitz_dense(t), 2))


def node_deviation(angles, expected):
    """Largest cyclic distance between matched sorted node angles."""
    a = np.sort(np.asarray(angles, dtype=float) % (2 * np.pi))
    b = np.sort(np.asarray(expected, dtype=float) % (2 * np.pi))
    if a.size != b.size:
        return np.inf
    if a.size == 0:
        return 0.0
    # sorted angles may be cyclically shifted against each other
    return min(float(np.abs((np.roll(a, s) - b + np.pi) % (2 * np.pi) - np.pi).max())
               for s in range(-1, 2))


def distance_ok(connes, kant, converged, lower, upper):
    """The distance certificate and the Kantorovich inequality."""
    return (bool(converged) and upper - lower <= GAP
            and connes >= kant - (GAP + QUAD_TOL))


def tensor_rank_reference(n):
    """Rank of f (x) T -> sum_k f_k S^k (T + 0) S^-k: the map splits by
    wrapped diagonal j, and on diagonal j it is a cyclic convolution with a
    run of n-|j| ones, whose rank is the number of nonzero DFT entries."""
    m = 2 * n - 1
    total = 0
    for j in range(-n + 1, n):
        run = np.zeros(m)
        run[:n - abs(j)] = 1.0
        total += int(np.sum(np.abs(np.fft.fft(run)) > 1e-9 * (n - abs(j))))
    return total


def circle_min(a):
    """Minimum over the circle of each real trig polynomial whose ascending
    coefficients are a row of ``a`` (dense grid, then Newton steps from the
    four best grid points)."""
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    n = (a.shape[1] + 1) // 2
    k = np.arange(-n + 1, n)
    th = np.linspace(0, 2 * np.pi, 64 * n, endpoint=False)
    grid = np.real(a @ np.exp(1j * np.outer(k, th)))
    best = th[np.argsort(grid, axis=1)[:, :4]]
    for _ in range(30):
        e = np.exp(1j * best[:, :, None] * k)
        d1 = np.real(np.einsum("rjk,rk->rj", e, 1j * k * a))
        d2 = np.real(np.einsum("rjk,rk->rj", e, -(k ** 2) * a))
        best = best - np.where(d2 > 0, d1 / np.where(d2 > 0, d2, 1.0), 0.0)
    f = np.real(np.einsum("rjk,rk->rj", np.exp(1j * best[:, :, None] * k), a))
    return np.minimum(f.min(axis=1), grid.min(axis=1))


def sample_rows_ok(kind, rows, count):
    """Points lie on the surface their kind names."""
    rows = np.asarray(rows, dtype=float)
    if rows.shape[0] != count or not np.all(np.isfinite(rows)):
        return False
    if kind == "cone-slice":
        # on the slice u = 1 the boundary is det T = 0
        for a, b, c, d in rows:
            t1, t2 = a + 1j * b, c + 1j * d
            M = toeplitz_dense([np.conj(t2), np.conj(t1), 1.0, t1, t2])
            if abs(np.linalg.det(M)) > 1e-9 * max(1.0, np.linalg.norm(M, 2)) ** 3:
                return False
        return True
    if kind == "state-surface":
        X, Y, Z = rows.T
        X2, Z2 = X * X, Z * Z
        res = (X2 * X2 + 8 * X2 * Y * Y + 8 * X2 * Y + 8 * X2 * Z2
               + 16 * Y * Y * Z2 + 16 * Z2 * Z2 - 16 * Z2)
        return bool(np.abs(res).max() <= 1e-10)
    if kind == "boundary":
        # a boundary state's density 1 + W cos + X sin + Y cos 2 + Z sin 2
        # is nonnegative with a zero on the circle
        W, X, Y, Z = rows.T
        a = np.stack([(Y - 1j * Z) / 2, (W - 1j * X) / 2, np.ones_like(W),
                      (W + 1j * X) / 2, (Y + 1j * Z) / 2], axis=1)
        return bool(np.abs(circle_min(a)).max() <= 1e-8)
    return False
