"""
The spectral distance on the truncated circle.

The distance between two states is the supremum of their difference over
hermitian Toeplitz matrices A with ``|| i[D, A] || <= 1``, where D is the
diagonal Dirac truncation.  The supremum is a linear objective over a
spectral-norm ball, the Toeplitz linear matrix inequality -I <= B(x) <= I,
solved here as a semidefinite program by a primal-dual interior-point
method whose feasible iterates give certified lower bounds and whose dual
matrices give certified upper bounds by weak duality.  A dual route through
primitives of the density difference and the Kantorovich transport
distance are provided for comparison.
"""

import numpy as np

from .core import CircleLayer, FRElement, ToeplitzMatrix

#: hard cap on the interior-point iterations per solve
MAX_ITERATIONS = 100
#: fraction of the step to the boundary of the cone, and the step length
#: below which the iterates count as stalled
_TAU, _MIN_STEP = 0.98, 1e-8

#: default certified duality gap
DEFAULT_GAP = 1e-6

#: cap on the slope evaluations of the level search in kantorovich, and on
#: the safeguarded Newton steps per crossing
_LEVEL_STEPS = 200
_CROSSING_STEPS = 60


class DiracTruncation:
    """The diagonal Dirac operator diag(1, 2, ..., n) of the n-truncation."""

    def __init__(self, n):
        self.n = int(n)
        self.eigenvalues = np.arange(1.0, self.n + 1)

    def dense(self):
        return np.diag(self.eigenvalues)


class ConvexProgramResult:
    """
    Certified outcome of a norm-constrained linear maximization.

    Attributes
    ----------
    value : float
        The reported optimum (the certified lower bound).
    lower, upper : float
        Bounds with upper - lower <= requested gap on success.
    optimizer : ToeplitzMatrix
        A feasible hermitian matrix attaining ``value``.
    iterations : int
        Number of interior-point iterations taken.
    converged : bool
    dual : ndarray
        Dense hermitian W with tr(W G_i) = objective_i on every constraint
        direction G_i; ``upper`` is its nuclear norm.
    """

    def __init__(self, value, lower, upper, optimizer, iterations, converged,
                 dual):
        self.value = value
        self.lower = lower
        self.upper = upper
        self.optimizer = optimizer
        self.iterations = iterations
        self.converged = converged
        self.dual = dual

    def __repr__(self):
        return ("ConvexProgramResult(value=%.12g, lower=%.12g, upper=%.12g, "
                "iterations=%d, converged=%r)" % (
                    self.value, self.lower, self.upper,
                    self.iterations, self.converged))


def dirac_commutator(T):
    """
    The derivation i[D, T], acting on coefficients as t_j -> i j t_j.

    Hermitian input gives hermitian output; the kernel is exactly the
    multiples of the identity.
    """
    k = np.arange(-T.n + 1, T.n)
    return ToeplitzMatrix(1j * k * T.t)


def primitive(b):
    """
    Invert the transpose derivation on the zero-mean subspace:
    B_j = b_j / (i j) for j != 0, B_0 = 0.

    Raises ValueError when b_0 != 0.
    """
    if abs(b.coeff(0)) > 1e-12 * (1 + np.abs(b.a).max()):
        raise ValueError("primitive requires b_0 = 0, got %r" % (b.coeff(0),))
    k = np.arange(-b.n + 1, b.n)
    out = np.zeros_like(b.a)
    nz = k != 0
    out[nz] = b.a[nz] / (1j * k[nz])
    return FRElement(out)


def _interior_point(c, g, gap):
    """
    Maximize c . x over ||B(x)|| <= 1, B(x) = sum_i x_i G_i with G_i the
    hermitian N x N Toeplitz matrix whose ascending coefficients are column
    i of g, and min tr X+ + tr X- over X+- >= 0 with tr((X+ - X-) G_i) = c_i,
    its dual, by a feasible primal-dual interior-point method on
    Z+- = I -+ B(x): the HKM direction (Helmberg, Rendl, Vanderbei &
    Wolkowicz, SIAM J. Optim. 6, 1996) with Mehrotra's predictor-corrector,
    both solves on one Cholesky factor of the Schur matrix.

    The Schur matrix M_ij = sum over +- of Re tr(G_i X G_j Z^-1) is
    Re g^T K g, K[k, l] = tr(S_k X S_l Z^-1) for the shifts S_k (ones on
    diagonal k), summed over +-.  K[k, l] = C[-l, k] for the correlation
    C[a, b] = sum conj(X[p, q]) Z^-1[p + a, q + b] (Alkire & Vandenberghe,
    Math. Program. 93, 2002): with rows at stride 2N - 1, C[a, b] is the
    1-D correlation at lag a (2N - 1) + b, one FFT of length >= (2N - 1)^2.

    Every iterate certifies both bounds.  Lower: c . x at the feasible
    x / ||B(x)|| on the boundary of the ball, above c . x when it is > 0
    (B(x) = 0 only at x = 0).  Upper: ||W||_* >= tr(W B(x)) = c . x for
    every feasible x when tr(W G_i) = c_i, which W = X+ - X- meets up to
    rounding that a Gram projection removes.  A failed Cholesky factor,
    collapsed steps or MAX_ITERATIONS end the solve with the best bounds so
    far.
    Returns (lower, upper, x, W, iterations, converged).
    """
    N, m = (g.shape[0] + 1) // 2, g.shape[1]
    if not np.any(c):
        return 0.0, 0.0, np.zeros(m), np.zeros((N, N), dtype=complex), 0, True
    k = np.arange(-N + 1, N)
    idx = np.subtract.outer(np.arange(N), np.arange(N)) + N - 1
    lags = idx.T.ravel()
    L = 1 << ((2 * N - 1) ** 2 - 1).bit_length()
    kk = (k[None, :] - (2 * N - 1) * k[:, None]) % L
    P = np.zeros((4, L), dtype=complex)
    rows = P[:, :N * (2 * N - 1)].reshape(4, N, 2 * N - 1)
    # each coordinate owns one pair of diagonals, and Re and Im on a pair
    # are orthogonal: the Gram matrix tr(G_i G_j) is diagonal
    gram = np.real(((N - np.abs(k))[:, None] * g * g[::-1]).sum(0))
    sgn, eye = np.array([1.0, -1.0])[:, None, None], np.eye(N)

    def toeplitz(v):
        return (g @ v)[idx]

    def adjoint(W):
        # tr(W G_i) = sum over r, s of W[r, s] g_i[s - r]
        return (np.bincount(lags, W.real.ravel(), 2 * N - 1) @ g.real
                - np.bincount(lags, W.imag.ravel(), 2 * N - 1) @ g.imag)

    def project(W):
        W = (W + W.conj().T) / 2.0
        return W + toeplitz((c - adjoint(W)) / gram)

    def direction(R, rhs):
        # the HKM step towards X Z = R Z: M dx = rhs = c - A(R), dZ = -A*(dx)
        dx = Lm.T @ (Lm @ rhs)
        dZ = -sgn * toeplitz(dx)
        dX = R - X - X @ dZ @ Y
        dX = (dX + dX.conj().transpose(0, 2, 1)) / 2.0
        # _TAU of the steps to the boundary, from the spectra of L^-1 dS L^-H
        lmin = np.linalg.eigvalsh(Li @ np.concatenate([dX, dZ]) @ LiH)[:, 0]
        ap, ad = np.minimum(1.0, -_TAU / np.minimum(lmin.reshape(2, 2).min(1), -_TAU))
        return dx, dX, dZ, ap, ad

    # x = 0, Z = I and X+- = W+- + delta I for the two parts of the
    # projected W: X+ - X- = W keeps tr((X+ - X-) G_i) = c_i
    W = project(np.zeros((N, N), dtype=complex))
    lam, V = np.linalg.eigh(W)
    X = (V * np.maximum(sgn[:, 0] * lam, 0.0)[:, None]) @ V.conj().T
    X, x = X + np.abs(lam).max() * eye, np.zeros(m)
    Z = eye - sgn * toeplitz(x)
    lower, best_x, upper, best_W, its = 0.0, x, float(np.abs(lam).sum()), W, 0
    while upper - lower > gap and its < MAX_ITERATIONS:
        its += 1
        try:
            Li = np.linalg.inv(np.linalg.cholesky(np.concatenate([X, Z])))
            LiH = Li.conj().transpose(0, 2, 1)
            Y = LiH[2:] @ Li[2:]
            rows[:, :, :N] = np.concatenate([X, Y])
            F = np.fft.fft(P)
            C = np.fft.ifft(np.conj(F[0]) * F[2] + np.conj(F[1]) * F[3])
            Lm = np.linalg.inv(np.linalg.cholesky(np.real(g.T @ C[kk] @ g)))
        except np.linalg.LinAlgError:
            break
        mu = np.real(np.vdot(Z, X)) / (2 * N)
        _, dXa, dZa, ap, ad = direction(0.0, c)
        mu_aff = np.real(np.vdot(Z + ad * dZa, X + ap * dXa)) / (2 * N)
        R = min(1.0, mu_aff / mu) ** 3 * mu * Y - dXa @ dZa @ Y
        dx, dX, _, ap, ad = direction(R, c - adjoint(R[0] - R[1]))
        if max(ap, ad) < _MIN_STEP:
            break
        X, x = X + ap * dX, x + ad * dx
        Bx = toeplitz(x)
        Z = eye - sgn * Bx
        W = project(X[0] - X[1])
        lam = np.linalg.eigvalsh(np.stack([Bx, W]))
        feas = x / (float(np.abs(lam[0]).max()) or 1.0)
        lb, ub = float(c @ feas), float(np.abs(lam[1]).sum())
        if lb > lower:
            lower, best_x = lb, feas
        if ub < upper:
            upper, best_W = ub, W
    return lower, upper, best_x, best_W, its, bool(upper - lower <= gap)


def _toeplitz_program(b, with_t0, derived, gap):
    """
    sup Re sum_k b_k t_{-k} over hermitian Toeplitz T with ||T|| <= 1, or
    with ||i[D, T]|| <= 1 when ``derived``; t_0 = 0 unless ``with_t0``.

    The real coordinates are t_0 (when free), then Re t_j and Im t_j for
    j = 1..n-1; column i of E is the coefficient sequence of coordinate i.
    """
    n = b.n
    j = np.arange(1, n)
    E = np.zeros((2 * n - 1, 2 * n - 1), dtype=complex)
    E[n - 1, 0] = 1.0
    E[n - 1 + j, 2 * j - 1] = E[n - 1 - j, 2 * j - 1] = 1.0
    E[n - 1 + j, 2 * j], E[n - 1 - j, 2 * j] = 1j, -1j
    E = E if with_t0 else E[:, 1:]
    # column i of g is the coefficient sequence of the matrix G_i
    g = 1j * np.arange(-n + 1, n)[:, None] * E if derived else E
    lo, up, x, W, its, conv = _interior_point(np.real(b.a[::-1] @ E), g, gap)
    return ConvexProgramResult(lo, lo, up, ToeplitzMatrix(E @ x), its, conv, W)


def connes_distance(phi, psi, gap=DEFAULT_GAP):
    """
    The spectral distance sup { phi(A) - psi(A) : ||i[D, A]|| <= 1 }.

    The supremum runs over hermitian Toeplitz A normalized to t_0 = 0
    (constants do not move the objective).  Returns a ConvexProgramResult
    whose bounds bracket the distance within ``gap``.
    """
    if phi.n != psi.n:
        raise ValueError("size mismatch")
    return _toeplitz_program(phi.density - psi.density, with_t0=False,
                             derived=True, gap=gap)


def dual_norm(b, gap=DEFAULT_GAP):
    """
    The norm dual to the Toeplitz operator norm:
    sup { |sum_k b_k t_{-k}| : hermitian Toeplitz T, ||T|| <= 1 }.

    ``b`` must be palindromic (so the pairing is real); b_0 may be nonzero.
    """
    if not b.palindromic:
        raise ValueError("dual_norm requires a palindromic sequence")
    return _toeplitz_program(b, with_t0=True, derived=False, gap=gap)


def connes_via_dual(phi, psi, gap=DEFAULT_GAP):
    """
    The distance through the dual picture:
    inf over real c of dual_norm(primitive(psi - phi) - c delta_0).

    By Sion's minimax theorem this is the sup of the pairing with
    B = primitive(psi - phi) over ||T|| <= 1 with t_0 = 0, solved as one
    program.  Its dual matrix W pairs with the identity as the missing t_0
    coefficient, tr W = -c, which gives an optimal shift.  Returns
    ``(value, c)``; raises RuntimeError when the bounds do not close.
    """
    if phi.n != psi.n:
        raise ValueError("size mismatch")
    B = primitive(psi.density - phi.density)
    res = _toeplitz_program(B, with_t0=False, derived=False, gap=gap)
    if not res.converged:
        raise RuntimeError("connes_via_dual did not converge: lower %.12g, "
                           "upper %.12g" % (res.lower, res.upper))
    return res.value, -float(np.real(np.trace(res.dual)))


class _LevelSets:
    """
    f(a) = integral over [0, 2 pi] of |alpha - a| and its slope
    F(a) = |{alpha < a}| - |{alpha > a}|, for alpha(x) = sum_k d_k e^{ikx}
    = (1 / 2 pi) integral from 0 to x of the density difference c (c_0 = 0,
    both ascending from index -(n-1)).  alpha is sampled once for every
    level, at the points of CircleLayer.pieces: it is monotone between
    consecutive ones, so it crosses a level at most once there.
    """

    def __init__(self, c):
        n, d = (c.size + 1) // 2, primitive(FRElement(c)).a / (2 * np.pi)
        d[n - 1] = -np.real(d.sum())
        self.n, self.d, self.lay = n, d, CircleLayer(d)
        pts, vals = self.lay.pieces()
        self.pts, self.vals = np.r_[pts, pts[0] + 2 * np.pi], np.r_[vals, vals[0]]

    def crossings(self, a):
        """
        The angles where alpha = a, one between each pair of consecutive
        points whose values straddle a, by Newton's method safeguarded by
        bisection from the secant, until alpha - a is at rounding level;
        and alpha' there.
        """
        above = self.vals > a
        i = np.nonzero(above[:-1] != above[1:])[0]
        left, right, rising = self.pts[i], self.pts[i + 1], above[i + 1]
        v0, v1 = self.vals[i], self.vals[i + 1]
        x = left + (right - left) * (a - v0) / (v1 - v0)
        for _ in range(_CROSSING_STEPS):
            v, dv = self.lay.rows(x, 2)
            if np.all(np.abs(v - a) <= self.lay.rnd):
                break
            above = (v > a) == rising
            left, right = np.where(above, left, x), np.where(above, x, right)
            x = x - (v - a) / np.where(dv != 0, dv, np.inf)
            x = np.where((left <= x) & (x <= right), x, (left + right) / 2)
        return x % (2 * np.pi), dv

    def polygon_root(self):
        """
        The root of F for the polygon through the samples: |{polygon < a}|
        is piecewise linear in a, kinked at the sample values, with the
        slopes that each segment adds between its two end values.
        """
        v0, v1 = self.vals[:-1], self.vals[1:]
        lo, hi = np.minimum(v0, v1), np.maximum(v0, v1)
        s = np.sort(v0)
        rate = np.diff(self.pts) / np.where(hi > lo, hi - lo, np.inf)
        slope = np.cumsum(np.bincount(np.searchsorted(s, lo), rate, s.size)
                          - np.bincount(np.searchsorted(s, hi), rate, s.size))
        G = np.r_[0.0, np.cumsum(slope[:-1] * np.diff(s))]
        k = min(int(np.searchsorted(G, np.pi)), s.size - 1)
        return float(s[k - 1] + (np.pi - G[k - 1]) * (s[k] - s[k - 1])
                     / (G[k] - G[k - 1]))

    def integral(self, a):
        """
        (f(a), F(a), F'(a)): alpha - a keeps its sign between crossings, so
        each piece is integrated exactly with the antiderivative and adds
        its length to F with the opposite sign; each crossing x moves F at
        the rate 2 / |alpha'(x)| (floored at rounding).
        """
        k = np.arange(1, self.n)
        x, dv = self.crossings(a)
        pts = np.unique(np.r_[0.0, x, 2 * np.pi])
        # integral of alpha - a from 0 to each point, all points at once
        prim = (np.real(self.d[self.n - 1]) - a) * pts + 2 * np.real(
            ((np.exp(1j * np.outer(pts, k)) - 1.0) / (1j * k)) @ self.d[self.n:])
        pieces = np.diff(prim)
        return (float(np.abs(pieces).sum()),
                float(-(np.sign(pieces) * np.diff(pts)).sum()),
                float(2 * (1.0 / np.maximum(np.abs(dv), self.lay.rnd)).sum()))


def kantorovich(phi, psi, quad_tol=1e-8):
    """
    Kantorovich (transport) distance between the circle probability measures
    of two states: inf over a of f(a), the integral of |alpha(x) - a| over
    [0, 2 pi], alpha the difference of the cumulative distributions.

    alpha is itself a trigonometric polynomial, sampled once (see
    _LevelSets), so f, its slope F and F' are exact for each level a.  f is
    convex and F is monotone, so the optimal level is a root of F,
    bracketed by F(lo) <= 0 <= F(hi) from the range of alpha.  By
    convexity f(lo) - min f <= |F(lo)| (hi - lo) and likewise at hi, so it
    returns the smaller of f(lo), f(hi) once either bound is at most
    quad_tol, or once hi - lo is down to a few units in the last place,
    where the bounds are at rounding level (so quad_tol = 0 asks for the
    best level the arithmetic resolves).

    The search starts at F's root for the polygon through the samples and
    has the one safeguard of a safeguarded Newton ("rtsafe", Numerical
    Recipes 9.4): the next level is the Newton level a - F / F' while the
    last evaluation at least halved |F| and that level lies inside the
    bracket, and otherwise the bracket's midpoint.  Each evaluated level
    becomes an end of the bracket, so the bound is at most the width times
    the last |F|; each evaluation halves |F| or is followed by a midpoint,
    which halves the width, so the search makes progress.  Raises
    RuntimeError if neither stop holds within _LEVEL_STEPS slope
    evaluations.
    """
    if phi.n != psi.n:
        raise ValueError("size mismatch")
    c = (phi.density - psi.density).a
    if np.abs(c).max() < 1e-15:
        return 0.0
    levels = _LevelSets(c)
    # alpha is monotone between its sample points, so they hold its range;
    # outside it f is linear with the mean d_0 of alpha
    lo, hi = float(levels.vals.min()), float(levels.vals.max())
    d0 = float(np.real(levels.d[phi.n - 1]))
    f_lo, F_lo, f_hi, F_hi = 2 * np.pi * (d0 - lo), -2 * np.pi, 2 * np.pi * (hi - d0), 2 * np.pi
    a, last = levels.polygon_root(), 2 * np.pi
    for _ in range(_LEVEL_STEPS):
        width = hi - lo
        if (width * min(-F_lo, F_hi) <= quad_tol
                or width <= 4 * np.finfo(float).eps * max(1.0, abs(lo), abs(hi))):
            return min(f_lo, f_hi)
        if not lo < a < hi:
            a = 0.5 * (lo + hi)
        f_a, F_a, dF_a = levels.integral(a)
        if F_a == 0.0:
            return f_a
        if F_a < 0:
            lo, f_lo, F_lo = a, f_a, F_a
        else:
            hi, f_hi, F_hi = a, f_a, F_a
        # the Newton level, kept only while |F| at least halves
        a, last = (a - F_a / dF_a if 2 * abs(F_a) <= last else np.nan), abs(F_a)
    raise RuntimeError(
        "kantorovich level search stopped at bound %.3g > quad_tol %.3g"
        % ((hi - lo) * min(-F_lo, F_hi), quad_tol))
