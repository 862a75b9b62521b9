"""
The spectral distance on the truncated circle.

The distance between two states is the supremum of their difference over
hermitian Toeplitz matrices A with ``|| i[D, A] || <= 1``, where D is the
diagonal Dirac truncation.  The supremum is a linear objective over a
spectral-norm ball, the Toeplitz linear matrix inequality -I <= B(x) <= I,
solved here as a semidefinite program by a log-barrier Newton method whose
feasible iterates give certified lower bounds and whose dual matrices give
certified upper bounds by weak duality.  A dual route through primitives of
the density difference and the Kantorovich transport distance are provided
for comparison.
"""

import numpy as np

from .core import FRElement, ToeplitzMatrix

#: hard cap on the number of Newton steps per solve
MAX_NEWTON = 500
#: growth of the barrier weight t after each centering
_T_GROWTH = 20.0

#: default certified duality gap
DEFAULT_GAP = 1e-6

#: cap on the slope evaluations of the level search in kantorovich
_LEVEL_STEPS = 200


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
        Number of Newton steps taken.
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


def _barrier_sdp(c, G, gap):
    """
    Maximize c . x over ||B(x)|| <= 1, B(x) = sum_i x_i G_i, the hermitian
    G_i stacked in an (m, N, N) array, by a log-barrier Newton method on
    -I < B(x) < I (Boyd & Vandenberghe, Convex Optimization, 11.3).

    Each centered point certifies both bounds.  Lower: c . x at the feasible
    x / max(1, ||B(x)||).  Upper: ||W||_* >= tr(W B(x)) = c . x for feasible
    x when tr(W G_i) = c_i, which the dual point of the Newton step dx,
    W = (P - Q + P B(dx) P + Q B(dx) Q) / t with P = (I - B)^-1 and
    Q = (I + B)^-1, meets up to rounding that a Gram projection removes.
    Returns (lower, upper, x, W, newton_steps, converged).
    """
    m, N = G.shape[:2]
    if not np.any(c):
        return 0.0, 0.0, np.zeros(m), np.zeros((N, N), dtype=complex), 0, True
    # vec B(v) = v @ Gv, tr(X G_i) = GT[i] . vec(X), gram_ij = tr(G_i G_j)
    Gv, GT = G.reshape(m, -1), G.transpose(0, 2, 1).reshape(m, -1)
    gram = np.real(Gv @ GT.T)
    eye, pm = np.eye(N), np.array([1.0, -1.0])[:, None, None]

    def dual_bound(W):
        W = (W + W.conj().T) / 2.0
        y = np.linalg.solve(gram, c - np.real(GT @ W.ravel()))
        W = W + (y @ Gv).reshape(N, N)
        return float(np.abs(np.linalg.eigvalsh(W)).sum()), W

    def slack(x):
        # I -+ B(x) and their total log det; Cholesky fails off the interior
        S = eye - pm * (x @ Gv).reshape(N, N)
        L = np.linalg.cholesky(S)
        return S, 2.0 * np.log(np.real(np.diagonal(L, axis1=1, axis2=2))).sum()

    x = np.zeros(m)
    lower, best_x = 0.0, x
    upper, best_W = dual_bound(np.zeros((N, N), dtype=complex))
    t = 2.0 * N / upper  # the central path's duality gap is 2N / t
    S, logdet = slack(x)
    steps, last_gap, stalled = 0, np.inf, False
    while upper - lower > gap:
        PQ = np.linalg.inv(S)
        PG = PQ[:, None] @ G
        tr = np.real(np.trace(PG, axis1=2, axis2=3))
        # H_ij = Re tr(P G_i P G_j) + Re tr(Q G_i Q G_j), one GEMM
        hess = np.real(PG.transpose(1, 0, 2, 3).reshape(m, -1)
                       @ PG.transpose(1, 0, 3, 2).reshape(m, -1).T)
        grad = tr[0] - tr[1] - t * c
        dx = -np.linalg.solve(hess, grad)
        f = -t * float(c @ x) - logdet
        # half the squared Newton decrement bounds the centering error;
        # below the rounding of f (~1e-14 |f|) backtracking sees only noise
        if (stalled or steps == MAX_NEWTON
                or -float(grad @ dx) / 2.0 <= max(1e-8, 1e-14 * abs(f))):
            feas = x / max(1.0, 1.0 - float(np.linalg.eigvalsh(S).min()))
            lb = float(c @ feas)
            if lb > lower:
                lower, best_x = lb, feas
            dB = (dx @ Gv).reshape(N, N)
            P, Q = PQ
            ub, W = dual_bound((P - Q + P @ dB @ P + Q @ dB @ Q) / t)
            if ub < upper:
                upper, best_W = ub, W
            # stop when converged, stuck or out of steps, or when the gap
            # at the centered point grew: I -+ B are then too ill-conditioned
            if (upper - lower <= gap or stalled or steps == MAX_NEWTON
                    or ub - lb > last_gap):
                break
            last_gap = ub - lb
            t *= _T_GROWTH
            grad = tr[0] - tr[1] - t * c
            dx = -np.linalg.solve(hess, grad)
            f = -t * float(c @ x) - logdet
        step, stalled, slope = 1.0, True, 0.25 * float(grad @ dx)
        for _ in range(60):
            try:
                Sn, ldn = slack(x + step * dx)
            except np.linalg.LinAlgError:
                step /= 2.0
                continue
            if -t * float(c @ (x + step * dx)) - ldn <= f + step * slope:
                x, S, logdet, stalled = x + step * dx, Sn, ldn, False
                break
            step /= 2.0
        steps += 1
    return lower, upper, best_x, best_W, steps, bool(upper - lower <= gap)


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
    scale = 1j * np.arange(-n + 1, n) if derived else 1.0
    # dense M[r, s] = t[r - s] of each coordinate's (derived) matrix
    G = (E.T * scale)[:, np.subtract.outer(np.arange(n), np.arange(n)) + n - 1]
    lo, up, x, W, its, conv = _barrier_sdp(np.real(b.a[::-1] @ E), G, gap)
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


def _circle_roots_of_trig(d):
    """Angles where the trig polynomial with coefficients d vanishes."""
    c = np.trim_zeros(np.asarray(d, dtype=complex))
    if c.size <= 1:
        return np.array([])
    roots = np.roots(c[::-1])
    on = roots[np.abs(np.log(np.abs(roots) + 1e-300)) < 1e-7]
    return np.sort(np.angle(on) % (2 * np.pi))


def _cdf_difference(c):
    """
    Coefficients d, ascending from index -(n-1), of alpha(x) =
    sum_k d_k e^{ikx} = (1 / 2 pi) integral from 0 to x of the circle
    function of c, for a density difference c with c_0 = 0.
    """
    n = (c.size + 1) // 2
    k = np.arange(-n + 1, n)
    nz = k != 0
    d = np.zeros(c.size, dtype=complex)
    d[nz] = c[nz] / (2 * np.pi * 1j * k[nz])
    d[n - 1] = -np.real(np.sum(d[nz]))
    return d


def _level_integral(d, a):
    """
    f(a) = integral over [0, 2 pi] of |alpha - a| and its slope
    F(a) = |{alpha < a}| - |{alpha > a}|, for alpha(x) = sum_k d_k e^{ikx}
    with the coefficients d ascending from index -(n-1).

    alpha - a keeps its sign between consecutive crossing points, so each
    piece is integrated exactly with the antiderivative and contributes
    its length to F with the opposite sign.
    """
    n = (d.size + 1) // 2
    k = np.arange(-n + 1, n)
    g = d.astype(complex)
    g[n - 1] -= a
    pts = np.unique(np.clip(np.concatenate(
        [[0.0], _circle_roots_of_trig(g), [2 * np.pi]]), 0.0, 2 * np.pi))
    nz = k != 0
    # integral of alpha - a from 0 to each point, all points at once
    prim = np.real(g[n - 1]) * pts + np.real(
        ((np.exp(1j * np.outer(pts, k[nz])) - 1.0) / (1j * k[nz])) @ g[nz])
    pieces = np.diff(prim)
    return (float(np.abs(pieces).sum()),
            float(-(np.sign(pieces) * np.diff(pts)).sum()))


def kantorovich(phi, psi, quad_tol=1e-8):
    """
    Kantorovich (transport) distance between the circle probability measures
    of two states: inf over a of f(a), the integral of |alpha(x) - a| over
    [0, 2 pi], alpha the difference of the cumulative distributions.

    alpha is itself a trigonometric polynomial, so f and its slope F (see
    _level_integral) are exact for each level a.  f is convex and F is
    monotone, so the optimal level is a root of F, found by regula falsi
    with the Illinois modification from the bracket d_0 -+ sum |d_k|
    (k != 0), which contains the range of alpha; F(lo) <= 0 <= F(hi)
    throughout.  By convexity f(lo) - min f <= |F(lo)| (hi - lo) and
    likewise at hi, so the search stops once
    (hi - lo) max(|F(lo)|, |F(hi)|) <= quad_tol, or once hi - lo is down to
    a few units in the last place, where the bound is at rounding level
    (so quad_tol = 0 asks for the best level the arithmetic resolves), and
    returns the smaller of f(lo), f(hi).  Raises RuntimeError if neither
    holds within _LEVEL_STEPS slope evaluations.
    """
    if phi.n != psi.n:
        raise ValueError("size mismatch")
    n = phi.n
    c = (phi.density - psi.density).a
    if np.abs(c).max() < 1e-15:
        return 0.0
    d = _cdf_difference(c)
    # |alpha - d_0| <= sum_{k != 0} |d_k| brackets the optimal level
    d0 = float(np.real(d[n - 1]))
    bound = float(np.abs(d).sum()) - abs(d0)
    lo, hi = d0 - bound, d0 + bound
    (f_lo, F_lo), (f_hi, F_hi) = _level_integral(d, lo), _level_integral(d, hi)
    # Illinois: the secant uses weights that halve on a retained end
    w_lo, w_hi, side = F_lo, F_hi, 0
    for _ in range(_LEVEL_STEPS):
        width = hi - lo
        if (width * max(-F_lo, F_hi) <= quad_tol
                or width <= 4 * np.finfo(float).eps * max(1.0, abs(lo), abs(hi))):
            return min(f_lo, f_hi)
        a = hi - w_hi * width / (w_hi - w_lo)
        if not lo < a < hi:
            a = 0.5 * (lo + hi)
        f_a, F_a = _level_integral(d, a)
        if F_a == 0.0:
            return f_a
        if F_a < 0:
            lo, f_lo, F_lo, w_lo = a, f_a, F_a, F_a
            w_hi = w_hi / 2.0 if side < 0 else w_hi
            side = -1
        else:
            hi, f_hi, F_hi, w_hi = a, f_a, F_a, F_a
            w_lo = w_lo / 2.0 if side > 0 else w_lo
            side = 1
    raise RuntimeError(
        "kantorovich level search stopped at bound %.3g > quad_tol %.3g"
        % ((hi - lo) * max(-F_lo, F_hi), quad_tol))
