"""
Spectral factorization of nonnegative trigonometric polynomials.

A palindromic sequence a with a(theta) >= 0 on the circle factors as
a(theta) = |q(e^{i theta})|^2 for a polynomial q supported in 0..n-1.  The
factor starts from the cepstrum: the power series of the exponential of
the causal part of log a, sampled on a grid, gives the minimum-phase
factor in O(n^2), reflected so that its roots lie in the closed disc.
The coefficients are then refined by Levenberg-Marquardt on the
coefficient residual, which restores the accuracy that the grid and the
floor under the logarithm cost at circle roots.  The Laurent roots of a
pair up as (z, 1/conj(z)), and q has the inside-disc member of each pair
and half of each (even) multiplicity on the circle.
"""

import numpy as np

from .core import FRElement, RoundingStop, fr_convolve, fr_is_positive

#: cap on the Levenberg-Marquardt steps tried by the coefficient polish
_POLISH_STEPS = 100
#: grid points per coefficient at the start and at most, and relative
#: floor of the cepstral start
_CEPSTRUM_START, _CEPSTRUM_OVERSAMPLE, _CEPSTRUM_FLOOR = 16, 2048, 1e-13


class SpectralFactor:
    """
    Polynomial factor q with |q(zeta)|^2 = a(zeta) on the unit circle.

    The minimum-phase convention is used: q has no roots strictly outside
    the closed unit disc, and the constant coefficient q_0 is real >= 0.
    """

    def __init__(self, q):
        self.q = np.asarray(q, dtype=complex).ravel()

    def __call__(self, z):
        return np.polyval(self.q[::-1], z)

    def squared_modulus(self):
        """The palindromic sequence of |q|^2, i.e. the convolution q* conv q."""
        m = self.q.size
        qfr = FRElement(np.concatenate([np.zeros(m - 1), self.q]))
        return fr_convolve(qfr.involution(), qfr)

    def __repr__(self):
        return "SpectralFactor(q=%r)" % (list(self.q),)


def laurent_roots(a):
    """
    Roots, with multiplicity, of the Laurent polynomial of ``a`` after
    clearing the lowest power of z.

    The support of ``a`` is trimmed first, so a constant sequence has no
    roots and artificial roots at the origin are not introduced.  Computed
    as companion-matrix eigenvalues (numpy.roots).
    """
    c = np.trim_zeros(a.a)
    if c.size == 0:
        raise ValueError("laurent_roots of the zero sequence")
    if c.size == 1:
        return np.array([], dtype=complex)
    return np.roots(c[::-1])


def _shift_indices(m):
    """
    Index arrays (ia, ib) of shape (2m-1, m) with ia[k, p] = p - k and
    ib[k, l] = l + k for k = -(m-1)..m-1, out-of-range entries replaced by
    m so that they pick the zero appended to q.
    """
    k = np.arange(-m + 1, m)[:, None]
    p = np.arange(m)
    ia, ib = p - k, p + k
    return (np.where((ia >= 0) & (ia < m), ia, m),
            np.where((ib >= 0) & (ib < m), ib, m))


def _square_and_jacobian(q, ia, ib):
    """
    The coefficients b_k = sum_l conj(q_l) q_{l+k} of |q|^2, k = -(m-1)..m-1,
    and the real Jacobian of (Re b, Im b) with respect to (Re q, Im q).

    b is bilinear in (conj q, q): db = A dq + B conj(dq) with
    A[k, p] = conj(q_{p-k}) and B[k, l] = q_{l+k}, so b = A q and
    J = [[Re(A+B), Re(i(A-B))], [Im(A+B), Im(i(A-B))]].
    """
    qz = np.append(q, 0.0)
    A, B = np.conj(qz[ia]), qz[ib]
    S, D = A + B, 1j * (A - B)
    J = np.empty((2, ia.shape[0], 2, q.size))
    J[0, :, 0], J[0, :, 1], J[1, :, 0], J[1, :, 1] = S.real, D.real, S.imag, D.imag
    return A @ q, J.reshape(2 * ia.shape[0], 2 * q.size)


def _polish(q, a):
    """
    Levenberg-Marquardt refinement of the factor coefficients.

    The cepstral start is accurate to the floor under its logarithm and the
    aliasing of its grid, both of which are worst at circle roots;
    minimizing the coefficient residual r = q* conv q - a restores the
    accuracy.  Each step solves (J^T J + mu I) delta = -J^T r with the
    analytic Jacobian J of _square_and_jacobian; mu falls tenfold after a
    step that lowers ||r||, down to 1e-15 max diag(J^T J) so that the system
    stays regular, and rises tenfold otherwise.  Damping matters: J is rank
    deficient exactly when q has circle roots, where plain Gauss-Newton
    stalls and the damped steps converge only linearly.  The iteration
    stops at rounding: ``core.RoundingStop``, fed ||r|| of the start and of
    each accepted step with floor 8 m eps max(1, ||a||_inf), stops once
    ||r|| is at the floor, or within 10^3 times it and not halved on two
    accepted steps in a row.
    It also stops when an accepted step lowers ||r|| by less than 1e-15
    max(1, ||a||_inf), when the step no longer moves q, or after
    _POLISH_STEPS trials.  Only steps that lower ||r|| are taken, so the
    returned q never has a larger residual than the input.  Returns q and
    ||r||.
    """
    m = q.size
    target = a.resize(m).a
    scale = max(1.0, float(np.abs(target).max()))
    ia, ib = _shift_indices(m)

    def residual(q):
        b, J = _square_and_jacobian(q, ia, ib)
        return np.concatenate([(b - target).real, (b - target).imag]), J

    stop = RoundingStop(8 * m * np.finfo(float).eps * scale)
    r, J = residual(q)
    norm = np.linalg.norm(r)
    if stop(norm):
        return q, norm
    x = np.concatenate([q.real, q.imag])
    H, g = J.T @ J, J.T @ r
    mu_min = 1e-15 * float(H.diagonal().max())
    mu = 1e9 * mu_min
    for _ in range(_POLISH_STEPS):
        Hmu = H.copy()
        Hmu.flat[::2 * m + 1] += mu
        dx = np.linalg.solve(Hmu, -g)
        if np.linalg.norm(dx) <= 1e-16 * np.linalg.norm(x):
            break
        xn = x + dx
        qn = xn[:m] + 1j * xn[m:]
        rn, J = residual(qn)
        nn = np.linalg.norm(rn)
        if nn < norm:
            done = norm - nn < 1e-15 * scale or stop(nn)
            x, q, r, norm, mu = xn, qn, rn, nn, max(mu / 10.0, mu_min)
            if done:
                break
            H, g = J.T @ J, J.T @ r
        else:
            mu *= 10.0
    return q, norm


def _cepstral_start(a, m):
    """
    Minimum-phase factor with m coefficients of a + floor, the floor
    _CEPSTRUM_FLOOR max a, by the cepstrum (Kolmogorov's method).  With c
    the Fourier coefficients of log(a + floor), p = exp(c_0 / 2 +
    sum_{k>0} c_k z^k) has |p|^2 = a + floor on the circle and no zeros in
    the closed disc; its reversal z^{m-1} conj(p(1/conj z)) has the same
    modulus on the circle and all its zeros in the disc.  The floor keeps
    the logarithm finite at circle zeros and moves circle roots
    ~sqrt(floor) into the disc; unlike companion eigenvalues it does not
    scatter clustered roots.  p_0..p_{m-1} depend only on c_0..c_{m-1}, a
    power series in O(m^2) (_exp_series), so the grid sets only the
    cepstral coefficients.  It starts near _CEPSTRUM_START m angles and doubles, up to about
    _CEPSTRUM_OVERSAMPLE m (at least 2**12), while the aliased upper half
    of the cepstrum is above rounding: it decays geometrically without
    circle zeros and like 1 / k near them, where the grid goes to the cap
    at once, since aliasing would move roots of the start out of the disc,
    which the polish keeps.
    """
    L, tail = 1 << int(np.ceil(np.log2(_CEPSTRUM_START * m))), np.inf
    half = a.resize(m).a[m - 1:]
    cap = 1 << int(np.ceil(np.log2(max(_CEPSTRUM_OVERSAMPLE * m, 1 << 12))))
    while True:
        vals = np.maximum(L * np.fft.irfft(half, L), 0.0)
        logs = np.log(vals + _CEPSTRUM_FLOOR * vals.max())
        c = np.fft.rfft(logs) / L
        last, tail = tail, np.abs(c[L // 4:]).max()
        if L >= cap or tail <= 64 * np.finfo(float).eps * np.abs(logs).max():
            break
        # a tail that doubling does not cut fourfold decays like 1 / k: jump
        L = cap if tail > last / 4 else 2 * L
    return np.conj(_exp_series(c, m)[::-1])


def _exp_series(c, m):
    """p_0..p_{m-1} of p = exp(f), f = c_0 / 2 + sum_{k>0} c_k z^k, by
    p' = f' p: p_0 = exp(c_0 / 2), k p_k = sum_{j=1..k} j c_j p_{k-j}."""
    jc = np.arange(m) * c[:m]
    p = np.empty(m, dtype=complex)
    p[0] = np.exp(c[0] / 2.0)
    for k in range(1, m):
        p[k] = jc[1:k + 1] @ p[k - 1::-1] / k
    return p


def fejer_riesz_factorize(a, tol=1e-9):
    """
    Factor a nonnegative palindromic sequence as a(theta) = |q(e^{i theta})|^2.

    Parameters
    ----------
    a : FRElement
        Palindromic sequence whose circle function is >= 0.
    tol : float
        Relative tolerance of the positivity precondition.

    Returns
    -------
    SpectralFactor

    Raises
    ------
    ValueError
        If ``a`` is not (numerically) nonnegative.
    """
    if not fr_is_positive(a, tol=tol):
        raise ValueError("factorization requires a nonnegative sequence")
    c = np.trim_zeros(a.a)
    if c.size == 0:
        raise ValueError("factorization of the zero sequence")
    m = (c.size + 1) // 2
    if m == 1:
        return SpectralFactor([np.sqrt(a.coeff(0).real)])
    q, _ = _polish(_cepstral_start(a, m), a)
    # fix the global phase: q_0 real >= 0
    phase = q[0] / abs(q[0]) if abs(q[0]) > 0 else 1.0
    return SpectralFactor(q / phase)


def factorization_residual(a, factor):
    """
    Certified bound on sup over the circle of |a - |q|^2|: the coefficient
    l1 norm ||a - q* conv q||_1, which dominates the sup norm of the circle
    function since |e^{ik theta}| = 1.
    """
    b = factor.squared_modulus()
    n = max(a.n, b.n)
    return float(np.abs((a.resize(n) - b.resize(n)).a).sum())
