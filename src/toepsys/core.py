"""
Core data types: finite Toeplitz matrices, finitely supported Laurent
coefficient sequences, and the duality pairing between them.

Coefficient ordering is ascending everywhere: a sequence of length 2n-1
stores the coefficients for k = -n+1, ..., n-1.  The dense realization of
a Toeplitz matrix has entry (k, l) equal to ``t[k - l]``.
"""

import numpy as np

#: Taylor order of the circle layer's cells (with its factorials), the
#: depth of bisections below its grid, and the cap on its Newton steps
_TAYLOR, _DEPTH, _NEWTON_STEPS = 14, 40, 30
_FACT = np.cumprod(np.r_[1.0, np.arange(1.0, _TAYLOR + 2)])


def _as_coeffs(seq):
    a = np.asarray(seq, dtype=complex).ravel()
    if a.size % 2 == 0:
        raise ValueError("coefficient sequence must have odd length, got %d" % a.size)
    return a


class ToeplitzMatrix:
    """
    An n x n constant-diagonal matrix stored by its 2n-1 diagonal values.

    Parameters
    ----------
    t : array-like, odd length 2n-1
        Diagonal values in ascending order of the diagonal index
        k = -n+1, ..., n-1.  Entry (k, l) of the dense matrix is t[k-l].
    """

    def __init__(self, t):
        self.t = _as_coeffs(t)
        self.n = (self.t.size + 1) // 2

    def coeff(self, k):
        """Diagonal value t_k for ``|k| <= n-1``."""
        if abs(k) >= self.n:
            raise IndexError("diagonal index %d out of range for n=%d" % (k, self.n))
        return self.t[k + self.n - 1]

    def dense(self):
        """Dense n x n realization with M[k, l] = t[k-l]."""
        n = self.n
        idx = np.arange(n)
        return self.t[(idx[:, None] - idx[None, :]) + n - 1]

    @property
    def hermitian(self):
        """True when t_{-k} = conj(t_k) for all k."""
        return bool(np.allclose(self.t[::-1], np.conj(self.t), atol=1e-14 * (1 + np.abs(self.t).max())))

    def conj_transpose(self):
        return ToeplitzMatrix(np.conj(self.t[::-1]))

    def __add__(self, other):
        if self.n != other.n:
            raise ValueError("size mismatch")
        return ToeplitzMatrix(self.t + other.t)

    def __sub__(self, other):
        if self.n != other.n:
            raise ValueError("size mismatch")
        return ToeplitzMatrix(self.t - other.t)

    def __mul__(self, scalar):
        return ToeplitzMatrix(self.t * scalar)

    __rmul__ = __mul__

    def __repr__(self):
        return "ToeplitzMatrix(n=%d, t=%r)" % (self.n, list(self.t))


class FRElement:
    """
    A finitely supported Laurent coefficient sequence, the dual-side element.

    The sequence a_k is supported in the open interval (-n, n) and stands for
    the function theta -> sum_k a_k exp(i k theta) on the circle.
    """

    def __init__(self, a):
        self.a = _as_coeffs(a)
        self.n = (self.a.size + 1) // 2

    def coeff(self, k):
        if abs(k) >= self.n:
            return 0j
        return self.a[k + self.n - 1]

    def involution(self):
        """The adjoint sequence (a*)_k = conj(a_{-k})."""
        return FRElement(np.conj(self.a[::-1]))

    @property
    def palindromic(self):
        """True when a = a*, i.e. the circle function is real-valued."""
        return bool(np.allclose(self.a, np.conj(self.a[::-1]),
                                atol=1e-13 * (1 + np.abs(self.a).max())))

    def __call__(self, theta):
        """Evaluate sum_k a_k exp(i k theta) pointwise."""
        theta = np.asarray(theta, dtype=float)
        k = np.arange(-self.n + 1, self.n)
        return np.tensordot(np.exp(1j * np.multiply.outer(theta, k)), self.a, axes=([-1], [0]))

    def resize(self, n):
        """Re-embed with support bound n >= current support of the sequence."""
        pad = n - self.n
        if pad < 0:
            body = self.a[-pad:pad]
            clipped = np.concatenate([self.a[:-pad], self.a[pad:]])
            if not np.allclose(clipped, 0, atol=1e-300):
                raise ValueError("cannot shrink support below nonzero coefficients")
            return FRElement(body)
        out = np.zeros(2 * n - 1, dtype=complex)
        out[pad:pad + self.a.size] = self.a
        return FRElement(out)

    def __add__(self, other):
        n = max(self.n, other.n)
        return FRElement(self.resize(n).a + other.resize(n).a)

    def __sub__(self, other):
        n = max(self.n, other.n)
        return FRElement(self.resize(n).a - other.resize(n).a)

    def __mul__(self, scalar):
        return FRElement(self.a * scalar)

    __rmul__ = __mul__

    def __repr__(self):
        return "FRElement(n=%d, a=%r)" % (self.n, list(self.a))


def toeplitz_from_coeffs(t):
    """Build a ToeplitzMatrix from an odd-length ascending coefficient sequence."""
    return ToeplitzMatrix(t)


def fr_from_coeffs(a):
    """Build an FRElement from an odd-length ascending coefficient sequence."""
    return FRElement(a)


def fr_delta(k, n, value=1.0):
    """The sequence with a single nonzero coefficient ``value`` at index k."""
    a = np.zeros(2 * n - 1, dtype=complex)
    a[k + n - 1] = value
    return FRElement(a)


def compress_symbol(fourier_coeffs, n):
    """
    Truncate a circle function to its n x n Toeplitz compression.

    Parameters
    ----------
    fourier_coeffs : mapping int -> complex
        Fourier coefficients a_k of the function; entries with |k| >= n are
        ignored.
    n : int
        Truncation size.
    """
    t = np.zeros(2 * n - 1, dtype=complex)
    for k, v in fourier_coeffs.items():
        if abs(k) <= n - 1:
            t[k + n - 1] = v
    return ToeplitzMatrix(t)


def operator_norm(T):
    """Largest singular value of the dense realization."""
    return float(np.linalg.norm(T.dense(), 2))


def is_positive(T, tol=1e-9):
    """
    Decide positive semidefiniteness of a hermitian Toeplitz matrix.

    Returns ``(ok, lambda_min)`` where ``ok`` is true iff the smallest
    eigenvalue is >= -tol * ||T||.  The tolerance is relative so the test is
    scale invariant.
    """
    if not T.hermitian:
        raise ValueError("is_positive requires a hermitian Toeplitz matrix")
    return spectrum_is_positive(np.linalg.eigvalsh(T.dense()), tol)


def spectrum_is_positive(w, tol):
    """``is_positive``'s answer from the ascending eigenvalues w of T."""
    scale = float(np.abs(w).max()) if w.size else 0.0
    return float(w[0]) >= -tol * scale, float(w[0])


def pairing(T, a):
    """
    The duality pairing sum_k a_k t_{-k}.

    For positive T and positive a the value is real and nonnegative; for
    hermitian T and palindromic a it is real.
    """
    if T.n != a.n:
        raise ValueError("size mismatch: Toeplitz n=%d vs sequence n=%d" % (T.n, a.n))
    return complex(np.dot(a.a, T.t[::-1]))


def fr_convolve(a, b):
    """
    Convolution (a * b)_j = sum_k a_k b_{j-k}; the support bound grows to
    the sum of the factors' support bounds.
    """
    return FRElement(np.convolve(a.a, b.a))


def _quadratic_min(c0, c1, c2, r):
    """Minimum of c0 + c1 s + c2 s^2 over |s| <= r, elementwise."""
    inside = (c2 > 0) & (np.abs(c1) < 2 * c2 * r)
    return np.where(inside, c0 - c1 * c1 / (4 * np.where(inside, c2, 1.0)),
                    c0 + c2 * r * r - np.abs(c1) * r)


class CircleLayer:
    """
    Certified cells for the real trigonometric polynomial p of a
    palindromic sequence ``a`` (ascending, degree d = n - 1): the circle in
    L = 2^ceil(log2 8n) >= 64 cells [theta - r, theta + r], r = pi / L,
    with the Taylor rows C_i = p^(i)(theta) / i!, i <= _TAYLOR, of their
    centres, all sampled by one batched real FFT.  As d r <= pi / 8, the
    remainder of a cell's Taylor sum is below e ||a||_1 (d r)^15 / 15!,
    and the rows are exact to rnd = 8 e L eps ||a||_1 on a cell.
    """

    def __init__(self, a):
        a = np.asarray(a, dtype=complex)
        n = (a.size + 1) // 2
        self.d, self.norm = n - 1, float(np.abs(a).sum())
        self.L = L = max(64, 1 << int(np.ceil(np.log2(8 * n))))
        k = np.arange(n)
        i = np.arange(_TAYLOR + 1)[:, None]
        self.w = a[n - 1:] * (1j * k) ** i / _FACT[i]
        self.double = np.where(k > 0, 2.0, 1.0)
        self.theta, self.r = 2 * np.pi * np.arange(L) / L, np.full(L, np.pi / L)
        self.C = L * np.fft.irfft(self.w, L)
        self.rnd = 8 * np.e * L * np.finfo(float).eps * self.norm

    def rows(self, theta, m=_TAYLOR + 1):
        """The first m Taylor rows at the angles theta, summed directly with
        the powers e^{ik theta} as cumulative products (rounding k eps)."""
        E = np.vander(np.exp(1j * theta), self.d + 1, increasing=True).T
        return np.real((self.w[:m] * self.double) @ E)

    def bounds(self, C, r, m=0):
        """
        Lower and upper bounds of p^(m) on the cells (rows C, radii r): with
        D the rows of p^(m), var = sum_{j >= 3} |D_j| r^j plus the remainder
        is at most s^2 var / r^2 on |s| <= r, so the bounds are the extrema
        of D_0 + D_1 s + (D_2 -+ var / r^2) s^2, widened by rnd d^m.
        """
        deg = _TAYLOR - m
        D = C[m:] * (_FACT[m:_TAYLOR + 1] / _FACT[:deg + 1])[:, None]
        var = (np.abs(D[3:]) * r ** np.arange(3, deg + 1)[:, None]).sum(axis=0) \
            + np.e * self.norm * self.d ** m * (self.d * r) ** (deg + 1) / _FACT[deg + 1]
        rnd, q = self.rnd * self.d ** m, var / (r * r)
        return (_quadratic_min(D[0], D[1], D[2] - q, r) - rnd,
                -_quadratic_min(-D[0], -D[1], -D[2] - q, r) + rnd)

    def pieces(self, below=np.inf):
        """
        Angles, sorted from -pi / L on, and the values of p there, with p
        monotone between consecutive angles, so that its extrema are among
        the values.  They are the cell edges, sampled by one FFT, and, in
        each cell where the bounds of p' do not exclude 0 and p moves by
        more than rounding, the zero of p' found by Newton when the bounds
        of p'' exclude 0, or else the centre, the halves being taken in
        turn (to _DEPTH levels).  Cells on which p is bounded below by
        ``below`` add only their edges.
        """
        theta, r, C = self.theta, self.r, self.C
        shift = np.exp(-1j * np.arange(self.d + 1) * np.pi / self.L)
        pts, vals = [theta - r], [self.L * np.fft.irfft(self.w[0] * shift, self.L)]
        if below < np.inf:
            low = self.bounds(C, r)[0] < below
            theta, r, C = theta[low], r[low], C[:, low]
        for depth in range(_DEPTH + 1 if theta.size else 0):
            (s_lo, s_hi), (c_lo, c_hi) = self.bounds(C, r, 1), self.bounds(C, r, 2)
            todo = (s_lo <= 0) & (s_hi >= 0) & (np.maximum(-s_lo, s_hi) * r > self.rnd)
            one = todo & ((c_lo > 0) | (c_hi < 0))
            split = todo & ~one
            t, lo, hi = theta[one], (theta - r)[one], (theta + r)[one]
            c1, c2 = C[1, one], C[2, one]
            t = np.clip(t - c1 / np.where(c2 != 0, 2 * c2, np.inf), lo, hi)
            for _ in range(_NEWTON_STEPS):
                # steps stop where p' is at rounding level or clipping holds
                D = self.rows(t, 3)
                step = np.clip(t - D[1] / np.where(D[2] != 0, 2 * D[2], np.inf), lo, hi)
                move = (np.abs(D[1]) > self.rnd * self.d) & (step != t)
                if not move.any():
                    break
                t = np.where(move, step, t)
            else:
                D = self.rows(t, 1)
            pts += [t, theta[split]]
            vals += [D[0], C[0, split]]
            if depth == _DEPTH or not split.any():
                break
            h = r[split] / 2
            theta, r = np.r_[theta[split] - h, theta[split] + h], np.r_[h, h]
            C = self.rows(theta)
        pts, vals = np.concatenate(pts), np.concatenate(vals)
        order = np.argsort(pts)
        return pts[order], vals[order]


def trig_minimum(a, refine=True):
    """
    Minimum over theta of the real circle function of a palindromic sequence.

    The least value at the points of CircleLayer.pieces, between which the
    function is monotone, in the cells whose bound is below the least
    sample of the grid: certified up to rounding, with the minimum
    polished by Newton on the derivative.  ``refine`` is kept for
    compatibility; the minimum is always refined.  Returns
    ``(min_value, argmin_theta)``.
    """
    lay = CircleLayer(a.a)
    pts, vals = lay.pieces(below=lay.C[0].min() + lay.rnd)
    j = int(np.argmin(vals))
    return float(vals[j]), float(pts[j] % (2 * np.pi))


def fr_is_positive(a, tol=1e-9):
    """
    True iff the circle function of the palindromic sequence ``a`` satisfies
    min_theta a(theta) >= -tol * ||a||_1.

    Certified both ways by a CircleLayer: cells whose Taylor bound is above
    -tol ||a||_1 pass on the bound, and the others are refined until the
    function is monotone between samples, so it rejects only on a sample
    below the floor (a witness) and accepts only when there is none, up to
    rounding of about 1e-16 L ||a||_1 on the L ~ 8n angles of the grid.
    """
    if not a.palindromic:
        raise ValueError("positivity is only defined for palindromic sequences")
    floor = -tol * float(np.abs(a.a).sum())
    return bool(CircleLayer(a.a).pieces(below=floor)[1].min() >= floor)


def fourier_vector(z, n):
    """The unit vector (1, z, ..., z^{n-1}) / sqrt(n) as a numpy array."""
    return complex(z) ** np.arange(int(n)) / np.sqrt(n)


def extreme_ray(lam, n):
    """
    The trace-one rank-one positive Toeplitz matrix with entries
    lam^{k-l} / n, for lam on the unit circle.
    """
    lam = complex(lam)
    if abs(abs(lam) - 1.0) > 1e-12:
        raise ValueError("extreme rays require |lam| = 1, got |lam| = %g" % abs(lam))
    lam = lam / abs(lam)
    k = np.arange(-n + 1, n)
    return ToeplitzMatrix(lam ** k / n)


def toeplitz_to_json(T):
    """JSON-ready dict {"n": ..., "t": [[re, im], ...]} in ascending order."""
    return {"n": T.n, "t": [[float(z.real), float(z.imag)] for z in T.t]}


def toeplitz_from_json(obj):
    t = np.array([complex(re, im) for re, im in obj["t"]])
    T = ToeplitzMatrix(t)
    if T.n != int(obj["n"]):
        raise ValueError("inconsistent size: n=%s but %d coefficients" % (obj["n"], t.size))
    return T


def fr_to_json(a):
    """JSON-ready dict {"n": ..., "a": [[re, im], ...]} in ascending order."""
    return {"n": a.n, "a": [[float(z.real), float(z.imag)] for z in a.a]}


def fr_from_json(obj):
    a = np.array([complex(re, im) for re, im in obj["a"]])
    el = FRElement(a)
    if el.n != int(obj["n"]):
        raise ValueError("inconsistent size: n=%s but %d coefficients" % (obj["n"], a.size))
    return el
