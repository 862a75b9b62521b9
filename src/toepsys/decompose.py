"""
Node/weight decompositions of positive Toeplitz matrices.

Every positive Toeplitz matrix is a nonnegative combination of the rank-one
matrices gamma(lambda) with nodes lambda on the unit circle; at rank
r <= n-1 the node set is unique and recovered from the shift invariance of
the range, while at full rank one extreme ray s gamma(lambda) is peeled
off first and the deficient-rank remainder is decomposed.  The peeled node
is never a node of the remainder: its kernel v has <f_lambda, v> = 1 / s
!= 0, while every node of the remainder is orthogonal to v.  So a full-rank
matrix gives n nodes, the n - 1 of the remainder and lambda.
"""

import numpy as np

from .core import (RoundingStop, ToeplitzMatrix, extreme_ray, fourier_vector,
                   spectrum_is_positive)

#: least grid resolution for choosing the ray peeled off a full-rank matrix
PEEL_GRID = 256

#: relative eigenvalue cut that sets the rank, the kernel and det_multiplicity
RANK_CUT = 1e-12

#: cap on the Gauss-Newton steps of _refine
_REFINE_STEPS = 12


class VandermondeDecomposition:
    """
    Representation T = sum_i d_i * gamma(e^{i angle_i}) with d_i > 0.

    Attributes
    ----------
    angles : ndarray of float in [0, 2 pi)
        Pairwise distinct node angles.
    weights : ndarray of float, positive
    rank : int
        Number of nodes; equals the rank of the reconstructed matrix.
    """

    def __init__(self, angles, weights):
        self.angles = np.asarray(angles, dtype=float) % (2 * np.pi)
        self.weights = np.asarray(weights, dtype=float)
        if self.angles.shape != self.weights.shape:
            raise ValueError("angles and weights must have equal length")
        order = np.argsort(self.angles)
        self.angles = self.angles[order]
        self.weights = self.weights[order]

    @property
    def rank(self):
        return self.angles.size

    def __repr__(self):
        return "VandermondeDecomposition(angles=%r, weights=%r)" % (
            list(self.angles), list(self.weights))


def reconstruct(vd, n):
    """Assemble sum_i d_i gamma(lambda_i) as an n x n Toeplitz matrix."""
    if np.any(vd.weights < 0):
        raise ValueError("weights must be nonnegative")
    k = np.arange(-n + 1, n)
    return ToeplitzMatrix(np.exp(1j * np.outer(k, vd.angles)) @ vd.weights / n)


def _nullity(w):
    """The number of eigenvalues w with |lambda| <= RANK_CUT max |lambda|."""
    return int(np.sum(np.abs(w) <= RANK_CUT * np.abs(w).max()))


def _positive_eigh(T, tol, caller):
    """Ascending eigenpairs w, V of T, checked by ``is_positive``'s rule, and
    the nullity m of max(w, 0), which reads the negative eigenvalues allowed
    by tol as zero: the kernel is V[:, :m] and the range V[:, m:]."""
    if T.hermitian:
        w, V = np.linalg.eigh(T.dense())
        if spectrum_is_positive(w, tol)[0]:
            return w, V, _nullity(np.maximum(w, 0.0))
    raise ValueError("%s requires a positive hermitian matrix" % caller)


def kernel_roots(T, tol=1e-9):
    """
    The nodes of a singular positive Toeplitz matrix, as points of the
    circle.  At rank r <= n-1 the decomposition into extreme rays is unique
    and its nodes are the common circle zeros of the kernel polynomials, so
    they are the nodes of ``vandermonde_decompose(T)``: read from the same
    eigendecomposition, rank cut (RANK_CUT) and weight cut, and returned
    sorted by angle.  Where that decomposition misses its reconstruction
    bound, these nodes miss too.  ``tol`` is the positivity tolerance only.
    The zero matrix has no nodes; its result is an empty array.

    Raises
    ------
    ValueError
        If T is not positive at ``tol`` or is nonsingular (no eigenvalue
        within RANK_CUT of zero).
    """
    w, V, m = _positive_eigh(T, tol, "kernel_roots")
    if m == 0:
        raise ValueError("matrix is nonsingular at rank cut %g" % RANK_CUT)
    return np.exp(1j * _decompose(T, w, V, m).angles)


def _half_lstsq(M, t):
    """
    Least-squares solution x of M x = t over the 2n - 1 coefficients
    t_k, k = -(n-1) .. n-1, of a model that is Hermitian for real x, with
    M its rows k = 0 .. n-1 (row -k is the conjugate of row k).  For k > 0,
    |m_k - t_k|^2 + |m_{-k} - t_{-k}|^2 = 2 |m_k - h_k|^2 + |t_k -
    conj t_{-k}|^2 / 2 with h_k = (t_k + conj t_{-k}) / 2, and at k = 0
    the model is real, so the two sums of squares differ by a constant: the
    rows k >= 0 against h, weighted sqrt 2 at k > 0, have the same normal
    equations and the same (least-norm) minimizer, on half the rows.
    """
    n = M.shape[0]
    w = np.full(n, np.sqrt(2.0))
    w[0] = 1.0
    M, h = w[:, None] * M, w * (t[n - 1:] + np.conj(t[n - 1::-1])) / 2
    return np.linalg.lstsq(np.vstack([M.real, M.imag]),
                           np.concatenate([h.real, h.imag]), rcond=None)[0]


def _refine(T, angles):
    """Gauss-Newton on (angles, weights) against the coefficients of T.

    Starts from the least-squares weights for the given nodes, clamped to
    be nonnegative, and keeps the best iterate rather than the last;
    near-coincident nodes make the Jacobian rank deficient, which lstsq
    absorbs.  The model sum_i d_i e^{i k theta_i} / n is Hermitian in k for
    real (theta, d), so the weight fit and each step are solved by
    ``_half_lstsq`` on the rows k >= 0 only: the same normal equations and
    minimizer as on all 2n - 1 rows, also where T is Hermitian only to
    rounding, as after the peel.  It stops by ``core.RoundingStop`` on the
    max-abs residual err over all 2n - 1 coefficients, with floor
    8 n eps max|t_k|: at the floor, or once the best err is within 10^3
    times it and two steps in a row fail to halve that best, whether err
    creeps down or bounces above it; or else after _REFINE_STEPS steps.
    The best iterate is returned.
    Transient negative weights are clamped at the end; the caller's
    reconstruction check is the real guard.
    """
    n, r = T.n, angles.size
    k = np.arange(n)
    d = _half_lstsq(np.exp(1j * np.outer(k, angles)) / n, T.t)
    x = np.concatenate([angles, np.clip(d, 0.0, None)])
    best, best_err = x.copy(), np.inf
    stop = RoundingStop(8 * n * np.finfo(float).eps * float(np.abs(T.t).max()))
    for _ in range(_REFINE_STEPS):
        th, d = x[:r], x[r:]
        E = np.exp(1j * np.outer(k, th)) / n
        m = E @ d
        resid = T.t - np.concatenate([np.conj(m[:0:-1]), m])
        err = float(np.abs(resid).max())
        if err < best_err:
            best_err, best = err, x.copy()
        if stop(err):
            break
        # d(model)/d(theta_i) = d_i * i k e^{i k theta_i} / n
        x = x + _half_lstsq(np.hstack([1j * k[:, None] * E * d[None, :], E]), resid)
    th, d = best[:r], np.clip(best[r:], 0.0, None)
    return th % (2 * np.pi), d


def _subspace_nodes(Us):
    """
    Node angles from the rotational invariance of the signal subspace: with
    columns f_lambda spanning the range, any orthonormal basis Us of it
    satisfies Us[1:] = Us[:-1] Phi where Phi has the nodes as eigenvalues.
    """
    Phi, *_ = np.linalg.lstsq(Us[:-1], Us[1:], rcond=None)
    return np.angle(np.linalg.eigvals(Phi)) % (2 * np.pi)


def vandermonde_decompose(T, tol=1e-9):
    """
    Decompose a positive Toeplitz matrix as sum_i d_i gamma(lambda_i).

    At rank r <= n-1 the r nodes are determined by T (uniqueness of the
    decomposition); they are estimated from the shift invariance of the
    range of T and polished by Gauss-Newton on the coefficients.  At full
    rank one ray is peeled off first: the grid maximizer lambda of
    <f_lambda, T f_lambda>, the trigonometric polynomial with coefficients
    (1 - |k| / n) conj(t_k) sampled by one FFT, is removed with the
    extremal coefficient s = 1 / <f_lambda, T^{-1} f_lambda>, which drops
    the rank by one and leaves v = T^{-1} f_lambda as the kernel.  One
    eigendecomposition of T serves the positivity check, the rank (cut by
    RANK_CUT, as in det_multiplicity), T^{-1} and the range, which is v's
    orthogonal complement, the columns after the first of a complete QR of
    v.  Since <f_lambda, v> = 1 / s != 0 while every node of the remainder
    has its f orthogonal to v, lambda is not among the remainder's n - 1
    nodes, and a full-rank matrix gives n distinct nodes.  Full-rank
    decompositions are not unique; only reconstruction is canonical.
    """
    return _decompose(T, *_positive_eigh(T, tol, "vandermonde_decompose"))


def _decompose(T, w, V, m):
    """The decomposition of a positive T from its ascending eigenpairs w, V
    and its nullity m, as vandermonde_decompose describes it."""
    n, rank = T.n, T.n - m
    if rank == 0:
        return VandermondeDecomposition([], [])
    if n == 1:
        return VandermondeDecomposition([0.0], [float(np.real(T.t[0]))])

    if rank == n:
        # deterministic grid choice of the ray to remove
        L = max(PEEL_GRID, 1 << int(np.ceil(np.log2(2 * n))))
        k = np.arange(n)
        th = 2 * np.pi * int(np.argmax(np.fft.irfft((n - k) / n * np.conj(T.t[n - 1:]), L))) / L
        f = fourier_vector(np.exp(1j * th), n)
        v = V @ ((V.conj().T @ f) / w)
        s = float(1.0 / np.real(np.vdot(f, v)))
        # the columns after the first of a complete QR of v span the range
        # of T - s gamma(lambda), v's orthogonal complement
        Us = np.linalg.qr(v[:, None], mode="complete")[0][:, 1:]
        angles, weights = _refine(T - s * extreme_ray(np.exp(1j * th), n),
                                  _subspace_nodes(Us))
        # lambda is not a node of the remainder (<f_lambda, v> = 1 / s)
        angles, weights = np.append(angles, th), np.append(weights, s)
    else:
        angles, weights = _refine(T, _subspace_nodes(V[:, m:]))
    keep = weights > 1e-13 * weights.max()
    return VandermondeDecomposition(angles[keep], weights[keep])


def det_multiplicity(T):
    """
    Order of vanishing of the determinant at T along Toeplitz directions:
    the smallest m for which some m-th directional derivative of det inside
    the hermitian Toeplitz slice is nonzero (m = 0 when det(T) != 0).

    This is the nullity of T.  Along any hermitian direction B, Weyl's
    inequality keeps the k zero eigenvalues of T within |t| ||B|| of zero,
    so det(T + tB) vanishes to order >= k at t = 0; along B = I it is the
    product of the eigenvalues plus t and vanishes to order exactly k.  The
    nullity counts the eigenvalues with |lambda| <= RANK_CUT max |lambda|,
    the cut that sets the rank in ``vandermonde_decompose``.
    """
    return _nullity(np.linalg.eigvalsh(T.dense()))
