"""
Node/weight decompositions of positive Toeplitz matrices.

Every positive Toeplitz matrix is a nonnegative combination of the rank-one
matrices gamma(lambda) with nodes lambda on the unit circle; at rank
r <= n-1 the node set is unique and recovered from the shift invariance of
the range, while at full rank one extreme ray is peeled off first and the
deficient-rank remainder is decomposed.
"""

import numpy as np

from .core import (RoundingStop, ToeplitzMatrix, extreme_ray, fourier_vector,
                   spectrum_is_positive)

#: angular radius used to coalesce numerically split nodes
NODE_CLUSTER_TOL = 1e-6

#: least grid resolution for choosing the ray peeled off a full-rank matrix
PEEL_GRID = 256

#: relative eigenvalue cut that sets the rank, the kernel and det_multiplicity
RANK_CUT = 1e-12

#: caps on the Gauss-Newton steps of kernel_roots (nodes) and _refine
_NODE_STEPS, _REFINE_STEPS = 20, 12


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
    The nodes of a singular positive Toeplitz matrix: the zeros on the
    circle of g(theta) = ||u(theta)||^2, u(theta) = K^H f_theta with K an
    orthonormal kernel basis and f_theta the unit Fourier vector, since a
    kernel vector is orthogonal to every f_lambda of a node.  There are
    rank(T) of them.  They are started from the shift invariance of the
    range (as in vandermonde_decompose) and refined by Newton on g' with
    the Gauss-Newton curvature 2 ||u'||^2: u has simple zeros, so nodes
    stay resolved where g, a square, is flat below rounding between close
    nodes.  A refined angle is a node when g is below sqrt(tol) times its
    mean dim(ker) / n: at a node g is the square of the kernel's rounding,
    elsewhere a fair fraction of that mean.

    Raises
    ------
    ValueError
        If T is not positive at ``tol``, is nonsingular (no eigenvalue
        within RANK_CUT of zero), or if g has no zero on the circle.
    """
    _, V, m = _positive_eigh(T, tol, "kernel_roots")
    if m == 0:
        raise ValueError("matrix is nonsingular at rank cut %g" % RANK_CUT)
    K = V[:, :m].conj().T
    p = np.arange(T.n)[:, None]
    theta = _subspace_nodes(V[:, m:])
    for _ in range(_NODE_STEPS):
        E = np.exp(1j * p * theta) / np.sqrt(T.n)
        u, du = K @ E, K @ (1j * p * E)
        step = np.real(np.sum(du.conj() * u, axis=0)) / np.maximum(
            np.sum(np.abs(du) ** 2, axis=0), 1e-300)
        theta = theta - step
        if np.abs(step).max(initial=0.0) <= 4 * np.finfo(float).eps:
            break
    g = np.sum(np.abs(K @ np.exp(1j * p * theta)) ** 2, axis=0) / T.n
    nodes = theta[g <= np.sqrt(tol) * m / T.n]
    if nodes.size == 0:
        raise ValueError("kernel polynomials have no common circle root; "
                         "input is not a positive Toeplitz matrix")
    return np.exp(1j * np.sort(nodes % (2 * np.pi)))


def _refine(T, angles):
    """Gauss-Newton on (angles, weights) against the coefficients of T.

    Starts from the least-squares weights for the given nodes, clamped to
    be nonnegative, and keeps the best iterate rather than the last;
    near-coincident nodes make the Jacobian rank deficient, which lstsq
    absorbs.  It stops by ``core.RoundingStop`` on the max-abs residual err,
    with floor 8 n eps max|t_k|: at the floor, or once the best err is
    within 10^3 times it and two steps in a row fail to halve that best,
    whether err creeps down or bounces above it.  The best iterate is
    returned.
    Transient negative weights are clamped at the end; the caller's
    reconstruction check is the real guard.
    """
    n, r = T.n, angles.size
    k = np.arange(-n + 1, n)
    A = np.exp(1j * np.outer(k, angles)) / n
    d, *_ = np.linalg.lstsq(np.vstack([A.real, A.imag]),
                            np.concatenate([T.t.real, T.t.imag]), rcond=None)
    x = np.concatenate([angles, np.clip(d, 0.0, None)])
    best, best_err = x.copy(), np.inf
    stop = RoundingStop(8 * n * np.finfo(float).eps * float(np.abs(T.t).max()))
    for _ in range(_REFINE_STEPS):
        th, d = x[:r], x[r:]
        E = np.exp(1j * np.outer(k, th))
        resid = (E / n) @ d - T.t
        err = float(np.abs(resid).max())
        if err < best_err:
            best_err, best = err, x.copy()
        if stop(err):
            break
        # d(model)/d(theta_i) = d_i * i k e^{i k theta_i} / n
        J = np.hstack([1j * k[:, None] * E * d[None, :] / n, E / n])
        step, *_ = np.linalg.lstsq(np.vstack([J.real, J.imag]),
                                   -np.concatenate([resid.real, resid.imag]), rcond=None)
        x = x + step
        if np.linalg.norm(step) < 1e-15:
            break
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
    RANK_CUT, as in det_multiplicity), T^{-1} and the range.  Full-rank
    decompositions are not unique; only reconstruction is canonical.
    """
    w, V, m = _positive_eigh(T, tol, "vandermonde_decompose")
    n, rank = T.n, T.n - m
    if rank == 0:
        return VandermondeDecomposition([], [])
    if n == 1:
        return VandermondeDecomposition([0.0], [float(np.real(T.t[0]))])

    peel = None
    if rank == n:
        # deterministic grid choice of the ray to remove
        L = max(PEEL_GRID, 1 << int(np.ceil(np.log2(2 * n))))
        k = np.arange(n)
        th = 2 * np.pi * int(np.argmax(np.fft.irfft((n - k) / n * np.conj(T.t[n - 1:]), L))) / L
        f = fourier_vector(np.exp(1j * th), n)
        v = V @ ((V.conj().T @ f) / w)
        peel = th, float(1.0 / np.real(np.vdot(f, v)))
        T = T - peel[1] * extreme_ray(np.exp(1j * th), n)
        # the columns after the first of the Householder reflector taking
        # v to a multiple of e_1 span the range of T, v's complement
        x = v / np.linalg.norm(v)
        x[0] += np.exp(1j * np.angle(x[0]))
        Us = np.eye(n)[:, 1:] - 2 * np.outer(x, x[1:].conj()) / np.vdot(x, x).real
    else:
        Us = V[:, m:]
    angles, weights = _refine(T, _subspace_nodes(Us))
    if peel is not None:
        # merge the peeled ray back in, coalescing with an existing node if hit
        th, s = peel
        close = np.nonzero(np.abs((angles - th + np.pi) % (2 * np.pi) - np.pi)
                           <= NODE_CLUSTER_TOL)[0]
        if close.size:
            weights[close[0]] += s
        else:
            angles, weights = np.append(angles, th), np.append(weights, s)
    keep = weights > 1e-13 * max(1.0, weights.max())
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
