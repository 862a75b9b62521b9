"""
Node/weight decompositions of positive Toeplitz matrices.

Every positive Toeplitz matrix is a nonnegative combination of the rank-one
matrices gamma(lambda) with nodes lambda on the unit circle; at rank
r <= n-1 the node set is unique and recovered from the common roots of the
kernel polynomials, while at full rank one extreme ray is peeled off first
and the deficient-rank remainder is decomposed.
"""

import numpy as np

from .core import ToeplitzMatrix, extreme_ray, fourier_vector, is_positive

#: angular radius used to coalesce numerically split nodes
NODE_CLUSTER_TOL = 1e-6

#: grid resolution for choosing the ray peeled off a full-rank matrix
PEEL_GRID = 256


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
    t = np.zeros(2 * n - 1, dtype=complex)
    k = np.arange(-n + 1, n)
    for theta, d in zip(vd.angles, vd.weights):
        t += d * np.exp(1j * theta) ** k / n
    return ToeplitzMatrix(t)


def _kernel_basis(T, tol):
    w, v = np.linalg.eigh(T.dense())
    scale = max(float(np.abs(w).max()), 1e-300)
    keep = w <= tol * scale
    return v[:, keep], w, scale


def kernel_roots(T, tol=1e-9):
    """
    The nodes of a singular positive Toeplitz matrix: the common on-circle
    roots of the polynomials sum_k xi_k z^k over the kernel vectors xi.

    Raises
    ------
    ValueError
        If T is nonsingular (empty kernel at the given tolerance), or if the
        kernel polynomials have a common root detectably off the circle.
    """
    ok, _ = is_positive(T, tol=max(tol, 1e-9))
    if not ok:
        raise ValueError("kernel_roots requires a positive matrix")
    K, w, scale = _kernel_basis(T, max(tol, 1e-9))
    if K.shape[1] == 0:
        raise ValueError("matrix is nonsingular at tolerance %g" % tol)

    xi = K[:, 0]
    # kernel vectors are orthogonal to f_lambda, so the polynomial of xi
    # vanishes at conj(lambda): candidate nodes are conjugated roots
    roots = np.conj(np.roots(np.trim_zeros(xi)[::-1]))
    nodes = []
    powers = np.arange(T.n)
    for z in roots:
        if abs(np.log(abs(z) + 1e-300)) > 1e-4:
            continue
        zn = z / abs(z)
        vals = np.abs(K.T.conj() @ (zn ** powers)) / np.sqrt(T.n)
        if np.all(vals < 1e-5):
            nodes.append(zn)
    if not nodes:
        raise ValueError("kernel polynomials have no common circle root; "
                         "input is not a positive Toeplitz matrix")
    # coalesce split nodes
    angles = np.sort(np.angle(nodes) % (2 * np.pi))
    merged = [angles[0]]
    for th in angles[1:]:
        if th - merged[-1] > NODE_CLUSTER_TOL:
            merged.append(th)
    if len(merged) > 1 and (2 * np.pi + merged[0]) - merged[-1] <= NODE_CLUSTER_TOL:
        merged.pop()
    return np.exp(1j * np.asarray(merged))


def _solve_weights(T, angles, tol):
    """Least-squares weights for given nodes, clamped to be nonnegative.

    Transient negatives can occur while the node estimates are still rough;
    the Gauss-Newton polish and the caller's reconstruction check are the
    real guards.
    """
    n = T.n
    k = np.arange(-n + 1, n)
    A = np.exp(1j * np.outer(k, angles)) / n
    M = np.vstack([A.real, A.imag])
    rhs = np.concatenate([T.t.real, T.t.imag])
    d, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    return np.clip(d, 0.0, None)


def _refine(T, angles, weights, iters=12):
    """Gauss-Newton on (angles, weights) against the coefficients of T.

    Keeps the best iterate rather than the last; near-coincident nodes make
    the Jacobian rank deficient, which lstsq absorbs.
    """
    n = T.n
    k = np.arange(-n + 1, n)
    x = np.concatenate([angles, weights])
    r = angles.size
    best, best_err = x.copy(), np.inf
    for _ in range(iters):
        th, d = x[:r], x[r:]
        E = np.exp(1j * np.outer(k, th))
        resid = (E / n) @ d - T.t
        err = float(np.abs(resid).max())
        if err < best_err:
            best_err, best = err, x.copy()
        # d(model)/d(theta_i) = d_i * i k e^{i k theta_i} / n
        Jth = 1j * k[:, None] * E * d[None, :] / n
        Jd = E / n
        J = np.hstack([Jth, Jd])
        JR = np.vstack([J.real, J.imag])
        rr = np.concatenate([resid.real, resid.imag])
        step, *_ = np.linalg.lstsq(JR, -rr, rcond=None)
        x = x + step
        if np.linalg.norm(step) < 1e-15:
            break
    th, d = best[:r], np.clip(best[r:], 0.0, None)
    return th % (2 * np.pi), d


def _subspace_nodes(M, r):
    """
    Node angles from the rotational invariance of the signal subspace: with
    columns f_lambda spanning the range, the shifted range rows satisfy
    Us[1:] = Us[:-1] Phi where Phi has the nodes as eigenvalues.
    """
    w, V = np.linalg.eigh(M)
    Us = V[:, -r:]
    Phi, *_ = np.linalg.lstsq(Us[:-1], Us[1:], rcond=None)
    return np.angle(np.linalg.eigvals(Phi)) % (2 * np.pi)


def vandermonde_decompose(T, tol=1e-9):
    """
    Decompose a positive Toeplitz matrix as sum_i d_i gamma(lambda_i).

    At rank r <= n-1 the r nodes are determined by T (uniqueness of the
    decomposition); they are estimated from the shift invariance of the
    range of T and polished by Gauss-Newton on the coefficients.  At full
    rank one ray is peeled off first: the grid maximizer lambda of
    <f_lambda, T f_lambda> is removed with the extremal coefficient
    s = 1 / <f_lambda, T^{-1} f_lambda>, which drops the rank by one.
    Full-rank decompositions are not unique; only reconstruction is
    canonical.
    """
    ok, _ = is_positive(T, tol=max(tol, 1e-9))
    if not ok:
        raise ValueError("vandermonde_decompose requires a positive matrix")
    n = T.n
    w = np.linalg.eigvalsh(T.dense())
    scale = max(float(np.abs(w).max()), 0.0)
    if scale == 0.0:
        return VandermondeDecomposition([], [])
    if n == 1:
        return VandermondeDecomposition([0.0], [float(np.real(T.t[0]))])
    rank = int(np.sum(w > 1e-12 * scale))

    peeled = []
    if rank == n:
        # deterministic grid choice of the ray to remove
        grid = 2 * np.pi * np.arange(PEEL_GRID) / PEEL_GRID
        M = T.dense()
        vals = np.array([np.real(np.vdot(fourier_vector(np.exp(1j * th), n),
                                         M @ fourier_vector(np.exp(1j * th), n)))
                         for th in grid])
        th_hat = float(grid[int(np.argmax(vals))])
        f = fourier_vector(np.exp(1j * th_hat), n)
        s = float(1.0 / np.real(np.vdot(f, np.linalg.solve(M, f))))
        T = T - s * extreme_ray(np.exp(1j * th_hat), n)
        peeled.append((th_hat, s))
        rank = n - 1

    angles = _subspace_nodes(T.dense(), rank)
    weights = _solve_weights(T, angles, tol)
    angles, weights = _refine(T, angles, weights)

    for th, s in peeled:
        # merge the peeled ray back in, coalescing with an existing node if hit
        close = np.nonzero(np.abs((angles - th + np.pi) % (2 * np.pi) - np.pi)
                           <= NODE_CLUSTER_TOL)[0]
        if close.size:
            weights[close[0]] += s
        else:
            angles = np.append(angles, th)
            weights = np.append(weights, s)

    keep = weights > 1e-13 * max(1.0, weights.max())
    return VandermondeDecomposition(angles[keep], weights[keep])


def det_multiplicity(T, max_k=None):
    """
    Order of vanishing of the determinant at T along Toeplitz directions:
    the smallest m for which some m-th directional derivative of det inside
    the hermitian Toeplitz slice is nonzero (m = 0 when det(T) != 0).

    This is the nullity of T.  Along any hermitian direction B, Weyl's
    inequality keeps the k zero eigenvalues of T within |t| ||B|| of zero,
    so det(T + tB) vanishes to order >= k at t = 0; along B = I it is the
    product of the eigenvalues plus t and vanishes to order exactly k.  The
    nullity counts the eigenvalues with |lambda| <= 1e-10 max |lambda|.
    Returns min(nullity, max_k + 1), max_k defaulting to n.
    """
    if max_k is None:
        max_k = T.n
    w = np.abs(np.linalg.eigvalsh(T.dense()))
    nullity = int(np.sum(w <= 1e-10 * w.max()))
    return min(nullity, max_k + 1)
