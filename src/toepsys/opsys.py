"""
Concrete operator systems inside a matrix algebra: spans of products and
the propagation number.

A system is given by a spanning set of N x N matrices; the span must be
self-adjoint and contain the identity.  The propagation number is the
smallest k for which the span S^k of products of at most k elements is an
algebra.

Because the system is unital, S^1 <= S^2 <= ... is a nested chain, and S^k
is an algebra exactly when S^{k+1} = S^k.  The spans are computed once, as
one chain of orthonormal bases that grows until it stops growing.  Each
step decides its rank on the product rows that can add a direction: rows
of norm at most tol / sqrt(m), m the number of products, are dropped
before and after the projection off the span, which moves a decision only
for a singular value in (tol, sqrt(2) tol].  A step that reaches
dimension N^2 ends the chain with the standard basis of M_N.

A spanning set of real matrices (diagonals, cyclic shifts, matrix units) is
kept and multiplied in float64, any other in complex128.  Dimensions do not
depend on the choice: the complex span of real matrices has a real
orthonormal basis of the same dimension, and products of real matrices are
real, so every dim S^k is the same in either arithmetic.
"""

import numpy as np

from .core import ToeplitzMatrix

#: relative singular-value threshold for span-dimension decisions
RANK_TOL = 1e-9


class MatrixSystem:
    """A self-adjoint unital subspace of the N x N matrices, from a spanning
    set, kept as ``span``: orthonormal rows (flattened) that span it.

    ``span`` is float64 when every spanning matrix has zero imaginary part,
    complex128 otherwise; its number of rows, the complex dimension, is the
    same either way."""

    def __init__(self, basis):
        basis = [np.asarray(B) for B in basis]
        if not basis:
            raise ValueError("empty system")
        self.N = basis[0].shape[0]
        if any(B.shape != (self.N, self.N) for B in basis):
            raise ValueError("basis matrices must share one square shape")
        stack = np.array(basis, dtype=complex)
        stack = stack if stack.imag.any() else stack.real
        u, s, _ = np.linalg.svd(stack.reshape(len(basis), -1).T,
                                full_matrices=False)
        self.span = u[:, s > RANK_TOL * s[0]].T
        adj = stack.conj().transpose(0, 2, 1).reshape(len(basis), -1)
        eye = np.eye(self.N, dtype=stack.dtype).reshape(1, -1)
        for rows, msg in ((adj, "span is not self-adjoint"),
                          (eye, "span does not contain the identity")):
            R, tol = _off_span(rows, self.span)
            if np.linalg.norm(R) > tol:
                raise ValueError(msg)


def toeplitz_system(n):
    """The n x n Toeplitz matrices as a system, spanned by the 2n-1 diagonals."""
    if n < 1:
        raise ValueError("toeplitz_system needs n >= 1, got %d" % n)
    return MatrixSystem([ToeplitzMatrix(e).dense() for e in np.eye(2 * n - 1)])


def circulant_system(m):
    """The m x m circulants, spanned by the powers of the cyclic shift."""
    if m < 1:
        raise ValueError("circulant_system needs m >= 1, got %d" % m)
    return MatrixSystem([np.roll(np.eye(m), k, axis=0) for k in range(m)])


def _off_span(P, Q):
    """
    The part R = P - P Q* Q of the rows of P off the span of the orthonormal
    rows Q, and the threshold tol = RANK_TOL max(1, ||P||_F) at or below
    which ||R||_F, a bound on every singular value of R, adds no direction.
    Rows of P of norm <= tol / sqrt(m), m the number of rows (exact zeros
    such as E_ij E_kl with j != k), are dropped before the projection;
    ``_chain`` says why that moves a decision only in (tol, sqrt(2) tol].
    """
    sq = _row_norms_sq(P)
    tol = RANK_TOL * max(1.0, float(sq.sum())) ** 0.5
    cut = tol * tol / sq.size
    if sq.min() <= cut:  # no copy when all stay, as for the circulants
        P = P[sq > cut]
    return P - (P @ Q.conj().T) @ Q, tol


def _row_norms_sq(X):
    """Squared Euclidean norms of the rows of X."""
    return np.einsum("ij,ij->i", X.conj(), X).real


def _chain(sys, k_max):
    """
    Orthonormal bases Q_1, Q_2, ... (rows, flattened) of S^1 <= S^2 <= ...,
    where S^k is the span of products of at most k elements.

    Stops after k_max bases, or earlier once the chain is stationary: when
    S^{k+1} = S^k or dim S^k = N^2.  Since S^{k+1} = S^k + N_k S with N_k
    the directions new at step k, only those are multiplied by the basis.

    The rank of a step is one SVD of the residual off the span, on the rows
    that can add a direction: with m the number of products, rows of norm
    <= tol / sqrt(m) are dropped, of the products by ``_off_span`` and then
    of the residual.  A row's part off the span is no longer than the row,
    so the dropped rows E of the full residual R have ||E||_F <= tol, and
    the kept rows R' satisfy R* R = R'* R' + E* E.  Hence
    s_i(R') <= s_i(R) <= sqrt(s_i(R')^2 + tol^2) (interlacing and Weyl),
    and a decision s_i > tol differs from the one on R only for a singular
    value s_i(R) in (tol, sqrt(2) tol].  A step whose new rank brings the
    dimension to N^2 appends the standard basis of M_N, with no
    re-orthogonalization, and ends the chain.
    """
    N = sys.N
    Q = sys.span
    basis = Q.reshape(-1, N, N)
    chain = [Q]
    new = Q
    while len(chain) < k_max and Q.shape[0] < N * N:
        P = np.matmul(new.reshape(-1, 1, N, N), basis).reshape(-1, N * N)
        R, tol = _off_span(P, Q)
        if np.linalg.norm(R) <= tol:
            break
        R = R[_row_norms_sq(R) > tol * tol / P.shape[0]]
        _, s, vh = np.linalg.svd(R, full_matrices=False)
        new = vh[s > tol]
        if not new.shape[0]:
            break
        if Q.shape[0] + new.shape[0] >= N * N:
            chain.append(np.eye(N * N, dtype=Q.dtype))
            break
        new = np.linalg.qr((new - (new @ Q.conj().T) @ Q).T)[0].T
        Q = np.vstack([Q, new])
        chain.append(Q)
    return chain


def product_span_dim(sys, k):
    """Complex dimension of the span of products of at most k elements."""
    if k < 1:
        raise ValueError("need k >= 1")
    return int(_chain(sys, k)[-1].shape[0])


def propagation_number(sys, max_k=8):
    """
    The smallest k <= max_k such that the span S^k of products of at most
    k elements is an algebra.

    The system is unital, so S^k <= S^{k+1}, and S^k is an algebra exactly
    when S^{k+1} = S^k: then S^k S^j <= S^k by induction on j, and
    conversely S^{k+1} = S^k S <= S^k S^k <= S^k.  The answer is therefore
    the first index at which the chain of spans stops growing.

    Returns max_k + 1 when no such k is found.
    """
    if max_k < 1:
        raise ValueError("need max_k >= 1")
    return len(_chain(sys, max_k + 1))
