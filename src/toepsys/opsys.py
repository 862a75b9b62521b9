"""
Concrete operator systems inside a matrix algebra: spans of products and
the propagation number.

A system is given by a spanning set of N x N matrices; the span must be
self-adjoint and contain the identity.  The propagation number is the
smallest k for which the span S^k of products of at most k elements is an
algebra.

Because the system is unital, S^1 <= S^2 <= ... is a nested chain, and S^k
is an algebra exactly when S^{k+1} = S^k.  The spans are computed once, as
one chain of orthonormal bases that grows until it stops growing.
"""

import numpy as np

from .core import ToeplitzMatrix

#: relative singular-value threshold for span-dimension decisions
RANK_TOL = 1e-9


class MatrixSystem:
    """A spanning set of N x N matrices for a self-adjoint unital subspace."""

    def __init__(self, basis):
        self.basis = [np.asarray(B, dtype=complex) for B in basis]
        if not self.basis:
            raise ValueError("empty system")
        self.N = self.basis[0].shape[0]
        for B in self.basis:
            if B.shape != (self.N, self.N):
                raise ValueError("basis matrices must share one square shape")
        self._check_selfadjoint_unital()

    def _check_selfadjoint_unital(self):
        flat = np.array([B.ravel() for B in self.basis])
        adj = np.array([B.conj().T.ravel() for B in self.basis])
        eye = np.eye(self.N, dtype=complex).ravel()
        d = np.linalg.matrix_rank(flat, tol=None)
        if np.linalg.matrix_rank(np.vstack([flat, adj])) != d:
            raise ValueError("span is not self-adjoint")
        if np.linalg.matrix_rank(np.vstack([flat, eye[None, :]])) != d:
            raise ValueError("span does not contain the identity")


def toeplitz_system(n):
    """The n x n Toeplitz matrices as a system, spanned by the 2n-1 diagonals."""
    basis = []
    for j in range(-n + 1, n):
        t = np.zeros(2 * n - 1, dtype=complex)
        t[j + n - 1] = 1.0
        basis.append(ToeplitzMatrix(t).dense())
    return MatrixSystem(basis)


def circulant_system(m):
    """The m x m circulants, spanned by the powers of the cyclic shift."""
    S = np.zeros((m, m))
    S[np.arange(m), (np.arange(m) - 1) % m] = 1.0
    return MatrixSystem([np.linalg.matrix_power(S, k) for k in range(m)])


def _orthonormal_span(vectors):
    """Orthonormal rows spanning the same space, via singular vectors."""
    u, s, vh = np.linalg.svd(vectors, full_matrices=False)
    keep = s > RANK_TOL * (s[0] if s.size else 1.0)
    return vh[keep]


def _chain(sys, k_max):
    """
    Orthonormal bases Q_1, Q_2, ... (rows, flattened) of S^1 <= S^2 <= ...,
    where S^k is the span of products of at most k elements.

    Stops after k_max bases, or earlier once the chain is stationary: when
    S^{k+1} = S^k or dim S^k = N^2.  Since S^{k+1} = S^k + N_k S with N_k
    the directions new at step k, only those are multiplied by the basis.
    """
    N = sys.N
    Q = _orthonormal_span(np.array([B.ravel() for B in sys.basis]))
    basis = Q.reshape(-1, N, N)
    chain = [Q]
    new = Q
    while len(chain) < k_max and Q.shape[0] < N * N:
        P = np.matmul(new.reshape(-1, 1, N, N), basis).reshape(-1, N * N)
        R = P - (P @ Q.conj().T) @ Q
        tol = RANK_TOL * max(1.0, np.linalg.norm(P))
        # ||R||_F bounds every singular value, so a small R adds no direction
        if np.linalg.norm(R) <= tol:
            break
        _, s, vh = np.linalg.svd(R, full_matrices=False)
        new = vh[s > tol]
        if not new.shape[0]:
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
