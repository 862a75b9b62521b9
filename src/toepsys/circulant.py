"""
Circulant matrices, the finite Fourier transform, and the relation between
circulants and their Toeplitz compressions.

Conventions: zeta = exp(2 pi i / m), xi = conj(zeta).  The transform is
F(f)(k) = sum_l f_l xi^{kl}, which coincides with numpy's fft; m^{-1/2} F is
unitary and diagonalizes every circulant.
"""

import math

import numpy as np

from .core import ToeplitzMatrix, _from_json, _self_adjoint, json_pairs


class CirculantMatrix:
    """
    An m x m matrix with dense entry (k, l) = c_{(k-l) mod m}.

    Linear combinations of powers of the cyclic shift; simultaneously
    diagonalized by the finite Fourier transform.
    """

    def __init__(self, c):
        self.c = np.asarray(c, dtype=complex).ravel()
        self.m = self.c.size
        if self.m == 0:
            raise ValueError("empty circulant")

    def dense(self):
        idx = np.arange(self.m)
        return self.c[(idx[:, None] - idx[None, :]) % self.m]

    def eigenvalues(self):
        """The values sum_l c_l xi^{kl}, k = 0..m-1 (Fourier transform of c)."""
        return np.fft.fft(self.c)

    @property
    def hermitian(self):
        # c_0, ..., c_{m-1}, c_0 reversed runs through conj(c_{-k mod m})
        return _self_adjoint(np.append(self.c, self.c[0]), 1e-13)

    def __repr__(self):
        return "CirculantMatrix(m=%d, c=%r)" % (self.m, list(self.c))


def fourier_transform(f):
    """F(f)(k) = sum_l f_l conj(zeta)^{kl} with zeta = exp(2 pi i / m)."""
    f = np.asarray(f, dtype=complex).ravel()
    if f.size == 0:
        raise ValueError("empty sequence")
    return np.fft.fft(f)


def fourier_matrix(m):
    """The m x m matrix F with entries conj(zeta)^{kl}."""
    k = np.arange(m)
    zeta = np.exp(2j * np.pi / m)
    return np.conj(zeta) ** np.outer(k, k)


def diagonalizer(m):
    """
    The unitary U with U* C U diagonal, eigenvalues in the order returned by
    ``CirculantMatrix.eigenvalues``.  Equals m^{-1/2} times the conjugate
    Fourier matrix: the eigenvector for eigenvalue sum_l c_l xi^{kl} has
    entries zeta^{kl}.
    """
    return np.conj(fourier_matrix(m)) / np.sqrt(m)


def group_pairing(f, g):
    """The cyclic pairing (f star g)(0) = sum_l f_l g_{(-l) mod m}."""
    f = np.asarray(f, dtype=complex).ravel()
    g = np.asarray(g, dtype=complex).ravel()
    if f.size != g.size:
        raise ValueError("size mismatch: %d vs %d" % (f.size, g.size))
    m = f.size
    return complex(np.sum(f * g[(-np.arange(m)) % m]))


def complete_toeplitz(T, m):
    """
    The m x m circulant whose upper-left n x n corner is T.

    Requires m >= 2n - 1 so the wrapped coefficients do not collide; the
    free coefficients are zero-filled.
    """
    n = T.n
    if m < 2 * n - 1:
        raise ValueError("need m >= 2n-1 = %d, got m = %d" % (2 * n - 1, m))
    c = np.zeros(m, dtype=complex)
    c[:n], c[m - n + 1:] = T.t[n - 1:], T.t[:n - 1]
    return CirculantMatrix(c)


def compress_circulant(C, n):
    """The Toeplitz compression P_n C P_n (upper-left n x n corner)."""
    if n > C.m:
        raise ValueError("compression size %d exceeds circulant size %d" % (n, C.m))
    return ToeplitzMatrix(C.c[np.arange(-n + 1, n) % C.m])


def tensor_map_rank(n):
    """
    Rank of the map sending f tensor T, for f on the cyclic group of order
    m = 2n-1 and T an n x n Toeplitz matrix, to
    sum_k f_k S^k (T + 0_{n-1}) S^{-k} inside the m x m matrices.

    Conjugation by the shift S moves entries along wrapped diagonals, and
    the diagonals j = -(n-1)..n-1 of T land on the m distinct wrapped
    diagonals.  On diagonal j the map is cyclic convolution with a run of
    L = n - |j| ones, whose transform vanishes at exactly gcd(L, m) - 1
    nonzero frequencies.  The rank is therefore, exactly,

        sum_j (m + 1 - gcd(n - |j|, m)).

    It equals m^2 (the map is bijective) exactly when m is prime: a
    composite m has a prime factor p <= sqrt(m) < n, and the run L = p
    then has gcd(p, m) > 1.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    m = 2 * n - 1
    return sum(m + 1 - math.gcd(n - abs(j), m) for j in range(-n + 1, n))


def circulant_to_json(C):
    """JSON-ready dict {"m": ..., "c": [[re, im], ...]}."""
    return {"m": C.m, "c": json_pairs(C.c)}


def circulant_from_json(obj):
    return _from_json(obj, "m", "c", CirculantMatrix)
