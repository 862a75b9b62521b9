import time

import numpy as np
import pytest

import toepsys as ts


def test_system_validation():
    with pytest.raises(ValueError):
        ts.MatrixSystem([np.array([[0, 1], [0, 0]])])  # not self-adjoint
    with pytest.raises(ValueError):
        ts.MatrixSystem([np.array([[1, 0], [0, -1]])])  # no identity
    for build, name in ((ts.toeplitz_system, "n"), (ts.circulant_system, "m")):
        for bad in (0, -3):
            with pytest.raises(ValueError, match="needs %s >= 1" % name):
                build(bad)


def test_toeplitz_span_dims():
    sys3 = ts.toeplitz_system(3)
    assert ts.product_span_dim(sys3, 1) == 5
    assert ts.product_span_dim(sys3, 2) == 9
    dims = [ts.product_span_dim(sys3, k) for k in (1, 2, 3)]
    assert dims == sorted(dims)


def test_circulant_is_algebra():
    for m in range(3, 24):
        sysm = ts.circulant_system(m)
        assert ts.product_span_dim(sysm, 1) == m
        assert ts.product_span_dim(sysm, 3) == m
        assert ts.propagation_number(sysm) == 1


def test_full_matrix_algebra():
    mats = []
    for i in range(2):
        for j in range(2):
            E = np.zeros((2, 2))
            E[i, j] = 1
            mats.append(E)
    assert ts.propagation_number(ts.MatrixSystem(mats)) == 1


def test_toeplitz_propagation():
    # n = 16 is timed in test_toeplitz_propagation_n16_is_fast
    for n in range(2, 16):
        assert ts.propagation_number(ts.toeplitz_system(n)) == 2


def _tensor_matrix_units(sys, k):
    """A spanning set of S (x) M_k: the A (x) E_ij with A the ``span`` rows
    of S and E_ij the matrix units of M_k."""
    units = np.eye(k * k).reshape(-1, k, k)
    return [np.kron(A, E) for A in sys.span.reshape(-1, sys.N, sys.N)
            for E in units]


@pytest.mark.parametrize("build, size, prop",
                         [(ts.toeplitz_system, n, 2) for n in range(2, 9)]
                         + [(ts.circulant_system, m, 1) for m in (3, 5, 7)])
def test_propagation_is_stable(build, size, prop):
    """The propagation number is invariant under stable equivalence:
    prop(S (x) M_k) = prop(S)."""
    sys = build(size)
    assert ts.propagation_number(sys) == prop
    assert ts.propagation_number(ts.MatrixSystem(_tensor_matrix_units(sys, 2))) == prop
    # k = 3 where it is cheap: at Toeplitz n = 7 and 8 it takes 0.7 and 1.4 s
    if build is ts.circulant_system or size <= 6:
        assert ts.propagation_number(ts.MatrixSystem(_tensor_matrix_units(sys, 3))) == prop


def _tolerance_units(N, w, cyclic=False):
    """The matrix units E_ij with i and j at most w apart, on a path of N
    points or, if cyclic, on a cycle of N points."""
    i, j = np.indices((N, N))
    d = np.abs(i - j)
    if cyclic:
        d = np.minimum(d, N - d)
    mats = []
    for a, b in zip(*np.nonzero(d <= w)):
        E = np.zeros((N, N))
        E[a, b] = 1
        mats.append(E)
    return mats


def _tolerance_system(N, w, cyclic=False):
    return ts.MatrixSystem(_tolerance_units(N, w, cyclic))


@pytest.mark.parametrize("N, w, expected",
                         [(4, 1, 3), (6, 1, 5), (8, 1, 7), (9, 2, 4), (10, 1, 9),
                          (16, 1, 15)])
def test_band_tolerance_propagation(N, w, expected):
    assert expected == -(-(N - 1) // w)
    assert ts.propagation_number(_tolerance_system(N, w), max_k=expected) == expected


@pytest.mark.parametrize("N, w, expected",
                         [(8, 1, 4), (10, 2, 3), (11, 1, 5), (16, 2, 4)])
def test_cyclic_tolerance_propagation(N, w, expected):
    assert expected == -(-(N // 2) // w)
    assert ts.propagation_number(_tolerance_system(N, w, cyclic=True),
                                 max_k=expected) == expected


def test_propagation_cap_and_span_dims():
    assert ts.propagation_number(_tolerance_system(8, 1), max_k=3) == 4
    band = _tolerance_system(4, 1)
    assert [ts.product_span_dim(band, k) for k in (1, 2, 3)] == [10, 14, 16]


def test_toeplitz_propagation_n16_is_fast():
    start = time.perf_counter()
    assert ts.propagation_number(ts.toeplitz_system(16)) == 2
    assert time.perf_counter() - start < 2.0


def _real_spanning_sets():
    for n in range(2, 9):
        yield "toeplitz%d" % n, [ts.ToeplitzMatrix(e).dense()
                                 for e in np.eye(2 * n - 1)]
    for m in range(3, 9):
        yield "circulant%d" % m, [np.roll(np.eye(m), k, axis=0)
                                  for k in range(m)]
    for N, w in ((4, 1), (6, 1), (8, 1), (9, 2), (10, 1)):
        yield "band%d-%d" % (N, w), _tolerance_units(N, w)
    for N, w in ((8, 1), (10, 2), (11, 1)):
        yield "cyclic%d-%d" % (N, w), _tolerance_units(N, w, cyclic=True)


@pytest.mark.parametrize("mats", [pytest.param(mats, id=name)
                                  for name, mats in _real_spanning_sets()])
def test_real_and_complex_spanning_sets_agree(mats):
    """A real spanning set is kept in float64; the same set times a unit
    phase is complex, spans the same complex space and must give the same
    chain of product-span dimensions."""
    real = ts.MatrixSystem(mats)
    cplx = ts.MatrixSystem([np.exp(1j * np.pi / 7) * M for M in mats])
    assert real.span.dtype == np.float64
    assert cplx.span.dtype == np.complex128
    prop = ts.propagation_number(real)
    assert ts.propagation_number(cplx) == prop
    dims = [ts.product_span_dim(real, k) for k in range(1, prop + 2)]
    assert [ts.product_span_dim(cplx, k) for k in range(1, prop + 2)] == dims


def test_span_dtype_follows_spanning_set():
    # integer and real-valued complex input are real spanning sets
    assert ts.MatrixSystem([np.eye(3, dtype=int)]).span.dtype == np.float64
    assert ts.MatrixSystem([np.eye(3) + 0j]).span.dtype == np.float64
    herm = [np.eye(2), np.array([[0, 1], [1, 0]]),
            np.array([[0, -1j], [1j, 0]])]
    assert ts.MatrixSystem(herm).span.dtype == np.complex128
    assert ts.propagation_number(ts.MatrixSystem(herm)) == 2


def _reference_dims(sys, k_max):
    """dim S^1, dim S^2, ... up to k_max terms, by the chain without row
    filtering: one SVD of the whole residual at every step, then a QR."""
    N, Q = sys.N, sys.span
    basis, new = Q.reshape(-1, N, N), Q
    dims = [Q.shape[0]]
    while len(dims) < k_max and Q.shape[0] < N * N:
        P = np.matmul(new.reshape(-1, 1, N, N), basis).reshape(-1, N * N)
        R = P - (P @ Q.conj().T) @ Q
        tol = ts.opsys.RANK_TOL * max(1.0, np.linalg.norm(P))
        if np.linalg.norm(R) <= tol:
            break
        _, s, vh = np.linalg.svd(R, full_matrices=False)
        new = vh[s > tol]
        if not new.shape[0]:
            break
        new = np.linalg.qr((new - (new @ Q.conj().T) @ Q).T)[0].T
        Q = np.vstack([Q, new])
        dims.append(Q.shape[0])
    return dims + [dims[-1]] * (k_max - len(dims))


def _random_hermitian_sets():
    for seed, (N, b) in enumerate(((3, 1), (4, 2), (5, 2), (6, 3))):
        rng = np.random.default_rng([17, seed])
        H = rng.standard_normal((b, N, N)) + 1j * rng.standard_normal((b, N, N))
        # a sparse pattern keeps some products in the span and some zero
        H *= rng.random((b, N, N)) < 0.4
        yield "hermitian%d-%d" % (N, b), [np.eye(N)] + list(H + H.conj().transpose(0, 2, 1))


def _oracle_systems():
    for name, mats in _real_spanning_sets():
        yield name, mats
        yield name + "-phase", [np.exp(1j * np.pi / 7) * M for M in mats]
    yield "toeplitz3xM2", _tensor_matrix_units(ts.toeplitz_system(3), 2)
    yield "band6-1xM2", _tensor_matrix_units(_tolerance_system(6, 1), 2)
    yield from _random_hermitian_sets()


@pytest.mark.parametrize("mats", [pytest.param(mats, id=name)
                                  for name, mats in _oracle_systems()])
def test_rank_decisions_match_reference_chain(mats):
    """Dropping product rows of norm <= tol / sqrt(m) moves no rank decision:
    every dim S^k up to prop + 1 equals the unfiltered chain's."""
    sys = ts.MatrixSystem(mats)
    prop = ts.propagation_number(sys, max_k=16)
    assert prop <= 16
    dims = [ts.product_span_dim(sys, k) for k in range(1, prop + 2)]
    assert dims == _reference_dims(sys, prop + 1)
