import time

import numpy as np
import pytest

import toepsys as ts


def test_system_validation():
    with pytest.raises(ValueError):
        ts.MatrixSystem([np.array([[0, 1], [0, 0]])])  # not self-adjoint
    with pytest.raises(ValueError):
        ts.MatrixSystem([np.array([[1, 0], [0, -1]])])  # no identity


def test_toeplitz_span_dims():
    sys3 = ts.toeplitz_system(3)
    assert ts.product_span_dim(sys3, 1) == 5
    assert ts.product_span_dim(sys3, 2) == 9
    dims = [ts.product_span_dim(sys3, k) for k in (1, 2, 3)]
    assert dims == sorted(dims)


def test_circulant_is_algebra():
    for m in (3, 5, 8):
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
    for n in range(2, 9):
        assert ts.propagation_number(ts.toeplitz_system(n)) == 2


def _tolerance_system(N, w, cyclic=False):
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
    return ts.MatrixSystem(mats)


@pytest.mark.parametrize("N, w, expected",
                         [(4, 1, 3), (6, 1, 5), (8, 1, 7), (9, 2, 4), (10, 1, 9)])
def test_band_tolerance_propagation(N, w, expected):
    assert expected == -(-(N - 1) // w)
    assert ts.propagation_number(_tolerance_system(N, w)) == expected


@pytest.mark.parametrize("N, w, expected", [(8, 1, 4), (10, 2, 3), (11, 1, 5)])
def test_cyclic_tolerance_propagation(N, w, expected):
    assert expected == -(-(N // 2) // w)
    assert ts.propagation_number(_tolerance_system(N, w, cyclic=True)) == expected


def test_propagation_cap_and_span_dims():
    assert ts.propagation_number(_tolerance_system(8, 1), max_k=3) == 4
    band = _tolerance_system(4, 1)
    assert [ts.product_span_dim(band, k) for k in (1, 2, 3)] == [10, 14, 16]


def test_toeplitz_propagation_n16_is_fast():
    start = time.perf_counter()
    assert ts.propagation_number(ts.toeplitz_system(16)) == 2
    assert time.perf_counter() - start < 2.0
