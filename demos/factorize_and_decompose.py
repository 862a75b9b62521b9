"""
Factor a nonnegative trigonometric polynomial and decompose a positive
Toeplitz matrix into extreme rays.

Run from the repository root after an editable install:

    python3 demos/factorize_and_decompose.py
"""

import numpy as np

import toepsys as ts


def main():
    rng = np.random.default_rng(7)

    # a nonnegative circle function built as |q|^2 from a random q
    q = rng.normal(size=4) + 1j * rng.normal(size=4)
    f = ts.FRElement(np.concatenate([np.zeros(3), q]))
    a = ts.fr_convolve(f.involution(), f).resize(4)
    print("input sequence (support -3..3):")
    print(np.round(a.a, 4))

    factor = ts.fejer_riesz_factorize(a)
    print("\nminimum-phase factor q:")
    print(np.round(factor.q, 4))
    print("factor roots (all inside the closed disc):")
    print(np.round(np.abs(np.roots(factor.q[::-1])), 6))
    print("certified bound on sup |a - |q|^2|: %.2e"
          % ts.factorization_residual(a, factor))

    # a rank-3 positive Toeplitz matrix of size 5: a sum of three rays
    angles = np.array([0.4, 1.9, 4.1])
    weights = np.array([1.0, 0.5, 2.0])
    T = ts.toeplitz_from_coeffs(sum(
        w * ts.extreme_ray(np.exp(1j * x), 5).t
        for x, w in zip(angles, weights)))

    vd = ts.vandermonde_decompose(T)
    print("\ndecomposition of a 5x5 matrix built from 3 rays:")
    print("recovered rank:    ", vd.rank)
    print("recovered angles:  ", np.round(np.sort(vd.angles), 10))
    print("recovered weights: ", np.round(vd.weights[np.argsort(vd.angles)], 10))
    R = ts.reconstruct(vd, 5)
    print("reconstruction error: %.2e" % np.abs(R.t - T.t).max())
    print("determinant vanishing order at T: %d (n - rank = %d)"
          % (ts.det_multiplicity(T), 5 - vd.rank))


if __name__ == "__main__":
    main()
