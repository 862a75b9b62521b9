"""
One small call into every toepsys layer, so that lazy imports and first-call
set-up finish before anything is timed.  Also the body of the set-up
measurement, which runs it in fresh interpreters.
"""

import numpy as np


def warm_up(ts):
    import toepsys.geometry3 as g3

    a = ts.fr_from_coeffs([0.5, 1.0, 0.5])
    ts.fejer_riesz_factorize(a)
    s = ts.state_from_density(a)
    ts.is_pure(s)
    T = 2.0 * ts.extreme_ray(np.exp(0.9j), 3)
    ts.is_positive(T)
    ts.reconstruct(ts.vandermonde_decompose(T), 3)
    ts.kernel_roots(T)
    ts.det_multiplicity(T)
    phi = ts.trace_state(2)
    ts.connes_distance(phi, s)
    ts.kantorovich(phi, s)
    ts.propagation_number(ts.toeplitz_system(3))
    ts.tensor_map_rank(2)
    ts.compress_circulant(ts.complete_toeplitz(T, 5), 3)
    g3.run_checks(samples=10)
    g3.sample_surfaces("boundary", 2)


if __name__ == "__main__":
    import toepsys

    warm_up(toepsys)
