"""Property tests; skipped where hypothesis is not installed."""
import numpy as np
import pytest

import toepsys as ts

from conftest import random_positive_fr, random_state

hypothesis = pytest.importorskip("hypothesis")
given, settings, st = hypothesis.given, hypothesis.settings, hypothesis.strategies


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 24),
       touching=st.booleans())
def test_factor_round_trip_property(seed, n, touching):
    rng = np.random.default_rng(seed)
    a = random_positive_fr(n, rng, margin=0.0 if touching else None)
    f = ts.fejer_riesz_factorize(a)
    diff = f.squared_modulus().resize(n) - a
    assert np.abs(diff.a).sum() <= 1e-8 * np.abs(a.a).sum()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 12))
def test_kantorovich_symmetry_property(seed, n):
    rng = np.random.default_rng(seed)
    phi, psi = random_state(n, rng), random_state(n, rng)
    quad_tol = 1e-8
    assert abs(ts.kantorovich(phi, psi, quad_tol)
               - ts.kantorovich(psi, phi, quad_tol)) <= 2 * quad_tol
