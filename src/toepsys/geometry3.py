"""
The explicit algebraic geometry of the 3 x 3 positive Toeplitz cone and its
state space.

A hermitian 3 x 3 Toeplitz matrix is coordinatized by reals (a, b, c, d, u)
with t_0 = u, t_1 = a + ib, t_2 = c + id.  On the slice u = 1 the boundary
of the positive cone is cut out by the quartic delta; its singular points
form the closed curve gamma, and the boundary is swept by the segments
sigma between pairs of curve points.  Dually, the extreme states are the
two-torus family epsilon (a Moebius strip after the symmetry
epsilon(x, y) = epsilon(y, x)), the boundary of the state space is swept by
the segments beta, and the whole boundary lies inside the zero set of the
degree six discriminant.
"""

import numpy as np

from .core import ToeplitzMatrix

#: d(W, X, Y, Z) as (coefficient, (pW, pX, pY, pZ)) terms
DISCRIMINANT_TERMS = [
    (1, (6, 0, 0, 0)),
    (3, (4, 2, 0, 0)),
    (15, (4, 0, 2, 0)),
    (-18, (4, 0, 1, 0)),
    (-12, (4, 0, 0, 2)),
    (-1, (4, 0, 0, 0)),
    (108, (3, 1, 1, 1)),
    (-36, (3, 1, 0, 1)),
    (3, (2, 4, 0, 0)),
    (-78, (2, 2, 2, 0)),
    (84, (2, 2, 0, 2)),
    (-2, (2, 2, 0, 0)),
    (48, (2, 0, 4, 0)),
    (-144, (2, 0, 3, 0)),
    (96, (2, 0, 2, 2)),
    (80, (2, 0, 2, 0)),
    (-144, (2, 0, 1, 2)),
    (16, (2, 0, 1, 0)),
    (48, (2, 0, 0, 4)),
    (80, (2, 0, 0, 2)),
    (-108, (1, 3, 1, 1)),
    (-36, (1, 3, 0, 1)),
    (-288, (1, 1, 2, 1)),
    (-288, (1, 1, 0, 3)),
    (32, (1, 1, 0, 1)),
    (1, (0, 6, 0, 0)),
    (15, (0, 4, 2, 0)),
    (18, (0, 4, 1, 0)),
    (-12, (0, 4, 0, 2)),
    (-1, (0, 4, 0, 0)),
    (48, (0, 2, 4, 0)),
    (144, (0, 2, 3, 0)),
    (96, (0, 2, 2, 2)),
    (80, (0, 2, 2, 0)),
    (144, (0, 2, 1, 2)),
    (-16, (0, 2, 1, 0)),
    (48, (0, 2, 0, 4)),
    (80, (0, 2, 0, 2)),
    (-64, (0, 0, 6, 0)),
    (-192, (0, 0, 4, 2)),
    (128, (0, 0, 4, 0)),
    (-192, (0, 0, 2, 4)),
    (256, (0, 0, 2, 2)),
    (-64, (0, 0, 2, 0)),
    (-64, (0, 0, 0, 6)),
    (128, (0, 0, 0, 4)),
    (-64, (0, 0, 0, 2)),
]

_DISC_COEFFS = np.array([c for c, _ in DISCRIMINANT_TERMS], dtype=float)
_DISC_POWERS = np.array([p for _, p in DISCRIMINANT_TERMS])
# partial derivative i: coefficients c p_i and exponents p - e_i
_DISC_GRAD_COEFFS = _DISC_COEFFS * _DISC_POWERS.T
_DISC_GRAD_POWERS = np.maximum(
    _DISC_POWERS[None] - np.eye(4, dtype=int)[:, None], 0)


class ConeCoords:
    """Real coordinates (a, b, c, d, u) of a hermitian 3 x 3 Toeplitz matrix."""

    def __init__(self, a, b, c, d, u=1.0):
        self.a, self.b, self.c, self.d, self.u = (
            float(a), float(b), float(c), float(d), float(u))

    def as_tuple(self):
        return (self.a, self.b, self.c, self.d, self.u)

    def toeplitz(self):
        t1 = self.a + 1j * self.b
        t2 = self.c + 1j * self.d
        return ToeplitzMatrix([np.conj(t2), np.conj(t1), self.u, t1, t2])

    def __repr__(self):
        return "ConeCoords(a=%g, b=%g, c=%g, d=%g, u=%g)" % self.as_tuple()


class StateCoords:
    """Coordinates (W, X, Y, Z) of the functional aW + bX + cY + dZ + u."""

    def __init__(self, W, X, Y, Z):
        self.W, self.X, self.Y, self.Z = float(W), float(X), float(Y), float(Z)

    def as_tuple(self):
        return (self.W, self.X, self.Y, self.Z)

    def __call__(self, p):
        """Evaluate the functional on cone coordinates."""
        return (self.W * p.a + self.X * p.b + self.Y * p.c + self.Z * p.d
                + p.u)

    def __repr__(self):
        return "StateCoords(W=%g, X=%g, Y=%g, Z=%g)" % self.as_tuple()


def cone_from_toeplitz(T):
    """Inverse coordinate bridge; requires hermitian 3 x 3 input."""
    if T.n != 3 or not T.hermitian:
        raise ValueError("cone coordinates need a hermitian 3 x 3 Toeplitz matrix")
    t1, t2 = T.coeff(1), T.coeff(2)
    return ConeCoords(t1.real, t1.imag, t2.real, t2.imag, T.coeff(0).real)


def delta(p):
    """The boundary quartic 2a^2(c-1) + 4abd - 2b^2(c+1) - c^2 - d^2 + 1.

    Equals the determinant of the associated matrix on the slice u = 1.
    """
    a, b, c, d = p.a, p.b, p.c, p.d
    return (2 * a * a * (c - 1) + 4 * a * b * d - 2 * b * b * (c + 1)
            - c * c - d * d + 1)


def grad_delta(p):
    a, b, c, d = p.a, p.b, p.c, p.d
    return np.array([4 * a * (c - 1) + 4 * b * d,
                     4 * a * d - 4 * b * (c + 1),
                     2 * (a * a - b * b - c),
                     4 * a * b - 2 * d])


def gamma_curve(x):
    """The singular curve (cos x, sin x, cos 2x, sin 2x) on the slice u = 1."""
    return ConeCoords(np.cos(x), np.sin(x), np.cos(2 * x), np.sin(2 * x))


def sigma(x, y, s):
    """Boundary segment s gamma(x) + (1-s) gamma(y)."""
    g, h = gamma_curve(x), gamma_curve(y)
    vals = [s * gi + (1 - s) * hi for gi, hi in zip(g.as_tuple(), h.as_tuple())]
    return ConeCoords(*vals)


def _epsilon_coords(x, y):
    """The coordinates (W, X, Y, Z) of epsilon(x, y), elementwise in x, y."""
    r = np.cos(x - y) + 2.0
    return (2 * (np.cos(x) + np.cos(y)) / r,
            2 * (np.sin(x) + np.sin(y)) / r,
            np.cos(x + y) / r,
            np.sin(x + y) / r)


def _beta_coords(x, y, s):
    """The coordinates (W, X, Y, Z) of beta(x, y, s), elementwise."""
    return tuple(s * a + (1 - s) * b
                 for a, b in zip(_epsilon_coords(x, y),
                                 _epsilon_coords(x, y + np.pi)))


def epsilon_state(x, y):
    """
    The extreme state supported at the node pair (x, y):
    W = 2(cos x + cos y)/r, X = 2(sin x + sin y)/r, Y = cos(x+y)/r,
    Z = sin(x+y)/r with r = cos(x-y) + 2.  Symmetric in (x, y).
    """
    return StateCoords(*_epsilon_coords(x, y))


def beta(x, y, s):
    """Boundary segment s epsilon(x, y) + (1-s) epsilon(x, y + pi)."""
    return StateCoords(*_beta_coords(x, y, s))


def surface_residual(X, Y, Z):
    """Left side of X^4 + 8X^2 Y^2 + 8X^2 Y + 8X^2 Z^2 + 16Y^2 Z^2 + 16Z^4 - 16Z^2."""
    X2, Z2 = X * X, Z * Z
    return (X2 * X2 + 8 * X2 * Y * Y + 8 * X2 * Y + 8 * X2 * Z2
            + 16 * Y * Y * Z2 + 16 * Z2 * Z2 - 16 * Z2)


def _polynomial(coeffs, powers, v):
    """sum_t coeffs[t] prod_i v_i ** powers[t, i] at stacked coordinates v
    of shape (4, ...)."""
    v = np.asarray(v, dtype=float)
    k = np.arange(7).reshape((7,) + (1,) * (v.ndim - 1))
    table = v[:, None] ** k
    monomials = table[0, powers[:, 0]]
    for i in range(1, 4):
        monomials = monomials * table[i, powers[:, i]]
    return np.tensordot(coeffs, monomials, axes=1)


def _discriminant_values(v):
    """The boundary polynomial at stacked coordinates v of shape (4, ...)."""
    return _polynomial(_DISC_COEFFS, _DISC_POWERS, v)


def _grad_discriminant_values(v):
    """Its gradient, shape (4, ...), at stacked coordinates v."""
    return np.array([_polynomial(c, p, v)
                     for c, p in zip(_DISC_GRAD_COEFFS, _DISC_GRAD_POWERS)])


def discriminant(q):
    """Value of the degree six boundary polynomial at state coordinates q."""
    return float(_discriminant_values(q.as_tuple()))


def grad_discriminant(q):
    """Analytic gradient of the boundary polynomial at state coordinates q."""
    return _grad_discriminant_values(q.as_tuple())


def support_quartic(q):
    """
    Coefficients, highest degree first, of the real quartic whose positivity
    on the line characterizes membership of the functional in the state
    space: (1-X-Y) t^4 + (2W-4Z) t^3 + (6Y+2) t^2 + (2W+4Z) t + (X-Y+1).
    """
    W, X, Y, Z = q.as_tuple()
    return np.array([1 - X - Y, 2 * W - 4 * Z, 6 * Y + 2, 2 * W + 4 * Z,
                     X - Y + 1])


def sample_surfaces(kind, count, seed=42, slice_d=-0.4):
    """
    Deterministic point clouds on the three displayed surfaces.

    Parameters
    ----------
    kind : {"cone-slice", "state-surface", "boundary"}
        cone-slice: points of the zero set of delta with d fixed at slice_d;
        state-surface: (X, Y, Z) points from epsilon samples;
        boundary: (W, X, Y, Z) points from beta samples.
    count : int
    seed : int

    Returns
    -------
    (header, rows) with rows a list of float tuples.
    """
    rng = np.random.default_rng(seed)
    if kind == "cone-slice":
        header = ("a", "b", "c", "d")
        rows = []
        while len(rows) < count:
            a = rng.uniform(-1.5, 1.5)
            b = rng.uniform(-1.5, 1.5)
            # delta is monic quadratic in -c: solve for the slice value
            q2 = -1.0
            q1 = 2 * a * a - 2 * b * b
            q0 = (-2 * a * a + 4 * a * b * slice_d - 2 * b * b
                  - slice_d * slice_d + 1)
            disc = q1 * q1 - 4 * q2 * q0
            if disc < 0:
                continue
            for sgn in (1.0, -1.0):
                if len(rows) >= count:
                    break
                c = (-q1 + sgn * np.sqrt(disc)) / (2 * q2)
                rows.append((a, b, c, slice_d))
        return header, rows
    if kind == "state-surface":
        header = ("X", "Y", "Z")
        xy = rng.uniform(0, 2 * np.pi, size=(count, 2))
        rows = [tuple(epsilon_state(x, y).as_tuple()[1:]) for x, y in xy]
        return header, rows
    if kind == "boundary":
        header = ("W", "X", "Y", "Z")
        xys = rng.uniform(0, 1, size=(count, 3))
        rows = [tuple(beta(2 * np.pi * x, 2 * np.pi * y, s).as_tuple())
                for x, y, s in xys]
        return header, rows
    raise ValueError("unknown sample kind %r" % (kind,))


def run_checks(samples=1000, seed=42):
    """
    Numerically verify the boundary identities on pseudo-random samples.

    Returns a dict of named maximal residuals plus an ``ok`` flag; all
    residual bounds match the documented tolerances.
    """
    rng = np.random.default_rng(seed)
    out = {}

    xs = rng.uniform(0, 2 * np.pi, samples)
    ys = rng.uniform(0, 2 * np.pi, samples)
    ss = rng.uniform(0, 1, samples)

    out["delta_on_sigma"] = max(abs(delta(sigma(x, y, s)))
                                for x, y, s in zip(xs, ys, ss))
    out["grad_delta_on_gamma"] = max(
        float(np.abs(grad_delta(gamma_curve(x))).max()) for x in xs)

    # determinant bridge on random cone points
    pts = rng.uniform(-2, 2, size=(samples, 4))
    out["delta_vs_det"] = max(
        abs(delta(ConeCoords(*p)) -
            float(np.real(np.linalg.det(ConeCoords(*p).toeplitz().dense()))))
        for p in pts)

    eps = [epsilon_state(x, y) for x, y in zip(xs, ys)]
    out["surface_on_epsilon"] = max(
        abs(surface_residual(e.X, e.Y, e.Z)) for e in eps)
    out["discriminant_on_beta"] = float(
        np.abs(_discriminant_values(_beta_coords(xs, ys, ss))).max())
    out["grad_discriminant_on_epsilon"] = float(
        np.abs(_grad_discriminant_values(_epsilon_coords(xs, ys))).max())
    out["epsilon_symmetry"] = max(
        float(np.abs(np.subtract(epsilon_state(x, y).as_tuple(),
                                 epsilon_state(y, x).as_tuple())).max())
        for x, y in zip(xs, ys))

    # extreme states are exactly the vector states with nodes (x, y)
    from .states import pure_state_from_angles
    bridge = 0.0
    basis = [ConeCoords(*row) for row in np.eye(5)]
    for x, y in zip(xs[:100], ys[:100]):
        e = epsilon_state(x, y)
        xi = pure_state_from_angles([x, y]).xi
        for p in basis:
            M = p.toeplitz().dense()
            val = float(np.real(np.vdot(xi, M @ xi)))
            bridge = max(bridge, abs(e(p) - val))
    out["epsilon_pure_state_bridge"] = bridge

    # trace-3 bridge between the curve and the rank-one rays
    from .core import extreme_ray
    ray = 0.0
    for x in xs[:100]:
        A = gamma_curve(x).toeplitz().dense()
        B = 3.0 * extreme_ray(np.exp(1j * x), 3).dense()
        ray = max(ray, float(np.abs(A - B).max()))
    out["gamma_extreme_ray_bridge"] = ray

    out["ok"] = bool(
        out["delta_on_sigma"] <= 1e-10
        and out["grad_delta_on_gamma"] <= 1e-10
        and out["delta_vs_det"] <= 1e-12 * 100
        and out["surface_on_epsilon"] <= 1e-10
        and out["discriminant_on_beta"] <= 1e-9
        and out["grad_discriminant_on_epsilon"] <= 1e-9
        and out["epsilon_symmetry"] <= 1e-12
        and out["epsilon_pure_state_bridge"] <= 1e-12
        and out["gamma_extreme_ray_bridge"] <= 1e-12)
    return out
