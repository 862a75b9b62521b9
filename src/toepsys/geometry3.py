"""
The explicit algebraic geometry of the 3 x 3 positive Toeplitz cone and its
state space.

A hermitian 3 x 3 Toeplitz matrix is coordinatized by reals (a, b, c, d, u)
with t_0 = u, t_1 = a + ib, t_2 = c + id.  On the slice u = 1 the boundary
of the positive cone is cut out by the cubic delta; its singular points
form the closed curve gamma, and the boundary is swept by the segments
sigma between pairs of curve points.  Dually, the extreme states are the
two-torus family epsilon (a Moebius strip after the symmetry
epsilon(x, y) = epsilon(y, x)), the boundary of the state space is swept by
the segments beta, and the whole boundary lies inside the zero set of the
degree six polynomial d = -1/256 times the discriminant of the support
quartic, the quartic whose positivity on the line characterizes the state
space.  Functions of points and angles work elementwise on arrays; scalar
input gives Python floats.
"""

import numpy as np

from .core import ToeplitzMatrix, extreme_ray
from .states import pure_state_from_angles

# d(a, ..., e)/d(W, X, Y, Z) for the support quartic's coefficients
_QUARTIC_JACOBIAN = np.array([[0, -1, -1, 0], [2, 0, 0, -4], [0, 0, 6, 0],
                              [2, 0, 0, 4], [0, 1, -1, 0]], dtype=float)
# ToeplitzMatrix.dense's rule M[k, l] = t[k - l] on the diagonals t_-2..t_2
_K_MINUS_L = np.subtract.outer(np.arange(3), np.arange(3)) + 2


def _real(v):
    """A Python float for a scalar, a float array otherwise."""
    v = np.asarray(v, dtype=float)
    return float(v) if v.ndim == 0 else v


def _show(values):
    return tuple(np.array2string(np.asarray(v), formatter={
        "float_kind": "{:g}".format}) for v in values)


class ConeCoords:
    """Real coordinates (a, b, c, d, u) of hermitian 3 x 3 Toeplitz matrices."""

    def __init__(self, a, b, c, d, u=1.0):
        self.a, self.b, self.c, self.d, self.u = map(_real, (a, b, c, d, u))

    def as_tuple(self):
        return (self.a, self.b, self.c, self.d, self.u)

    def _diagonals(self):
        """The diagonal values t_-2, ..., t_2 along a last axis."""
        t1 = self.a + 1j * self.b
        t2 = self.c + 1j * self.d
        return np.stack(np.broadcast_arrays(np.conj(t2), np.conj(t1), self.u,
                                            t1, t2), axis=-1)

    def dense(self):
        """The matrices, shape (..., 3, 3)."""
        return self._diagonals()[..., _K_MINUS_L]

    def toeplitz(self):
        """The ToeplitzMatrix of one point; arrays of points raise."""
        return ToeplitzMatrix(self._diagonals().reshape(5))

    def __repr__(self):
        return "ConeCoords(a=%s, b=%s, c=%s, d=%s, u=%s)" % _show(
            self.as_tuple())


class StateCoords:
    """Coordinates (W, X, Y, Z) of the functional aW + bX + cY + dZ + u."""

    def __init__(self, W, X, Y, Z):
        self.W, self.X, self.Y, self.Z = map(_real, (W, X, Y, Z))

    def as_tuple(self):
        return (self.W, self.X, self.Y, self.Z)

    def __call__(self, p):
        """Evaluate the functional on cone coordinates."""
        return (self.W * p.a + self.X * p.b + self.Y * p.c + self.Z * p.d
                + p.u)

    def __repr__(self):
        return "StateCoords(W=%s, X=%s, Y=%s, Z=%s)" % _show(self.as_tuple())


def cone_from_toeplitz(T):
    """Inverse coordinate bridge; requires hermitian 3 x 3 input."""
    if T.n != 3 or not T.hermitian:
        raise ValueError("cone coordinates need a hermitian 3 x 3 Toeplitz matrix")
    t1, t2 = T.coeff(1), T.coeff(2)
    return ConeCoords(t1.real, t1.imag, t2.real, t2.imag, T.coeff(0).real)


def delta(p):
    """The boundary cubic 2a^2(c-1) + 4abd - 2b^2(c+1) - c^2 - d^2 + 1.

    Equals the determinant of the associated matrix on the slice u = 1.
    """
    a, b, c, d = p.a, p.b, p.c, p.d
    return (2 * a * a * (c - 1) + 4 * a * b * d - 2 * b * b * (c + 1)
            - c * c - d * d + 1)


def grad_delta(p):
    """The gradient of delta in (a, b, c, d), shape (4, ...)."""
    a, b, c, d = p.a, p.b, p.c, p.d
    return np.array(np.broadcast_arrays(4 * a * (c - 1) + 4 * b * d,
                                        4 * a * d - 4 * b * (c + 1),
                                        2 * (a * a - b * b - c),
                                        4 * a * b - 2 * d))


def gamma_curve(x):
    """The singular curve (cos x, sin x, cos 2x, sin 2x) on the slice u = 1."""
    return ConeCoords(np.cos(x), np.sin(x), np.cos(2 * x), np.sin(2 * x))


def sigma(x, y, s):
    """Boundary segment s gamma(x) + (1-s) gamma(y)."""
    g, h = gamma_curve(x), gamma_curve(y)
    vals = [s * gi + (1 - s) * hi for gi, hi in zip(g.as_tuple(), h.as_tuple())]
    return ConeCoords(*vals)


def epsilon_state(x, y):
    """
    The extreme state supported at the node pair (x, y):
    W = 2(cos x + cos y)/r, X = 2(sin x + sin y)/r, Y = cos(x+y)/r,
    Z = sin(x+y)/r with r = cos(x-y) + 2.  Symmetric in (x, y).
    """
    r = np.cos(x - y) + 2.0
    return StateCoords(2 * (np.cos(x) + np.cos(y)) / r,
                       2 * (np.sin(x) + np.sin(y)) / r,
                       np.cos(x + y) / r, np.sin(x + y) / r)


def beta(x, y, s):
    """Boundary segment s epsilon(x, y) + (1-s) epsilon(x, y + pi)."""
    e, f = epsilon_state(x, y), epsilon_state(x, y + np.pi)
    return StateCoords(*(s * a + (1 - s) * b
                         for a, b in zip(e.as_tuple(), f.as_tuple())))


def surface_residual(X, Y, Z):
    """Left side of X^4 + 8X^2 Y^2 + 8X^2 Y + 8X^2 Z^2 + 16Y^2 Z^2 + 16Z^4 - 16Z^2."""
    X2, Z2 = X * X, Z * Z
    return (X2 * X2 + 8 * X2 * Y * Y + 8 * X2 * Y + 8 * X2 * Z2
            + 16 * Y * Y * Z2 + 16 * Z2 * Z2 - 16 * Z2)


def support_quartic(q):
    """
    Coefficients (a, b, c, d, e), highest degree first, of the real quartic
    whose positivity on the line characterizes membership of the functional
    in the state space:
    (1-X-Y) t^4 + (2W-4Z) t^3 + (6Y+2) t^2 + (2W+4Z) t + (X-Y+1).
    Shape (5, ...) on coordinate arrays.
    """
    W, X, Y, Z = q.as_tuple()
    return np.array(np.broadcast_arrays(1 - X - Y, 2 * W - 4 * Z, 6 * Y + 2,
                                        2 * W + 4 * Z, X - Y + 1))


def _invariants(a, b, c, d, e):
    """The invariants I and J of the quartic a t^4 + b t^3 + c t^2 + d t + e."""
    return (12 * a * e - 3 * b * d + c * c,
            72 * a * c * e + 9 * b * c * d - 27 * a * d * d - 27 * b * b * e
            - 2 * c ** 3)


def discriminant(q):
    """
    The degree six boundary polynomial (J^2 - 4 I^3) / 6912 at state
    coordinates q, with I and J the invariants of support_quartic(q): -1/256
    times the quartic's discriminant (4 I^3 - J^2) / 27.
    """
    I, J = _invariants(*support_quartic(q))
    return _real((J * J - 4 * I ** 3) / 6912)


def grad_discriminant(q):
    """
    Analytic gradient of the boundary polynomial at state coordinates q,
    shape (4, ...): (2 J dJ - 12 I^2 dI) / 6912 in the quartic's
    coefficients, mapped back through their constant Jacobian.
    """
    a, b, c, d, e = support_quartic(q)
    I, J = _invariants(a, b, c, d, e)
    dI = np.array([12 * e, -3 * d, 2 * c, -3 * b, 12 * a])
    dJ = np.array([72 * c * e - 27 * d * d, 9 * c * d - 54 * b * e,
                   72 * a * e + 9 * b * d - 6 * c * c, 9 * b * c - 54 * a * d,
                   72 * a * c - 27 * b * b])
    return np.tensordot(_QUARTIC_JACOBIAN.T,
                        (2 * J * dJ - 12 * I * I * dI) / 6912, axes=1)


def sample_surfaces(kind, count, seed=42, slice_d=-0.4):
    """
    Deterministic point clouds on the three displayed surfaces.

    Parameters
    ----------
    kind : {"cone-slice", "state-surface", "boundary"}
        cone-slice: points of the zero set of delta with d fixed at slice_d;
        state-surface: (X, Y, Z) points from epsilon samples;
        boundary: (W, X, Y, Z) points from beta samples.
    count : int, >= 0
    seed : int

    Returns
    -------
    (header, rows) with rows a list of float tuples.
    """
    if count < 0:
        raise ValueError("sample count must be >= 0, got %d" % count)
    rng = np.random.default_rng(seed)
    if kind == "cone-slice":
        header = ("a", "b", "c", "d")
        rows = np.empty((0, 4))
        while len(rows) < count:
            # row-major (k, 2) blocks draw (a, b) as k scalar pairs would
            a, b = rng.uniform(-1.5, 1.5, size=(2 * (count - len(rows)), 2)).T
            # on the slice, delta = -c^2 + q1 c + q0: solve for c
            q1 = 2 * a * a - 2 * b * b
            q0 = (-2 * a * a + 4 * a * b * slice_d - 2 * b * b
                  - slice_d * slice_d + 1)
            disc = q1 * q1 + 4 * q0
            real = disc >= 0
            # both roots of each real pair, the lower one first
            c = (q1[real, None] + np.array([-1.0, 1.0])
                 * np.sqrt(disc[real, None])) / 2
            block = np.broadcast_arrays(a[real, None], b[real, None], c,
                                        slice_d)
            rows = np.concatenate([rows, np.stack(block, -1).reshape(-1, 4)])
    elif kind == "state-surface":
        header = ("X", "Y", "Z")
        x, y = rng.uniform(0, 2 * np.pi, size=(count, 2)).T
        rows = np.column_stack(epsilon_state(x, y).as_tuple()[1:])
    elif kind == "boundary":
        header = ("W", "X", "Y", "Z")
        x, y, s = rng.uniform(0, 1, size=(count, 3)).T
        rows = np.column_stack(
            beta(2 * np.pi * x, 2 * np.pi * y, s).as_tuple())
    else:
        raise ValueError("unknown sample kind %r" % (kind,))
    return header, list(zip(*rows[:count].T.tolist()))


def run_checks(samples=1000, seed=42):
    """
    Numerically verify the boundary identities on pseudo-random samples.

    Returns a dict of named maximal residuals plus an ``ok`` flag; all
    residual bounds match the documented tolerances.
    """
    if samples < 1:
        raise ValueError("run_checks needs samples >= 1, got %d" % samples)
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0, 2 * np.pi, samples)
    ys = rng.uniform(0, 2 * np.pi, samples)
    ss = rng.uniform(0, 1, samples)
    pts = ConeCoords(*rng.uniform(-2, 2, size=(samples, 4)).T)

    def sup(v):
        return float(np.abs(v).max())

    eps = epsilon_state(xs, ys)
    out = {
        "delta_on_sigma": sup(delta(sigma(xs, ys, ss))),
        "grad_delta_on_gamma": sup(grad_delta(gamma_curve(xs))),
        # determinant bridge on random cone points
        "delta_vs_det": sup(delta(pts) - np.linalg.det(pts.dense()).real),
        "surface_on_epsilon": sup(surface_residual(eps.X, eps.Y, eps.Z)),
        "discriminant_on_beta": sup(discriminant(beta(xs, ys, ss))),
        "grad_discriminant_on_epsilon": sup(grad_discriminant(eps)),
        "epsilon_symmetry": sup(np.subtract(
            eps.as_tuple(), epsilon_state(ys, xs).as_tuple())),
    }

    # extreme states are exactly the vector states with nodes (x, y)
    x, y = xs[:100], ys[:100]
    xi = np.array([pure_state_from_angles(xy).xi for xy in zip(x, y)])
    basis = ConeCoords(*np.eye(5))  # point j is the j-th coordinate vector
    # vals[s, j] = xi_s^H M_j xi_s
    vals = np.einsum("si,jik,sk->sj", xi.conj(), basis.dense(), xi).real
    out["epsilon_pure_state_bridge"] = sup(
        epsilon_state(x[:, None], y[:, None])(basis) - vals)

    # trace-3 bridge between the curve and the rank-one rays
    rays = [3.0 * extreme_ray(np.exp(1j * t), 3).dense() for t in x]
    out["gamma_extreme_ray_bridge"] = sup(gamma_curve(x).dense() - rays)

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
