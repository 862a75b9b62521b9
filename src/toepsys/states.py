"""
States on the truncated-circle system, stored through duality as
probability densities on the circle.

A state is a positive unital functional on the n x n Toeplitz matrices.
Through the pairing sum_k a_k t_{-k} it is represented by a palindromic
nonnegative sequence with a_0 = 1, i.e. a trigonometric probability density
with respect to d theta / 2 pi.  Pure states come from unit vectors xi whose
polynomial has all roots on the circle; they are parametrized, up to
permutation, by n-1 node angles through elementary symmetric polynomials.
"""

import numpy as np

from .core import CircleLayer, FRElement, fr_convolve, fr_is_positive, pairing
from .factor import laurent_roots

#: cap on the Levenberg-Marquardt steps of the node fit in is_pure, and the
#: number of steps over which a fit that gains less than a tenth gives up
_NODE_FIT_TRIALS = 300
_NODE_FIT_WINDOW = 25


class State:
    """A state stored as its density sequence (palindromic, positive, a_0 = 1)."""

    def __init__(self, density):
        self.density = density

    @property
    def n(self):
        return self.density.n

    def __repr__(self):
        return "State(density=%r)" % (self.density,)


class PureStateVector:
    """
    Unit vector xi together with the node angles it was built from.

    The induced state evaluates Toeplitz matrices as <xi, T xi>; its density
    is the autocorrelation xi* conv xi.
    """

    def __init__(self, xi, root_angles):
        self.xi = np.asarray(xi, dtype=complex).ravel()
        self.root_angles = np.asarray(root_angles, dtype=float)

    @property
    def n(self):
        return self.xi.size

    def state(self):
        return vector_state(self.xi)


def state_from_density(a, tol=1e-9):
    """
    Wrap a palindromic positive sequence as a state, rescaling to a_0 = 1.

    Raises ValueError when the sequence is not a valid (unnormalized)
    density: non-palindromic, a_0 <= 0, or not nonnegative on the circle.
    """
    if not a.palindromic:
        raise ValueError("a state density must be palindromic")
    a0 = a.coeff(0).real
    if a0 <= tol:
        raise ValueError("a state density needs a_0 > 0, got %g" % a0)
    a = a * (1.0 / a0)
    if not fr_is_positive(a, tol=tol):
        raise ValueError("a state density must be nonnegative on the circle")
    return State(a)


def trace_state(n):
    """The normalized-trace state T -> t_0."""
    a = np.zeros(2 * n - 1, dtype=complex)
    a[n - 1] = 1.0
    return State(FRElement(a))


def vector_state(xi):
    """The state T -> <xi, T xi> of a unit vector xi supported in 0..n-1."""
    xi = np.asarray(xi, dtype=complex).ravel()
    nrm = np.linalg.norm(xi)
    if nrm == 0:
        raise ValueError("zero vector")
    xi = xi / nrm
    f = FRElement(np.concatenate([np.zeros(xi.size - 1), xi]))
    # the autocorrelation is supported in (-n, n); drop the zero padding
    return State(fr_convolve(f.involution(), f).resize(xi.size))


def evaluate(state, T):
    """Value of the state on a hermitian Toeplitz matrix (guaranteed real)."""
    if state.n != T.n:
        raise ValueError("size mismatch")
    if not T.hermitian:
        raise ValueError("states are evaluated on hermitian matrices")
    return float(np.real(pairing(T, state.density)))


def pure_state_from_angles(angles):
    """
    The pure state of the n x n system with prescribed circle nodes,
    n = len(angles) + 1.

    The vector is (1, e_1, e_2, ..., e_{n-1}) normalized, where e_k is the
    k-th elementary symmetric polynomial of the unit numbers e^{i angle}.
    Invariant under permutations of the angles.  prod (1 + e^{i angle} z) =
    sum e_k z^k is sampled on M >= 2n roots of unity, and one FFT of the
    samples gives its coefficients to rounding of the samples' size, which
    sequential products exceed on many nodes.
    """
    angles = np.asarray(angles, dtype=float).ravel()
    M = 1 << (2 * angles.size + 1).bit_length()
    roots = np.exp(2j * np.pi / M * np.arange(M))
    xi = np.fft.fft(np.prod(1.0 + roots[:, None] * np.exp(1j * angles),
                            axis=1))[:angles.size + 1]
    xi = xi / np.linalg.norm(xi)
    return PureStateVector(xi, angles)


def _paired_nodes(roots):
    """
    Start angles for the node fit of ``is_pure``, one per pair of roots.

    Every node of a pure density is a double root, which rounding splits
    into two roots at about the same angle.  The roots are sorted by angle
    and neighbours are paired; of the two ways to pair around the circle,
    the one with the smaller total angular gap is taken, and each pair
    gives its mid-angle.
    """
    ang = np.sort(np.angle(roots))
    pairs = [(s[0::2], (s[1::2] - s[0::2]) % (2 * np.pi))
             for s in (ang, np.roll(ang, -1))]
    start, gap = min(pairs, key=lambda pair: pair[1].sum())
    return start + gap / 2


def _node_density(theta, log_s, phi):
    """
    Values on the angles ``phi`` of the pure density with nodes ``theta``,
    s prod_j |e^{i phi} - e^{i theta_j}|^2, with the sum of its log factors
    and the half angle differences that the Jacobian reuses.
    """
    h = (phi[:, None] - theta) / 2
    total = np.log(np.maximum(4.0 * np.sin(h) ** 2, 1e-300)).sum(axis=1)
    return np.exp(log_s + total), total, h


def _node_jacobian(vals, h):
    """Jacobian of ``vals`` in (theta, log s), as in ``_fits_pure``."""
    t = np.tan(h)
    return np.column_stack([np.divide(-vals[:, None], t, out=np.zeros_like(t), where=t != 0), vals])


def _fits_pure(a, theta, tol):
    """
    Fit a pure density to the palindromic coefficients ``a`` (k = -(n-1) ..
    n-1) by Levenberg-Marquardt on its node angles and log scale, started
    at ``theta``; True once ||coeff(a - fit)||_1 <= tol ||a||_1.

    The fit is sampled on 2n equispaced angles, which determine a
    trigonometric polynomial of degree n-1: the l2 norm of the residual on
    them is sqrt(2n) times its coefficient l2 norm, and the FFT gives the
    coefficients of the fit exactly.  The Jacobian column of node j is
    d vals / d theta_j = -vals cot((phi - theta_j) / 2), one tangent per
    entry; a sample on a node, a double zero, gets 0.  The damping follows
    Nielsen (scaled by diag(J^T J)): after a step with gain ratio rho, mu
    shrinks by max(1/3, 1 - (2 rho - 1)^3); after a rejected step it grows
    by nu, which doubles.  The fit gives up after _NODE_FIT_TRIALS steps,
    when the certified residual falls by less than a tenth over
    _NODE_FIT_WINDOW steps, or when mu passes 1e16 and no step lowers it.
    """
    n = (a.size + 1) // 2
    L = 2 * n
    phi = 2 * np.pi * np.arange(L) / L
    k = np.arange(-n + 1, n) % L
    w = np.zeros(L, dtype=complex)
    w[k] = a
    target = np.real(np.fft.ifft(w)) * L
    bound = tol * np.abs(a).sum()
    # each factor is at most 4, so this scale cannot overflow
    _, total, h = _node_density(theta, -(n - 1) * np.log(4.0), phi)
    top = total.max()
    v = np.exp(total - top)
    log_s = np.log(max(target @ v, 1e-300) / (v @ v)) - top
    vals = np.exp(log_s + total)
    r = vals - target
    mu, nu, check, changed = 1e-3, 2.0, None, True
    for trial in range(_NODE_FIT_TRIALS):
        if changed:
            res = np.abs(np.fft.fft(vals)[k] / L - a).sum()
            if res <= bound:
                return True
            J = _node_jacobian(vals, h)
            H, g = J.T @ J, J.T @ r
            D = np.maximum(H.diagonal(), 1e-15 * H.diagonal().max())
        if trial % _NODE_FIT_WINDOW == 0:
            if check is not None and res > 0.9 * check:
                return False
            check = res
        d = np.linalg.solve(H + mu * np.diag(D), -g)
        vn, _, hn = _node_density(theta + d[:-1], log_s + d[-1], phi)
        rn = vn - target
        gain = r @ r - rn @ rn
        pred = -(2 * g @ d + d @ H @ d)
        changed = gain > 0 and pred > 0
        if changed:
            rho = gain / pred
            theta, log_s = theta + d[:-1], log_s + d[-1]
            vals, h, r = vn, hn, rn
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            nu = 2.0
        elif mu > 1e16:
            return False
        else:
            mu *= nu
            nu *= 2.0
    return False


def _has_positive_well(a, tol):
    """
    True only when every function within sup distance tol ||a||_1 of the
    circle function p of the palindromic coefficients ``a`` has a positive
    local minimum.  Read from the cells of one CircleLayer, with
    delta = tol ||a||_1 + rnd for its rounding rnd: the circle is cut at
    the cells whose centre value is a local maximum of the centre values,
    and an arc between two cuts is a well when the lower bounds of p on
    its cells exceed delta and both cut values exceed its least centre
    value by more than 2 delta.  A function g within tol ||a||_1 of p is
    then larger at the cuts than somewhere inside the arc, so its least
    value on the arc is taken inside, and it is positive.  No cell is
    refined; a well too narrow for its cells' bounds is not seen.
    """
    lay = CircleLayer(a)
    delta = tol * lay.norm + lay.rnd
    c, lo = lay.C[0], lay.bounds(lay.C, lay.r)[0]
    top = np.flatnonzero((c >= np.roll(c, 1)) & (c > np.roll(c, -1)))
    if top.size == 0:
        return False
    # arcs [cut[j], cut[j + 1]] on the doubled cell sequence
    cut = np.r_[top, top[0] + c.size]
    c, lo = np.r_[c, c], np.r_[lo, lo]
    least = np.minimum.reduceat(c, cut)[:-1]
    floor = np.minimum(np.minimum.reduceat(lo, cut)[:-1], lo[cut[1:]])
    ends = np.minimum(c[cut[:-1]], c[cut[1:]])
    return bool(np.any((floor > delta) & (ends > least + 2 * delta)))


def is_pure(state, tol=1e-6):
    """
    Extremality test by backward error: True when a pure density lies
    within relative distance ``tol`` of the state's density, measured as
    ||coeff(a - p)||_1 <= tol ||a||_1 (a certified bound on the sup
    distance on the circle).  A state is pure iff its density carries the
    full complement of n-1 circle nodes, each a double root, so the
    candidate p = s prod_j |z - e^{i theta_j}|^2 is pure by construction;
    its nodes are fitted by ``_fits_pure`` from the paired Laurent roots.

    Two exits answer False before the fit.  A density whose polynomial
    degree drops (vanishing leading coefficients) has fewer than 2(n-1)
    Laurent roots.  A density with a positive well, found by
    ``_has_positive_well`` on one CircleLayer, has no pure density within
    the tolerance: every function within sup distance
    delta = tol ||a||_1 + rnd (rnd the layer's rounding) of it has a
    positive local minimum, while a pure density has none, since p' / p =
    sum_j cot((theta - theta_j) / 2) falls between consecutive nodes, so
    that p has one maximum and no other critical point there.  The fit
    accepts only within ||coeff(a - p)||_1 <= tol ||a||_1, a sup distance
    below delta, so this exit changes no verdict; mixtures whose wells sit
    below delta, or are too shallow, still go through the fit.

    The roots themselves cannot be tested against the circle: where the
    density is below rounding level on an arc, as on dense node clusters
    at n >= 16, the computed roots there scatter by up to ~0.4 in
    log-modulus although a pure density matches to ~1e-15.  The fit can
    also miss: it stops after a bounded number of steps, so a pure density
    whose fit converges slowly is reported not pure.
    """
    if _has_positive_well(state.density.a, tol):
        return False
    try:
        roots = laurent_roots(state.density)
    except ValueError:
        return False
    if roots.size != 2 * (state.n - 1):
        return False
    if roots.size == 0:
        return True
    return _fits_pure(state.density.a, _paired_nodes(roots), tol)
