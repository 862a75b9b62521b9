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

#: cap on the Levenberg-Marquardt steps of is_pure's coefficient fit, and the
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


def _node_factors(theta, phi):
    """
    Sum over the nodes ``theta`` of log 4 sin^2 h_j, h_j = (phi - theta_j) / 2,
    and the cotangents cot h_j, on the angles ``phi``.  With u = e^{i phi / 2}
    and w = e^{i theta / 2}, the outer product of u and conj(w) is e^{i h},
    so 4 sin^2 h = 4 Im^2 and cot h = Re / Im with no trig per entry.  Im is
    taken as u.imag w.real - u.real w.imag, so that a sample on a node, a
    double zero, gets Im = 0 exactly, and then the log of 1e-300 and
    cotangent 0.
    """
    u, w = np.exp(0.5j * phi)[:, None], np.exp(0.5j * theta)
    re = u.real * w.real + u.imag * w.imag
    im = u.imag * w.real - u.real * w.imag
    total = np.log(np.maximum(4.0 * im * im, 1e-300)).sum(axis=1)
    return total, re / np.where(im != 0, im, np.inf)


def _node_density(theta, log_s, phi):
    """
    Values on the angles ``phi`` of the pure density with nodes ``theta``,
    s prod_j |e^{i phi} - e^{i theta_j}|^2, with the sum of its log factors
    and the cotangents that the Jacobian reuses.
    """
    total, cot = _node_factors(theta, phi)
    return np.exp(log_s + total), total, cot


def _node_jacobian(vals, cot):
    """Jacobian of ``vals`` in (theta, log s), as in ``_fits_pure``."""
    return np.concatenate((-vals[:, None] * cot, vals[:, None]), axis=1)


def _damped_fit(model, x, fit, stop):
    """
    Levenberg-Marquardt from ``x``, whose model value ``fit`` the caller
    has at hand.  ``model(x)`` returns a tuple whose first two entries are
    the residual r and a function giving its Jacobian J, called only at
    the iterates the loop steps from.  The damping follows Nielsen
    (IMM-REP-1999-05), scaled by diag(J^T J): after an accepted step with
    gain ratio rho, mu shrinks by max(1/3, 1 - (2 rho - 1)^3); after a
    rejected step, a singular solve included, it grows by nu, which
    doubles.  Before each step, ``stop(steps, fit, cost)`` names an exit
    or returns None, where cost is the sum of squares before the last
    accepted step (inf before the first).  The loop exits at "damping"
    itself when mu passes 1e16 and no step lowers it.

    Returns the iterate, its residual, the exit and the number of steps.
    """
    mu, nu, steps, cost, accepted = 1e-3, 2.0, 0, np.inf, True
    while not (name := stop(steps, fit, cost)):
        r = fit[0]
        if accepted:
            J = fit[1]()
            H, g = J.T @ J, J.T @ r
            D = np.maximum(H.diagonal(), 1e-15 * H.diagonal().max())
        steps += 1
        try:
            d = np.linalg.solve(H + mu * np.diag(D), -g)
        except np.linalg.LinAlgError:
            accepted = False
        else:
            new = model(x + d)
            gain = r @ r - new[0] @ new[0]
            pred = -(2 * g @ d + d @ H @ d)
            accepted = gain > 0 and pred > 0
        if accepted:
            x, fit, cost, rho = x + d, new, r @ r, gain / pred
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            nu = 2.0
        elif mu > 1e16:
            return x, r, "damping", steps
        else:
            mu, nu = mu * nu, 2.0 * nu
    return x, fit[0], name, steps


def _fits_pure(a, theta, tol):
    """
    Fit a pure density to the palindromic coefficients ``a`` (k = -(n-1) ..
    n-1) by ``_damped_fit`` on its node angles and log scale, started at
    ``theta``; True once ||coeff(a - fit)||_1 <= tol ||a||_1.

    The fit is sampled on 2n equispaced angles, which determine a
    trigonometric polynomial of degree n-1: the l2 norm of the residual on
    them is sqrt(2n) times its coefficient l2 norm, and the FFT gives the
    coefficients of the fit exactly.  The Jacobian column of node j is
    d vals / d theta_j = -vals cot((phi - theta_j) / 2), from
    ``_node_factors``; a sample on a node, a double zero, gets 0.  The
    exits: "certified" once the bound holds, "window" when the certified
    residual falls by less than a tenth over _NODE_FIT_WINDOW steps, "cap"
    after _NODE_FIT_TRIALS steps, and the loop's "damping".
    """
    n = (a.size + 1) // 2
    L = 2 * n
    phi = 2 * np.pi * np.arange(L) / L
    k = np.arange(-n + 1, n) % L
    w = np.zeros(L, dtype=complex)
    w[k] = a
    target = np.fft.ifft(w).real * L
    bound = tol * np.abs(a).sum()
    check = np.inf

    def sampled(vals, cot):
        # the loop's residual and Jacobian, and the certified l1 residual
        res = np.abs(np.fft.fft(vals)[k] / L - a).sum()
        return vals - target, lambda: _node_jacobian(vals, cot), res

    def model(x):
        vals, _, cot = _node_density(x[:-1], x[-1], phi)
        return sampled(vals, cot)

    def stop(steps, fit, cost):
        nonlocal check
        if steps == _NODE_FIT_TRIALS:
            return "cap"
        if fit[2] <= bound:
            return "certified"
        if steps % _NODE_FIT_WINDOW == 0:
            if fit[2] > 0.9 * check:
                return "window"
            check = fit[2]

    total, cot = _node_factors(theta, phi)
    top = total.max()
    v = np.exp(total - top)
    log_s = np.log(np.maximum(target @ v, 1e-300) / (v @ v)) - top
    start = sampled(np.exp(log_s + total), cot)
    x = np.concatenate((theta, [log_s]))
    return _damped_fit(model, x, start, stop)[2] == "certified"


def _has_positive_well(lay, tol):
    """
    True only when every function within sup distance tol ||a||_1 of the
    circle function p of the palindromic coefficients a has a positive
    local minimum.  Read from the cells of a's CircleLayer ``lay``, with
    delta = tol ||a||_1 + rnd for its rounding rnd: the circle is cut at
    the cells whose centre value is a local maximum of the centre values,
    and an arc between two cuts is a well when the lower bounds of p on
    its cells exceed delta and both cut values exceed its least centre
    value by more than 2 delta.  A function g within tol ||a||_1 of p is
    then larger at the cuts than somewhere inside the arc, so its least
    value on the arc is taken inside, and it is positive.  No cell is
    refined; a well too narrow for its cells' bounds is not seen.
    """
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


def _log_model(theta, log_s, phi):
    """
    log p on the angles ``phi`` of the pure density p with nodes ``theta``
    and scale s, log s + sum_j log 4 sin^2((phi - theta_j) / 2), and its
    Jacobian in (theta, log s): columns -cot((phi - theta_j) / 2) and 1.
    No exp is taken, so nothing overflows; a sample on a node gets the log
    of 1e-300 and cotangent 0, as in ``_node_factors``.
    """
    total, cot = _node_factors(theta, phi)
    ones = np.ones((total.size, 1))
    return log_s + total, np.concatenate((-cot, ones), axis=1)


def _log_fit(lay, theta, tol):
    """
    Fit the nodes of a pure density to the density a in log space, by
    ``_damped_fit`` on ``_log_model`` against the log of the centre values
    c of a's CircleLayer ``lay``, started at the nodes ``theta``.  Only the
    samples with c > 10^3 rnd are fitted; their logs are exact to
    rnd / c <= 10^-3.  A node moved by delta changes log p by about
    -delta cot((phi - theta_j) / 2) at every sample, so every sample above
    rounding steers the nodes, whatever its size, while a fit in values is
    steered by the large ones only.  The exits: "floor" once the sum of
    squares is within sum (rnd / c)^2, what the rounding of the samples
    accounts for (so a start that fits takes no step), "slow" after an
    accepted step that lowers it by less than a hundredth, and the loop's
    "damping".

    Returns the nodes, or None when the largest log residual on the samples
    with c >= 10 tol ||a||_1 is above 1.  Any density that ``_fits_pure``
    accepts lies within tol ||a||_1 of a, so within -log 0.9 ~ 0.11 of it
    in log there; but the fit is local, so this give-up is not certified.
    """
    c = lay.C[0]
    on = c > 1e3 * lay.rnd
    phi, y, c = lay.theta[on], np.log(c[on]), c[on]
    floor = ((lay.rnd / c) ** 2).sum()

    def model(x):
        f, J = _log_model(x[:-1], x[-1], phi)
        return f - y, lambda: J

    def stop(steps, fit, cost):
        rr = fit[0] @ fit[0]
        if rr <= floor:
            return "floor"
        if cost - rr < cost / 100:
            return "slow"

    f, J = _log_model(theta, 0.0, phi)
    log_s = (y - f).mean()
    x = np.concatenate((theta, [log_s]))
    x, r, _, _ = _damped_fit(model, x, (f + log_s - y, lambda: J), stop)
    if np.abs(r[c >= 10 * tol * lay.norm]).max(initial=0.0) > 1:
        return None
    return x[:-1]


def is_pure(state, tol=1e-6):
    """
    Extremality test by backward error: True when a pure density lies
    within relative distance ``tol`` of the state's density, measured as
    ||coeff(a - p)||_1 <= tol ||a||_1 (a certified bound on the sup
    distance on the circle).  A state is pure iff its density carries the
    full complement of n-1 circle nodes, each a double root, so the
    candidate p = s prod_j |z - e^{i theta_j}|^2 is pure by construction.
    The exits, in order:

    1. Positive well: False, certified.  ``_has_positive_well`` finds on
       the density's CircleLayer that every function within sup distance
       delta = tol ||a||_1 + rnd (rnd the layer's rounding) of it has a
       positive local minimum, while a pure density has none, since
       p' / p = sum_j cot((theta - theta_j) / 2) falls between consecutive
       nodes, so that p has one maximum and no other critical point there.
       The certificate accepts only within a sup distance below delta, so
       this exit changes no verdict; mixtures whose wells sit below delta,
       or are too shallow, go on.
    2. Degree drop: False, read from exact zeros.  A density whose leading
       coefficients vanish has fewer than 2(n-1) Laurent roots.
    3. Log give-up: False, not certified.  The nodes start at the paired
       Laurent roots and ``_log_fit`` fits them to log a on the same
       layer's samples above rounding, until its exit "floor", "slow" or
       "damping".  When its largest log residual on the samples with
       a >= 10 tol ||a||_1 is then above 1, no density that the
       certificate accepts is near the fitted one, but the fit is local.
    4. Certificate: True, certified.  ``_fits_pure`` fits the nodes to the
       coefficients from there and accepts once
       ||coeff(a - p)||_1 <= tol ||a||_1, its exit "certified".
    5. Value fit's give-up: False, not certified.  ``_fits_pure`` stops
       at "cap" after a bounded number of steps, at "window" on slow
       progress or at "damping" on damping overflow, so a pure density
       whose fit converges slowly is reported not pure.

    The roots themselves cannot be tested against the circle: where the
    density is below rounding level on an arc, as on dense node clusters
    at n >= 16, the computed roots there scatter by up to ~0.4 in
    log-modulus although a pure density matches to ~1e-15.  Those arcs
    steer a fit in values by nothing, and a fit in logs as much as any
    other arc, which is why the log fit comes first.
    """
    a = state.density.a
    lay = CircleLayer(a)
    if _has_positive_well(lay, tol):
        return False
    try:
        roots = laurent_roots(state.density)
    except ValueError:
        return False
    if roots.size != 2 * (state.n - 1):
        return False
    if roots.size == 0:
        return True
    theta = _log_fit(lay, _paired_nodes(roots), tol)
    return theta is not None and _fits_pure(a, theta, tol)
