"""
Seeded, constructive inputs for the benchmark workloads.

Everything here uses numpy only: no toepsys call and no rejection sampling,
so a change to the library cannot change the inputs, and the same seed
always gives bit-identical arrays.  Coefficient sequences follow the
library's layout: 2n-1 complex values ascending from index -(n-1).
"""

import zlib

import numpy as np

#: cone problems per size; weighted toward small n, interior and boundary
#: densities alternate inside each size class.  The counts put the median
#: in the middle of the n=16 class and the 90th percentile inside the n=32
#: class, so neither straddles a jump in cost between sizes; the few n=64
#: and n=128 problems are the ones whose cost varies most from draw to draw.
CONE_SIZES = ((4, 16), (8, 16), (16, 56), (32, 30), (64, 4), (128, 2))

#: mixed-state pairs per size for the distance workload.  connes_distance
#: stops at n=12: at n=16 one pair in four takes 3-5 s instead of 0.3-1 s,
#: and at n=20 calls take 0.5-6 s and now and then 35 s.  The cost of a pair
#: varies with its draw most at n=8 and n=12 (spread about half the mean,
#: against a quarter at n=6), so those classes are kept small and the time
#: goes to n=4 and n=6: the median and the 90th percentile fall in the n=6
#: class, and the round's total varies little from seed to seed.
DISTANCE_SIZES = ((2, 16), (3, 16), (4, 34), (6, 102), (8, 12), (12, 4))
#: n=2 pairs with the closed form |w - w'| (Connes) and 2|w - w'|/pi
#: (Kantorovich)
DISTANCE_CLOSED = 12
#: one pair at each of these sizes also runs the dual route (0.6-2 s a call;
#: 1.4-3 s at n=4)
DUAL_SIZES = (2, 3)

TOEPLITZ_PROPAGATION = tuple(range(2, 13))
#: circulant propagation numbers over a full sweep of m: the calls from
#: m=10 up (9-330 ms, SVD-bound) hold the workload's median, which then
#: moves with the library's linear algebra and not with interpreter-bound
#: calls such as surface sampling, whose times drift twice as much from run
#: to run on a shared host
CIRCULANT_PROPAGATION = tuple(range(3, 24))
TENSOR_RANK = tuple(range(2, 13))
#: (m, n) completion/compression round trips
COMPLETIONS = ((64, 8), (64, 16), (64, 24), (64, 32),
               (1024, 64), (1024, 128), (1024, 256), (1024, 512))
GEOMETRY_SEEDS = 3
#: surface samples (3-8 ms each, interpreter-bound); two seeds of each kind,
#: so that they stay below the median
SAMPLE_SEEDS = 2
SAMPLE_KINDS = ("cone-slice", "state-surface", "boundary")
SAMPLE_COUNT = 500


def rng_for(seed, workload):
    """Generator for one workload, independent of the other workloads."""
    return np.random.default_rng([int(seed), zlib.crc32(workload.encode())])


def autocorrelation(q):
    """Coefficients of |q(e^{i theta})|^2 for q ascending from z^0."""
    q = np.asarray(q, dtype=complex)
    return np.convolve(np.conj(q[::-1]), q)


def pure_vector(angles):
    """Unit vector whose polynomial has its roots at e^{i angles}."""
    xi = np.poly(np.exp(1j * np.asarray(angles)))[::-1]
    return xi / np.linalg.norm(xi)


def pure_density(rng, n):
    """Density of a pure state of the n x n system with random nodes."""
    return autocorrelation(pure_vector(rng.uniform(0, 2 * np.pi, n - 1)))


def mixed_density(rng, n):
    """A mixture of two pure states, weights in [0.2, 0.8]; a_0 = 1."""
    lam = rng.uniform(0.2, 0.8)
    return lam * pure_density(rng, n) + (1 - lam) * pure_density(rng, n)


def interior_density(rng, n):
    """|p|^2 plus a margin: strictly positive on the circle."""
    p = rng.normal(size=n) + 1j * rng.normal(size=n)
    a = autocorrelation(p)
    a[n - 1] += 0.1 * np.vdot(p, p).real
    return a


def boundary_density(rng, n):
    """|q|^2 where q has max(1, (n-1)//4) simple roots on the circle, so the
    density has double circle roots; the other roots lie in the disc."""
    c = max(1, (n - 1) // 4)
    inner = n - 1 - c
    roots = np.concatenate([
        np.exp(1j * rng.uniform(0, 2 * np.pi, c)),
        rng.uniform(0.3, 0.9, inner) * np.exp(1j * rng.uniform(0, 2 * np.pi, inner))])
    q = np.poly(roots)[::-1]
    return autocorrelation(q / np.linalg.norm(q))


def separated_angles(rng, r):
    """r angles, one per slot of width 2 pi / r, pairwise at least
    min(0.1, pi / (2r)) apart (cyclically); constructive, no rejection."""
    width = 2 * np.pi / r
    gap = min(0.1, np.pi / (2 * r))
    pos = np.arange(r) * width + rng.uniform(0, width - gap, r)
    return np.sort((pos + rng.uniform(0, 2 * np.pi)) % (2 * np.pi))


def rays_toeplitz(angles, weights, n):
    """Coefficients of sum_i w_i gamma(e^{i angle_i}) at size n."""
    k = np.arange(-n + 1, n)
    return (np.exp(1j * np.outer(k, angles)) / n) @ np.asarray(weights, dtype=float)


def hermitian_toeplitz(rng, n):
    half = rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)
    return np.concatenate([np.conj(half[::-1]), [rng.normal() + 0j], half])


def cone_problems(seed):
    rng = rng_for(seed, "cone")
    problems = []
    for n, count in CONE_SIZES:
        for i in range(count):
            kind = ("interior", "boundary")[i % 2]
            dens = interior_density(rng, n) if kind == "interior" else boundary_density(rng, n)
            full_angles = rng.uniform(0, 2 * np.pi, n + 3)
            full = rays_toeplitz(full_angles, rng.uniform(0.2, 2.0, n + 3), n)
            r = n // 2
            low_angles = separated_angles(rng, r)
            low = rays_toeplitz(low_angles, rng.uniform(0.2, 2.0, r), n)
            problems.append({
                "n": n, "kind": kind, "density": dens,
                "pure": pure_density(rng, n), "mixture": mixed_density(rng, n),
                "full": full, "low": low, "low_angles": low_angles})
    return _ordered(problems, "cone")


def _n2_density(w):
    a1 = (w[0] + 1j * w[1]) / 2
    return np.array([np.conj(a1), 1.0, a1])


def distance_problems(seed):
    rng = rng_for(seed, "distance")
    problems = []
    for _ in range(DISTANCE_CLOSED):
        w, wp = rng.uniform(-0.6, 0.6, 2), rng.uniform(-0.6, 0.6, 2)
        problems.append({"n": 2, "kind": "closed", "phi": _n2_density(w),
                         "psi": _n2_density(wp),
                         "r": float(np.linalg.norm(w - wp))})
    sizes = [(n, "mixed") for n, count in DISTANCE_SIZES for _ in range(count)]
    for n, kind in sizes + [(n, "dual") for n in DUAL_SIZES]:
        problems.append({"n": n, "kind": kind, "phi": mixed_density(rng, n),
                         "psi": mixed_density(rng, n)})
    return _ordered(problems, "distance")


def structure_problems(seed):
    rng = rng_for(seed, "structure")
    problems = [{"kind": "propagation-toeplitz", "n": n} for n in TOEPLITZ_PROPAGATION]
    problems += [{"kind": "propagation-circulant", "m": m} for m in CIRCULANT_PROPAGATION]
    problems += [{"kind": "tensor-rank", "n": n} for n in TENSOR_RANK]
    problems += [{"kind": "complete-compress", "m": m, "n": n,
                  "t": hermitian_toeplitz(rng, n)} for m, n in COMPLETIONS]
    g_seeds = [int(s) for s in rng.integers(0, 2 ** 31, max(GEOMETRY_SEEDS, SAMPLE_SEEDS))]
    problems += [{"kind": "geometry-checks", "seed": s} for s in g_seeds[:GEOMETRY_SEEDS]]
    problems += [{"kind": "geometry-sample", "sample": kind, "seed": s,
                  "count": SAMPLE_COUNT}
                 for s in g_seeds[:SAMPLE_SEEDS] for kind in SAMPLE_KINDS]
    return _ordered(problems, "structure")


def cli_problems(seed):
    """Subcommand invocations with their JSON inputs (n <= 8).

    Each problem names its input files; ``files`` maps a file name to the
    JSON object written there before timing starts.
    """
    rng = rng_for(seed, "cli")
    fr = lambda a: {"n": (len(a) + 1) // 2, "a": [[z.real, z.imag] for z in a]}
    tz = lambda t: {"n": (len(t) + 1) // 2, "t": [[z.real, z.imag] for z in t]}
    circ = lambda c: {"m": len(c), "c": [[z.real, z.imag] for z in c]}
    low_angles = separated_angles(rng, 4)
    w, wp = rng.uniform(-0.6, 0.6, 2), rng.uniform(-0.6, 0.6, 2)
    c = rng.normal(size=9) + 1j * rng.normal(size=9)
    w2, wp2 = rng.uniform(-0.6, 0.6, 2), rng.uniform(-0.6, 0.6, 2)
    files = {
        "interior.json": fr(interior_density(rng, 6)),
        "boundary.json": fr(boundary_density(rng, 8)),
        "low.json": tz(rays_toeplitz(low_angles, rng.uniform(0.2, 2.0, 4), 8)),
        "full.json": tz(rays_toeplitz(rng.uniform(0, 2 * np.pi, 9),
                                      rng.uniform(0.2, 2.0, 9), 6)),
        "pure.json": fr(pure_density(rng, 5)),
        "mixture.json": fr(mixed_density(rng, 5)),
        "herm5.json": tz(hermitian_toeplitz(rng, 5)),
        "phi2.json": fr(_n2_density(w)),
        "psi2.json": fr(_n2_density(wp)),
        "phi4.json": fr(mixed_density(rng, 4)),
        "psi4.json": fr(mixed_density(rng, 4)),
        "circ9.json": circ(c),
        "interior4.json": fr(interior_density(rng, 4)),
        "full8.json": tz(rays_toeplitz(rng.uniform(0, 2 * np.pi, 11),
                                       rng.uniform(0.2, 2.0, 11), 8)),
        "phi2b.json": fr(_n2_density(w2)),
        "psi2b.json": fr(_n2_density(wp2)),
    }
    g_seed = int(rng.integers(0, 2 ** 31))
    problems = [
        {"cmd": "factorize", "args": ["factorize", "interior.json"]},
        {"cmd": "factorize", "args": ["factorize", "boundary.json"]},
        {"cmd": "factorize", "args": ["factorize", "interior4.json"]},
        {"cmd": "decompose", "args": ["decompose", "low.json"], "rank": 4},
        {"cmd": "decompose", "args": ["decompose", "full.json"]},
        {"cmd": "decompose", "args": ["decompose", "full8.json"]},
        {"cmd": "state", "args": ["state", "pure.json", "--check-pure",
                                  "--eval", "herm5.json"], "pure": True},
        {"cmd": "state", "args": ["state", "mixture.json", "--check-pure"],
         "pure": False},
        {"cmd": "state", "args": ["state", "boundary.json"]},
        {"cmd": "state", "args": ["state", "interior.json", "--check-pure"],
         "pure": False},
        {"cmd": "distance", "args": ["distance", "phi2.json", "psi2.json"],
         "r": float(np.linalg.norm(w - wp))},
        {"cmd": "distance", "args": ["distance", "phi2b.json", "psi2b.json"],
         "r": float(np.linalg.norm(w2 - wp2))},
        {"cmd": "distance", "args": ["distance", "phi4.json", "psi4.json"]},
        {"cmd": "circulant", "args": ["circulant", "complete", "herm5.json",
                                      "--m", "16"]},
        {"cmd": "circulant", "args": ["circulant", "complete", "herm5.json",
                                      "--m", "9"]},
        {"cmd": "circulant", "args": ["circulant", "compress", "circ9.json",
                                      "--n", "5"]},
        {"cmd": "circulant", "args": ["circulant", "eigenvalues", "circ9.json"]},
        {"cmd": "circulant", "args": ["circulant", "tensor-rank", "--n", "4"]},
        {"cmd": "circulant", "args": ["circulant", "tensor-rank", "--n", "8"]},
        {"cmd": "propagation", "args": ["propagation", "--toeplitz", "5"]},
        {"cmd": "propagation", "args": ["propagation", "--circulant", "7"]},
        {"cmd": "propagation", "args": ["propagation", "--circulant", "5"]},
        {"cmd": "geometry3", "args": ["--seed", str(g_seed), "geometry3", "--check"]},
    ]
    problems += [{"cmd": "geometry3", "args": ["--seed", str(g_seed), "geometry3",
                                               "--sample", kind, "--count", "100"],
                  "sample": kind, "count": 100}
                 for kind in SAMPLE_KINDS]
    for p in problems:
        p["files"] = {name: files[name] for name in p["args"] if name in files}
    return _ordered(problems, "cli")


def _ordered(problems, workload):
    """Interleave the problems in an order fixed by their number alone.

    Each size class is spread over the whole round, so a slow spell of the
    machine hits all classes alike instead of one percentile; and since the
    order does not depend on the seed, neither does peak memory.
    """
    order = np.random.default_rng(0).permutation(len(problems))
    out = [problems[i] for i in order]
    for i, p in enumerate(out):
        p["id"] = "%s-%03d" % (workload, i)
    return out


PROBLEMS = {"cli": cli_problems, "cone": cone_problems,
            "distance": distance_problems, "structure": structure_problems}
