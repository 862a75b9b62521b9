"""
What one problem of each workload calls, and how its results are checked.

``RUNNERS[workload](problem, ts, steps)`` makes the calls of one problem
through ``steps``; ``CHECKS[workload](problem, steps)`` returns, per step,
whether its result passed the independent reference in checks.py.  A call
that raised is stored as ``Raised`` and always counts as a failure.
"""

import csv
import io
import json
import subprocess
import sys

import numpy as np

import checks as ck

#: det_multiplicity takes 18.8 s per call at n=128
DET_MAX_N = 64
#: fejer_riesz_factorize caps.  Interior densities take 2-8 s at n=128,
#: depending on the input, which one draw per run cannot average out.
#: Boundary densities with random circle roots take up to 30 s at n=64 and
#: 93 s at n=128 (least-squares polish); the raise on nearly coincident
#: circle roots still shows at n <= 32.
FACTOR_MAX_N = {"interior": 64, "boundary": 32}


class Raised:
    def __init__(self, exc):
        self.exc = exc

    def __repr__(self):
        return "raised %s: %s" % (type(self.exc).__name__, self.exc)


class Steps:
    """Outputs of one problem's calls by step name, with each step's layer."""

    def __init__(self, call):
        self.call = call
        self.out = {}
        self.layers = {}

    def __call__(self, name, layer, key, fn, *args, **kwargs):
        self.layers[name] = layer
        try:
            value = self.call(layer, key, fn, *args, **kwargs)
        except Exception as exc:  # a raising library call is a counted failure
            value = Raised(exc)
        self.out[name] = value
        return value

    def ok(self, name):
        return name in self.out and not isinstance(self.out[name], Raised)

    def failures(self, verdicts):
        """Step name -> (layer, what went wrong) for each step that raised or
        failed its check."""
        return {name: (self.layers[name],
                       repr(value) if isinstance(value, Raised) else "wrong result")
                for name, value in self.out.items()
                if isinstance(value, Raised) or not verdicts.get(name, True)}


# ---------------------------------------------------------------- cone

def run_cone(p, ts, steps):
    n = p["n"]
    a = ts.fr_from_coeffs(p["density"])
    steps("fr_is_positive", "core", "core.fr_is_positive.ms.n%d" % n,
          ts.fr_is_positive, a)
    steps("laurent_roots", "factor", "factor.laurent_roots.ms.n%d" % n,
          ts.laurent_roots, a)
    if n <= FACTOR_MAX_N[p["kind"]]:
        steps("factorize", "factor",
              "factor.fejer_riesz_factorize.ms.%s.n%d" % (p["kind"], n),
              ts.fejer_riesz_factorize, a)
    for which in ("pure", "mixture"):
        s = steps(which + ".state", "states", "states.state_from_density.ms.n%d" % n,
                  ts.state_from_density, ts.fr_from_coeffs(p[which]))
        if not isinstance(s, Raised):
            steps(which + ".is_pure", "states", "states.is_pure.ms.n%d" % n,
                  ts.is_pure, s)
    full = ts.toeplitz_from_coeffs(p["full"])
    steps("is_positive", "core", "core.is_positive.ms.n%d" % n, ts.is_positive, full)
    low = ts.toeplitz_from_coeffs(p["low"])
    for which, T in (("full", full), ("low", low)):
        tag = "full" if which == "full" else "lowrank"
        vd = steps(which + ".decompose", "decompose",
                   "decompose.vandermonde_decompose.ms.%s.n%d" % (tag, n),
                   ts.vandermonde_decompose, T)
        if not isinstance(vd, Raised):
            steps(which + ".reconstruct", "decompose",
                  "decompose.reconstruct.ms.n%d" % n, ts.reconstruct, vd, n)
    steps("kernel_roots", "decompose", "decompose.kernel_roots.ms.n%d" % n,
          ts.kernel_roots, low)
    if n <= DET_MAX_N:
        steps("det_multiplicity", "decompose",
              "decompose.det_multiplicity.ms.n%d" % n, ts.det_multiplicity, low)


def check_cone(p, steps):
    n, out, v = p["n"], steps.out, {}
    if steps.ok("fr_is_positive"):
        v["fr_is_positive"] = out["fr_is_positive"] is True
    if steps.ok("laurent_roots"):
        v["laurent_roots"] = len(out["laurent_roots"]) == 2 * (n - 1)
    if steps.ok("factorize"):
        v["factorize"] = ck.factor_error(p["density"], out["factorize"].q) <= ck.FACTOR_TOL
    for which in ("pure", "mixture"):
        if steps.ok(which + ".state"):
            d = p[which] / p[which][n - 1].real
            got = out[which + ".state"].density.a
            v[which + ".state"] = (got.shape == d.shape
                                   and np.abs(got - d).max() <= 1e-12 * np.abs(d).max())
        if steps.ok(which + ".is_pure"):
            v[which + ".is_pure"] = out[which + ".is_pure"] is (which == "pure")
    if steps.ok("is_positive"):
        v["is_positive"] = bool(out["is_positive"][0])
    for which in ("full", "low"):
        if steps.ok(which + ".decompose"):
            vd = out[which + ".decompose"]
            good = ck.recon_error(p[which], vd.angles, vd.weights) <= ck.RECON_TOL
            if which == "low":
                good = good and vd.rank == len(p["low_angles"])
            v[which + ".decompose"] = good
        if steps.ok(which + ".reconstruct"):
            vd = out[which + ".decompose"]
            mine = ck.rays(vd.angles, vd.weights, n)
            got = out[which + ".reconstruct"].t
            v[which + ".reconstruct"] = (
                np.abs(got - mine).max() <= 1e-12 * max(1.0, np.abs(mine).max()))
    if steps.ok("kernel_roots"):
        v["kernel_roots"] = ck.node_deviation(np.angle(out["kernel_roots"]),
                                              p["low_angles"]) <= ck.NODE_TOL
    if steps.ok("det_multiplicity"):
        v["det_multiplicity"] = out["det_multiplicity"] == n - len(p["low_angles"])
    return v


# ---------------------------------------------------------------- distance

def run_distance(p, ts, steps):
    n = p["n"]
    key = "states.state_from_density.ms.n%d" % n
    phi = steps("phi", "states", key, ts.state_from_density, ts.fr_from_coeffs(p["phi"]))
    psi = steps("psi", "states", key, ts.state_from_density, ts.fr_from_coeffs(p["psi"]))
    if isinstance(phi, Raised) or isinstance(psi, Raised):
        return
    steps("connes", "metric", "metric.connes_distance.ms.n%d" % n,
          ts.connes_distance, phi, psi, gap=ck.GAP)
    steps("kantorovich", "metric", "metric.kantorovich.ms.n%d" % n,
          ts.kantorovich, phi, psi, quad_tol=ck.QUAD_TOL)
    if p["kind"] == "dual":
        steps("dual", "metric", "metric.connes_via_dual.ms.n%d" % n,
              ts.connes_via_dual, phi, psi, gap=ck.GAP)


def check_distance(p, steps):
    out, v = steps.out, {}
    for which in ("phi", "psi"):
        if steps.ok(which):
            d = p[which] / p[which][p["n"] - 1].real
            v[which] = np.abs(out[which].density.a - d).max() <= 1e-12
    c = out["connes"] if steps.ok("connes") else None
    if c is not None:
        v["connes"] = bool(c.converged) and c.upper - c.lower <= ck.GAP
        if p["kind"] == "closed":
            v["connes"] = v["connes"] and abs(c.value - p["r"]) <= ck.CLOSED_FORM_TOL
    if steps.ok("kantorovich"):
        k = out["kantorovich"]
        good = c is not None and ck.distance_ok(c.value, k, c.converged, c.lower, c.upper)
        if p["kind"] == "closed":
            good = good and abs(k - 2 * p["r"] / np.pi) <= ck.CLOSED_FORM_TOL
        v["kantorovich"] = good
    if steps.ok("dual"):
        v["dual"] = c is not None and abs(out["dual"][0] - c.value) <= 2 * ck.GAP
    return v


# ---------------------------------------------------------------- structure

def _complete_compress(ts, T, m, n):
    return ts.compress_circulant(ts.complete_toeplitz(T, m), n)


def run_structure(p, ts, steps):
    kind = p["kind"]
    if kind == "propagation-toeplitz":
        sys_ = steps("system", "opsys", "opsys.toeplitz_system.ms.n%d" % p["n"],
                     ts.toeplitz_system, p["n"])
        if not isinstance(sys_, Raised):
            steps("propagation", "opsys",
                  "opsys.propagation_number.ms.toeplitz.n%d" % p["n"],
                  ts.propagation_number, sys_)
    elif kind == "propagation-circulant":
        sys_ = steps("system", "opsys", "opsys.circulant_system.ms.m%d" % p["m"],
                     ts.circulant_system, p["m"])
        if not isinstance(sys_, Raised):
            steps("propagation", "opsys",
                  "opsys.propagation_number.ms.circulant.m%d" % p["m"],
                  ts.propagation_number, sys_)
    elif kind == "tensor-rank":
        steps("rank", "circulant", "circulant.tensor_map_rank.ms.n%d" % p["n"],
              ts.tensor_map_rank, p["n"])
    elif kind == "complete-compress":
        steps("round_trip", "circulant", "circulant.complete_compress.ms.m%d" % p["m"],
              _complete_compress, ts, ts.toeplitz_from_coeffs(p["t"]), p["m"], p["n"])
    elif kind == "geometry-checks":
        steps("checks", "geometry3", "geometry3.run_checks.ms",
              ts.geometry3.run_checks, seed=p["seed"])
    elif kind == "geometry-sample":
        steps("sample", "geometry3", "geometry3.sample_surfaces.ms.%s" % p["sample"],
              ts.geometry3.sample_surfaces, p["sample"], p["count"], seed=p["seed"])


def check_structure(p, steps):
    out, v, kind = steps.out, {}, p["kind"]
    if steps.ok("system"):
        v["system"] = True
    if steps.ok("propagation"):
        v["propagation"] = out["propagation"] == (2 if kind == "propagation-toeplitz" else 1)
    if steps.ok("rank"):
        v["rank"] = out["rank"] == ck.tensor_rank_reference(p["n"])
    if steps.ok("round_trip"):
        v["round_trip"] = np.array_equal(out["round_trip"].t, p["t"])
    if steps.ok("checks"):
        v["checks"] = out["checks"]["ok"] is True
    if steps.ok("sample"):
        v["sample"] = ck.sample_rows_ok(p["sample"], out["sample"][1], p["count"])
    return v


# ---------------------------------------------------------------- cli

def cli_command(p):
    return [sys.executable, "-m", "toepsys.cli"] + p["args"]


def run_cli(p, ctx, steps):
    """``ctx`` holds the working directory with the input files and the
    environment that puts the library on the import path."""
    steps("run", "cli", "cli.%s.ms" % p["cmd"], subprocess.run, cli_command(p),
          cwd=ctx["dir"], env=ctx["env"], capture_output=True, text=True,
          timeout=120)


def _coeffs(pairs):
    return np.array([complex(re, im) for re, im in pairs])


def _cli_output_ok(p, text):
    args, cmd = p["args"], p["cmd"]
    if "sample" in p:
        rows = list(csv.reader(io.StringIO(text)))
        return ck.sample_rows_ok(p["sample"], [[float(x) for x in r] for r in rows[1:]],
                                 p["count"])
    data = json.loads(text)
    files = p["files"]
    if cmd == "factorize":
        a = _coeffs(files[args[1]]["a"])
        return ck.factor_error(a, _coeffs(data["q"])) <= ck.FACTOR_TOL
    if cmd == "decompose":
        t = _coeffs(files[args[1]]["t"])
        good = (ck.recon_error(t, data["angles"], data["weights"]) <= ck.RECON_TOL
                and data["rank"] == len(data["angles"]))
        if "rank" in p:
            good = good and data["rank"] == p["rank"]
        return good
    if cmd == "state":
        a = _coeffs(files[args[1]]["a"])
        a = a / a[(a.size - 1) // 2].real
        good = np.abs(_coeffs(data["density"]["a"]) - a).max() <= 1e-12
        if "pure" in p:
            good = good and data["pure"] is p["pure"]
        if "--eval" in args:
            t = _coeffs(files[args[args.index("--eval") + 1]]["t"])
            good = good and abs(data["value"] - np.real(np.dot(a, t[::-1]))) <= 1e-12
        return good
    if cmd == "distance":
        c, k = data["connes"], data["kantorovich"]
        # the CLI does not report convergence; the bracket stands in for it
        good = (data["inequality_ok"] is True
                and ck.distance_ok(c["value"], k, True, c["lower"], c["upper"]))
        if "r" in p:
            good = (good and abs(c["value"] - p["r"]) <= ck.CLOSED_FORM_TOL
                    and abs(k - 2 * p["r"] / np.pi) <= ck.CLOSED_FORM_TOL)
        return good
    if cmd == "circulant":
        action = args[1]
        if action == "complete":
            t = _coeffs(files[args[2]]["t"])
            c = _coeffs(data["c"])
            n, m = (t.size + 1) // 2, c.size
            back = np.array([c[k % m] for k in range(-n + 1, n)])
            return m == int(args[args.index("--m") + 1]) and np.array_equal(back, t)
        if action == "compress":
            c = _coeffs(files[args[2]]["c"])
            n = int(args[args.index("--n") + 1])
            want = np.array([c[k % c.size] for k in range(-n + 1, n)])
            return np.array_equal(_coeffs(data["t"]), want)
        if action == "eigenvalues":
            c = _coeffs(files[args[2]]["c"])
            ev = _coeffs(data["eigenvalues"])
            return np.abs(ev - np.fft.fft(c)).max() <= 1e-12 * np.abs(c).sum()
        if action == "tensor-rank":
            return data["rank"] == ck.tensor_rank_reference(data["n"])
    if cmd == "propagation":
        return data["prop"] == (2 if "--toeplitz" in args else 1)
    if cmd == "geometry3":
        return data["ok"] is True
    return False


def check_cli(p, steps):
    if not steps.ok("run"):
        return {}
    res = steps.out["run"]
    if res.returncode != 0:
        return {"run": False}
    try:
        return {"run": bool(_cli_output_ok(p, res.stdout))}
    except (ValueError, KeyError, IndexError, TypeError):
        return {"run": False}


RUNNERS = {"cli": run_cli, "cone": run_cone, "distance": run_distance,
           "structure": run_structure}
CHECKS = {"cli": check_cli, "cone": check_cone, "distance": check_distance,
          "structure": check_structure}
