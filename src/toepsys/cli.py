"""
Command line front end: JSON in, JSON or CSV out, deterministic for a given
input, seed and tolerances.

Floats are emitted with 17 significant digits and complex values as
[re, im] pairs, so every emitted file re-parses to the same values.
"""

import argparse
import json
import sys

import numpy as np

from . import circulant as circ
from . import decompose, factor, geometry3, metric, opsys, states
from .core import fr_from_json, fr_to_json, toeplitz_from_json, toeplitz_to_json


def _format(value):
    """Render a JSON-ready structure with 17-significant-digit floats."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        items = ", ".join("%s: %s" % (json.dumps(k), _format(v))
                          for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_format(v) for v in value) + "]"
    if value is None:
        return "null"
    return _format(float(value))


def _emit(obj, out):
    """Write obj, or text as it is, to the file ``out`` or to stdout."""
    text = obj if isinstance(obj, str) else _format(obj) + "\n"
    if out and out != "-":
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fail(message, **extra):
    err = {"error": message}
    err.update(extra)
    sys.stderr.write(_format(err) + "\n")
    return 1


def _load_json(path):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise _CliError("malformed JSON in %s: %s" % (path, exc.msg),
                        line=exc.lineno, column=exc.colno, position=exc.pos)
    except OSError as exc:
        raise _CliError(str(exc))


class _CliError(Exception):
    def __init__(self, message, **extra):
        super().__init__(message)
        self.extra = extra


def _cmd_factorize(args):
    a = fr_from_json(_load_json(args.input))
    f = factor.fejer_riesz_factorize(a, tol=args.tol)
    _emit({"q": [[float(z.real), float(z.imag)] for z in f.q],
           "residual": factor.factorization_residual(a, f)}, args.out)
    return 0


def _cmd_decompose(args):
    T = toeplitz_from_json(_load_json(args.input))
    vd = decompose.vandermonde_decompose(T, tol=args.tol)
    R = decompose.reconstruct(vd, T.n)
    err = float(np.abs(R.t - T.t).max())
    _emit({"angles": [float(x) for x in vd.angles],
           "weights": [float(x) for x in vd.weights],
           "rank": vd.rank,
           "reconstruction_error": err}, args.out)
    return 0


def _cmd_state(args):
    a = fr_from_json(_load_json(args.input))
    s = states.state_from_density(a, tol=args.tol)
    out = {"density": fr_to_json(s.density)}
    if args.check_pure:
        out["pure"] = states.is_pure(s)
    if args.eval is not None:
        T = toeplitz_from_json(_load_json(args.eval))
        out["value"] = states.evaluate(s, T)
    _emit(out, args.out)
    return 0


def _cmd_distance(args):
    phi = states.state_from_density(fr_from_json(_load_json(args.phi)),
                                    tol=args.tol)
    psi = states.state_from_density(fr_from_json(_load_json(args.psi)),
                                    tol=args.tol)
    res = metric.connes_distance(phi, psi, gap=args.gap)
    kant = metric.kantorovich(phi, psi, quad_tol=args.quad_tol)
    # an unconverged lower bound cannot confirm the inequality
    _emit({"connes": {"value": res.value, "lower": res.lower,
                      "upper": res.upper, "converged": res.converged},
           "kantorovich": kant,
           "inequality_ok": bool(res.converged and res.value
                                 >= kant - (args.gap + args.quad_tol))},
          args.out)
    if not res.converged:
        return _fail("connes_distance did not converge within its "
                     "interior-point iteration cap", lower=res.lower,
                     upper=res.upper)
    return 0


def _cmd_circulant(args):
    if args.action == "complete":
        T = toeplitz_from_json(_load_json(args.input))
        if args.m is None:
            raise _CliError("complete requires --m")
        C = circ.complete_toeplitz(T, args.m)
        _emit(circ.circulant_to_json(C), args.out)
    elif args.action == "compress":
        C = circ.circulant_from_json(_load_json(args.input))
        if args.n is None:
            raise _CliError("compress requires --n")
        T = circ.compress_circulant(C, args.n)
        _emit(toeplitz_to_json(T), args.out)
    elif args.action == "eigenvalues":
        C = circ.circulant_from_json(_load_json(args.input))
        ev = C.eigenvalues()
        _emit({"eigenvalues": [[float(z.real), float(z.imag)] for z in ev]},
              args.out)
    elif args.action == "tensor-rank":
        if args.n is None:
            raise _CliError("tensor-rank requires --n")
        _emit({"n": args.n, "m": 2 * args.n - 1,
               "rank": circ.tensor_map_rank(args.n)}, args.out)
    return 0


def _cmd_propagation(args):
    if args.toeplitz is not None:
        sys_ = opsys.toeplitz_system(args.toeplitz)
    elif args.circulant is not None:
        sys_ = opsys.circulant_system(args.circulant)
    else:
        raise _CliError("propagation requires --toeplitz N or --circulant M")
    _emit({"prop": opsys.propagation_number(sys_)}, args.out)
    return 0


def _cmd_geometry3(args):
    if args.sample is not None:
        header, rows = geometry3.sample_surfaces(args.sample, args.count,
                                                 seed=args.seed)
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join("%.17g" % v for v in row))
        _emit("\n".join(lines) + "\n", args.out)
        return 0
    checks = geometry3.run_checks(seed=args.seed)
    _emit(checks, args.out)
    return 0 if checks["ok"] else 1


def build_parser():
    p = argparse.ArgumentParser(prog="toepsys")
    p.add_argument("--gap", type=float, default=1e-6, help="Connes distance bracket width")
    p.add_argument("--tol", type=float, default=1e-9, help="relative positivity tolerance")
    p.add_argument("--quad-tol", type=float, default=1e-8, help="Kantorovich optimality bound")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default=None)
    sub = p.add_subparsers(dest="command")

    q = sub.add_parser("factorize", help="spectral factor of a density")
    q.add_argument("input")
    q.set_defaults(func=_cmd_factorize)

    q = sub.add_parser("decompose", help="node/weight decomposition")
    q.add_argument("input")
    q.set_defaults(func=_cmd_decompose)

    q = sub.add_parser("state", help="validate, test and evaluate a state")
    q.add_argument("input")
    q.add_argument("--check-pure", action="store_true")
    q.add_argument("--eval", default=None)
    q.set_defaults(func=_cmd_state)

    q = sub.add_parser("distance", help="spectral and transport distances")
    q.add_argument("phi")
    q.add_argument("psi")
    q.set_defaults(func=_cmd_distance)

    q = sub.add_parser("circulant", help="circulant completions and spectra")
    q.add_argument("action",
                   choices=["complete", "compress", "eigenvalues",
                            "tensor-rank"])
    q.add_argument("input", nargs="?")
    q.add_argument("--m", type=int, default=None)
    q.add_argument("--n", type=int, default=None)
    q.set_defaults(func=_cmd_circulant)

    q = sub.add_parser("propagation", help="propagation number of a system")
    g = q.add_mutually_exclusive_group()
    g.add_argument("--toeplitz", type=int, default=None)
    g.add_argument("--circulant", type=int, default=None)
    q.set_defaults(func=_cmd_propagation)

    q = sub.add_parser("geometry3", help="n=3 boundary geometry checks")
    q.add_argument("--check", action="store_true")
    q.add_argument("--sample", default=None,
                   choices=["cone-slice", "state-surface", "boundary"])
    q.add_argument("--count", type=int, default=500)
    q.set_defaults(func=_cmd_geometry3)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except _CliError as exc:
        return _fail(str(exc), **exc.extra)
    except ValueError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
