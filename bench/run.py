"""
toepsys benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload cone --seed 1 --seconds 25 --trace 0

Run from the repository root; the library is imported from ``src`` (and the
CLI run as ``python -m toepsys.cli`` with ``src`` on PYTHONPATH), nothing is
installed.  Inputs are built from the seed before any timing.  The seeded
problem set is one round; rounds repeat, each problem waiting for the
previous one (one caller, closed loop, default BLAS threads), until the next
round would overrun ``--seconds``.  Every result is checked against an
independent reference (checks.py); a raise, non-convergence or failed check
makes its problem failed.

End-to-end metrics, from the untraced rounds: ``wall_s`` is the median over
rounds of the summed problem latencies (input generation and checks
excluded); ``latency_ms_p50`` and ``latency_ms_tail`` are percentiles of the
per-problem median latencies, the tail being the highest percentile with at
least ten problems beyond it; ``pass_ratio`` is the share of problems that
passed every check; ``setup_s`` is the median wall time of fresh
interpreters that import toepsys and warm every layer up; ``peak_rss_mb`` is
the peak resident memory of the benchmark process (of the CLI processes for
``cli``) up to the end of the first round.  Later rounds solve the same
problems again and only add heap fragmentation, whose amount differs from run
to run by up to a tenth on the structure workload.

The last line of standard output is one JSON object:
``correct`` (every problem got the same verdict in every round), ``attempted``
and ``failed`` (problems of the seeded set, and those failing in any round)
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The traced run alternates untraced and traced
rounds; per-layer times are medians over spans of the traced rounds.  Layers
a workload does not call report 0.  A full report (environment, failures,
spans) goes to ``.bench_out/``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import inputs
import metrics as mt
from tracing import Tracer
from workloads import CHECKS, RUNNERS, Steps

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
STARTUP_PROBES = {"python": "pass", "numpy": "import numpy",
                  "scipy_optimize": "import scipy.optimize",
                  "toepsys": "import toepsys"}


def library_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def timed_process(cmd, env):
    t0 = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, env=env, check=True, capture_output=True,
                   timeout=120)
    return time.perf_counter() - t0


def measure_setup(env):
    """Median wall time of fresh interpreters that import toepsys and warm
    every layer up."""
    cmd = [sys.executable, str(Path(__file__).with_name("warmup.py"))]
    return statistics.median(timed_process(cmd, env) for _ in range(SETUP_REPEATS))


def blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        if ref_file.is_file():
            return ref_file.read_text().strip()
        return None
    return ref


def environment():
    import scipy
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads(), "loadavg_start": os.getloadavg(),
            "git_commit": git_commit()}


def run_round(workload, problems, lib, tracer):
    """One pass over the problem set: latencies and failing steps by problem."""
    runner, check = RUNNERS[workload], CHECKS[workload]
    latencies, failures, extras = [], {}, []
    for p in problems:
        steps = Steps(tracer.call)
        with tracer.problem(p["id"]):
            t0 = time.perf_counter()
            runner(p, lib, steps)
            latencies.append(time.perf_counter() - t0)
        try:
            verdicts = check(p, steps)
        except Exception:  # an output the reference cannot read is wrong
            verdicts = {name: False for name in steps.out}
        failures[p["id"]] = steps.failures(verdicts)
        extras.append((p, steps))
    return latencies, failures, extras


def distance_counters(extras, cuts, nonconverged):
    for p, steps in extras:
        if steps.ok("connes"):
            res = steps.out["connes"]
            cuts.setdefault("metric.connes_distance.cuts.n%d" % p["n"], []).append(res.iterations)
            if not res.converged:
                nonconverged.add(p["id"])


def end_to_end(rounds, problems, setup_s, peak_rss_mb, failed):
    per_problem = np.median(np.array([r["latencies"] for r in rounds]), axis=0) * 1e3
    q = mt.tail_percentile(len(problems))
    values = {
        "wall_s": statistics.median(sum(r["latencies"]) for r in rounds),
        "latency_ms_p50": float(np.percentile(per_problem, 50)),
        "latency_ms_tail": float(np.percentile(per_problem, q)),
        "pass_ratio": (len(problems) - failed) / len(problems),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    info = {"tail_percentile": q, "problems": len(problems), "rounds": len(rounds),
            "samples": len(rounds) * len(problems),
            "round_walls": [sum(r["latencies"]) for r in rounds],
            "problem_ms": {p["id"]: float(v) for p, v in zip(problems, per_problem)}}
    return values, info


def per_layer(workload, tracer, rounds, failures, cuts, nonconverged):
    traced = [r for r in rounds if r["traced"]]
    untraced = [r for r in rounds if not r["traced"]]
    traced_wall = sum(sum(r["latencies"]) for r in traced)
    values = {}
    for name, unit, _ in mt.PER_LAYER:
        if ".share." in name:
            layer, _, wl = name.split(".")
            values[name] = (tracer.layer_time(layer) / traced_wall
                            if wl == workload else 0.0)
        elif name in mt.FAILED_COUNTERS:
            layer = mt.FAILED_COUNTERS[name]
            values[name] = sum(1 for f in failures.values()
                               for step_layer, _ in f.values() if step_layer == layer)
        elif name == "metric.nonconverged":
            values[name] = len(nonconverged)
        elif ".cuts." in name:
            values[name] = float(np.median(cuts[name])) if name in cuts else 0.0
        elif name == "trace_overhead_s":
            values[name] = (statistics.median(sum(r["latencies"]) for r in traced)
                            - statistics.median(sum(r["latencies"]) for r in untraced))
        else:
            d = tracer.durations(name)
            values[name] = float(np.median(d)) * 1e3 if d else 0.0
    return values


def startup_probes(tracer, env):
    for name, code in STARTUP_PROBES.items():
        tracer.call("cli", "cli.startup_ms.%s" % name, timed_process,
                    [sys.executable, "-c", code], env)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(mt.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=mt.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-benchmark-json", action="store_true",
                    help="write BENCHMARK.json at the repository root and exit")
    args = ap.parse_args(argv)
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(mt.manifest(), indent=2) + "\n")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not (SRC / "toepsys" / "__init__.py").is_file():
        sys.stderr.write("bench: no toepsys sources under %s\n" % SRC)
        return 2
    sys.path.insert(0, str(SRC))
    workload = args.workload
    env_info = environment()

    problems = inputs.PROBLEMS[workload](args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    env = library_env()
    setup_s = measure_setup(env)

    workdir = None
    if workload == "cli":
        workdir = tempfile.mkdtemp(prefix="cli-", dir=OUT_DIR)
        for p in problems:
            for name, obj in p["files"].items():
                with open(os.path.join(workdir, name), "w") as fh:
                    json.dump(obj, fh)
        lib = {"dir": workdir, "env": env}
    else:
        import toepsys
        import toepsys.geometry3  # noqa: F401  (makes ts.geometry3 available)
        from warmup import warm_up
        warm_up(toepsys)
        lib = toepsys

    tracer = Tracer(workload, enabled=False)
    traced_tracer = Tracer(workload, enabled=bool(args.trace))
    modes = (False, True) if args.trace else (False,)
    rounds, failures, flaky = [], {}, set()
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = None
    cuts, nonconverged = {}, set()
    try:
        start = time.perf_counter()
        longest = 0.0
        while True:
            traced = modes[len(rounds) % len(modes)]
            tr = traced_tracer if traced else tracer
            r0 = time.perf_counter()
            if traced and workload == "cli":
                startup_probes(tr, env)
            lat, fails, extras = run_round(workload, problems, lib, tr)
            longest = max(longest, time.perf_counter() - r0)
            rounds.append({"traced": traced, "latencies": lat})
            if peak_rss_mb is None:
                peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
            for pid, f in fails.items():
                if pid in failures and set(failures[pid]) != set(f):
                    flaky.add(pid)
                failures.setdefault(pid, {}).update(f)
            if traced and workload == "distance":
                distance_counters(extras, cuts, nonconverged)
            del extras
            elapsed = time.perf_counter() - start
            if len(rounds) >= len(modes) and elapsed + longest > args.seconds:
                break
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)

    failed_ids = sorted(pid for pid, f in failures.items() if f)
    timed = [r for r in rounds if not r["traced"]]
    e2e, info = end_to_end(timed, problems, setup_s, peak_rss_mb, len(failed_ids))
    env_info["loadavg_end"] = os.getloadavg()
    if args.trace:
        values = per_layer(workload, traced_tracer, rounds, failures, cuts, nonconverged)
        units = {n: u for n, u, _ in mt.PER_LAYER}
        spans_path = OUT_DIR / ("%s-s%d.spans.jsonl" % (workload, args.seed))
        traced_tracer.write(spans_path)
    else:
        values = e2e
        units = {n: u for n, u, _, _ in mt.END_TO_END}

    report = {"workload": workload, "seed": args.seed, "trace": args.trace,
              "environment": env_info, "run": info, "end_to_end": e2e,
              "metrics": values, "flaky": sorted(flaky),
              "failures": {pid: failures[pid] for pid in failed_ids}}
    (OUT_DIR / ("%s-s%d-t%d.json" % (workload, args.seed, args.trace))).write_text(
        json.dumps(report, indent=1, default=str))

    for name, value in values.items():
        print("%-52s %14.6g %s" % (name, value, units[name]))
    print("tail latency is p%g over %d problems (%d samples in %d rounds); "
          "%d of %d problems failed" % (info["tail_percentile"], info["problems"],
                                       info["samples"], info["rounds"],
                                       len(failed_ids), len(problems)))
    print(json.dumps({"environment": env_info}))
    print(json.dumps({
        "correct": not flaky,
        "attempted": len(problems),
        "failed": len(failed_ids),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
