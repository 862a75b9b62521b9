"""
The benchmark's declared metrics and workloads; BENCHMARK.json is written
from here (``python3 bench/run.py --write-benchmark-json``).

Each per-layer group notes the end-to-end metric it should move, and on
which workload.
"""

RUN_SECONDS = 25

WORKLOADS = {
    "cli": "fresh python -m toepsys.cli processes over all seven subcommands at "
           "n <= 8: import and JSON dominate; the bypass for every kernel change",
    "cone": "factor/decompose/is_pure/det_multiplicity at n=4..128, interior vs "
            "boundary densities and full vs low-rank Toeplitz; failures counted",
    "distance": "connes_distance and kantorovich on mixed-state pairs n=2..12, "
                "n=2 closed forms, connes_via_dual at n<=3: the metric LP loop",
    "structure": "propagation numbers, tensor_map_rank, completion round trips to "
                 "m=1024 and geometry3 checks/samples: opsys, circulant, geometry3",
}

#: (name, unit, better, bound)
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("latency_ms_p50", "ms", "lower", 0.25),
    ("latency_ms_tail", "ms", "lower", 0.25),
    ("pass_ratio", "ratio", "higher", 0.1),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


def _per_layer():
    ms = lambda names: [(n, "ms", "lower") for n in names]
    out = []
    # -> latency_ms_p50 on cli, setup_s everywhere
    out += ms("cli.startup_ms.%s" % m for m in ("python", "numpy", "scipy_optimize", "toepsys"))
    out += ms("cli.%s.ms" % c for c in ("factorize", "decompose", "state", "distance",
                                        "circulant", "propagation", "geometry3"))
    # -> latency_ms_p50 on cone and distance
    out += ms("core.%s.ms.n%d" % (f, n) for f in ("is_positive", "fr_is_positive")
              for n in (8, 32, 128))
    # -> wall_s and latency_ms_tail on cone; no change on distance/structure
    out += ms("factor.fejer_riesz_factorize.ms.interior.n%d" % n for n in (8, 16, 32, 64))
    out += ms("factor.fejer_riesz_factorize.ms.boundary.n%d" % n for n in (8, 16, 32))
    out += ms("factor.laurent_roots.ms.n%d" % n for n in (32, 128))
    out += [("factor.failed", "count", "lower"), ("factor.share.cone", "ratio", "lower")]
    # -> wall_s and pass_ratio on cone
    out += ms("decompose.vandermonde_decompose.ms.%s.n%d" % (k, n)
              for k in ("full", "lowrank") for n in (8, 32, 128))
    out += ms("decompose.kernel_roots.ms.n%d" % n for n in (8, 32, 128))
    out += ms("decompose.det_multiplicity.ms.n%d" % n for n in (8, 16, 32, 64))
    out += [("decompose.failed", "count", "lower"), ("decompose.share.cone", "ratio", "lower")]
    # -> pass_ratio and latency_ms_p50 on cone
    out += ms("states.is_pure.ms.n%d" % n for n in (8, 32, 128))
    out += ms("states.state_from_density.ms.n%d" % n for n in (4, 16))
    out += [("states.failed", "count", "lower"), ("states.share.cone", "ratio", "lower")]
    # -> wall_s and latency_ms_tail on distance
    out += ms("metric.connes_distance.ms.n%d" % n for n in (2, 4, 8, 12))
    out += [("metric.connes_distance.cuts.n%d" % n, "count", "lower")
            for n in (2, 4, 8, 12)]
    out += ms("metric.kantorovich.ms.n%d" % n for n in (2, 8, 12))
    out += ms("metric.connes_via_dual.ms.n%d" % n for n in (2, 3))
    out += [("metric.nonconverged", "count", "lower"), ("metric.share.distance", "ratio", "lower")]
    # -> wall_s and peak_rss_mb on structure
    out += ms("opsys.propagation_number.ms.toeplitz.n%d" % n for n in (4, 8, 12))
    out += ms("opsys.propagation_number.ms.circulant.m%d" % m for m in (7, 15, 23))
    out += [("opsys.share.structure", "ratio", "lower")]
    # -> wall_s on structure
    out += ms("circulant.tensor_map_rank.ms.n%d" % n for n in (4, 8, 12))
    out += ms("circulant.complete_compress.ms.m%d" % m for m in (64, 1024))
    out += [("circulant.share.structure", "ratio", "lower")]
    # -> latency_ms_p50 on structure
    out += ms(["geometry3.run_checks.ms"])
    out += ms("geometry3.sample_surfaces.ms.%s" % k
              for k in ("cone-slice", "state-surface", "boundary"))
    out += [("geometry3.share.structure", "ratio", "lower")]
    # traced wall time minus untraced wall time, on the workload that ran
    out += [("trace_overhead_s", "s", "lower")]
    return tuple(out)


PER_LAYER = _per_layer()

#: failure counters reported per layer: metric name -> layer
FAILED_COUNTERS = {"factor.failed": "factor", "decompose.failed": "decompose",
                   "states.failed": "states"}

#: tail percentiles tried from the top; the highest with >= 10 problems
#: beyond it is reported
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)


def tail_percentile(count):
    for q in TAIL_LADDER:
        if count * (100 - q) / 100 >= 10 - 1e-9:
            return q
    return 50.0


def manifest():
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
