"""
Tests of the benchmark itself:  python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import metrics as mt  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import CHECKS, RUNNERS, Raised, Steps  # noqa: E402


def test_metric_names_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert declared == mt.manifest()
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names))
    assert sorted(w["name"] for w in declared["workloads"]) == sorted(inputs.PROBLEMS)


def _same(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("workload", sorted(inputs.PROBLEMS))
def test_same_seed_gives_identical_inputs(workload):
    make = inputs.PROBLEMS[workload]
    assert _same(make(11), make(11))
    assert not _same(make(11), make(12))


def _cone_problem(n, kind):
    return next(p for p in inputs.cone_problems(5) if p["n"] == n and p["kind"] == kind)


def _run(workload, p):
    import toepsys
    import toepsys.geometry3  # noqa: F401
    steps = Steps(Tracer(workload, enabled=False).call)
    RUNNERS[workload](p, toepsys, steps)
    return steps


def test_correct_results_pass():
    p = _cone_problem(4, "interior")
    steps = _run("cone", p)
    assert steps.failures(CHECKS["cone"](p, steps)) == {}


def test_wrong_result_is_counted_as_failed():
    p = _cone_problem(4, "interior")
    steps = _run("cone", p)
    f = steps.out["factorize"]
    f.q = f.q * (1 + 1e-6)
    steps.out["det_multiplicity"] += 1
    failed = steps.failures(CHECKS["cone"](p, steps))
    assert failed["factorize"][0] == "factor"
    assert failed["det_multiplicity"][0] == "decompose"


def test_raised_call_is_counted_as_failed():
    p = _cone_problem(4, "boundary")
    steps = _run("cone", p)
    steps.out["mixture.is_pure"] = Raised(ValueError("boom"))
    failed = steps.failures(CHECKS["cone"](p, steps))
    assert failed == {"mixture.is_pure": ("states", "raised ValueError: boom")}


def test_wrong_cli_output_is_counted_as_failed():
    p = next(p for p in inputs.cli_problems(3) if p["args"][:2] == ["propagation", "--toeplitz"])
    steps = Steps(lambda layer, key, fn, *a, **k: fn(*a, **k))
    steps("run", "cli", "cli.propagation.ms", subprocess.CompletedProcess,
          [], 0, stdout='{"prop": 3}\n')
    assert CHECKS["cli"](p, steps) == {"run": False}
    steps.out["run"].stdout = '{"prop": 2}\n'
    assert CHECKS["cli"](p, steps) == {"run": True}


def test_tail_percentile_keeps_ten_problems_beyond():
    assert mt.tail_percentile(20) == 50.0
    assert mt.tail_percentile(50) == 80.0
    assert mt.tail_percentile(100) == 90.0


def test_tensor_rank_reference_matches_dense_count():
    from checks import tensor_rank_reference
    assert tensor_rank_reference(8) == 209
    assert all(tensor_rank_reference(n) == (2 * n - 1) ** 2 for n in (2, 3, 4, 6, 7))


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run([sys.executable, "bench/run.py", "--workload", "cone",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert res.returncode != 0
    assert res.stdout == ""
