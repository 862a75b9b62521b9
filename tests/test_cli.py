import json
import os
import subprocess
import sys

import numpy as np
import pytest

import toepsys
from toepsys import decompose, factor, metric, states
from toepsys.cli import _format, main
from toepsys.core import (fr_from_json, fr_to_json, json_pairs,
                          toeplitz_from_json, toeplitz_to_json)

from conftest import random_state


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def test_factorize(tmp_path, capsys):
    p = write_json(tmp_path / "a.json",
                   {"n": 2, "a": [[0.5, 0], [1, 0], [0.5, 0]]})
    code, out, err = run_cli(["factorize", p], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["residual"] < 1e-12
    assert len(data["q"]) == 2


def test_decompose(tmp_path, capsys):
    lam = np.exp(0.9j)
    t = [np.conj(lam) ** 2 / 3, np.conj(lam) / 3, 1 / 3, lam / 3, lam ** 2 / 3]
    p = write_json(tmp_path / "t.json",
                   {"n": 3, "t": [[z.real, z.imag] for z in np.asarray(t)]})
    code, out, _ = run_cli(["decompose", p], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 1
    assert data["angles"][0] == pytest.approx(0.9, abs=1e-8)
    assert data["reconstruction_error"] < 1e-10


def test_state_check_and_eval(tmp_path, capsys):
    p = write_json(tmp_path / "a.json",
                   {"n": 2, "a": [[0.5, 0], [1, 0], [0.5, 0]]})
    t = write_json(tmp_path / "t.json",
                   {"n": 2, "t": [[0, 0], [1, 0], [0, 0]]})
    code, out, _ = run_cli(["state", p, "--check-pure", "--eval", t], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["pure"] is True
    assert data["value"] == pytest.approx(1.0)


def test_distance(tmp_path, capsys):
    p = write_json(tmp_path / "phi.json",
                   {"n": 2, "a": [[0, 0], [1, 0], [0, 0]]})
    q = write_json(tmp_path / "psi.json",
                   {"n": 2, "a": [[0.5, 0], [1, 0], [0.5, 0]]})
    code, out, _ = run_cli(["distance", p, q], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["inequality_ok"] is True
    assert data["connes"]["converged"] is True
    assert data["connes"]["upper"] - data["connes"]["lower"] <= 1e-6


def test_density_scale_does_not_matter(tmp_path, capsys):
    # an unnormalized density is a state at any scale: 1e-10 (1 + cos)
    small = write_json(tmp_path / "small.json",
                       {"n": 2, "a": [[5e-11, 0], [1e-10, 0], [5e-11, 0]]})
    one = write_json(tmp_path / "one.json",
                     {"n": 2, "a": [[0.5, 0], [1, 0], [0.5, 0]]})
    trace = write_json(tmp_path / "trace.json",
                       {"n": 2, "a": [[0, 0], [1, 0], [0, 0]]})
    code, out, _ = run_cli(["state", small, "--check-pure"], capsys)
    assert code == 0 and json.loads(out)["pure"] is True
    code, out, _ = run_cli(["distance", small, trace], capsys)
    assert code == 0
    assert out == run_cli(["distance", one, trace], capsys)[1]


def test_distance_zero_quad_tol(tmp_path, capsys):
    p = write_json(tmp_path / "phi.json",
                   {"n": 2, "a": [[0, 0], [1, 0], [0, 0]]})
    q = write_json(tmp_path / "psi.json",
                   {"n": 2, "a": [[0.5, 0], [1, 0], [0.5, 0]]})
    code, out, _ = run_cli(["--quad-tol", "0", "distance", p, q], capsys)
    assert code == 0
    assert json.loads(out)["kantorovich"] == pytest.approx(2 / np.pi, abs=1e-12)


def test_distance_not_converged(tmp_path, capsys, monkeypatch):
    # an n = 4 pair: at n = 2 the first interior-point step is already
    # optimal, so one iteration closes the gap
    monkeypatch.setattr(metric, "MAX_ITERATIONS", 1)
    rng = np.random.default_rng(0)
    phi, psi = random_state(4, rng), random_state(4, rng)
    p = write_json(tmp_path / "phi.json", fr_to_json(phi.density))
    q = write_json(tmp_path / "psi.json", fr_to_json(psi.density))
    code, out, err = run_cli(["distance", p, q], capsys)
    assert code == 1
    data = json.loads(out)
    assert data["connes"]["converged"] is False
    assert data["inequality_ok"] is False
    assert data["connes"]["upper"] - data["connes"]["lower"] > 1e-6
    assert "error" in json.loads(err)


def test_circulant_actions(tmp_path, capsys):
    t = write_json(tmp_path / "t.json",
                   {"n": 2, "t": [[0.5, 0], [1, 0], [0.5, 0]]})
    code, out, _ = run_cli(["circulant", "complete", t, "--m", "3"], capsys)
    assert code == 0
    cjson = tmp_path / "c.json"
    cjson.write_text(out)
    code, out, _ = run_cli(["circulant", "compress", str(cjson), "--n", "2"],
                           capsys)
    assert code == 0
    assert json.loads(out)["t"] == [[0.5, 0], [1, 0], [0.5, 0]]
    code, out, _ = run_cli(["circulant", "tensor-rank", "--n", "2"], capsys)
    assert json.loads(out)["rank"] == 9


@pytest.mark.parametrize("args", [["complete", "--m", "5"],
                                  ["compress", "--n", "2"], ["eigenvalues"]])
def test_circulant_requires_input(args, capsys):
    code, out, err = run_cli(["circulant"] + args, capsys)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "%s requires an input file" % args[0]


def test_propagation(capsys):
    code, out, _ = run_cli(["propagation", "--toeplitz", "5"], capsys)
    assert code == 0 and json.loads(out)["prop"] == 2
    code, out, _ = run_cli(["propagation", "--circulant", "4"], capsys)
    assert code == 0 and json.loads(out)["prop"] == 1
    for flag, name in (("--toeplitz", "n"), ("--circulant", "m")):
        code, out, err = run_cli(["propagation", flag, "0"], capsys)
        assert code == 1 and out == ""
        assert "needs %s >= 1" % name in json.loads(err)["error"]


def test_propagation_flags_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["propagation", "--toeplitz", "3", "--circulant", "5"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert "not allowed with" in err


def test_geometry3_check_and_sample_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["geometry3", "--check", "--sample", "boundary"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert "not allowed with" in err


def test_geometry3_check_and_sample(tmp_path, capsys):
    code, out, _ = run_cli(["geometry3", "--check"], capsys)
    assert code == 0 and json.loads(out)["ok"] is True
    out_csv = tmp_path / "pts.csv"
    code, _, _ = run_cli(["--out", str(out_csv), "geometry3", "--sample",
                          "state-surface", "--count", "5"], capsys)
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "X,Y,Z" and len(lines) == 6
    code, out, err = run_cli(["geometry3", "--sample", "cone-slice",
                              "--count", "-2"], capsys)
    assert code == 1 and out == ""
    assert "count must be >= 0" in json.loads(err)["error"]


def test_malformed_json(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"n": 2,')
    code, out, err = run_cli(["factorize", str(p)], capsys)
    assert code == 1
    info = json.loads(err)
    assert "position" in info


@pytest.mark.parametrize("args, size, key", [
    (["decompose", "IN"], "n", "t"), (["factorize", "IN"], "n", "a"),
    (["circulant", "compress", "IN", "--n", "1"], "m", "c")])
@pytest.mark.parametrize("shape", ["missing size", "missing entries",
                                   "not pairs", "short pair", "not finite",
                                   "not a list"])
def test_wrong_json_shape(tmp_path, capsys, args, size, key, shape):
    # valid JSON of the wrong shape is an error message, not a traceback
    obj, message = {
        "missing size": ({key: [[1, 0]]}, "missing key %r" % size),
        "missing entries": ({size: 1}, "missing key %r" % key),
        "not pairs": ({size: 2, key: [1, 2, 3]},
                      "%s[0] is not a [re, im] pair of finite numbers: 1"
                      % key),
        "short pair": ({size: 1, key: [[1, 0], [2], [1, 0]]},
                       "%s[1] is not a [re, im] pair" % key),
        "not finite": ({size: 1, key: [[float("nan"), 0]]},
                       "%s[0] is not a [re, im] pair of finite numbers: "
                       "[nan, 0]" % key),
        "not a list": ({size: 1, key: 1}, "%r must be a list" % key),
    }[shape]
    p = write_json(tmp_path / "in.json", obj)
    code, out, err = run_cli([p if a == "IN" else a for a in args], capsys)
    assert code == 1 and out == ""
    assert message in json.loads(err)["error"]


def test_validation_failure(tmp_path, capsys):
    p = write_json(tmp_path / "a.json",
                   {"n": 2, "a": [[0.8, 0], [1, 0], [0.8, 0]]})
    code, out, err = run_cli(["factorize", p], capsys)
    assert code == 1
    assert "error" in json.loads(err)


def test_unknown_subcommand_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "toepsys.cli", "nosuch"],
        capture_output=True)
    assert proc.returncode == 2


def test_stdin_and_determinism(tmp_path, capsys):
    payload = json.dumps({"n": 2, "a": [[0.5, 0], [1, 0], [0.5, 0]]})
    outs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "toepsys.cli", "factorize", "-"],
            input=payload.encode(), capture_output=True)
        assert proc.returncode == 0
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    # emitted JSON re-parses losslessly
    data = json.loads(outs[0])
    assert isinstance(data["q"][0][0], float)


def test_import_path_is_scipy_free(tmp_path):
    a = write_json(tmp_path / "a.json",
                   {"n": 2, "a": [[0.5, 0], [1, 0], [0.5, 0]]})
    phi = write_json(tmp_path / "phi.json",
                     {"n": 2, "a": [[0, 0], [1, 0], [0, 0]]})
    script = "\n".join([
        "import sys",
        "import toepsys",
        "assert 'scipy' not in sys.modules, 'import toepsys'",
        "from toepsys.cli import main",
        "a, phi = sys.argv[1:]",
        "for args in (['factorize', a], ['distance', phi, a]):",
        "    assert main(args) == 0, args",
        "    assert 'scipy' not in sys.modules, args[0]",
    ])
    src = os.path.dirname(os.path.dirname(toepsys.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, a, phi],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_json_is_the_library_values(tmp_path, capsys):
    # every float re-parses to the library's own value bit for bit, and ints
    # and bools come out as JSON ints and bools
    rng = np.random.default_rng(7)
    pure = toepsys.pure_state_from_angles(rng.uniform(0, 2 * np.pi, 3)).state()
    mixed = random_state(4, rng)
    p = write_json(tmp_path / "pure.json", fr_to_json(pure.density))
    q = write_json(tmp_path / "mixed.json", fr_to_json(mixed.density))
    a = fr_from_json(json.loads((tmp_path / "mixed.json").read_text()))

    code, out, _ = run_cli(["factorize", q], capsys)
    f = factor.fejer_riesz_factorize(a, tol=1e-9)
    data = json.loads(out)
    assert code == 0 and data["q"] == json_pairs(f.q)
    assert data["residual"] == factor.factorization_residual(a, f)

    rays = [toepsys.extreme_ray(np.exp(1j * x), 4).t for x in (0.9, 2.5, 4.4)]
    t = write_json(tmp_path / "t.json", toeplitz_to_json(
        toepsys.toeplitz_from_coeffs(0.7 * rays[0] + 1.3 * rays[1] + rays[2])))
    T = toeplitz_from_json(json.loads((tmp_path / "t.json").read_text()))
    code, out, _ = run_cli(["decompose", t], capsys)
    vd = decompose.vandermonde_decompose(T, tol=1e-9)
    data = json.loads(out)
    assert code == 0 and data["rank"] == vd.rank == 3
    assert type(data["rank"]) is int
    assert data["angles"] == [float(x) for x in vd.angles]
    assert data["weights"] == [float(x) for x in vd.weights]

    code, out, _ = run_cli(["distance", p, q], capsys)
    phi = states.state_from_density(
        fr_from_json(json.loads((tmp_path / "pure.json").read_text())))
    psi = states.state_from_density(a)
    res = metric.connes_distance(phi, psi, gap=1e-6)
    data = json.loads(out)
    assert code == 0 and data["connes"]["converged"] is True
    assert [data["connes"][key] for key in ("value", "lower", "upper")] == [
        res.value, res.lower, res.upper]
    assert data["kantorovich"] == metric.kantorovich(phi, psi, quad_tol=1e-8)

    for path, pure in ((p, True), (q, False)):
        code, out, _ = run_cli(["state", path, "--check-pure"], capsys)
        assert code == 0 and json.loads(out)["pure"] is pure
    code, out, _ = run_cli(["propagation", "--toeplitz", "4"], capsys)
    assert out == '{"prop": 2}\n'
    code, out, _ = run_cli(["circulant", "tensor-rank", "--n", "3"], capsys)
    assert out == '{"n": 3, "m": 5, "rank": 25}\n'
    code, out, _ = run_cli(["geometry3", "--check"], capsys)
    assert code == 0 and json.loads(out)["ok"] is True
    assert '"ok": true' in out
    # numpy scalars that are not floats go through the encoder's default
    assert _format({"rank": np.int64(3), "ok": np.bool_(True),
                    "x": np.float64(0.1)}) == '{"rank": 3, "ok": true, "x": 0.1}'
