import ast
import csv
import hashlib
import io
import json
import math
import pathlib
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from anosovlab import cli, fuchsian, spectra
from anosovlab.affine_deform import Cocycle, FiniteDeformation, eigenvalue_derivative
from anosovlab.cli import derivative_check, main, sample_transversality
from anosovlab.flag_geometry import transversality_margin
from anosovlab.fuchsian import boundary_separation, sl2_eigenbasis
from anosovlab.linalg import InputError, NumericalFailure, float17
from anosovlab.principal_rep import eigendata_fuchsian
from anosovlab.surface_group import format_word, solve_cocycle_space

from conftest import THREAD_SETTINGS, package_env, run_cli_process
from oracles import (
    derivative_pairs_per_pair,
    extend_cocycle_per_row,
    formula_route_per_pair,
)


def run_cli(tmp_path, command, config=None, extra=()):
    tmp_path.mkdir(parents=True, exist_ok=True)
    out_dir = tmp_path / "out"
    args = [command, "--out", str(out_dir)]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        args += ["--config", str(path)]
    args += list(extra)
    code = main(args)
    return code, out_dir


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


def test_check_rep_passes(tmp_path):
    code, out = run_cli(tmp_path, "check-rep", {"seed": 1, "p": 2})
    assert code == 0
    report = read_json(out / "check_rep.json")
    assert float(report["relator_residual_sl2"]) <= 1e-9
    assert tuple(report["signature_v"]) == (2, 1)
    assert tuple(report["signature_e"]) == (2, 2)
    assert float(report["form_residual_e"]) <= 1e-9
    traces = [float(t) for t in report["generator_traces"]]
    assert max(traces) - min(traces) <= 1e-12


def test_margulis_coboundary_control(tmp_path):
    config = {
        "seed": 3,
        "radius": 7.0,
        "window": [4.0, 7.0],
        "cocycle": {"coboundary": [0.3, -1.2, 0.7]},
    }
    code, out = run_cli(tmp_path, "margulis", config)
    assert code == 0
    report = read_json(out / "margulis.json")
    assert abs(float(report["bm_average"])) <= 1e-8
    # the per-class table is spectrum.csv; margulis writes only its averages
    assert sorted(path.name for path in out.iterdir()) == ["margulis.json"]


def test_entropy_report(tmp_path):
    code, out = run_cli(tmp_path, "entropy", {"seed": 1, "radius": 9.0})
    assert code == 0
    report = read_json(out / "entropy.json")
    assert 0.9 <= float(report["estimate"]) <= 1.1
    assert not {"estimate_lastroot", "residual_lastroot"} & set(report)
    counts = (out / "entropy_counts.csv").read_text().splitlines()
    assert counts[0] == "T,N,log_N_over_T"
    last = counts[-1].split(",")
    assert float(last[0]) == 9.0 and int(last[1]) > 1000


def test_entropy_from_classes(tmp_path):
    # the same fits over the class spectrum's hyperbolic lengths, from a
    # ball that reaches every class of length ≤ 8
    config = {"seed": 1, "radius": 8.0, "source": "classes"}
    code, out = run_cli(tmp_path, "entropy", config)
    assert code == 0
    report = read_json(out / "entropy.json")
    assert report["source"] == "classes"
    assert not (out / "entropy_counts.csv").exists()
    ws = cli.Workspace(dict(cli.DEFAULTS, **config))
    spec = spectra.length_spectrum(ws.rho_v, ws.ball(11.0), ws.basis, radius=8.0)
    slope = spectra.entropy_estimate(spec.lengths(), ws.window())
    assert report["estimate"] == float17(slope.estimate)
    assert report["count"] == slope.count


def test_entropy_from_elements_leaves_word_tuples_unbuilt(tmp_path, monkeypatch):
    balls = []

    def recorded(*args, **kwargs):
        balls.append(fuchsian.enumerate_ball(*args, **kwargs))
        return balls[-1]

    monkeypatch.setattr(cli, "enumerate_ball", recorded)
    code, _ = run_cli(tmp_path, "entropy", {"seed": 1, "radius": 8.0})
    assert code == 0 and len(balls) == 1
    assert "words" not in vars(balls[0])


def test_spectrum_and_determinism(tmp_path):
    # identical config + seed => byte-identical output, independent of the
    # BLAS thread count (fixed per process, hence one process per setting)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 5, "radius": 6.0, "cocycle": "random"}))
    outputs = []
    for i, threads in enumerate(THREAD_SETTINGS):
        out = tmp_path / f"out{i}"
        code = run_cli_process(["spectrum", "--config", str(config),
                                "--out", str(out)], threads)
        assert code == 0, threads
        assert read_json(out / "spectrum_meta.json")["dropped"] == 0
        outputs.append((out / "spectrum.csv").read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_random_cocycle_requires_seed(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "margulis",
                      {"radius": 6.0, "cocycle": "random"})
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "config" and "seed" in err["error"]


def test_invalid_config_rejected(tmp_path, capsys, monkeypatch):
    code, _ = run_cli(tmp_path, "entropy", {"p": 7})
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "config"

    code, _ = run_cli(tmp_path, "entropy", {"radius": -1.0})
    assert code == 1

    code, _ = run_cli(tmp_path, "entropy", {"bogus_key": 1})
    assert code == 1

    # the finite-difference step is the constant cli.FD_STEP, not a key
    capsys.readouterr()
    code, _ = run_cli(tmp_path, "deriv-check", {"seed": 1, "t": 1e-3})
    assert code == 1
    assert "unknown config keys: ['t']" in json.loads(capsys.readouterr().err)["error"]

    # the group is always the genus-2 octagon group; there is no such key
    code, _ = run_cli(tmp_path, "entropy", {"group": "genus2-octagon"})
    assert code == 1

    # a random cocycle is spelled "random"; a dict is read as its vectors
    capsys.readouterr()
    code, _ = run_cli(tmp_path, "margulis", {"seed": 3, "cocycle": {"random": True}})
    assert code == 1
    assert "cocycle missing generators" in json.loads(capsys.readouterr().err)["error"]

    # values of the wrong type are config errors, not tracebacks, and a
    # fractional count is not rounded down
    for config, message in (({"radius": "abc"}, "radius must be a number"),
                            ({"radius": True}, "radius must be a number"),
                            ({"window": [4.0, "7"]}, "window must be a list"),
                            ({"window": [4.0, False]}, "window must be a list"),
                            ({"window": 7.0}, "window must be a list"),
                            ({"count": "5"}, "count must be an integer"),
                            ({"count": True}, "count must be an integer"),
                            ({"count": 2.5}, "count must be an integer")):
        capsys.readouterr()
        code, _ = run_cli(tmp_path, "transversality", dict(config, seed=1))
        assert code == 1, config
        err = json.loads(capsys.readouterr().err)
        assert err["type"] == "config" and message in err["error"], config
    config_path = tmp_path / "out.json"
    config_path.write_text(json.dumps({"out": 5}))
    assert main(["entropy", "--config", str(config_path)]) == 1
    assert "out must be a directory path" in json.loads(capsys.readouterr().err)["error"]

    # the orbit counts stop at the radius, so a window past it fits a
    # truncated counting function
    code, _ = run_cli(tmp_path, "entropy", {"radius": 10.0, "window": [6, 11]})
    assert code == 1
    assert "ends beyond radius 10.0" in json.loads(capsys.readouterr().err)["error"]

    # the ball's slack, the spectra's margin and check-rep's tolerance are
    # constants, not keys
    for key, value in (("slack", 2.0), ("margin", 3.0), ("tolerance", 1e-9)):
        code, _ = run_cli(tmp_path, "entropy", {key: value})
        assert code == 1
        assert f"unknown config keys: ['{key}']" in json.loads(capsys.readouterr().err)["error"]

    # a usage error is invalid input: exit 1 with a JSON config error, not
    # argparse's exit 2, which means numerical failure here
    for command, extra in (("entropy", ("--slack", "2")),
                           ("check-rep", ("--seed", "1", "--tolerance", "1")),
                           ("entropy", ("--radius", "abc")),
                           ("entropy", ("--bogus", "1"))):
        code, _ = run_cli(tmp_path, command, extra=extra)
        assert code == 1, extra
        err = json.loads(capsys.readouterr().err)
        assert err["type"] == "config", extra
    assert main([]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "config" and "command" in err["error"]
    for argv in (["--help"], ["--version"], ["entropy", "--help"]):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 0, argv
    capsys.readouterr()

    # radius 16 with SPECTRUM_MARGIN 3 asks for an R = 19 ball, about
    # 55 times the R = 15 one; it is refused before its first key
    def allocated(keys):
        raise AssertionError("the ball started before refusing")

    monkeypatch.setattr(fuchsian, "_key_hash", allocated)
    code, _ = run_cli(tmp_path, "spectrum", extra=("--radius", "16"))
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "config" and "MAX_BALL_ELEMENTS" in err["error"]


def test_config_must_be_a_json_object(tmp_path, capsys):
    # a number, null or a list of pairs once raised a TypeError, and [] and
    # "pr" were read as no keys and as the keys p and r
    for i, text in enumerate(("5", "null", '[["radius", 3]]', "[]", '"pr"')):
        path = tmp_path / f"config{i}.json"
        path.write_text(text)
        capsys.readouterr()
        assert main(["entropy", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"type": "config", "error": "config must be a JSON object"}, text


def test_smallest_refused_spectrum_radius(tmp_path, capsys, monkeypatch):
    # radius 15 with SPECTRUM_MARGIN 3 asks for an R = 18 ball, (cosh 18 −
    # 1)/2 ≈ 1.64e7 elements or about 4.4 GB: the smallest whole radius
    # the size limit refuses, before the first key
    def allocated(keys):
        raise AssertionError("the ball started before refusing")

    monkeypatch.setattr(fuchsian, "_key_hash", allocated)
    code, _ = run_cli(tmp_path, "spectrum", extra=("--radius", "15"))
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "config"
    assert "needs about 1.64e+07 ball elements" in err["error"]
    # radius 14 (an R = 17 ball of about 6.04e6 elements) is admitted: the
    # search starts
    with pytest.raises(AssertionError, match="started before refusing"):
        run_cli(tmp_path, "spectrum", extra=("--radius", "14"))


def test_linalg_error_exits_as_numerical(tmp_path, capsys, monkeypatch):
    # np.linalg.LinAlgError subclasses ValueError, which is a config error
    def singular(ws, out_dir):
        np.linalg.solve(np.zeros((2, 2)), np.ones(2))

    monkeypatch.setitem(cli.COMMANDS, "check-rep", singular)
    code, _ = run_cli(tmp_path, "check-rep")
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"type": "numerical", "error": "Singular matrix"}


def test_a_numpy_value_error_is_not_invalid_input(tmp_path, capsys, monkeypatch):
    # only the library's InputError and ConfigError are invalid input; a
    # ValueError from numpy is a bug and propagates with its traceback
    def misshapen(ws, out_dir):
        np.zeros(4).reshape(3)

    monkeypatch.setitem(cli.COMMANDS, "check-rep", misshapen)
    with pytest.raises(ValueError, match="cannot reshape") as raised:
        run_cli(tmp_path, "check-rep")
    assert not isinstance(raised.value, InputError)
    assert capsys.readouterr().err == ""

    # the library's own input checks still exit 1 as config errors
    def refused(ws, out_dir):
        ws.ball(-1.0)

    monkeypatch.setitem(cli.COMMANDS, "check-rep", refused)
    code, _ = run_cli(tmp_path, "check-rep")
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"type": "config", "error": "need radius > 0 and slack >= 0"}


# spectrum.csv of {"cocycle": "random", "seed": 3, "radius": 8.0},
# measured while α was still a field of every class record
PINNED_SPECTRUM_CSV_SHA256 = {
    2: "95cbaed57113a8ddad8846f57ed5cd4ed0aaa71b87a1a841a70f57cada6e95b5",
    3: "a1e34761418340f0e3c98eea97163a00840a70162fc6a7b2a94e253cc13364c0",
}


@pytest.mark.parametrize("p", [2, 3])
def test_spectrum_csv_bytes_pinned(tmp_path, p):
    config = {"cocycle": "random", "seed": 3, "radius": 8.0, "p": p}
    code, out = run_cli(tmp_path, "spectrum", config)
    assert code == 0
    digest = hashlib.sha256((out / "spectrum.csv").read_bytes()).hexdigest()
    assert digest == PINNED_SPECTRUM_CSV_SHA256[p]
    # attaching α shares every other column and copies the α one
    ws = cli.Workspace(dict(cli.DEFAULTS, **config))
    spec = ws.spectrum()
    alphas = spectra.multi_alphas(spec, ws.rho_v, ws.basis, [ws.cocycle()])[:, 0]
    attached = spectra.spectrum_with_alpha(spec, alphas)
    assert attached.words is spec.words and attached.lambdas is spec.lambdas
    assert not np.shares_memory(attached.alphas, alphas)
    assert np.isnan(spec.alphas).all() and len(spec.alphas) == len(spec)
    csv_bytes = cli.spectrum_csv(attached).encode()
    assert hashlib.sha256(csv_bytes).hexdigest() == PINNED_SPECTRUM_CSV_SHA256[p]


def csv_writer_text(rows):
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def test_csv_outputs_are_the_csv_writer_bytes(tmp_path):
    # spectrum.csv, transversality.csv, entropy_counts.csv and scan.csv are
    # joined f-strings; these are the rows csv.writer wrote for them
    ws = cli.Workspace(dict(cli.DEFAULTS, cocycle="random", seed=3, radius=8.0, p=3))
    spec = ws.spectrum()
    alphas = spectra.multi_alphas(spec, ws.rho_v, ws.basis, [ws.cocycle()])[:, 0]
    alphas[::7] = np.nan
    header = ["word", "word_length", "trace", "ell_hyp", "ell_lastroot", "alpha",
              "lambda_1", "lambda_2", "lambda_3"]
    for table in (spec, spectra.spectrum_with_alpha(spec, alphas)):
        rows = [[format_word(w), len(w), float17(t), float17(h), float17(r),
                 "" if np.isnan(a) else float17(a)] + [float17(v) for v in lam]
                for w, t, h, r, a, lam in zip(table.words, table.traces, table.length_hyp,
                                              table.length_lastroot, table.alphas,
                                              table.lambdas)]
        assert cli.spectrum_csv(table) == csv_writer_text([header] + rows)
    config = {"seed": 4, "count": 300, "p": 3}
    code, out = run_cli(tmp_path, "transversality", config)
    assert code == 0
    ws = cli.Workspace(dict(cli.DEFAULTS, **config))
    rows = [[format_word(a), format_word(b), float17(sep), float17(margin)]
            for a, b, sep, margin in sample_transversality(ws, 300, 4, cli.SEPARATION)]
    expected = csv_writer_text([["word_xy", "word_z", "separation", "margin"]] + rows)
    assert (out / "transversality.csv").read_bytes() == expected.encode()
    config = {"radius": 9.0}
    code, out = run_cli(tmp_path / "entropy", "entropy", config)
    assert code == 0
    ball = cli.Workspace(dict(cli.DEFAULTS, **config)).ball()
    rows = [[float17(t), ball.count(t), float17(math.log(ball.count(t)) / t)]
            for t in np.arange(1.0, 9.0 + 1e-9, 0.5).tolist()]
    expected = csv_writer_text([["T", "N", "log_N_over_T"]] + rows)
    assert (out / "entropy_counts.csv").read_bytes() == expected.encode()
    config = {"seed": 7, "radius": 8.0, "window": [5.0, 8.0], "cocycle": "random"}
    code, out = run_cli(tmp_path / "scan", "scan", config)
    assert code == 0
    ws = cli.Workspace(dict(cli.DEFAULTS, **config))
    scan = spectra.perturbed_entropy_scan(ws.spectrum(ws.cocycle()), cli.S_GRID, (5.0, 8.0))
    rows = [[float17(s), float17(est.estimate), float17(est.residual), est.count]
            for s, est in scan.table]
    expected = csv_writer_text([["s", "estimate", "residual", "count"]] + rows)
    assert (out / "scan.csv").read_bytes() == expected.encode()


def test_entropy_names_a_thin_default_window(tmp_path, capsys):
    # radius 7 defaults to the window [3, 7], whose near half (3, 5] holds
    # 48 orbit points against the 50 the critical exponent needs
    code, _ = run_cli(tmp_path, "entropy", {"seed": 1, "radius": 7.0})
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "config"
    assert "window [3.0, 7.0]" in err["error"] and "48 in (3.0, 5.0]" in err["error"]


@pytest.mark.xfail(strict=True, reason=(
    "known defect: check-rep --seed 1 exits 2 at p = 3 (form_residual_v "
    "1.03e-9 > 1e-9) and at p = 4 (2.5e-6) because it samples raw letter "
    "strings with g.g^-1 backtracks, worst (-3, -2, 2, 3, 4, -3, -1, -4); "
    "freely reduced, the same words give at most 2.0e-14 and 1.6e-13"))
def test_check_rep_p3(tmp_path):
    code, _ = run_cli(tmp_path, "check-rep", extra=("--seed", "1", "--p", "3"))
    assert code == 0


def test_explicit_cocycle_projection(tmp_path):
    rng = np.random.default_rng(0)
    vectors = {lab: list(rng.standard_normal(3))
               for lab in ("a1", "b1", "a2", "b2")}
    # unprojected random vectors violate the relator constraint
    code, _ = run_cli(tmp_path, "margulis",
                      {"seed": 2, "radius": 6.0, "cocycle": vectors})
    assert code == 1
    config = {"seed": 2, "radius": 6.0, "window": [3.5, 6.0],
              "cocycle": vectors, "project": True}
    code, out = run_cli(tmp_path / "proj", "margulis", config)
    assert code == 0


def test_transversality_cli(tmp_path):
    config = {"seed": 4, "count": 40, "p": 2}
    code, out = run_cli(tmp_path, "transversality", config)
    assert code == 0
    report = read_json(out / "transversality.json")
    assert float(report["min_margin"]) > 1e-6
    assert report["count"] == 40


def test_deriv_check_cli(tmp_path):
    config = {"seed": 6, "count": 12}
    code, out = run_cli(tmp_path, "deriv-check", config)
    assert code == 0
    report = read_json(out / "deriv_check.json")
    assert float(report["max_rel_err_formula_vs_half_alpha"]) <= 1e-6
    assert float(report["max_abs_lower_derivatives"]) <= 1e-8
    assert float(report["max_rel_err_fd_vs_half_alpha"]) <= 1e-4


def test_scan_cli(tmp_path):
    config = {"seed": 7, "radius": 8.0, "window": [5.0, 8.0],
              "cocycle": "random"}
    code, out = run_cli(tmp_path, "scan", config)
    assert code == 0
    report = read_json(out / "scan.json")
    assert np.isfinite(float(report["central_slope"]))
    rows = (out / "scan.csv").read_text().splitlines()
    assert rows[0] == "s,estimate,residual,count"
    assert len(rows) == 4


# Imports every anosovlab module and runs each CLI subcommand in-process;
# with argv[3] == "1" a meta-path hook first makes any scipy import fail.
NO_SCIPY_SCRIPT = """
import importlib, json, pkgutil, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError("scipy is blocked")
        return None

out, runs, block = sys.argv[1], json.loads(sys.argv[2]), sys.argv[3] == "1"
if block:
    sys.meta_path.insert(0, NoScipy())
import anosovlab
for module in pkgutil.iter_modules(anosovlab.__path__):
    importlib.import_module("anosovlab." + module.name)
from anosovlab import cli
codes = []
for i, (command, config) in enumerate(runs):
    path = f"{out}/config{i}.json"
    with open(path, "w") as handle:
        json.dump(config, handle)
    codes.append(cli.main([command, "--config", path, "--out", f"{out}/run{i}"]))
try:
    import scipy  # noqa: F401
    scipy_importable = True
except ImportError:
    scipy_importable = False
print(json.dumps({"codes": codes, "scipy_importable": scipy_importable}))
"""

TOY_RUNS = [
    ("check-rep", {"seed": 1, "p": 2}),
    ("spectrum", {"seed": 5, "radius": 6.0, "cocycle": "random"}),
    ("entropy", {"seed": 1, "radius": 8.0}),
    ("margulis", {"seed": 3, "radius": 7.0, "window": [4.0, 7.0],
                  "cocycle": "random"}),
    ("transversality", {"seed": 4, "count": 40}),
    ("deriv-check", {"seed": 6, "count": 12}),
    ("scan", {"seed": 7, "radius": 8.0, "window": [5.0, 8.0],
              "cocycle": "random"}),
]


def test_package_runs_without_scipy(tmp_path):
    # numpy is the only runtime dependency: every module imports and every
    # subcommand exits as it does with scipy installed
    assert {command for command, _ in TOY_RUNS} == set(cli.COMMANDS)
    results = {}
    for block in ("0", "1"):
        out = tmp_path / block
        out.mkdir()
        done = subprocess.run(
            [sys.executable, "-c", NO_SCIPY_SCRIPT, str(out), json.dumps(TOY_RUNS),
             block],
            env=package_env(), capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        results[block] = json.loads(done.stdout.splitlines()[-1])
    assert results["0"]["codes"] == [0] * len(TOY_RUNS)
    assert results["1"]["scipy_importable"] is False
    assert results["1"]["codes"] == results["0"]["codes"]


NO_MASKED_ARRAYS_SCRIPT = """
import json, sys
from anosovlab import cli
out, command, config = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
with open(f"{out}/config.json", "w") as handle:
    json.dump(config, handle)
code = cli.main([command, "--config", f"{out}/config.json", "--out", f"{out}/run"])
print(json.dumps({"code": code, "numpy.ma": "numpy.ma" in sys.modules}))
"""


@pytest.mark.parametrize("command", ["transversality", "deriv-check", "entropy",
                                     "spectrum", "margulis", "scan"])
def test_commands_do_not_import_masked_arrays(tmp_path, command):
    # importing numpy.ma costs 12-17 ms of start-up, and np.unique and
    # np.median import it on first call
    config = dict(TOY_RUNS)[command]
    done = subprocess.run(
        [sys.executable, "-c", NO_MASKED_ARRAYS_SCRIPT, str(tmp_path), command,
         json.dumps(config)],
        env=package_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {"code": 0, "numpy.ma": False}


# every parameter with a default in src/anosovlab, with the callers that
# set it; a value no caller changes is a module constant instead
SETTABLE_PARAMETERS = {
    "fuchsian.enumerate_ball(slack)": "the tests, benchmark/session.py",
    "fuchsian.enumerate_ball(presentation)": "cli.Workspace.ball, benchmark/session.py",
    "principal_rep.Representation.__init__(form)": "sym_representation and the E one",
    "principal_rep.Representation.__init__(labels)": "cli.Workspace, the benchmark",
    "principal_rep.Representation.__init__(base)": "sym_representation and the E one",
    "flag_geometry.is_isotropic(tol)": "flag_from_tuple 1e-10, _validate_pairing 1e-8",
    "spectra._window_grid(step)": "entropy_estimate passes 0.25 and SCAN_STEP",
    "spectra.entropy_estimate(step)": "cli entropy 0.25, perturbed_entropy_scan 0.1",
    "spectra.bm_average(weighted)": "cli margulis",
    "spectra.anosov_gap_report(tol)": "benchmark/session.py, the acceptance tests",
    "spectra.LengthSpectrum.lengths(functional)": "perturbed_entropy_scan, the tests",
    "cli.Workspace.ball(radius)": "the samplers' pools and Workspace.spectrum",
    "cli.Workspace.spectrum(omega)": "cli spectrum, margulis and scan",
    "cli.main(argv)": "the tests and the benchmark's traced CLI",
}


def _parameters_with_defaults(tree, module):
    """`module.qualname(parameter)` of each function parameter with a default."""
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                named = positional[len(positional) - len(args.defaults):]
                named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
                found.update(f"{module}.{prefix}{child.name}({a.arg})" for a in named)
                visit(child, f"{prefix}{child.name}.")

    visit(tree, "")
    return found


def test_settable_parameters_are_the_listed_ones():
    package = pathlib.Path(cli.__file__).parent
    found = set()
    for path in sorted(package.glob("*.py")):
        found |= _parameters_with_defaults(ast.parse(path.read_text()), path.stem)
    assert found == set(SETTABLE_PARAMETERS)


def _unused_imports(tree):
    """Names a module imports (anywhere in it) and never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_unused_imports_helper_sees_one():
    tree = ast.parse("import os\nfrom a.b import c as d, e\nprint(e)\n")
    assert _unused_imports(tree) == ["d (line 2)", "os (line 1)"]


# imports kept for a reader outside the package: benchmark/test_harness.py
# reads spectra.conjugacy_canonical by name (ROADMAP item 13 drops both)
KEPT_IMPORTS = {"spectra.py": ["conjugacy_canonical"]}


def test_src_modules_use_every_import():
    # `__init__` imports to re-export, so it is left out
    package = pathlib.Path(cli.__file__).parent
    unused = {path.name: _unused_imports(ast.parse(path.read_text()))
              for path in sorted(package.glob("*.py")) if path.name != "__init__.py"}
    unused = {name: [entry for entry in found
                     if entry.split()[0] not in KEPT_IMPORTS.get(name, ())]
              for name, found in unused.items()}
    assert {name: found for name, found in unused.items() if found} == {}
    for name, kept in KEPT_IMPORTS.items():
        assert {entry.split()[0] for entry in _unused_imports(
            ast.parse((package / name).read_text()))} >= set(kept)


def _dead_private_helpers(trees):
    """Private functions and methods (`_name`, not dunders) defined in the
    parsed modules that no node of them references by name or attribute."""
    defined = {}
    referenced = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined[node.name] = f"{module}:{node.lineno}"
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return sorted(f"{name} ({where})" for name, where in defined.items()
                  if name not in referenced)


def test_dead_private_helpers_helper_sees_one():
    tree = ast.parse("def _used():\n    pass\n\ndef _dead():\n    pass\n\n"
                     "class A:\n    def __init__(self):\n        self._m()\n\n"
                     "    def _m(self):\n        _used()\n")
    assert _dead_private_helpers({"m": tree}) == ["_dead (m:4)"]


def test_src_modules_have_no_dead_private_helpers():
    package = pathlib.Path(cli.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    assert _dead_private_helpers(trees) == []


class LabWorkspace:
    """The parts of `cli.Workspace` the samplers read, on the session ball."""

    def __init__(self, lab, p, sl2=None):
        self.p = p
        self.sl2 = lab.sl2 if sl2 is None else sl2
        self.basis = lab.basis[p]
        self.rho_v = lab.rho_v[p]
        self.rho_e = lab.rho_e[p]
        self.presentation = lab.presentation
        self._ball = lab.ball

    def ball(self, radius):
        return self._ball


class CountingRepresentation:
    """SL(2,R) `Representation` stand-in that counts the evaluations of each word."""

    def __init__(self, rep):
        self.rep = rep
        self.calls = Counter()

    @property
    def words(self):
        return set(self.calls)

    def evaluate(self, word):
        self.calls[tuple(word)] += 1
        return self.rep.evaluate(word)


# measured before the sampler pools were rebuilt from the ball's cyclic
# words; any moved bit of a drawn word, separation or margin fails
PINNED_TRANSVERSALITY_SHA256 = {
    2: "102d23cd8c46800bba0da045a1400d7d77740b168812b0a23aa20ab8d5519e79",
    3: "474644e8fcb57ad95dfcda21d8b0169cea8f5ac8a818b2ae112cab04166b1e00",
}
# formula and lower-derivative bits as measured before the finite-difference
# oracle was conditioned; the third, finite-difference entry was re-pinned
# then (0x1.4ccc4ac96818fp-25 = 3.9e-8 under the former eigensolver oracle)
PINNED_DERIVATIVE_WORST = ["0x1.b78966321ee19p-36", "0x0.0p+0", "0x1.c28423967de0dp-38"]
# the same three values at p = 3, seed 404, 200 pairs, measured before the
# tangents were read from the cocycle vectors; the pool is the session
# ball's cyclic words, longer than the CLI's, so the formula error (1.1e-5)
# is above the CLI bound
PINNED_DERIVATIVE_WORST_P3 = ["0x1.6b3c4176d4bedp-17", "0x0.0p+0", "0x1.110839cfcb2adp-32"]


def transversality_digest(rows):
    digest = hashlib.sha256()
    for wa, wb, sep, margin in rows:
        digest.update(f"{format_word(wa)} {format_word(wb)}\n".encode())
        digest.update(np.float64(sep).tobytes() + np.float64(margin).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("p", [2, 3])
def test_transversality_rows_pinned(lab, p):
    rows = sample_transversality(LabWorkspace(lab, p), 50, seed=404, separation=0.2)
    assert len(rows) == 50
    assert transversality_digest(rows) == PINNED_TRANSVERSALITY_SHA256[p]


def test_derivative_check_worst_values_pinned(lab):
    worst = derivative_check(LabWorkspace(lab, 2), 20, seed=404, t=1e-4)
    assert [float(v).hex() for v in worst] == PINNED_DERIVATIVE_WORST
    worst = derivative_check(LabWorkspace(lab, 3), 200, seed=404, t=1e-4)
    assert [float(v).hex() for v in worst] == PINNED_DERIVATIVE_WORST_P3


def test_transversality_evaluates_only_drawn_words(lab):
    # each attempt draws two words; a pool evaluated up front evaluates
    # every hyperbolic cyclic word of the ball (2,944 here)
    sl2 = CountingRepresentation(lab.sl2)
    rows = sample_transversality(LabWorkspace(lab, 2, sl2), 50, seed=404,
                                 separation=0.2)
    assert len(rows) == 50
    assert 0 < len(sl2.words) <= 4 * 50


def reference_transversality_rows(ws, count, seed, separation):
    """The per-row formula: both drawn words evaluated and their eigendata
    and frames built again at every draw, as the sampler once did."""
    rng = np.random.default_rng(seed)
    pool = ws.ball(6.5).cyclic_words()
    q = ws.basis.form_e
    rows = []
    while len(rows) < count:
        wa = pool[rng.integers(0, len(pool))]
        wb = pool[rng.integers(0, len(pool))]
        ma, mb = ws.sl2.evaluate(wa), ws.sl2.evaluate(wb)
        ha, _ = sl2_eigenbasis(ma)
        hb, _ = sl2_eigenbasis(mb)
        x, y, z = ha[:, 0], ha[:, 1], hb[:, 0]
        sep = min(boundary_separation(x, z), boundary_separation(y, z),
                  boundary_separation(x, y))
        if sep < separation:
            continue
        eig_a = eigendata_fuchsian(ws.p, ma, ws.basis)
        eig_b = eigendata_fuchsian(ws.p, mb, ws.basis)
        margin = transversality_margin(
            eig_b.theta, eig_a.line(ws.p), eig_a.line(ws.p - 1),
            eig_a.theta_bar, q,
        )
        rows.append((wa, wb, sep, margin))
    return rows


def test_transversality_rows_match_the_per_row_formula(lab):
    ws = LabWorkspace(lab, 3)
    rows = sample_transversality(ws, 2000, seed=11, separation=0.2)
    expected = reference_transversality_rows(ws, 2000, seed=11, separation=0.2)
    assert [r[:2] for r in rows] == [r[:2] for r in expected]
    assert (np.array([r[2:] for r in rows]).tobytes()
            == np.array([r[2:] for r in expected]).tobytes())


def test_transversality_builds_each_word_once(lab, monkeypatch):
    # a word drawn again reuses its eigenbasis, eigendata and frames
    built = Counter()

    def counting_eigendata(p, m, basis):
        built[m.tobytes()] += 1
        return eigendata_fuchsian(p, m, basis)

    monkeypatch.setattr(cli, "eigendata_fuchsian", counting_eigendata)
    sl2 = CountingRepresentation(lab.sl2)
    rows = sample_transversality(LabWorkspace(lab, 2, sl2), 1000, seed=404,
                                 separation=0.2)
    assert len(rows) == 1000
    assert max(sl2.calls.values()) == 1
    assert max(built.values()) == 1


def test_transversality_stops_at_the_draw_cap(lab, monkeypatch):
    # |sin| ≤ 1, so no triple clears a floor of 1.01: the sampler raises
    # after exactly 100·count attempts, two drawn words each
    drawn = []
    default_rng = np.random.default_rng

    class CountingGenerator:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def integers(self, low, high, size=None):
            values = self.rng.integers(low, high, size=size)
            drawn.append(np.size(values))
            return values

    monkeypatch.setattr(np.random, "default_rng", CountingGenerator)
    with pytest.raises(NumericalFailure, match="could not sample separated triples"):
        sample_transversality(LabWorkspace(lab, 2), 7, seed=404, separation=1.01)
    assert sum(drawn) == 2 * 100 * 7


@pytest.mark.parametrize("p", [2, 3, 4])
def test_stacked_derivative_pairs_match_the_per_pair_oracle(p):
    # the pairs' cocycles come from one stacked `element`, their tangents
    # from one stacked `extend_cocycle` per word and their derivatives from
    # one stacked `eigenvalue_derivative` per word; every bit is the one
    # the pair gets alone
    ws = cli.Workspace(dict(cli.DEFAULTS, p=p, seed=5))
    words, vectors, free_words = cli.draw_derivative_pairs(ws, 300, seed=5)
    expected = derivative_pairs_per_pair(ws, 300, 5, cli.FREE_LETTERS)
    assert (words, free_words) == (expected[0], expected[2])
    assert vectors.tobytes() == expected[1].tobytes()
    # a one-row `element`, as `random_cocycle` calls it
    basis = solve_cocycle_space(ws.rho_v, ws.presentation)
    coefficients = np.random.default_rng(5).standard_normal(basis.dimension)
    assert basis.element(coefficients).tobytes() == np.tensordot(
        coefficients, basis.vectors, axes=(0, 0)).tobytes()
    eig = {w: eigendata_fuchsian(p, ws.sl2.evaluate(w), ws.basis)
           for w in dict.fromkeys(words)}
    lam_dot = np.zeros((len(words), p))
    for word in dict.fromkeys(words):
        indices = [i for i, w in enumerate(words) if w == word]
        values = Cocycle(vectors[indices], rho=ws.rho_v).value(word)
        assert values.tobytes() == np.array(
            [extend_cocycle_per_row(vectors[i], word, ws.rho_v) for i in indices]).tobytes()
        lam_dot[indices], _ = eigenvalue_derivative(
            eig[word], Cocycle(vectors[indices], rho=ws.rho_v).tangent(word))
        # one tangent alone is the stack of one
        alone, _ = eigenvalue_derivative(
            eig[word], Cocycle(vectors[indices[0]], rho=ws.rho_v).tangent(word))
        assert alone.tobytes() == lam_dot[indices[0]].tobytes()
    assert lam_dot.tobytes() == formula_route_per_pair(ws, words, vectors, eig).tobytes()


# the worst finite-difference pairs of seeds 1 and 19 at p = 3, count 4000,
# under the former single-pair eigensolver oracle (relative errors 1.05e-3
# and 1.1e-4 against the 1e-4 bound)
WORST_FD_PAIRS = [(1, 3253, (-1, 2)), (19, 2096, (1, 2, -1, -2))]


@pytest.mark.parametrize("seed, index, free_word", WORST_FD_PAIRS)
def test_middle_eigenvalue_matches_50_digit_eigenvalues(seed, index, free_word):
    import mpmath

    ws = cli.Workspace(dict(cli.DEFAULTS, p=3, seed=seed))
    _, vectors, free_words = cli.draw_derivative_pairs(ws, index + 1, seed)
    assert free_words[index] == free_word
    pair = eigendata_fuchsian(3, ws.sl2.evaluate(free_word), ws.basis).vectors[:, 2:4]
    reference = mpmath.matrix(pair[:, 0].tolist())
    with mpmath.workdps(50):
        for s in (1e-4, -1e-4, 5e-5, -5e-5):
            fin = FiniteDeformation(ws.rho_e, vectors[index:index + 1],
                                    cli.FREE_LETTERS, s)
            mu = fin.middle_eigenvalue(free_word, pair)[0]
            # the same double factors, multiplied and solved at 50 digits;
            # the middle eigenvalue is the one whose eigenvector is nearest
            # the reference line
            product = mpmath.eye(6)
            for letter in free_word:
                product = product * mpmath.matrix(fin.evaluate((letter,))[0].tolist())
            values, vectors_mp = mpmath.eig(product)
            cosines = [abs(mpmath.fdot(reference, vectors_mp[:, k]))
                       / mpmath.norm(vectors_mp[:, k]) for k in range(6)]
            exact = values[max(range(6), key=lambda k: cosines[k])]
            assert abs(mpmath.im(exact)) < 1e-40
            assert abs(mpmath.re(exact) - 1) < 1e-6
            # within the rounding of μ itself (one ulp of 1 is 2.2e-16)
            assert abs(mu - mpmath.re(exact)) <= 2.3e-16


@pytest.mark.parametrize("seed", [1, 19])
def test_derivative_check_p3_count_4000_passes(seed):
    ws = cli.Workspace(dict(cli.DEFAULTS, p=3, seed=seed))
    worst_formula, worst_lower, worst_fd = derivative_check(ws, 4000, seed, t=1e-4)
    assert worst_formula <= 1e-6
    assert worst_lower <= 1e-8
    assert worst_fd <= 1e-4
