import hashlib
import json
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from anosovlab import cli
from anosovlab.affine_deform import Cocycle, FiniteDeformation, deformation_direction
from anosovlab.cli import derivative_check, main, sample_transversality
from anosovlab.flag_geometry import transversality_margin
from anosovlab.fuchsian import boundary_separation, sl2_eigenbasis
from anosovlab.principal_rep import eigendata_fuchsian
from anosovlab.surface_group import format_word

from conftest import THREAD_SETTINGS, package_env, run_cli_process


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
    csv_text = (out / "margulis.csv").read_text()
    assert csv_text.splitlines()[0].startswith("word,word_length,trace")


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


def test_invalid_config_rejected(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "entropy", {"p": 7})
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "config"

    code, _ = run_cli(tmp_path, "entropy", {"radius": -1.0})
    assert code == 1

    code, _ = run_cli(tmp_path, "entropy", {"bogus_key": 1})
    assert code == 1

    # the group is always the genus-2 octagon group; there is no such key
    code, _ = run_cli(tmp_path, "entropy", {"group": "genus2-octagon"})
    assert code == 1

    # a random cocycle is spelled "random"; a dict is read as its vectors
    capsys.readouterr()
    code, _ = run_cli(tmp_path, "margulis", {"seed": 3, "cocycle": {"random": True}})
    assert code == 1
    assert "cocycle missing generators" in json.loads(capsys.readouterr().err)["error"]


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
    pool = sorted({w for w, _ in ws.ball(6.5).cyclic_words()})
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
    direction = deformation_direction(Cocycle(vectors[index], rho=ws.rho_v), ws.basis)
    pair = eigendata_fuchsian(3, ws.sl2.evaluate(free_word), ws.basis).vectors[:, 2:4]
    reference = mpmath.matrix(pair[:, 0].tolist())
    with mpmath.workdps(50):
        for s in (1e-4, -1e-4, 5e-5, -5e-5):
            fin = FiniteDeformation(ws.rho_e, [direction], cli.FREE_LETTERS, s)
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
