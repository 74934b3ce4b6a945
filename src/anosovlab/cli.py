"""Command-line front end: reproducible experiment drivers.

Subcommands
-----------
check-rep       construction report: relator residuals, signatures, basis
spectrum        per-class CSV (lengths, eigenvalues, Margulis invariant)
entropy         growth-rate estimates (slope + critical exponent), JSON
margulis        Bowen-Margulis averages JSON (per-class alpha: spectrum)
transversality  margins over sampled boundary triples, CSV + summary
deriv-check     eigenvalue-derivative identity, two independent routes
scan            entropy of perturbed length functionals over an s-grid

Configuration comes from --config JSON plus flag overrides; every run with
randomness requires a seed, and identical config + seed produces
byte-identical outputs. Outputs are byte-identical at any BLAS thread
count; cap threads with OPENBLAS_NUM_THREADS / OMP_NUM_THREADS set before
the process starts. Outputs are written atomically (temp file + rename)
with 17 significant digits. Exit codes: 0 success, 1 invalid input (a
bad flag or config key, or the library's `InputError`), 2 numerical
failure; errors emit machine-readable JSON on stderr. Any other
exception is a bug and propagates.
"""

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .affine_deform import (
    Cocycle,
    FiniteDeformation,
    coboundary,
    eigenvalue_derivative,
    margulis_invariants,
    ping_pong_certificate,
)
from .flag_geometry import frame_margin, fxy_frame, theta_frame
from .fuchsian import enumerate_ball, octagon_group, sl2_eigenbasis
from .linalg import InputError, NumericalFailure, float17, signature
from .principal_rep import (
    Representation,
    alpha_matrix,
    eigendata_fuchsian,
    embedded_representation,
    principal_basis,
    sym_representation,
    word_form_residual,
)
from .spectra import (
    bm_average,
    critical_exponent,
    entropy_estimate,
    length_spectrum,
    multi_alphas,
    perturbed_entropy_scan,
    rms_alpha_rate,
    spectrum_with_alpha,
)
from .surface_group import (
    GENERATOR_LABELS,
    format_word,
    solve_cocycle_space,
)


class ConfigError(ValueError):
    pass


# samples per stacked evaluation; bounds the samplers' working memory
CHUNK = 512
# the free pair of deriv-check's finite-difference route
FREE_LETTERS = (1, 2)
# deriv-check's finite-difference step t, scan's deformation parameters s
# and transversality's floor on the separation of a triple's points
FD_STEP = 1e-4
S_GRID = (-0.05, 0.0, 0.05)
SEPARATION = 0.2
# the class spectra read classes of length ≤ radius from a ball this much
# wider, and check-rep passes when its residuals are at most CHECK_REP_TOL
SPECTRUM_MARGIN = 3.0
CHECK_REP_TOL = 1e-9
# the line ending of `csv.writer`, which the CSV outputs keep
CSV_EOL = csv.excel.lineterminator


DEFAULTS = {
    "p": 2,
    "radius": 8.0,
    "window": None,       # defaults to [radius - 4, radius]
    "seed": None,
    "count": 1000,
    "source": "elements",
    "out": "out",
    "cocycle": None,
    "project": False,
}


def load_config(args):
    config = dict(DEFAULTS)
    if args.config:
        try:
            with open(args.config) as handle:
                loaded = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(loaded) - set(DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        config.update(loaded)
    for key in ("p", "radius", "seed", "out"):
        value = getattr(args, key)
        if value is not None:
            config[key] = value
    _validate(config)
    return config


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integer(value):
    return _is_number(value) and (isinstance(value, int) or value.is_integer())


def _validate(config):
    if config["p"] not in (2, 3, 4):
        raise ConfigError("p must be one of 2, 3, 4")
    if not _is_number(config["radius"]):
        raise ConfigError("radius must be a number")
    if not 0 < config["radius"] <= 16:
        raise ConfigError("radius must lie in (0, 16]")
    if config["window"] is not None:
        window = config["window"]
        if not (isinstance(window, (list, tuple)) and len(window) == 2
                and all(_is_number(end) for end in window)):
            raise ConfigError("window must be a list of two numbers [T0, T1]")
        t0, t1 = window
        if not (0 < t0 < t1):
            raise ConfigError("window must satisfy 0 < T0 < T1")
        if t1 > config["radius"]:
            raise ConfigError(f"window [{t0}, {t1}] ends beyond radius {config['radius']}")
    if config["seed"] is not None and not _is_integer(config["seed"]):
        raise ConfigError("seed must be an integer")
    if not isinstance(config["out"], str):
        raise ConfigError("out must be a directory path")
    if config["source"] not in ("elements", "classes"):
        raise ConfigError("source must be 'elements' or 'classes'")
    if not _is_integer(config["count"]):
        raise ConfigError("count must be an integer")
    if config["count"] < 1:
        raise ConfigError("count must be positive")


def need_seed(config, why):
    if config["seed"] is None:
        raise ConfigError(f"a seed is required for {why}")
    return int(config["seed"])


class Workspace:
    """Group, representations and on-demand orbit balls for one run."""

    def __init__(self, config):
        self.config = config
        self.p = int(config["p"])
        self.presentation, sl2_gens = octagon_group()
        self.sl2 = Representation(sl2_gens, labels=GENERATOR_LABELS)
        self.basis = principal_basis(self.p)
        self.rho_v = sym_representation(self.p, self.sl2)
        self.rho_e = embedded_representation(self.p, self.sl2)

    def ball(self, radius=None):
        radius = self.config["radius"] if radius is None else radius
        return enumerate_ball(self.sl2.generators, radius,
                              presentation=self.presentation)

    def spectrum(self, omega=None):
        """Class spectrum at the configured radius from a ball
        SPECTRUM_MARGIN beyond it; with a cocycle, its α column attached."""
        radius = self.config["radius"]
        ball = self.ball(radius + SPECTRUM_MARGIN)
        spec = length_spectrum(self.rho_v, ball, self.basis, radius=radius)
        if omega is None:
            return spec
        return spectrum_with_alpha(
            spec, multi_alphas(spec, self.rho_v, self.basis, [omega])[:, 0])

    def window(self):
        if self.config["window"] is not None:
            t0, t1 = self.config["window"]
            return float(t0), float(t1)
        radius = self.config["radius"]
        return max(2.0, radius - 4.0), radius

    def cocycle(self):
        spec = self.config["cocycle"]
        if spec is None:
            raise ConfigError("this subcommand needs a cocycle")
        dim = self.rho_v.dim
        if isinstance(spec, dict) and "coboundary" in spec:
            vector = np.asarray(spec["coboundary"], float)
            if vector.shape != (dim,):
                raise ConfigError(f"coboundary vector must have length {dim}")
            return coboundary(self.rho_v, vector)
        if spec == "random":
            seed = need_seed(self.config, "a random cocycle")
            return random_cocycle(self.rho_v, self.presentation, seed)
        if isinstance(spec, dict):
            missing = [lab for lab in GENERATOR_LABELS if lab not in spec]
            if missing:
                raise ConfigError(f"cocycle missing generators: {missing}")
            vectors = np.array([np.asarray(spec[lab], float) for lab in GENERATOR_LABELS])
            if vectors.shape != (4, dim):
                raise ConfigError(f"cocycle vectors must have length {dim}")
            if self.config["project"]:
                basis = solve_cocycle_space(self.rho_v, self.presentation)
                flat = vectors.reshape(-1)
                rows = basis.vectors.reshape(basis.dimension, -1)
                coeffs, *_ = np.linalg.lstsq(rows.T, flat, rcond=None)
                vectors = basis.element(coeffs)
            omega = Cocycle(vectors=vectors, rho=self.rho_v)
            residual = omega.relator_residual(self.presentation)
            if residual > 1e-8:
                raise ConfigError(
                    f"cocycle violates the relator constraint ({residual:.2e}); "
                    "set \"project\": true to project it"
                )
            return omega
        raise ConfigError("unrecognized cocycle specification")


def random_cocycle(rho_v, presentation, seed):
    """Seeded random relator-compatible cocycle, RMS-normalized."""
    basis = solve_cocycle_space(rho_v, presentation)
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(basis.dimension)
    vectors = basis.element(coeffs)
    vectors = vectors / np.sqrt(np.mean(vectors**2))
    return Cocycle(vectors=vectors, rho=rho_v)


def atomic_write(path, data):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as handle:
        handle.write(data)
    os.replace(tmp, path)


def write_json(path, payload):
    atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def run_check_rep(ws, out_dir):
    config = ws.config
    p = ws.p
    report = {
        "p": p,
        "relator_residual_sl2": float17(ws.sl2.relator_residual(ws.presentation)),
        "relator_residual_v": float17(ws.rho_v.relator_residual(ws.presentation)),
        "relator_residual_e": float17(ws.rho_e.relator_residual(ws.presentation)),
        "signature_v": list(signature(ws.basis.form_v.matrix)),
        "signature_e": list(signature(ws.basis.form_e.matrix)),
    }
    seed = need_seed(config, "random word sampling")
    rng = np.random.default_rng(seed)
    worst_v = worst_e = 0.0
    letters = np.array([1, -1, 2, -2, 3, -3, 4, -4])
    for _ in range(1000):
        length = int(rng.integers(1, 9))
        word = tuple(int(l) for l in rng.choice(letters, size=length))
        worst_v = max(worst_v, word_form_residual(ws.rho_v, word))
        worst_e = max(worst_e, word_form_residual(ws.rho_e, word))
    report["form_residual_v"] = float17(worst_v)
    report["form_residual_e"] = float17(worst_e)
    for z in (0.5, 1.0, 2.0):
        al = alpha_matrix(ws.basis, z)
        below = float(np.abs(np.tril(al, -1)).max())
        on_above = float(np.abs(al[np.triu_indices(al.shape[0])]).min())
        report[f"alpha_below_max_z{z}"] = float17(below)
        report[f"alpha_onabove_min_z{z}"] = float17(on_above)
    report["generator_traces"] = [
        float17(abs(float(np.trace(ws.sl2.generator(g))))) for g in range(1, 5)
    ]
    write_json(os.path.join(out_dir, "check_rep.json"), report)
    passed = (
        float(report["relator_residual_sl2"]) <= CHECK_REP_TOL
        and tuple(report["signature_v"]) == (p, p - 1)
        and tuple(report["signature_e"]) == (p, p)
        and worst_v <= CHECK_REP_TOL
        and worst_e <= CHECK_REP_TOL
    )
    if not passed:
        raise NumericalFailure("check-rep report failed its thresholds")
    return 0


def spectrum_csv(spectrum):
    """The spectrum as CSV text, one row per class: the bytes `csv.writer`
    writes for these rows (no field needs quoting), joined at once."""
    header = ["word", "word_length", "trace", "ell_hyp", "ell_lastroot", "alpha"]
    header += [f"lambda_{i}" for i in range(1, spectrum.p + 1)]
    rows = [",".join(header) + CSV_EOL]
    columns = (spectrum.traces, spectrum.length_hyp, spectrum.length_lastroot,
               spectrum.alphas, spectrum.lambdas)
    for word, trace, hyp, lastroot, alpha, lambdas in zip(
            spectrum.words, *(column.tolist() for column in columns)):
        alpha = "" if math.isnan(alpha) else f"{alpha:.17g}"
        rows.append(f"{format_word(word)},{len(word)},{trace:.17g},{hyp:.17g},"
                    f"{lastroot:.17g},{alpha}"
                    + "".join(f",{v:.17g}" for v in lambdas) + CSV_EOL)
    return "".join(rows)


def run_spectrum(ws, out_dir):
    omega = ws.cocycle() if ws.config["cocycle"] is not None else None
    spec = ws.spectrum(omega)
    atomic_write(os.path.join(out_dir, "spectrum.csv"), spectrum_csv(spec))
    write_json(os.path.join(out_dir, "spectrum_meta.json"), {
        "p": ws.p,
        "radius": float17(spec.radius),
        "ball_radius": float17(spec.ball_radius),
        "classes": len(spec),
        "dropped": spec.dropped,
        "margulis_convention": "alpha(g) = Q(omega_g, x_g); middle eigenvalue "
                               "moves at alpha/2 per unit deformation",
    })
    if spec.dropped:
        raise NumericalFailure(f"{spec.dropped} classes dropped")
    return 0


def run_entropy(ws, out_dir):
    window = ws.window()
    if ws.config["source"] == "elements":
        ball = ws.ball()
        values = ball.distances
        _write_count_summary(ball, out_dir)
    else:
        values = ws.spectrum().lengths()
    slope = entropy_estimate(values, window)
    crit = critical_exponent(values, window)
    payload = {
        "source": ws.config["source"],
        "window": [float17(window[0]), float17(window[1])],
        "estimate": float17(slope.estimate),
        "residual": float17(slope.residual),
        "count": slope.count,
        "critical_exponent": float17(crit.estimate),
        "counting_constant_note": "N(T) grows like e^T/4 for this group",
    }
    write_json(os.path.join(out_dir, "entropy.json"), payload)
    return 0


def _write_count_summary(ball, out_dir):
    """Counting-function stream: columns T, N(T), log N(T)/T. The identity
    lies at distance 0, so N(T) >= 1 at every grid point T >= 1."""
    rows = ["T,N,log_N_over_T" + CSV_EOL]
    for t in np.arange(1.0, ball.radius + 1e-9, 0.5).tolist():
        n = ball.count(t)
        rows.append(f"{t:.17g},{n},{math.log(n) / t:.17g}{CSV_EOL}")
    atomic_write(os.path.join(out_dir, "entropy_counts.csv"), "".join(rows))


def run_margulis(ws, out_dir):
    omega = ws.cocycle()
    spec = ws.spectrum(omega)
    window = ws.window()
    payload = {
        "window": [float17(window[0]), float17(window[1])],
        "bm_average": float17(bm_average(spec, window)),
        "bm_average_weighted": float17(bm_average(spec, window, weighted=True)),
        "rms_alpha_rate": float17(rms_alpha_rate(spec, window)),
        "classes": len(spec),
        "normalization": "orbit sums of alpha over unweighted closed orbits "
                         "in the window, divided by total length",
    }
    write_json(os.path.join(out_dir, "margulis.json"), payload)
    return 0


def sample_transversality(ws, count, seed, separation):
    """Margins over sampled fixed-point triples at the Fuchsian point.

    Triples are boundary points of cyclically reduced ball elements
    (conjugated words carry ill-conditioned eigenbases), subject to a
    pairwise separation floor: coinciding points are degenerate triples
    and are rejected by the precondition. The pool is the sorted set of
    the ball's hyperbolic cyclic words (`BallEnumeration.cyclic_words`).

    Whether a draw is kept depends only on the two drawn words, so the
    draws come first. They are made in blocks of count - kept (x and y
    word, z word) index pairs, at most CHUNK, one `rng.integers` call per
    block, which is the stream of one draw at a time; a block can keep at
    most what is still missing, so no draw falls past the stopping point,
    and at most 100·count pairs are drawn. The words a block draws for
    the first time get their matrices and one stacked `sl2_eigenbasis`,
    with the norms of the eigenbasis columns; the block's separations
    (`boundary_separation` of the words' columns) are array arithmetic.
    Each drawn word is then evaluated once, with one `eigendata_fuchsian`
    and the frame its role needs (Θ(z) for z, F(x,y) for x, y); a row
    costs one 2p x 2p determinant (`frame_margin`, the last step of
    `transversality_margin`).
    """
    rng = np.random.default_rng(seed)
    pool = ws.ball(6.5).cyclic_words()
    if len(pool) < 4:
        raise NumericalFailure("element pool too small for triple sampling")
    # per pool word, once drawn: its matrix, the columns x, y of its
    # eigenbasis as rows (x0, x1), (y0, y1), and their norms
    matrices = np.zeros((len(pool), 2, 2))
    columns = np.zeros((len(pool), 2, 2))
    norms = np.zeros((len(pool), 2))
    known = np.zeros(len(pool), dtype=bool)
    # the kept (x and y word, z word) pool indices and separations
    pairs = np.zeros((count, 2), dtype=np.int64)
    seps = np.zeros(count)
    kept = attempts = 0
    while kept < count:
        block = min(count - kept, CHUNK, 100 * count - attempts)
        if block == 0:
            raise NumericalFailure("could not sample separated triples")
        attempts += block
        drawn = rng.integers(0, len(pool), size=(block, 2))
        # the sorted distinct indices of np.unique, which imports numpy.ma
        new = np.flatnonzero(np.bincount(drawn[~known[drawn]]))
        if len(new):
            matrices[new] = [ws.sl2.evaluate(pool[i]) for i in new.tolist()]
            columns[new] = sl2_eigenbasis(matrices[new])[0].transpose(0, 2, 1)
            c = columns[new]
            norms[new] = np.sqrt(c[..., None, :] @ c[..., :, None])[..., 0, 0]
            known[new] = True
        (x, y), (nx, ny) = columns[drawn[:, 0]].transpose(1, 2, 0), norms[drawn[:, 0]].T
        z, nz = columns[drawn[:, 1], 0].T, norms[drawn[:, 1], 0]
        sep = np.minimum(np.minimum(np.abs(x[0] * z[1] - x[1] * z[0]) / (nx * nz),
                                    np.abs(y[0] * z[1] - y[1] * z[0]) / (ny * nz)),
                         np.abs(x[0] * y[1] - x[1] * y[0]) / (nx * ny))
        accepted = sep >= separation
        added = int(accepted.sum())
        pairs[kept:kept + added] = drawn[accepted]
        seps[kept:kept + added] = sep[accepted]
        kept += added
    eig = {i: eigendata_fuchsian(ws.p, matrices[i], ws.basis)
           for i in np.flatnonzero(np.bincount(pairs.reshape(-1))).tolist()}
    thetas = {i: theta_frame(eig[i].theta)
              for i in np.flatnonzero(np.bincount(pairs[:, 1])).tolist()}
    fxys = {i: fxy_frame(eig[i].line(ws.p), eig[i].line(ws.p - 1),
                         eig[i].theta_bar, ws.basis.form_e)
            for i in np.flatnonzero(np.bincount(pairs[:, 0])).tolist()}
    rows = []
    for start in range(0, count, CHUNK):
        a, b = pairs[start:start + CHUNK].T.tolist()
        margins = frame_margin(np.array([thetas[i] for i in b]),
                               np.array([fxys[i] for i in a]))
        rows += zip([pool[i] for i in a], [pool[i] for i in b],
                    seps[start:start + CHUNK].tolist(), margins.tolist())
    return rows


def transversality_csv(rows):
    """The sampled triples as CSV text, one row each: the bytes `csv.writer`
    writes for these rows (no field needs quoting), joined at once."""
    names = {w: format_word(w) for w in dict.fromkeys(w for row in rows for w in row[:2])}
    lines = ["word_xy,word_z,separation,margin" + CSV_EOL]
    lines += [f"{names[wa]},{names[wb]},{sep:.17g},{margin:.17g}{CSV_EOL}"
              for wa, wb, sep, margin in rows]
    return "".join(lines)


def run_transversality(ws, out_dir):
    seed = need_seed(ws.config, "triple sampling")
    rows = sample_transversality(ws, int(ws.config["count"]), seed, SEPARATION)
    atomic_write(os.path.join(out_dir, "transversality.csv"), transversality_csv(rows))
    margins = np.sort([r[3] for r in rows])
    # np.median's mean of the middle one or two values, without its numpy.ma import
    middle = margins[(len(margins) - 1) // 2:len(margins) // 2 + 1]
    write_json(os.path.join(out_dir, "transversality.json"), {
        "count": len(rows),
        "separation_floor": float17(SEPARATION),
        "min_margin": float17(float(margins.min())),
        "median_margin": float17(float(np.mean(middle))),
    })
    return 0


def derivative_check(ws, n_pairs, seed, t):
    """Two-route eigenvalue-derivative comparison over random pairs.

    Both routes are conjugation invariant, so classes are represented by
    cyclically reduced words (well-conditioned eigenbases): the pool is the
    sorted set of the ball's hyperbolic cyclic words
    (`BallEnumeration.cyclic_words`), and only drawn words are evaluated.

    Each pair draws a word, a cocycle (normal coefficients in the cocycle
    space) and a word in the free pair FREE_LETTERS, in that order; all
    draws come first (`draw_derivative_pairs`). Then `eigendata_fuchsian`
    runs once per word, and per drawn word α, the tangents (one stacked
    `Cocycle.tangent`) and the formula route (one stacked
    `eigenvalue_derivative`) are evaluated for all cocycles drawn with it;
    each pair gets the bits it gets alone. The finite-difference route runs
    `FiniteDeformation.middle_eigenvalue` on stacks of pairs that share a
    free word, CHUNK at a time, at s = ±t and ±t/2, and extrapolates the
    central differences D(s) = (μ(s) - μ(-s)) / 2s to (4·D(t/2) - D(t))/3,
    which cancels their t² truncation term.

    Returns the worst relative error of the formula against α/2, the
    worst absolute lower derivative and the worst relative error of the
    finite difference against α/2 (pairs with |α| > 1e-9 and 1e-6).
    """
    words, vectors, free_words = draw_derivative_pairs(ws, n_pairs, seed)
    alphas = _alphas_by_word(ws, words, vectors)
    eig = {w: eigendata_fuchsian(ws.p, ws.sl2.evaluate(w), ws.basis)
           for w in dict.fromkeys(words + free_words)}
    worst_formula = 0.0
    worst_lower = 0.0
    for word, indices in _indices_by_word(words).items():
        rho_dots = Cocycle(vectors[indices], rho=ws.rho_v).tangent(word)
        lam_dot, _ = eigenvalue_derivative(eig[word], rho_dots)
        half_alpha = 0.5 * alphas[indices]
        kept = np.abs(alphas[indices]) > 1e-9
        worst_formula = float(np.max(
            np.abs(lam_dot[kept, -1] - half_alpha[kept]) / np.abs(half_alpha[kept]),
            initial=worst_formula))
        worst_lower = float(np.abs(lam_dot[:, :-1]).max(initial=worst_lower))
    worst_fd = 0.0
    alphas_free = _alphas_by_word(ws, free_words, vectors)
    for wfree, indices in _indices_by_word(free_words).items():
        pair = eig[wfree].vectors[:, ws.p - 1:ws.p + 1]
        for start in range(0, len(indices), CHUNK):
            chunk = indices[start:start + CHUNK]
            mu = {s: FiniteDeformation(ws.rho_e, vectors[chunk], FREE_LETTERS,
                                       s).middle_eigenvalue(wfree, pair)
                  for s in (t, -t, t / 2, -t / 2)}
            coarse = (mu[t] - mu[-t]) / (2 * t)
            fine = (mu[t / 2] - mu[-t / 2]) / t
            fd = (4 * fine - coarse) / 3
            alpha_f = alphas_free[chunk]
            kept = np.abs(alpha_f) > 1e-6
            if kept.any():
                half_alpha = 0.5 * alpha_f[kept]
                worst_fd = max(worst_fd, float(np.max(
                    np.abs(fd[kept] - half_alpha) / np.abs(half_alpha))))
    return worst_formula, worst_lower, worst_fd


def draw_derivative_pairs(ws, n_pairs, seed):
    """The draws of `derivative_check`, pair by pair: a word of the pool,
    normal coefficients of a cocycle, and a word in the letters
    FREE_LETTERS (none when the pool has no such word).

    Returns (words, vectors, free_words), `vectors` holding the cocycles'
    generator vectors as one (n_pairs, generators, dim) array, mapped from
    the stacked coefficients by one `CocycleBasis.element`; per-pair
    objects are built where they are used, which keeps the working memory
    small.
    """
    rng = np.random.default_rng(seed)
    pool = ws.ball(6.0).cyclic_words()
    basis = solve_cocycle_space(ws.rho_v, ws.presentation)
    free_pool = [w for w in pool if all(abs(l) in FREE_LETTERS for l in w)]
    words, coefficients, free_words = [], [], []
    for _ in range(n_pairs):
        words.append(pool[rng.integers(0, len(pool))])
        coefficients.append(rng.standard_normal(basis.dimension))
        if free_pool:
            free_words.append(free_pool[rng.integers(0, len(free_pool))])
    return words, basis.element(np.array(coefficients)), free_words


def _indices_by_word(words):
    """The indices of each distinct word of `words`, in first-draw order."""
    by_word = {}
    for index, word in enumerate(words):
        by_word.setdefault(word, []).append(index)
    return by_word


def _alphas_by_word(ws, words, vectors):
    """α of pair i's cocycle (`vectors[i]`) at words[i], batched per word
    over the pairs that drew it, as one stacked Cocycle."""
    alphas = np.zeros(len(words))
    for word, indices in _indices_by_word(words).items():
        alphas[indices] = margulis_invariants(
            ws.rho_v, Cocycle(vectors[indices], rho=ws.rho_v), word, ws.basis)
    return alphas


def run_deriv_check(ws, out_dir):
    seed = need_seed(ws.config, "derivative sampling")
    ok, sep = ping_pong_certificate(ws.sl2, FREE_LETTERS)
    if not ok:
        raise NumericalFailure("free pair failed the ping-pong certificate")
    worst_formula, worst_lower, worst_fd = derivative_check(
        ws, int(ws.config["count"]), seed, FD_STEP
    )
    write_json(os.path.join(out_dir, "deriv_check.json"), {
        "pairs": int(ws.config["count"]),
        "t": float17(FD_STEP),
        "pingpong_separation": float17(sep),
        "max_rel_err_formula_vs_half_alpha": float17(worst_formula),
        "max_abs_lower_derivatives": float17(worst_lower),
        "max_rel_err_fd_vs_half_alpha": float17(worst_fd),
    })
    if worst_formula > 1e-6 or worst_lower > 1e-8 or worst_fd > 1e-4:
        raise NumericalFailure("derivative identity failed its thresholds")
    return 0


def run_scan(ws, out_dir):
    omega = ws.cocycle()
    spec = ws.spectrum(omega)
    window = ws.window()
    scan = perturbed_entropy_scan(spec, S_GRID, window)
    rows = ["s,estimate,residual,count" + CSV_EOL]
    rows += [f"{s:.17g},{est.estimate:.17g},{est.residual:.17g},{est.count}{CSV_EOL}"
             for s, est in scan.table]
    atomic_write(os.path.join(out_dir, "scan.csv"), "".join(rows))
    half_alpha_avg = 0.5 * bm_average(spec, window)
    residual = dict(scan.table)[0.0].residual
    write_json(os.path.join(out_dir, "scan.json"), {
        "window": [float17(window[0]), float17(window[1])],
        "central_slope": float17(scan.central_slope),
        "base_estimate": float17(scan.base_estimate),
        "bm_average_half_alpha": float17(half_alpha_avg),
        "consistency_residual": float17(scan.consistency_residual(half_alpha_avg)),
        "fit_residual": float17(residual),
    })
    return 0


COMMANDS = {
    "check-rep": run_check_rep,
    "spectrum": run_spectrum,
    "entropy": run_entropy,
    "margulis": run_margulis,
    "transversality": run_transversality,
    "deriv-check": run_deriv_check,
    "scan": run_scan,
}


class UsageParser(argparse.ArgumentParser):
    """Argument parser whose usage errors are config errors (exit 1), not
    argparse's exit 2, which this CLI keeps for numerical failure."""

    def error(self, message):
        raise ConfigError(message)


def build_parser():
    parser = UsageParser(
        prog="anosovlab",
        description="Numerical laboratory for surface-group representations "
                    "into SO(p,p-1) and their affine deformations.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", help="JSON configuration file")
        cmd.add_argument("--p", type=int, default=None)
        cmd.add_argument("--radius", type=float, default=None)
        cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument("--out", default=None)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        config = load_config(args)
        workspace = Workspace(config)
        out_dir = config["out"]
        os.makedirs(out_dir, exist_ok=True)
        return COMMANDS[args.command](workspace, out_dir)
    except (NumericalFailure, MemoryError, np.linalg.LinAlgError) as exc:
        print(json.dumps({"type": "numerical", "error": str(exc)}), file=sys.stderr)
        return 2
    # invalid input only: any other ValueError is a bug and propagates
    except (ConfigError, InputError) as exc:
        print(json.dumps({"type": "config", "error": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
