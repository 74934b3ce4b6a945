"""Acceptance suite: one test per criterion, at the stated tolerances.

The heavy inputs (orbit ball of radius 15, class spectrum at radius 12,
five seeded cocycles) are built once per session. Each criterion prints
one PASS line when it holds; tolerances are pinned here, not calibrated
elsewhere.
"""

import json

import numpy as np
import pytest

from anosovlab import cli
from anosovlab.linalg import signature
from anosovlab.affine_deform import (
    Cocycle,
    FiniteDeformation,
    coboundary,
    eigenvalue_derivative,
    margulis_invariant,
    ping_pong_certificate,
)
from anosovlab.flag_geometry import (
    PairedTuple,
    alpha_system,
    flag_from_tuple,
    form_from_plane,
    is_isotropic,
    plane_from_form,
    tuple_from_flags,
)
from anosovlab.principal_rep import (
    alpha_matrix,
    eigendata_fuchsian,
    embedded_representation,
    form_on_e,
    invariant_form,
    principal_basis,
    sym_power_rep,
)
from anosovlab.spectra import (
    LengthFunctional,
    anosov_gap_report,
    bm_average,
    critical_exponent,
    entropy_estimate,
    length_spectrum,
    multi_alphas,
    perturbed_entropy_scan,
    rms_alpha_rate,
    spectrum_with_alpha,
)
from anosovlab.surface_group import inverse_word

from conftest import THREAD_SETTINGS, Lab, run_cli_process
from oracles import ball_words, random_form_isometry, span_distance, tuples_match

RADIUS = 12.0
BALL_RADIUS = 15.0
WINDOW = (8.0, 12.0)
SEEDS = (1, 2, 3, 4, 5)


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS  ({detail})")


@pytest.fixture(scope="session")
def big():
    lab = Lab(radius=BALL_RADIUS)
    spectrum = length_spectrum(lab.rho_v[2], lab.ball, lab.basis[2], radius=RADIUS)
    omegas = [lab.random_cocycle(2, seed) for seed in SEEDS]
    alphas = multi_alphas(spectrum, lab.rho_v[2], lab.basis[2], omegas)
    return lab, spectrum, omegas, alphas


def random_words(rng, count, max_len=8):
    letters = np.array([1, -1, 2, -2, 3, -3, 4, -4])
    words = []
    while len(words) < count:
        length = int(rng.integers(1, max_len + 1))
        word = []
        while len(word) < length:
            letter = int(rng.choice(letters))
            if word and word[-1] == -letter:
                continue
            word.append(letter)
        words.append(tuple(word))
    return words


def test_criterion_1_construction_soundness(big):
    lab, _, _, _ = big
    relator_res = lab.sl2.relator_residual(lab.presentation)
    assert relator_res <= 1e-9
    rng = np.random.default_rng(101)
    words = random_words(rng, 1000)
    worst = 0.0
    from anosovlab.principal_rep import word_form_residual

    for p in (2, 3, 4):
        assert signature(invariant_form(p).matrix) == (p, p - 1)
        assert signature(form_on_e(p).matrix) == (p, p)
        rho_e = embedded_representation(p, lab.sl2)
        sample = words if p == 2 else words[:200]
        for w in sample:
            worst = max(worst, word_form_residual(rho_e, w))
    assert worst <= 1e-9
    report(1, f"relator {relator_res:.2e}, form residual {worst:.2e}")


def test_criterion_2_principal_basis_identities(big):
    for p in (2, 3, 4):
        basis = principal_basis(p)
        n = 2 * p - 1
        pairing = basis.eps.T @ basis.form_v.matrix @ basis.eps
        delta = np.zeros((n, n))
        for k in range(1, n + 1):
            delta[k - 1, 2 * p - k - 1] = 1.0
        assert np.abs(pairing - delta).max() <= 1e-10
        for z in (0.5, 1.0, 2.0):
            alpha = alpha_matrix(basis, z)
            assert np.abs(np.tril(alpha, -1)).max() <= 1e-10
            assert np.abs(alpha[np.triu_indices(n)]).min() > 1e-8
        lam = 1.618
        diag = sym_power_rep(p, np.diag([lam, 1 / lam]))
        for m in range(1, n + 1):
            v = basis.eps[:, m - 1]
            target = lam ** (2 * p - 2 * m)
            assert np.abs(diag @ v - target * v).max() <= 1e-10 * max(1, target)
    report(2, "pairing delta, alpha triangularity, eigenvalue law at p=2,3,4")


def test_criterion_3_anosov_structure(big):
    lab, spectrum2, _, _ = big
    assert spectrum2.dropped == 0
    results = {}
    for p in (2, 3):
        spec = (spectrum2 if p == 2 else
                length_spectrum(lab.rho_v[3], lab.ball, lab.basis[3], radius=RADIUS))
        assert spec.dropped == 0
        gaps = anosov_gap_report(spec, tol=1e-9)
        assert gaps.classes == len(spec) > 10000
        assert gaps.total_violations == 0
        results[p] = gaps.classes
    report(3, f"zero violations over {results[2]} (p=2) and {results[3]} (p=3) classes")


def test_criterion_4_transversality():
    for p in (2, 3):
        ws = cli.Workspace(dict(cli.DEFAULTS, p=p))
        rows = cli.sample_transversality(ws, 1000, seed=404, separation=0.2)
        margins = np.array([r[3] for r in rows])
        assert len(margins) == 1000
        assert margins.min() > 1e-6
    for p in (2, 3, 4):
        basis = principal_basis(p)
        for z in (0.5, 1.0, 2.0):
            system = alpha_system(basis, z)
            assert np.abs(np.tril(system, -1)).max() <= 1e-10
            assert np.abs(np.diag(system)).min() > 1e-8
    report(4, "1000 margins > 1e-6 at p=2,3; alpha system triangular")


def test_criterion_5_flag_bijections(big):
    lab, _, _, _ = big
    rng = np.random.default_rng(505)
    worst_tuple = worst_flag = 0.0
    for p in (2, 3):
        basis = lab.basis[p]
        q = basis.form_e
        standard = PairedTuple(basis.e.copy(), basis.ebar.copy())
        for _ in range(250):
            g = random_form_isometry(q.matrix, rng, 0.4)
            paired = PairedTuple(g @ standard.lines, g @ standard.lines_bar)
            flag, flag_bar = flag_from_tuple(paired, q)
            recovered = tuple_from_flags(flag, flag_bar, q)
            ok, worst = tuples_match(recovered, paired, tol=1e-8)
            assert ok
            worst_tuple = max(worst_tuple, worst)
            flag2, flag_bar2 = flag_from_tuple(recovered, q)
            for i in range(p):
                worst_flag = max(
                    worst_flag,
                    span_distance(flag.subspaces[i], flag2.subspaces[i]),
                    span_distance(flag_bar.subspaces[i], flag_bar2.subspaces[i]),
                )
        assert worst_flag <= 1e-8
        # antisymmetry <=> isotropy on randomized planes
        theta0, theta1 = basis.e, basis.ebar
        for _ in range(250):
            a = rng.standard_normal((p, p))
            antisym = (a - a.T) / 2
            plane = plane_from_form(antisym, theta0, theta1, q)
            assert is_isotropic(plane, q.matrix, tol=1e-10)
            if np.abs(a + a.T).max() > 1e-6:
                assert not is_isotropic(
                    plane_from_form(a, theta0, theta1, q), q.matrix, tol=1e-10
                )
            g = random_form_isometry(q.matrix, rng, 0.3)
            iso_plane = g @ theta0
            omega = form_from_plane(iso_plane, theta0, theta1, q)
            assert np.abs(omega + omega.T).max() <= 1e-8 * max(
                1, np.abs(omega).max()
            )
    report(5, f"500 round trips (max {worst_tuple:.2e}), 500 planes")


def test_criterion_6_eigenvalue_derivative_two_ways(big):
    lab, _, _, _ = big
    rng = np.random.default_rng(606)
    from anosovlab.surface_group import solve_cocycle_space

    from anosovlab.surface_group import cyclic_reduce

    basis_z1 = solve_cocycle_space(lab.rho_v[2], lab.presentation)
    # eigen-derivatives and invariants are conjugation invariant, so the
    # comparison runs on cyclically reduced class representatives (whose
    # eigenbases are well conditioned)
    pool = sorted({cyclic_reduce(w)
                   for w in lab.hyperbolic_words(max_count=4000, rng=rng)
                   if len(w) <= 5})
    pool = [w for w in pool if w]
    worst_formula = worst_lower = worst_fd = 0.0
    assert ping_pong_certificate(lab.sl2, (1, 2))[0]
    free_pool = [w for w in pool if all(abs(l) in (1, 2) for l in w)]
    for k in range(100):
        word = pool[int(rng.integers(0, len(pool)))]
        omega = Cocycle(basis_z1.element(rng.standard_normal(basis_z1.dimension)),
                        rho=lab.rho_v[2])
        alpha = margulis_invariant(lab.rho_v[2], omega, word, lab.basis[2])
        eig = eigendata_fuchsian(2, lab.sl2.evaluate(word), lab.basis[2])
        rho_dot = omega.tangent(word)
        lam_dot, _ = eigenvalue_derivative(eig, rho_dot)
        if abs(alpha) > 1e-9:
            worst_formula = max(
                worst_formula, abs(lam_dot[-1] - 0.5 * alpha) / abs(0.5 * alpha)
            )
        worst_lower = max(worst_lower, float(np.abs(lam_dot[:-1]).max(initial=0.0)))
        wfree = free_pool[int(rng.integers(0, len(free_pool)))]
        alpha_free = margulis_invariant(lab.rho_v[2], omega, wfree, lab.basis[2])
        t = 1e-4
        plus = FiniteDeformation(lab.rho_e[2], omega.vectors[None], (1, 2), t)
        minus = FiniteDeformation(lab.rho_e[2], omega.vectors[None], (1, 2), -t)
        pair = eigendata_fuchsian(2, lab.sl2.evaluate(wfree), lab.basis[2]).vectors[:, 1:3]
        fd = (plus.middle_eigenvalue(wfree, pair)[0]
              - minus.middle_eigenvalue(wfree, pair)[0]) / (2 * t)
        if abs(alpha_free) > 1e-6:
            worst_fd = max(worst_fd, abs(fd - 0.5 * alpha_free) / abs(0.5 * alpha_free))
    assert worst_formula <= 1e-6
    assert worst_fd <= 1e-4
    assert worst_lower <= 1e-8
    report(6, f"formula {worst_formula:.2e}, finite diff {worst_fd:.2e}, "
              f"lower derivatives {worst_lower:.2e}")


def test_criterion_7_margulis_calculus(big):
    lab, _, omegas, _ = big
    rng = np.random.default_rng(707)
    rho, basis = lab.rho_v[2], lab.basis[2]
    cob = coboundary(rho, rng.standard_normal(3))
    words = [w for w in lab.hyperbolic_words(max_count=300, rng=rng) if len(w) <= 6]
    worst_cob = worst_hom = worst_conj = 0.0
    for w in words[:100]:
        worst_cob = max(worst_cob, abs(margulis_invariant(rho, cob, w, basis)))
    omega = omegas[0]
    for w in words[:40]:
        base = margulis_invariant(rho, omega, w, basis)
        for n in (2, 3):
            value = margulis_invariant(rho, omega, w * n, basis)
            worst_hom = max(worst_hom, abs(value - n * base) / max(1, abs(base)))
        h = words[int(rng.integers(0, len(words)))]
        conjugated = h + w + inverse_word(h)
        value = margulis_invariant(rho, omega, conjugated, basis)
        worst_conj = max(worst_conj, abs(value - base) / max(1, abs(base)))
    assert worst_cob <= 1e-8
    assert worst_hom <= 1e-8
    assert worst_conj <= 1e-8
    report(7, f"coboundary {worst_cob:.2e}, homogeneity {worst_hom:.2e}, "
              f"conjugation {worst_conj:.2e}")


def test_criterion_8_entropy(big):
    lab, spectrum2, _, _ = big
    assert WINDOW[1] <= BALL_RADIUS
    slope = entropy_estimate(lab.ball.distances, WINDOW)
    crit = critical_exponent(lab.ball.distances, WINDOW)
    assert 0.9 <= slope.estimate <= 1.1
    assert slope.residual <= 0.05
    assert abs(slope.estimate - crit.estimate) <= 0.05
    # last-root and hyperbolic lengths define identical spectra here,
    # so their growth rates coincide exactly
    hyp = spectrum2.lengths()
    lastroot = spectrum2.lengths(LengthFunctional.last_root())
    assert np.abs(hyp - lastroot).max() <= 1e-8
    n_elements = lab.ball.count(RADIUS)
    report(8, f"slope {slope.estimate:.4f} (res {slope.residual:.3f}), "
              f"critical {crit.estimate:.4f}, {n_elements} elements at T=12")


def test_criterion_9_bm_vanishing(big):
    lab, spectrum2, omegas, alphas = big
    ratios = []
    for i, seed in enumerate(SEEDS):
        spec = spectrum_with_alpha(spectrum2, alphas[:, i])
        averages = [abs(bm_average(spec, (t - 4.0, t))) for t in (8.0, 10.0, 12.0)]
        assert averages[0] >= averages[1] >= averages[2], (seed, averages)
        rms = rms_alpha_rate(spec, WINDOW)
        assert averages[2] <= 0.1 * rms, (seed, averages[2], rms)
        ratios.append(averages[2] / rms)
    rng = np.random.default_rng(909)
    cob = coboundary(lab.rho_v[2], rng.standard_normal(3))
    cob_alphas = multi_alphas(spectrum2, lab.rho_v[2], lab.basis[2], [cob])[:, 0]
    control = abs(bm_average(spectrum_with_alpha(spectrum2, cob_alphas), WINDOW))
    assert control <= 1e-8
    report(9, f"max |avg|/rms = {max(ratios):.4f} at T=12, "
              f"coboundary control {control:.2e}")


def test_criterion_10_constant_entropy_first_order(big):
    lab, spectrum2, omegas, alphas = big
    worst_slope = worst_ratio = 0.0
    for i, seed in enumerate(SEEDS):
        spec = spectrum_with_alpha(spectrum2, alphas[:, i])
        scan = perturbed_entropy_scan(spec, (-0.05, 0.0, 0.05), WINDOW)
        assert abs(scan.central_slope) <= 0.1, (seed, scan.central_slope)
        half_avg = 0.5 * bm_average(spec, WINDOW)
        residual = [e.residual for s, e in scan.table if s == 0.0][0]
        consistency = scan.consistency_residual(half_avg)
        assert consistency <= 2 * residual, (seed, consistency, residual)
        worst_slope = max(worst_slope, abs(scan.central_slope))
        worst_ratio = max(worst_ratio, consistency / (2 * residual))
    report(10, f"max |slope| {worst_slope:.4f}, "
               f"max consistency ratio {worst_ratio:.2f}")


def test_criterion_11_determinism(tmp_path):
    # the BLAS thread count is fixed when a process starts, so each thread
    # setting runs the CLI in its own process; the samplers run stacked
    # products and determinants, margulis the class spectrum
    runs = (
        ("margulis", {"seed": 11, "radius": 7.0, "window": [4.0, 7.0],
                      "cocycle": "random"}, ("margulis.csv", "margulis.json")),
        ("transversality", {"seed": 11, "p": 3, "count": 500},
         ("transversality.csv", "transversality.json")),
        ("deriv-check", {"seed": 11, "p": 3, "count": 200}, ("deriv_check.json",)),
    )
    for command, config, files in runs:
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps(config))
        outputs = []
        for i, threads in enumerate(THREAD_SETTINGS):
            out = tmp_path / f"{command}{i}"
            code = run_cli_process([command, "--config", str(cfg),
                                    "--out", str(out)], threads)
            assert code == 0, (command, threads)
            outputs.append([(out / name).read_bytes() for name in files])
        assert outputs[0] == outputs[1] == outputs[2], command
    report(11, "byte-identical margulis, transversality and deriv-check "
               "outputs across thread settings")


def test_ball_radius_15_counts_each_element_once(big):
    # the 1e-7 float grid kept 7 elements twice here: these two words are
    # one matrix over Q(θ), whose float entries sat one grid cell apart
    lab, _, _, _ = big
    assert len(lab.ball) == 817_433
    words = set(ball_words(lab.ball))
    assert (-4, 2, -1, 2, -1, -2, -4, 1, 2, -1) not in words
    assert (-4, 2, -1, 2, -1, -2, 3, -4, -3, 2) in words
