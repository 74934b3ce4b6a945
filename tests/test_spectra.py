import hashlib

import numpy as np
import pytest

from anosovlab import spectra
from anosovlab.affine_deform import Cocycle, coboundary
from anosovlab.fuchsian import enumerate_ball
from anosovlab.linalg import NumericalFailure
from anosovlab.surface_group import conjugacy_canonical, format_word
from anosovlab.spectra import (
    LengthFunctional,
    anosov_gap_report,
    bm_average,
    counting_consistency,
    critical_exponent,
    entropy_estimate,
    length_spectrum,
    multi_alphas,
    perturbed_entropy_scan,
    spectrum_stabilization,
    spectrum_with_alpha,
)


@pytest.fixture(scope="module")
def spectrum8(lab):
    omega = lab.random_cocycle(2, 1)
    return length_spectrum(lab.rho_v[2], lab.ball, lab.basis[2],
                           omega=omega, radius=8.0), omega


def test_lastroot_equals_hyperbolic_at_fuchsian_point(lab, spectrum8):
    spec, _ = spectrum8
    assert len(spec) > 100 and spec.dropped == 0
    worst = max(abs(r.length_lastroot - r.length_hyp) for r in spec.records)
    assert worst <= 1e-8


def test_power_classes_have_multiple_lengths(lab, spectrum8):
    spec, _ = spectrum8
    by_word = {r.word: r for r in spec.records}
    for rec in spec.records:
        doubled = rec.word * 2
        if doubled in by_word:
            assert abs(by_word[doubled].length_hyp - 2 * rec.length_hyp) <= 1e-9


def test_spectrum_is_sorted_and_inverse_closed(lab, spectrum8):
    spec, _ = spectrum8
    lengths = spec.lengths()
    assert np.all(np.diff(lengths) >= 0)
    from anosovlab.surface_group import conjugacy_canonical, inverse_word

    words = {r.word for r in spec.records}
    sample = list(words)[:80]
    for w in sample:
        inv = conjugacy_canonical(inverse_word(w), lab.presentation).letters
        assert inv in words


def test_entropy_scaling_property(lab):
    values = lab.ball.distances
    window = (6.5, 9.5)
    base = entropy_estimate(values, window)
    c = 1.7
    scaled = entropy_estimate(values * c, (window[0] * c, window[1] * c))
    assert abs(scaled.estimate * c - base.estimate) <= 3 * (base.residual + 1e-3)


def test_entropy_window_guards(lab):
    with pytest.raises(ValueError, match="window"):
        entropy_estimate(lab.ball.distances, (5.0, 6.0))
    with pytest.raises(ValueError, match=(
            r"too few values in window \[1.0, 5.0\]: 3 found, 100 needed")):
        entropy_estimate(np.array([1.0, 2.0, 5.0]), (1.0, 5.0))
    # the CLI's default entropy window at radius 7 holds 48 orbit points in
    # its near half (3, 5], against the 50 the critical exponent needs
    with pytest.raises(ValueError, match=(
            r"too few values in window \[3.0, 7.0\] for the critical exponent: "
            r"48 in \(3.0, 5.0\] and \d+ in \(5.0, 7.0\], 50 needed in each half")):
        critical_exponent(lab.ball.distances, (3.0, 7.0))
    with pytest.raises(ValueError, match="radius"):
        entropy_estimate(lab.ball.distances, (6.5, 9.5), max_radius=9.0)


def test_critical_exponent_agrees_with_slope(lab):
    # loose sanity band at this small radius; the 0.05 agreement of the
    # two estimators is asserted at T = 12 in the acceptance suite
    window = (6.5, 9.5)
    slope = entropy_estimate(lab.ball.distances, window)
    crit = critical_exponent(lab.ball.distances, window)
    assert abs(slope.estimate - crit.estimate) <= 0.2
    assert 0.8 <= crit.estimate <= 1.2


def test_bm_average_normalization(lab, spectrum8):
    spec, _ = spectrum8
    value = bm_average(spec, (4.0, 8.0), observable=lambda r: r.length_hyp)
    assert abs(value - 1.0) <= 1e-12


def test_bm_average_coboundary_control(lab, rng):
    cob = coboundary(lab.rho_v[2], rng.standard_normal(3))
    spec = length_spectrum(lab.rho_v[2], lab.ball, lab.basis[2],
                           omega=cob, radius=8.0)
    assert abs(bm_average(spec, (4.0, 8.0))) <= 1e-8
    assert np.abs(spec.alphas()).max() <= 1e-8


def test_bm_average_cohomology_invariance(lab, rng, spectrum8):
    spec, omega = spectrum8
    shift = coboundary(lab.rho_v[2], rng.standard_normal(3))
    shifted = Cocycle(omega.vectors + shift.vectors, rho=lab.rho_v[2])
    spec2 = length_spectrum(lab.rho_v[2], lab.ball, lab.basis[2],
                            omega=shifted, radius=8.0)
    a = bm_average(spec, (4.0, 8.0))
    b = bm_average(spec2, (4.0, 8.0))
    assert abs(a - b) <= 1e-8


def test_bm_average_empty_window(lab, spectrum8):
    spec, _ = spectrum8
    with pytest.raises(ValueError, match="empty"):
        bm_average(spec, (0.1, 0.2))


def test_multi_alphas_consistency(lab, spectrum8):
    spec, omega = spectrum8
    batch = multi_alphas(spec, lab.rho_v[2], lab.basis[2], [omega])
    assert np.abs(batch[:, 0] - spec.alphas()).max() <= 1e-10
    relabeled = spectrum_with_alpha(spec, batch[:, 0])
    assert np.abs(relabeled.alphas() - spec.alphas()).max() <= 1e-10


def test_perturbed_scan_basics(lab, spectrum8):
    spec, _ = spectrum8
    window = (4.5, 8.0)
    scan = perturbed_entropy_scan(spec, (-0.05, 0.0, 0.05), window)
    at_zero = [est for s, est in scan.table if s == 0.0][0]
    assert abs(at_zero.estimate - scan.base_estimate) <= 1e-12
    assert np.isfinite(scan.central_slope)


def test_perturbed_positivity_guard(lab, spectrum8):
    spec, _ = spectrum8
    with pytest.raises(ValueError, match="class"):
        spec.lengths(LengthFunctional.perturbed(50.0))


def test_abramov_scaling(lab, spectrum8):
    # constant reparametrization c(s) = 1 + s rescales entropy by 1/(1+s)
    spec, _ = spectrum8
    window = (4.5, 8.0)
    base = entropy_estimate(spec.lengths(), window)
    for s in (0.1, 0.25):
        c = 1.0 + s
        scaled = entropy_estimate(spec.lengths() * c,
                                  (window[0] * c, window[1] * c))
        assert abs(scaled.estimate - base.estimate / c) <= 3 * (
            base.residual + scaled.residual + 1e-3
        )


@pytest.mark.parametrize("p", [2, 3])
def test_gap_report_clean(lab, p):
    spec = length_spectrum(lab.rho_v[p], lab.ball, lab.basis[p], radius=8.0)
    report = anosov_gap_report(spec)
    assert report.classes == len(spec)
    assert report.total_violations == 0
    assert report.min_ordering_gap > 1e-9
    if p == 3:
        assert report.min_product_gap > 0


def test_gap_products_match_eigenvalue_law(lab):
    # lambda = 2 would give products {4, 16, 64}; verify the analogous
    # ordering lambda_2*lambda_3 < lambda_1*lambda_3 < lambda_1*lambda_2
    spec = length_spectrum(lab.rho_v[3], lab.ball, lab.basis[3], radius=7.0)
    for rec in spec.records[:50]:
        lam = rec.sl2_eigenvalue
        expected = np.array([lam ** 4, lam ** 2, 1.0])
        assert np.allclose(rec.lambdas, expected, rtol=1e-9)
        products = sorted(
            rec.lambdas[i] * rec.lambdas[j] for i in range(3) for j in range(i + 1, 3)
        )
        assert np.allclose(products, [lam ** 2, lam ** 4, lam ** 6], rtol=1e-9)


def test_counting_consistency(lab, spectrum8):
    spec, _ = spectrum8
    n_classes, n_groups, violations = counting_consistency(spec, lab.ball)
    assert violations == 0
    assert n_classes == len(spec)
    # trace multiplicity: strictly fewer trace groups than classes
    assert n_groups < n_classes


def test_spectrum_stabilization_certificate(lab):
    def make(margin):
        ball = enumerate_ball(lab.sl2.generators, 6.0 + margin, 2.0,
                              presentation=lab.presentation)
        return length_spectrum(lab.rho_v[2], ball, lab.basis[2], radius=6.0)

    counts = spectrum_stabilization(make, (3.0, 4.5))
    assert counts[0] == counts[1] > 0


def test_only_numerical_failures_are_dropped(lab, monkeypatch):
    full = length_spectrum(lab.rho_v[2], lab.ball, lab.basis[2], radius=5.0)
    victim = full.records[0].word
    original = spectra._class_record

    def failing(word, *args):
        if word == victim:
            raise NumericalFailure("simulated ill-conditioned class")
        return original(word, *args)

    monkeypatch.setattr(spectra, "_class_record", failing)
    spec = length_spectrum(lab.rho_v[2], lab.ball, lab.basis[2], radius=5.0)
    # the failed class is left out of the records and counted in `dropped`
    assert spec.dropped >= 1 and len(spec) == len(full) - 1

    # any other exception is a bug and must not be counted as a dropped class
    def broken(word, *args):
        raise TypeError("simulated bug")

    monkeypatch.setattr(spectra, "_class_record", broken)
    with pytest.raises(TypeError):
        length_spectrum(lab.rho_v[2], lab.ball, lab.basis[2], radius=5.0)


def test_failed_class_counted_once(lab, monkeypatch):
    full = length_spectrum(lab.rho_v[2], lab.ball, lab.basis[2], radius=5.0)
    elements = {}
    for word, mat in zip(lab.ball.words, lab.ball.matrices):
        trace = abs(float(np.trace(mat)))
        if trace > 2.0 + 1e-12 and 2.0 * np.arccosh(trace / 2.0) <= 5.0 + 1e-12:
            letters = conjugacy_canonical(word, lab.presentation).letters
            elements[letters] = elements.get(letters, 0) + 1
    victim = next(r.word for r in full.records if elements[r.word] >= 2)
    original = spectra._class_record

    def failing(word, *args):
        if word == victim:
            raise NumericalFailure("simulated ill-conditioned class")
        return original(word, *args)

    monkeypatch.setattr(spectra, "_class_record", failing)
    spec = length_spectrum(lab.rho_v[2], lab.ball, lab.basis[2], radius=5.0)
    assert spec.dropped == 1 and len(spec) == len(full) - 1


# measured before the spectrum and α paths were batched; any moved bit fails.
# The bits are those of numpy 2.4.6 with OpenBLAS on x86-64: another BLAS
# build may round the dot products differently, at the parent as well.
PINNED_COUNTS = [210, 210]
PINNED_RECORDS_SHA256 = (
    "bc790ed32562d8d07f700183d7b8ec8287b367fe64706a6044919ddc0f63b888"
)
PINNED_ALPHAS_SHA256 = (
    "333b2c662a7af1beda85519741592f1f91d318984db46b9db799ae633502eaa4"
)


@pytest.fixture(scope="module")
def pinned_spectra(lab):
    ball = enumerate_ball(lab.sl2.generators, 10.0, 2.0,
                          presentation=lab.presentation)
    return {p: length_spectrum(lab.rho_v[p], ball, lab.basis[p], radius=7.0)
            for p in (2, 3)}


def test_spectrum_records_pinned(pinned_spectra):
    # every bit of every record, at p = 2 and 3 (R = 10 ball, T = 7)
    digest = hashlib.sha256()
    for p, spec in pinned_spectra.items():
        assert spec.dropped == 0
        for rec in sorted(spec.records, key=lambda r: r.word):
            digest.update(f"{p} {format_word(rec.word)}\n".encode())
            for value in (rec.trace, rec.length_hyp, rec.length_lastroot):
                digest.update(np.float64(value).tobytes())
            digest.update(rec.lambdas.tobytes())
            digest.update(rec.lambdas_bar.tobytes())
    assert [len(s) for s in pinned_spectra.values()] == PINNED_COUNTS
    assert digest.hexdigest() == PINNED_RECORDS_SHA256


def test_multi_alphas_pinned(lab, pinned_spectra):
    # every bit of the α columns of cocycle seeds 1-3, at p = 2 and 3
    digest = hashlib.sha256()
    for p, spec in pinned_spectra.items():
        omegas = [lab.random_cocycle(p, seed) for seed in (1, 2, 3)]
        alphas = multi_alphas(spec, lab.rho_v[p], lab.basis[p], omegas)
        assert alphas.shape == (len(spec), 3)
        digest.update(alphas.tobytes())
    assert digest.hexdigest() == PINNED_ALPHAS_SHA256
