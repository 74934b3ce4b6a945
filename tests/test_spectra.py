import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anosovlab import fuchsian, spectra
from anosovlab.affine_deform import Cocycle, coboundary
from anosovlab.cli import SPECTRUM_MARGIN
from anosovlab.fuchsian import enumerate_ball
from anosovlab.principal_rep import Representation
from anosovlab.surface_group import (
    conjugacy_canonical,
    cyclic_reduce,
    format_word,
    free_reduce,
    inverse_word,
    min_rotation,
)
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
    spectrum_with_alpha,
)

from oracles import closed_orbit_words, spectrum_stabilization


@pytest.fixture(scope="module")
def spectrum8(lab):
    omega = lab.random_cocycle(2, 1)
    spec = length_spectrum(lab.rho_v[2], lab.ball, lab.basis[2], radius=8.0)
    return spectrum_with_alpha(
        spec, multi_alphas(spec, lab.rho_v[2], lab.basis[2], [omega])[:, 0]), omega


# the per-class columns of a LengthSpectrum
COLUMNS = ("words", "traces", "length_hyp", "length_lastroot", "lambdas",
           "lambdas_bar", "alphas")


def test_lastroot_equals_hyperbolic_at_fuchsian_point(lab, spectrum8):
    spec, _ = spectrum8
    assert len(spec) > 100 and spec.dropped == 0
    assert np.abs(spec.length_lastroot - spec.length_hyp).max() <= 1e-8


def test_power_classes_have_multiple_lengths(lab, spectrum8):
    spec, _ = spectrum8
    by_word = dict(zip(spec.words, spec.length_hyp.tolist()))
    for word, length in by_word.items():
        doubled = word * 2
        if doubled in by_word:
            assert abs(by_word[doubled] - 2 * length) <= 1e-9


def test_spectrum_is_sorted_and_inverse_closed(lab, spectrum8):
    spec, _ = spectrum8
    lengths = spec.lengths()
    assert np.all(np.diff(lengths) >= 0)
    from anosovlab.surface_group import conjugacy_canonical, inverse_word

    words = set(spec.words)
    sample = list(words)[:80]
    for w in sample:
        inv = conjugacy_canonical(inverse_word(w), lab.presentation).letters
        assert inv in words


def test_columns_are_read_in_place(spectrum8):
    spec, _ = spectrum8
    assert spec.lengths() is spec.length_hyp
    assert spec.lengths(LengthFunctional.last_root()) is spec.length_lastroot
    assert {len(getattr(spec, name)) for name in COLUMNS} == {len(spec)}
    assert spec.lambdas.shape == spec.lambdas_bar.shape == (len(spec), spec.p)
    # the one adaptor the benchmark session still reads
    assert [r.word for r in spec.records] == spec.words


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
    # with α replaced by ℓ the average is Σℓ/Σℓ
    value = bm_average(spectrum_with_alpha(spec, spec.lengths()), (4.0, 8.0))
    assert abs(value - 1.0) <= 1e-12


def test_bm_average_coboundary_control(lab, rng):
    cob = coboundary(lab.rho_v[2], rng.standard_normal(3))
    spec = length_spectrum(lab.rho_v[2], lab.ball, lab.basis[2], radius=8.0)
    spec = spectrum_with_alpha(
        spec, multi_alphas(spec, lab.rho_v[2], lab.basis[2], [cob])[:, 0])
    assert abs(bm_average(spec, (4.0, 8.0))) <= 1e-8
    assert np.abs(spec.alphas).max() <= 1e-8


def test_bm_average_cohomology_invariance(lab, rng, spectrum8):
    spec, omega = spectrum8
    shift = coboundary(lab.rho_v[2], rng.standard_normal(3))
    shifted = Cocycle(omega.vectors + shift.vectors, rho=lab.rho_v[2])
    spec2 = spectrum_with_alpha(
        spec, multi_alphas(spec, lab.rho_v[2], lab.basis[2], [shifted])[:, 0])
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
    assert np.abs(batch[:, 0] - spec.alphas).max() <= 1e-10
    relabeled = spectrum_with_alpha(spec, batch[:, 0])
    assert np.abs(relabeled.alphas - spec.alphas).max() <= 1e-10


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
    else:  # λ_1·λ_2 is the only product
        assert report.min_product_gap == math.inf
    empty = anosov_gap_report(replace(spec, **{name: getattr(spec, name)[:0]
                                               for name in COLUMNS}))
    assert (empty.classes, empty.total_violations) == (0, 0)
    assert empty.min_ordering_gap == empty.min_product_gap == math.inf


def test_gap_products_match_eigenvalue_law(lab):
    # lambda = 2 would give products {4, 16, 64}; verify the analogous
    # ordering lambda_2*lambda_3 < lambda_1*lambda_3 < lambda_1*lambda_2
    spec = length_spectrum(lab.rho_v[3], lab.ball, lab.basis[3], radius=7.0)
    for length, lambdas in zip(spec.length_hyp[:50], spec.lambdas[:50]):
        lam = math.exp(length / 2.0)
        expected = np.array([lam ** 4, lam ** 2, 1.0])
        assert np.allclose(lambdas, expected, rtol=1e-9)
        products = sorted(
            lambdas[i] * lambdas[j] for i in range(3) for j in range(i + 1, 3)
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

    # the CLI's margin and one half again give the same classes
    counts = spectrum_stabilization(make, (SPECTRUM_MARGIN, 1.5 * SPECTRUM_MARGIN))
    assert counts[0] == counts[1] > 0


def _failing_rows(victim_matrix):
    """`hyperbolic_eigenbases` with every row equal to `victim_matrix`
    reported as failed, as a degenerate eigenbasis would be."""
    original = spectra.hyperbolic_eigenbases

    def failing(m):
        h, lams, ok = original(m)
        victims = (np.asarray(m) == victim_matrix).all(axis=(1, 2))
        h[victims], lams[victims], ok[victims] = math.nan, math.nan, False
        return h, lams, ok

    return failing


def test_only_numerical_failures_are_dropped(lab, monkeypatch):
    full = length_spectrum(lab.rho_v[2], lab.ball, lab.basis[2], radius=5.0)
    victim = full.words[0]
    monkeypatch.setattr(spectra, "hyperbolic_eigenbases",
                        _failing_rows(lab.sl2.evaluate(victim)))
    spec = length_spectrum(lab.rho_v[2], lab.ball, lab.basis[2], radius=5.0)
    # the failed class is left out of the columns and counted in `dropped`
    assert spec.dropped >= 1 and len(spec) == len(full) - 1
    assert victim not in spec.words

    # any other exception is a bug and must not be counted as a dropped class
    def broken(m):
        raise TypeError("simulated bug")

    monkeypatch.setattr(spectra, "hyperbolic_eigenbases", broken)
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
    victim = next(w for w in full.words if elements[w] >= 2)
    monkeypatch.setattr(spectra, "hyperbolic_eigenbases",
                        _failing_rows(lab.sl2.evaluate(victim)))
    spec = length_spectrum(lab.rho_v[2], lab.ball, lab.basis[2], radius=5.0)
    assert spec.dropped == 1 and len(spec) == len(full) - 1


# recorded with the per-class record route this replaced: SHA-256 of the
# p = 3 records of the 136 `spectrum8` classes without a1 or A1, every bit
PINNED_NO_A1_RECORDS_SHA256 = (
    "b94c870cf5e5d7e67f64c60800e65cc73957564c99519faca6ac36424e60518d"
)


def _digest_records(digest, p, columns):
    """Feed every bit of each class's columns, in word order, to a SHA-256
    digest: the bytes the per-class records once gave it."""
    words = columns["words"]
    for i in sorted(range(len(words)), key=words.__getitem__):
        digest.update(f"{p} {format_word(words[i])}\n".encode())
        for name in ("traces", "length_hyp", "length_lastroot"):
            digest.update(np.float64(columns[name][i]).tobytes())
        digest.update(columns["lambdas"][i].tobytes())
        digest.update(columns["lambdas_bar"][i].tobytes())


def test_stacked_records_drop_a_non_hyperbolic_row(lab, spectrum8):
    # a1 is parabolic here, so (a1)^4 is the one non-hyperbolic class of its
    # stack; the classes without a1 keep the octagon's products
    spec, _ = spectrum8
    words = [w for w in spec.words if 1 not in map(abs, w)]
    assert len(words) == 136 and sum(len(w) == 4 for w in words) == 40
    generators = dict(lab.sl2.generators)
    generators[1] = np.array([[1.0, 1.0], [0.0, 1.0]])
    parabolic = Representation(generators)
    bad = (1, 1, 1, 1)
    rows, lengths = _letter_rows(words[:70] + [bad] + words[70:])
    columns, dropped = spectra._class_columns(rows, lengths, parabolic, 3)
    assert dropped == 1 and columns["words"] == words
    assert {len(column) for column in columns.values()} == {len(words)}
    digest = hashlib.sha256()
    _digest_records(digest, 3, columns)
    assert digest.hexdigest() == PINNED_NO_A1_RECORDS_SHA256


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
        _digest_records(digest, p, vars(spec))
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


# recorded before class extraction moved onto the ball's letter array:
# SHA-256 of the newline-joined sorted `format_word` class words of
# `spectrum8` (p = 2, T = 8, lab ball), and its counting_consistency triple
PINNED_SPECTRUM8_WORDS_SHA256 = (
    "151e1ee54446efc258ca67514ba9b7c6d41902fac7e1aea049285d24b7458386"
)
PINNED_SPECTRUM8_COUNTING = (430, 23, 0)


def test_spectrum8_class_words_pinned(spectrum8):
    spec, _ = spectrum8
    words = "\n".join(sorted(map(format_word, spec.words)))
    assert hashlib.sha256(words.encode()).hexdigest() == PINNED_SPECTRUM8_WORDS_SHA256


def test_spectrum8_counting_consistency_pinned(lab, spectrum8):
    spec, _ = spectrum8
    assert counting_consistency(spec, lab.ball) == PINNED_SPECTRUM8_COUNTING


@pytest.fixture(scope="module")
def parity_spectra(lab):
    """T = 8 spectra at p = 2 and 3 with the α of cocycle seed 1, by word."""
    out = {}
    for p in (2, 3):
        spec = length_spectrum(lab.rho_v[p], lab.ball, lab.basis[p], radius=8.0)
        omega = lab.random_cocycle(p, 1)
        alphas = multi_alphas(spec, lab.rho_v[p], lab.basis[p], [omega])[:, 0]
        out[p] = dict(zip(spec.words, alphas.tolist()))
    return out


def _inverse_class(word, presentation):
    return conjugacy_canonical(inverse_word(word), presentation).letters


@pytest.mark.parametrize("p", [2, 3])
def test_spectrum_is_inversion_closed(lab, parity_spectra, p):
    words = parity_spectra[p]
    assert len(words) > 400
    assert all(_inverse_class(w, lab.presentation) in words for w in words)


@pytest.mark.parametrize("p", [
    2,
    # measured over cocycle seeds 1-3: 24-26 of the 430 classes miss the
    # bound, worst 1.3e-8 relative (a 6-letter class of length 7.37); at
    # p = 2 the worst is 5.6e-13
    pytest.param(3, marks=pytest.mark.xfail(
        strict=True, reason="orbit-sum alpha of a class and of its inverse "
                            "differ by up to 1.3e-8 relative at p = 3")),
])
def test_inversion_parity_over_the_spectrum(lab, parity_spectra, p):
    # α(γ⁻¹) = (−1)^p α(γ) on every class of the spectrum
    alpha_of = parity_spectra[p]
    sign = (-1) ** p
    for word, alpha in alpha_of.items():
        inverse = alpha_of[_inverse_class(word, lab.presentation)]
        assert abs(inverse - sign * alpha) <= 1e-9 * max(1.0, abs(alpha))


def test_class_extraction_leaves_word_tuples_unbuilt(lab):
    ball = enumerate_ball(lab.sl2.generators, 8.0, 2.0, presentation=lab.presentation)
    spec = length_spectrum(lab.rho_v[2], ball, lab.basis[2], radius=6.0)
    assert len(spec) > 50
    counting_consistency(spec, ball)
    assert "words" not in vars(ball)


def test_one_canonicalization_per_distinct_cyclic_key(lab, monkeypatch):
    # one batched call per spectrum, on exactly the distinct keys in order
    # of first occurrence
    calls = []
    original = spectra.conjugacy_canonical_rows

    def counting(keys, lengths, presentation):
        calls.append([tuple(row[:n]) for row, n in zip(keys.tolist(), lengths.tolist())])
        return original(keys, lengths, presentation)

    monkeypatch.setattr(spectra, "conjugacy_canonical_rows", counting)
    length_spectrum(lab.rho_v[2], lab.ball, lab.basis[2], radius=8.0)
    in_ball_order = [min_rotation(w) for w, _ in closed_orbit_words(lab.ball, 8.0)]
    assert calls == [list(dict.fromkeys(in_ball_order))]


LETTERS = (1, -1, 2, -2, 3, -3, 4, -4)
FREELY_REDUCED = st.lists(st.sampled_from(LETTERS), max_size=48).map(free_reduce)
# powers of cyclically reduced words: rotations tie
PERIODIC = st.tuples(FREELY_REDUCED, st.integers(2, 4)).map(
    lambda t: cyclic_reduce(t[0]) * t[1])
# conjugates u·w·u⁻¹: the wrap-around peels
CONJUGATED = st.tuples(FREELY_REDUCED, FREELY_REDUCED).map(
    lambda t: free_reduce(t[0] + t[1] + inverse_word(t[0])))


def _letter_rows(words):
    """Words as zero-padded int8 rows and their lengths, as a ball holds them."""
    width = max(map(len, words), default=0)
    rows = np.zeros((len(words), width), dtype=np.int8)
    for i, word in enumerate(words):
        rows[i, :len(word)] = word
    return rows, np.array([len(word) for word in words])


def _assert_keys_are_min_rotations(words):
    cyclic, lengths = fuchsian._peeled(*_letter_rows(words))
    reduced = [cyclic_reduce(w) for w in words]
    assert lengths.tolist() == [len(w) for w in reduced]
    assert [tuple(row[:n]) for row, n in zip(cyclic.tolist(), lengths)] == reduced
    assert not any(any(row[n:]) for row, n in zip(cyclic.tolist(), lengths))
    keys, key_lengths, key_of = spectra._cyclic_keys(cyclic, lengths)
    assert keys.shape[1] == cyclic.shape[1] and keys.dtype == np.int8
    assert not any(any(row[n:]) for row, n in zip(keys.tolist(), key_lengths))
    keys = [tuple(row[:n]) for row, n in zip(keys.tolist(), key_lengths)]
    expected = [min_rotation(w) for w in reduced]
    assert [keys[k] for k in key_of.tolist()] == expected
    assert keys == list(dict.fromkeys(expected))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(FREELY_REDUCED, PERIODIC, CONJUGATED), max_size=30))
def test_cyclic_keys_are_the_min_rotations(words):
    _assert_keys_are_min_rotations(words)


def test_cyclic_keys_edge_cases():
    long_word = (1, 2, -3, 4, 1, 1, 2, -3, -4, -4, 2, 3, 3, -1, 2, 4, -3, -2, 1, 4, 3)
    words = [(), (3,), (-4,), (1, 2), (2, 1), (1, 2, 1, 2), (2, 1, 2, 1), (-1, -1),
             (1, 2, -1), (3, 1, 2, -3), (2, -1, 2, -1, 2, -1), (1, 2, 3) * 7,
             long_word, long_word[5:] + long_word[:5], (4,) + long_word + (-4,)]
    assert len(long_word) >= 20
    _assert_keys_are_min_rotations(words)
    _assert_keys_are_min_rotations([])
    _assert_keys_are_min_rotations([()])
