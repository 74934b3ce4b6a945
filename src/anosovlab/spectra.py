"""Length spectra, entropy estimators, and orbit-averaged invariants.

A LengthSpectrum is the per-conjugacy-class digest of an orbit ball:
hyperbolic length, last-root length (log λ_p + log λ_{p-1}), Margulis
invariant when a cocycle is supplied, and the eigenvalue list. Classes are
extracted by conjugacy canonicalization of ball words and enriched through
the structural eigen route, so the records stay accurate at radius 12 and
beyond.

Entropy is estimated two independent ways: the least-squares slope of
log N(T) over a window, and the critical exponent of the truncated
Poincaré series (the s balancing the two half-window partial sums).
Orbit averages against the Bowen-Margulis measure are approximated by
unweighted window sums of closed orbits, with an exponentially weighted
variant as a cross-check.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .affine_deform import margulis_invariants
from .fuchsian import sl2_eigenbasis, translation_length
from .linalg import NumericalFailure
from .surface_group import conjugacy_canonical, min_rotation

MIN_WINDOW_COUNT = 100


@dataclass
class LengthFunctional:
    """Per-class length functional: hyperbolic, last-root, or perturbed."""

    tag: str
    scale: float = 0.0  # s for perturbed(s)

    @classmethod
    def hyperbolic(cls):
        return cls("hyperbolic")

    @classmethod
    def last_root(cls):
        return cls("last_root")

    @classmethod
    def perturbed(cls, s):
        return cls("perturbed", float(s))


@dataclass
class ClassRecord:
    """One conjugacy class: canonical word, lengths, spectrum, invariant."""

    word: tuple
    trace: float
    length_hyp: float
    length_lastroot: float
    sl2_eigenvalue: float
    lambdas: np.ndarray
    lambdas_bar: np.ndarray
    alpha: float = math.nan

    @property
    def word_length(self):
        return len(self.word)


@dataclass
class LengthSpectrum:
    """Per-class records below a radius, sorted by hyperbolic length."""

    p: int
    radius: float
    ball_radius: float
    slack: float
    records: list
    dropped: int = 0

    def __len__(self):
        return len(self.records)

    def lengths(self, functional=None):
        """Array of per-class values of a length functional."""
        if functional is None or functional.tag == "hyperbolic":
            return np.array([r.length_hyp for r in self.records])
        if functional.tag == "last_root":
            return np.array([r.length_lastroot for r in self.records])
        if functional.tag == "perturbed":
            values = np.array(
                [r.length_hyp + functional.scale * 0.5 * r.alpha for r in self.records]
            )
            if np.any(~np.isfinite(values)):
                raise ValueError("perturbed lengths need a cocycle-bearing spectrum")
            if values.min() <= 0:
                worst = self.records[int(np.argmin(values))]
                raise ValueError(
                    f"perturbed length nonpositive for class {worst.word}"
                )
            return values
        raise ValueError(f"unknown functional {functional.tag}")

    def alphas(self):
        return np.array([r.alpha for r in self.records])


def length_spectrum(rho, ball, basis, omega=None, *, radius):
    """Assemble the conjugacy-class spectrum from an orbit ball.

    Classes are the canonical cyclic words of ball elements with
    translation length ≤ `radius`; γ and γ⁻¹ are distinct classes and
    both retained. Completeness below `radius` relies on the ball
    reaching radius + margin and is certified by the margin-doubling
    stabilization test (see tests); classes whose record raises
    NumericalFailure are counted once each in `dropped` (must be zero for
    acceptance), any other error propagates.

    The elements come from `_ball_classes`: the hyperbolic cyclic words of
    `ball.cyclic_words`, then `conjugacy_canonical` once per cyclic word,
    memoized on its min_rotation. Each record is built from the class's
    SL(2,R) eigenvalue alone (`_class_record`). With a cocycle, the α
    column comes from one batched `margulis_invariants` call over all
    classes.

    Parameters
    ----------
    rho : Representation
        The (2p-1)-dimensional principal representation (with SL(2,R) base).
    ball : BallEnumeration
    basis : PrincipalBasis
    omega : Cocycle, optional
        If given, each record carries the Margulis invariant.
    radius : float
        Class-length cutoff; required, keyword only.
    """
    p = basis.p
    sl2 = rho.base
    seen = {}
    failed = set()  # canonical words whose record raised NumericalFailure
    for letters, _ in _ball_classes(ball, radius):
        if letters in seen or letters in failed:
            continue
        try:
            seen[letters] = _class_record(letters, sl2, basis)
        except NumericalFailure:
            failed.add(letters)
    records = sorted(seen.values(), key=lambda r: (r.length_hyp, r.word))
    spectrum = LengthSpectrum(
        p=p, radius=float(radius), ball_radius=ball.radius, slack=ball.slack,
        records=records, dropped=len(failed),
    )
    if omega is not None:
        spectrum = spectrum_with_alpha(
            spectrum, multi_alphas(spectrum, rho, basis, [omega])[:, 0])
    return spectrum


def _ball_classes(ball, radius):
    """Canonical class and |trace| of each hyperbolic ball element of
    translation length ≤ `radius`, in ball order.

    The elements and their cyclic words come from `ball.cyclic_words`.
    `conjugacy_canonical` depends only on the cyclic word, so it runs once
    per min_rotation of it.
    """
    canonical_of = {}
    for word, trace in ball.cyclic_words(radius):
        key = min_rotation(word)
        letters = canonical_of.get(key)
        if letters is None:
            letters = canonical_of[key] = conjugacy_canonical(
                key, ball.presentation).letters
        if letters:
            yield letters, trace


def _class_record(word, sl2, basis):
    """Record of one class from its SL(2,R) eigenvalue λ alone.

    On the Fuchsian locus the E-eigenvalues are λ^(±2(p-i)), i = 1..p, the
    same powers `eigendata_fuchsian` writes. `sl2_eigenbasis` still runs:
    it raises NumericalFailure for a non-hyperbolic element or a
    degenerate eigenbasis, and that drops the class.
    """
    p = basis.p
    m2 = sl2.evaluate(word)
    trace = abs(float(np.trace(m2)))
    ell = translation_length(m2)
    _, lam = sl2_eigenbasis(m2)
    lambdas = np.array([lam ** (2 * (p - i)) for i in range(1, p + 1)])
    lambdas_bar = np.array([lam ** (-2 * (p - i)) for i in range(1, p + 1)])
    lastroot = float(np.log(lambdas[p - 1]) + np.log(lambdas[p - 2]))
    return ClassRecord(
        word=word, trace=trace, length_hyp=ell, length_lastroot=lastroot,
        sl2_eigenvalue=math.exp(ell / 2.0), lambdas=lambdas,
        lambdas_bar=lambdas_bar,
    )


def multi_alphas(spectrum, rho, basis, omegas):
    """Margulis invariants of several cocycles over one spectrum.

    Returns an (n_classes, n_cocycles) array from one batched
    `margulis_invariants` call over the class words: the neutral sections
    are built once per rotation of each class, stacked across all classes
    of a word length, and shared across cocycles.
    """
    return margulis_invariants(rho, omegas, [rec.word for rec in spectrum.records],
                               basis)


def spectrum_with_alpha(spectrum, alphas):
    """Copy of a spectrum with the α column replaced."""
    records = [replace(rec, alpha=float(a))
               for rec, a in zip(spectrum.records, alphas)]
    return replace(spectrum, records=records)


@dataclass
class EntropyEstimate:
    """Exponential growth rate fit: slope of log N(T), with residual."""

    estimate: float
    window: tuple
    residual: float
    count: int


def _window_grid(window, step=0.25):
    t0, t1 = window
    n = int(round((t1 - t0) / step))
    return np.linspace(t0, t1, max(n + 1, 9))


def entropy_estimate(values, window, step=0.25, max_radius=None):
    """Least-squares slope of log N(T) against T over a window.

    `values` is the multiset of lengths (class or orbit-point). N(T) is
    its counting function; windows with fewer than MIN_WINDOW_COUNT values
    raise, naming the window and the count found, as does a window end
    beyond `max_radius` (the enumerated radius) when one is supplied.
    """
    values = np.sort(np.asarray(values, float))
    t0, t1 = window
    if t1 - t0 < 2.0:
        raise ValueError("window must span at least 2")
    if max_radius is not None and t1 > max_radius + 1e-9:
        raise ValueError("window exceeds the enumerated radius")
    grid = _window_grid(window, step)
    counts = np.searchsorted(values, grid, side="right")
    in_window = int(counts[-1] - np.searchsorted(values, t0, side="left"))
    if in_window < MIN_WINDOW_COUNT:
        raise ValueError(
            f"too few values in window [{t0}, {t1}]: {in_window} found, "
            f"{MIN_WINDOW_COUNT} needed"
        )
    if counts[0] < 1:
        raise ValueError(f"empty counting function at T0 = {t0}")
    logs = np.log(counts.astype(float))
    coeffs, residuals, *_ = np.polyfit(grid, logs, 1, full=True)
    slope = float(coeffs[0])
    rms = float(np.sqrt(residuals[0] / len(grid))) if len(residuals) else 0.0
    return EntropyEstimate(estimate=slope, window=(float(t0), float(t1)),
                           residual=rms, count=int(counts[-1]))


def critical_exponent(values, window, tol=1e-10):
    """Critical exponent of the truncated Poincaré series Σ e^{-s·value}.

    Finds the s at which the two half-window partial sums balance (below
    the critical exponent the far half dominates, above it the near half
    does); bisection on [0, 6]. Raises ValueError, naming the window and
    both half counts, when either half holds fewer than
    MIN_WINDOW_COUNT // 2 values.
    """
    values = np.asarray(values, float)
    t0, t1 = window
    tm = 0.5 * (t0 + t1)
    near = values[(values > t0) & (values <= tm)]
    far = values[(values > tm) & (values <= t1)]
    if len(near) < MIN_WINDOW_COUNT // 2 or len(far) < MIN_WINDOW_COUNT // 2:
        raise ValueError(
            f"too few values in window [{t0}, {t1}] for the critical exponent: "
            f"{len(near)} in ({t0}, {tm}] and {len(far)} in ({tm}, {t1}], "
            f"{MIN_WINDOW_COUNT // 2} needed in each half"
        )

    def imbalance(s):
        return np.exp(-s * (far - tm)).sum() - np.exp(-s * (near - tm)).sum()

    lo, hi = 0.0, 6.0
    if imbalance(lo) < 0:
        return EntropyEstimate(0.0, (t0, t1), math.inf, len(values))
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if imbalance(mid) > 0:
            lo = mid
        else:
            hi = mid
    s = 0.5 * (lo + hi)
    return EntropyEstimate(estimate=float(s), window=(float(t0), float(t1)),
                           residual=0.0, count=int(len(near) + len(far)))


def bm_average(spectrum, window, observable=None, weighted=False):
    """Window average approximating the Bowen-Margulis integral.

    Σ obs(γ) / Σ ℓ(γ) over classes with T0 ≤ ℓ ≤ T1 (long closed orbits
    equidistribute toward the measure of maximal entropy). `observable`
    defaults to the stored Margulis invariant. With `weighted`, classes
    are weighted e^{-ℓ} (the Poincaré-series weighting at the critical
    exponent 1), a robustness cross-check.
    """
    t0, t1 = window
    lengths = spectrum.lengths()
    mask = (lengths >= t0) & (lengths <= t1)
    if not mask.any():
        raise ValueError("empty window for bm_average")
    if observable is None:
        obs = spectrum.alphas()[mask]
        if np.any(~np.isfinite(obs)):
            raise ValueError("spectrum carries no Margulis invariants")
    else:
        obs = np.array([observable(r) for r, m in zip(spectrum.records, mask) if m])
    ell = lengths[mask]
    if weighted:
        w = np.exp(-(ell - ell.min()))
        return float(np.sum(w * obs) / np.sum(w * ell))
    return float(np.sum(obs) / np.sum(ell))


def rms_alpha_rate(spectrum, window):
    """RMS of α(γ)/ℓ(γ) over a window (scale for the vanishing test)."""
    t0, t1 = window
    lengths = spectrum.lengths()
    mask = (lengths >= t0) & (lengths <= t1)
    rates = spectrum.alphas()[mask] / lengths[mask]
    return float(np.sqrt(np.mean(rates**2)))


@dataclass
class EntropyScan:
    """Entropy of the perturbed length functional over an s-grid."""

    table: list  # (s, EntropyEstimate)
    central_slope: float
    base_estimate: float

    def consistency_residual(self, bm_half_alpha):
        """|dh/ds + h²·bm_average(α/2)| (the reparametrization chain)."""
        return abs(self.central_slope + self.base_estimate**2 * bm_half_alpha)


def perturbed_entropy_scan(spectrum, s_grid, window, step=0.1):
    """Entropy estimates of the first-order perturbed spectrum ℓ + s·α/2.

    The positivity precondition |s|·max|α|/min ℓ < 1 is enforced by the
    functional evaluation; the central slope is taken between the extreme
    grid points around 0. The finer default grid step (0.1) averages the
    threshold-crossing noise that dominates central differences of
    counting fits.
    """
    s_grid = sorted(float(s) for s in s_grid)
    table = []
    for s in s_grid:
        values = spectrum.lengths(LengthFunctional.perturbed(s))
        table.append((s, entropy_estimate(values, window, step)))
    base = entropy_estimate(spectrum.lengths(), window, step).estimate
    positives = [s for s in s_grid if s > 0]
    negatives = [s for s in s_grid if s < 0]
    if positives and negatives:
        sp, sn = min(positives), max(negatives)
        hp = next(e.estimate for s, e in table if s == sp)
        hn = next(e.estimate for s, e in table if s == sn)
        central = (hp - hn) / (sp - sn)
    else:
        central = math.nan
    return EntropyScan(table=table, central_slope=float(central), base_estimate=base)


@dataclass
class GapReport:
    """Eigenvalue-structure violations over a spectrum (all must be zero)."""

    classes: int
    unit_middle_violations: int
    pairing_violations: int
    ordering_violations: int
    product_gap_violations: int
    min_ordering_gap: float
    min_product_gap: float

    @property
    def total_violations(self):
        return (self.unit_middle_violations + self.pairing_violations
                + self.ordering_violations + self.product_gap_violations)


def anosov_gap_report(spectrum, tol=1e-9):
    """Check strict eigenvalue ordering and the last-root product gap.

    Per class: λ_p = 1 (SO(p,p-1) locus), λ_i λ̄_i = 1, strict ordering
    λ_1 > ... > λ_p, and λ_{p-1}·λ_p strictly minimal among the products
    λ_i λ_j (i < j ≤ p) while staying > 1.
    """
    p = spectrum.p
    unit = pairing = ordering = product = 0
    min_gap = math.inf
    min_prod_gap = math.inf
    for rec in spectrum.records:
        lam = rec.lambdas
        if abs(lam[p - 1] - 1.0) > tol:
            unit += 1
        if np.abs(lam * rec.lambdas_bar - 1.0).max() > tol:
            pairing += 1
        diffs = -np.diff(lam)
        if diffs.size:
            min_gap = min(min_gap, float(diffs.min()))
            if diffs.min() <= tol:
                ordering += 1
        prods = [
            (lam[i] * lam[j], (i + 1, j + 1))
            for i in range(p)
            for j in range(i + 1, p)
        ]
        last_root = lam[p - 2] * lam[p - 1]
        others = [v for v, ij in prods if ij != (p - 1, p)]
        if last_root <= 1.0 + tol:
            product += 1
        if others:
            gap = min(others) - last_root
            min_prod_gap = min(min_prod_gap, float(gap))
            if gap <= tol:
                product += 1
    return GapReport(
        classes=len(spectrum.records),
        unit_middle_violations=unit,
        pairing_violations=pairing,
        ordering_violations=ordering,
        product_gap_violations=product,
        min_ordering_gap=min_gap,
        min_product_gap=min_prod_gap,
    )


def counting_consistency(spectrum, ball, tol=1e-7):
    """Cross-check canonicalization against holonomy traces.

    Every ball element maps into some canonical class; within a class all
    |traces| must agree (canonical moves preserve conjugacy exactly).
    Distinct classes may legitimately share a trace (inverses, isometry
    symmetry), so only intra-class disagreement counts as a violation.
    The elements and their classes come from `_ball_classes`, as in
    `length_spectrum`.

    Returns (n_classes, n_trace_groups, violations).
    """
    by_class = {}
    for letters, trace in _ball_classes(ball, spectrum.radius):
        by_class.setdefault(letters, []).append(trace)
    violations = sum(
        1 for traces in by_class.values() if max(traces) - min(traces) > 1e-9 * max(traces)
    )
    all_traces = sorted(t for traces in by_class.values() for t in traces[:1])
    groups = 1 if all_traces else 0
    for a, b in zip(all_traces, all_traces[1:]):
        if b - a > tol * max(1.0, b):
            groups += 1
    return len(by_class), groups, violations


def spectrum_stabilization(make_spectrum, margins):
    """Margin-doubling completeness certificate.

    `make_spectrum(margin)` builds a spectrum at fixed radius from a ball
    of radius radius+margin; the class sets must agree across margins.
    Returns the list of class counts.
    """
    words = None
    counts = []
    for margin in margins:
        spec = make_spectrum(margin)
        current = {r.word for r in spec.records}
        counts.append(len(current))
        if words is not None and current != words:
            raise AssertionError(
                f"spectrum not stabilized: {len(current)} vs {len(words)} classes"
            )
        words = current
    return counts
