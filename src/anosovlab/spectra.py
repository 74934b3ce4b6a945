"""Length spectra, entropy estimators, and orbit-averaged invariants.

A LengthSpectrum holds an orbit ball's conjugacy classes as columns: the
canonical words, |trace|, hyperbolic length, last-root length
(log λ_p + log λ_{p-1}), the (n, p) eigenvalue tables, and a
Margulis-invariant column attached per cocycle. Classes are extracted from
the ball's letter array: the closed-orbit words are peeled to cyclic words
and reduced to their least rotations as arrays, and the distinct cyclic
words are canonicalized in one batched call per spectrum. The columns come
from each class's SL(2,R) eigenvalue through the structural eigen route,
so they stay accurate at radius 12 and beyond; the SL(2,R) products are
stacked per word length and share one stacked eigenbasis.

Entropy is estimated two independent ways: the least-squares slope of
log N(T) over a window, and the critical exponent of the truncated
Poincaré series (the s balancing the two half-window partial sums).
Orbit averages against the Bowen-Margulis measure are approximated by
unweighted window sums of closed orbits, with an exponentially weighted
variant as a cross-check.
"""

import math
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from .affine_deform import margulis_invariants
from .fuchsian import hyperbolic_eigenbases
from .linalg import InputError
from .surface_group import (
    _first_occurrences,
    _least_rotations,
    conjugacy_canonical_rows,
)
# not called here: benchmark/test_harness.py reads spectra.conjugacy_canonical
from .surface_group import conjugacy_canonical  # noqa: F401

MIN_WINDOW_COUNT = 100
CRITICAL_EXPONENT_TOL = 1e-10
SCAN_STEP = 0.1
TRACE_GROUP_TOL = 1e-7


@dataclass
class LengthFunctional:
    """Per-class length functional: last-root or perturbed (hyperbolic
    length is `LengthSpectrum.lengths()` without one)."""

    tag: str
    scale: float = 0.0  # s for perturbed(s)

    @classmethod
    def last_root(cls):
        return cls("last_root")

    @classmethod
    def perturbed(cls, s):
        return cls("perturbed", float(s))


@dataclass
class LengthSpectrum:
    """The conjugacy classes of length ≤ `radius` as columns, sorted by
    (ℓ_hyp, word): canonical words as tuples, arrays of |trace|, lengths
    and one cocycle's α (NaN without one), and (n, p) tables of the
    E-eigenvalues λ and their inverses λ̄."""

    p: int
    radius: float
    ball_radius: float
    words: list
    traces: np.ndarray
    length_hyp: np.ndarray
    length_lastroot: np.ndarray
    lambdas: np.ndarray
    lambdas_bar: np.ndarray
    dropped: int
    alphas: np.ndarray

    def __len__(self):
        return len(self.words)

    @property
    def records(self):
        """One object with a `.word` per class, in spectrum order. Only
        benchmark/session.py reads it; once it reads `words`, this goes."""
        return [SimpleNamespace(word=word) for word in self.words]

    def lengths(self, functional=None):
        """Array of per-class values of a length functional; the stored
        column itself for hyperbolic and last-root length."""
        if functional is None:
            return self.length_hyp
        if functional.tag == "last_root":
            return self.length_lastroot
        if functional.tag == "perturbed":
            values = self.length_hyp + functional.scale * 0.5 * self.alphas
            if np.any(~np.isfinite(values)):
                raise InputError("perturbed lengths need a cocycle-bearing spectrum")
            if values.min() <= 0:
                worst = self.words[int(np.argmin(values))]
                raise InputError(f"perturbed length nonpositive for class {worst}")
            return values
        raise InputError(f"unknown functional {functional.tag}")


def length_spectrum(rho, ball, basis, *, radius):
    """Assemble the conjugacy-class spectrum from an orbit ball.

    Classes are the canonical cyclic words of ball elements with
    translation length ≤ `radius`; γ and γ⁻¹ are distinct classes and
    both retained. Completeness below `radius` relies on the ball
    reaching radius + margin and is certified by the margin-doubling
    stabilization test (see tests); a class that is not hyperbolic or
    whose eigenbasis is degenerate is counted once in `dropped` (must be
    zero for acceptance), and any error propagates.

    The classes come from `_ball_classes`, which reads the ball's letter
    array and canonicalizes the distinct cyclic words in one batched
    call; their columns from `_class_columns`, from one stacked eigenbasis
    of the classes' SL(2,R) products. Nothing is kept between calls. The
    α column is NaN; `spectrum_with_alpha` attaches a cocycle's.

    Parameters
    ----------
    rho : Representation
        The (2p-1)-dimensional principal representation (with SL(2,R) base).
    ball : BallEnumeration
    basis : PrincipalBasis
    radius : float
        Class-length cutoff; required, keyword only.
    """
    words, lengths = _ball_classes(ball, radius)[:2]
    columns, dropped = _class_columns(words, lengths, rho.base, basis.p)
    return LengthSpectrum(
        p=basis.p, radius=float(radius), ball_radius=ball.radius, **columns,
        dropped=dropped, alphas=np.full(len(columns["words"]), math.nan),
    )


def _ball_classes(ball, radius):
    """Conjugacy classes of the hyperbolic ball elements of translation
    length ≤ `radius`.

    Returns (words, lengths, class_of, traces): the distinct canonical
    words in order of first occurrence in the ball, as zero-padded int8
    rows and their lengths, and for each such element in ball order the
    index of its class and its |trace|.

    The elements and their cyclic words are the arrays of
    `ball.closed_orbits`. The canonical word depends only on the cyclic
    word, so the distinct least rotations (`_cyclic_keys`) are
    canonicalized, in one `conjugacy_canonical_rows` call on the key
    arrays.
    """
    traces, cyclic, lengths = ball.closed_orbits(radius)
    keys, key_lengths, key_of = _cyclic_keys(cyclic, lengths)
    words, word_lengths = conjugacy_canonical_rows(keys, key_lengths, ball.presentation)
    firsts, class_of_key = _first_occurrences(words)
    return words[firsts], word_lengths[firsts], class_of_key[key_of], traces


def _cyclic_keys(cyclic, lengths):
    """Distinct least rotations of cyclic words, in order of first
    occurrence, and the index into them of each word.

    Row j of the int8 `cyclic` holds a word in its first lengths[j]
    columns. Rows are grouped by length and the least rotation of every
    row of a group is found at once (`_least_rotations`); the rows are
    then deduplicated over their bytes (`_first_occurrences`). Returns
    (keys, key_lengths, key_of), the keys zero-padded as `cyclic` is.
    """
    least = np.zeros_like(cyclic)
    for n in np.unique(lengths).tolist():
        rows = np.flatnonzero(lengths == n)
        least[rows, :n] = _least_rotations(cyclic[rows, :n])
    firsts, key_of = _first_occurrences(least)
    return least[firsts], lengths[firsts], key_of


def _class_columns(words, lengths, sl2, p):
    """The `LengthSpectrum` columns of classes given as zero-padded int8
    rows and their lengths, from each class's SL(2,R) eigenvalue λ alone:
    (columns, dropped), the columns a dict sorted by (ℓ_hyp, word).

    The SL(2,R) products are stacked per word length
    (`Representation.products`, the bits of `evaluate`); one
    `hyperbolic_eigenbases` call over all of them gives λ and drops,
    row by row, a class that is not hyperbolic or whose eigenbasis is
    degenerate. On the Fuchsian locus the E-eigenvalues are
    λ^(±2(p-i)), i = 1..p, the same powers `eigendata_fuchsian` writes;
    they are Python float `**`, whose bits numpy's array `**` does not
    always give. The lengths are 2·arccosh(|trace|/2) and
    log λ_{p-1} + log λ_p (λ_p = λ^0 = 1).
    """
    products = np.empty((len(lengths), 2, 2))
    for n in np.unique(lengths).tolist():
        rows = np.flatnonzero(lengths == n)
        products[rows] = sl2.products(words[rows, :n])
    traces = np.abs(products[:, 0, 0] + products[:, 1, 1])
    _, lams, ok = hyperbolic_eigenbases(products)
    lams = lams[ok].tolist()
    traces = traces[ok]
    powers = [2 * (p - i) for i in range(1, p + 1)]
    lambdas = np.array([[lam ** k for k in powers] for lam in lams]).reshape(-1, p)
    lambdas_bar = np.array([[lam ** -k for k in powers] for lam in lams]).reshape(-1, p)
    length_hyp = 2.0 * np.arccosh(traces / 2.0)
    words = [tuple(word[:n]) for word, n in zip(words[ok].tolist(), lengths[ok].tolist())]
    keys = list(zip(length_hyp.tolist(), words))
    order = sorted(range(len(words)), key=keys.__getitem__)
    columns = {
        "words": [words[i] for i in order],
        "traces": traces[order],
        "length_hyp": length_hyp[order],
        "length_lastroot": (np.log(lambdas[:, p - 1]) + np.log(lambdas[:, p - 2]))[order],
        "lambdas": lambdas[order],
        "lambdas_bar": lambdas_bar[order],
    }
    return columns, int(np.count_nonzero(~ok))


def multi_alphas(spectrum, rho, basis, omegas):
    """Margulis invariants of several cocycles over one spectrum.

    Returns an (n_classes, n_cocycles) array from one batched
    `margulis_invariants` call over the class words: the neutral sections
    are built once per rotation of each class, stacked across all classes
    of a word length, and shared across cocycles.
    """
    return margulis_invariants(rho, omegas, spectrum.words, basis)


def spectrum_with_alpha(spectrum, alphas):
    """The spectrum with its α column replaced by a copy of `alphas`, one
    value per class; every other column is shared, not copied."""
    return replace(spectrum, alphas=np.array(alphas, dtype=float))


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


def entropy_estimate(values, window, step=0.25):
    """Least-squares slope of log N(T) against T over a window.

    `values` is the multiset of lengths (class or orbit-point). N(T) is
    its counting function; windows with fewer than MIN_WINDOW_COUNT values
    raise, naming the window and the count found. The window must end
    within the enumerated radius (the CLI checks its configuration).
    """
    values = np.sort(np.asarray(values, float))
    t0, t1 = window
    if t1 - t0 < 2.0:
        raise InputError("window must span at least 2")
    grid = _window_grid(window, step)
    counts = np.searchsorted(values, grid, side="right")
    in_window = int(counts[-1] - np.searchsorted(values, t0, side="left"))
    if in_window < MIN_WINDOW_COUNT:
        raise InputError(
            f"too few values in window [{t0}, {t1}]: {in_window} found, "
            f"{MIN_WINDOW_COUNT} needed"
        )
    if counts[0] < 1:
        raise InputError(f"empty counting function at T0 = {t0}")
    logs = np.log(counts.astype(float))
    coeffs, residuals, *_ = np.polyfit(grid, logs, 1, full=True)
    slope = float(coeffs[0])
    rms = float(np.sqrt(residuals[0] / len(grid))) if len(residuals) else 0.0
    return EntropyEstimate(estimate=slope, window=(float(t0), float(t1)),
                           residual=rms, count=int(counts[-1]))


def critical_exponent(values, window):
    """Critical exponent of the truncated Poincaré series Σ e^{-s·value}.

    Finds the s at which the two half-window partial sums balance (below
    the critical exponent the far half dominates, above it the near half
    does); bisection on [0, 6] to width CRITICAL_EXPONENT_TOL. Raises
    InputError, naming the window and both half counts, when either half
    holds fewer than MIN_WINDOW_COUNT // 2 values.
    """
    values = np.asarray(values, float)
    t0, t1 = window
    tm = 0.5 * (t0 + t1)
    near = values[(values > t0) & (values <= tm)]
    far = values[(values > tm) & (values <= t1)]
    if len(near) < MIN_WINDOW_COUNT // 2 or len(far) < MIN_WINDOW_COUNT // 2:
        raise InputError(
            f"too few values in window [{t0}, {t1}] for the critical exponent: "
            f"{len(near)} in ({t0}, {tm}] and {len(far)} in ({tm}, {t1}], "
            f"{MIN_WINDOW_COUNT // 2} needed in each half"
        )

    def imbalance(s):
        return np.exp(-s * (far - tm)).sum() - np.exp(-s * (near - tm)).sum()

    lo, hi = 0.0, 6.0
    if imbalance(lo) < 0:
        return EntropyEstimate(0.0, (t0, t1), math.inf, len(values))
    while hi - lo > CRITICAL_EXPONENT_TOL:
        mid = 0.5 * (lo + hi)
        if imbalance(mid) > 0:
            lo = mid
        else:
            hi = mid
    s = 0.5 * (lo + hi)
    return EntropyEstimate(estimate=float(s), window=(float(t0), float(t1)),
                           residual=0.0, count=int(len(near) + len(far)))


def bm_average(spectrum, window, weighted=False):
    """Window average approximating the Bowen-Margulis integral.

    Σ α(γ) / Σ ℓ(γ) over classes with T0 ≤ ℓ ≤ T1, α the stored Margulis
    invariant (long closed orbits equidistribute toward the measure of
    maximal entropy). With `weighted`, classes are weighted e^{-ℓ} (the
    Poincaré-series weighting at the critical exponent 1), a robustness
    cross-check.
    """
    t0, t1 = window
    lengths = spectrum.lengths()
    mask = (lengths >= t0) & (lengths <= t1)
    if not mask.any():
        raise InputError("empty window for bm_average")
    obs = spectrum.alphas[mask]
    if np.any(~np.isfinite(obs)):
        raise InputError("spectrum carries no Margulis invariants")
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
    rates = spectrum.alphas[mask] / lengths[mask]
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


def perturbed_entropy_scan(spectrum, s_grid, window):
    """Entropy estimates of the first-order perturbed spectrum ℓ + s·α/2.

    The positivity precondition |s|·max|α|/min ℓ < 1 is enforced by the
    functional evaluation; the central slope is taken between the extreme
    grid points around 0. The fits' grid step SCAN_STEP is finer than
    entropy_estimate's 0.25: it averages the threshold-crossing noise
    that dominates central differences of counting fits.
    """
    s_grid = sorted(float(s) for s in s_grid)
    table = []
    for s in s_grid:
        values = spectrum.lengths(LengthFunctional.perturbed(s))
        table.append((s, entropy_estimate(values, window, SCAN_STEP)))
    base = entropy_estimate(spectrum.lengths(), window, SCAN_STEP).estimate
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
    λ_i λ_j (i < j ≤ p) while staying > 1. The classes are checked
    together on the stacked (n_classes, p) tables of λ and λ̄; a minimum
    over no classes, or over no other products (p = 2), is inf.
    """
    p, lam, lam_bar = spectrum.p, spectrum.lambdas, spectrum.lambdas_bar
    row_gaps = (-np.diff(lam, axis=1)).min(axis=1)
    last_root = lam[:, p - 2] * lam[:, p - 1]
    i, j = np.triu_indices(p, 1)
    others = i < p - 2  # every pair i < j but the last root's (p-2, p-1)
    product_gaps = (lam[:, i[others]] * lam[:, j[others]]).min(
        axis=1, initial=math.inf) - last_root
    return GapReport(
        classes=len(spectrum),
        unit_middle_violations=int(np.count_nonzero(np.abs(lam[:, p - 1] - 1.0) > tol)),
        pairing_violations=int(np.count_nonzero(
            np.abs(lam * lam_bar - 1.0).max(axis=1) > tol)),
        ordering_violations=int(np.count_nonzero(row_gaps <= tol)),
        product_gap_violations=int(np.count_nonzero(last_root <= 1.0 + tol)
                                   + np.count_nonzero(product_gaps <= tol)),
        min_ordering_gap=float(row_gaps.min(initial=math.inf)),
        min_product_gap=float(product_gaps.min(initial=math.inf)),
    )


def counting_consistency(spectrum, ball):
    """Cross-check canonicalization against holonomy traces.

    Every ball element maps into some canonical class; within a class all
    |traces| must agree (canonical moves preserve conjugacy exactly).
    Distinct classes may legitimately share a trace (inverses, isometry
    symmetry), so only intra-class disagreement counts as a violation.
    The elements and their classes come from `_ball_classes`, as in
    `length_spectrum`, one batched canonicalization on the ball's key
    arrays; trace groups are formed from the trace of each class's first
    element in ball order.

    Returns (n_classes, n_trace_groups, violations).
    """
    words, _, class_of, traces = _ball_classes(ball, spectrum.radius)
    high = np.full(len(words), -math.inf)
    low = np.full(len(words), math.inf)
    np.maximum.at(high, class_of, traces)
    np.minimum.at(low, class_of, traces)
    violations = int(np.count_nonzero(high - low > 1e-9 * high))
    _, first = np.unique(class_of, return_index=True)
    all_traces = np.sort(traces[first]).tolist()
    groups = 1 if all_traces else 0
    for a, b in zip(all_traces, all_traces[1:]):
        if b - a > TRACE_GROUP_TOL * max(1.0, b):
            groups += 1
    return len(words), groups, violations

