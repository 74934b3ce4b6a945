"""Explicit genus-2 Fuchsian geometry: octagon generators, lengths, orbits.

The model surface is the quotient of the hyperbolic plane by the group
generated by the side pairings of the regular octagon with all vertex
angles π/4, centered at the basepoint o = i of the upper half-plane. The
four pairing translations are rotation conjugates of a single hyperbolic
translation and satisfy the genus-2 commutator relation exactly; the
construction is closed-form and self-checked at 1e-9.

The group lies in SL(2) of the quartic field Q(θ), f(θ) = θ⁴ + 8θ³ +
12θ² + 16θ + 4 = 0: OCTAGON_ENTRIES holds 8·(each generator entry) in Z[θ]
(Takeuchi, J. Math. Soc. Japan 27, 1975, for the arithmetic background).

Ball enumeration is a level-by-level search over words, pruned at the
ball's own radius (the octagon is the Dirichlet domain of o, so every
ball element has a neighbour in the ball closer to o; proof in
`enumerate_ball`). A child is new exactly when it lies farther from o
than its parent, a float comparison with a gap of 4·sinh² of the apothem
(proof in `enumerate_ball`), so no earlier level is looked up. Inside a
level, children are deduplicated by exact keys: the entries' residues
modulo two primes at which f has a root. Equal keys mean equal elements
at search horizons up to KEY_HORIZON (proof in `enumerate_ball`), so
there is no tolerance and no merge pass. Keys are sorted by their first
64-bit column, and every hash tie is confirmed on the whole key. Words
are int8 letter arrays during the search and in the returned ball, and
the closed orbits with their cyclic words (`BallEnumeration.closed_orbits`)
are selected and peeled on the arrays. The ball's sorted distances are
built at once; its order of matrices and words is assembled on first
read, so counting never sorts the ball. The traversal is
level-synchronous with canonical tie-breaks, so the output is
independent of internal evaluation order.
"""

import math
from functools import cached_property

import numpy as np

from .linalg import InputError, NumericalFailure
from .surface_group import GroupPresentation, _peeled

# smallest |trace| margin accepted as hyperbolic
HYPERBOLIC_MARGIN = 1e-12

# largest relator residual octagon_group accepts
OCTAGON_RELATOR_TOL = 1e-9

# 8·(a, b, c, d) of each generator in the basis 1, θ, θ², θ³ of Z[θ], where
# θ = 2·g_a[0,0] ≈ −6.5218 is a root of f = θ⁴ + 8θ³ + 12θ² + 16θ + 4
OCTAGON_ENTRIES = {
    1: ((0, 4, 0, 0), (0, 4, 0, 0), (32, 24, 16, 2), (-32, -24, -16, -2)),
    2: ((-36, -22, -22, -3), (16, 10, 8, 1), (-16, -10, -8, -1), (4, 2, 6, 1)),
    3: ((-32, -24, -16, -2), (-32, -24, -16, -2), (0, -4, 0, 0), (0, 4, 0, 0)),
    4: ((4, 2, 6, 1), (16, 10, 8, 1), (-16, -10, -8, -1), (-36, -22, -22, -3)),
}

# (prime, root of f modulo the prime) of the two residue keys
KEY_PRIMES = ((2147483543, 1728828756), (2147483489, 911795266))

# largest radius + slack at which equal keys mean equal elements:
# 2^17·cosh(KEY_HORIZON) < p₁p₂ (see enumerate_ball)
KEY_HORIZON = 31.88

# largest orbit count (cosh H − 1)/2 at H = radius + slack enumerate_ball
# takes. Budget: 4 GB, half of the 8 GB machine the lab is sized for. At
# slack 0 every explored element is kept; the peak RSS of a process that
# builds one ball and reads its order, over its 30 MB base, measured 119
# to 161 B per element at R = 13 to 16.5 (2-core Xeon, numpy 2.4.6). At
# 270 B per element the largest admitted ball (horizon 17.84) peaks near
# 1.4e7 · 270 B + 32 MB ≈ 3.8 GB. These figures cover the commands that
# read the ball order: the class-spectrum commands (spectrum, margulis,
# scan, entropy from classes), which build one ball at radius + margin
# and then their classes, measured end to end 122 B (spectrum --p 3) and
# 150 B (margulis --p 3) per ball element at R = 16, and 233 B at R = 17
# (margulis --p 3, not measured again), and the samplers, whose balls are
# small. `entropy` from elements reads only the sorted distances and
# peaked at 102 and 93 B per element at R = 14 and 15.
MAX_BALL_ELEMENTS = 14_000_000


def rotation(theta):
    """SL(2,R) rotation about i by Möbius angle theta."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, s], [-s, c]])


def translation(t):
    """SL(2,R) translation along the imaginary axis by distance t."""
    e = np.exp(t / 2.0)
    return np.array([[e, 0.0], [0.0, 1.0 / e]])


# geometry of the regular octagon with vertex angle π/4
APOTHEM = float(np.arccosh(1.0 / np.tan(np.pi / 8.0)))


def octagon_group():
    """Generators of the genus-2 octagon group and its presentation.

    The regular π/4-octagon is centered at o = i with side midpoints in
    tangent directions kπ/4. Sides are glued in the standard genus-2
    pattern (0↔2, 1↔3, 4↔6, 5↔7); the pairing translation for the first
    pair maps the frame at the midpoint of side 2 (counterclockwise
    boundary direction) to the frame at the midpoint of side 0 (clockwise),
    and the remaining pairings are its conjugates under the octagon's
    rotational symmetry. Ordered and inverted so the commutator relator
    evaluates to the identity.

    Returns
    -------
    presentation : GroupPresentation
        Genus-2 presentation on labels a1, b1, a2, b2.
    generators : dict
        Positive letter -> SL(2,R) matrix.

    Raises
    ------
    NumericalFailure
        If the relator residual exceeds OCTAGON_RELATOR_TOL (construction
        self-check).
    """
    frame_side2_ccw = rotation(np.pi / 2) @ translation(APOTHEM) @ rotation(np.pi / 2)
    frame_side0_cw = translation(APOTHEM) @ rotation(-np.pi / 2)
    g_a = frame_side0_cw @ np.linalg.inv(frame_side2_ccw)

    def conj(theta, m):
        r = rotation(theta)
        return r @ m @ np.linalg.inv(r)

    generators = {
        1: g_a,
        2: np.linalg.inv(conj(np.pi / 4, g_a)),
        3: conj(np.pi, g_a),
        4: np.linalg.inv(conj(5 * np.pi / 4, g_a)),
    }
    presentation = GroupPresentation.genus2()
    holonomy = np.eye(2)
    for letter in presentation.relator:
        g = generators[abs(letter)]
        holonomy = holonomy @ (g if letter > 0 else np.linalg.inv(g))
    residual = np.abs(holonomy - np.eye(2)).max()
    if residual > OCTAGON_RELATOR_TOL:
        raise NumericalFailure(
            f"octagon relator residual {residual:.3e} > {OCTAGON_RELATOR_TOL:.0e}"
        )
    return presentation, generators


def translation_length(m):
    """Translation length 2·arccosh(|tr M|/2) of a hyperbolic element."""
    tr = abs(float(np.trace(m)))
    if tr <= 2.0 + HYPERBOLIC_MARGIN:
        raise NumericalFailure(f"non-hyperbolic element, |trace| = {tr}")
    return 2.0 * float(np.arccosh(tr / 2.0))


def sl2_eigenbasis(m):
    """Eigenbasis (h, λ) of a hyperbolic SL(2,R) matrix, M = ±h·diag(λ,1/λ)·h⁻¹.

    h has determinant +1 with the attracting eigenvector first and λ > 1.
    Closed-form and stable; the PSL sign ambiguity is absorbed into ±.

    Stacked: `m` is one (2, 2) matrix, giving (h, float λ), or an
    (N, 2, 2) stack, giving (h of shape (N, 2, 2), λ of shape (N,)). The
    values are those of `hyperbolic_eigenbases`; a non-hyperbolic matrix
    or a degenerate eigenbasis anywhere in the stack raises
    NumericalFailure, a non-hyperbolic one first.
    """
    m = np.asarray(m, float)
    h, lams, ok = hyperbolic_eigenbases(m)
    if not ok.all():
        for a, d in m.reshape(-1, 4)[:, [0, 3]].tolist():
            if abs(a + d) <= 2.0 + HYPERBOLIC_MARGIN:
                raise NumericalFailure(f"non-hyperbolic element, |trace| = {abs(a + d)}")
        raise NumericalFailure("eigenbasis degenerate (nearly parabolic element)")
    if m.ndim == 2:
        return h[0], float(lams[0])
    return h, lams


def hyperbolic_eigenbases(m):
    """Eigenbases of a stack of SL(2,R) matrices, row by row: (h, λ, ok).

    `m` is (N, 2, 2), or one (2, 2) matrix taken as a one-element stack;
    h is (N, 2, 2) and λ and ok are (N,). A row that is not hyperbolic
    (|trace| ≤ 2 + HYPERBOLIC_MARGIN) or whose eigenbasis is degenerate
    (|det| < 1e-14 before normalization) has ok False and NaN in h and
    λ; the other rows are as `sl2_eigenbasis` describes.

    One array pass for every stack size. Per eigenvalue μ = λ, 1/λ of a
    positive-trace row [[a, b], [c, d]] the candidates (b, μ − a) and
    (μ − d, c) are normed by the BLAS dot that np.linalg.norm uses on a
    vector, the longer one over its norm is the column, and the stacked
    determinant of the two columns fixes the orientation and the scale.
    Elementwise float64 operations round per entry, so each matrix of a
    stack gets the bits it gets alone.
    """
    m = np.asarray(m, float).reshape(-1, 2, 2)
    tr = m[:, 0, 0] + m[:, 1, 1]
    atr = np.abs(tr)
    rows = np.flatnonzero(~(atr <= 2.0 + HYPERBOLIC_MARGIN))
    atr = atr[rows]
    signed = m[rows]
    np.negative(signed, out=signed, where=(tr[rows] < 0)[:, None, None])
    a, b, c, d = signed.reshape(-1, 4).T
    lam = (atr + np.sqrt(atr * atr - 4.0)) / 2.0
    inv = 1.0 / lam
    # (row, eigenvalue, candidate, component)
    candidates = np.stack([b, lam - a, lam - d, c, b, inv - a, inv - d, c],
                          axis=1).reshape(-1, 2, 2, 2)
    vectors = candidates.reshape(-1, 2)
    norms = np.sqrt(vectors[:, None, :] @ vectors[:, :, None]).reshape(-1, 2, 2)
    longer = norms[:, :, 0] >= norms[:, :, 1]
    # (row, eigenvalue, component): the longer candidate over its norm
    columns = (np.where(longer[..., None], candidates[:, :, 0], candidates[:, :, 1])
               / np.where(longer, norms[:, :, 0], norms[:, :, 1])[..., None])
    det = np.linalg.det(columns.transpose(0, 2, 1))
    good = ~(np.abs(det) < 1e-14)
    np.negative(columns[:, 1], out=columns[:, 1], where=(det < 0)[:, None])
    root = np.sqrt(np.abs(det[good]))
    kept = rows[good]
    ok = np.zeros(len(m), dtype=bool)
    ok[kept] = True
    bases = np.full((len(m), 2, 2), math.nan)
    bases[kept] = columns[good].transpose(0, 2, 1) / root[:, None, None]
    eigenvalues = np.full(len(m), math.nan)
    eigenvalues[kept] = lam[good]
    return bases, eigenvalues, ok


def _canonical_line(v):
    v = np.asarray(v, float)
    v = v / np.linalg.norm(v)
    lead = v[np.argmax(np.abs(v))]
    return v if lead > 0 else -v


def fixed_points(m):
    """(attracting, repelling) fixed lines on P¹(R), as unit 2-vectors."""
    h, _ = sl2_eigenbasis(m)
    return _canonical_line(h[:, 0]), _canonical_line(h[:, 1])


def boundary_separation(u, v):
    """|sin angle| between two boundary points given as P¹ lines."""
    u, v = np.asarray(u, float), np.asarray(v, float)
    return abs(u[0] * v[1] - u[1] * v[0]) / (np.linalg.norm(u) * np.linalg.norm(v))


class BallEnumeration:
    """Orbit ball: group elements γ with d(o, γo) ≤ T.

    Each element appears once, spelled by the code-smallest of its
    shortest words (see `enumerate_ball`). −I is not in
    the group, so each isometry has one matrix here. `distances` is
    sorted, and `matrices`, `letters` and `word_lengths` are aligned with
    it in ball order: sorted by (distance, word length, word).

    `letters` holds each word as an int8 row of letters (±1..±4),
    zero-padded to the longest word, and `word_lengths` its length.

    A ball from `enumerate_ball` holds its sorted `distances` and the
    search's per-level blocks. The first read of `matrices`, `letters` or
    `word_lengths` assembles all three in ball order and drops the blocks,
    so `len`, `count` and the entropy estimates never sort the ball. A
    ball built directly is given all four arrays in ball order, and no
    presentation.
    """

    def __init__(self, radius, matrices, distances, letters, word_lengths):
        self.radius = radius
        self.distances = distances
        self.presentation = None
        self.matrices, self.letters, self.word_lengths = matrices, letters, word_lengths

    @classmethod
    def _from_levels(cls, radius, level_mats, level_dists, level_words, presentation):
        """A ball whose order is assembled on first read, from the search's
        levels: entry-major (4, n) matrices, distances and (n, depth) int8
        words, each level in code-lexicographic word order."""
        ball = cls.__new__(cls)
        ball.radius, ball.presentation = float(radius), presentation
        dists = np.concatenate(level_dists)
        # the distance is the first sort key of the ball order, and equal
        # floats ≥ +0 have equal bytes: these are the ordered distances
        ball.distances = np.sort(dists)
        ball._levels = (level_mats, dists, level_words)
        return ball

    def _assemble(self):
        """Set `matrices`, `letters` and `word_lengths` in ball order from
        the level blocks, and drop the blocks: one lexsort by (distance,
        word length, word) over the concatenated, zero-padded levels."""
        level_mats, dists, level_words = vars(self).pop("_levels")
        mats = np.concatenate(level_mats, axis=1)
        del level_mats
        word_lengths = np.repeat([level.shape[1] for level in level_words],
                                 [len(level) for level in level_words])
        padded = np.zeros((len(dists), level_words[-1].shape[1]), dtype=np.int8)
        start = 0
        for level in level_words:
            padded[start:start + len(level), :level.shape[1]] = level
            start += len(level)
        del level_words
        order = np.lexsort(tuple(padded.T[::-1]) + (word_lengths, dists))
        del dists
        self.matrices = np.ascontiguousarray(mats.T[order]).reshape(-1, 2, 2)
        del mats
        self.letters, self.word_lengths = padded[order], word_lengths[order]

    @cached_property
    def matrices(self):
        """(N, 2, 2) matrices in ball order."""
        self._assemble()
        return vars(self)["matrices"]

    @cached_property
    def letters(self):
        """(N, width) int8 letter rows in ball order, zero-padded."""
        self._assemble()
        return vars(self)["letters"]

    @cached_property
    def word_lengths(self):
        """(N,) word lengths in ball order."""
        self._assemble()
        return vars(self)["word_lengths"]

    def __len__(self):
        return len(self.distances)

    def count(self, radius):
        """N(T') = number of elements with d(o, γo) ≤ T', for T' ≤ T."""
        if not radius <= self.radius + 1e-12:  # NaN fails it too
            raise InputError("count requested beyond the enumerated radius")
        return int(np.searchsorted(self.distances, radius, side="right"))

    def cyclic_words(self):
        """The sorted distinct cyclically reduced words of the hyperbolic
        elements: the samplers' pools.

        The rows of `closed_orbits` at no cutoff, read as tuples through a
        memoryview of its letter array.
        """
        _, cyclic, lengths = self.closed_orbits(math.inf)
        width = cyclic.shape[1]
        flat = memoryview(cyclic.reshape(-1))
        return sorted({tuple(flat[i * width:i * width + n])
                       for i, n in enumerate(lengths.tolist())})

    def closed_orbits(self, radius):
        """|trace|, cyclic word and its length of each hyperbolic element
        of translation length ≤ `radius`, in ball order, as arrays.

        The one rule for which ball elements are closed orbits: a |trace|
        bound over all of `matrices` at once (relative margin 1e-9), then
        the test 2·acosh(t/2) ≤ radius + HYPERBOLIC_MARGIN, on arrays for
        the bounded candidates and by the scalar `math.acosh` for those
        within 1e-12 relative of the cut, so every decision is the scalar
        rule's. Ball words are freely reduced, so peeling the
        wrap-around cyclically reduces them (`_peeled`); no matrix is
        evaluated and no tuple is built. Row j of the int8 `cyclic` holds
        its word in the first `lengths[j]` columns, zero-padded.
        """
        traces = self.matrices[:, 0, 0] + self.matrices[:, 1, 1]
        np.abs(traces, out=traces)
        cut = radius + HYPERBOLIC_MARGIN
        bound = 2.0 * math.cosh(0.5 * cut) * (1.0 + 1e-9)
        rows = np.flatnonzero((traces > 2.0 + HYPERBOLIC_MARGIN) & (traces <= bound))
        lengths = 2.0 * np.arccosh(traces[rows] / 2.0)
        inside = lengths <= cut
        # the array arccosh may round otherwise than math.acosh by an ulp
        # or so: lengths this near the cut take the scalar rule's decision
        near = np.flatnonzero((lengths > cut * (1.0 - 1e-12))
                              & (lengths <= cut * (1.0 + 1e-12)))
        inside[near] = [2.0 * math.acosh(t / 2.0) <= cut
                        for t in traces[rows[near]].tolist()]
        rows = rows[inside]
        cyclic, lengths = _peeled(self.letters[rows], self.word_lengths[rows])
        return traces[rows], cyclic, lengths


def _letter_residues(generators):
    """Entries a, b, c, d of the 2n letters modulo each key prime.

    Returns an (8, 2n) int64 table: rows a, b, c, d mod p₁, then mod p₂;
    columns in letter-code order, an inverse letter taking the residues of
    the adjugate (d, −b, −c, a). Raises InputError unless `generators` are
    the octagon's to 1e-12, since the residues are those of
    OCTAGON_ENTRIES.
    """
    _, octagon = octagon_group()
    if sorted(generators) != sorted(octagon) or max(
        np.abs(np.asarray(generators[k], float) - m).max() for k, m in octagon.items()
    ) > 1e-12:
        raise InputError("the ball's exact keys need the octagon generators")
    rows = []
    for p, root in KEY_PRIMES:
        powers = [pow(root, i, p) for i in range(4)]
        eighth = pow(8, -1, p)
        positive = [
            [sum(c * r for c, r in zip(entry, powers)) * eighth % p
             for entry in OCTAGON_ENTRIES[k]]
            for k in sorted(OCTAGON_ENTRIES)
        ]
        inverse = [[d, -b % p, -c % p, a] for a, b, c, d in positive]
        rows += zip(*positive, *inverse)
    return np.array(rows, dtype=np.int64)


# children keyed per chunk, which bounds the int64 temporaries
_KEY_CHUNK = 4096


def _child_keys(parent_keys, parent_rows, codes, residues):
    """Exact keys of the products parent·letter, (n, 4) int64.

    Child i is the parent at row `parent_rows[i]` of the parent level's
    keys `parent_keys` times the letter `codes[i]`; `residues` is the
    `_letter_residues` table. Each key holds 8 int32 values, a, b, c, d
    mod p₁ then mod p₂. Chunks are laid out entry-major (8 × chunk), so
    each step runs on contiguous rows; products stay below 2·(p − 1)² <
    2^63.
    """
    out = np.empty((len(parent_rows), 8), dtype=np.int32)
    parents = parent_keys.view(np.int32)
    for start in range(0, len(parent_rows), _KEY_CHUNK):
        chunk = slice(start, start + _KEY_CHUNK)
        left = np.take(parents, parent_rows[chunk], axis=0).T.astype(np.int64, order="C")
        right = np.take(residues, codes[chunk], axis=1)
        child = np.empty_like(left)
        quotient = np.empty_like(left[0])
        for j, (p, _) in enumerate(KEY_PRIMES):
            for i in range(2):
                for k in range(2):
                    entry = child[4 * j + 2 * i + k]
                    np.multiply(left[4 * j + 2 * i], right[4 * j + k], out=entry)
                    entry += left[4 * j + 2 * i + 1] * right[4 * j + 2 + k]
                    # entry mod p: floor division by a scalar is faster
                    # than the remainder, and entries are nonnegative
                    np.floor_divide(entry, p, out=quotient)
                    quotient *= p
                    entry -= quotient
        out[chunk] = child.T
    return out.view(np.int64)


def _key_hash(keys):
    """The first int64 column of each key: residues are already uniform.

    Only a sort order: equal hashes are always confirmed on the exact
    keys, so the ball does not depend on this function.
    """
    return keys[:, 0]


def _stable_argsort(values):
    """`np.argsort(values, kind="stable")` from one default sort, and the
    mask of sorted positions whose value equals the next one.

    The default sort is several times faster on 64-bit integers but
    leaves the order of equal values open. Inside each run of equal
    values the indices are put back in input order by one sort of the
    distinct numbers run·n + index (below 2^63 for n < 3·10⁹), which
    gives exactly the stable order.
    """
    order = np.argsort(values)
    ordered = values[order]
    ties = ordered[1:] == ordered[:-1]
    if ties.any():
        n = len(order)
        follows = np.concatenate(([False], ties))
        at = np.flatnonzero(follows | np.concatenate((ties, [False])))
        run = np.cumsum(~follows[at])
        packed = run * n + order[at]
        packed.sort()
        order[at] = packed % n
    return order, ties


def _first_occurrences(hashes, keys):
    """Indices of the first occurrence of each distinct key, in hash order.

    The order is the stable one (`_stable_argsort`, or `np.lexsort` when
    two different keys share a hash), so within a group of equal keys the
    element that comes first in the input is kept.
    """
    order, ties = _stable_argsort(hashes)
    pairs = np.flatnonzero(ties)
    same = (keys[order[pairs + 1]] == keys[order[pairs]]).all(axis=1)
    if not same.all():
        # two different keys share a hash: order exactly within each hash
        order = np.lexsort(tuple(keys.T[::-1]) + (hashes,))
        pairs = np.flatnonzero(hashes[order[1:]] == hashes[order[:-1]])
        same = (keys[order[pairs + 1]] == keys[order[pairs]]).all(axis=1)
    first = np.ones(len(order), dtype=bool)
    first[pairs[same] + 1] = False
    return order[first]


def enumerate_ball(generators, radius, slack=0.0, presentation=None):
    """Enumerate the orbit ball of radius `radius` around o = i.

    Level-by-level search over words pruned at orbit distance radius +
    slack: level L holds the elements first reached by words of L
    letters. A child t·s of a level-(L − 1) element t is formed only when
    it lies farther from o than t, ‖t·s‖² > ‖t‖², one more comparison in
    the Gram prefilter that bounds its norm; every other child lies at
    level L − 2 (proof below), so no earlier level is held or looked up.
    Inside the level, children are deduplicated by exact keys: the
    residues of the entries modulo the two KEY_PRIMES (see
    `_child_keys`), sorted by their first int64 column, every hash tie
    confirmed on the whole key. Only the parent level's keys are held.
    Each level is kept in code-lexicographic word order, so the element
    kept for a key is the code-smallest of its shortest words (a1 < b1 <
    a2 < b2 < a1⁻¹ < … < b2⁻¹). A level's matrices are entry-major and
    its temporaries are released before the next level allocates. Words
    are int8 letter rows throughout.

    The returned ball is built in two stages. At once: its `distances`,
    one sort of the kept levels' distances. On the first read of
    `matrices`, `letters` or `word_lengths`: all three, in ball order, by
    one lexsort of the levels (`BallEnumeration`). Counting and the
    entropy estimates read only the distances.

    Why pruning at the radius reaches the whole ball (Dirichlet descent;
    Beardon, The Geometry of Discrete Groups, §9.4). The octagon D is the
    Dirichlet domain of o: each side of D lies on the perpendicular
    bisector of o and s·o for the letter s whose tile s·D lies across it
    (tested from the exact entries). Let g ≠ e. The tiles have disjoint
    interiors and o is interior to D, so o ∉ g·D, and g·D is convex, so o
    lies strictly beyond one of its sides g·σ. That side lies on the
    bisector of g·o and gs·o, with o on the side of gs·o, so
    d(o, gs·o) < d(o, g·o). So every ball element g ≠ e has a neighbour gs
    strictly closer to o, and the ball is finite, so repeating the step
    reaches e. Read backwards, g is spelled from e one letter at a time
    through elements no farther from o than g: the ball pruned at its own
    radius is connected, and slack 0 reaches every element. Floats enter
    the descent only through the pruning test at the horizon radius +
    slack, which is guarded by 1e-9 relative, so an intermediate element
    whose computed distance rounds just past it is still expanded; the
    ball keeps only distances ≤ radius.

    Why a child is new exactly when it is farther from o. Eight tiles
    meet at each vertex of the {8,8} tiling by the g·D, at angle π/4
    each, so each edge continues straight through its vertices and the
    edges make up complete geodesics, the tiling's lines; none meets the
    interior of a tile. Let |g| be the number of lines that separate D
    from g·D. The tiles g·D and gs·D share a side, and its line ℓ is the
    only one that separates them, so |gs| = |g| ± 1, with −1 exactly when
    ℓ separates D from g·D. As ℓ is the bisector of g·o and gs·o, that is
    when o lies on the side of gs·o: d(o, gs·o) < d(o, g·o). So every
    word for g has at least |g| letters, and the descent chain above
    spells g with |g| letters through elements within the horizon: the
    search reaches each element at level |g|. A child t·s of a
    level-(L − 1) element therefore lies at level L − 2, the step back
    to the element t was spelled from included, exactly when
    ‖ts‖² < ‖t‖², and at level L otherwise (‖M‖² = 2·cosh d(o, M·o)).

    Why floats decide it. D holds the disc of radius a (the apothem)
    about o, so ℓ lies at a distance r ≥ a from o, and t·o and ts·o are
    mirror images at distance a from ℓ over one foot. In Fermi
    coordinates along ℓ their cosh-distances to o differ by
    2·sinh r·sinh a, so |‖ts‖² − ‖t‖²| ≥ 4·sinh² a = 4(cot²(π/8) − 1)
    = 19.3137, with equality at t = e. Both squared norms are at most
    2·cosh H·(1 + 1e-9) ≈ 5.6e7 at the largest horizon H = 17.84 that
    MAX_BALL_ELEMENTS admits, so there the gap is 3.4e-7 of ‖M‖², and the
    comparison is exact while each computed squared norm is within
    1.7e-7 relative of the exact one. The Gram form's rounding is a few
    ulp of its absolute terms, which Cauchy–Schwarz bounds by
    2·‖s‖²·‖t‖² < 43·‖t‖²: below 1e-13 of ‖t‖². The float entries' error
    is measured, not proved: a test checks at 50 digits, from the exact
    entries in Z[θ], that the farthest elements of the R = 15 ball have
    ‖M‖² within 1e-12 relative (measured 6e-15), and another that every
    gap of the R = 12 ball is 19.3137 less 1e-9 relative or more. The
    pruning's 1e-9 guard on distances already assumes ‖M‖² within 2e-8
    relative at H = 17.84.

    The kept words follow. The prefix of length |g| − 1 of a shortest
    word for g spells an element at level |g| − 1, closer to o than g, so
    every shortest word runs through the ball. By induction on the
    level, the word kept for g, the code-smallest (kept word of t)·s over
    its neighbours t = g·s⁻¹ at level |g| − 1, is the code-smallest of all
    shortest words for g, at any slack. The slack equality tests check
    this bit for bit at seven radii up to 13, and CI at 14. The class
    outputs do not depend on the representative word.

    Why equal keys mean equal elements. Write K = Q(θ) with f(θ) = 0.
    Every group element has its 8·entries in Z[θ] (the lattice
    certificate in the tests), and each key prime p has a root r of f,
    so θ ↦ r maps Z[θ] onto Z/p with a kernel of index p. Let A ≠ B have
    equal keys, so A ≡ B modulo both primes, and let x ≠ 0 be 8·(a − b)
    for an entry where A and B differ. Then x lies in both kernels, so
    p₁p₂ divides N(x) = [Z[θ] : xZ[θ]]. Bound N(x) by its four
    embeddings. In the first, the float matrices, each entry is at most
    √(2 cosh H) at the guarded horizon H. The second real embedding
    maps [[a, b], [c, d]] to [[d, −c], [−b, a]], so its entries are
    bounded alike. The complex pair is unitary, so there each entry has
    modulus at most 1. Hence 1 ≤ |N(x)| ≤ (16√(2 cosh H))² · 16² =
    2^17·cosh H, below p₁p₂ for H < 31.8847, which leaves room for the
    rounding guard at a horizon ≤ KEY_HORIZON: no such pair exists.

    Why a key needs no sign. The relator is exactly I in SL(2, K) (the
    exact-generators certificate), so the matrix group G is a quotient of
    the surface group. Composed with G → PSL(2, R) that quotient map is
    the holonomy of the octagon surface, which is faithful (Poincaré's
    polygon theorem). So G → PSL(2, R) is injective: −I ∉ G, and each
    isometry has exactly one matrix in G.

    Parameters
    ----------
    generators : dict
        Positive letter -> SL(2,R) matrix; must be the octagon generators
        of `octagon_group` (to 1e-12), whose exact entries the keys use.
    radius : float
        Ball radius T (elements with d(o, γo) ≤ T are returned).
    slack : float
        Pruning slack C ≥ 0; exploration horizon is T + C ≤ KEY_HORIZON.
        The default 0 reaches every ball element (Dirichlet descent,
        above); a larger C explores more for the same elements. The CLI
        always searches at slack 0; only library callers pass a slack.

    Returns
    -------
    BallEnumeration

    Raises
    ------
    InputError
        For radius ≤ 0, slack < 0, a NaN radius or slack, radius + slack
        > KEY_HORIZON, an estimated (cosh(radius + slack) − 1)/2 elements
        above MAX_BALL_ELEMENTS, or generators that are not the octagon's;
        all before any allocation.
    """
    # written so that a NaN radius or slack fails it
    if not (radius > 0 and slack >= 0):
        raise InputError("need radius > 0 and slack >= 0")
    horizon = radius + slack
    if horizon > KEY_HORIZON:
        raise InputError(
            f"radius + slack = {horizon} exceeds the exact-key horizon {KEY_HORIZON}"
        )
    estimate = (math.cosh(horizon) - 1.0) / 2.0
    if estimate > MAX_BALL_ELEMENTS:
        raise InputError(
            f"radius + slack = {horizon} needs about {estimate:.3g} ball "
            f"elements, over MAX_BALL_ELEMENTS = {MAX_BALL_ELEMENTS}"
        )
    residues = _letter_residues(generators)
    n_gen = len(generators)
    n_codes = 2 * n_gen
    gens = np.zeros((n_codes, 2, 2))
    for k in range(1, n_gen + 1):
        gens[k - 1] = generators[k]
        gens[k - 1 + n_gen] = np.linalg.inv(generators[k])
    # the descent argument needs every element within the horizon expanded,
    # so the pruning test forgives a rounding of the distance past it
    reach = horizon * (1.0 + 1e-9)
    # squared-norm prefilter: its margin covers the rounding of the Gram
    # form, so it keeps a superset of the children with dists <= reach,
    # which is still tested exactly below
    gram = gens @ gens.transpose(0, 2, 1)
    norm_cap = 2.0 * np.cosh(reach) * (1.0 + 1e-9)

    # matrices are held entry-major, (4, n) with row 2i + k holding entry
    # (i, k), so each step of the products runs on contiguous rows
    gen_entries = gens.reshape(-1, 4).T.copy()

    # letters: 0..n-1 positive, n..2n-1 inverse; inverse code of c is (c+n) mod 2n
    codes = np.arange(n_codes, dtype=np.int16)
    letters = np.where(codes < n_gen, codes + 1, -(codes - n_gen + 1)).astype(np.int8)

    # the frontier is kept in code-lexicographic word order, with its keys
    frontier_mats = np.eye(2).reshape(4, 1)
    frontier_words = np.zeros((1, 0), dtype=np.int8)  # letters
    keys = np.array([[1, 0, 0, 1] * len(KEY_PRIMES)], dtype=np.int32).view(np.int64)

    ball_mats = [frontier_mats]
    ball_dists = [np.zeros(1)]
    ball_words = [frontier_words]
    while frontier_mats.shape[1]:
        # ‖F·g‖² = Σ_jl (FᵀF)_jl (g gᵀ)_jl: the squared norms of all
        # children from the Gram matrix of each parent, one letter at a
        # time. A child is new exactly when it is farther from o than its
        # parent, ‖F·g‖² > ‖F‖² (the level proof in the docstring)
        f = frontier_mats
        diagonal0 = f[0] ** 2 + f[2] ** 2
        off_diagonal = 2.0 * (f[0] * f[1] + f[2] * f[3])
        diagonal1 = f[1] ** 2 + f[3] ** 2
        norm = diagonal0 + diagonal1
        keep = np.empty((f.shape[1], n_codes), dtype=bool)
        for c in range(n_codes):
            child = (diagonal0 * gram[c, 0, 0] + off_diagonal * gram[c, 0, 1]
                     + diagonal1 * gram[c, 1, 1])
            keep[:, c] = (child <= norm_cap) & (child > norm)
        del f, diagonal0, off_diagonal, diagonal1, norm, child
        # row-major order: children stay in code-lexicographic order
        parent_idx, code_idx = np.divmod(np.flatnonzero(keep), n_codes)
        del keep
        # only the survivors are formed, by the explicit 2×2 product
        left = np.take(frontier_mats, parent_idx, axis=1)
        mats = np.empty_like(left)
        for k in range(2):
            right = gen_entries[k][code_idx]
            for i in range(2):
                np.multiply(left[2 * i], right, out=mats[2 * i + k])
            right = gen_entries[2 + k][code_idx]
            for i in range(2):
                mats[2 * i + k] += left[2 * i + 1] * right
        del left, right
        # ‖M‖², summed in the entry order of (M**2).sum(axis=(1, 2))
        dists = np.arccosh(np.maximum(
            1.0, (mats[0] ** 2 + mats[1] ** 2 + mats[2] ** 2 + mats[3] ** 2) / 2.0))
        within = dists <= reach
        if not within.all():
            mats, dists = mats[:, within], dists[within]
            parent_idx, code_idx = parent_idx[within], code_idx[within]

        # the children's keys replace the parents'; the first, i.e.
        # code-smallest, word of each key in the level is kept, and a mask
        # puts the kept children back in code-lexicographic order
        keys = _child_keys(keys, parent_idx, code_idx, residues)
        first = np.zeros(len(code_idx), dtype=bool)
        first[_first_occurrences(_key_hash(keys), keys)] = True
        new = np.flatnonzero(first)
        del first
        keys = keys[new]
        frontier_mats, dists = np.take(mats, new, axis=1), dists[new]
        del mats
        frontier_words = np.column_stack(
            [frontier_words[parent_idx[new]], letters[code_idx[new]]]
        )
        del parent_idx, code_idx, new

        inside = dists <= radius
        if inside.any():
            ball_mats.append(frontier_mats[:, inside])
            ball_dists.append(dists[inside])
            ball_words.append(frontier_words[inside])
        del dists, inside

    return BallEnumeration._from_levels(radius, ball_mats, ball_dists, ball_words,
                                        presentation)
