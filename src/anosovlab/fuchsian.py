"""Explicit genus-2 Fuchsian geometry: octagon generators, lengths, orbits.

The model surface is the quotient of the hyperbolic plane by the group
generated by the side pairings of the regular octagon with all vertex
angles π/4, centered at the basepoint o = i of the upper half-plane. The
four pairing translations are rotation conjugates of a single hyperbolic
translation and satisfy the genus-2 commutator relation exactly; the
construction is closed-form and self-checked at 1e-9.

Ball enumeration is a breadth-first search over freely reduced words,
pruned by orbit distance with a configurable slack and deduplicated by
quantized matrix keys (projectively, i.e. up to sign). Keys are sorted
and looked up by a fixed 64-bit hash, and every hash match is confirmed
on the exact key, so the ball does not depend on the hash. Words are
kept as letter-code arrays during the search and become tuples only for
elements inside the radius. The traversal is level-synchronous with
canonical tie-breaks, so the output is independent of internal
evaluation order.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import NumericalFailure
from .surface_group import GroupPresentation, evaluate_word

# smallest |trace| margin accepted as hyperbolic
HYPERBOLIC_MARGIN = 1e-12

# grid spacing of the matrix-entry keys that deduplicate ball elements
QUANTUM = 1e-7


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


def octagon_group(tol=1e-9):
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
        If the relator residual exceeds `tol` (construction self-check).
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
    holonomy = evaluate_word(presentation.relator, generators)
    residual = min(
        np.abs(holonomy - np.eye(2)).max(), np.abs(holonomy + np.eye(2)).max()
    )
    if residual > tol:
        raise NumericalFailure(f"octagon relator residual {residual:.3e} > {tol:.0e}")
    return presentation, generators


def translation_length(m, tol=HYPERBOLIC_MARGIN):
    """Translation length 2·arccosh(|tr M|/2) of a hyperbolic element."""
    tr = abs(float(np.trace(m)))
    if tr <= 2.0 + tol:
        raise NumericalFailure(f"non-hyperbolic element, |trace| = {tr}")
    return 2.0 * float(np.arccosh(tr / 2.0))


def sl2_eigenbasis(m, tol=HYPERBOLIC_MARGIN):
    """Eigenbasis (h, λ) of a hyperbolic SL(2,R) matrix, M = ±h·diag(λ,1/λ)·h⁻¹.

    h has determinant +1 with the attracting eigenvector first and λ > 1.
    Closed-form and stable; the PSL sign ambiguity is absorbed into ±.

    Stacked: `m` is one (2, 2) matrix, giving (h, float λ), or an
    (N, 2, 2) stack, giving (h of shape (N, 2, 2), λ of shape (N,)); a
    single matrix is evaluated as a one-element stack. The two library
    steps, the vector norms (by the BLAS dot that np.linalg.norm uses on a
    vector) and the determinants, run once over the whole stack; the
    scalar arithmetic around them is done on Python floats, which round
    exactly as numpy's float64 does and cost far less per call on small
    stacks. Each matrix of a stack gets the bits it gets alone.
    """
    m = np.asarray(m, float)
    single = m.ndim == 2
    entries = m.reshape(-1).tolist()
    lams, candidates = [], []
    for a, b, c, d in zip(*[iter(entries)] * 4):
        tr = a + d
        atr = abs(tr)
        if atr <= 2.0 + tol:
            raise NumericalFailure(f"non-hyperbolic element, |trace| = {atr}")
        if tr < 0:
            a, b, c, d = -a, -b, -c, -d
        lam = (atr + math.sqrt(atr * atr - 4.0)) / 2.0
        inv = 1.0 / lam
        lams.append(lam)
        # per eigenvalue μ = λ, 1/λ: the candidates (b, μ - a), (μ - d, c)
        candidates += (b, lam - a, lam - d, c, b, inv - a, inv - d, c)
    vectors = np.array(candidates).reshape(-1, 2)
    squares = (vectors[:, None, :] @ vectors[:, :, None]).reshape(-1).tolist()
    columns = []  # the longer candidate of each eigenvalue, over its norm
    for i in range(0, len(squares), 2):
        n1, n2 = math.sqrt(squares[i]), math.sqrt(squares[i + 1])
        if n1 >= n2:
            columns += (candidates[2 * i] / n1, candidates[2 * i + 1] / n1)
        else:
            columns += (candidates[2 * i + 2] / n2, candidates[2 * i + 3] / n2)
    h = np.array(columns).reshape(-1, 2, 2).transpose(0, 2, 1)
    out = []
    for j, det in enumerate(np.linalg.det(h).tolist()):
        if abs(det) < 1e-14:
            raise NumericalFailure("eigenbasis degenerate (nearly parabolic element)")
        x0, x1, y0, y1 = columns[4 * j: 4 * j + 4]
        if det < 0:
            y0, y1, det = -y0, -y1, -det
        root = math.sqrt(det)
        out += (x0 / root, y0 / root, x1 / root, y1 / root)
    h = np.array(out).reshape(-1, 2, 2)
    if single:
        return h[0], lams[0]
    return h, np.array(lams)


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


@dataclass
class BallEnumeration:
    """Orbit ball: group elements γ with d(o, γo) ≤ T.

    Elements are deduplicated projectively (±M is one isometry) keeping
    the smallest among the shortest words. `matrices`, `words` and
    `distances` are aligned and sorted by (distance, word length, word).
    """

    radius: float
    slack: float
    matrices: np.ndarray
    distances: np.ndarray
    words: list
    presentation: GroupPresentation = field(repr=False, default=None)

    def __len__(self):
        return len(self.distances)

    def count(self, radius):
        """N(T') = number of elements with d(o, γo) ≤ T', for T' ≤ T."""
        if radius > self.radius + 1e-12:
            raise ValueError("count requested beyond the enumerated radius")
        return int(np.searchsorted(self.distances, radius, side="right"))

    def cyclic_words(self, radius=math.inf):
        """Cyclically reduced word and |trace| of each hyperbolic element
        of translation length ≤ `radius`, in ball order.

        The one rule for which ball elements are closed orbits: a |trace|
        bound over all of `matrices` at once (relative margin 1e-9), then
        the exact test 2·acosh(t/2) ≤ radius + HYPERBOLIC_MARGIN. Ball
        words are freely reduced, so peeling the wrap-around cyclically
        reduces them; no matrix is evaluated.
        """
        traces = np.abs(self.matrices[:, 0, 0] + self.matrices[:, 1, 1])
        bound = 2.0 * math.cosh(0.5 * (radius + HYPERBOLIC_MARGIN)) * (1.0 + 1e-9)
        candidates = np.flatnonzero((traces > 2.0 + HYPERBOLIC_MARGIN)
                                    & (traces <= bound))
        for index, trace in zip(candidates.tolist(), traces[candidates].tolist()):
            if 2.0 * math.acosh(trace / 2.0) > radius + HYPERBOLIC_MARGIN:
                continue
            word = self.words[index]
            while len(word) >= 2 and word[0] == -word[-1]:
                word = word[1:-1]
            yield word, trace


def _sign_normalize(mats):
    """Canonical PSL sign: first entry with |e| ≥ 0.5 made positive."""
    flat = mats.reshape(len(mats), 4)
    idx = np.argmax(np.abs(flat) >= 0.5, axis=1)
    signs = np.sign(flat[np.arange(len(flat)), idx])
    signs[signs == 0] = 1.0
    return mats * signs[:, None, None]


def _quantized_keys(mats):
    """Exact dedup keys: sign-normalized entries on the QUANTUM grid, (n, 4) int64."""
    normalized = _sign_normalize(mats).reshape(len(mats), 4)
    return np.round(normalized / QUANTUM).astype(np.int64)


# odd 64-bit multipliers of the key mix (splitmix64-style constants)
_MIX = np.array(
    [0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB,
     0xD6E8FEB86659FD93],
    dtype=np.uint64,
)


def _key_hash(keys):
    """Fixed 64-bit mix of the four quantized entries of each key.

    Only a sort order: equal hashes are always confirmed on the exact
    keys, so the ball does not depend on this function.
    """
    bits = keys.view(np.uint64)
    h = np.zeros(len(keys), dtype=np.uint64)
    for j in range(4):
        h = (h ^ bits[:, j]) * _MIX[j]
        h ^= h >> np.uint64(31)
    return h


def _first_occurrences(hashes, keys):
    """Indices of the first occurrence of each distinct key, in hash order.

    The sorts are stable, so within a group of equal keys the element
    that comes first in the input is kept.
    """
    order = np.argsort(hashes, kind="stable")
    pairs = np.flatnonzero(hashes[order[1:]] == hashes[order[:-1]])
    same = (keys[order[pairs + 1]] == keys[order[pairs]]).all(axis=1)
    if not same.all():
        # two different keys share a hash: order exactly within each hash
        order = np.lexsort(tuple(keys.T[::-1]) + (hashes,))
        pairs = np.flatnonzero(hashes[order[1:]] == hashes[order[:-1]])
        same = (keys[order[pairs + 1]] == keys[order[pairs]]).all(axis=1)
    first = np.ones(len(order), dtype=bool)
    first[pairs[same] + 1] = False
    return order[first]


def _stored_keys(store, offsets, rows):
    """Keys at global `rows` of the append-only store of per-level blocks."""
    level = np.searchsorted(offsets, rows, side="right") - 1
    out = np.empty((len(rows), 4), dtype=np.int64)
    for block in np.unique(level).tolist():
        pick = level == block
        out[pick] = store[block][rows[pick] - offsets[block]]
    return out


def _contained(index_hashes, index_rows, store, offsets, hashes, keys):
    """Mask of keys present in the `seen` store (exact compare).

    `index_hashes` is sorted and `index_rows` holds the global store row of
    each entry; every entry with a matching hash is compared on its key.
    """
    last = len(index_hashes) - 1
    at = np.minimum(np.searchsorted(index_hashes, hashes), last)
    found = np.zeros(len(hashes), dtype=bool)
    pending = np.flatnonzero(index_hashes[at] == hashes)
    while len(pending):
        # compare with the next seen entry of the same hash
        stored = _stored_keys(store, offsets, index_rows[at[pending]])
        found[pending] = (stored == keys[pending]).all(axis=1)
        pending = pending[~found[pending] & (at[pending] < last)]
        at[pending] += 1
        pending = pending[index_hashes[at[pending]] == hashes[pending]]
    return found


def enumerate_ball(generators, radius, slack=2.0, max_elements=40_000_000,
                   presentation=None):
    """Enumerate the orbit ball of radius `radius` around o = i.

    Breadth-first search over freely reduced words pruned at orbit
    distance radius + slack. Each element is keyed by its matrix entries
    quantized on a 1e-7 grid after projective sign normalization; keys
    are sorted and looked up by a 64-bit hash, and every hash match is
    confirmed on the exact key, so a collision never merges two elements.
    Keys of earlier levels live in an append-only store of per-level
    blocks; only a hash-sorted (hash, row) index is merged level by level.
    Each level is kept in code-lexicographic word order, so the element
    kept for a key is the code-smallest of its shortest words (a1 < b1 <
    a2 < b2 < a1⁻¹ < … < b2⁻¹). Word tuples are built only for elements
    within `radius`. Candidate collisions across quantization cells are
    re-checked by exact matrix distance in a final merge pass.

    Parameters
    ----------
    generators : dict
        Positive letter -> SL(2,R) matrix.
    radius : float
        Ball radius T (elements with d(o, γo) ≤ T are returned).
    slack : float
        Pruning slack C ≥ 0; exploration horizon is T + C. Counts must
        stabilize under doubling of C (calibration test); the default is
        validated by that certificate rather than a worst-case bound.
    max_elements : int
        Memory budget; exceeding it aborts with a diagnostic.

    Returns
    -------
    BallEnumeration
    """
    if radius <= 0 or slack < 0:
        raise ValueError("need radius > 0 and slack >= 0")
    n_gen = len(generators)
    n_codes = 2 * n_gen
    gens = np.zeros((n_codes, 2, 2))
    for k in range(1, n_gen + 1):
        gens[k - 1] = generators[k]
        gens[k - 1 + n_gen] = np.linalg.inv(generators[k])
    horizon = radius + slack
    # squared-norm prefilter: its margin covers the rounding of the Gram
    # form, so it keeps a superset of the children with dists <= horizon,
    # which is still tested exactly below
    gram = gens @ gens.transpose(0, 2, 1)
    norm_cap = 2.0 * np.cosh(horizon) * (1.0 + 1e-9)

    # letters: 0..n-1 positive, n..2n-1 inverse; inverse code of c is (c+n) mod 2n
    codes = np.arange(n_codes, dtype=np.int16)
    letters = np.where(codes < n_gen, codes + 1, -(codes - n_gen + 1)).astype(np.int8)

    # the frontier is kept in code-lexicographic word order
    frontier_mats = np.eye(2)[None, :, :]
    frontier_codes = np.full(1, -1, dtype=np.int16)  # last letter codes
    frontier_words = np.zeros((1, 0), dtype=np.int16)

    ball_mats = [frontier_mats]
    ball_dists = [np.zeros(1)]
    ball_words = [frontier_words]

    # `seen`: append-only blocks of keys, one per level, and a hash-sorted
    # index of (hash, global row) that new keys are merged into
    store = [_quantized_keys(frontier_mats)]
    offsets = np.zeros(1, dtype=np.int64)
    index_hashes = _key_hash(store[0])
    row_type = np.int32 if max_elements < 2**31 else np.int64
    index_rows = np.zeros(1, dtype=row_type)
    total = 1
    depth = 0
    while len(frontier_mats):
        depth += 1
        # ‖F·g‖² = Σ_jl (FᵀF)_jl (g gᵀ)_jl: the squared norms of all
        # children from the Gram matrix of each parent
        rows = frontier_mats.reshape(-1, 4)
        norms = np.multiply.outer(rows[:, 0] ** 2 + rows[:, 2] ** 2, gram[:, 0, 0])
        norms += np.multiply.outer(
            2.0 * (rows[:, 0] * rows[:, 1] + rows[:, 2] * rows[:, 3]), gram[:, 0, 1]
        )
        norms += np.multiply.outer(rows[:, 1] ** 2 + rows[:, 3] ** 2, gram[:, 1, 1])
        keep = norms <= norm_cap
        if depth > 1:
            keep &= codes != (frontier_codes[:, None] + n_gen) % n_codes
        # row-major nonzero: children stay in code-lexicographic order
        parent_idx, code_idx = np.nonzero(keep)
        del norms, keep
        # only the survivors are formed, by the explicit 2×2 product
        left, right = frontier_mats[parent_idx], gens[code_idx]
        mats = np.empty((len(parent_idx), 2, 2))
        for i in range(2):
            for k in range(2):
                mats[:, i, k] = (left[:, i, 0] * right[:, 0, k]
                                 + left[:, i, 1] * right[:, 1, k])
        del left, right
        dists = np.arccosh(np.maximum(1.0, (mats**2).sum(axis=(1, 2)) / 2.0))
        within = np.nonzero(dists <= horizon)[0]
        mats, dists = mats[within], dists[within]
        parent_idx, code_idx = parent_idx[within], code_idx[within]

        keys = _quantized_keys(mats)
        hashes = _key_hash(keys)
        # in-level dedup keeps the first, i.e. code-smallest, word per key;
        # cross-level dedup drops keys of earlier levels (shorter words)
        firsts = _first_occurrences(hashes, keys)
        fresh = firsts[~_contained(index_hashes, index_rows, store, offsets,
                                   hashes[firsts], keys[firsts])]

        if total + len(fresh) > max_elements:
            raise MemoryError(
                f"ball enumeration exceeded budget of {max_elements} elements "
                f"(frontier size {len(fresh)} at depth {depth})"
            )
        # append the new keys as a block and merge their (hash, row)
        # entries, already in hash order, into the index
        store.append(keys[fresh])
        offsets = np.append(offsets, total)
        at = np.searchsorted(index_hashes, hashes[fresh])
        index_hashes = np.insert(index_hashes, at, hashes[fresh])
        index_rows = np.insert(index_rows, at,
                               np.arange(total, total + len(fresh), dtype=row_type))
        total += len(fresh)

        new = np.sort(fresh)  # back to code-lexicographic order
        frontier_mats, dists = mats[new], dists[new]
        frontier_codes = code_idx[new].astype(np.int16)
        frontier_words = np.column_stack(
            [frontier_words[parent_idx[new]], frontier_codes]
        )
        inside = dists <= radius
        ball_mats.append(frontier_mats[inside])
        ball_dists.append(dists[inside])
        ball_words.append(frontier_words[inside])

    mats = np.concatenate(ball_mats)
    dists = np.concatenate(ball_dists)
    lengths = np.concatenate([np.full(len(w), w.shape[1]) for w in ball_words])
    padded = np.zeros((len(dists), depth), dtype=np.int8)
    words = []
    start = 0
    for codes_of_level in ball_words:
        spelled = letters[codes_of_level]
        padded[start:start + len(spelled), :spelled.shape[1]] = spelled
        words.extend(map(tuple, spelled.tolist()))
        start += len(spelled)

    kept = _proximity_merge(mats, words)
    order = kept[np.lexsort(
        tuple(padded[kept].T[::-1]) + (lengths[kept], dists[kept])
    )]
    return BallEnumeration(
        radius=float(radius), slack=float(slack), matrices=mats[order],
        distances=dists[order], words=[words[i] for i in order],
        presentation=presentation,
    )


def _proximity_merge(mats, words):
    """Merge residual duplicates straddling quantization cell boundaries.

    Walks the elements in sorted sign-normalized order; of each adjacent
    pair within 10·QUANTUM in every entry, the one with the greater
    (length, word) is dropped. Returns the indices kept, in input order.
    """
    normalized = _sign_normalize(mats).reshape(len(mats), 4)
    order = np.lexsort(normalized.T[::-1])
    normalized = normalized[order]
    close = np.abs(np.diff(normalized, axis=0)).max(axis=1, initial=0.0) < 10 * QUANTUM
    keep = np.ones(len(mats), dtype=bool)
    for i in np.nonzero(close)[0]:
        # same isometry seen twice: keep the better word
        a, b = order[i], order[i + 1]
        wa, wb = words[a], words[b]
        keep[b if (len(wa), wa) <= (len(wb), wb) else a] = False
    return np.nonzero(keep)[0]
