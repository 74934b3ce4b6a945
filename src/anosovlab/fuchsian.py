"""Explicit genus-2 Fuchsian geometry: octagon generators, lengths, orbits.

The model surface is the quotient of the hyperbolic plane by the group
generated by the side pairings of the regular octagon with all vertex
angles π/4, centered at the basepoint o = i of the upper half-plane. The
four pairing translations are rotation conjugates of a single hyperbolic
translation and satisfy the genus-2 commutator relation exactly; the
construction is closed-form and self-checked at 1e-9.

Ball enumeration is a breadth-first search over freely reduced words,
pruned by orbit distance with a configurable slack, deduplicated by
quantized matrix keys (projectively, i.e. up to sign). The traversal is
level-synchronous with canonical tie-breaks, so the output is independent
of internal evaluation order.
"""

from dataclasses import dataclass, field

import numpy as np

from .linalg import NumericalFailure
from .surface_group import GroupPresentation, evaluate_word

BASEPOINT = 1j

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


def mobius(m, z):
    a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    return (a * z + b) / (c * z + d)


def distance(z, w):
    """Hyperbolic distance in the upper half-plane (cross-ratio formula)."""
    return float(np.arccosh(1.0 + (abs(z - w) ** 2) / (2.0 * z.imag * w.imag)))


def orbit_distance(m):
    """d(i, M·i) = arccosh(‖M‖_F² / 2) for M in SL(2,R)."""
    m = np.asarray(m, float)
    return float(np.arccosh(max(1.0, (m * m).sum() / 2.0)))


# geometry of the regular octagon with vertex angle π/4
APOTHEM = float(np.arccosh(1.0 / np.tan(np.pi / 8.0)))
CIRCUMRADIUS = float(np.arccosh(1.0 / np.tan(np.pi / 8.0) ** 2))


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
    """
    tr = float(np.trace(m))
    if abs(tr) <= 2.0 + tol:
        raise NumericalFailure(f"non-hyperbolic element, |trace| = {abs(tr)}")
    ms = m if tr > 0 else -m
    atr = abs(tr)
    lam = (atr + np.sqrt(atr * atr - 4.0)) / 2.0

    def eigvec(mu):
        a, b, c, d = ms[0, 0], ms[0, 1], ms[1, 0], ms[1, 1]
        v1 = np.array([b, mu - a])
        v2 = np.array([mu - d, c])
        v = v1 if np.linalg.norm(v1) >= np.linalg.norm(v2) else v2
        return v / np.linalg.norm(v)

    h = np.column_stack([eigvec(lam), eigvec(1.0 / lam)])
    det = float(np.linalg.det(h))
    if abs(det) < 1e-14:
        raise NumericalFailure("eigenbasis degenerate (nearly parabolic element)")
    if det < 0:
        h[:, 1] = -h[:, 1]
        det = -det
    return h / np.sqrt(det), float(lam)


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

    Elements are deduplicated projectively (±M is one isometry) keeping the
    lexicographically smallest among the shortest words. `matrices`,
    `words` and `distances` are aligned and sorted by (distance, word).
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

    def count_function(self, grid):
        return np.array([self.count(t) for t in grid], dtype=int)


def _sign_normalize(mats):
    """Canonical PSL sign: first entry with |e| ≥ 0.5 made positive."""
    flat = mats.reshape(len(mats), 4)
    idx = np.argmax(np.abs(flat) >= 0.5, axis=1)
    signs = np.sign(flat[np.arange(len(flat)), idx])
    signs[signs == 0] = 1.0
    return mats * signs[:, None, None]


def _quantized_keys(mats):
    normalized = _sign_normalize(mats.copy())
    q = np.round(normalized.reshape(len(normalized), 4) / QUANTUM).astype(np.int64)
    return np.ascontiguousarray(q).view([("", np.int64)] * 4).ravel()


def enumerate_ball(generators, radius, slack=2.0, max_elements=40_000_000,
                   presentation=None):
    """Enumerate the orbit ball of radius `radius` around o = i.

    Breadth-first search over freely reduced words pruned at orbit
    distance radius + slack. Deduplication quantizes matrix entries on a
    1e-7 grid after projective sign normalization; candidate collisions
    are re-checked by exact matrix distance in a final merge pass. The
    per-level merge is order independent: ties keep the lexicographically
    smallest shortest word.

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
    gens8 = np.zeros((2 * n_gen, 2, 2))
    for k in range(1, n_gen + 1):
        gens8[k - 1] = generators[k]
        gens8[k - 1 + n_gen] = np.linalg.inv(generators[k])
    horizon = radius + slack

    # letters: 0..n-1 positive, n..2n-1 inverse; inverse code of c is (c+n) mod 2n
    def letter_of_code(code):
        return int(code) + 1 if code < n_gen else -(int(code) - n_gen + 1)

    frontier_mats = np.eye(2)[None, :, :]
    frontier_codes = np.full(1, -1, dtype=np.int16)  # last letter codes
    frontier_words = np.zeros((1, 0), dtype=np.int16)

    all_mats = [frontier_mats]
    all_dists = [np.zeros(1)]
    all_words = [frontier_words]

    seen = np.sort(_quantized_keys(frontier_mats))
    total = 1
    depth = 0
    while len(frontier_mats):
        depth += 1
        children = np.einsum("fij,gjk->fgik", frontier_mats, gens8)
        codes = np.broadcast_to(
            np.arange(2 * n_gen, dtype=np.int16), (len(frontier_mats), 2 * n_gen)
        )
        keep = codes != ((frontier_codes[:, None] + n_gen) % (2 * n_gen))
        if depth == 1:
            keep = np.ones_like(keep, dtype=bool)
        parent_idx, code_idx = np.nonzero(keep)
        mats = children[parent_idx, code_idx]
        codes = codes[parent_idx, code_idx]
        dists = np.arccosh(np.maximum(1.0, (mats**2).sum(axis=(1, 2)) / 2.0))
        within = dists <= horizon
        mats, codes, dists = mats[within], codes[within], dists[within]
        parent_idx = parent_idx[within]
        words = np.column_stack(
            [frontier_words[parent_idx], codes.astype(np.int16)[:, None]]
        )

        keys = _quantized_keys(mats)
        # canonical in-level dedup: sort by (key, word) and keep firsts
        order = np.lexsort(tuple(words.T[::-1]) + (keys,))
        keys, mats, codes, dists, words = (
            keys[order], mats[order], codes[order], dists[order], words[order]
        )
        firsts = np.ones(len(keys), dtype=bool)
        firsts[1:] = keys[1:] != keys[:-1]
        keys, mats, codes, dists, words = (
            keys[firsts], mats[firsts], codes[firsts], dists[firsts], words[firsts]
        )
        # cross-level dedup (earlier level = shorter word wins)
        if len(seen):
            pos = np.clip(np.searchsorted(seen, keys), 0, len(seen) - 1)
            fresh = seen[pos] != keys
        else:
            fresh = np.ones(len(keys), dtype=bool)
        mats, codes, dists, words = mats[fresh], codes[fresh], dists[fresh], words[fresh]
        keys = keys[fresh]

        total += len(mats)
        if total > max_elements:
            raise MemoryError(
                f"ball enumeration exceeded budget of {max_elements} elements "
                f"(frontier size {len(mats)} at depth {depth})"
            )
        seen = np.sort(np.concatenate([seen, keys]))
        all_mats.append(mats)
        all_dists.append(dists)
        all_words.append(words)
        frontier_mats, frontier_codes, frontier_words = mats, codes, words

    mats = np.concatenate(all_mats)
    dists = np.concatenate(all_dists)
    words = [
        tuple(letter_of_code(c) for c in row)
        for level in all_words
        for row in level
    ]
    within = dists <= radius
    mats, dists = mats[within], dists[within]
    words = [w for w, ok in zip(words, within) if ok]

    mats, dists, words = _proximity_merge(mats, dists, words)

    order = sorted(range(len(dists)), key=lambda i: (dists[i], len(words[i]), words[i]))
    mats = mats[order]
    dists = dists[order]
    words = [words[i] for i in order]
    return BallEnumeration(
        radius=float(radius), slack=float(slack), matrices=mats,
        distances=dists, words=words, presentation=presentation,
    )


def _proximity_merge(mats, dists, words):
    """Merge residual duplicates straddling quantization cell boundaries."""
    if len(mats) <= 1:
        return mats, dists, words
    normalized = _sign_normalize(mats.copy()).reshape(len(mats), 4)
    order = np.lexsort(normalized.T[::-1])
    normalized = normalized[order]
    keep = np.ones(len(mats), dtype=bool)
    for i in range(1, len(mats)):
        a, b = order[i - 1], order[i]
        if np.abs(normalized[i] - normalized[i - 1]).max() < 10 * QUANTUM:
            # same isometry seen twice: keep the better word
            wa, wb = words[a], words[b]
            worse = b if (len(wa), wa) <= (len(wb), wb) else a
            keep[worse] = False
    if keep.all():
        return mats, dists, words
    idx = np.nonzero(keep)[0]
    return mats[idx], dists[idx], [words[i] for i in idx]
