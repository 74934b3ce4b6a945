"""Reference oracles that the tests compare the package against.

Each oracle computes a quantity by a second, more literal route than the
package does (a direct neutral vector, the literal Ad-cocycle sum, the
upper half-plane distance, one pair at a time where the package works
on stacks) or supplies test data the package never needs
(random form isometries, an orientation reference), or checks a claim the
package relies on (the spectra's margin). None of them is on a path the
CLI runs, so they live here rather than in ``src/``.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from anosovlab.affine_deform import special_shape
from anosovlab.fuchsian import sl2_eigenbasis
from anosovlab.linalg import NumericalFailure, orthonormal_span
from anosovlab.principal_rep import sym_power_rep
from anosovlab.surface_group import (
    CyclicWord,
    _relator_tables,
    cyclic_reduce,
    free_reduce,
    min_rotation,
    solve_cocycle_space,
)


# --- linear algebra -------------------------------------------------------

def so_algebra_element(q, rng, scale=1.0):
    """Random element of the isometry algebra of the symmetric form q.

    so(q) = {A : QA skew-symmetric}, sampled as Q^{-1}S with S skew.
    """
    n = q.shape[0]
    s = rng.normal(size=(n, n)) * scale
    s = (s - s.T) / 2.0
    return np.linalg.solve(q, s)


def random_form_isometry(q, rng, scale=0.3):
    """Random element of the identity component of the isometry group of q."""
    return expm(so_algebra_element(q, rng, scale))


def span_distance(a, b):
    """Largest principal-angle sine between two spans of equal dimension.

    Computed as the spectral norm of the projector difference, which stays
    accurate down to machine precision (the textbook 1 - cos² route loses
    half the digits near zero).
    """
    qa, qb = orthonormal_span(a), orthonormal_span(b)
    if qa.shape[1] != qb.shape[1]:
        return 1.0
    if qa.shape[1] == 0:
        return 0.0
    diff = qa @ qa.T - qb @ qb.T
    return float(np.linalg.norm(diff, 2))


# --- hyperbolic plane -----------------------------------------------------

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


# --- words -----------------------------------------------------------------

def cyclic_dehn_step(word, long_moves):
    """Best strictly-shortening cyclic replacement, or None.

    Among all applicable replacements, the one whose result has the
    smallest (length, minimal rotation) is chosen, which makes the greedy
    reduction independent of the input rotation.

    The windows of the shortest move length are scanned first, and a
    word none of them matches takes no step. That prefilter is exact:
    every long-move key is the first k letters of a rotation of the
    relator or its inverse, so its first letters up to the shortest move
    length are themselves a key of the shortest moves, found in the same
    cyclic window.
    """
    n = len(word)
    if not long_moves or n < long_moves[-1][0]:
        return None
    doubled = word + word
    shortest, first_keys = long_moves[-1]
    for i in range(n):
        if doubled[i:i + shortest] in first_keys:
            break
    else:
        return None
    best = None
    for k, moves in long_moves:
        if k > n:
            continue
        for i in range(n):
            s = doubled[i : i + k]
            if s in moves:
                rest = doubled[i + k : i + n]
                candidate = cyclic_reduce(moves[s] + rest)
                key = (len(candidate), min_rotation(candidate))
                if best is None or key < best[0]:
                    best = (key, candidate)
        if best is not None:
            return best[1]
    return None


def half_swap_variants(word, half_moves):
    """Equal-length conjugates obtained by one half-relator swap."""
    n = len(word)
    out = set()
    if not half_moves:
        return out
    half = len(next(iter(half_moves)))
    if n < half:
        return out
    doubled = word + word
    for i in range(n):
        s = doubled[i : i + half]
        if s in half_moves:
            rest = doubled[i + half : i + n]
            out.add(cyclic_reduce(half_moves[s] + rest))
    return out


def conjugacy_canonical_per_word(word, presentation):
    """Canonical CyclicWord of the conjugacy class of `word`, one word at
    a time: the route `surface_group.conjugacy_canonical_rows` batches.

    Cyclic reduction, cyclic Dehn reduction, closure under half-relator
    swaps, then minimal rotation over everything reachable. Conjugate
    inputs map to equal outputs; the relator itself maps to the empty
    class.
    """
    long_moves, half_moves = _relator_tables(presentation.relator)
    w = cyclic_reduce(word)
    # shorten as far as possible first
    while True:
        nxt = cyclic_dehn_step(w, long_moves)
        if nxt is None:
            break
        w = nxt
    if not w:
        return CyclicWord(())
    # closure of the shortest representatives under rotations + half swaps
    seen = {min_rotation(w)}
    frontier = [min_rotation(w)]
    guard = 0
    while frontier:
        guard += 1
        if guard > 10000:
            raise RuntimeError("canonicalization closure did not stabilize")
        current = frontier.pop()
        for variant in half_swap_variants(current, half_moves):
            shorter = cyclic_dehn_step(variant, long_moves)
            if shorter is not None:
                # strictly shorter representative found: restart from it
                return conjugacy_canonical_per_word(shorter, presentation)
            key = min_rotation(variant)
            if key not in seen:
                seen.add(key)
                frontier.append(key)
    return CyclicWord(min(seen))


def cyclic_dehn_step_unfiltered(word, long_moves):
    """`cyclic_dehn_step` without its shortest-move prefilter: every
    window of every long-move length is tried."""
    n = len(word)
    if n == 0:
        return None
    doubled = word + word
    best = None
    for k, moves in long_moves:
        if k > n:
            continue
        for i in range(n):
            s = doubled[i : i + k]
            if s in moves:
                rest = doubled[i + k : i + n]
                candidate = cyclic_reduce(moves[s] + rest)
                key = (len(candidate), min_rotation(candidate))
                if best is None or key < best[0]:
                    best = (key, candidate)
        if best is not None:
            return best[1]
    return None


def closed_orbit_words(ball, radius):
    """(cyclic word, |trace|) of each row of `ball.closed_orbits(radius)`,
    in ball order, the word as a tuple."""
    traces, cyclic, lengths = ball.closed_orbits(radius)
    return [(tuple(row[:n]), trace) for row, n, trace
            in zip(cyclic.tolist(), lengths.tolist(), traces.tolist())]


def least_rotations_per_column(words):
    """Least rotation of each row of an (n, m) letter array, the start
    columns narrowed one letter column at a time over the doubled rows
    (`surface_group._least_rotations` compares 19 letters per step)."""
    n, m = words.shape
    doubled = np.concatenate([words, words], axis=1)
    starts = np.ones((n, m), dtype=bool)
    for c in range(m):
        letters = doubled[:, c:c + m]
        least = np.where(starts, letters, np.iinfo(words.dtype).max).min(
            axis=1, keepdims=True)
        starts &= letters == least
    first = starts.argmax(axis=1) if m else np.zeros(n, dtype=np.intp)
    return np.take_along_axis(doubled, first[:, None] + np.arange(m), axis=1)


# --- flag geometry --------------------------------------------------------

@dataclass
class OrientationReference:
    """Oriented spacelike p-plane F and its orthogonal F°, as column frames."""

    frame: np.ndarray
    frame_orth: np.ndarray
    form: np.ndarray


def standard_reference(basis):
    """Reference frame from a principal basis: F = span((e_i + ē_i)/√2).

    The convention makes span(e_1, ..., e_p) positive.
    """
    e, ebar = basis.e, basis.ebar
    frame = (e + ebar) / np.sqrt(2.0)
    frame_orth = (e - ebar) / np.sqrt(2.0)
    return OrientationReference(frame=frame, frame_orth=frame_orth,
                                form=basis.form_e.matrix)


def classify_orientation(plane, reference, tol=1e-8):
    """Sign (+1/-1) of a maximal isotropic plane against the reference.

    The plane is written as the graph of a map A : F -> F° over the
    reference spacelike plane; the sign of det A in the oriented frames
    classifies the SO(p,p)-orbit. Planes that are not graphs over F
    (a measure-zero configuration) are rejected.
    """
    q = reference.form
    f, fo = reference.frame, reference.frame_orth
    p = f.shape[1]
    plane = orthonormal_span(plane)
    if plane.shape[1] != p:
        raise ValueError("expected a maximal isotropic plane")
    # coordinates of the plane in the split E = F ⊕ F°: Q-projections
    gram_f = f.T @ q @ f          # positive definite on F
    gram_fo = fo.T @ q @ fo       # negative definite on F°
    coords_f = np.linalg.solve(gram_f, f.T @ q @ plane)
    coords_fo = np.linalg.solve(gram_fo, fo.T @ q @ plane)
    det_f = np.linalg.det(coords_f)
    if abs(det_f) < tol:
        raise NumericalFailure("plane is not a graph over the reference frame")
    graph_map = coords_fo @ np.linalg.inv(coords_f)
    sign = np.sign(np.linalg.det(graph_map))
    if sign == 0:
        raise NumericalFailure("degenerate graph map")
    return int(sign)


def tuples_match(a, b, tol=1e-8):
    """Whether two paired tuples agree linewise (as lines)."""
    worst = 0.0
    for i in range(a.p):
        worst = max(worst, span_distance(a.lines[:, i : i + 1], b.lines[:, i : i + 1]))
        worst = max(worst,
                    span_distance(a.lines_bar[:, i : i + 1], b.lines_bar[:, i : i + 1]))
    return worst <= tol, worst


# --- affine deformations --------------------------------------------------

def peel_conjugator(word):
    """Split a word as h · c · h^{-1} with c cyclically reduced.

    Returns (h, c); the identity gives ((), ()).
    """
    w = list(free_reduce(word))
    h = []
    while len(w) >= 2 and w[0] == -w[-1]:
        h.append(w[0])
        w = w[1:-1]
    return tuple(h), tuple(w)


@dataclass
class NeutralVector:
    """Oriented unit spacelike fixed vector of a hyperbolic holonomy.

    `certificate` is the sign of the eigenbasis determinant normalized by
    the principal-basis orientation; +1 certifies the equivariant
    orientation (the section through +eps_p at the model point).
    """

    vector: np.ndarray
    word: tuple
    certificate: float


def neutral_vector(rho, word, basis, tol=1e-9):
    """Neutral vector of ρ0(word) for a principal Fuchsian representation.

    The direct route that the orbit sums of
    `affine_deform.margulis_invariants` replace: sym(h)·eps_p with h the
    determinant-one SL(2,R) eigenbasis (attracting eigenvector first) of
    the cyclically reduced core, transported back along the peeled
    conjugator. The determinant certificate det[v_1, ..., x, ...,
    v_{2p-1}] is evaluated against the orientation of the eps basis.

    Parameters
    ----------
    rho : Representation
        The (2p-1)-dimensional linear representation; must carry its
        SL(2,R) base representation.
    word : tuple
        Nontrivial word with hyperbolic holonomy.
    basis : PrincipalBasis
    """
    if rho.base is None:
        raise ValueError("neutral_vector needs the SL(2,R) base representation")
    p = basis.p
    conjugator, core = peel_conjugator(word)
    if not core:
        raise ValueError("neutral vector of the trivial class")
    m2 = rho.base.evaluate(core)
    h, _ = sl2_eigenbasis(m2)
    sym_h = sym_power_rep(p, h)
    eigvecs = sym_h @ basis.eps
    x = eigvecs[:, p - 1]
    q = basis.form_v.matrix
    if conjugator:
        x = rho.evaluate(conjugator) @ x
    # Q(x, x) = 1 holds exactly by construction; the computed pairing
    # loses ~eps·|x|² to cancellation, so it is only guarded, never used
    # to renormalize.
    norm = x @ q @ x
    if norm <= 0:
        raise NumericalFailure("fixed vector is not spacelike")
    scale = float(np.abs(x).max()) ** 2
    if abs(norm - 1.0) > 1e-9 * max(1.0, scale):
        raise NumericalFailure(f"neutral vector normalization drifted: {norm}")
    m_word = rho.evaluate(word)
    residual = np.abs(m_word @ x - x).max()
    if residual > tol * max(1.0, np.abs(m_word).max()):
        raise NumericalFailure(f"fixed-vector residual {residual:.3e}")
    orientation = float(np.sign(np.linalg.det(basis.eps)))
    certificate = float(np.sign(np.linalg.det(eigvecs)) * orientation)
    return NeutralVector(vector=x, word=tuple(word), certificate=certificate)


def value_by_adjoint(omega, word, rho_e):
    """Literal Ad-cocycle accumulation of the tangent ρ̇_g = ½·X_{ω_g} of a
    `Cocycle` along a word: ρ̇_w = ρ̇_u + Ad(ρ_E(u)) ρ̇_v (moderate words
    only)."""
    dim = rho_e.dim
    generators = 0.5 * special_shape(omega.vectors, omega.rho.form.matrix)
    out = np.zeros((dim, dim))
    prefix = np.eye(dim)
    for letter in word:
        if letter > 0:
            out = out + prefix @ generators[letter - 1] @ np.linalg.inv(prefix)
            prefix = prefix @ rho_e.generator(letter)
        else:
            prefix = prefix @ rho_e.generator(letter)
            out = out - prefix @ generators[-letter - 1] @ np.linalg.inv(prefix)
    return out


def extend_cocycle_per_row(vectors, word, rho):
    """ω_word of one (n_generators, dim) assignment, one matrix-vector
    product per letter: the per-pair evaluation that `extend_cocycle`
    runs on stacks."""
    value = np.zeros(rho.dim)
    prefix = np.eye(rho.dim)
    for letter in free_reduce(word):
        if letter > 0:
            value = value + prefix @ vectors[letter - 1]
            prefix = prefix @ rho.generator(letter)
        else:
            inv = rho.generator(letter)
            value = value - prefix @ inv @ vectors[-letter - 1]
            prefix = prefix @ inv
    return value


def eigenvalue_derivative_per_pair(eig, rho_dot):
    """(λ̇, λ̄̇) of one (2p, 2p) tangent, one eigenpair at a time:
    λ_i·(v̄_i Q ρ̇ v_i) / (v̄_i Q v_i), the form `eigenvalue_derivative`
    evaluates on stacks."""
    q = eig.form.matrix
    dim = eig.vectors.shape[0]
    derivs = np.zeros(dim)
    for i in range(dim):
        v = eig.vectors[:, i]
        partner = eig.vectors[:, dim - 1 - i]
        num = eig.eigenvalues[i] * (partner @ q @ rho_dot @ v)
        den = partner @ q @ v
        if abs(den) < 1e-12:
            raise NumericalFailure("degenerate eigenvector pairing")
        derivs[i] = num / den
    return derivs[:eig.p], derivs[eig.p:][::-1]


def derivative_pairs_per_pair(ws, n_pairs, seed, free_letters):
    """The draws of `cli.draw_derivative_pairs`, each cocycle's generator
    vectors contracted from its coefficients alone (`np.tensordot`)."""
    rng = np.random.default_rng(seed)
    pool = ws.ball(6.0).cyclic_words()
    basis = solve_cocycle_space(ws.rho_v, ws.presentation)
    free_pool = [w for w in pool if all(abs(l) in free_letters for l in w)]
    words, vectors, free_words = [], [], []
    for _ in range(n_pairs):
        words.append(pool[rng.integers(0, len(pool))])
        coefficients = rng.standard_normal(basis.dimension)
        vectors.append(np.tensordot(coefficients, basis.vectors, axes=(0, 0)))
        if free_pool:
            free_words.append(free_pool[rng.integers(0, len(free_pool))])
    return words, np.array(vectors), free_words


def formula_route_per_pair(ws, words, vectors, eig):
    """λ̇_1..λ̇_p of each pair of `cli.derivative_check`'s formula route, one
    pair at a time: the pair's tangent ½·X_{ω_w} from its own cocycle
    value, then `eigenvalue_derivative_per_pair`. Shape (n_pairs, p)."""
    q_v = ws.rho_v.form.matrix
    return np.array([
        eigenvalue_derivative_per_pair(
            eig[word], 0.5 * special_shape(extend_cocycle_per_row(row, word, ws.rho_v), q_v))[0]
        for word, row in zip(words, vectors)
    ])


# --- spectra ---------------------------------------------------------------

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
        current = set(spec.words)
        counts.append(len(current))
        if words is not None and current != words:
            raise AssertionError(
                f"spectrum not stabilized: {len(current)} vs {len(words)} classes"
            )
        words = current
    return counts
