"""Affine deformations of SO(p,p-1) representations: Margulis invariants,
tangent directions in SO(p,p), and first-order eigenvalue variation.

An affine deformation of the linear representation ρ0 on V is a cocycle of
translation parts ω. Its Margulis invariant pairs the cocycle value with
the neutral vector (the oriented unit spacelike fixed vector),

    α(γ) = Q(ω_γ, x_γ),

and is evaluated here as the orbit sum of per-letter pairings with the
local neutral section: for the cyclic word γ = r_1 ... r_m,

    α(γ) = Σ_j ± Q(ω_{g_j}, x at the j-th rotation of γ),

which is the discrete form of the diffusion integral and, unlike the
direct pairing, stays at unit scale for long words (the direct prefix
products reach e^{(p-1)ℓ} and cancel catastrophically).

The tangent of the deformation inside SO(p,p) maps f to V with the
special shape X_w : u ↦ Q(u,w) f, f ↦ w. The normalization ρ̇_g =
½·X_{ω_g} (an Ad-cocycle, so ρ̇_γ = ½·X_{ω_γ} for every γ, which
`Cocycle.tangent` evaluates) is the one
under which the middle eigenvalue moves at half the Margulis invariant
while all other eigenvalues stay constant at first order; both facts are
cross-checked against central finite differences on free subgroups.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import InputError, NumericalFailure
from .fuchsian import boundary_separation, fixed_points, sl2_eigenbasis
from .principal_rep import Representation, sym_power_middle_column
from .surface_group import cyclic_reduce, extend_cocycle

PING_PONG_SEPARATION = 0.05
PING_PONG_PROBE_LENGTH = 4
MIDDLE_COLLISION_TOL = 1e-6


@dataclass
class Cocycle:
    """Translation parts per generator for an affine deformation of rho.

    `vectors` has shape (n_generators, dim), or (N, n_generators, dim)
    for a stack of N cocycles, whose values and tangents are then stacks
    too. For surface groups the relator extension must vanish;
    `relator_residual` reports it.
    """

    vectors: np.ndarray
    rho: Representation = field(repr=False)

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, float)
        if self.vectors.shape[-1] != self.rho.dim:
            raise InputError("cocycle vectors must match the representation dimension")

    def value(self, word):
        """Cocycle value ω_w by the left-to-right cocycle rule."""
        return extend_cocycle(self.vectors, word, self.rho)

    def tangent(self, word):
        """Tangent ρ̇_w = ½·X_{ω_w} in so(p,p) of the deformation at a word.

        The tangent is the Ad-cocycle ρ̇_w = ρ̇_u + Ad(ρ_E(u)) ρ̇_v with
        ρ̇_g = ½·X_{ω_g}. The adjoint action preserves the special shape,
        Ad(ρ_E(u))·X_v = X_{ρ0(u)v}, so the extension collapses to
        ½·X_{ω_w}; evaluating it that way keeps the error linear in the
        word's matrix norm where the literal Ad-conjugation sum loses twice
        the digits.
        """
        return 0.5 * special_shape(self.value(word), self.rho.form.matrix)

    def relator_residual(self, presentation):
        return float(np.abs(self.value(presentation.relator)).max())


def coboundary(rho, vector):
    """The coboundary cocycle ω_g = v - ρ(g)v."""
    vector = np.asarray(vector, float)
    n_gen = len(rho.generators)
    vectors = np.array([vector - rho.generator(g) @ vector
                        for g in range(1, n_gen + 1)])
    return Cocycle(vectors=vectors, rho=rho)


def margulis_invariants(rho, omegas, words, basis):
    """Margulis invariants α(w) = Q(ω_w, x_w) of several cocycles.

    `omegas` is a list of Cocycles, or one Cocycle whose `vectors` are an
    (n_cocycles, generators, dim) stack (a (generators, dim) one counts
    as one cocycle). `words` is one word (a tuple of signed letters),
    giving shape (n_cocycles,), or a list of words, giving (n_words,
    n_cocycles).
    Orbit-sum evaluation over the cyclic word: each letter pairs its
    generator vector with the neutral vector of the corresponding
    rotation, so the neutral-section work is shared across cocycles and
    the sum stays at unit scale for long words. Conjugation invariant and
    a class function (each word is cyclically reduced first).

    Batched: the reduced words are grouped by length. Per group, the 2×2
    product of every rotation the sum reads is built left to right as one
    stacked product per letter position (`Representation.products`), the
    neutral vectors of all those rotations come from one stacked
    `sl2_eigenbasis`, and the pairings are stacked dot products summed
    letter by letter. The neutral vector sym(h)·eps_p is c_p times column
    p-1 of sym(h), since the weight basis `basis.eps` is diagonal; only
    that column is built (`sym_power_middle_column`, with the bits of the
    full `sym_power_rep`).
    These are the per-word products, dots and summation order, so every
    α has the bits of the word evaluated alone.
    """
    single = isinstance(words, tuple)
    reduced = [cyclic_reduce(w) for w in ([words] if single else words)]
    if not all(reduced):
        raise InputError("Margulis invariant of the trivial class")
    if rho.base is None:
        raise InputError("margulis_invariants needs the SL(2,R) base representation")
    q = basis.form_v.matrix
    p = basis.p
    if isinstance(omegas, Cocycle):
        vectors = omegas.vectors.reshape((-1,) + omegas.vectors.shape[-2:])
    else:
        vectors = np.array([om.vectors for om in omegas])
    totals = np.zeros((len(reduced), len(vectors)))
    by_length = {}
    for index, w in enumerate(reduced):
        by_length.setdefault(len(w), []).append(index)
    for m, indices in by_length.items():
        letters = np.array([reduced[i] for i in indices])
        positive = letters > 0
        # a positive letter j reads rotation j, a negative one rotation j + 1
        reads = np.where(positive, np.arange(m), (np.arange(m) + 1) % m)
        needed = np.zeros(letters.shape, dtype=bool)
        needed[np.arange(len(indices))[:, None], reads] = True
        word_of, start = np.nonzero(needed)
        spelled = letters[word_of[:, None], (start[:, None] + np.arange(m)) % m]
        h, _ = sl2_eigenbasis(rho.base.products(spelled))
        # sym(h)·eps_p, with eps diagonal: c_p times column p-1 of sym(h)
        x = sym_power_middle_column(p, h) * basis.eps[p - 1, p - 1]
        qx_of = (q @ x[:, :, None])[:, :, 0]
        slot = np.zeros(letters.shape, dtype=np.intp)
        slot[word_of, start] = np.arange(len(start))
        qx = qx_of[slot[np.arange(len(indices))[:, None], reads]]
        omega_rows = np.ascontiguousarray(vectors[:, np.abs(letters) - 1])
        dots = (omega_rows[..., None, :] @ qx[None, ..., None])[..., 0, 0]
        sums = np.zeros((len(vectors), len(indices)))
        for j in range(m):
            sums = np.where(positive[:, j], sums + dots[:, :, j],
                            sums - dots[:, :, j])
        totals[indices] = sums.T
    return totals[0] if single else totals


def margulis_invariant(rho, omega, word, basis):
    """Margulis invariant α(word) = Q(ω_word, x_word) of one cocycle."""
    return float(margulis_invariants(rho, omega, word, basis)[0])


def special_shape(w, q_v):
    """The so(p,p) element X_w : u ↦ Q(u,w) f, f ↦ w (u in V), for one
    vector w or for each row of a stack of them.

    The image lies in the isometry algebra, vanishes on V ⊗ V pairings, and
    reproduces w through pairing: Q(X_w(f), v) = Q(w, v) for all v in V.
    """
    n = w.shape[-1]
    x = np.zeros(w.shape[:-1] + (n + 1, n + 1))
    x[..., n, :n] = w @ q_v
    x[..., :n, n] = w
    return x


def eigenvalue_derivative(eig, rho_dot_w):
    """First-order eigenvalue variation under a tangent direction.

    Standard simple-spectrum perturbation with left eigenvectors obtained
    by Q-pairing: for the eigenpair (λ_i, v_i) with Q-partner v̄_i,

        λ̇_i = ⟨v̄_i | ρ̇_w · A · v_i⟩ / ⟨v̄_i | v_i⟩.

    The doubly degenerate middle pair must be structurally split in `eig`
    (the projected perturbation block is diagonal in the lightlike basis,
    so the naive formula is exact there too).

    Parameters
    ----------
    eig : EigenData
        Eigen-structure of A = ρ0(w), with the split middle pair.
    rho_dot_w : ndarray
        Tangent of the deformation at w, one (2p, 2p) matrix or an
        (N, 2p, 2p) stack of them. Per eigenpair, v̄_i·Q and the
        denominator are formed once and the numerators of the whole stack
        are stacked products, so each tangent gets the bits it gets alone.

    Returns
    -------
    (lambda_dot, lambda_bar_dot) : ndarray, ndarray
        Derivatives of λ_1..λ_p and of λ̄_1..λ̄_p, shape (p,), or (N, p)
        for a stack.
    """
    q = eig.form.matrix
    dim = eig.vectors.shape[0]
    p = eig.p
    rho_dots = np.asarray(rho_dot_w, float)
    stack = rho_dots if rho_dots.ndim == 3 else rho_dots[None]
    derivs = np.zeros((len(stack), dim))
    for i in range(dim):
        v = eig.vectors[:, i]
        pq = eig.vectors[:, dim - 1 - i] @ q
        den = pq @ v
        if abs(den) < 1e-12:
            raise NumericalFailure("degenerate eigenvector pairing")
        # (ρ̇ A) v = λ_i ρ̇ v on the exact eigenvector: evaluating the
        # right factor first keeps the products at the scale of ρ̇ instead
        # of ‖ρ̇‖·‖A‖
        num = eig.eigenvalues[i] * ((pq[None, None, :] @ stack) @ v[None, :, None])[:, 0, 0]
        derivs[:, i] = num / den
    if rho_dots.ndim == 2:
        derivs = derivs[0]
    return derivs[..., :p], derivs[..., p:][..., ::-1]


def ping_pong_certificate(sl2_rep, letters):
    """Numerical freeness certificate for a generating pair.

    Checks that the four boundary fixed points are pairwise separated and
    that no short nontrivial word in the pair is the identity. Desk-scale
    evidence of a ping-pong configuration, not a proof.
    """
    pts = []
    for letter in letters:
        att, rep = fixed_points(sl2_rep.generator(letter))
        pts.extend([att, rep])
    worst = min(
        boundary_separation(pts[i], pts[j])
        for i in range(len(pts))
        for j in range(i + 1, len(pts))
    )
    if worst < PING_PONG_SEPARATION:
        return False, worst
    # short-word non-triviality
    frontier = [()]
    for _ in range(PING_PONG_PROBE_LENGTH):
        nxt = []
        for w in frontier:
            for letter in (letters[0], -letters[0], letters[1], -letters[1]):
                if w and w[-1] == -letter:
                    continue
                nxt.append(w + (letter,))
        frontier = nxt
        for w in frontier:
            m = sl2_rep.evaluate(w)
            if min(np.abs(m - np.eye(2)).max(), np.abs(m + np.eye(2)).max()) < 1e-6:
                return False, 0.0
    return True, worst


class FiniteDeformation:
    """Finite-t representations exp(t·ρ̇_g)·ρ_E(g) of a free subgroup, one
    per cocycle of a stack, with ρ̇_g = ½·X_{ω_g}.

    A genuine homomorphism of the free group on the chosen letters (the
    surface relator obstructs exponentiation of the full group); serves as
    the independent finite-difference oracle for the eigenvalue-derivative
    identity. `vectors` holds the generator vectors of N cocycles as one
    (N, n_generators, dim) array; the words are evaluated as (N, 2p, 2p)
    stacks. The letters are taken as free; the caller certifies that
    (`ping_pong_certificate`).

    A signed generator is built on the first word that reads it: the
    exponential, its form check and, for an inverse letter, the inverse
    of the positive one. Each is the same stacked call whenever it runs.
    """

    def __init__(self, rho_e, vectors, letters, t):
        self.letters = tuple(letters)
        self.t = float(t)
        self.form = rho_e.form.matrix
        self._rho_e = rho_e
        n = self.form.shape[0] - 1
        # ½·X_{ω_g} of the chosen letters only, Q_V the V block of the form
        self._tangents = 0.5 * special_shape(
            np.asarray(vectors, float)[:, [g - 1 for g in self.letters]],
            self.form[:n, :n])
        self._generators = {}

    def _generator(self, letter):
        g = self._generators.get(letter)
        if g is not None:
            return g
        if letter < 0:
            g = np.linalg.inv(self._generator(-letter))
        else:
            x = self._tangents[:, self.letters.index(letter)]
            g = _expm(self.t * x) @ self._rho_e.generator(letter)
            residual = np.abs(g.transpose(0, 2, 1) @ self.form @ g - self.form)
            scale = np.maximum(1.0, np.abs(g).max(axis=(1, 2)) ** 2)
            if (residual.max(axis=(1, 2)) > 1e-10 * scale).any():
                raise NumericalFailure(f"generator {letter} does not preserve the form")
        self._generators[letter] = g
        return g

    def _factors(self, word):
        for letter in word:
            if abs(letter) not in self.letters:
                raise InputError(f"word leaves the free subgroup on {self.letters}")
        return [self._generator(letter) for letter in word]

    def _product(self, factors):
        n = self.form.shape[0]
        m = np.broadcast_to(np.eye(n), factors[0].shape if factors else (1, n, n))
        for g in factors:
            m = m @ g
        return m

    def evaluate(self, word):
        return self._product(self._factors(word))

    def middle_eigenvalue(self, word, middle_pair):
        """Eigenvalue of the middle pair tracked from its t = 0 eigenline.

        `middle_pair` is the (2p, 2) t = 0 middle pair of the word, the
        reference (e_p-side) lightlike line first, as in the columns p-1
        and p of `eigendata_fuchsian(...).vectors`. The two middle
        eigenvalues differ by about |α|·t, so a full eigensolver of the
        product (whose entries reach λ_1) reads them with errors far above
        that split. Instead:

        1. Z starts from the t = 0 pair and takes two shift-invert steps,
           Z <- qr((M - I)⁻¹ Z), converging to the middle invariant plane;
        2. Y = M·Z is formed letter by letter, right to left, in
           double-double arithmetic (`_dd_apply`), so Y carries the
           product of the double factors to about 32 digits;
        3. the two-sided Q-Rayleigh-Ritz block T = (ZᵀQZ)⁻¹ ZᵀQY has the
           middle pair as eigenvalues: the plane is its own Q-dual (left
           eigenvectors of an isometry are Q·(right ones)), so the error is
           quadratic in the distance of Z from the invariant plane.

        Of the two eigenvalues of T, the one whose Ritz vector is nearest
        the reference line is returned, one per direction; when the two
        distances differ by less than MIDDLE_COLLISION_TOL (a spectral
        collision), or T has no real eigenvalues, it raises with the word.
        """
        factors = self._factors(word)
        m = self._product(factors)
        n = self.form.shape[0]
        middle_pair = np.asarray(middle_pair, float)
        z = np.broadcast_to(middle_pair, (len(m), n, 2))
        for _ in range(2):
            z, _ = np.linalg.qr(np.linalg.solve(m - np.eye(n), z))
        y_hi, y_lo = _dd_apply(factors, z)
        zq = z.transpose(0, 2, 1) @ self.form
        # T - I from Y - Z, which the double-double Y resolves to full
        # relative precision (T's entries near 1 would not)
        nu, ritz = np.linalg.eig(np.linalg.solve(zq @ z, zq @ ((y_hi - z) + y_lo)))
        if np.iscomplexobj(nu) or not np.isfinite(nu).all():
            raise NumericalFailure(
                f"no trackable middle eigenvalue for word {word} at t={self.t}"
            )
        ritz = z @ ritz
        ritz /= np.linalg.norm(ritz, axis=1, keepdims=True)
        reference = middle_pair[:, 0] / np.linalg.norm(middle_pair[:, 0])
        cosines = np.minimum(np.abs(reference @ ritz), 1.0)
        distance = np.sqrt(1.0 - cosines**2)
        nearest = np.argmin(distance, axis=1)
        if (np.abs(distance[:, 1] - distance[:, 0]) < MIDDLE_COLLISION_TOL).any():
            raise NumericalFailure(
                f"spectral collision at t={self.t} for word {word}"
            )
        return 1.0 + nu[np.arange(len(nu)), nearest]


def _expm(a):
    """exp of a stack of matrices: a Taylor series after scaling and squaring.

    The stack is scaled by 2^-k so that its largest 1-norm is at most 1/2,
    the series is summed until its terms fall below 1e-17, and the sum is
    squared k times. The finite deformations have |t|·‖ρ̇‖ ≪ 1, so k = 0
    and a handful of stacked products suffice, where a per-matrix Padé
    solver spends most of its time in call overhead.
    """
    norm = float(np.abs(a).sum(axis=-2).max(initial=0.0))
    k = math.ceil(math.log2(2.0 * norm)) if norm > 0.5 else 0
    a = a / 2.0**k
    term = total = np.broadcast_to(np.eye(a.shape[-1]), a.shape)
    order = 0
    while np.abs(term).max() > 1e-17:
        order += 1
        term = term @ a / order
        total = total + term
    for _ in range(k):
        total = total @ total
    return total


def _dd_apply(factors, z):
    """F_1 ⋯ F_m · Z for stacks of double factors, in double-double.

    Right to left, each matrix-vector step is a compensated dot product:
    the exact products (Dekker split) and the running sums (TwoSum) keep
    their rounding errors, which are summed beside them. The result is
    the product of the given doubles as an unevaluated sum hi + lo of two
    stacks of doubles.
    """
    hi, lo = np.asarray(z, float), np.zeros(np.shape(z))
    for f in reversed(factors):
        products = f[..., None] * hi[:, None]          # (N, n, n, k): f_ij·hi_jk
        errors = _two_product_error(f[..., None], hi[:, None], products)
        total, carry = products[:, :, 0], errors[:, :, 0] + f @ lo
        for j in range(1, f.shape[2]):
            total, rounding = _two_sum(total, products[:, :, j])
            carry = carry + rounding + errors[:, :, j]
        hi = total + carry
        lo = carry - (hi - total)
    return hi, lo


_SPLITTER = 2.0**27 + 1.0


def _split(a):
    c = _SPLITTER * a
    high = c - (c - a)
    return high, a - high


def _two_product_error(a, b, product):
    """The rounding error of product = fl(a·b), exactly (Dekker)."""
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    return ((a_hi * b_hi - product) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _two_sum(a, b):
    """s = fl(a + b) and its rounding error, exactly (Knuth)."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)
