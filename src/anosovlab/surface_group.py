"""Words, presentations and cocycle linear algebra for the genus-2 surface group.

A word is a tuple of nonzero signed integers: letter ``k`` is the k-th
generator, ``-k`` its inverse. Generators are labeled ``a1, b1, a2, b2`` and
serialized with case marking the sign (``A1`` is the inverse of ``a1``).

Conjugacy classes are canonicalized with the cyclic variant of Dehn's
algorithm for the single surface relator: cyclic free reduction, greedy
replacement of cyclic subwords longer than half the relator, closure under
the equal-length half-relator swaps, then minimal rotation. The relator
satisfies the small-cancellation condition that makes the shortening step
terminate, and the result is cross-checked downstream against holonomy
traces (same class ⇒ same trace).
"""

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import SVD_THRESHOLD

GENERATOR_LABELS = ("a1", "b1", "a2", "b2")

Word = tuple  # tuple of nonzero signed ints


def free_reduce(word):
    """Freely reduce a word (cancel adjacent g g^-1)."""
    out = []
    for letter in word:
        if letter == 0:
            raise ValueError("letters are nonzero signed integers")
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def inverse_word(word):
    return tuple(-letter for letter in reversed(word))


def cyclic_reduce(word):
    """Freely reduce, then cancel across the wrap-around."""
    w = list(free_reduce(word))
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


def rotations(word):
    n = len(word)
    return [word[i:] + word[:i] for i in range(n)] if n else [word]


def min_rotation(word):
    """Lexicographically minimal rotation (canonical representative)."""
    return min(rotations(word)) if word else word


def format_word(word):
    """Serialize a word, uppercase marking inverse letters; identity is '1'."""
    if not word:
        return "1"
    parts = []
    for letter in word:
        lab = GENERATOR_LABELS[abs(letter) - 1]
        parts.append(lab if letter > 0 else lab.upper())
    return ".".join(parts)


@dataclass(frozen=True)
class GroupPresentation:
    """One-relator presentation with a fixed cyclically reduced relator."""

    n_generators: int
    relator: Word

    def __post_init__(self):
        if self.n_generators < 2:
            raise ValueError("need at least 2 generators")
        if cyclic_reduce(self.relator) != self.relator or not self.relator:
            raise ValueError("relator must be nonempty and cyclically reduced")

    @classmethod
    def genus2(cls):
        """The genus-2 commutator presentation on a1, b1, a2, b2."""
        return cls(4, (1, 2, -1, -2, 3, 4, -3, -4))


@dataclass(frozen=True)
class CyclicWord:
    """Conjugacy-class representative: cyclically reduced, minimal rotation."""

    letters: Word

    def __len__(self):
        return len(self.letters)

    def __str__(self):
        return format_word(self.letters)

    @property
    def is_trivial(self):
        return not self.letters


@lru_cache(maxsize=8)
def _relator_tables(relator):
    """Replacement tables for Dehn moves of a cyclically reduced relator.

    Returns (long_moves, half_moves): maps from a subword s of a cyclic
    rotation of the relator or its inverse to the equivalent complement
    t^{-1}, for |s| > half (strictly shortening, as (|s|, map) pairs,
    longest first) and |s| == half (length preserving), respectively.
    """
    n = len(relator)
    half = n // 2
    long_moves = {}
    half_moves = {}
    for base in (relator, inverse_word(relator)):
        for rot in rotations(base):
            for k in range(half, n):
                s, t = rot[:k], rot[k:]
                repl = inverse_word(t)
                if k > half:
                    long_moves.setdefault(k, {}).setdefault(s, repl)
                elif k == half:
                    half_moves.setdefault(s, repl)
    return sorted(long_moves.items(), reverse=True), half_moves


def _cyclic_dehn_step(word, long_moves):
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


def _half_swap_variants(word, half_moves):
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


def conjugacy_canonical(word, presentation):
    """Canonical CyclicWord of the conjugacy class of `word`.

    Cyclic reduction, cyclic Dehn reduction, closure under half-relator
    swaps, then minimal rotation over everything reachable. Conjugate
    inputs map to equal outputs; the relator itself maps to the empty
    class.
    """
    long_moves, half_moves = _relator_tables(presentation.relator)
    w = cyclic_reduce(word)
    # shorten as far as possible first
    while True:
        nxt = _cyclic_dehn_step(w, long_moves)
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
        for variant in _half_swap_variants(current, half_moves):
            shorter = _cyclic_dehn_step(variant, long_moves)
            if shorter is not None:
                # strictly shorter representative found: restart from it
                return conjugacy_canonical(shorter, presentation)
            key = min_rotation(variant)
            if key not in seen:
                seen.add(key)
                frontier.append(key)
    return CyclicWord(min(seen))


def extend_cocycle(omega, word, rho):
    """Value of the cocycle at `word`: ω_e = 0, ω_{gh} = ω_g + ρ(g)ω_h.

    Parameters
    ----------
    omega : array
        Translation vectors per positive generator letter, shape
        (n_generators, dim); letter g reads row g - 1.
    word : tuple
        Word in signed letters.
    rho : Representation
        Linear representation supplying ρ(g).

    Notes
    -----
    The word is freely reduced first (the value depends only on the group
    element, and reduction removes exactly the prefix products that would
    cancel). Direct evaluation; intended for words of moderate length.
    Class invariants of the Margulis pairing are evaluated by the
    numerically stable orbit sum in `affine_deform`.
    """
    word = free_reduce(word)
    vectors = np.asarray(omega, float)
    if vectors.ndim != 2 or vectors.shape[1] != rho.dim:
        raise ValueError("omega must be (n_generators, dim)")
    value = np.zeros(rho.dim)
    prefix = np.eye(rho.dim)
    for letter in word:
        if letter > 0:
            value = value + prefix @ vectors[letter - 1]
            prefix = prefix @ rho.generator(letter)
        else:
            inv = rho.generator(letter)  # rho caches inverses
            value = value - prefix @ inv @ vectors[-letter - 1]
            prefix = prefix @ inv
    return value


@dataclass
class CocycleBasis:
    """Basis of the relator-compatible cocycle space Z^1.

    Each basis element assigns one vector in R^dim to every generator;
    `vectors` has shape (dimension, n_generators, dim).
    """

    vectors: np.ndarray
    rank: int

    @property
    def dimension(self):
        return self.vectors.shape[0]

    def element(self, coefficients):
        """Generator assignment (n_generators, dim) for given coefficients."""
        coefficients = np.asarray(coefficients, float)
        return np.tensordot(coefficients, self.vectors, axes=(0, 0))


def relator_constraint_matrix(rho, presentation):
    """Matrix of ω ↦ ω_R on stacked generator vectors (Fox-derivative style).

    Shape (dim, n_generators * dim); the cocycle rule expands the relator
    into prefix-weighted blocks, one per letter.
    """
    dim, n_gen = rho.dim, presentation.n_generators
    c = np.zeros((dim, n_gen * dim))
    prefix = np.eye(dim)
    for letter in presentation.relator:
        if letter > 0:
            c[:, (letter - 1) * dim : letter * dim] += prefix
            prefix = prefix @ rho.generator(letter)
        else:
            prefix = prefix @ rho.generator(letter)
            c[:, (-letter - 1) * dim : (-letter) * dim] -= prefix
    return c


def solve_cocycle_space(rho, presentation):
    """Basis of generator assignments with vanishing relator extension.

    Dense SVD with singular values thresholded at SVD_THRESHOLD × σ_max.
    Emits a warning when the relator constraint is rank deficient (an
    invariant vector or a degenerate representation).
    """
    dim = rho.dim
    c = relator_constraint_matrix(rho, presentation)
    u, s, vt = np.linalg.svd(c, full_matrices=True)
    rank = int(np.sum(s > SVD_THRESHOLD * s[0])) if s.size else 0
    if rank < dim:
        warnings.warn(
            f"relator constraint has rank {rank} < {dim}: invariant vector "
            "or numerically degenerate representation",
            stacklevel=2,
        )
    basis_rows = vt[rank:]
    vectors = basis_rows.reshape(basis_rows.shape[0], presentation.n_generators, dim)
    return CocycleBasis(vectors=vectors, rank=rank)
