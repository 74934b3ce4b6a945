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

The canonicalization runs on many words at once, as int8 letter arrays
(`conjugacy_canonical_rows`): cyclic windows are packed a few bits per
letter and looked up in the sorted packed move keys, word lengths are
taken longest first, and the swap closure is a batched frontier.
`conjugacy_canonical` is its one-row call.
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


@dataclass(frozen=True)
class _Moves:
    """The Dehn moves of a presentation as arrays.

    A letter packs to its rank among the 2·n_generators signed letters,
    in `bits` bits, so packed words of one length compare as their
    letter tuples do. `half` and each entry of `long` (longest first)
    are (k, keys, replacements): the packed k-letter keys, sorted, and
    the int8 replacement row of each.
    """

    n_generators: int
    bits: int
    half: tuple
    long: tuple

    def windows(self, words, k_max):
        """Packed cyclic windows of the rows of an (m, n) letter array:
        entry k ≤ min(k_max, n) is an (m, n) array whose column i packs
        the k letters from position i on, wrapping, first letter
        highest."""
        n = words.shape[1]
        ranks = words.astype(np.int64)
        ranks += self.n_generators - (ranks > 0)
        windows = {}
        packed = np.zeros_like(ranks)
        for k in range(1, min(k_max, n) + 1):
            packed = packed << self.bits | ranks[:, (np.arange(n) + k - 1) % n]
            windows[k] = packed
        return windows

    def shortening(self, words):
        """Whether each row of an (m, n) letter array admits a Dehn step:
        a window of the shortest long move, which begins every long-move
        key, is one of its keys."""
        k = self.long[-1][0]
        if words.shape[1] < k:
            return np.zeros(len(words), dtype=bool)
        return _lookup(self.windows(words, k), self.long[-1])[0].any(axis=1)


def _moves(presentation):
    """`_relator_tables` of the presentation's relator as `_Moves`, built
    afresh on each call (a few dozen keys). The batched route's length
    argument for swaps needs a relator of even length, at least 4."""
    if len(presentation.relator) % 2 or len(presentation.relator) < 4:
        raise ValueError("canonicalization needs a relator of even length ≥ 4")
    long_moves, half_moves = _relator_tables(presentation.relator)
    n_generators = presentation.n_generators
    packing = _Moves(n_generators, (2 * n_generators - 1).bit_length(), (), ())

    def table(k, moves):
        keys = packing.windows(np.array(list(moves), dtype=np.int8), k)[k][:, 0]
        order = np.argsort(keys)
        return k, keys[order], np.array(list(moves.values()), dtype=np.int8)[order]

    return _Moves(packing.n_generators, packing.bits,
                  table(len(presentation.relator) // 2, half_moves),
                  tuple(table(k, moves) for k, moves in long_moves))


def _lookup(windows, table):
    """(hit, position): where the packed windows of a move table's length
    are its keys, and the index of the key."""
    k, keys, _ = table
    position = np.searchsorted(keys, windows[k])
    np.minimum(position, len(keys) - 1, out=position)
    return keys[position] == windows[k], position


def _moved(words, hit, position, table):
    """(row, replacement, rest) of each hit window of an (m, n) letter
    array: its row, the move's replacement, and the n − k letters that
    follow the window cyclically."""
    k, _, replacements = table
    n = words.shape[1]
    row, start = np.nonzero(hit)
    rest = words[row[:, None], (start[:, None] + k + np.arange(n - k)) % n]
    return row, replacements[position[row, start]], rest


def conjugacy_canonical_rows(keys, lengths, presentation):
    """Canonical cyclic words of the conjugacy classes of many words.

    Row j of the int8 `keys` holds a cyclically reduced word, in its
    least rotation, in its first lengths[j] columns, zero-padded. Returns
    (words, lengths) in the same layout and width: row j holds the
    canonical word of row j's class, the empty word for the trivial
    class.

    The rule is the cyclic Dehn algorithm for the single relator: cyclic
    Dehn steps while one applies, each taking the longest matching move,
    then the result of least (length, least rotation); then the closure
    under the equal-length half-relator swaps, whose least word is the
    canonical one. A closure that reaches a word admitting a Dehn step
    restarts from that word. All rows run at once, one word length at a
    time, longest first, since a step only shortens a word:
    - Cyclic windows are packed (`_Moves.windows`) and looked up in the
      sorted packed move keys. A row with no half-relator window takes
      no move (every long-move key begins with one) and keeps its key.
    - Rows that admit a Dehn step take one (`_dehn_steps`); the results
      join the rows of their new length.
    - The others run the half-swap closure (`_half_swap_closure`).
    Words are held as least rotations throughout.
    """
    moves = _moves(presentation)
    lengths = np.asarray(lengths, dtype=np.intp)
    out = np.zeros_like(keys)
    out_lengths = np.zeros_like(lengths)
    pending = {}
    _file(pending, np.arange(len(lengths)), keys, lengths)
    while pending:
        n = max(pending)
        rows, words = (np.concatenate(part) for part in zip(*pending.pop(n)))
        steps = np.zeros(len(rows), dtype=bool)
        if n >= moves.half[0]:
            swapping = _lookup(moves.windows(words, moves.half[0]), moves.half)[0]
            steps = moves.shortening(words)
            swaps = np.flatnonzero(swapping.any(axis=1) & ~steps)
            words[swaps], restart = _half_swap_closure(words[swaps], moves)
            steps[swaps[restart]] = True
        if steps.any():
            _file(pending, rows[steps], *_dehn_steps(words[steps], moves))
        out[rows[~steps], :n] = words[~steps]
        out_lengths[rows[~steps]] = n
    return out, out_lengths


def _file(pending, rows, words, lengths):
    """File rows by word length: pending[n] lists (rows, (m, n) words)."""
    for n in np.unique(lengths).tolist():
        chosen = lengths == n
        pending.setdefault(n, []).append((rows[chosen], words[chosen, :n]))


def _dehn_steps(words, moves):
    """One cyclic Dehn step on each row of an (m, n) letter array, each
    of which admits one.

    A row takes its longest matching move; among that move's windows
    the result of least (length, least rotation) wins. Returns the least
    rotations of the results, zero-padded to n columns, and their
    lengths.
    """
    m, n = words.shape
    windows = moves.windows(words, moves.long[0][0])
    taken = np.zeros(m, dtype=bool)
    rows, results, lengths = [], [], []
    for table in moves.long:
        if table[0] > n:
            continue
        hit, position = _lookup(windows, table)
        hit &= ~taken[:, None]
        taken |= hit.any(axis=1)
        row, replacement, rest = _moved(words, hit, position, table)
        joined, length = _cyclic_join(replacement, rest)
        rows.append(row)
        results.append(np.pad(joined, ((0, 0), (0, n - joined.shape[1]))))
        lengths.append(length)
    rows, results, lengths = map(np.concatenate, (rows, results, lengths))
    for length in np.unique(lengths).tolist():
        chosen = lengths == length
        results[chosen, :length] = _least_rotations(results[chosen, :length])
    first = _least_per_row(rows, lengths, *results.T)
    return results[first], lengths[first]


def _least_per_row(rows, *columns):
    """Index of the least entry of each row index, in row order: entries
    compare by `columns`, most significant first, and `rows` holds each
    index 0 .. m − 1 at least once."""
    order = np.lexsort([*columns[::-1], rows])
    return order[np.diff(rows[order], prepend=-1) != 0]


def _cyclic_join(left, right):
    """Cyclic reduction of the cyclic words left·right, for rows of freely
    reduced words: the junction left | right is cancelled, then the
    wrap-around is peeled (`_peeled`). Returns zero-padded words of the
    joint width and their lengths."""
    a, b = left.shape[1], right.shape[1]
    cut = np.zeros(len(left), dtype=np.intp)
    for j in range(min(a, b)):
        cut[(cut == j) & (left[:, a - 1 - j] == -right[:, j])] += 1
    columns = np.arange(a + b)
    source = np.where(columns < a - cut[:, None], columns, columns + 2 * cut[:, None])
    letters = np.take_along_axis(np.concatenate([left, right], axis=1),
                                 np.minimum(source, a + b - 1), axis=1)
    lengths = a + b - 2 * cut
    letters[columns >= lengths[:, None]] = 0
    return _peeled(letters, lengths)


def _half_swap_closure(words, moves):
    """Half-swap closure of the Dehn-reduced rows of an (m, n) array of
    least rotations.

    A batched frontier: each round takes every half-relator swap of the
    frontier's words, in least rotation, and the (row, word) pairs not
    seen before, found over their bytes (`_first_occurrences`), are the
    next frontier. A swap keeps the length of a Dehn-reduced word: a
    cancellation at either junction would need a window of the shortest
    long move. Returns (words, restart): a row none of whose reachable
    words admits a Dehn step gets the least of them; a row that reaches
    one that does gets that word, and restart marks it.
    """
    result = words.copy()
    live = np.ones(len(words), dtype=bool)
    seen_rows = front_rows = np.arange(len(words))
    seen = front = words
    while len(front_rows):
        windows = moves.windows(front, moves.half[0])
        row, replacement, rest = _moved(front, *_lookup(windows, moves.half), moves.half)
        row = front_rows[row]
        swapped = _least_rotations(np.concatenate([replacement, rest], axis=1))
        steps = moves.shortening(swapped)
        restarted, first = np.unique(row[steps], return_index=True)
        result[restarted] = swapped[steps][first]
        live[restarted] = False
        keep = live[row]
        rows = np.concatenate([seen_rows, row[keep]]).astype(np.int64)
        both = np.concatenate([seen, swapped[keep]])
        firsts, _ = _first_occurrences(
            np.concatenate([rows[:, None].view(np.int8), both], axis=1))
        new = firsts[firsts >= len(seen_rows)]
        front_rows, front = rows[new], both[new]
        seen_rows = np.concatenate([seen_rows, front_rows])
        seen = np.concatenate([seen, front])
    closed = live[seen_rows]
    # `_least_per_row` wants the live rows numbered 0, 1, ...
    rank = np.cumsum(live) - 1
    result[live] = seen[closed][_least_per_row(rank[seen_rows[closed]], *seen[closed].T)]
    return result, ~live


def _first_occurrences(rows):
    """(firsts, index): the row of the first occurrence of each distinct
    row of a 2-D array, in order of first occurrence, and for each row
    the index of its value among them. Rows are compared by their bytes,
    which works at any width."""
    flat = np.ascontiguousarray(rows).view(np.dtype((np.void, rows.shape[1]))).ravel()
    if not rows.shape[1]:
        flat = np.zeros(len(rows))
    _, first, inverse = np.unique(flat, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse.reshape(-1)]


def _least_rotations(words):
    """Lexicographically least rotation of each row of an (n, m) array.

    The start columns of the least rotation are narrowed column by column
    over the doubled rows: after step c only the starts whose first c + 1
    letters are least remain. Starts tied after m steps give the same
    rotation (a periodic word), so any of them serves.
    """
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


def _peeled(letters, lengths):
    """Freely reduced words with their wrap-around cancelled: the int8
    rows `letters` (row j's word in its first lengths[j] columns) and
    their lengths after peeling every matching first/last letter pair.

    Column j is compared with its mirror column lengths − 1 − j for the
    rows still peeling, while at least two letters remain; a row stops
    at its first mismatch. Peeled rows are shifted left and re-padded.
    """
    lengths = np.asarray(lengths, dtype=np.intp)
    peel = np.zeros(len(lengths), dtype=np.intp)
    live = np.arange(len(lengths))
    for j in range(letters.shape[1] // 2):
        live = live[lengths[live] - 2 * j >= 2]
        live = live[letters[live, j] == -letters[live, lengths[live] - 1 - j]]
        if not live.size:
            break
        peel[live] += 1
    cyclic = letters.copy()
    lengths = lengths - 2 * peel
    shifted = np.flatnonzero(peel)
    columns = np.arange(letters.shape[1])
    moved = np.take_along_axis(
        letters[shifted],
        np.minimum(peel[shifted, None] + columns, letters.shape[1] - 1), axis=1)
    moved[columns >= lengths[shifted, None]] = 0
    cyclic[shifted] = moved
    return cyclic, lengths


def conjugacy_canonical(word, presentation):
    """Canonical CyclicWord of the conjugacy class of `word`.

    A one-row call of `conjugacy_canonical_rows` on the least rotation of
    the cyclically reduced word. Conjugate inputs map to equal outputs;
    the relator itself maps to the empty class.
    """
    key = min_rotation(cyclic_reduce(word))
    letters, lengths = conjugacy_canonical_rows(
        np.array(key, dtype=np.int8).reshape(1, len(key)), [len(key)], presentation)
    return CyclicWord(tuple(letters[0, :lengths[0]].tolist()))


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
