import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anosovlab import spectra
from anosovlab.surface_group import (
    CocycleBasis,
    GroupPresentation,
    _cyclic_dehn_step,
    _relator_tables,
    conjugacy_canonical,
    cyclic_reduce,
    extend_cocycle,
    free_reduce,
    inverse_word,
    min_rotation,
    solve_cocycle_space,
)

from oracles import cyclic_dehn_step_unfiltered

PRES = GroupPresentation.genus2()
RELATOR = PRES.relator


def random_word(rng, length, letters=(1, -1, 2, -2, 3, -3, 4, -4)):
    word = []
    while len(word) < length:
        letter = int(rng.choice(letters))
        if word and word[-1] == -letter:
            continue
        word.append(letter)
    return tuple(word)


def test_free_reduction_examples():
    assert free_reduce((1, -1, 2)) == (2,)
    assert free_reduce(()) == ()
    assert free_reduce((1, 2, -2, -1)) == ()


def test_conjugacy_rotation_invariance():
    a = conjugacy_canonical((2, 1), PRES)
    b = conjugacy_canonical((1, 2), PRES)
    assert a == b and not a.is_trivial


def test_conjugacy_strips_conjugators():
    w = (2, 2, -3, 1)
    conjugated = (1,) + w + (-1,)
    assert conjugacy_canonical(conjugated, PRES) == conjugacy_canonical(w, PRES)


def test_relator_rotations_are_trivial():
    rotated = RELATOR[3:] + RELATOR[:3]
    assert conjugacy_canonical(rotated, PRES).is_trivial
    assert conjugacy_canonical(RELATOR, PRES).is_trivial
    assert conjugacy_canonical((), PRES).is_trivial


def test_half_relator_words_merge():
    # [a1,b1] and the complementary half of the relator are conjugate
    # (equal, even) group elements with distinct 4-letter cyclic words.
    left = (1, 2, -1, -2)
    right = inverse_word((3, 4, -3, -4))
    assert conjugacy_canonical(left, PRES) == conjugacy_canonical(right, PRES)


def test_conjugacy_random_invariance(rng):
    for _ in range(150):
        w = random_word(rng, int(rng.integers(1, 9)))
        h = random_word(rng, int(rng.integers(1, 6)))
        conjugated = h + w + inverse_word(h)
        assert conjugacy_canonical(conjugated, PRES) == conjugacy_canonical(w, PRES)


def test_conjugacy_dehn_moves_merge(rng):
    # inserting a relator rotation anywhere preserves the class
    for _ in range(100):
        w = random_word(rng, int(rng.integers(1, 7)))
        rot = int(rng.integers(0, 8))
        relator_form = RELATOR[rot:] + RELATOR[:rot]
        if rng.integers(0, 2):
            relator_form = inverse_word(relator_form)
        cut = int(rng.integers(0, len(w) + 1))
        padded = w[:cut] + relator_form + w[cut:]
        assert conjugacy_canonical(padded, PRES) == conjugacy_canonical(w, PRES)


def test_canonical_words_are_canonical_rotations(rng):
    for _ in range(50):
        w = random_word(rng, int(rng.integers(1, 8)))
        canonical = conjugacy_canonical(w, PRES)
        if canonical.is_trivial:
            continue
        letters = canonical.letters
        assert cyclic_reduce(letters) == letters
        assert min_rotation(letters) == letters
        assert letters[0] != -letters[-1]


def test_faithfulness_cross_check(lab, rng):
    # equal canonical forms must imply conjugate-compatible holonomies
    words = lab.hyperbolic_words(rng=rng, max_count=250)
    by_class = {}
    for w in words:
        c = conjugacy_canonical(w, PRES)
        by_class.setdefault(c.letters, []).append(w)
    for members in by_class.values():
        traces = [abs(float(np.trace(lab.sl2.evaluate(w)))) for w in members]
        assert max(traces) - min(traces) <= 1e-9 * max(traces)


# letters, and pieces of rotations of the relator and its inverse (so that
# windows often match a Dehn move), concatenated
RELATOR_FORMS = [form[i:] + form[:i] for form in (RELATOR, inverse_word(RELATOR))
                 for i in range(len(RELATOR))]
WORD_PIECES = st.one_of(
    st.sampled_from((1, -1, 2, -2, 3, -3, 4, -4)).map(lambda letter: (letter,)),
    st.builds(lambda form, k: form[:k], st.sampled_from(RELATOR_FORMS),
              st.integers(1, len(RELATOR))),
)
PIECED_WORDS = st.lists(WORD_PIECES, max_size=8).map(lambda parts: sum(parts, ()))


@settings(max_examples=500, deadline=None)
@given(PIECED_WORDS)
def test_dehn_prefilter_is_exact(word):
    long_moves, _ = _relator_tables(RELATOR)
    for w in (word, cyclic_reduce(word)):
        assert _cyclic_dehn_step(w, long_moves) == cyclic_dehn_step_unfiltered(w, long_moves)


def test_dehn_prefilter_is_exact_on_the_ball_keys(lab):
    # every distinct cyclic key of the T = 8 spectrum, and each word its
    # canonicalization steps through
    long_moves, _ = _relator_tables(RELATOR)
    _, cyclic, lengths = lab.ball.closed_orbits(8.0)
    keys, _ = spectra._cyclic_keys(cyclic, lengths)
    stepped = 0
    for key in keys:
        word = key
        while True:
            expected = cyclic_dehn_step_unfiltered(word, long_moves)
            assert _cyclic_dehn_step(word, long_moves) == expected
            if expected is None:
                break
            stepped += word == key
            word = expected
    # both outcomes of the prefilter are exercised
    assert 0 < stepped < len(keys)


@pytest.mark.parametrize("p,expected", [(2, 9), (3, 15)])
def test_cocycle_space_dimension(lab, p, expected):
    basis = solve_cocycle_space(lab.rho_v[p], PRES)
    assert isinstance(basis, CocycleBasis)
    assert basis.dimension == expected
    assert basis.rank == 2 * p - 1


def test_cocycle_basis_kills_relator(lab, rng):
    rho = lab.rho_v[2]
    basis = solve_cocycle_space(rho, PRES)
    for _ in range(10):
        vectors = basis.element(rng.standard_normal(basis.dimension))
        value = extend_cocycle(vectors, RELATOR, rho)
        assert np.abs(value).max() <= 1e-8


def test_coboundaries_lie_in_cocycle_span(lab, rng):
    rho = lab.rho_v[2]
    basis = solve_cocycle_space(rho, PRES)
    v = rng.standard_normal(rho.dim)
    cob = np.array([v - rho.generator(g) @ v for g in range(1, 5)])
    rows = basis.vectors.reshape(basis.dimension, -1)
    coeffs, *_ = np.linalg.lstsq(rows.T, cob.reshape(-1), rcond=None)
    assert np.abs(rows.T @ coeffs - cob.reshape(-1)).max() <= 1e-9


def test_extend_cocycle_rules(lab, rng):
    rho = lab.rho_v[2]
    omega = rng.standard_normal((4, rho.dim))
    assert np.abs(extend_cocycle(omega, (), rho)).max() == 0.0
    # two-letter rule
    u, v = omega[0], omega[1]
    value = extend_cocycle(omega, (1, 2), rho)
    assert np.abs(value - (u + rho.generator(1) @ v)).max() <= 1e-12
    # w w^-1 cancels
    w = random_word(rng, 5)
    round_trip = extend_cocycle(omega, w + inverse_word(w), rho)
    assert np.abs(round_trip).max() <= 1e-12
    # random splits; tolerance relative to the value's own scale
    for _ in range(40):
        w = random_word(rng, int(rng.integers(2, 9)))
        cut = int(rng.integers(1, len(w)))
        lhs = extend_cocycle(omega, w, rho)
        rhs = extend_cocycle(omega, w[:cut], rho) + rho.evaluate(
            w[:cut]
        ) @ extend_cocycle(omega, w[cut:], rho)
        scale = max(1.0, np.abs(lhs).max())
        assert np.abs(lhs - rhs).max() <= 1e-10 * scale


def test_rank_deficiency_warning():
    # trivial representation has invariant vectors: constraint rank 0
    gens = {g: np.eye(3) for g in range(1, 5)}
    from anosovlab.principal_rep import Representation

    rho = Representation(gens)
    with pytest.warns(UserWarning, match="rank"):
        solve_cocycle_space(rho, PRES)
