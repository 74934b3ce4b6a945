import hashlib
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from anosovlab import fuchsian
from anosovlab.linalg import InputError, NumericalFailure
from anosovlab.fuchsian import (
    APOTHEM,
    HYPERBOLIC_MARGIN,
    KEY_HORIZON,
    KEY_PRIMES,
    OCTAGON_ENTRIES,
    BallEnumeration,
    enumerate_ball,
    fixed_points,
    hyperbolic_eigenbases,
    octagon_group,
    rotation,
    sl2_eigenbasis,
    translation,
    translation_length,
)
from anosovlab.principal_rep import Representation
from anosovlab.spectra import critical_exponent, entropy_estimate
from anosovlab.surface_group import (
    cyclic_reduce,
    format_word,
    inverse_word,
)

from oracles import (
    ball_words,
    closed_orbit_words,
    distance,
    keyed_ball_search,
    mobius,
    orbit_distance,
)


def test_relator_holonomy_is_identity():
    presentation, gens = octagon_group()
    holonomy = Representation(gens).evaluate(presentation.relator)
    assert np.abs(holonomy - np.eye(2)).max() <= 1e-9


def test_generators_share_the_octagon_trace():
    _, gens = octagon_group()
    traces = [abs(float(np.trace(m))) for m in gens.values()]
    # |tr| = sqrt(2) * cot(pi/8) from the octagon trigonometry
    expected = np.sqrt(2.0) / np.tan(np.pi / 8.0)
    assert np.allclose(traces, expected, atol=1e-12)
    assert all(abs(np.linalg.det(m) - 1.0) < 1e-12 for m in gens.values())


def test_translation_length_matches_displacement_minimum():
    # independent metric oracle: min over H^2 of d(x, g x) is the
    # translation length realized on the axis
    _, gens = octagon_group()
    g = gens[1]
    expected = translation_length(g)

    def displacement(params):
        u, logv = params
        z = complex(u, np.exp(logv))
        return distance(z, mobius(g, z))

    best = min(
        minimize(displacement, start, method="Nelder-Mead",
                 options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000}).fun
        for start in ([0.0, 0.0], [0.5, 0.3], [-0.5, -0.3])
    )
    assert abs(best - expected) <= 1e-6


def test_translation_length_examples():
    assert abs(translation_length(np.diag([2.0, 0.5])) - 2 * np.log(2)) <= 1e-12
    _, gens = octagon_group()
    m = gens[2]
    conj = rotation(0.7) @ m @ np.linalg.inv(rotation(0.7))
    assert abs(translation_length(conj) - translation_length(m)) <= 1e-9
    assert abs(translation_length(m @ m) - 2 * translation_length(m)) <= 1e-9
    with pytest.raises(NumericalFailure):
        translation_length(rotation(0.3))
    with pytest.raises(NumericalFailure):
        translation_length(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_fixed_points_examples():
    att, rep = fixed_points(np.diag([2.0, 0.5]))
    assert np.allclose(att, [1, 0]) and np.allclose(rep, [0, 1])
    # inverse swaps the pair
    _, gens = octagon_group()
    m = gens[1]
    a1, r1 = fixed_points(m)
    a2, r2 = fixed_points(np.linalg.inv(m))
    assert np.allclose(np.abs(a1 @ r2), 1.0, atol=1e-10)
    assert np.allclose(np.abs(r1 @ a2), 1.0, atol=1e-10)
    # conjugation moves the pair equivariantly
    g = rotation(0.4)
    a3, _ = fixed_points(g @ m @ np.linalg.inv(g))
    image = g @ a1
    assert abs(abs(image @ a3) - np.linalg.norm(image)) <= 1e-9


def test_sl2_eigenbasis_contract():
    _, gens = octagon_group()
    for m in gens.values():
        h, lam = sl2_eigenbasis(m)
        assert lam > 1
        assert abs(np.linalg.det(h) - 1.0) <= 1e-12
        d = np.linalg.inv(h) @ m @ h
        d = d / np.sign(d[0, 0])
        assert np.allclose(d, np.diag([lam, 1 / lam]), atol=1e-10)


def test_ball_identity_only_below_systole(lab):
    ball = enumerate_ball(lab.sl2.generators, 2.9, 1.0)
    assert len(ball) == 1 and ball_words(ball) == [()]
    # smallest displacement is twice the apothem
    systole = 2 * APOTHEM
    ball2 = enumerate_ball(lab.sl2.generators, systole + 0.01, 1.0)
    assert len(ball2) == 9  # identity + four generators + inverses


def test_ball_counts_nondecreasing(lab):
    grid = np.linspace(1.0, lab.ball.radius, 18)
    counts = [lab.ball.count(t) for t in grid]
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    with pytest.raises(ValueError):
        lab.ball.count(lab.ball.radius + 1.0)


def test_ball_growth_rate(lab):
    # log N(T)/T approaches the unit growth rate from below at this scale
    t = lab.ball.radius
    rate = np.log(lab.ball.count(t)) / t
    assert 0.8 <= rate <= 1.1


def test_ball_slack_stabilization(lab):
    small = enumerate_ball(lab.sl2.generators, 8.0, 2.0)
    double = enumerate_ball(lab.sl2.generators, 8.0, 4.0)
    grid = np.linspace(0.5, 8.0, 31)
    assert [small.count(t) for t in grid] == [double.count(t) for t in grid]


@pytest.mark.parametrize("radius", [4.0, 6.0, 6.5, 8.0, 9.5, 11.0, 13.0])
def test_ball_at_slack_zero_is_the_slack_two_ball(radius):
    # the level proof in enumerate_ball fixes the elements and their kept
    # words at any slack; every bit of the ball is checked here at the
    # samplers' pools, the lab fixture, the pinned R = 11 ball and the
    # benchmark's set-up radii
    _, gens = octagon_group()
    pruned = enumerate_ball(gens, radius, 0.0)
    wide = enumerate_ball(gens, radius, 2.0)
    for name in ("letters", "word_lengths", "matrices", "distances"):
        mine, theirs = getattr(pruned, name), getattr(wide, name)
        assert (mine.dtype, mine.shape) == (theirs.dtype, theirs.shape)
        assert mine.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("radius, slack", [(9.0, 0.0), (8.0, 2.0)])
def test_ball_is_the_keyed_search(radius, slack):
    # the search tells an old element from a new one by its descent gap and
    # keys only within a level; the oracle keys across levels as well
    _, gens = octagon_group()
    ball = enumerate_ball(gens, radius, slack)
    expected = keyed_ball_search(gens, radius, slack)
    found = dict(zip(ball_words(ball), (m.tobytes() for m in ball.matrices)))
    assert len(found) == len(ball) == len(expected)
    assert found == {word: np.array(m).tobytes() for word, m in expected.items()}


def test_descent_gaps_are_at_least_four_sinh_squared_apothem():
    # |‖gs‖² − ‖g‖²| ≥ 4·sinh² a for every element g and letter s (the level
    # proof in enumerate_ball), from the search's Gram form, less 1e-9 of
    # the two squared norms; the bound is met at g = e
    _, gens = octagon_group()
    ball = enumerate_ball(gens, 12.0)
    f = ball.matrices.reshape(-1, 4).T
    diagonal0 = f[0] ** 2 + f[2] ** 2
    off_diagonal = 2.0 * (f[0] * f[1] + f[2] * f[3])
    diagonal1 = f[1] ** 2 + f[3] ** 2
    norm = diagonal0 + diagonal1
    bound = 4.0 * math.sinh(APOTHEM) ** 2
    assert abs(bound - 19.3137085) < 1e-7
    smallest = math.inf
    for g in list(gens.values()) + [np.linalg.inv(g) for g in gens.values()]:
        gram = g @ g.T
        child = (diagonal0 * gram[0, 0] + off_diagonal * gram[0, 1]
                 + diagonal1 * gram[1, 1])
        gap = np.abs(child - norm)
        assert (gap >= bound - 1e-9 * (child + norm)).all()
        smallest = min(smallest, float(gap.min()))
    assert abs(smallest - bound) <= 1e-9 * bound


def test_farthest_squared_norms_are_exact():
    # the descent-gap comparison needs each float ‖M‖² within 1.7e-7 of the
    # exact one at the largest admitted horizon; at R = 15 the farthest
    # elements are within 1e-12 of their exact entries in Z[θ] (measured
    # 6e-15), at 50 digits
    _, gens = octagon_group()
    ball = enumerate_ball(gens, 15.0)
    assert len(ball) == 817_433
    words, mats = ball_words(ball)[-32:], ball.matrices[-32:]
    with mpmath.workdps(50):
        roots = mpmath.polyroots([1, 8, 12, 16, 4], maxsteps=200, extraprec=200)
        theta = min(mpmath.re(r) for r in roots if abs(mpmath.im(r)) < 1e-30)
        for word, m in zip(words, mats):
            exact = sum(sum(mpmath.mpf(x.numerator) / x.denominator * theta**i
                            for i, x in enumerate(entry)) ** 2
                        for entry in _exact_word(word))
            a, b, c, d = m.reshape(-1)
            computed = a ** 2 + b ** 2 + c ** 2 + d ** 2
            assert abs(computed - exact) <= 1e-12 * exact
            assert math.acosh(computed / 2.0) > 14.99


def test_ball_matrices_match_their_words(lab):
    rng = np.random.default_rng(7)
    idx = rng.permutation(len(lab.ball))[:300]
    rep = Representation(lab.sl2.generators)
    words = ball_words(lab.ball)
    for i in idx:
        m = rep.evaluate(words[i])
        stored = lab.ball.matrices[i]
        assert min(np.abs(m - stored).max(), np.abs(m + stored).max()) <= 1e-9


def test_ball_inverse_symmetry(lab):
    rep = Representation(lab.sl2.generators)
    words = ball_words(lab.ball)
    for i in np.random.default_rng(11).permutation(len(lab.ball))[:200]:
        w = words[i]
        d = lab.ball.distances[i]
        d_inv = orbit_distance(rep.evaluate(inverse_word(w)))
        assert abs(d - d_inv) <= 1e-9


def test_ball_deterministic(lab):
    again = enumerate_ball(lab.sl2.generators, 6.5, 2.0)
    reference = enumerate_ball(lab.sl2.generators, 6.5, 2.0)
    assert ball_words(again) == ball_words(reference)
    assert np.array_equal(again.matrices, reference.matrices)


def test_cyclic_words_are_the_hyperbolic_pool(lab):
    # the reference is the samplers' former pool: every ball word cyclically
    # reduced, evaluated, and kept when its |trace| exceeds 2.001
    reference = {
        w for w in {cyclic_reduce(w) for w in ball_words(lab.ball)} - {()}
        if abs(float(np.trace(lab.sl2.evaluate(w)))) > 2.001
    }
    assert lab.ball.cyclic_words() == sorted(reference)


def test_cyclic_words_within_a_radius(lab):
    # the closed orbits the class spectra read: exact length test on the
    # ball's own traces, in ball order, wrap-around peeled
    expected = []
    for word, m in zip(ball_words(lab.ball), lab.ball.matrices):
        trace = abs(float(m[0, 0] + m[1, 1]))
        if trace > 2.0 + 1e-12 and 2.0 * math.acosh(trace / 2.0) <= 7.0 + 1e-12:
            expected.append((cyclic_reduce(word), trace))
    assert len(expected) > 100
    assert closed_orbit_words(lab.ball, 7.0) == expected


# the transversality (R = 6.5) and deriv-check (R = 6.0) pools: size and
# SHA-256 of the newline-joined `format_word` of the sorted pool, recorded
# before `cyclic_words` read the peeled letter array
PINNED_POOLS = {
    6.5: (128, "e1e14f6ebbbc66869e8901cc8225c22b04ee85da499628c80239c9417a5c39c2"),
    6.0: (88, "567ffd68d0994fd38adfc6ab2561a06abc1dbfc4b474ea17bc720e01e8f29e0f"),
}


@pytest.mark.parametrize("radius", sorted(PINNED_POOLS))
def test_sampler_pools_pinned(radius):
    presentation, gens = octagon_group()
    ball = enumerate_ball(gens, radius, 2.0, presentation=presentation)
    pool = ball.cyclic_words()
    digest = hashlib.sha256("\n".join(map(format_word, pool)).encode()).hexdigest()
    assert (len(pool), digest) == PINNED_POOLS[radius]


def test_ball_independent_of_key_hash(monkeypatch):
    # a 2-bit hash makes most keys collide; exact key compares must keep
    # every element apart, so the ball cannot change
    _, gens = octagon_group()
    reference = enumerate_ball(gens, 8.0, 2.0)
    monkeypatch.setattr(fuchsian, "_key_hash",
                        lambda keys: (keys[:, 0] & 3).astype(np.uint64))
    degenerate = enumerate_ball(gens, 8.0, 2.0)
    assert ball_words(degenerate) == ball_words(reference)
    assert degenerate.matrices.tobytes() == reference.matrices.tobytes()
    assert degenerate.distances.tobytes() == reference.distances.tobytes()


def test_ball_radius_11_pinned():
    _, gens = octagon_group()
    ball = enumerate_ball(gens, 11.0)
    assert len(ball) == 15_337
    text = "\n".join(sorted(format_word(w) for w in ball_words(ball)))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "c2158cf2a400299c84d1d83a4f28e8be94ebfcc9b5a2ca3e526fe7d6a7ea40aa"
    )


def test_ball_radius_11_bits_pinned():
    # the ball in its own order, bit for bit: words, matrices and distances
    _, gens = octagon_group()
    ball = enumerate_ball(gens, 11.0)
    words = "\n".join(format_word(w) for w in ball_words(ball))
    digests = [hashlib.sha256(blob).hexdigest() for blob in (
        words.encode(), ball.matrices.tobytes(), ball.distances.tobytes())]
    assert digests == [
        "e7b332e2af4c4bf26959585c44d1e5b4d1c860b227a905bac455c0d7fcb112e3",
        "2202fb438f4478fb92e28aa03ab8397c50367a97349f68c2e7356e30fe5ecba0",
        "4bdeeb603931be6c51fee3df691a5c70abd565a0e3eac63e87d024f4e0a169b2",
    ]


def test_ball_letters_spell_the_words(lab):
    ball = lab.ball
    assert ball.letters.dtype == np.int8 and len(ball.letters) == len(ball)
    width = ball.letters.shape[1]
    assert width == ball.word_lengths.max()
    for row, length in zip(ball.letters.tolist(), ball.word_lengths.tolist()):
        word = row[:length]
        assert all(1 <= abs(letter) <= 4 for letter in word)
        assert all(x != -y for x, y in zip(word, word[1:]))  # freely reduced
        assert row[length:] == [0] * (width - length)


def test_counting_never_sorts_the_ball(monkeypatch):
    # len, count and the entropy estimates read only the sorted distances;
    # the ball order, one lexsort, is assembled on the first read of the
    # matrices, letters or word lengths, to the bytes of a ball read at once
    _, gens = octagon_group()
    reference = enumerate_ball(gens, 10.0)
    arrays = ("matrices", "distances", "letters", "word_lengths")
    expected = [getattr(reference, name) for name in arrays]

    def refused(*args, **kwargs):
        raise AssertionError("np.lexsort called")

    monkeypatch.setattr(fuchsian.np, "lexsort", refused)
    ball = enumerate_ball(gens, 10.0)
    distances = ball.distances
    assert distances.tobytes() == expected[1].tobytes()
    assert len(ball) == len(reference) and ball.count(8.0) == reference.count(8.0)
    window = (6.0, 10.0)
    assert entropy_estimate(distances, window) == entropy_estimate(expected[1], window)
    assert critical_exponent(distances, window) == critical_exponent(expected[1], window)
    monkeypatch.undo()
    ball.matrices
    assert {"matrices", "letters", "word_lengths"} <= set(vars(ball))
    assert "_levels" not in vars(ball) and ball.distances is distances
    for name, theirs in zip(arrays, expected):
        mine = getattr(ball, name)
        assert (mine.dtype, mine.shape) == (theirs.dtype, theirs.shape), name
        assert mine.tobytes() == theirs.tobytes(), name
    # the sorted distances are those of the ordered matrices, row by row
    m = ball.matrices.reshape(-1, 4).T
    ordered = np.arccosh(np.maximum(1.0, (m[0] ** 2 + m[1] ** 2 + m[2] ** 2 + m[3] ** 2) / 2.0))
    assert ordered.tobytes() == distances.tobytes()


def test_ball_memory_peak():
    # tracemalloc sees numpy's buffers: the search's peak at R = 12 was
    # 28.97 MiB before each level released its temporaries, 23.17 MiB after,
    # and 15.29 MiB once it held no keys of earlier levels (the bound is 14%
    # over that); reading the matrices puts the assembly of the ball order in it
    _, gens = octagon_group()
    tracemalloc.start()
    try:
        ball = enumerate_ball(gens, 12.0, 2.0)
        ball.matrices
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ball) == 40_905
    assert peak < 17.5 * 2**20


@st.composite
def _tied_integers(draw):
    """int64 or uint64 arrays drawn from a pool of at most six values."""
    dtype = draw(st.sampled_from([np.int64, np.uint64]))
    info = np.iinfo(dtype)
    pool = draw(st.lists(st.integers(int(info.min), int(info.max)),
                         min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=200))
    return np.array([pool[i] for i in picks], dtype=dtype)


@settings(max_examples=300, deadline=None)
@given(_tied_integers())
def test_stable_argsort_is_the_stable_order(values):
    order, ties = fuchsian._stable_argsort(values)
    assert np.array_equal(order, np.argsort(values, kind="stable"))
    ordered = values[order]
    assert np.array_equal(ties, ordered[1:] == ordered[:-1])


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
def test_stable_argsort_edge_cases(dtype):
    rng = np.random.default_rng(3)
    cases = [np.array([], dtype=dtype), np.array([5], dtype=dtype),
             np.full(1000, 7, dtype=dtype),
             # long enough for the default sort to move equal values
             rng.integers(0, 500, 100_000).astype(dtype)]
    for values in cases:
        order, _ = fuchsian._stable_argsort(values)
        assert np.array_equal(order, np.argsort(values, kind="stable"))


# exact arithmetic in Q(θ) = Q[θ]/(f), f = θ⁴ + 8θ³ + 12θ² + 16θ + 4; an
# element is its coefficient 4-tuple in the basis 1, θ, θ², θ³
_F_LOW = (4, 16, 12, 8)  # θ⁴ = −(4 + 16θ + 12θ² + 8θ³)


def _field_mul(x, y):
    prod = [0] * 7
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            prod[i + j] += a * b
    for k in range(6, 3, -1):
        top, prod[k] = prod[k], 0
        for i, c in enumerate(_F_LOW):
            prod[k - 4 + i] -= top * c
    return tuple(prod[:4])


def _field_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def _exact_letter(letter):
    a, b, c, d = (tuple(Fraction(x, 8) for x in e)
                  for e in OCTAGON_ENTRIES[abs(letter)])
    if letter < 0:  # the adjugate
        a, b, c, d = d, tuple(-x for x in b), tuple(-x for x in c), a
    return a, b, c, d


def _exact_word(word):
    one, zero = (1, 0, 0, 0), (0, 0, 0, 0)
    m = (one, zero, zero, one)
    for letter in word:
        a, b, c, d = m
        e, f, g, h = _exact_letter(letter)
        m = (_field_add(_field_mul(a, e), _field_mul(b, g)),
             _field_add(_field_mul(a, f), _field_mul(b, h)),
             _field_add(_field_mul(c, e), _field_mul(d, g)),
             _field_add(_field_mul(c, f), _field_mul(d, h)))
    return m


def _integer_coordinates(word):
    """The 16 coordinates of 8·(a, b, c, d) of a word, which must be integers."""
    coords = [8 * x for entry in _exact_word(word) for x in entry]
    assert all(x.denominator == 1 for x in coords)
    return [int(x) for x in coords]


def _lattice_coefficients(basis, vector):
    """Rational x with Σ x_i·basis_i = vector, or None; asserts full rank."""
    n = len(basis)
    rows = [[Fraction(b[k]) for b in basis] + [Fraction(vector[k])]
            for k in range(len(vector))]
    for col in range(n):
        pivot = next((i for i in range(col, len(rows)) if rows[i][col] != 0), None)
        assert pivot is not None, "the basis has rank below its size"
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for i, row in enumerate(rows):
            if i != col and row[col] != 0:
                rows[i] = [x - row[col] * y for x, y in zip(row, rows[col])]
    if any(row[-1] != 0 for row in rows[n:]):
        return None
    return [row[-1] for row in rows[:n]]


def _embedded(letter, root):
    """A generator (letter > 0) under the embedding θ ↦ root, at mpmath precision."""
    return mpmath.matrix([[sum(c * root**i for i, c in enumerate(e)) / 8
                           for e in OCTAGON_ENTRIES[letter][2 * r:2 * r + 2]]
                          for r in range(2)])


def test_exact_generators_certificate():
    """The premises of the exact-key proof in `enumerate_ball`."""
    presentation, gens = octagon_group()
    with mpmath.workdps(40):
        roots = mpmath.polyroots([1, 8, 12, 16, 4], maxsteps=200, extraprec=200)
        real = sorted(mpmath.re(r) for r in roots if abs(mpmath.im(r)) < 1e-30)
        complex_root = next(r for r in roots if mpmath.im(r) > 1e-30)
        assert len(real) == 2
        theta, theta2 = real
        assert abs(float(theta) - 2 * gens[1][0, 0]) <= 1e-13
        for k in range(1, 5):
            # the table is the float generators
            first = np.array(_embedded(k, theta).tolist(), dtype=float)
            assert np.abs(first - gens[k]).max() <= 1e-13
            # the second real embedding is [[a, b], [c, d]] ↦ [[d, −c], [−b, a]]
            (a, b), (c, d) = first
            second = np.array(_embedded(k, theta2).tolist(), dtype=float)
            assert np.abs(second - np.array([[d, -c], [-b, a]])).max() <= 1e-12
            # the complex pair is unitary
            z = _embedded(k, complex_root)
            gram = np.array((z * z.transpose_conj()).tolist(), dtype=complex)
            assert np.abs(gram - np.eye(2)).max() <= 1e-12
    # the relator is exactly I in Q(θ)
    one, zero = (1, 0, 0, 0), (0, 0, 0, 0)
    assert _exact_word(presentation.relator) == (one, zero, zero, one)
    # 8·entries lie in Z[θ] for every group element: the ×8 coordinates of
    # these words span a rank-8 lattice closed under every letter
    spanning = [(), (1,), (2,), (3,), (-1,), (1, 1), (1, 2), (2, 1)]
    basis = [_integer_coordinates(w) for w in spanning]
    for word in spanning:
        for letter in (1, 2, 3, 4, -1, -2, -3, -4):
            x = _lattice_coefficients(basis, _integer_coordinates(word + (letter,)))
            assert x is not None and all(c.denominator == 1 for c in x)
    # each key prime is an odd prime with a root of f
    for p, root in KEY_PRIMES:
        assert p % 2 and all(p % q for q in range(3, math.isqrt(p) + 1, 2))
        assert (root**4 + 8 * root**3 + 12 * root**2 + 16 * root + 4) % p == 0
    (p1, _), (p2, _) = KEY_PRIMES
    assert p1 != p2 and 2**17 * mpmath.cosh(KEY_HORIZON) < p1 * p2


def test_octagon_is_the_dirichlet_domain_of_o():
    """The premise of the descent proof in `enumerate_ball`: each side of
    the octagon D lies on the perpendicular bisector of o and s·o for one
    letter s, with D on the side of o."""
    with mpmath.workdps(50):
        roots = mpmath.polyroots([1, 8, 12, 16, 4], maxsteps=200, extraprec=200)
        theta = min(mpmath.re(r) for r in roots if abs(mpmath.im(r)) < 1e-30)
        o = mpmath.mpc(0, 1)

        def cosh_distance(z, w):
            return 1 + abs(z - w) ** 2 / (2 * mpmath.im(z) * mpmath.im(w))

        def act(m, z):
            return (m[0, 0] * z + m[0, 1]) / (m[1, 0] * z + m[1, 1])

        # the vertices of the regular π/4-octagon about o: circumradius ρ
        # with cosh ρ = cot²(π/8), at the odd multiples of π/8 between the
        # side midpoints (rotations about o as in `rotation`)
        top = o * mpmath.exp(mpmath.acosh(mpmath.cot(mpmath.pi / 8) ** 2))
        vertices = []
        for k in range(8):
            half = (2 * k + 1) * mpmath.pi / 16  # half the Möbius angle
            c, s = mpmath.cos(half), mpmath.sin(half)
            vertices.append((c * top + s) / (-s * top + c))
        sides = set()
        for letter in (1, 2, 3, 4):
            m = _embedded(letter, theta)
            for g in (m, mpmath.inverse(m)):
                image = act(g, o)
                # cosh d(v, s·o) − cosh d(v, o) at each vertex v of D
                gap = [cosh_distance(v, image) - cosh_distance(v, o) for v in vertices]
                on = [k for k in range(8) if abs(gap[k]) < 1e-40]
                # two adjacent vertices, so their side, lie on the bisector,
                # and the other six lie strictly on the side of o
                assert len(on) == 2 and on[1] - on[0] in (1, 7)
                assert all(gap[k] > 0.1 for k in range(8) if k not in on)
                sides.add(frozenset(on))
    # the eight letters pair off the eight sides
    assert len(sides) == 8


def test_ball_refuses_uncertified_input(monkeypatch):
    _, gens = octagon_group()

    def allocated(keys):
        raise AssertionError("the ball started before refusing")

    # the first key is hashed right after the set-up
    monkeypatch.setattr(fuchsian, "_key_hash", allocated)
    with pytest.raises(ValueError, match="horizon"):
        enumerate_ball(gens, 30.0, 2.0)
    turned = {k: rotation(0.1) @ m @ rotation(-0.1) for k, m in gens.items()}
    with pytest.raises(ValueError, match="octagon"):
        enumerate_ball(turned, 5.0, 2.0)


def test_ball_refuses_nan_radius_and_slack(monkeypatch):
    _, gens = octagon_group()
    ball = enumerate_ball(gens, 5.0)
    assert len(ball) == ball.count(5.0) == 49
    with pytest.raises(InputError, match="beyond the enumerated radius"):
        ball.count(math.nan)

    def allocated(keys):
        raise AssertionError("the ball started before refusing")

    # NaN compares false both ways, so the checks must refuse it by name
    monkeypatch.setattr(fuchsian, "_key_hash", allocated)
    for radius, slack in ((math.nan, 0.0), (5.0, math.nan), (math.nan, math.nan)):
        with pytest.raises(InputError, match="need radius > 0 and slack >= 0"):
            enumerate_ball(gens, radius, slack)


def test_ball_memory_budget(monkeypatch):
    _, gens = octagon_group()

    def allocated(keys):
        raise AssertionError("the ball started before refusing")

    # the size limit is checked from radius + slack, before the first key
    monkeypatch.setattr(fuchsian, "_key_hash", allocated)
    # (cosh 18 − 1)/2 ≈ 1.64e7 orbit points, over MAX_BALL_ELEMENTS
    with pytest.raises(ValueError, match=r"1\.64e\+07 ball elements"):
        enumerate_ball(gens, 18.0)
    # (cosh 17.8 − 1)/2 ≈ 1.34e7 is admitted: the search starts
    with pytest.raises(AssertionError, match="started before refusing"):
        enumerate_ball(gens, 17.8)
    # the slack is charged: radius 16 alone is admitted, with slack 2 it
    # asks for the same (cosh 18 − 1)/2, and 17 + 2 for (cosh 19 − 1)/2
    with pytest.raises(AssertionError, match="started before refusing"):
        enumerate_ball(gens, 16.0)
    with pytest.raises(ValueError, match=r"1\.64e\+07 ball elements"):
        enumerate_ball(gens, 16.0, 2.0)
    with pytest.raises(ValueError, match=r"4\.46e\+07 ball elements"):
        enumerate_ball(gens, 17.0, 2.0)
    # (cosh 9 − 1)/2 ≈ 4.1e3 orbit points, over a budget of 100
    monkeypatch.setattr(fuchsian, "MAX_BALL_ELEMENTS", 100)
    with pytest.raises(ValueError, match="MAX_BALL_ELEMENTS = 100"):
        enumerate_ball(gens, 9.0)
    # (cosh 4 − 1)/2 ≈ 13 fits a budget of 100, (cosh 6 − 1)/2 ≈ 100.4
    # at slack 2 does not
    with pytest.raises(AssertionError, match="started before refusing"):
        enumerate_ball(gens, 4.0)
    with pytest.raises(ValueError, match=r"about 100 ball elements, over MAX_BALL_ELEMENTS = 100"):
        enumerate_ball(gens, 4.0, 2.0)


def test_distance_formulas_agree():
    _, gens = octagon_group()
    w = (1, 2, -3)
    m = Representation(gens).evaluate(w)
    assert abs(orbit_distance(m) - distance(1j, mobius(m, 1j))) <= 1e-10
    # translation along imaginary axis displaces the basepoint by t
    assert abs(orbit_distance(translation(1.3)) - 1.3) <= 1e-12


def _eigenbasis_formula(m):
    """The single-matrix closed form, as written before stacking; None
    for a degenerate basis (|det| < 1e-14 before normalization)."""
    tr = float(np.trace(m))
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
        return None
    if det < 0:
        h[:, 1] = -h[:, 1]
        det = -det
    return h / np.sqrt(det), float(lam)


def test_sl2_eigenbasis_stack_has_the_bits_of_the_formula(lab):
    mats = lab.ball.matrices[np.abs(np.trace(lab.ball.matrices, axis1=1, axis2=2)) > 2.001]
    h_stack, lam_stack = sl2_eigenbasis(mats)
    assert h_stack.shape == mats.shape and h_stack.flags.c_contiguous
    for m, h_row, lam_row in zip(mats, h_stack, lam_stack):
        h_ref, lam_ref = _eigenbasis_formula(m)
        h_one, lam_one = sl2_eigenbasis(m)
        assert h_row.tobytes() == h_ref.tobytes() == h_one.tobytes()
        assert lam_row == lam_ref == lam_one and isinstance(lam_one, float)
    with pytest.raises(NumericalFailure, match="non-hyperbolic"):
        sl2_eigenbasis(np.stack([mats[0], np.eye(2)]))


def test_eigenbases_of_mixed_stacks_match_the_per_row_formula(lab):
    # either trace sign, |trace| at or below 2 + HYPERBOLIC_MARGIN, nearly
    # parabolic rows with and without a degenerate basis, shuffled
    x = 3e-6  # trace 2 + 9e-12; with b = 1e9 the eigenvectors are 6e-15 apart
    degenerate = np.array([[1.0 + x, 1e9], [0.0, 1.0 / (1.0 + x)]])
    # a = d and b = c: both candidates of each eigenvalue have one norm
    tied = np.array([[math.cosh(0.4), math.sinh(0.4)], [math.sinh(0.4), math.cosh(0.4)]])
    special = np.stack([np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]]), rotation(1.0),
                        translation(1e-5), translation(2e-6), degenerate,
                        degenerate.T, tied])
    mats = lab.ball.matrices[::5]
    stack = np.concatenate([mats, -mats, special, -special])
    stack = stack[np.random.default_rng(5).permutation(len(stack))]
    h, lams, ok = hyperbolic_eigenbases(stack)
    assert h.shape == stack.shape and h.flags.c_contiguous
    reasons = {"non-hyperbolic": 0, "degenerate": 0}
    for m, h_row, lam_row, ok_row in zip(stack, h, lams, ok):
        if abs(float(np.trace(m))) <= 2.0 + HYPERBOLIC_MARGIN:
            reference, reason = None, "non-hyperbolic"
        else:
            reference, reason = _eigenbasis_formula(m), "degenerate"
        if reference is None:
            reasons[reason] += 1
            assert not ok_row and np.isnan(h_row).all() and math.isnan(lam_row)
        else:
            assert ok_row and h_row.tobytes() == reference[0].tobytes()
            assert lam_row == reference[1]
    # ± the ball's identity, I, the parabolic, the rotation and
    # translation(2e-6), whose |trace| rounds to 2 + HYPERBOLIC_MARGIN;
    # ± both nearly parabolic bases with b or c = 1e9
    assert reasons == {"non-hyperbolic": 10, "degenerate": 4}
    # a row alone gets the bits it gets in the stack
    for row in range(0, len(stack), 37):
        alone = hyperbolic_eigenbases(stack[row])
        assert [part.tobytes() for part in alone] == [
            part[row:row + 1].tobytes() for part in (h, lams, ok)]


def _scalar_cut_decisions(traces, radius):
    """The closed-orbit rule row by row: 2·math.acosh(t/2) ≤ radius +
    HYPERBOLIC_MARGIN for hyperbolic |trace| t."""
    cut = radius + HYPERBOLIC_MARGIN
    return np.array([t > 2.0 + HYPERBOLIC_MARGIN and 2.0 * math.acosh(t / 2.0) <= cut
                     for t in np.abs(traces).tolist()])


def test_closed_orbits_keep_the_scalar_decision_at_the_cut():
    # traces a few ulps either side of the last one the scalar rule admits;
    # at about 4% of radii the array arccosh decides one of them otherwise
    disagreeing = 0
    for radius in np.linspace(0.5, 15.5, 61).tolist():
        cut = radius + HYPERBOLIC_MARGIN
        t = 2.0 * math.cosh(cut / 2.0)
        while 2.0 * math.acosh(t / 2.0) <= cut:
            t = math.nextafter(t, math.inf)
        traces = [t]
        for _ in range(6):
            traces.append(math.nextafter(traces[-1], -math.inf))
        for _ in range(3):
            traces.insert(0, math.nextafter(traces[0], math.inf))
        traces = np.array(traces + [3.0, 2.0, 2.0 + 0.5 * HYPERBOLIC_MARGIN])
        traces = np.concatenate([traces, -traces])
        matrices = np.zeros((len(traces), 2, 2))
        matrices[:, 0, 0] = traces
        ball = BallEnumeration(
            radius=radius, matrices=matrices, distances=np.zeros(len(traces)),
            letters=np.ones((len(traces), 1), dtype=np.int8),
            word_lengths=np.ones(len(traces), dtype=np.intp))
        expected = _scalar_cut_decisions(traces, radius)
        # the walk ends on the first trace the scalar rule refuses
        assert expected[:10].tolist() == [False] * 4 + [True] * 6
        kept, cyclic, lengths = ball.closed_orbits(radius)
        assert kept.tobytes() == np.abs(traces[expected]).tobytes()
        assert cyclic.shape == (expected.sum(), 1) and (lengths == 1).all()
        array_rule = (np.abs(traces) > 2.0 + HYPERBOLIC_MARGIN) & (
            2.0 * np.arccosh(np.abs(traces) / 2.0) <= cut)
        disagreeing += bool((array_rule != expected).any())
    assert disagreeing > 0
