import hashlib
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.optimize import minimize

from anosovlab import fuchsian
from anosovlab.linalg import NumericalFailure
from anosovlab.fuchsian import (
    APOTHEM,
    KEY_HORIZON,
    KEY_PRIMES,
    OCTAGON_ENTRIES,
    enumerate_ball,
    fixed_points,
    octagon_group,
    rotation,
    sl2_eigenbasis,
    translation,
    translation_length,
)
from anosovlab.surface_group import (
    cyclic_reduce,
    evaluate_word,
    format_word,
    inverse_word,
)

from oracles import distance, mobius, orbit_distance


def test_relator_holonomy_is_identity():
    presentation, gens = octagon_group()
    holonomy = evaluate_word(presentation.relator, gens)
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
    assert len(ball) == 1 and ball.words[0] == ()
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


def test_ball_matrices_match_their_words(lab):
    rng = np.random.default_rng(7)
    idx = rng.permutation(len(lab.ball))[:300]
    for i in idx:
        m = evaluate_word(lab.ball.words[i], lab.sl2.generators)
        stored = lab.ball.matrices[i]
        assert min(np.abs(m - stored).max(), np.abs(m + stored).max()) <= 1e-9


def test_ball_inverse_symmetry(lab):
    for i in np.random.default_rng(11).permutation(len(lab.ball))[:200]:
        w = lab.ball.words[i]
        d = lab.ball.distances[i]
        d_inv = orbit_distance(evaluate_word(inverse_word(w), lab.sl2.generators))
        assert abs(d - d_inv) <= 1e-9


def test_ball_deterministic(lab):
    again = enumerate_ball(lab.sl2.generators, 6.5, 2.0)
    reference = enumerate_ball(lab.sl2.generators, 6.5, 2.0)
    assert again.words == reference.words
    assert np.array_equal(again.matrices, reference.matrices)


def test_cyclic_words_are_the_hyperbolic_pool(lab):
    # the reference is the samplers' former pool: every ball word cyclically
    # reduced, evaluated, and kept when its |trace| exceeds 2.001
    reference = {
        w for w in {cyclic_reduce(w) for w in lab.ball.words} - {()}
        if abs(float(np.trace(lab.sl2.evaluate(w)))) > 2.001
    }
    assert {w for w, _ in lab.ball.cyclic_words()} == reference


def test_cyclic_words_within_a_radius(lab):
    # the (word, |trace|) stream the class spectra read: exact length test
    # on the ball's own traces, in ball order, wrap-around peeled
    expected = []
    for word, m in zip(lab.ball.words, lab.ball.matrices):
        trace = abs(float(m[0, 0] + m[1, 1]))
        if trace > 2.0 + 1e-12 and 2.0 * math.acosh(trace / 2.0) <= 7.0 + 1e-12:
            expected.append((cyclic_reduce(word), trace))
    assert len(expected) > 100
    assert list(lab.ball.cyclic_words(7.0)) == expected


def test_ball_independent_of_key_hash(monkeypatch):
    # a 2-bit hash makes most keys collide; exact key compares must keep
    # every element apart, so the ball cannot change
    _, gens = octagon_group()
    reference = enumerate_ball(gens, 8.0, 2.0)
    monkeypatch.setattr(fuchsian, "_key_hash",
                        lambda keys: (keys[:, 0] & 3).astype(np.uint64))
    degenerate = enumerate_ball(gens, 8.0, 2.0)
    assert degenerate.words == reference.words
    assert degenerate.matrices.tobytes() == reference.matrices.tobytes()
    assert degenerate.distances.tobytes() == reference.distances.tobytes()


def test_ball_radius_11_pinned():
    _, gens = octagon_group()
    ball = enumerate_ball(gens, 11.0, 2.0)
    assert len(ball) == 15_337
    text = "\n".join(sorted(format_word(w) for w in ball.words))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "c2158cf2a400299c84d1d83a4f28e8be94ebfcc9b5a2ca3e526fe7d6a7ea40aa"
    )


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


def test_child_keys_ignore_the_parent_sign():
    # ±M is one isometry: a parent key and its negation give the same child
    # keys, each with its first nonzero residue mod p₁ at most (p₁ − 1)/2
    _, gens = octagon_group()
    residues = fuchsian._letter_residues(gens)
    primes = np.repeat([p for p, _ in KEY_PRIMES], 4)[:, None]
    parents = np.ascontiguousarray(residues.T, dtype=np.int32)  # the 8 letters
    negated = np.ascontiguousarray(((primes - residues) % primes).T, dtype=np.int32)
    rows, codes = np.divmod(np.arange(64), 8)
    keys = fuchsian._child_keys(parents.view(np.int64), rows, codes, residues)
    again = fuchsian._child_keys(negated.view(np.int64), rows, codes, residues)
    assert np.array_equal(keys, again)
    mod_p1 = keys.view(np.int32)[:, :4]
    lead = mod_p1[np.arange(64), np.argmax(mod_p1 != 0, axis=1)]
    assert (lead > 0).all() and (lead <= (KEY_PRIMES[0][0] - 1) // 2).all()


def test_ball_memory_budget():
    _, gens = octagon_group()
    with pytest.raises(MemoryError, match="frontier"):
        enumerate_ball(gens, 9.0, 2.0, max_elements=100)


def test_distance_formulas_agree():
    _, gens = octagon_group()
    w = (1, 2, -3)
    m = evaluate_word(w, gens)
    assert abs(orbit_distance(m) - distance(1j, mobius(m, 1j))) <= 1e-10
    # translation along imaginary axis displaces the basepoint by t
    assert abs(orbit_distance(translation(1.3)) - 1.3) <= 1e-12


def _eigenbasis_formula(m):
    """The single-matrix closed form, as written before stacking."""
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
