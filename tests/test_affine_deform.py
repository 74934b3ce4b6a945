import numpy as np
import pytest

from anosovlab import affine_deform
from anosovlab.linalg import NumericalFailure, form_residual
from anosovlab.affine_deform import (
    Cocycle,
    FiniteDeformation,
    coboundary,
    eigenvalue_derivative,
    margulis_invariant,
    margulis_invariants,
    ping_pong_certificate,
)
from anosovlab.principal_rep import eigendata_fuchsian
from anosovlab.surface_group import inverse_word

from oracles import closed_orbit_words, neutral_vector, value_by_adjoint

P_VALUES = (2, 3)


def make_cocycle(lab, p, seed):
    return lab.random_cocycle(p, seed)


@pytest.mark.parametrize("p", P_VALUES)
class TestNeutralVector:
    def test_unit_fixed_and_certified(self, lab, p):
        rho = lab.rho_v[p]
        for w in [(1,), (2, 1), (1, 2, 2, -3)]:
            nv = neutral_vector(rho, w, lab.basis[p])
            x = nv.vector
            q = lab.basis[p].form_v.matrix
            assert abs(x @ q @ x - 1.0) <= 1e-9
            m = rho.evaluate(w)
            assert np.abs(m @ x - x).max() <= 1e-9 * max(1, np.abs(m).max())
            assert nv.certificate == 1.0

    def test_powers_share_the_vector(self, lab, p):
        rho = lab.rho_v[p]
        w = (2, 1)
        x1 = neutral_vector(rho, w, lab.basis[p]).vector
        for n in (2, 3):
            xn = neutral_vector(rho, w * n, lab.basis[p]).vector
            assert np.abs(xn - x1).max() <= 1e-10

    def test_equivariance(self, lab, p, rng):
        rho = lab.rho_v[p]
        w = (1, 2, -3)
        x = neutral_vector(rho, w, lab.basis[p]).vector
        for h in [(2,), (3, 1), (-4, 2)]:
            conjugated = h + w + inverse_word(h)
            xc = neutral_vector(rho, conjugated, lab.basis[p]).vector
            expected = rho.evaluate(h) @ x
            assert np.abs(xc - expected).max() <= 1e-9 * max(
                1, np.abs(expected).max()
            )

    def test_rejects_non_hyperbolic(self, lab, p):
        with pytest.raises(ValueError):
            neutral_vector(lab.rho_v[p], (), lab.basis[p])


@pytest.mark.parametrize("p", P_VALUES)
class TestMargulisInvariant:
    def test_zero_cocycle(self, lab, p):
        zero = Cocycle(np.zeros((4, 2 * p - 1)), rho=lab.rho_v[p])
        assert margulis_invariant(lab.rho_v[p], zero, (1, 2), lab.basis[p]) == 0.0

    def test_coboundary_vanishes(self, lab, p, rng):
        cob = coboundary(lab.rho_v[p], rng.standard_normal(2 * p - 1))
        for w in lab.hyperbolic_words(max_count=60, rng=rng):
            assert abs(margulis_invariant(lab.rho_v[p], cob, w, lab.basis[p])) <= 1e-8

    def test_homogeneity(self, lab, p):
        omega = make_cocycle(lab, p, 5)
        for w in [(1,), (1, 2), (2, -3, 1)]:
            a1 = margulis_invariant(lab.rho_v[p], omega, w, lab.basis[p])
            for n in (2, 3):
                an = margulis_invariant(lab.rho_v[p], omega, w * n, lab.basis[p])
                assert abs(an - n * a1) <= 1e-8 * max(1, abs(a1))

    def test_conjugation_invariance(self, lab, p, rng):
        omega = make_cocycle(lab, p, 6)
        w = (1, 2, 2, -3)
        base = margulis_invariant(lab.rho_v[p], omega, w, lab.basis[p])
        for _ in range(10):
            h = tuple(
                int(l) for l in rng.choice([1, -1, 2, -2, 3, -3, 4, -4], size=4)
            )
            conjugated = h + w + inverse_word(h)
            value = margulis_invariant(lab.rho_v[p], omega, conjugated, lab.basis[p])
            assert abs(value - base) <= 1e-8 * max(1, abs(base))

    def test_matches_direct_pairing(self, lab, p):
        # orbit sum equals Q(omega_w, x_w) for moderate words
        omega = make_cocycle(lab, p, 7)
        q = lab.basis[p].form_v.matrix
        for w in [(1,), (2, 1), (1, 2, -1, 4), (3, 3, 2)]:
            direct = float(
                omega.value(w) @ q @ neutral_vector(lab.rho_v[p], w, lab.basis[p]).vector
            )
            orbit = margulis_invariant(lab.rho_v[p], omega, w, lab.basis[p])
            assert abs(direct - orbit) <= 1e-9 * max(1, abs(direct))

    def test_cohomology_invariance(self, lab, p, rng):
        omega = make_cocycle(lab, p, 8)
        shift = coboundary(lab.rho_v[p], rng.standard_normal(2 * p - 1))
        shifted = Cocycle(omega.vectors + shift.vectors, rho=lab.rho_v[p])
        for w in [(1, 2), (2, -3, 1, 1)]:
            a = margulis_invariant(lab.rho_v[p], omega, w, lab.basis[p])
            b = margulis_invariant(lab.rho_v[p], shifted, w, lab.basis[p])
            assert abs(a - b) <= 1e-8 * max(1, abs(a))


def test_inversion_parity(lab):
    """Settles the open inversion question under this orientation convention:

    alpha(g^-1) = alpha(g) at p = 2 and = -alpha(g) at p = 3 (the inverse
    reverses the eigenbasis, a permutation of parity (-1)^((2p-1)(p-1))).
    Inverse-closed orbit averages of alpha therefore vanish identically at
    p = 3, which is why the Bowen-Margulis vanishing is probed at p = 2.
    """
    for p, sign in ((2, 1.0), (3, -1.0)):
        omega = make_cocycle(lab, p, 9)
        for w in [(1, 2), (1, 2, 2, -3), (4, -1, 3)]:
            a = margulis_invariant(lab.rho_v[p], omega, w, lab.basis[p])
            b = margulis_invariant(
                lab.rho_v[p], omega, inverse_word(w), lab.basis[p]
            )
            assert abs(b - sign * a) <= 1e-9 * max(1, abs(a))


def test_margulis_invariants_multi(lab):
    p = 2
    omegas = [make_cocycle(lab, p, s) for s in (1, 2, 3)]
    w = (1, 2, -3)
    batch = margulis_invariants(lab.rho_v[p], omegas, w, lab.basis[p])
    singles = [margulis_invariant(lab.rho_v[p], om, w, lab.basis[p]) for om in omegas]
    assert np.abs(batch - singles).max() <= 1e-12


@pytest.mark.parametrize("p", P_VALUES)
class TestDeformationDirection:
    """The tangent ρ̇_w = ½·X_{ω_w} of `Cocycle.tangent`."""

    def test_zero_cocycle_maps_to_zero(self, lab, p):
        zero = Cocycle(np.zeros((4, 2 * p - 1)), rho=lab.rho_v[p])
        assert all(np.abs(zero.tangent((g,))).max() == 0.0 for g in range(1, 5))
        assert np.abs(zero.tangent((1, -3, 2))).max() == 0.0

    def test_membership_and_antisymmetry(self, lab, p, rng):
        omega = make_cocycle(lab, p, 11)
        qe = lab.basis[p].form_e.matrix
        n = 2 * p - 1
        for g in range(1, 5):
            mat = omega.tangent((g,))
            # no V x V pairing: membership in the translation part
            assert np.abs(mat[:n, :n]).max() <= 1e-12
            # antisymmetry with respect to the (p,p) form
            assert np.abs(mat.T @ qe + qe @ mat).max() <= 1e-10

    def test_pairing_reproduces_cocycle(self, lab, p, rng):
        omega = make_cocycle(lab, p, 12)
        qv = lab.basis[p].form_v.matrix
        f = lab.basis[p].f
        for g in range(1, 5):
            image_f = omega.tangent((g,)) @ f
            for _ in range(100):
                v = rng.standard_normal(2 * p - 1)
                lhs = float(omega.vectors[g - 1] @ qv @ v)
                rhs = 2.0 * float(image_f[: 2 * p - 1] @ qv @ v)
                assert abs(lhs - rhs) <= 1e-10 * max(1, abs(lhs))

    def test_extension_matches_adjoint_accumulation(self, lab, p):
        # the collapsed special-shape value equals the literal Ad-cocycle
        omega = make_cocycle(lab, p, 13)
        for w in [(1, 2), (2, -3, 1), (1, 1, 4)]:
            value = omega.tangent(w)
            adjoint = value_by_adjoint(omega, w, lab.rho_e[p])
            assert np.abs(value - adjoint).max() <= 1e-8 * max(
                1, np.abs(value).max()
            )


@pytest.mark.parametrize("p", P_VALUES)
def test_eigenvalue_derivative_identity(lab, p, rng):
    omega = make_cocycle(lab, p, 21)
    for w in [(1,), (2, 1), (1, 2, -1, 4), (3, 3, 2)]:
        eig = eigendata_fuchsian(p, lab.sl2.evaluate(w), lab.basis[p])
        rho_dot = omega.tangent(w)
        lam_dot, lam_bar_dot = eigenvalue_derivative(eig, rho_dot)
        alpha = margulis_invariant(lab.rho_v[p], omega, w, lab.basis[p])
        assert abs(lam_dot[p - 1] - 0.5 * alpha) <= 1e-6 * max(1e-12, abs(0.5 * alpha))
        assert np.abs(lam_dot[: p - 1]).max(initial=0.0) <= 1e-8
        assert abs(lam_bar_dot[p - 1] + 0.5 * alpha) <= 1e-6 * max(
            1e-12, abs(0.5 * alpha)
        )


def test_eigenvalue_derivative_zero_direction(lab):
    p = 2
    eig = eigendata_fuchsian(p, lab.sl2.evaluate((1, 2)), lab.basis[p])
    lam_dot, lam_bar_dot = eigenvalue_derivative(eig, np.zeros((2 * p, 2 * p)))
    assert np.abs(lam_dot).max() == 0.0 and np.abs(lam_bar_dot).max() == 0.0


def test_ping_pong_certificate(lab):
    ok, separation = ping_pong_certificate(lab.sl2, (1, 2))
    assert ok and separation > 0.05


@pytest.mark.parametrize("p", P_VALUES)
class TestFiniteDeformation:
    def test_t_zero_restricts(self, lab, p):
        omega = make_cocycle(lab, p, 31)
        fin = FiniteDeformation(lab.rho_e[p], omega.vectors[None], (1, 2), 0.0)
        for w in [(1,), (2, -1), (1, 2, 2)]:
            assert np.abs(fin.evaluate(w)[0] - lab.rho_e[p].evaluate(w)).max() <= 1e-12

    def test_form_preservation(self, lab, p):
        omega = make_cocycle(lab, p, 32)
        fin = FiniteDeformation(lab.rho_e[p], omega.vectors[None], (1, 2), 1e-3)
        qe = lab.basis[p].form_e.matrix
        for w in [(1,), (2,), (1, 2, -1)]:
            assert form_residual(fin.evaluate(w)[0], qe) <= 1e-10

    def test_rejects_words_outside_the_subgroup(self, lab, p):
        omega = make_cocycle(lab, p, 33)
        fin = FiniteDeformation(lab.rho_e[p], omega.vectors[None], (1, 2), 1e-4)
        with pytest.raises(ValueError):
            fin.evaluate((3,))

    def test_central_difference_matches_formula(self, lab, p):
        omega = make_cocycle(lab, p, 34)
        t = 1e-4
        plus = FiniteDeformation(lab.rho_e[p], omega.vectors[None], (1, 2), t)
        minus = FiniteDeformation(lab.rho_e[p], omega.vectors[None], (1, 2), -t)
        for w in [(1,), (1, 2), (2, 2, -1), (1, 2, -1, -2, 1)]:
            alpha = margulis_invariant(lab.rho_v[p], omega, w, lab.basis[p])
            pair = middle_pair(lab, p, w)
            fd = (
                plus.middle_eigenvalue(w, pair)[0]
                - minus.middle_eigenvalue(w, pair)[0]
            ) / (2 * t)
            assert abs(fd - 0.5 * alpha) <= 1e-4 * max(1e-9, abs(0.5 * alpha))

    def test_stacked_directions_match_each_direction_alone(self, lab, p):
        vectors = np.array([make_cocycle(lab, p, s).vectors for s in (35, 36, 37)])
        w = (1, 2, -1, -2)
        stacked = FiniteDeformation(lab.rho_e[p], vectors, (1, 2), 1e-4)
        mu = stacked.middle_eigenvalue(w, middle_pair(lab, p, w))
        assert mu.shape == (3,)
        matrices = stacked.evaluate(w)
        for v, matrix, value in zip(vectors, matrices, mu):
            alone = FiniteDeformation(lab.rho_e[p], v[None], (1, 2), 1e-4)
            assert np.abs(alone.evaluate(w)[0] - matrix).max() <= 1e-12
            assert abs(alone.middle_eigenvalue(w, middle_pair(lab, p, w))[0] - value) <= 1e-15

    def test_spectral_collision_raises(self, lab, p, monkeypatch):
        vectors = make_cocycle(lab, p, 38).vectors[None]
        fin = FiniteDeformation(lab.rho_e[p], vectors, (1, 2), 1e-4)
        # the two Ritz lines are far apart; a tolerance above their gap
        # reports them as colliding
        monkeypatch.setattr(affine_deform, "MIDDLE_COLLISION_TOL", 2.0)
        with pytest.raises(NumericalFailure, match="collision"):
            fin.middle_eigenvalue((1, 2), middle_pair(lab, p, (1, 2)))


def middle_pair(lab, p, word):
    """The t = 0 middle pair of a word, its e_p-side lightlike line first."""
    eig = eigendata_fuchsian(p, lab.sl2.evaluate(word), lab.basis[p])
    return eig.vectors[:, p - 1:p + 1]


@pytest.mark.parametrize("p", P_VALUES)
def test_margulis_invariants_batch_has_the_bits_of_each_word(lab, p):
    omegas = [make_cocycle(lab, p, s) for s in (1, 2)]
    words = lab.hyperbolic_words(max_count=300, rng=np.random.default_rng(3))
    words += [w + (1, 2) + inverse_word(w) for w in words[:20]]  # not cyclically reduced
    batch = margulis_invariants(lab.rho_v[p], omegas, words, lab.basis[p])
    assert batch.shape == (len(words), 2)
    for w, row in zip(words, batch):
        single = margulis_invariants(lab.rho_v[p], omegas, w, lab.basis[p])
        assert row.tobytes() == single.tobytes()
    assert margulis_invariants(lab.rho_v[p], omegas, [], lab.basis[p]).shape == (0, 2)


@pytest.mark.parametrize("p", P_VALUES)
def test_alpha_batched_over_cocycles_has_the_bits_of_each_pair(lab, p):
    # the derivative check draws one cocycle per pair and evaluates α once
    # per word over all cocycles drawn with it
    from anosovlab.surface_group import solve_cocycle_space

    rng = np.random.default_rng(77)
    pool = sorted({w for w, _ in closed_orbit_words(lab.ball, 6.0)})
    space = solve_cocycle_space(lab.rho_v[p], lab.presentation)
    by_word = {}
    for _ in range(800):
        word = pool[rng.integers(0, len(pool))]
        omega = Cocycle(space.element(rng.standard_normal(space.dimension)),
                        rho=lab.rho_v[p])
        by_word.setdefault(word, []).append(omega)
    assert max(len(omegas) for omegas in by_word.values()) > 1
    for word, omegas in by_word.items():
        batch = margulis_invariants(lab.rho_v[p], omegas, word, lab.basis[p])
        singles = [margulis_invariant(lab.rho_v[p], om, word, lab.basis[p])
                   for om in omegas]
        assert batch.tobytes() == np.array(singles).tobytes()
        # one Cocycle holding the (N, generators, dim) stack, as the
        # derivative check passes it
        stacked = Cocycle(np.array([om.vectors for om in omegas]), rho=lab.rho_v[p])
        assert margulis_invariants(lab.rho_v[p], stacked, word,
                                   lab.basis[p]).tobytes() == batch.tobytes()
