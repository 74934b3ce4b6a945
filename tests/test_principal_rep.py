import numpy as np
import pytest

from anosovlab.linalg import NumericalFailure, form_residual, orthonormal_span, signature
from anosovlab.principal_rep import (
    alpha_matrix,
    eigendata_fuchsian,
    embed_so_pp,
    form_on_e,
    invariant_form,
    principal_basis,
    sym_power_rep,
)

from oracles import classify_orientation, span_distance, standard_reference


def random_sl2(rng, scale=0.8):
    """Well-conditioned random SL(2,R) via Iwasawa-style parameters."""
    theta = rng.uniform(0, 2 * np.pi)
    t = rng.uniform(-scale, scale)
    s = rng.uniform(-scale, scale)
    rot = np.array([[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]])
    return rot @ np.diag([np.exp(t), np.exp(-t)]) @ np.array([[1.0, s], [0.0, 1.0]])


def test_sym_power_identity():
    assert np.array_equal(sym_power_rep(2, np.eye(2)), np.eye(3))
    with pytest.raises(ValueError):
        sym_power_rep(1, np.eye(2))
    with pytest.raises(ValueError):
        sym_power_rep(2, np.diag([2.0, 1.0]))


def test_sym_power_unipotent_matrix():
    expected = np.array([[1.0, 1, 1], [0, 1, 2], [0, 0, 1]])
    assert np.allclose(sym_power_rep(2, [[1, 1], [0, 1]]), expected, atol=1e-14)


def test_sym_power_diagonal_eigenvalues():
    s = sym_power_rep(2, np.diag([2.0, 0.5]))
    assert np.allclose(sorted(np.linalg.eigvals(s)), [0.25, 1.0, 4.0], atol=1e-12)


@pytest.mark.parametrize("p", [2, 3, 4])
def test_sym_power_is_a_homomorphism(p, rng):
    for _ in range(30):
        m, n = random_sl2(rng), random_sl2(rng)
        lhs = sym_power_rep(p, m @ n)
        rhs = sym_power_rep(p, m) @ sym_power_rep(p, n)
        assert np.abs(lhs - rhs).max() <= 1e-9 * max(1.0, np.abs(lhs).max())


@pytest.mark.parametrize("p,expected", [(2, (2, 1)), (3, (3, 2)), (4, (4, 3))])
def test_invariant_form_signature(p, expected):
    assert signature(invariant_form(p).matrix) == expected
    assert signature(form_on_e(p).matrix) == (p, p)


@pytest.mark.parametrize("p", [2, 3, 4])
def test_invariant_form_invariance(p, rng):
    q = invariant_form(p).matrix
    worst = max(
        form_residual(sym_power_rep(p, random_sl2(rng)), q) for _ in range(100)
    )
    assert worst <= 1e-9


@pytest.mark.parametrize("p", [2, 3, 4])
def test_principal_basis_pairing(p):
    basis = principal_basis(p)
    n = 2 * p - 1
    pairing = basis.eps.T @ basis.form_v.matrix @ basis.eps
    for k in range(1, n + 1):
        for m in range(1, n + 1):
            expected = 1.0 if k == m else 0.0
            assert abs(pairing[k - 1, (2 * p - m) - 1] - expected) <= 1e-12


@pytest.mark.parametrize("p", [2, 3, 4])
@pytest.mark.parametrize("z", [0.5, 1.0, 2.0])
def test_alpha_triangularity(p, z):
    basis = principal_basis(p)
    alpha = alpha_matrix(basis, z)
    n = alpha.shape[0]
    assert np.abs(np.tril(alpha, -1)).max() <= 1e-12
    above = np.abs(alpha[np.triu_indices(n)])
    assert above.min() > 1e-8
    assert np.allclose(np.diag(alpha), 1.0, atol=1e-10)


@pytest.mark.parametrize("p", [2, 3, 4])
def test_lambda_eigenvalue_law(p):
    basis = principal_basis(p)
    lam = 1.9
    diag = sym_power_rep(p, np.diag([lam, 1 / lam]))
    for m in range(1, 2 * p):
        v = basis.eps[:, m - 1]
        expected = lam ** (2 * p - 2 * m)
        assert np.abs(diag @ v - expected * v).max() <= 1e-10 * max(1, expected)


@pytest.mark.parametrize("p", [2, 3])
def test_embedding_preserves_form(p, rng):
    qe = form_on_e(p).matrix
    assert np.array_equal(embed_so_pp(p, np.eye(2 * p - 1)), np.eye(2 * p))
    for _ in range(20):
        m = sym_power_rep(p, random_sl2(rng))
        assert form_residual(embed_so_pp(p, m), qe) <= 1e-10
    with pytest.raises(NumericalFailure):
        embed_so_pp(p, np.eye(2 * p - 1) * 1.5)


def test_embedded_fuchsian_has_double_unit_eigenvalue(lab):
    for p in (2, 3):
        m = lab.rho_e[p].evaluate((1,))
        evals = np.sort(np.abs(np.linalg.eigvals(m)))
        assert np.sum(np.abs(evals - 1.0) < 1e-9) >= 2


@pytest.mark.parametrize("p", [2, 3])
def test_eigendata_fuchsian_spectrum(lab, p):
    from anosovlab.fuchsian import sl2_eigenbasis

    for word in [(1,), (2, 1), (1, -3), (1, 2)]:
        m2 = lab.sl2.evaluate(word)
        _, lam = sl2_eigenbasis(m2)
        eig = eigendata_fuchsian(p, m2, lab.basis[p])
        expected = [lam ** (2 * (p - i)) for i in range(1, p + 1)]
        assert np.allclose(eig.lambdas, expected, rtol=1e-10)
        assert abs(eig.lambdas[p - 1] - 1.0) == 0.0
        # lambda_i * lambda_bar_i = 1
        full = eig.eigenvalues
        assert np.allclose(full * full[::-1], 1.0, atol=1e-9)
        # eigenvector residuals against the embedded matrix
        me = lab.rho_e[p].evaluate(word)
        for i in range(2 * p):
            v = eig.vectors[:, i]
            residual = np.abs(me @ v - full[i] * v).max()
            assert residual <= 1e-8 * max(1.0, np.abs(me).max())
        # Q-pairing normalization
        qm = eig.form.matrix
        gram = eig.vectors.T @ qm @ eig.vectors
        anti = np.fliplr(np.eye(2 * p))
        assert np.abs(gram - anti).max() <= 1e-8


@pytest.mark.parametrize("p", [2, 3])
def test_flag_matches_power_iteration(lab, p, rng):
    # attracting k-planes of rho_V(w)^n converge to the top-k eigenspans
    word = (2, 1, 1)
    mv = lab.rho_v[p].evaluate(word)
    from anosovlab.fuchsian import sl2_eigenbasis
    from anosovlab.principal_rep import sym_power_rep as spr

    h, _ = sl2_eigenbasis(lab.sl2.evaluate(word))
    eps_images = spr(p, h) @ lab.basis[p].eps
    for k in range(1, p + 1):
        seed_plane = orthonormal_span(rng.standard_normal((2 * p - 1, k)))
        plane = seed_plane
        for _ in range(60):
            plane = orthonormal_span(mv @ plane)
        target = orthonormal_span(eps_images[:, :k])
        # the sine metric resolves agreement only to sqrt(eps)
        assert span_distance(plane, target) <= 1e-7


@pytest.mark.parametrize("p", [2, 3])
def test_fuchsian_eigenvalue_power_law(lab, p):
    # lambda_i(gamma) = lambda(gamma)^(2(p-i)) across enumerated classes
    from anosovlab.fuchsian import sl2_eigenbasis

    words = lab.hyperbolic_words(max_count=120)
    for w in words:
        m2 = lab.sl2.evaluate(w)
        _, lam = sl2_eigenbasis(m2)
        eig = eigendata_fuchsian(p, m2, lab.basis[p])
        for i in range(1, p + 1):
            expected = lam ** (2 * (p - i))
            assert abs(eig.lambdas[i - 1] - expected) <= 1e-7 * expected


@pytest.mark.parametrize("p", [2, 3])
def test_attracting_plane_is_positive(lab, p):
    reference = standard_reference(lab.basis[p])
    # the reference convention itself
    assert classify_orientation(lab.basis[p].e, reference) == 1
    negative = lab.basis[p].e.copy()
    negative[:, p - 1] = lab.basis[p].ebar[:, p - 1]
    assert classify_orientation(negative, reference) == -1
    for w in [(1,), (1, 2), (3, -2, 1)]:
        eig = eigendata_fuchsian(p, lab.sl2.evaluate(w), lab.basis[p])
        assert classify_orientation(eig.theta, reference) == 1


def test_representation_cache_and_residuals(lab):
    rho = lab.rho_v[2]
    m1 = rho.evaluate((1, 2, -1))
    m2 = rho.evaluate((1, 2, -1))
    assert m1 is m2  # memoized
    assert rho.relator_residual(lab.presentation) <= 1e-9
    assert lab.rho_e[2].relator_residual(lab.presentation) <= 1e-9


@pytest.mark.parametrize("n", [0, 1, 5, 12])
def test_products_have_the_bits_of_evaluate(lab, rng, n):
    words = rng.choice([1, -1, 2, -2, 3, -3, 4, -4], size=(30, n)).astype(np.int8)
    for rho in (lab.sl2, lab.rho_v[3], lab.rho_e[3]):
        stack = rho.products(words)
        assert stack.shape == (30, rho.dim, rho.dim)
        assert stack.tobytes() == np.array(
            [rho.evaluate(tuple(w)) for w in words.tolist()]).tobytes()


def _sym_power_formula(p, m):
    """The single-matrix column-by-column np.convolve form."""
    from math import comb

    d = 2 * p - 2
    a, b, c, dd = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    out = np.zeros((d + 1, d + 1))
    for k in range(d + 1):
        left = np.array([comb(d - k, i) * a ** (d - k - i) * c**i
                         for i in range(d - k + 1)])
        right = np.array([comb(k, j) * b ** (k - j) * dd**j for j in range(k + 1)])
        out[:, k] = np.convolve(left, right)
    return out


@pytest.mark.parametrize("p", (2, 3, 4, 5))
def test_sym_power_stack_has_the_bits_of_the_formula(lab, p):
    from anosovlab.fuchsian import sl2_eigenbasis

    mats = lab.ball.matrices[np.abs(np.trace(lab.ball.matrices, axis1=1, axis2=2)) > 2.001]
    hs, _ = sl2_eigenbasis(mats[:600])
    inputs = np.concatenate([mats[:600], hs, [[[1.0, 0.0], [0.0, 1.0]],
                                              [[2.0, 0.0], [0.0, 0.5]],
                                              [[1.0, 0.0], [-0.3, 1.0]]]])
    stacked = sym_power_rep(p, inputs)
    assert stacked.shape == (len(inputs), 2 * p - 1, 2 * p - 1)
    for m, row in zip(inputs, stacked):
        reference = _sym_power_formula(p, m).tobytes()
        assert row.tobytes() == reference == sym_power_rep(p, m).tobytes()
