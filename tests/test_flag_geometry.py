import numpy as np
import pytest

from anosovlab.linalg import NumericalFailure
from anosovlab.flag_geometry import (
    PairedTuple,
    flag_from_tuple,
    form_from_plane,
    is_isotropic,
    plane_from_form,
    transversality_margin,
    tuple_from_flags,
)
from anosovlab.principal_rep import eigendata_fuchsian, form_on_e, principal_basis

from oracles import (
    classify_orientation,
    random_form_isometry,
    span_distance,
    standard_reference,
    tuples_match,
)


def standard_tuple(basis):
    return PairedTuple(lines=basis.e.copy(), lines_bar=basis.ebar.copy())


def random_tuple(basis, rng, scale=0.4):
    g = random_form_isometry(basis.form_e.matrix, rng, scale)
    std = standard_tuple(basis)
    return PairedTuple(lines=g @ std.lines, lines_bar=g @ std.lines_bar), g


@pytest.mark.parametrize("p", [2, 3])
class TestOrientation:
    def test_reference_planes(self, p):
        basis = principal_basis(p)
        ref = standard_reference(basis)
        assert classify_orientation(basis.e, ref) == 1
        negative = basis.e.copy()
        negative[:, p - 1] = basis.ebar[:, p - 1]
        assert classify_orientation(negative, ref) == -1

    def test_identity_component_preserves_sign(self, p, rng):
        basis = principal_basis(p)
        ref = standard_reference(basis)
        for _ in range(25):
            g = random_form_isometry(basis.form_e.matrix, rng, 0.3)
            assert classify_orientation(g @ basis.e, ref) == 1
            negative = basis.e.copy()
            negative[:, p - 1] = basis.ebar[:, p - 1]
            assert classify_orientation(g @ negative, ref) == -1


@pytest.mark.parametrize("p", [2, 3])
def test_flag_from_tuple_standard(p):
    basis = principal_basis(p)
    q = basis.form_e
    flag, flag_bar = flag_from_tuple(standard_tuple(basis), q)
    assert flag.p == p and flag_bar.p == p
    for i in range(p):
        assert span_distance(flag.subspaces[i], basis.e[:, : i + 1]) <= 1e-10
    # transversality: M_i ⊕ L_i° = E, checked through the tuple round trip
    recovered = tuple_from_flags(flag, flag_bar, q)
    ok, worst = tuples_match(recovered, standard_tuple(basis))
    assert ok, worst


@pytest.mark.parametrize("p", [2, 3])
def test_tuple_flag_round_trips(p, rng):
    basis = principal_basis(p)
    q = basis.form_e
    for _ in range(60):
        paired, _ = random_tuple(basis, rng)
        flag, flag_bar = flag_from_tuple(paired, q)
        recovered = tuple_from_flags(flag, flag_bar, q)
        ok, worst = tuples_match(recovered, paired, tol=1e-8)
        assert ok, worst
        # and the reverse composition reproduces the flags
        flag2, flag_bar2 = flag_from_tuple(recovered, q)
        for i in range(p):
            assert span_distance(flag.subspaces[i], flag2.subspaces[i]) <= 1e-8
            assert span_distance(flag_bar.subspaces[i], flag_bar2.subspaces[i]) <= 1e-8


@pytest.mark.parametrize("p", [2, 3])
def test_equivariance_of_both_directions(p, rng):
    basis = principal_basis(p)
    q = basis.form_e
    for _ in range(20):
        paired, _ = random_tuple(basis, rng)
        g = random_form_isometry(q.matrix, rng, 0.3)
        flag_g, flag_bar_g = flag_from_tuple(
            PairedTuple(g @ paired.lines, g @ paired.lines_bar), q
        )
        flag, flag_bar = flag_from_tuple(paired, q)
        for i in range(p):
            assert span_distance(flag_g.subspaces[i], g @ flag.subspaces[i]) <= 1e-8


def test_permutation_changes_l1_not_lp():
    basis = principal_basis(3)
    q = basis.form_e
    swapped = standard_tuple(basis)
    swapped.lines[:, [0, 1]] = swapped.lines[:, [1, 0]]
    swapped.lines_bar[:, [0, 1]] = swapped.lines_bar[:, [1, 0]]
    flag_a, _ = flag_from_tuple(standard_tuple(basis), q)
    flag_b, _ = flag_from_tuple(swapped, q)
    assert span_distance(flag_a.subspaces[0], flag_b.subspaces[0]) > 0.5
    assert span_distance(flag_a.top, flag_b.top) <= 1e-10


def test_non_transverse_flags_rejected():
    basis = principal_basis(2)
    q = basis.form_e
    flag, _ = flag_from_tuple(standard_tuple(basis), q)
    with pytest.raises(NumericalFailure):
        tuple_from_flags(flag, flag, q)  # a flag is never transverse to itself


@pytest.mark.parametrize("p", [2, 3])
def test_form_from_plane_zero_and_round_trip(p, rng):
    basis = principal_basis(p)
    q = basis.form_e
    theta0, theta1 = basis.e, basis.ebar
    zero = form_from_plane(theta0, theta0, theta1, q)
    assert np.abs(zero).max() <= 1e-12
    for _ in range(40):
        omega = rng.standard_normal((p, p))
        plane = plane_from_form(omega, theta0, theta1, q)
        recovered = form_from_plane(plane, theta0, theta1, q)
        assert np.abs(recovered - omega).max() <= 1e-9 * max(1, np.abs(omega).max())


@pytest.mark.parametrize("p", [2, 3])
def test_antisymmetry_iff_isotropy(p, rng):
    basis = principal_basis(p)
    q = basis.form_e
    theta0, theta1 = basis.e, basis.ebar
    for _ in range(60):
        a = rng.standard_normal((p, p))
        antisym = (a - a.T) / 2
        plane = plane_from_form(antisym, theta0, theta1, q)
        assert is_isotropic(plane, q.matrix, tol=1e-10)
        sym_part = a - (a - a.T) / 2
        if np.abs(sym_part).max() > 1e-6:
            plane2 = plane_from_form(a, theta0, theta1, q)
            assert not is_isotropic(plane2, q.matrix, tol=1e-10)
    # isotropic planes produce antisymmetric forms
    for _ in range(40):
        paired, _ = random_tuple(basis, rng, scale=0.25)
        plane = paired.lines  # isotropic, generically transverse to theta1
        omega = form_from_plane(plane, theta0, theta1, q)
        assert np.abs(omega + omega.T).max() <= 1e-10 * max(1, np.abs(omega).max())


def test_form_from_plane_rejects_non_transverse():
    basis = principal_basis(2)
    q = basis.form_e
    with pytest.raises(NumericalFailure):
        form_from_plane(basis.ebar, basis.e, basis.ebar, q)


@pytest.mark.parametrize("p", [2, 3])
def test_fuchsian_triples_are_transverse(lab, p):
    q = form_on_e(p)
    words = [(1,), (2,), (3,), (1, 2), (4, 1)]
    count = 0
    for wa in words:
        for wb in words:
            if wa == wb:
                continue
            eig_a = eigendata_fuchsian(p, lab.sl2.evaluate(wa), lab.basis[p])
            eig_b = eigendata_fuchsian(p, lab.sl2.evaluate(wb), lab.basis[p])
            margin = transversality_margin(
                eig_b.theta, eig_a.line(p), eig_a.line(p - 1), eig_a.theta_bar, q
            )
            assert margin > 1e-6
            count += 1
    assert count == 20


def test_margin_vanishes_on_degenerate_triple(lab):
    # z equal to x: Theta(z) contains E_p(x,y), so the margin collapses;
    # samplers must reject such triples as non-pairwise-distinct.
    p = 2
    q = form_on_e(p)
    eig = eigendata_fuchsian(p, lab.sl2.evaluate((1,)), lab.basis[p])
    margin = transversality_margin(
        eig.theta, eig.line(p), eig.line(p - 1), eig.theta_bar, q
    )
    assert margin <= 1e-10


@pytest.mark.parametrize("p", [2, 3])
def test_margin_conjugation_invariance(lab, p, rng):
    q = form_on_e(p)
    eig_a = eigendata_fuchsian(p, lab.sl2.evaluate((1, 2)), lab.basis[p])
    eig_b = eigendata_fuchsian(p, lab.sl2.evaluate((3,)), lab.basis[p])
    base = transversality_margin(
        eig_b.theta, eig_a.line(p), eig_a.line(p - 1), eig_a.theta_bar, q
    )
    for _ in range(10):
        g = random_form_isometry(q.matrix, rng, 0.2)
        moved = transversality_margin(
            g @ eig_b.theta, g @ eig_a.line(p), g @ eig_a.line(p - 1),
            g @ eig_a.theta_bar, q,
        )
        # sign-level agreement: both are bounded away from zero together
        assert (base > 1e-8) == (moved > 1e-8)


@pytest.mark.parametrize("p", [2, 3, 4])
@pytest.mark.parametrize("z", [0.5, 1.0, 2.0])
def test_alpha_system_upper_triangular(p, z):
    from anosovlab.flag_geometry import alpha_system

    basis = principal_basis(p)
    system = alpha_system(basis, z)
    assert system.shape == (p, p)
    assert np.abs(np.tril(system, -1)).max() <= 1e-12
    assert np.abs(np.diag(system)).min() > 1e-8
