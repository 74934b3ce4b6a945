"""Isotropic-flag linear algebra for a signature-(p,p) form.

Subspaces are handled as orthonormalized spanning matrices with respect to
the Euclidean inner product; the indefinite form enters only through
pairings.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import NumericalFailure, intersect_spans, nullspace, orthonormal_span

PAIRING_TOL = 1e-8
TRANSVERSE_DET_TOL = 1e-9


def _form_matrix(q):
    return q.matrix if hasattr(q, "matrix") else np.asarray(q, float)


def is_isotropic(span, q, tol=1e-10):
    s = orthonormal_span(span)
    g = s.T @ _form_matrix(q) @ s
    return np.abs(g).max() <= tol


@dataclass
class IsotropicFlag:
    """Nested isotropic subspaces L_1 ⊂ ... ⊂ L_p."""

    subspaces: list

    @property
    def p(self):
        return len(self.subspaces)

    @property
    def top(self):
        return self.subspaces[-1]


@dataclass
class PairedTuple:
    """Two p-tuples of lines spanning Q-paired transverse maximal isotropics.

    `lines` and `lines_bar` are (2p x p), one line generator per column.
    """

    lines: np.ndarray
    lines_bar: np.ndarray

    @property
    def p(self):
        return self.lines.shape[1]


def flag_from_tuple(paired, q):
    """Flags (L_i = E_1 + ... + E_i, M_i = Ē_1 + ... + Ē_i) of a Q-paired tuple.

    Raises if either partial sum fails isotropy.
    """
    qm = _form_matrix(q)
    subs, subs_bar = [], []
    for i in range(1, paired.p + 1):
        li = orthonormal_span(paired.lines[:, :i])
        mi = orthonormal_span(paired.lines_bar[:, :i])
        if not (is_isotropic(li, qm) and is_isotropic(mi, qm)):
            raise NumericalFailure("partial sums of the tuple are not isotropic")
        subs.append(li)
        subs_bar.append(mi)
    return IsotropicFlag(subs), IsotropicFlag(subs_bar)


def tuple_from_flags(flag, flag_bar, q):
    """The unique Q-paired tuple with the given transverse flags.

    E_i is recovered as the line L_i ∩ (M_{i-1})°, by null-space
    extraction; the full pairing invariant is validated before returning.
    """
    qm = _form_matrix(q)
    p = flag.p
    dim = qm.shape[0]
    lines = np.zeros((dim, p))
    lines_bar = np.zeros((dim, p))
    for i in range(p):
        lines[:, i : i + 1] = _line_step(flag.subspaces[i],
                                         flag_bar.subspaces[i - 1] if i else None, qm)
        lines_bar[:, i : i + 1] = _line_step(flag_bar.subspaces[i],
                                             flag.subspaces[i - 1] if i else None, qm)
    paired = PairedTuple(lines=lines, lines_bar=lines_bar)
    _validate_pairing(paired, qm)
    return paired


def _line_step(l_i, m_prev, qm):
    if m_prev is None:
        line = l_i
    else:
        # orthogonal of M_{i-1}: null space of v -> Q(M_{i-1}, v)
        orth = nullspace((qm @ m_prev).T).T
        line = intersect_spans(l_i, orth)
    if line.shape[1] != 1:
        raise NumericalFailure(
            f"flag intersection has dimension {line.shape[1]}, expected a line "
            "(transversality failure)"
        )
    return line


def _validate_pairing(paired, qm):
    for block in (paired.lines, paired.lines_bar):
        if not is_isotropic(block, qm, PAIRING_TOL):
            raise NumericalFailure("tuple does not span an isotropic plane")
    gram = paired.lines.T @ qm @ paired.lines_bar
    off = gram - np.diag(np.diag(gram))
    if np.abs(off).max() > PAIRING_TOL * max(1.0, np.abs(gram).max()):
        raise NumericalFailure("tuple is not Q-paired (off-diagonal pairing)")
    if np.abs(np.diag(gram)).min() < PAIRING_TOL:
        raise NumericalFailure("tuple is not Q-paired (degenerate diagonal)")


def form_from_plane(plane, theta0, theta1, q):
    """The 2-form ω_F(u, v) = Q(u, f(v)) of a plane F = graph(f: θ0 -> θ1).

    Returned as a matrix in the given basis of θ0. F must be transverse to
    θ1; F is isotropic iff the result is antisymmetric.
    """
    qm = _form_matrix(q)
    theta0 = np.asarray(theta0, float)
    theta1 = np.asarray(theta1, float)
    plane = np.asarray(plane, float)
    p = theta0.shape[1]
    # write each column of `plane` as theta0·s + theta1·t
    stacked = np.hstack([theta0, theta1])
    coeffs, res, rank, _ = np.linalg.lstsq(stacked, plane, rcond=None)
    if np.abs(stacked @ coeffs - plane).max() > 1e-9 * max(1.0, np.abs(plane).max()):
        raise NumericalFailure("plane does not lie in θ0 ⊕ θ1")
    s, t = coeffs[:p], coeffs[p:]
    if abs(np.linalg.det(s)) < TRANSVERSE_DET_TOL:
        raise NumericalFailure("plane is not transverse to θ1")
    graph = t @ np.linalg.inv(s)  # f in the (theta0, theta1) bases
    pairing = theta0.T @ qm @ theta1
    return pairing @ graph


def plane_from_form(omega, theta0, theta1, q):
    """Inverse of :func:`form_from_plane`: the graph plane of a 2-form."""
    qm = _form_matrix(q)
    pairing = theta0.T @ qm @ theta1
    graph = np.linalg.solve(pairing, np.asarray(omega, float))
    return theta0 + theta1 @ graph


def transversality_margin(theta_z, e_p_line, e_pm1_line, theta_bar_y, q):
    """Determinant margin of Θ(z) against F(x,y) = E_p ⊕ (E_{p-1}° ∩ Θ̄(y)).

    All subspaces are orthonormalized before the 2p x 2p determinant is
    taken, so the margin is the product of principal-angle sines: zero
    means the transversality fails. A wrong dimension of F(x,y) signals
    broken eigendata and raises.

    This is `frame_margin` of `theta_frame(theta_z)` and `fxy_frame(...)`;
    a sampler that meets the same z or (x, y) many times builds each frame
    once and takes one determinant per triple.
    """
    return float(frame_margin(theta_frame(theta_z),
                              fxy_frame(e_p_line, e_pm1_line, theta_bar_y, q)))


def theta_frame(theta_z):
    """Orthonormal frame (2p x p) of the attracting plane Θ(z)."""
    return orthonormal_span(theta_z)


def fxy_frame(e_p_line, e_pm1_line, theta_bar_y, q):
    """Orthonormal frame (2p x p) of F(x,y) = E_p ⊕ (E_{p-1}° ∩ Θ̄(y))."""
    qm = _form_matrix(q)
    p = qm.shape[0] // 2
    orth = nullspace((qm @ e_pm1_line).T).T
    inter = intersect_spans(orth, theta_bar_y)
    if inter.shape[1] != p - 1:
        raise NumericalFailure(
            f"E_(p-1)° ∩ Θ̄(y) has dimension {inter.shape[1]}, expected {p - 1}"
        )
    f_xy = orthonormal_span(np.hstack([e_p_line, inter]))
    if f_xy.shape[1] != p:
        raise NumericalFailure("F(x,y) is degenerate")
    return f_xy


def frame_margin(theta_frames, fxy_frames):
    """|det [Θ(z) | F(x,y)]| of orthonormal frames, one frame pair or stacks."""
    return np.abs(np.linalg.det(np.concatenate([theta_frames, fxy_frames], axis=-1)))


def alpha_system(basis, z):
    """The p x p unipotent pairing system behind the transversality proof.

    A vector of the attracting plane annihilated by F°(x,y) after the
    unipotent flow by z has coefficients solving this system; rows are
    indexed by the first p weight vectors, columns by the pairing
    equations against ε̄_n for n = 1, ..., p-1, p+1. The matrix is upper
    triangular with nonzero diagonal for every z ≠ 0, which forces the
    trivial solution and hence the transversality.
    """
    from .principal_rep import alpha_matrix

    p = basis.p
    full = alpha_matrix(basis, z)
    columns = list(range(p - 1)) + [p]  # n = 1..p-1 and n = p+1 (0-indexed)
    return full[:p, columns]
