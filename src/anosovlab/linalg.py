"""Small shared linear-algebra helpers: subspaces, nullspaces, indefinite forms.

Subspaces are represented by matrices whose columns span them, and are
orthonormalized with respect to the auxiliary Euclidean inner product
(the indefinite form Q is never used for normalization, only for pairing).
"""

import numpy as np

SVD_THRESHOLD = 1e-10
SIGNATURE_TOL = 1e-9


class NumericalFailure(RuntimeError):
    """A computation could not be completed at the required accuracy."""


class InputError(ValueError):
    """An argument the library refuses: a bad value, shape or size, as
    opposed to a ValueError raised by a bug."""


def orthonormal_span(vectors):
    """Orthonormal basis (columns) of the column span of `vectors`.

    Rank is decided by singular values relative to the largest one.
    """
    a = np.atleast_2d(np.asarray(vectors, dtype=float))
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((a.shape[0], 0))
    rank = int(np.sum(s > SVD_THRESHOLD * s[0]))
    return u[:, :rank]


def nullspace(a):
    """Orthonormal basis (rows) of the right null space of `a`."""
    a = np.asarray(a, dtype=float)
    u, s, vt = np.linalg.svd(a, full_matrices=True)
    if s.size == 0:
        return vt
    rank = int(np.sum(s > SVD_THRESHOLD * s[0]))
    return vt[rank:]


def intersect_spans(a, b):
    """Orthonormal basis of span(a) ∩ span(b) (columns)."""
    qa, qb = orthonormal_span(a), orthonormal_span(b)
    if qa.shape[1] == 0 or qb.shape[1] == 0:
        return np.zeros((qa.shape[0], 0))
    # null vectors of [qa, -qb] give matching coefficient pairs
    stacked = np.hstack([qa, -qb])
    coeffs = nullspace(stacked)
    if coeffs.shape[0] == 0:
        return np.zeros((qa.shape[0], 0))
    return orthonormal_span(qa @ coeffs[:, : qa.shape[1]].T)


def form_residual(m, q):
    """Relative residual of form preservation, ‖MᵀQM − Q‖ / max(1, ‖M‖²)."""
    m = np.asarray(m, float)
    num = np.abs(m.T @ q @ m - q).max()
    den = max(1.0, float(np.abs(m).max()) ** 2)
    return num / den


def signature(q):
    """Signature (n_plus, n_minus) of a symmetric matrix."""
    evals = np.linalg.eigvalsh(np.asarray(q, float))
    scale = max(1.0, np.abs(evals).max())
    plus = int(np.sum(evals > SIGNATURE_TOL * scale))
    minus = int(np.sum(evals < -SIGNATURE_TOL * scale))
    return plus, minus


def float17(x):
    """Serialize a float with 17 significant digits (lossless round trip)."""
    return format(float(x), ".17g")
