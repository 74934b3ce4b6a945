"""The principal (2p-1)-dimensional representation of SL(2,R) and its
embedding into SO(p,p).

The representation acts on binary forms of degree 2p-2 in the monomial
basis m_j = x^(2p-2-j) y^j, covariantly: a matrix [[a,b],[c,d]] substitutes
x -> a x + c y, y -> b x + d y. It preserves a bilinear form of signature
(p, p-1), unique up to scale, normalized here so that the weight basis
below pairs to the identity.

The weight basis eps_1 .. eps_{2p-1} diagonalizes diag(λ, 1/λ) with
eigenvalue law λ^(2p-2m) and pairs as <eps_k | eps_{2p-m}> = δ_{k,m}. On
E = V ⊕ L (L a line spanned by f with <f|f> = -1) the embedded basis

    e_i = eps_i,  ē_i = eps_{2p-i}  (i < p),
    e_p = (eps_p + f)/√2,  ē_p = (eps_p - f)/√2,

consists of isotropic vectors with <e_i|ē_j> = δ_{ij}; (e_1, ..., e_p)
spans the reference positive maximal isotropic plane. The two middle
vectors are the lightlike lines of span(eps_p, f); the labeling (+f into
e_p) is the orientation under which the eigenvalue-derivative identity of
`affine_deform` holds with its stated sign.
"""

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

import numpy as np

from .linalg import InputError, NumericalFailure, form_residual, orthonormal_span
from .fuchsian import sl2_eigenbasis

BASIS_TOL = 1e-10
EMBED_FORM_TOL = 1e-9


def sym_power_rep(p, m):
    """Action of an SL(2,R) matrix on binary forms of degree 2p-2.

    Multiplicative in m; the image of the monomial m_k is
    (a x + c y)^(d-k) (b x + d y)^k expanded in the monomial basis.

    Stacked: `m` is one 2x2 matrix or an (N, 2, 2) stack, and the result
    is (2p-1, 2p-1) or (N, 2p-1, 2p-1); a single matrix is evaluated as a
    one-element stack. Column k is the convolution of the coefficient
    lists C(d-k, i) a^(d-k-i) c^i and C(k, j) b^(k-j) d^j, evaluated the
    way ``np.convolve`` evaluates it (see `_sym_power_plan`), with powers
    taken by the C library ``pow`` like Python's float power, so every
    matrix gets the bits of that one-matrix formula.

    Parameters
    ----------
    p : int
        Half-dimension parameter, p >= 2; the result is (2p-1) x (2p-1).
    m : ndarray
        2x2 real matrix, or stack of them, with determinant 1 (checked to
        1e-10).
    """
    if p < 2:
        raise InputError("p must be >= 2")
    m = np.asarray(m, float)
    single = m.ndim == 2
    m = _unit_determinants(m)
    entries = m.reshape(-1).tolist()
    n = 2 * p - 1
    coefficients, first, second, groups, order = _sym_power_plan(p)
    # powers[i, entry * n + e] = (entry of matrix i) ** e, entries a, b, c, d = 0..3
    powers = np.array([list(map(math.pow, entries, itertools.repeat(float(e))))
                       for e in range(n)])
    powers = powers.reshape(n, -1, 4).transpose(1, 2, 0).reshape(len(m), 4 * n)
    slots = coefficients * powers[:, first] * powers[:, second]
    out = _plan_sums(slots, groups)[:, order].reshape(len(m), n, n)
    return out[0] if single else out


def sym_power_middle_column(p, m):
    """Column p-1 of `sym_power_rep(p, m)` for an (N, 2, 2) stack, as an
    (N, 2p-1) array with the bits of that column.

    The column's entries are the same slots and sums of `_sym_power_plan`
    (`_middle_column_plan` picks them out). Its slots read only the powers
    0 .. p-1 of the entries: power 0 is 1.0 and power 1 the entry itself,
    exactly as the C library ``pow`` gives them; higher powers go through
    ``pow`` as in `sym_power_rep`.
    """
    m = _unit_determinants(np.asarray(m, float))
    coefficients, first, second, groups, order = _middle_column_plan(p)
    entries = m.reshape(-1, 4)
    flat = entries.reshape(-1).tolist()
    # powers[i, entry * p + e] = (entry of matrix i) ** e, entries a, b, c, d = 0..3
    powers = np.empty((len(m), 4, p))
    powers[:, :, 0] = 1.0
    powers[:, :, 1] = entries
    for e in range(2, p):
        powers[:, :, e] = np.reshape(list(map(math.pow, flat, itertools.repeat(float(e)))),
                                     (len(m), 4))
    powers = powers.reshape(len(m), 4 * p)
    slots = coefficients * powers[:, first] * powers[:, second]
    return _plan_sums(slots, groups)[:, order]


def _unit_determinants(m):
    """`m` as an (N, 2, 2) stack, each determinant checked to be 1 to
    1e-10."""
    m = m.reshape(-1, 2, 2)
    a, b, c, d = m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1]
    if (np.abs(a * d - b * c - 1.0) > 1e-10).any():
        raise InputError("matrix must have determinant 1")
    return m


def _plan_sums(slots, groups):
    """The values of a plan's groups over the (N, slots) products, in
    group order: BLAS dots and running sums, as `_sym_power_plan` says."""
    values = []
    for by_dot, xs, ys in groups:
        if by_dot:
            # unit strides, so BLAS takes its contiguous dot kernel
            x, y = np.ascontiguousarray(slots[:, xs]), np.ascontiguousarray(slots[:, ys])
            values.append((x[..., None, :] @ y[..., :, None])[..., 0, 0])
        else:
            terms = slots[:, xs] * slots[:, ys]
            value = 0.0
            for t in range(terms.shape[2]):
                value = value + terms[..., t]
            values.append(value)
    return np.concatenate(values, axis=1)


@lru_cache(maxsize=None)
def _sym_power_plan(p):
    """Evaluation plan of `sym_power_rep` for one p.

    Column k of the degree-d power is ``np.convolve(left_k, right_k)``.
    With a the longer list (the left one on a tie) and v the other,
    np.convolve forms entry r as the sum over i ascending of a[i]·v[r-i]:
    a running sum from 0.0 where v fits inside a, and a BLAS dot product
    in the overhang at both ends. The running sums of all columns form one
    group, padded in front with zero terms (0.0 + 0.0·0.0 leaves the sum
    at 0.0); the dot products are grouped by their number of terms (they
    cannot be padded).

    Returns (coefficients, first, second, groups, order): slot s holds
    coefficients[s]·powers[first[s]]·powers[second[s]] (binomials of the
    left then the right lists, then a zero slot); each group is (by_dot,
    xs, ys) with xs, ys the (entries, terms) slots of the two factors; and
    `order` takes the concatenated group values to row-major matrix order.
    """
    d = 2 * p - 2
    n = d + 1
    slots, at = [], {}
    # slot: (binomial, entry, exponent, entry, exponent), entries a, b, c, d = 0..3
    for k in range(n):
        for i in range(d - k + 1):
            at["left", k, i] = len(slots)
            slots.append((comb(d - k, i), 0, d - k - i, 2, i))
        for j in range(k + 1):
            at["right", k, j] = len(slots)
            slots.append((comb(k, j), 1, k - j, 3, j))
    zero = len(slots)
    slots.append((0, 0, 0, 0, 0))
    grouped = {}
    for k in range(n):
        n_left, n_right = d - k + 1, k + 1
        short, long = min(n_left, n_right), max(n_left, n_right)
        for r in range(n):
            terms = []
            for i in range(long):
                if 0 <= r - i < short:
                    # (index into a, index into v) as (left, right) indices
                    left, right = (i, r - i) if n_left >= n_right else (r - i, i)
                    terms.append((at["left", k, left], at["right", k, right]))
            by_dot = len(terms) > 1 and not short - 1 <= r <= long - 1
            group = grouped.setdefault(len(terms) if by_dot else 0, ([], [], []))
            group[0].append(r * n + k)
            group[1].append([t[0] for t in terms])
            group[2].append([t[1] for t in terms])
    groups, positions = [], []
    for size, (where, xs, ys) in sorted(grouped.items()):
        if size == 0:
            width = max(len(x) for x in xs)
            xs = [[zero] * (width - len(x)) + x for x in xs]
            ys = [[zero] * (width - len(y)) + y for y in ys]
        groups.append((size > 0, np.array(xs), np.array(ys)))
        positions += where
    columns = np.array(slots).T
    return (columns[0].astype(float), columns[1] * n + columns[2],
            columns[3] * n + columns[4], tuple(groups), np.argsort(positions))


@lru_cache(maxsize=None)
def _middle_column_plan(p):
    """`_sym_power_plan` restricted to column p-1, for
    `sym_power_middle_column`.

    Each group keeps the entries (r, p-1) it holds, in its own order, and
    their slots; a power index entry·(2p-1) + e becomes entry·p + e (the
    column's exponents are at most p-1). Returns (coefficients, first,
    second, groups, order) as `_sym_power_plan` does, `order` taking the
    concatenated group values to rows r = 0 .. 2p-2.
    """
    n = 2 * p - 1
    coefficients, first, second, groups, order = _sym_power_plan(p)
    wanted = order[np.arange(n) * n + p - 1]  # concatenated index of entry (r, p-1)
    kept, rows, offset = [], [], 0
    for by_dot, xs, ys in groups:
        here = np.flatnonzero((wanted >= offset) & (wanted < offset + len(xs)))
        if len(here):
            local = wanted[here] - offset
            kept.append((by_dot, xs[local], ys[local]))
            rows += here.tolist()
        offset += len(xs)
    used = np.array(sorted({int(slot) for _, xs, ys in kept for slot in [*xs.flat, *ys.flat]}))
    kept = tuple((by_dot, np.searchsorted(used, xs), np.searchsorted(used, ys))
                 for by_dot, xs, ys in kept)
    first, second = first[used], second[used]
    return (coefficients[used], first // n * p + first % n,
            second // n * p + second % n, kept, np.argsort(rows))


@dataclass
class QuadraticForm:
    """Symmetric bilinear form."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, float)
        if np.abs(self.matrix - self.matrix.T).max() > 1e-12:
            raise InputError("form matrix must be symmetric")


def invariant_form(p):
    """The SL(2,R)-invariant form on degree-(2p-2) binary forms.

    Antidiagonal in the monomial basis, Q(m_j, m_{d-j}) = s_p (-1)^j / C(d,j)
    with s_p = (-1)^(p-1), which fixes signature (p, p-1) with the middle
    monomial spacelike.
    """
    d = 2 * p - 2
    n = 2 * p - 1
    sp = (-1) ** (p - 1)
    q = np.zeros((n, n))
    for j in range(n):
        q[j, d - j] = sp * (-1) ** j / comb(d, j)
    return QuadraticForm(q)


def form_on_e(p):
    """The signature-(p,p) form on E = V ⊕ L: Q(u + xf) = Q(u) - x²."""
    n = 2 * p - 1
    q = np.zeros((n + 1, n + 1))
    q[:n, :n] = invariant_form(p).matrix
    q[n, n] = -1.0
    return QuadraticForm(q)


@dataclass
class PrincipalBasis:
    """Weight basis of V and the embedded isotropic basis of E = V ⊕ L.

    `eps` has the vectors eps_1..eps_{2p-1} as columns (coordinates in the
    monomial basis); `e` and `ebar` are (2p x p) with columns e_1..e_p and
    ē_1..ē_p in E-coordinates (V followed by the f-coordinate).
    """

    p: int
    eps: np.ndarray
    e: np.ndarray
    ebar: np.ndarray
    form_v: QuadraticForm
    form_e: QuadraticForm

    @property
    def f(self):
        v = np.zeros(2 * self.p)
        v[-1] = 1.0
        return v


def principal_basis(p):
    """Construct the principal basis and verify its defining identities.

    Deterministic normalization: eps_k = c_k m_{k-1} with c_k > 0 for
    k <= p and the partner scale forced by <eps_k | eps_{2p-k}> = 1. The
    resulting pairing is exactly δ and the unipotent pairing matrix is
    exactly triangular with unit diagonal.

    Raises
    ------
    NumericalFailure
        If any invariant fails BASIS_TOL (wrong form normalization).
    """
    n = 2 * p - 1
    d = 2 * p - 2
    sp = (-1) ** (p - 1)
    qv = invariant_form(p)
    c = np.zeros(n + 1)
    for k in range(1, p + 1):
        c[k] = np.sqrt(comb(d, k - 1))
    for k in range(1, p):
        c[2 * p - k] = sp * (-1) ** (k - 1) * comb(d, k - 1) / c[k]
    eps = np.diag(c[1:])

    qe = form_on_e(p)
    e = np.zeros((n + 1, p))
    ebar = np.zeros((n + 1, p))
    for i in range(p - 1):
        e[:n, i] = eps[:, i]
        ebar[:n, i] = eps[:, 2 * p - 2 - i]
    e[:n, p - 1] = eps[:, p - 1] / np.sqrt(2.0)
    e[n, p - 1] = 1.0 / np.sqrt(2.0)
    ebar[:n, p - 1] = eps[:, p - 1] / np.sqrt(2.0)
    ebar[n, p - 1] = -1.0 / np.sqrt(2.0)

    basis = PrincipalBasis(p=p, eps=eps, e=e, ebar=ebar, form_v=qv, form_e=qe)
    _verify_principal_basis(basis)
    return basis


def _verify_principal_basis(basis):
    p, n = basis.p, 2 * basis.p - 1
    qv, qe = basis.form_v.matrix, basis.form_e.matrix
    eps = basis.eps
    # pairing <eps_k | bar eps_m> = delta
    pairing = eps.T @ qv @ eps
    delta = np.zeros((n, n))
    for k in range(1, n + 1):
        delta[k - 1, (2 * p - k) - 1] = 1.0
    if np.abs(pairing - delta).max() > BASIS_TOL:
        raise NumericalFailure("principal basis pairing failed")
    # Lambda eigenvalue law
    lam = 1.7
    diag = sym_power_rep(p, np.array([[lam, 0.0], [0.0, 1.0 / lam]]))
    for m in range(1, n + 1):
        v = eps[:, m - 1]
        residual = np.abs(diag @ v - lam ** (2 * p - 2 * m) * v).max()
        if residual > BASIS_TOL * lam ** (2 * p - 2):
            raise NumericalFailure("eigenvalue law failed")
    # unipotent triangularity
    for z in (0.5, 1.0):
        al = alpha_matrix(basis, z)
        lower = np.tril(al, -1)
        if np.abs(lower).max() > BASIS_TOL:
            raise NumericalFailure("unipotent pairing not triangular")
        if np.min(np.abs(al[np.triu_indices(n)])) < 1e-8:
            raise NumericalFailure("unipotent pairing vanishes on/above diagonal")
    # embedded basis pairing
    eb = np.hstack([basis.e, basis.ebar])
    g = eb.T @ qe @ eb
    expect = np.zeros((2 * p, 2 * p))
    expect[:p, p:] = np.eye(p)
    expect[p:, :p] = np.eye(p)
    if np.abs(g - expect).max() > BASIS_TOL:
        raise NumericalFailure("embedded basis pairing failed")


def alpha_matrix(basis, z):
    """Pairing matrix of the weight basis against the unipotent flow.

    Entry (k, m) is <N_z(eps_k) | bar eps_m> for the unipotent N_z fixing
    the repelling boundary point ([[1,0],[z,1]]). Upper triangular with
    unit diagonal for every z; entries above the diagonal are nonzero for
    z != 0.
    """
    p = basis.p
    n = 2 * p - 1
    qv = basis.form_v.matrix
    nz = sym_power_rep(p, np.array([[1.0, 0.0], [z, 1.0]]))
    out = np.zeros((n, n))
    for k in range(1, n + 1):
        image = nz @ basis.eps[:, k - 1]
        for m in range(1, n + 1):
            out[k - 1, m - 1] = image @ qv @ basis.eps[:, (2 * p - m) - 1]
    return out


def embed_so_pp(p, m_v):
    """Extend a form-preserving matrix on V by the identity on L.

    The result preserves the signature-(p,p) form on E = V ⊕ L. Inputs
    that fail (p, p-1)-form preservation beyond EMBED_FORM_TOL are
    rejected.
    """
    m_v = np.asarray(m_v, float)
    n = 2 * p - 1
    if m_v.shape != (n, n):
        raise InputError(f"expected a {n}x{n} matrix")
    if form_residual(m_v, invariant_form(p).matrix) > EMBED_FORM_TOL:
        raise NumericalFailure("matrix does not preserve the (p,p-1) form")
    out = np.eye(n + 1)
    out[:n, :n] = m_v
    return out


class Representation:
    """Generator-indexed matrix representation.

    Generators are keyed by positive letters 1..n; their inverses are
    formed once. Evaluation is a pure function of the word.
    """

    def __init__(self, generators, form=None, labels=None, base=None):
        self.generators = {k: np.asarray(m, float) for k, m in generators.items()}
        self.form = form
        self.labels = labels
        self.base = base  # underlying SL(2,R) representation, if any
        first = next(iter(self.generators.values()))
        self.dim = first.shape[0]
        self._inverses = {k: np.linalg.inv(m) for k, m in self.generators.items()}
        if form is not None:
            for k, m in self.generators.items():
                if form_residual(m, form.matrix) > 1e-10:
                    raise NumericalFailure(f"generator {k} does not preserve the form")

    def generator(self, letter):
        return self.generators[letter] if letter > 0 else self._inverses[-letter]

    def evaluate(self, word):
        """Image of a word (sequence of signed letters), left to right."""
        m = np.eye(self.dim)
        for letter in word:
            m = m @ self.generator(letter)
        return m

    def products(self, words):
        """Images of the rows of an (m, n) array of signed letters, each
        row one n-letter word, as an (m, dim, dim) stack: the products
        `evaluate` forms, left to right, one stacked product per letter
        position."""
        n_gen = len(self.generators)
        # letter codes: g -> g - 1 and g⁻¹ -> n_gen + g - 1
        mats = np.array([self.generator(g) for g in range(1, n_gen + 1)]
                        + [self.generator(-g) for g in range(1, n_gen + 1)])
        codes = np.where(words > 0, words - 1, n_gen - words - 1)
        prod = np.broadcast_to(np.eye(self.dim), (len(codes), self.dim, self.dim)).copy()
        for column in codes.T:
            prod = prod @ mats[column]
        return prod

    def relator_residual(self, presentation):
        """Distance of the relator image from the identity."""
        h = self.evaluate(presentation.relator)
        return float(np.abs(h - np.eye(self.dim)).max())


def word_form_residual(rho, word):
    """Form-preservation residual of a word image, backward-error scaled.

    Freely reduced words can still backtrack metrically, so intermediate
    prefix products may dwarf the final matrix; the residual of the
    computed product (the last prefix) is therefore measured
    against the largest scale the multiplication chain actually passes through.
    """
    q = rho.form.matrix
    scale = 1.0
    m = np.eye(rho.dim)
    for letter in word:
        m = m @ rho.generator(letter)
        scale = max(scale, float(np.abs(m).max()) ** 2)
    residual = np.abs(m.T @ q @ m - q).max()
    return float(residual / scale)


def sym_representation(p, sl2_rep):
    """Principal (2p-1)-dimensional representation of an SL(2,R) group."""
    gens = {k: sym_power_rep(p, m) for k, m in sl2_rep.generators.items()}
    return Representation(gens, form=invariant_form(p), labels=sl2_rep.labels,
                          base=sl2_rep)


def embedded_representation(p, sl2_rep):
    """Principal representation embedded in SO(p,p) on E = V ⊕ L."""
    gens = {k: embed_so_pp(p, sym_power_rep(p, m))
            for k, m in sl2_rep.generators.items()}
    return Representation(gens, form=form_on_e(p), labels=sl2_rep.labels,
                          base=sl2_rep)


@dataclass
class EigenData:
    """Sorted eigenvalues with Q-normalized eigenvectors.

    `eigenvalues` lists λ_1 > ... > λ_p followed by λ̄_p > ... > λ̄_1 (so
    entry i pairs with entry 2p-1-i and λ_i λ̄_i = 1). `vectors` holds the
    right eigenvectors as aligned columns, normalized so Q(v_i, v̄_i) = 1;
    the two middle columns are isotropic. `theta` / `theta_bar` are
    orthonormalized spans of the attracting and repelling maximal
    isotropics.
    """

    p: int
    eigenvalues: np.ndarray
    vectors: np.ndarray
    form: QuadraticForm = field(repr=False, default=None)

    @property
    def theta(self):
        return orthonormal_span(self.vectors[:, : self.p])

    @property
    def theta_bar(self):
        return orthonormal_span(self.vectors[:, self.p :][:, ::-1][:, : self.p])

    def line(self, i):
        """Attracting eigenline E_i (1-indexed, i <= p)."""
        return self.vectors[:, i - 1 : i]

    @property
    def lambdas(self):
        """λ_1 .. λ_p."""
        return self.eigenvalues[: self.p]


def eigendata_fuchsian(p, m_sl2, basis):
    """EigenData of the embedded image of a hyperbolic SL(2,R) element.

    Structural route: the 2x2 eigenbasis h is mapped through the
    symmetric power, giving eigenvectors sym(h)·eps_k with eigenvalues
    λ^(2p-2k) and the two lightlike middle lines (sym(h)eps_p ± f)/√2.
    Exact Q-normalization and the λ_p = λ̄_p = 1 coincidence are resolved
    by construction; this is the only route that certifies λ_p = 1 at
    1e-9 for long words, where generic solvers lose the middle eigenpair.

    Best conditioned on cyclically reduced words: conjugation pulls the
    two fixed lines of the 2x2 matrix together and degrades h, while the
    eigen-structure itself transports exactly (equivariance), so callers
    evaluate class data on reduced representatives.
    """
    n = 2 * p - 1
    h, lam = sl2_eigenbasis(m_sl2)
    sym_h = sym_power_rep(p, h)
    eps_images = sym_h @ basis.eps
    x = eps_images[:, p - 1]  # unit spacelike fixed vector, oriented

    vectors = np.zeros((n + 1, n + 1))
    eigenvalues = np.zeros(n + 1)
    for i in range(1, p):
        vectors[:n, i - 1] = eps_images[:, i - 1]
        eigenvalues[i - 1] = lam ** (2 * (p - i))
        vectors[:n, 2 * p - i] = eps_images[:, 2 * p - i - 1]
        eigenvalues[2 * p - i] = lam ** (-2 * (p - i))
    root2 = np.sqrt(2.0)
    vectors[:n, p - 1] = x / root2
    vectors[n, p - 1] = 1.0 / root2     # e_p-side lightlike line
    eigenvalues[p - 1] = 1.0
    vectors[:n, p] = x / root2
    vectors[n, p] = -1.0 / root2        # ē_p-side lightlike line
    eigenvalues[p] = 1.0
    return EigenData(p=p, eigenvalues=eigenvalues, vectors=vectors,
                     form=basis.form_e)
