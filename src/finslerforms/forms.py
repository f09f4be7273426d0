"""Horizontal p-forms on the sphere bundle and their differential operators.

Forms are represented extensionally: a :class:`HorizontalForm` carries a
coefficient evaluator over the slit tangent bundle, and every operator
returns a new form whose evaluator composes the machinery at whatever point
(or batch of points, or jet) it is asked for.  A form built by an operator
of this module evaluates on the :class:`LocalTower` it is handed
(:attr:`HorizontalForm.on`), so a caller that holds a tower, such as a
quadrature grid with its cached tower, computes each connection layer once
for all the forms it evaluates there.  Grids enter only through the
quadrature module.

Differentiation.  An operator takes the partials of the form or vector
field it acts on from ``tower.partials(field.on)`` (:meth:`LocalTower.partials`),
by the kernel rules of :mod:`.connection`: a field of x alone
(:meth:`HorizontalForm.of_x`, ``TensorField.from_vector``: every built-in
and seeded one) takes one x pass, any field where N vanishes the x pass
alone, and the rest the passes of :func:`jets.grad_xy`, on a lifted tower
whose N, Gamma, g and nabla0T are jets of the parent's cached values and
partials.  So on a tower that already holds those partials, as a warm
grid tower does, differentiating a form evaluates no F^2 at all.
Second covariant derivatives (:func:`cov_hh`) take the form's kernel
``form.on`` and differentiate nabla phi the same way, so they too read only
cached layers when phi is a leaf form.  A layer component that vanishes
identically is the structural zero ``0.0`` on the tower (see
:mod:`.connection`), and the kernels here skip the terms it multiplies.

Conventions.  A degree-p form is handed around as nested lists over all
n^p index tuples, but its C(n, p) entries at increasing indices
i1 < ... < ip are the only independent ones.  The operator kernels compute
those alone, and the horizontal derivative delta_c under d_H and delta_H
only at the increasing entries they read; :func:`form_build` fills the rest
by the sign of the permutation, with ``0.0`` at repeated indices.  The
horizontal differential is the plain (p+1)-term alternation of the
covariant derivative with no factorial prefactor, which is that of delta_c,
as the Gamma terms cancel in it (Gamma^i_jk = Gamma^i_kj).  The
co-differential contracts delta_c and the form with the tower's cached
Gamma_trace, Gamma_raised and nabla0T_raised, summing each entry's
products by :func:`connection.sum_products`, whose outer-product pairs
(a factor constant along the fiber times one constant along the base)
stay factored until they are integrated or read (:class:`connection.OuterSum`),
and so does |nabla X|^2 of the Bochner integrals.  The pointwise inner product
is the Gram determinant sum over increasing indices, which equals the full
contraction with weight 1/p! (see :func:`inner_coeffs`); the global inner
product of :mod:`.quadrature` takes the same terms, with the same minors
(:func:`inverse_minor`), but integrates each at the shapes of its factors
rather than summing them at every node first.  Under these
choices the differential and co-differential are numerically adjoint with
respect to the sphere-bundle inner product, which is the invariant the
test suite pins down.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import chain, combinations, product
from typing import Callable

from . import connection, jets
from .connection import (
    BaseKernel,
    LocalTower,
    TensorField,
    along_y,
    cov_h,
    cov_hh,
    cov_v,
    is_structural_zero,
    nested_build,
    pack,
    require_vector_field,
    sum_products,
    sum_terms,
    tget,
    tower_at,
)
from .curvature import ricci_components
from .errors import (
    DegreeMismatch,
    DegreeOverflow,
    DegreeUnderflow,
)
from .metric import TensorValue


@dataclass(frozen=True, eq=False)
class HorizontalForm:
    """Antisymmetric coefficient field phi_{i1..ip}(x, y) of a horizontal form.

    ``coeffs(xs, ys)`` returns nested lists over p component axes (a bare
    scalar for p = 0) and must accept jets, so operators can differentiate
    through it.  ``on(tower)`` returns the same coefficients at a tower's
    point.  A form built by an operator of this module holds a ``kernel``
    (tower -> coefficients) and evaluates on the tower it is handed, reusing
    the layers that tower has cached; its ``coeffs`` runs the kernel on a
    fresh tower.  A form built by :meth:`of_x` holds a :class:`BaseKernel`.
    """

    degree: int
    coeffs: Callable
    label: str = ""
    kernel: Callable | None = None

    @classmethod
    def of_x(cls, degree, fn, label=""):
        """The form whose coefficients ``fn(xs)`` read the base point x alone;
        its kernel is a :class:`BaseKernel`."""
        return cls(degree, lambda xs, ys: fn(xs), label=label, kernel=BaseKernel(fn))

    @property
    def on(self):
        """The kernel tower -> coefficients at the tower's point: ``kernel``,
        or ``coeffs`` at the tower's coordinates."""
        if self.kernel is not None:
            return self.kernel
        return lambda tower: self.coeffs(tower.xs, tower.ys)

    def at(self, s, z):
        """Packed coefficient array at a single validated point, on the tower
        of ``tower_at``: two operators at one point, such as the composed and
        the expanded Laplacian, share its layers."""
        return TensorValue(pack(self.on(tower_at(s, z)), self.degree), "l" * self.degree)


def _operator_form(s, degree, kernel, label):
    """Form whose coefficients are ``kernel`` at a tower of ``s``."""
    return HorizontalForm(
        degree, lambda xs, ys: kernel(LocalTower(s, xs, ys)), label=label, kernel=kernel
    )


# -- operator kernels (work at any tower: pointwise, batched or jet-valued) ----


def form_build(n, p, fn):
    """Antisymmetric nested coefficients of a degree-p form from ``fn(idx)``.

    ``fn`` is called once per increasing index i1 < ... < ip.  An index with
    a repeated entry gets the float ``0.0``; a permutation of an increasing
    index gets ``v`` or ``-v`` by the parity of the permutation.
    """
    vals = {idx: fn(idx) for idx in combinations(range(n), p)}

    def entry(idx):
        v = vals.get(tuple(sorted(idx)))
        if v is None:
            return 0.0
        odd = sum(a > b for k, a in enumerate(idx) for b in idx[k + 1 :]) % 2
        return -v if odd else v

    return nested_build(n, p, entry)


def dH_coeffs(tower: LocalTower, phi: HorizontalForm):
    """Horizontal differential, degree p -> p + 1: the alternation
    (d_H phi)_{i0..ip} = sum_k (-1)^k (delta_{i_k} phi)_{..i_k omitted..} of
    delta_c (``connection._delta_entry``).  The Gamma terms of the covariant
    derivative cancel in it, since Gamma^i_jk = Gamma^i_kj."""
    _, dx, dy = tower.partials(phi.on)
    delta = connection._delta_entry(tower, dx, dy)
    zero = is_structural_zero

    def terms(idx, parity):
        for k in range(parity, len(idx), 2):
            t = delta(idx[k], idx[:k] + idx[k + 1 :])
            if not zero(t):
                yield t

    def entry(idx):
        # the even terms minus the odd ones, so that no term is negated alone
        plus, minus = sum_terms(terms(idx, 0)), sum_terms(terms(idx, 1))
        return plus if zero(minus) else plus - minus

    return form_build(tower.n, phi.degree + 1, entry)


def deltaH_coeffs(tower: LocalTower, psi: HorizontalForm):
    """Horizontal co-differential, degree q -> q - 1, contracted through the
    tower's layers gamma^p = g^ij Gamma^p_ij (``Gamma_trace``), R^pj_k =
    g^ij Gamma^p_ki (``Gamma_raised``) and T^j = g^ij (nabla_0 T)_i
    (``nabla0T_raised``):

        -(delta_H psi)_I = g^ij (delta_i psi)_jI - psi_pI gamma^p
                           - sum_t psi_{j, I[t->p]} R^pj_{I_t} - psi_jI T^j.

    Only j outside ``I`` contribute to the first term; ``(j,) + I`` is the
    increasing index J with j moved to its front from slot k, so its delta_c
    entries (memoized: J serves q of the I) are (-1)^k times those at J.
    Every term is a pair of factors, and the pairs of each entry are summed
    by :func:`connection.sum_products` in two groups, those added to
    delta_H psi and those subtracted: no pair with a structural-zero factor
    is formed, and where one factor is constant along the fiber and the
    other along the base, as g^ij and delta_c of a form of x alone are on an
    x-independent metric, the pairs are one :class:`connection.OuterSum`,
    which an integral contracts without a product over the nodes.
    """
    n = tower.n
    val, dx, dy = tower.partials(psi.on)
    delta = functools.cache(connection._delta_entry(tower, dx, dy))
    gi, ndim = tower.gi, tower.outer_ndim

    def traced(I, parity):
        # (g^ij, (delta_i psi)_J) over the j whose slot in J has this parity
        for j in range(n):
            if j not in I:
                J = tuple(sorted((j,) + I))
                if J.index(j) % 2 == parity:
                    yield from ((gi[i][j], delta(i, J)) for i in range(n))

    def corrections(I):
        gamma, T = tower.Gamma_trace, tower.nabla0T_raised
        for p in range(n):
            v = tget(val, (p,) + I)
            yield from ((v, gamma[p]), (v, T[p]))
        for t, k in enumerate(I):  # R only where q >= 2
            R = tower.Gamma_raised
            for p in range(n):
                sub = I[:t] + (p,) + I[t + 1 :]
                yield from ((tget(val, (j,) + sub), R[p][j][k]) for j in range(n) if j != p)

    def entry(I):
        return sum_products(chain(corrections(I), traced(I, 1)), traced(I, 0), n, ndim)

    return form_build(n, psi.degree - 1, entry)


def laplacian_expansion_coeffs(tower: LocalTower, phi: HorizontalForm):
    """Expanded horizontal Laplacian: second covariant derivatives, trace
    corrections from the Cartan trace, and its covariant derivative."""
    n = tower.n
    p = phi.degree
    # D[a][b][I] = nabla_a nabla_b phi_I
    (val, _, _), nab, D = cov_hh(tower, phi.on, "l" * p)
    gi = tower.gi
    nT = tower.nabla0T
    nnT = tower.nabla_nabla0T  # nnT[i][r] = nabla_i (nabla_0 T)_r

    def trace(idx, r, s_):
        d = tget(D[r][s_], idx)
        if not is_structural_zero(nT[r]):
            d = d - tget(nab[s_], idx) * nT[r]
        return gi[r][s_] * d

    def entry(idx):
        out = -sum_terms(trace(idx, r, s_) for r in range(n) for s_ in range(n))
        for k in range(p):
            ik = idx[k]
            for r in range(n):
                for s_ in range(n):
                    sub = idx[:k] + (s_,) + idx[k + 1 :]
                    out = out + gi[r][s_] * (tget(D[r][ik], sub) - tget(D[ik][r], sub))
                    if not is_structural_zero(nnT[ik][r]):
                        out = out + gi[r][s_] * tget(val, sub) * nnT[ik][r]
        return out

    return form_build(n, p, entry)


def inner_coeffs(tower: LocalTower, a, b, degree):
    """Pointwise inner product of same-degree coefficient pytrees.

    <a, b> = sum over increasing I and J of a_I b_J det(g^{IJ}), where g^{IJ}
    is the minor of the inverse metric on rows I and columns J.  For
    antisymmetric a and b this equals the full contraction
    (1/p!) a_{i1..ip} b_{j1..jp} g^{i1j1} ... g^{ipjp}: the p! orderings of
    I and the p! of J each appear in that sum, and their signed products of
    g^{ij} add up to p! det(g^{IJ}).
    """
    if degree == 0:
        return a * b
    gi = tower.gi
    combos = list(combinations(range(tower.n), degree))
    return sum_terms(
        (tget(a, I) * tget(b, J)) * inverse_minor(gi, I, J) for I in combos for J in combos
    )


def inverse_minor(gi, rows, cols):
    """det(g^{IJ}), the minor of the inverse metric ``gi`` on ``rows`` and
    ``cols``, by cofactor expansion along the first row; 1.0 for p = 0."""
    if not rows:
        return 1.0
    first, rest = rows[0], rows[1:]
    if not rest:
        return gi[first][cols[0]]
    terms = (
        gi[first][c] * inverse_minor(gi, rest, cols[:k] + cols[k + 1 :]) for k, c in enumerate(cols)
    )
    return sum_terms(-t if k % 2 else t for k, t in enumerate(terms))


# -- public operators ---------------------------------------------------------


def horizontal_differential(s, phi: HorizontalForm) -> HorizontalForm:
    if phi.degree >= s.dim:
        raise DegreeOverflow(f"cannot raise degree {phi.degree} in dimension {s.dim}")
    return _operator_form(
        s, phi.degree + 1, lambda tw: dH_coeffs(tw, phi), f"dH({phi.label})"
    )


def horizontal_codifferential(s, psi: HorizontalForm) -> HorizontalForm:
    if psi.degree < 1:
        raise DegreeUnderflow("co-differential needs degree >= 1")
    return _operator_form(
        s, psi.degree - 1, lambda tw: deltaH_coeffs(tw, psi), f"deltaH({psi.label})"
    )


def horizontal_laplacian(s, omega: HorizontalForm) -> HorizontalForm:
    """Laplacian as the anticommutator of differential and co-differential."""
    p = omega.degree
    parts = []
    if p < s.dim:
        parts.append(horizontal_codifferential(s, horizontal_differential(s, omega)))
    if p >= 1:
        parts.append(horizontal_differential(s, horizontal_codifferential(s, omega)))

    def kernel(tower):
        vals = [part.on(tower) for part in parts]
        out = vals[0]
        for v in vals[1:]:
            out = _tree_add(out, v)
        return out

    return _operator_form(s, p, kernel, f"laplacian({omega.label})")


def _tree_add(a, b):
    if isinstance(a, list):
        return [_tree_add(x, y) for x, y in zip(a, b)]
    return a + b


def laplacian_expansion(s, phi: HorizontalForm) -> HorizontalForm:
    """The expanded Laplacian as an independent evaluator; must agree with
    the composed operator, which the test suite verifies degree by degree."""
    return _operator_form(
        s, phi.degree, lambda tw: laplacian_expansion_coeffs(tw, phi),
        f"laplacian_exp({phi.label})",
    )


def pointwise_inner(tower: LocalTower, phi: HorizontalForm, psi: HorizontalForm):
    if phi.degree != psi.degree:
        raise DegreeMismatch(f"degrees {phi.degree} and {psi.degree} differ")
    a = phi.on(tower)
    b = psi.on(tower)
    return float(jets.primal(inner_coeffs(tower, a, b, phi.degree)))


# -- vector fields and their associated forms ----------------------------------


@dataclass(frozen=True, eq=False)
class AssociatedForm:
    """Horizontal and vertical parts of the 1-form associated to a vector field."""

    horizontal: HorizontalForm
    vertical: Callable  # tower -> list of lowered vertical components


def lowered_form(s, X: TensorField, label="") -> HorizontalForm:
    """The 1-form X_i = g_ij X^j, read off the metric of the tower at hand."""
    require_vector_field(X, "lowered form needs")
    return _operator_form(s, 1, lambda tw: tw.lower(X.on(tw)), label)


def associate_one_form(s, X: TensorField) -> AssociatedForm:
    """Horizontal part g_ij X^j; vertical part (g_ij nabla_0 X^j - y_i (y_j nabla_0 X^j)
    / F^2) / F, which is (nabla_0 X_i - y_i nabla_0 (y_j X^j) / F^2) / F since the
    connection is h-metrical and nabla y = 0."""
    require_vector_field(X, "associated form needs")
    horizontal = lowered_form(s, X, label=f"assoc({X.label})")

    def vertical(tw):
        n = tw.n
        nab0X = along_y(tw, cov_h(tw, *tw.partials(X.on), "u"), 1)
        nab0w = sum_terms(tw.y_lower[j] * nab0X[j] for j in range(n))
        invF = jets._reciprocal(tw.F)
        invF2 = invF * invF
        low = tw.lower(nab0X)
        return [(low[i] - tw.y_lower[i] * nab0w * invF2) * invF for i in range(n)]

    return AssociatedForm(horizontal=horizontal, vertical=vertical)


def weitzenbock_residual(tower: LocalTower, X: TensorField):
    """Second-order identity satisfied by the associated horizontal form.

    Returns the lower-index residual whose components equal minus the
    horizontal Laplacian of the associated form; agreement is enforced by
    the test suite rather than assumed here.
    """
    n = tower.n
    low = lowered_form(tower.s, X)
    (val, _, _), nab, D = cov_hh(tower, low.on, "l")
    gi = tower.gi
    nT = tower.nabla0T
    nnT = tower.nabla_nabla0T
    ricci = ricci_components(tower)
    flag = tower.flag

    Xv, _, dy = X.partials(tower.xs, tower.ys)
    # vt[t][r] = vertical derivative of X^r
    vt = cov_v(tower, Xv, dy, "u")

    out = []
    for i in range(n):
        acc = sum_terms(
            gi[r][s_] * (D[r][s_][i] - nab[s_][i] * nT[r])
            for r in range(n)
            for s_ in range(n)
        )
        acc = acc - sum_terms(Xv[t] * ricci[t][i] for t in range(n))
        acc = acc + sum_terms(vt[t][r] * flag[t][r][i] for t in range(n) for r in range(n))
        acc = acc - sum_terms(Xv[r] * nnT[i][r] for r in range(n))
        out.append(acc)
    return TensorValue(pack(out, 1), "l")


def bochner_scalar_at(tower: LocalTower, X: TensorField):
    """Curvature quadratic form classifying harmonic vector fields,

        K = Ric_tk X^k X^t - X^k (nabla^v_r X^j) R^r_jk - X^k (nabla_k X^j) (nabla_0 T)_j,

    with nabla^v_r the vertical covariant derivative and R^r_jk the flag
    curvature.  A term whose Ricci, flag or nabla_0 T factor is the
    structural zero is not formed, and the vertical or horizontal
    derivative of X is taken only where a term it feeds is left: on an
    x-independent metric, where all three vanish, K is the structural zero.
    """
    require_vector_field(X, "bochner scalar needs")
    n, zero = tower.n, is_structural_zero
    ricci = ricci_components(tower)
    flag = tower.flag
    nT = tower.nabla0T
    pairs = [(k, t) for k in range(n) for t in range(n) if not zero(ricci[t][k])]
    flags = [(k, r, j) for k in range(n) for r in range(n) for j in range(n)
             if not zero(flag[r][j][k])]
    trace = [(k, j) for k in range(n) for j in range(n) if not zero(nT[j])]
    if not (pairs or flags or trace):
        return 0.0
    val, dx, dy = X.partials(tower.xs, tower.ys)
    acc = sum_terms(val[k] * val[t] * ricci[t][k] for k, t in pairs)
    if flags:
        vt = cov_v(tower, val, dy, "u")
        acc = acc - sum_terms(val[k] * vt[r][j] * flag[r][j][k] for k, r, j in flags)
    if trace:
        nabU = cov_h(tower, val, dx, dy, "u")  # nabU[k][j] = nabla_k X^j
        acc = acc - sum_terms(val[k] * nabU[k][j] * nT[j] for k, j in trace)
    return acc


def _g_norm2(tower, A):
    """A_ij A^ij of a covariant 2-tensor, both slots raised by g^-1."""
    n, gi = tower.n, tower.gi

    def up(i, j):
        return sum_terms(gi[i][a] * gi[j][b] * A[a][b] for a in range(n) for b in range(n))

    return sum_terms(A[i][j] * up(i, j) for i in range(n) for j in range(n))


def gradient_norm_squared_at(tower: LocalTower, X: TensorField):
    """|nabla X|^2 = g^ia g_kl nabla_i X^k nabla_a X^l, the squared norm of the
    horizontal covariant derivative of the lowered field (by h-metricity
    nabla_i X_j = g_jk nabla_i X^k).  Each term is the pair (g^ia g_kl,
    nabla_i X^k nabla_a X^l), summed by :func:`connection.sum_products`:
    where g is constant along the base and nabla X along the fiber, as for
    a field of x alone on an x-independent metric, the sum is one
    :class:`connection.OuterSum`."""
    require_vector_field(X, "gradient norm needs")
    n, g, gi = tower.n, tower.g, tower.gi
    nab = cov_h(tower, *tower.partials(X.on), "u")  # nab[i][k] = nabla_i X^k
    pairs = (
        (gi[i][a] * g[k][l], nab[i][k] * nab[a][l])
        for i, a, k, l in product(range(n), repeat=4)
    )
    return sum_products(pairs, (), n, tower.outer_ndim)


def transport_form(s, X: TensorField) -> HorizontalForm:
    """The 1-form Z - Y, where Y = X^k nabla_k X_i dx^i and Z = X_i nabla_j X^j dx^i.

    By h-metricity nabla_k X_i = g_ij nabla_k X^j, so its coefficients are
    g_ij (X^j div X - X^k nabla_k X^j), read off nabla X on the tower at hand.
    """
    require_vector_field(X, "transport form needs")
    n = s.dim

    def kernel(tw):
        val, dx, dy = tw.partials(X.on)
        nabU = cov_h(tw, val, dx, dy, "u")
        div = sum_terms(nabU[j][j] for j in range(n))
        V = [val[j] * div - sum_terms(val[k] * nabU[k][j] for k in range(n)) for j in range(n)]
        return tw.lower(V)

    return _operator_form(s, 1, kernel, f"transport({X.label})")


def energy_identity_residuals(s, X: TensorField, z):
    """Residuals of the two pointwise identities behind the Bochner argument.

    The first compares the co-differential of the transport form with its
    expansion; the second checks the quarter-norm identity relating the
    alternated derivative to the full gradient.  Both are zero analytically;
    the returned values measure end-to-end numerical consistency of the
    covariant derivative stack.
    """
    tower = tower_at(s, z)
    n = tower.n
    dW = jets.primal(deltaH_coeffs(tower, transport_form(s, X)))
    dX = jets.primal(deltaH_coeffs(tower, lowered_form(s, X, label="X")))

    # D2U[a][b][j] = nabla_a nabla_b X^j
    (uval, _, _), nabU, D2U = cov_hh(tower, X.on, "u")
    divX = sum_terms(nabU[j][j] for j in range(n))
    comm = sum_terms(
        uval[k] * (D2U[j][k][j] - D2U[k][j][j]) for k in range(n) for j in range(n)
    )
    cross = sum_terms(nabU[j][k] * nabU[k][j] for j in range(n) for k in range(n))
    tterm = sum_terms(
        uval[k] * nabU[k][j] * tower.nabla0T[j] for k in range(n) for j in range(n)
    )
    r1 = dW - jets.primal(divX * dX + comm + cross - tterm)

    # quarter-norm identity for the alternated derivative
    nabL = [tower.lower(row) for row in nabU]
    anti = [[nabL[i][j] - nabL[j][i] for j in range(n)] for i in range(n)]
    dH_norm2 = 0.25 * _g_norm2(tower, anti)
    r2 = jets.primal(cross - _g_norm2(tower, nabL) + 2.0 * dH_norm2)
    return float(r1), float(r2)
