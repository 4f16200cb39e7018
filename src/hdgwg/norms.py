"""The norm pairs, limit distances, and consistency checks.

The four parameter-dependent norm pairs, one per method and regime, are
defined once, by the terms of ``_norm_terms``: ``gram_terms`` (the Gram of
the inf-sup study, summed by ``assembly.FormSums``) and
``compute_error_norm`` both evaluate them.

Exact solutions are duck-typed objects exposing vectorized callables
``u(xy)``, ``grad_u(xy)``, ``p(xy)`` (flux, equal to -alpha grad u) and
``f(xy)`` (equal to div p).  Everything is evaluated for all cells at once
on the ``ElementTables`` the studies assemble with, which every function
takes; ``contract`` subscripts follow ``hdgwg.assembly``.

The three distances compare two fields that share the local spaces of
``tables``, such as an inv-regime solution and its conforming limit: they
subtract the fields' per-cell coefficients and evaluate the difference
once.  The consistency residual evaluates the terms of the assembled form
(``assembly.form_terms``) on the exact fields.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

import numpy as np

from .assembly import (
    CoefficientField,
    FormSums,
    at_points,
    contract,
    edge_points,
    edge_sides,
    form_terms,
    load_vector,
    per_group,
    scatter,
)

_KIND_FOR_CASE = {("hdg", "rho_h"): "hdg_div", ("hdg", "inv"): "hdg_grad",
                  ("wg", "rho_h"): "wg_grad", ("wg", "inv"): "wg_div"}

FLUX, SCALAR = 0, 1  # the parts of a norm pair


def norm_kind_for_case(case):
    return _KIND_FOR_CASE[(case.method, case.regime)]


class _ZeroField:
    """Exact fields that all vanish: errors against them are norms."""

    u = f = staticmethod(lambda xy: np.zeros(len(xy)))
    grad_u = p = staticmethod(lambda xy: np.zeros((len(xy), 2)))


ZERO_FIELD = _ZeroField()


def _sum_of_squares(w, d):
    """sum w |d|^2 over the points of ``w``; d has a component axis last."""
    return float(np.sum(w * np.sum(d * d, axis=-1)))


def _rho(case):
    return case.rho


def _inverse_rho(case):
    return 1.0 / case.rho


def _norm_terms(mesh, dofs, tables, coeff, exact):
    """The terms of the norm pair of ``dofs.case``.

    A term ``(part, factor, w, samples, linear, scale)`` adds
    f sum scale w |samples - sum_i B_i x[D_i]|^2 to the square of ``part``,
    f = ``factor(dofs.case)``, rho or 1/rho (1 for ``factor`` None): rho
    enters only through f.  ``w``, ``scale`` and each ``(D, B)`` of
    ``linear`` follow the sides of ``assembly.form_terms``, whose group
    axes G may here also be edges, and ``samples`` is (G, q, k).  Per-side
    terms vanish on the exact solution.  Jump terms sum over trace-basis
    moments in place of points: sum_m mu_m^2 = h_e^{-1} |P_e[.]|^2_e, with
    P_e the L^2(e) projection onto the trace space.
    """
    kind = norm_kind_for_case(dofs.case)
    coeff = coeff or CoefficientField.unit()
    t = tables.check(mesh, dofs)
    pd, ud, td = dofs.flux, dofs.scalar, dofs.edge_trace[mesh.cell_edges]
    trace, h = t.trace[..., None], mesh.cell_size
    sign = mesh.cell_edge_sign[..., None]  # sigma = n_K . n_e per side

    # c |p|^2, plus |div p|^2 and |u|^2, or |grad u|^2
    yield (FLUX, None, t.w * coeff.c_at(t.xy), at_points(exact.p, t.xy),
           [(pd, t.fval)], 1.0)
    if kind in ("hdg_div", "wg_div"):
        yield (FLUX, None, t.w, at_points(exact.f, t.xy)[..., None],
               [(pd, t.fdiv[..., None])], 1.0)
        yield (SCALAR, None, t.w, at_points(exact.u, t.xy)[..., None],
               [(ud, t.sval[..., None])], 1.0)
    else:
        yield (SCALAR, None, t.w, at_points(exact.grad_u, t.xy),
               [(ud, t.sgrad)], 1.0)
    if kind == "hdg_grad":
        # (rho h_K)^{-1} |u - u-hat|^2 on each side
        yield (SCALAR, _inverse_rho, t.edge_w, 0.0,
               [(ud, t.edge_sval[..., None]), (td, -trace)], 1.0 / h)
    if kind in ("wg_grad", "wg_div"):
        # (rho h_K)^{+-1} |p.n_K - sigma p-hat|^2 = |p.n_e - p-hat|^2 per side
        factor, scale = ((_rho, h) if kind == "wg_grad"
                         else (_inverse_rho, 1.0 / h))
        yield (FLUX, factor, t.edge_w, 0.0,
               [(pd, (sign[..., None] * t.flux_n)[..., None]), (td, -trace)],
               scale)
    if kind == "hdg_div":
        # rho h_e |u-hat|^2_e, and rho^{-1} h_e^{-1} |P_e[p.n]|^2_e inside
        te = np.flatnonzero(dofs.edge_trace[:, 0] >= 0)
        h_e = mesh.edge_length[te]
        u_e = at_points(exact.u, edge_points(mesh, t.edge.points)[te])
        yield (SCALAR, _rho, np.broadcast_to(t.edge.weights, u_e.shape),
               u_e[..., None], [(dofs.edge_trace[te], trace)], h_e * h_e)
        pn = contract("clqk,clk->clq", at_points(exact.p, t.edge_xy),
                      t.normal)
        yield _jump_term(mesh, FLUX, t.moments(pn), t.moments(t.flux_n), pd,
                         mesh.interior_edges)
    if kind == "wg_grad":
        # rho^{-1} h_e^{-1} |Q_e[u]|^2_e, one-sided on the boundary
        yield _jump_term(mesh, SCALAR,
                         sign * t.moments(at_points(exact.u, t.edge_xy)),
                         sign[..., None] * t.moments(t.edge_sval), ud,
                         slice(None))


def _jump_term(mesh, part, moments, basis_moments, cell_dofs, edges):
    """rho^{-1} sum_m mu_m^2 over ``edges``: mu sums the side ``moments``
    (C, 3, m) of the exact field minus those of ``basis_moments``
    (C, 3, m, a) on ``cell_dofs``, over both sides of each edge."""
    sides = edge_sides(mesh, basis_moments, edges)
    cells = mesh.edge_cells[edges]
    dofs = np.where(cells[..., None] >= 0, cell_dofs[cells], -1)
    samples = edge_sides(mesh, moments, edges).sum(axis=1)[..., None]
    basis = np.concatenate([sides[:, 0], sides[:, 1]], axis=-1)[..., None]
    return (part, _inverse_rho, np.ones(samples.shape[:-1]), samples,
            [(dofs.reshape(len(dofs), -1), basis)], 1.0)


def gram_terms(mesh, dofs, tables, coeff):
    """The Gram of the norm pair of ``dofs.case`` in the groups of
    ``assembly.FormSums``: each pair of a norm term's linear parts is one
    bilinear term of its factor's group."""
    groups = {None: [], _rho: [], _inverse_rho: []}
    for _, factor, w, _, linear, scale in _norm_terms(mesh, dofs, tables,
                                                      coeff, ZERO_FIELD):
        groups[factor] += [(w, scale, test, trial) for test, trial in
                           combinations_with_replacement(
                               [(d, b, None) for d, b in linear], 2)]
    return [(factor, terms) for factor, terms in groups.items() if terms]


def assemble_norm_gram(mesh, dofs, tables, coeff=None, sums=None):
    """Gram matrix N of the norm pair of ``dofs.case``: x'Nx = |x|^2,
    made from a sweep's ``FormSums`` of ``gram_terms`` if given."""
    if sums is None:
        sums = FormSums(gram_terms, mesh, dofs, coeff, tables)
    return sums.matrix(gram_terms, dofs, coeff, tables)


def compute_error_norm(mesh, dofs, x, exact, tables, coeff=None):
    """Errors ``(err_flux, err_scalar)`` in the norm pair of ``dofs.case``."""
    squares = [0.0, 0.0]
    for part, factor, w, err, linear, scale in _norm_terms(
            mesh, dofs, tables, coeff, exact):
        for d, b in linear:
            # x on d, broadcast over the group axes that d lacks
            xd = np.where(d >= 0, x[d], 0.0).reshape(
                d.shape[:-1] + (1,) * (w.ndim - d.ndim) + d.shape[-1:])
            err = err - contract("...qak,...a->...qk", b, xd)
        if factor is not None:
            scale = factor(dofs.case) * scale
        squares[part] += _sum_of_squares(per_group(scale, w.ndim) * w, err)
    return float(np.sqrt(squares[FLUX])), float(np.sqrt(squares[SCALAR]))


def _cell_coefficients(dofs, x):
    """Per-cell flux (C, nf) and scalar (C, nu) basis coefficients of ``x``:
    the flux oriented by ``flux_sign``, eliminated scalar DOFs reading 0."""
    p, ud = x[dofs.flux], dofs.scalar
    if dofs.flux_sign is not None:
        p = dofs.flux_sign * p
    return p, np.where(ud >= 0, x[ud], 0.0)


def _difference(mesh, dofs_a, xa, dofs_b, xb, tables):
    """Per-cell flux and scalar coefficients of field a minus field b, which
    must share the local spaces of ``tables``."""
    tables.check(mesh, dofs_a, dofs_b)
    pa, ua = _cell_coefficients(dofs_a, xa)
    pb, ub = _cell_coefficients(dofs_b, xb)
    return pa - pb, ua - ub


def broken_h1_distance(mesh, dofs_a, xa, dofs_b, xb, tables):
    """Mesh-dependent H1 distance of two discrete scalar fields.

    ||v||^2 = sum_K |grad v|^2 + sum_e h_e^{-1} ||jump(v)||^2 over all edges,
    with the full trace as the jump on boundary edges.
    """
    t = tables
    _, du = _difference(mesh, dofs_a, xa, dofs_b, xb, t)
    total = _sum_of_squares(t.w, contract("cqbk,cb->cqk", t.sgrad, du))
    v = contract("clqb,cb->clq", t.edge_sval, du)
    jump = edge_sides(mesh, mesh.cell_edge_sign[..., None] * v).sum(axis=1)
    total += _sum_of_squares(t.edge.weights, jump[..., None])  # 1/h_e ds
    return float(np.sqrt(total))


def flux_distance(mesh, dofs_a, xa, dofs_b, xb, tables, hdiv=False):
    """L2 (or broken H(div)) distance of two discrete flux fields."""
    t = tables
    dp, _ = _difference(mesh, dofs_a, xa, dofs_b, xb, t)
    total = _sum_of_squares(t.w, contract("cqbk,cb->cqk", t.fval, dp))
    if hdiv:
        div = contract("cqb,cb->cq", t.fdiv, dp)
        total += _sum_of_squares(t.w, div[..., None])
    return float(np.sqrt(total))


def scalar_l2_distance(mesh, dofs_a, xa, dofs_b, xb, tables):
    """L2 distance of two discrete scalar fields."""
    t = tables
    _, du = _difference(mesh, dofs_a, xa, dofs_b, xb, t)
    d = contract("cqb,cb->cq", t.sval, du)
    return float(np.sqrt(_sum_of_squares(t.w, d[..., None])))


def consistency_residual(mesh, dofs, exact, tables, coeff=None):
    """Max row residual of the scheme applied to the exact solution fields.

    Each term of the assembled form pairs its test basis by quadrature with
    the exact field of its trial side, and an off-diagonal term also its
    trial basis with the exact field of its test side.  The load is
    subtracted and each row is normalized by the L2 norm of its test
    function.  For smooth exact solutions the result is dominated by
    quadrature error, and vanishes to roundoff when the integrands are
    polynomials within the rule's degree.
    """
    t = tables.check(mesh, dofs)
    r = -load_vector(dofs, t, exact.f)
    terms = [(w, scale if factor is None else factor(dofs.case) * scale,
              test, trial)
             for factor, group in form_terms(
                 mesh, dofs, t, coeff or CoefficientField.unit(), exact)
             for w, scale, test, trial in group]
    for w, scale, test, trial in terms:
        g = "ABCD"[:w.ndim - 1]
        for (rows, b, _), (_, _, samples) in (
                [(test, trial)] if test is trial
                else [(test, trial), (trial, test)]):
            out = g[:rows.ndim - 1]
            scatter(r, rows, per_group(scale, len(out) + 1) * contract(
                "{}q,{}qak,{}qk->{}a".format(g, g[:b.ndim - 3], g, out),
                w, b, samples))
    mass = np.zeros(dofs.total)
    mass[dofs.flux] = contract("cq,cqak,cqak->ca", t.w, t.fval, t.fval)
    mass[dofs.scalar] = contract("cq,cqa,cqa->ca", t.w, t.sval, t.sval)
    on = dofs.edge_trace >= 0
    mass[dofs.edge_trace[on]] = np.broadcast_to(mesh.edge_length[:, None],
                                                on.shape)[on]
    return float(np.max(np.abs(r) / np.sqrt(mass)))


def dg_identity_residual(mesh, dofs, x, tables):
    """Residual of the element-boundary pairing rewritten in jumps/averages.

    Checks sum_K <v, q.n_K> = <avg q, jump v> + <jump q, avg v> for the
    discrete scalar and flux parts of ``x``, where the scalar jump is
    vector-valued, the flux jump scalar-valued, and boundary edges carry
    the one-sided convention (the missing side counts as zero).
    """
    t = tables.check(mesh, dofs)
    xp, xu = _cell_coefficients(dofs, x)
    v = contract("clqb,cb->clq", t.edge_sval, xu)
    lhs = contract("clq,clq,clqa,ca->", t.edge_w, v, t.flux_n, xp)
    q = edge_sides(mesh, contract("clqbk,cb->clqk", t.edge_fval, xp))
    v = edge_sides(mesh, v)
    n = edge_sides(mesh, t.normal)
    w = edge_sides(mesh, t.edge_w)[:, 0]
    avg_q = 0.5 * (q[:, 0] + q[:, 1])
    jump_v = (v[:, 0, :, None] * n[:, 0, None, :]
              + v[:, 1, :, None] * n[:, 1, None, :])
    jump_q = (contract("eqk,ek->eq", q[:, 0], n[:, 0])
              + contract("eqk,ek->eq", q[:, 1], n[:, 1]))
    avg_v = 0.5 * (v[:, 0] + v[:, 1])
    rhs = (contract("eq,eqk,eqk->", w, avg_q, jump_v)
           + contract("eq,eq,eq->", w, jump_q, avg_v))
    return abs(lhs - rhs)
