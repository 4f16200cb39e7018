"""Parameter-dependent error norms, limit distances, and consistency checks.

Exact solutions are duck-typed objects exposing vectorized callables
``u(xy)``, ``grad_u(xy)``, ``p(xy)`` (flux, equal to -alpha grad u) and
``f(xy)`` (equal to div p).  Every quantity is evaluated for all cells at
once on an ``ElementTables`` of ``hdgwg.assembly``, the same one the
studies assemble with; ``contract`` subscripts follow that module.  Functions
that take ``tables=None`` build the tables of ``dofs.case`` under the one
quadrature rule.

The three distances compare two fields that share the local spaces of
``tables``, such as an inv-regime solution and its conforming limit: they
subtract the fields' per-cell coefficients (``cell_coefficients`` of each
DOF map) and evaluate the difference once.
"""

from __future__ import annotations

import numpy as np

from .assembly import (
    CoefficientField,
    at_points,
    checked_tables,
    contract,
    edge_points,
    edge_sides,
    norm_kind_for_case,
)


def compute_error_norm(mesh, dofs, x, exact, coeff=None, tables=None):
    """Errors of (flux, scalar) in the norm pair of ``dofs.case``: its
    regime's norm kind at its rho.

    Returns ``(err_flux, err_scalar)``.
    """
    kind, rho = norm_kind_for_case(dofs.case), dofs.case.rho
    coeff = coeff or CoefficientField.unit()
    t = checked_tables(mesh, dofs, tables)
    xp, xu = dofs.cell_coefficients(x)
    td = dofs.edge_trace_dofs(mesh.cell_edges)
    xt = np.where(td >= 0, x[td], 0.0)
    ep = at_points(exact.p, t.xy) - contract("cqbk,cb->cqk", t.fval, xp)
    flux2 = contract("cq,cqk,cqk->", t.w * coeff.c_at(t.xy), ep, ep)
    if kind in ("hdg_div", "wg_div"):
        edp = at_points(exact.f, t.xy) - contract("cqb,cb->cq", t.fdiv, xp)
        flux2 += contract("cq,cq,cq->", t.w, edp, edp)
        eu = at_points(exact.u, t.xy) - contract("cqb,cb->cq", t.sval, xu)
        scal2 = contract("cq,cq,cq->", t.w, eu, eu)
    else:
        egu = (at_points(exact.grad_u, t.xy)
               - contract("cqbk,cb->cqk", t.sgrad, xu))
        scal2 = contract("cq,cqk,cqk->", t.w, egu, egu)

    h = mesh.cell_size[:, None, None]
    hat = contract("qt,clt->clq", t.trace, xt)
    if kind == "hdg_grad":
        d = hat - contract("clqb,cb->clq", t.edge_sval, xu)
        scal2 += contract("clq,clq,clq->", t.edge_w / (rho * h), d, d)
    if kind in ("wg_grad", "wg_div"):
        coef = rho * h if kind == "wg_grad" else 1.0 / (rho * h)
        sign = mesh.cell_edge_sign[..., None]
        pex = at_points(exact.p, t.edge_xy)
        pn_e = contract("clqk,clk->clq", pex, mesh.edge_normal[mesh.cell_edges])
        pn_K = contract("clqk,clk->clq", pex, t.normal)
        ph_n = contract("clqa,ca->clq", t.flux_n, xp)
        d = (pn_K - ph_n) - sign * (pn_e - hat)
        flux2 += contract("clq,clq,clq->", coef * t.edge_w, d, d)

    if kind == "hdg_div":
        # scalar trace error rho h_e <u - u_hat, u - u_hat>
        te = dofs.trace_edges
        h_e = mesh.edge_length[te][:, None]
        d = (at_points(exact.u, edge_points(mesh, t.edge.points)[te])
             - x[dofs.edge_trace_dofs(te)] @ t.trace.T)
        scal2 += rho * contract("eq,eq,eq->", h_e * h_e * t.edge.weights, d, d)
        # projected normal-jump error rho^{-1} h_e^{-1} <P[p - p_h], P[p - p_h]>
        d = (contract("clqk,clk->clq", at_points(exact.p, t.edge_xy), t.normal)
             - contract("clqa,ca->clq", t.flux_n, xp))
        mu = edge_sides(mesh, t.moments(d), mesh.interior_edges).sum(axis=1)
        flux2 += np.sum(mu * mu) / rho
    if kind == "wg_grad":
        # projected scalar-jump error rho^{-1} h_e^{-1} |Q[u - u_h]|^2
        d = (at_points(exact.u, t.edge_xy)
             - contract("clqb,cb->clq", t.edge_sval, xu))
        moments = mesh.cell_edge_sign[..., None] * t.moments(d)
        mu = edge_sides(mesh, moments).sum(axis=1)
        scal2 += np.sum(mu * mu) / rho
    return float(np.sqrt(flux2)), float(np.sqrt(scal2))


def _difference(mesh, dofs_a, xa, dofs_b, xb, tables):
    """Per-cell flux and scalar coefficients of field a minus field b, which
    must share the local spaces of ``tables``."""
    tables.check(mesh, dofs_a, dofs_b)
    pa, ua = dofs_a.cell_coefficients(xa)
    pb, ub = dofs_b.cell_coefficients(xb)
    return pa - pb, ua - ub


def broken_h1_distance(mesh, dofs_a, xa, dofs_b, xb, tables):
    """Mesh-dependent H1 distance of two discrete scalar fields.

    ||v||^2 = sum_K |grad v|^2 + sum_e h_e^{-1} ||jump(v)||^2 over all edges,
    with the full trace as the jump on boundary edges.
    """
    t = tables
    _, du = _difference(mesh, dofs_a, xa, dofs_b, xb, t)
    d = contract("cqbk,cb->cqk", t.sgrad, du)
    total = contract("cq,cqk,cqk->", t.w, d, d)
    v = contract("clqb,cb->clq", t.edge_sval, du)
    jump = edge_sides(mesh, mesh.cell_edge_sign[..., None] * v).sum(axis=1)
    total += contract("q,eq,eq->", t.edge.weights, jump, jump)  # 1/h_e cancels ds = h_e ds_param
    return float(np.sqrt(total))


def flux_distance(mesh, dofs_a, xa, dofs_b, xb, tables, hdiv=False):
    """L2 (or broken H(div)) distance of two discrete flux fields."""
    t = tables
    dp, _ = _difference(mesh, dofs_a, xa, dofs_b, xb, t)
    d = contract("cqbk,cb->cqk", t.fval, dp)
    total = contract("cq,cqk,cqk->", t.w, d, d)
    if hdiv:
        dd = contract("cqb,cb->cq", t.fdiv, dp)
        total += contract("cq,cq,cq->", t.w, dd, dd)
    return float(np.sqrt(total))


def scalar_l2_distance(mesh, dofs_a, xa, dofs_b, xb, tables):
    """L2 distance of two discrete scalar fields."""
    t = tables
    _, du = _difference(mesh, dofs_a, xa, dofs_b, xb, t)
    d = contract("cqb,cb->cq", t.sval, du)
    return float(np.sqrt(contract("cq,cq,cq->", t.w, d, d)))


def _scatter(r, dofs, values):
    """r[dofs] += values, summing repeated DOFs and skipping negative ones."""
    keep = dofs >= 0
    np.add.at(r, dofs[keep], values[keep])


def consistency_residual(mesh, dofs, exact, coeff=None, tables=None):
    """Max row residual of the scheme applied to the exact solution fields.

    Each test basis function is paired by quadrature with the exact
    (flux, scalar, trace) fields; the load is subtracted and each row is
    normalized by the L2 norm of its test function.  For smooth exact
    solutions the result is dominated by quadrature error, and vanishes to
    roundoff when the integrands are polynomials within the rule's degree.
    """
    case = dofs.case
    coeff = coeff or CoefficientField.unit()
    t = checked_tables(mesh, dofs, tables)
    pd, ud = dofs.cell_flux_dofs(), dofs.cell_scalar_dofs()
    td = dofs.edge_trace_dofs(mesh.cell_edges)
    r = np.zeros(dofs.total)
    scale = np.zeros(dofs.total)
    w = t.w
    pex = at_points(exact.p, t.xy)
    scale[pd] += contract("cq,cqak,cqak->ca", w, t.fval, t.fval)
    scale[ud] += contract("cq,cqa,cqa->ca", w, t.sval, t.sval)
    scale[dofs.edge_trace_dofs(dofs.trace_edges)] = (
        mesh.edge_length[dofs.trace_edges][:, None])
    pex_e = at_points(exact.p, t.edge_xy)
    pn_K = contract("clqk,clk->clq", pex_e, t.normal)
    uex_e = at_points(exact.u, t.edge_xy)
    r[pd] += contract("cq,cqk,cqak->ca", w * coeff.c_at(t.xy), pex, t.fval)
    if case.method == "hdg":
        r[pd] -= contract("cq,cqa->ca", w * at_points(exact.u, t.xy), t.fdiv)
        # rows v reduce to ((f - div p), v) which vanishes pointwise
        r[pd] += contract("clq,clqa->ca", t.edge_w * uex_e, t.flux_n)
        # c_h rows with exact u - u_hat = 0 on every edge
        _scatter(r, td, t.edge_mass(pn_K))
    else:
        r[pd] += contract("cq,cqk,cqak->ca", w, at_points(exact.grad_u, t.xy),
                          t.fval)
        r[ud] += contract("cq,cqk,cqbk->cb", w, pex, t.sgrad)
        r[ud] += contract("cq,cqb->cb", w * at_points(exact.f, t.xy), t.sval)
        eta = case.stabilization(mesh.cell_size)[:, None, None]
        sign = mesh.cell_edge_sign[..., None]
        pn_e = contract("clqk,clk->clq", pex_e,
                        mesh.edge_normal[mesh.cell_edges])
        # stabilization with exact p-hat = p.n_e vanishes pointwise
        stab = pn_K - sign * pn_e
        r[pd] += contract("clq,clqa->ca", eta * t.edge_w * stab, t.flux_n)
        r[ud] -= contract("clq,clqb->cb", t.edge_w * (sign * pn_e), t.edge_sval)
        _scatter(r, td, -sign * t.edge_mass(uex_e))
        _scatter(r, td, -eta * sign * t.edge_mass(stab))
    return float(np.max(np.abs(r) / np.sqrt(scale)))


def dg_identity_residual(mesh, dofs, x, tables=None):
    """Residual of the element-boundary pairing rewritten in jumps/averages.

    Checks sum_K <v, q.n_K> = <avg q, jump v> + <jump q, avg v> for the
    discrete scalar and flux parts of ``x``, where the scalar jump is
    vector-valued, the flux jump scalar-valued, and boundary edges carry
    the one-sided convention (the missing side counts as zero).
    """
    t = checked_tables(mesh, dofs, tables)
    xp, xu = dofs.cell_coefficients(x)
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
