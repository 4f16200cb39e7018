"""Parameter-dependent error norms, limit distances, and consistency checks.

Exact solutions are duck-typed objects exposing vectorized callables
``u(xy)``, ``grad_u(xy)``, ``p(xy)`` (flux, equal to -alpha grad u) and
``f(xy)`` (equal to div p).  Every quantity is evaluated for all cells at
once on the batched tables of ``hdgwg.assembly``; einsum subscripts follow
that module.
"""

from __future__ import annotations

import numpy as np

from . import basis
from .assembly import (
    CoefficientField,
    ElementTables,
    MixedDofMap,
    PrimalDofMap,
    at_points,
    edge_points,
    edge_sides,
    flux_basis,
    norm_kind_for_case,
    scalar_basis,
    side_points,
    volume_rule,
)
from .spaces import DofMap

NORM_KINDS = ("hdg_div", "hdg_grad", "wg_grad", "wg_div")


def _scalar_part(dofs, x):
    """Degree and per-cell basis coefficients (C, nb) of the scalar field."""
    if isinstance(dofs, DofMap):
        return dofs.case.scalar_degree, x[dofs.cell_scalar_dofs()]
    if isinstance(dofs, PrimalDofMap):
        g = dofs.scalar_l2g
        return dofs.degree, np.where(g >= 0, x[dofs.flux_total + np.maximum(g, 0)],
                                     0.0)
    if isinstance(dofs, MixedDofMap):
        return dofs.k, x[dofs.cell_scalar_dofs()]
    raise TypeError("unsupported DOF map {!r}".format(type(dofs).__name__))


def _flux_part(dofs, x):
    """Family, degree and per-cell coefficients (C, nb) of the flux field."""
    if isinstance(dofs, DofMap):
        case = dofs.case
        return case.flux_family, case.flux_degree, x[dofs.cell_flux_dofs()]
    if isinstance(dofs, MixedDofMap):
        return "rt", dofs.k, dofs.flux_sign * x[dofs.flux_l2g]
    if isinstance(dofs, PrimalDofMap):
        return "vec", dofs.k, x[dofs.cell_flux_dofs()]
    raise TypeError("unsupported DOF map {!r}".format(type(dofs).__name__))


def _scalar_field(mesh, dofs, x, pts):
    """Scalar field of a solution vector at reference points ``pts`` of every
    cell (see ``scalar_basis``): values (C, ...) and gradients (C, ..., 2)."""
    degree, coeffs = _scalar_part(dofs, x)
    vals, grads = scalar_basis(mesh, degree, pts)
    return (np.einsum("c...b,cb->c...", vals, coeffs),
            np.einsum("c...bk,cb->c...k", grads, coeffs))


def _flux_field(mesh, dofs, x, pts):
    """Flux field of a solution vector at reference points ``pts`` of every
    cell: values (C, ..., 2) and divergences (C, ...)."""
    family, degree, coeffs = _flux_part(dofs, x)
    vals, divs = flux_basis(mesh, family, degree, pts)
    return (np.einsum("c...bk,cb->c...k", vals, coeffs),
            np.einsum("c...b,cb->c...", divs, coeffs))


def _default_degree(case, quad_degree):
    if quad_degree is not None:
        return quad_degree
    return min(2 * case.scalar_degree + 3, basis.MAX_QUADRATURE_DEGREE)


def _coefficients(mesh, dofs, x):
    """Flux (C,nf), scalar (C,nu) and per-side trace (C,3,nt) coefficients of
    ``x``; zero traces where an edge carries none."""
    td = dofs.edge_trace_dofs(mesh.cell_edges)
    return (x[dofs.cell_flux_dofs()], x[dofs.cell_scalar_dofs()],
            np.where(td >= 0, x[td], 0.0))


def compute_error_norm(mesh, dofs, x, exact, rho, coeff=None, quad_degree=None):
    """Errors of (flux, scalar) in the norm pair of the space regime.

    Returns ``(err_flux, err_scalar)``.
    """
    case = dofs.case
    kind = norm_kind_for_case(case)
    coeff = coeff or CoefficientField.unit()
    t = ElementTables(mesh, case, _default_degree(case, quad_degree))
    xp, xu, xt = _coefficients(mesh, dofs, x)
    ep = at_points(exact.p, t.xy) - np.einsum("cqbk,cb->cqk", t.fval, xp)
    flux2 = np.einsum("cq,cqk,cqk->", t.w * coeff.c_at(t.xy), ep, ep)
    if kind in ("hdg_div", "wg_div"):
        edp = at_points(exact.f, t.xy) - np.einsum("cqb,cb->cq", t.fdiv, xp)
        flux2 += np.einsum("cq,cq,cq->", t.w, edp, edp)
        eu = at_points(exact.u, t.xy) - np.einsum("cqb,cb->cq", t.sval, xu)
        scal2 = np.einsum("cq,cq,cq->", t.w, eu, eu)
    else:
        egu = (at_points(exact.grad_u, t.xy)
               - np.einsum("cqbk,cb->cqk", t.sgrad, xu))
        scal2 = np.einsum("cq,cqk,cqk->", t.w, egu, egu)

    h = mesh.cell_size[:, None, None]
    hat = np.einsum("qt,clt->clq", t.trace, xt)
    if kind == "hdg_grad":
        d = hat - np.einsum("clqb,cb->clq", t.edge_sval, xu)
        scal2 += np.einsum("clq,clq,clq->", t.edge_w / (rho * h), d, d)
    if kind in ("wg_grad", "wg_div"):
        coef = rho * h if kind == "wg_grad" else 1.0 / (rho * h)
        sign = mesh.cell_edge_sign[..., None]
        pex = at_points(exact.p, t.edge_xy)
        pn_e = np.einsum("clqk,clk->clq", pex, mesh.edge_normal[mesh.cell_edges])
        pn_K = np.einsum("clqk,clk->clq", pex, t.normal)
        ph_n = np.einsum("clqa,ca->clq", t.flux_n, xp)
        d = (pn_K - ph_n) - sign * (pn_e - hat)
        flux2 += np.einsum("clq,clq,clq->", coef * t.edge_w, d, d)

    if kind == "hdg_div":
        # scalar trace error rho h_e <u - u_hat, u - u_hat>
        te = dofs.trace_edges
        h_e = mesh.edge_length[te][:, None]
        d = (at_points(exact.u, edge_points(mesh, t.edge.points)[te])
             - x[dofs.edge_trace_dofs(te)] @ t.trace.T)
        scal2 += rho * np.einsum("eq,eq,eq->", h_e * h_e * t.edge.weights, d, d)
        # projected normal-jump error rho^{-1} h_e^{-1} <P[p - p_h], P[p - p_h]>
        d = (np.einsum("clqk,clk->clq", at_points(exact.p, t.edge_xy), t.normal)
             - np.einsum("clqa,ca->clq", t.flux_n, xp))
        mu = edge_sides(mesh, t.moments(d), mesh.interior_edges).sum(axis=1)
        flux2 += np.sum(mu * mu) / rho
    if kind == "wg_grad":
        # projected scalar-jump error rho^{-1} h_e^{-1} |Q[u - u_h]|^2
        d = (at_points(exact.u, t.edge_xy)
             - np.einsum("clqb,cb->clq", t.edge_sval, xu))
        moments = mesh.cell_edge_sign[..., None] * t.moments(d)
        mu = edge_sides(mesh, moments).sum(axis=1)
        scal2 += np.sum(mu * mu) / rho
    return float(np.sqrt(flux2)), float(np.sqrt(scal2))


def broken_h1_distance(mesh, dofs_a, xa, dofs_b, xb, quad_degree=None):
    """Mesh-dependent H1 distance of two discrete scalar fields.

    ||v||^2 = sum_K |grad v|^2 + sum_e h_e^{-1} ||jump(v)||^2 over all edges,
    with the full trace as the jump on boundary edges.
    """
    qd = quad_degree if quad_degree is not None else basis.MAX_QUADRATURE_DEGREE
    tri = basis.tri_quadrature(qd)
    eq = basis.edge_quadrature(qd)
    _, ga = _scalar_field(mesh, dofs_a, xa, tri.xy)
    _, gb = _scalar_field(mesh, dofs_b, xb, tri.xy)
    d = ga - gb
    total = np.einsum("cq,cqk,cqk->", volume_rule(mesh, tri)[0], d, d)
    pts = side_points(mesh, eq.points)
    va, _ = _scalar_field(mesh, dofs_a, xa, pts)
    vb, _ = _scalar_field(mesh, dofs_b, xb, pts)
    jump = edge_sides(mesh, mesh.cell_edge_sign[..., None] * (va - vb)).sum(axis=1)
    total += np.einsum("q,eq,eq->", eq.weights, jump, jump)  # 1/h_e cancels ds = h_e ds_param
    return float(np.sqrt(total))


def flux_distance(mesh, dofs_a, xa, dofs_b, xb, hdiv=False, quad_degree=None):
    """L2 (or broken H(div)) distance of two discrete flux fields."""
    qd = quad_degree if quad_degree is not None else basis.MAX_QUADRATURE_DEGREE
    tri = basis.tri_quadrature(qd)
    w = volume_rule(mesh, tri)[0]
    va, da = _flux_field(mesh, dofs_a, xa, tri.xy)
    vb, db = _flux_field(mesh, dofs_b, xb, tri.xy)
    d = va - vb
    total = np.einsum("cq,cqk,cqk->", w, d, d)
    if hdiv:
        dd = da - db
        total += np.einsum("cq,cq,cq->", w, dd, dd)
    return float(np.sqrt(total))


def scalar_l2_distance(mesh, dofs_a, xa, dofs_b, xb, quad_degree=None):
    """L2 distance of two discrete scalar fields."""
    qd = quad_degree if quad_degree is not None else basis.MAX_QUADRATURE_DEGREE
    tri = basis.tri_quadrature(qd)
    va, _ = _scalar_field(mesh, dofs_a, xa, tri.xy)
    vb, _ = _scalar_field(mesh, dofs_b, xb, tri.xy)
    d = va - vb
    return float(np.sqrt(np.einsum("cq,cq,cq->", volume_rule(mesh, tri)[0], d, d)))


def _scatter(r, dofs, values):
    """r[dofs] += values, summing repeated DOFs and skipping negative ones."""
    keep = dofs >= 0
    np.add.at(r, dofs[keep], values[keep])


def consistency_residual(mesh, dofs, exact, coeff=None, quad_degree=None):
    """Max row residual of the scheme applied to the exact solution fields.

    Each test basis function is paired by quadrature with the exact
    (flux, scalar, trace) fields; the load is subtracted and each row is
    normalized by the L2 norm of its test function.  For smooth exact
    solutions the result is dominated by quadrature error, and vanishes to
    roundoff when the integrands are polynomials within the rule's degree.
    """
    case = dofs.case
    coeff = coeff or CoefficientField.unit()
    t = ElementTables(mesh, case, _default_degree(case, quad_degree))
    pd, ud = dofs.cell_flux_dofs(), dofs.cell_scalar_dofs()
    td = dofs.edge_trace_dofs(mesh.cell_edges)
    r = np.zeros(dofs.total)
    scale = np.zeros(dofs.total)
    w = t.w
    pex = at_points(exact.p, t.xy)
    scale[pd] += np.einsum("cq,cqak,cqak->ca", w, t.fval, t.fval)
    scale[ud] += np.einsum("cq,cqa,cqa->ca", w, t.sval, t.sval)
    scale[dofs.edge_trace_dofs(dofs.trace_edges)] = (
        mesh.edge_length[dofs.trace_edges][:, None])
    pex_e = at_points(exact.p, t.edge_xy)
    pn_K = np.einsum("clqk,clk->clq", pex_e, t.normal)
    uex_e = at_points(exact.u, t.edge_xy)
    r[pd] += np.einsum("cq,cqk,cqak->ca", w * coeff.c_at(t.xy), pex, t.fval)
    if case.method == "hdg":
        r[pd] -= np.einsum("cq,cqa->ca", w * at_points(exact.u, t.xy), t.fdiv)
        # rows v reduce to ((f - div p), v) which vanishes pointwise
        r[pd] += np.einsum("clq,clqa->ca", t.edge_w * uex_e, t.flux_n)
        # c_h rows with exact u - u_hat = 0 on every edge
        _scatter(r, td, t.edge_mass(pn_K))
    else:
        r[pd] += np.einsum("cq,cqk,cqak->ca", w, at_points(exact.grad_u, t.xy),
                           t.fval)
        r[ud] += np.einsum("cq,cqk,cqbk->cb", w, pex, t.sgrad)
        r[ud] += np.einsum("cq,cqb->cb", w * at_points(exact.f, t.xy), t.sval)
        eta = case.stabilization(mesh.cell_size)[:, None, None]
        sign = mesh.cell_edge_sign[..., None]
        pn_e = np.einsum("clqk,clk->clq", pex_e,
                         mesh.edge_normal[mesh.cell_edges])
        # stabilization with exact p-hat = p.n_e vanishes pointwise
        stab = pn_K - sign * pn_e
        r[pd] += np.einsum("clq,clqa->ca", eta * t.edge_w * stab, t.flux_n)
        r[ud] -= np.einsum("clq,clqb->cb", t.edge_w * (sign * pn_e), t.edge_sval)
        _scatter(r, td, -sign * t.edge_mass(uex_e))
        _scatter(r, td, -eta * sign * t.edge_mass(stab))
    return float(np.max(np.abs(r) / np.sqrt(scale)))


def dg_identity_residual(mesh, dofs, x, quad_degree=None):
    """Residual of the element-boundary pairing rewritten in jumps/averages.

    Checks sum_K <v, q.n_K> = <avg q, jump v> + <jump q, avg v> for the
    discrete scalar and flux parts of ``x``, where the scalar jump is
    vector-valued, the flux jump scalar-valued, and boundary edges carry
    the one-sided convention (the missing side counts as zero).
    """
    case = dofs.case
    t = ElementTables(mesh, case, _default_degree(case, quad_degree))
    xp, xu, _ = _coefficients(mesh, dofs, x)
    v = np.einsum("clqb,cb->clq", t.edge_sval, xu)
    lhs = np.einsum("clq,clq,clqa,ca->", t.edge_w, v, t.flux_n, xp)
    q = edge_sides(mesh, np.einsum("clqbk,cb->clqk", t.edge_fval, xp))
    v = edge_sides(mesh, v)
    n = edge_sides(mesh, t.normal)
    w = edge_sides(mesh, t.edge_w)[:, 0]
    avg_q = 0.5 * (q[:, 0] + q[:, 1])
    jump_v = (v[:, 0, :, None] * n[:, 0, None, :]
              + v[:, 1, :, None] * n[:, 1, None, :])
    jump_q = (np.einsum("eqk,ek->eq", q[:, 0], n[:, 0])
              + np.einsum("eqk,ek->eq", q[:, 1], n[:, 1]))
    avg_v = 0.5 * (v[:, 0] + v[:, 1])
    rhs = (np.einsum("eq,eqk,eqk->", w, avg_q, jump_v)
           + np.einsum("eq,eq,eq->", w, jump_q, avg_v))
    return abs(lhs - rhs)
