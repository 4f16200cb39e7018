"""Manufactured solutions and the convergence / limit / inf-sup studies."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .assembly import (
    CoefficientField,
    ElementTables,
    assemble_hdg,
    assemble_mixed_conforming,
    assemble_norm_gram,
    assemble_primal_conforming,
    assemble_wg,
)
from .linalg import min_generalized_singular_value, solve_symmetric_indefinite
from .mesh import build_structured_mesh
from .norms import (
    broken_h1_distance,
    compute_error_norm,
    flux_distance,
    scalar_l2_distance,
)
from .spaces import SpaceCase, build_space_triple

CASE_NAMES = ("sine", "poly", "varcoef")

INFSUP_DOF_LIMIT = 2000


@dataclass(frozen=True)
class ManufacturedCase:
    """Exact solution data: u with zero boundary trace, p = -alpha grad u,
    f = div p."""

    name: str
    alpha: Callable
    u: Callable
    grad_u: Callable
    p: Callable
    f: Callable


def manufactured_case(name):
    if name == "sine":
        pi = math.pi

        def u(xy):
            return np.sin(pi * xy[:, 0]) * np.sin(pi * xy[:, 1])

        def grad_u(xy):
            sx, sy = np.sin(pi * xy[:, 0]), np.sin(pi * xy[:, 1])
            cx, cy = np.cos(pi * xy[:, 0]), np.cos(pi * xy[:, 1])
            return np.column_stack([pi * cx * sy, pi * sx * cy])

        return ManufacturedCase(
            name=name,
            alpha=lambda xy: np.ones(len(xy)),
            u=u,
            grad_u=grad_u,
            p=lambda xy: -grad_u(xy),
            f=lambda xy: 2.0 * pi**2 * u(xy),
        )
    if name == "poly":

        def u(xy):
            x, y = xy[:, 0], xy[:, 1]
            return x * (1.0 - x) * y * (1.0 - y)

        def grad_u(xy):
            x, y = xy[:, 0], xy[:, 1]
            return np.column_stack(
                [(1.0 - 2.0 * x) * y * (1.0 - y), x * (1.0 - x) * (1.0 - 2.0 * y)]
            )

        return ManufacturedCase(
            name=name,
            alpha=lambda xy: np.ones(len(xy)),
            u=u,
            grad_u=grad_u,
            p=lambda xy: -grad_u(xy),
            f=lambda xy: 2.0 * (xy[:, 0] * (1.0 - xy[:, 0])
                                + xy[:, 1] * (1.0 - xy[:, 1])),
        )
    if name == "varcoef":
        pi = math.pi

        def u(xy):
            return np.sin(pi * xy[:, 0]) * np.sin(pi * xy[:, 1])

        def grad_u(xy):
            sx, sy = np.sin(pi * xy[:, 0]), np.sin(pi * xy[:, 1])
            cx, cy = np.cos(pi * xy[:, 0]), np.cos(pi * xy[:, 1])
            return np.column_stack([pi * cx * sy, pi * sx * cy])

        def alpha(xy):
            return 1.0 + xy[:, 0] * xy[:, 1]

        def f(xy):
            # f = -div(alpha grad u) = 2 pi^2 alpha u - (y u_x + x u_y)
            g = grad_u(xy)
            return (2.0 * pi**2 * alpha(xy) * u(xy)
                    - (xy[:, 1] * g[:, 0] + xy[:, 0] * g[:, 1]))

        return ManufacturedCase(
            name=name,
            alpha=alpha,
            u=u,
            grad_u=grad_u,
            p=lambda xy: -alpha(xy)[:, None] * grad_u(xy),
            f=f,
        )
    raise ValueError("unknown manufactured case {!r}".format(name))


@dataclass
class ConvergenceTable:
    header = ("level", "h", "dofs", "err_flux", "err_scalar", "order")
    rows: list = field(default_factory=list)


@dataclass
class LimitTable:
    header = ("rho", "dist_flux", "dist_scalar", "slope")
    rows: list = field(default_factory=list)
    slope: float = float("nan")


@dataclass
class InfSupTable:
    header = ("h", "rho", "beta")
    rows: list = field(default_factory=list)


def _solve_case(mesh, case, prob, tables):
    dofs = build_space_triple(mesh, case)
    coeff = CoefficientField(alpha=prob.alpha)
    assemble = assemble_hdg if case.method == "hdg" else assemble_wg
    system = assemble(mesh, dofs, case, coeff, prob.f, tables=tables)
    x = solve_symmetric_indefinite(system.matrix, system.rhs,
                                   cell_dofs=dofs.cell_local_dofs())
    return dofs, x, coeff


def run_convergence_study(method, regime, k, rho, levels=5, case_name="sine",
                          first_level=2, trace_degree=None):
    """Error norms on meshes n = 2^level for level = first_level .. levels."""
    if levels < first_level + 1:
        raise ValueError("need at least two levels for observed orders")
    prob = manufactured_case(case_name)
    case = SpaceCase(method=method, regime=regime, k=k, rho=rho,
                     trace_degree=trace_degree)
    table = ConvergenceTable()
    prev_total = None
    for level in range(first_level, levels + 1):
        mesh = build_structured_mesh(2**level)
        tables = ElementTables(mesh, case)
        dofs, x, coeff = _solve_case(mesh, case, prob, tables)
        ef, es = compute_error_norm(mesh, dofs, x, prob, coeff=coeff,
                                    tables=tables)
        total = ef + es
        order = (float("nan") if prev_total is None
                 else math.log2(prev_total / total))
        table.rows.append((level, mesh.h_max, dofs.total, ef, es, order))
        prev_total = total
    return table


def run_rho_limit_study(method, k, level=3, rhos=None, case_name="sine"):
    """Distance of the scaling_inv method to its conforming limit as rho -> 0.

    The limit method (primal for hdg, mixed for wg) has the local spaces of
    the inv regime, so one set of element tables serves both solves and
    the distances for every rho.
    """
    if rhos is None:
        rhos = [10.0**-j for j in range(1, 6)]
    prob = manufactured_case(case_name)
    mesh = build_structured_mesh(2**level)
    coeff = CoefficientField(alpha=prob.alpha)
    cases = [SpaceCase(method=method, regime="inv", k=k, rho=rho)
             for rho in rhos]
    tables = ElementTables(mesh, cases[0])
    assemble_limit = (assemble_primal_conforming if method == "hdg"
                      else assemble_mixed_conforming)
    ref_sys, ref_dofs = assemble_limit(mesh, k, coeff, prob.f, tables=tables)
    y = solve_symmetric_indefinite(ref_sys.matrix, ref_sys.rhs,
                                   cell_dofs=ref_dofs.cell_local_dofs())
    table = LimitTable()
    dists = []
    for case in cases:
        dofs, x, _ = _solve_case(mesh, case, prob, tables)
        if method == "hdg":
            df = flux_distance(mesh, dofs, x, ref_dofs, y, tables)
            ds = broken_h1_distance(mesh, dofs, x, ref_dofs, y, tables)
        else:
            df = flux_distance(mesh, dofs, x, ref_dofs, y, tables, hdiv=True)
            ds = scalar_l2_distance(mesh, dofs, x, ref_dofs, y, tables)
        dists.append(df + ds)
        table.rows.append([case.rho, df, ds, float("nan")])
    slope = float(np.polyfit(np.log(rhos), np.log(dists), 1)[0])
    table.slope = slope
    table.rows = [tuple(row[:3]) + (slope,) for row in table.rows]
    return table


def run_infsup_study(method, regime, k, rhos, levels=(1, 2, 3),
                     trace_degree=None, coeff=None):
    """Discrete inf-sup constants beta(h, rho) via dense eigensolves.

    Every instance is checked against ``INFSUP_DOF_LIMIT`` before the first
    assembly, so an oversized level fails before any eigensolve runs.
    """
    coeff = coeff or CoefficientField.unit()
    zero = lambda xy: np.zeros(len(xy))
    assemble = assemble_hdg if method == "hdg" else assemble_wg
    runs = []
    for level in levels:
        mesh = build_structured_mesh(2**level)
        instances = []
        for rho in rhos:
            case = SpaceCase(method=method, regime=regime, k=k, rho=rho,
                             trace_degree=trace_degree)
            dofs = build_space_triple(mesh, case)
            if dofs.total > INFSUP_DOF_LIMIT:
                raise ValueError(
                    "inf-sup instance at level {} has {} DOFs, over the dense "
                    "limit {}".format(level, dofs.total, INFSUP_DOF_LIMIT))
            instances.append((case, dofs))
        runs.append((mesh, instances))
    table = InfSupTable()
    for mesh, instances in runs:
        tables = None
        for case, dofs in instances:
            # rho enters through the weights only: one set of tables per mesh
            tables = tables or ElementTables(mesh, case)
            system = assemble(mesh, dofs, case, coeff, zero, tables=tables)
            gram = assemble_norm_gram(mesh, dofs, coeff=coeff, tables=tables)
            beta = min_generalized_singular_value(system.matrix, gram)
            table.rows.append((mesh.h_max, case.rho, beta))
    return table
