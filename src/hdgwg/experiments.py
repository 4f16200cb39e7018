"""Manufactured solutions, the convergence / limit / inf-sup studies and
the self-check.

This is the one layer that builds a discretization: the studies choose
the meshes, DOF maps and element tables, and every system of the six
methods is solved from its element matrices by ``_solve_case``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .assembly import (
    CoefficientField,
    ElementSums,
    ElementTables,
    FormSums,
    assemble_hdg,
    assemble_mixed_conforming,
    assemble_primal_conforming,
    assemble_wg,
    cell_dofs,
    form_terms,
    load_vector,
)
from .linalg import (
    SingularMatrixError,
    min_generalized_singular_value,
    solve_element_system,
    solve_symmetric_indefinite,
    write_matrix,
)
from .mesh import build_structured_mesh
from .norms import (
    ZERO_FIELD,
    assemble_norm_gram,
    broken_h1_distance,
    compute_error_norm,
    consistency_residual,
    dg_identity_residual,
    flux_distance,
    gram_terms,
    scalar_l2_distance,
)
from .spaces import SpaceCase, build_space_triple, mixed_dofs, primal_dofs

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


def _sine_u(xy):
    return np.sin(math.pi * xy[:, 0]) * np.sin(math.pi * xy[:, 1])


def _sine_grad_u(xy):
    pi = math.pi
    sx, sy = np.sin(pi * xy[:, 0]), np.sin(pi * xy[:, 1])
    cx, cy = np.cos(pi * xy[:, 0]), np.cos(pi * xy[:, 1])
    return np.column_stack([pi * cx * sy, pi * sx * cy])


def manufactured_case(name):
    """Exact data of ``name``: "sine" (u = sin(pi x) sin(pi y), alpha = 1),
    "poly" (u = x(1-x)y(1-y), alpha = 1) or "varcoef" (sine's u with
    alpha = 1 + xy)."""
    pi = math.pi
    if name == "sine":
        return ManufacturedCase(
            name=name,
            alpha=lambda xy: np.ones(len(xy)),
            u=_sine_u,
            grad_u=_sine_grad_u,
            p=lambda xy: -_sine_grad_u(xy),
            f=lambda xy: 2.0 * pi**2 * _sine_u(xy),
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

        def alpha(xy):
            return 1.0 + xy[:, 0] * xy[:, 1]

        def f(xy):
            # f = -div(alpha grad u) = 2 pi^2 alpha u - (y u_x + x u_y)
            g = _sine_grad_u(xy)
            return (2.0 * pi**2 * alpha(xy) * _sine_u(xy)
                    - (xy[:, 1] * g[:, 0] + xy[:, 0] * g[:, 1]))

        return ManufacturedCase(
            name=name,
            alpha=alpha,
            u=_sine_u,
            grad_u=_sine_grad_u,
            p=lambda xy: -alpha(xy)[:, None] * _sine_grad_u(xy),
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


def _assemble(mesh, dofs, coeff, f, tables, sums=None):
    """The assembled system of the method of ``dofs``, any of the six, for
    the inf-sup pencils, ``--dump-matrix`` and the self-check.  The
    assembler is looked up by name at each call, so a replaced module
    attribute (a tracer's wrapper, say) is the one that runs."""
    assemble = {"hdg": assemble_hdg, "wg": assemble_wg,
                "primal": assemble_primal_conforming,
                "mixed": assemble_mixed_conforming}[dofs.method]
    return assemble(mesh, dofs, coeff, f, tables, sums)


def _solve_case(mesh, dofs, coeff, f, tables, sums=None, dump=None):
    """Solution of the method of ``dofs`` with load ``f``, solved from its
    element matrices, made from a rho sweep's ``ElementSums`` if given.
    If ``dump`` names a file, the assembled system is written there as
    coordinate text; it is assembled for that alone.  A one-shot solve
    makes its element matrices in place of its sums."""
    if dump:
        with open(dump, "w") as fh:
            write_matrix(_assemble(mesh, dofs, coeff, f, tables).matrix, fh)
    if sums is None:
        stack = ElementSums(mesh, dofs, coeff, tables).stack(
            dofs, coeff, tables, last=True)
    else:
        stack = sums.stack(dofs, coeff, tables)
    return solve_element_system(stack, cell_dofs(mesh, dofs),
                                load_vector(dofs, tables, f),
                                dofs.cell_blocks)


@contextmanager
def _failure_at(stage, *args, errors=SingularMatrixError):
    """Raise the ``errors`` of the block as SingularMatrixError named by
    ``stage.format(*args)``, so that a study's numerical failure says
    where it struck."""
    try:
        yield
    except errors as exc:
        raise SingularMatrixError("{}: {}".format(stage.format(*args),
                                                  exc)) from exc


def run_convergence_study(method, regime, k, rho, levels=5, case_name="sine",
                          first_level=2, trace_degree=None, dump_matrix=None):
    """Error norms on meshes n = 2^level for level = first_level .. levels.

    If ``dump_matrix`` names a file, the first level's system is assembled
    and written there (``linalg.write_matrix``); the solve does not use it.
    """
    if levels < first_level + 1:
        raise ValueError("need at least two levels for observed orders")
    prob = manufactured_case(case_name)
    coeff = CoefficientField(alpha=prob.alpha)
    case = SpaceCase(method=method, regime=regime, k=k, rho=rho,
                     trace_degree=trace_degree)
    table = ConvergenceTable()
    prev_total = None
    for level in range(first_level, levels + 1):
        mesh = build_structured_mesh(2**level)
        tables = ElementTables(mesh, case)
        dofs = build_space_triple(mesh, case)
        with _failure_at("converge at level {}, rho = {!r}", level, rho):
            x = _solve_case(mesh, dofs, coeff, prob.f, tables,
                            dump=dump_matrix if level == first_level else None)
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
    the distances for every rho, and one ``ElementSums`` every rho's
    system.
    The slope is fitted to log-log distance over rho, so ``rhos`` must hold
    at least two distinct positive values.
    """
    rhos = [10.0**-j for j in range(1, 6)] if rhos is None else list(rhos)
    if not all(rho > 0.0 for rho in rhos):
        raise ValueError("every rho must be positive, got {}".format(rhos))
    if len(set(rhos)) < 2:
        raise ValueError("the limit slope needs at least two distinct rhos, "
                         "got {}".format(rhos))
    prob = manufactured_case(case_name)
    mesh = build_structured_mesh(2**level)
    coeff = CoefficientField(alpha=prob.alpha)
    cases = [SpaceCase(method=method, regime="inv", k=k, rho=rho)
             for rho in rhos]
    tables = ElementTables(mesh, cases[0])
    ref_dofs = (primal_dofs if method == "hdg" else mixed_dofs)(mesh, k)
    with _failure_at("limit at level {}, {} solve", level, ref_dofs.method):
        y = _solve_case(mesh, ref_dofs, coeff, prob.f, tables)
    rows = []
    sums = None
    for case in cases:
        dofs = build_space_triple(mesh, case)
        sums = sums or ElementSums(mesh, dofs, coeff, tables)
        with _failure_at("limit at level {}, rho = {!r}", level, case.rho):
            x = _solve_case(mesh, dofs, coeff, prob.f, tables, sums)
        if method == "hdg":
            df = flux_distance(mesh, dofs, x, ref_dofs, y, tables)
            ds = broken_h1_distance(mesh, dofs, x, ref_dofs, y, tables)
        else:
            df = flux_distance(mesh, dofs, x, ref_dofs, y, tables, hdiv=True)
            ds = scalar_l2_distance(mesh, dofs, x, ref_dofs, y, tables)
        rows.append((case.rho, df, ds))
    slope = float(np.polyfit(np.log(rhos),
                             np.log([df + ds for _, df, ds in rows]), 1)[0])
    return LimitTable(rows=[row + (slope,) for row in rows], slope=slope)


def run_infsup_study(method, regime, k, rhos, levels=(1, 2, 3),
                     trace_degree=None):
    """Discrete inf-sup constants beta(h, rho), with the unit coefficient.

    Each eigensolve starts from a guess: the previous level's beta at the
    same rho, else the previous rho's beta on this level.  Once two levels
    have a beta at this rho, their relative change is passed with it as the
    guess's expected error.  A Gram matrix that is not SPD, or a failed
    eigensolve, raises SingularMatrixError naming the level and rho: the
    study built both matrices, so either is a numerical failure.
    """
    if len(rhos) == 0 or len(levels) == 0:
        raise ValueError("empty inf-sup sweep: rhos {}, levels {}".format(
            list(rhos), list(levels)))
    coeff = CoefficientField.unit()
    table = InfSupTable()
    previous = {}  # rho -> betas of the levels so far
    for level in levels:
        mesh = build_structured_mesh(2**level)
        instances = [build_space_triple(mesh, SpaceCase(
            method=method, regime=regime, k=k, rho=rho,
            trace_degree=trace_degree)) for rho in rhos]
        # rho enters as a factor of term groups only: one set of tables,
        # and one FormSums for the systems and one for the Grams, per mesh
        tables = ElementTables(mesh, instances[0].case)
        form, norm = (FormSums(terms, mesh, instances[0], coeff, tables)
                      for terms in (form_terms, gram_terms))
        guess = None
        for dofs in instances:
            rho = dofs.case.rho
            system = _assemble(mesh, dofs, coeff, ZERO_FIELD.f, tables, form)
            gram = assemble_norm_gram(mesh, dofs, coeff=coeff, tables=tables,
                                      sums=norm)
            betas = previous.setdefault(rho, [])
            guess = betas[-1] if betas else guess
            change = (abs(betas[-1] - betas[-2]) / betas[-1]
                      if len(betas) > 1 else None)
            with _failure_at("inf-sup at level {}, rho = {!r}", level, rho,
                             errors=(ValueError, SingularMatrixError)):
                beta = min_generalized_singular_value(
                    system.matrix, gram, guess=guess, guess_rtol=change)
            betas.append(beta)
            guess = beta
            table.rows.append((mesh.h_max, rho, beta))
    return table


def run_self_check(seed):
    """Rows ``(name, value, bound)`` of the internal identities, each to hold
    as value <= bound, for the four regimes at k = 1, rho = 0.5 on the
    level-2 mesh: the jump/average decomposition of random vectors drawn
    with ``seed``, the consistency of the scheme on the polynomial exact
    solution, the Gram matrix against the quadrature norm, and the
    studies' element solve against the matrix solver on the assembled
    system."""
    rng = np.random.default_rng(seed)
    mesh = build_structured_mesh(4)
    prob = manufactured_case("poly")
    coeff = CoefficientField(alpha=prob.alpha)
    rows = []
    for method in ("hdg", "wg"):
        for regime in ("rho_h", "inv"):
            name = "{}/{}".format(method, regime)
            case = SpaceCase(method=method, regime=regime, k=1, rho=0.5)
            dofs = build_space_triple(mesh, case)
            tables = ElementTables(mesh, case)
            x = rng.standard_normal(dofs.total)
            scale = max(1.0, np.linalg.norm(x) ** 2)
            rows.append(("dg identity " + name,
                         dg_identity_residual(mesh, dofs, x, tables) / scale,
                         1e-12))
            # degree 9 integrates the polynomial exact solution's terms exactly
            rows.append(("consistency " + name, consistency_residual(
                mesh, dofs, prob, tables=ElementTables(mesh, case, 9)), 1e-10))
            gram = assemble_norm_gram(mesh, dofs, tables=tables)
            via_quad = math.hypot(*compute_error_norm(mesh, dofs, x,
                                                      ZERO_FIELD, tables=tables))
            via_gram = math.sqrt(x @ (gram @ x))
            rows.append(("gram cross-check " + name,
                         abs(via_quad - via_gram) / via_gram, 1e-11))
            system = _assemble(mesh, dofs, coeff, prob.f, tables)
            assembled = solve_symmetric_indefinite(
                system.matrix, system.rhs, cell_blocks=dofs.cell_blocks)
            element = _solve_case(mesh, dofs, coeff, prob.f, tables)
            rows.append(("element solve vs assembled solve " + name,
                         np.linalg.norm(element - assembled)
                         / np.linalg.norm(assembled), 1e-10))
    return rows
