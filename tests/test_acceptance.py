"""Acceptance gate: ten numbered criteria, one printed pass/fail line each."""

import itertools
import math
import time

import numpy as np
import pytest

from hdgwg.assembly import (
    CoefficientField,
    ElementTables,
    assemble_hdg,
    assemble_wg,
)
from hdgwg.experiments import (
    manufactured_case,
    run_convergence_study,
    run_infsup_study,
    run_rho_limit_study,
)
from hdgwg.mesh import build_structured_mesh
from hdgwg.norms import (
    assemble_norm_gram,
    compute_error_norm,
    consistency_residual,
    dg_identity_residual,
)
from hdgwg.spaces import SpaceCase, build_space_triple

from cellwise import jittered_mesh
from test_assembly import form_oracle_fields, hdg_form_oracle, wg_form_oracle


def _report(num, ok, detail):
    print("criterion {:2d}: {} ({})".format(num, "PASS" if ok else "FAIL",
                                            detail))
    assert ok, detail


def _final_order(method, regime, rho, k=0):
    table = run_convergence_study(method, regime, k, rho, levels=5,
                                  first_level=2)
    return table.rows[-1][5]


# final observed order at levels 2-5 per k: k + 1 within these bounds
ORDER_RANGE = {0: (0.9, 1.2), 1: (1.8, 2.2)}


def _convergence_criterion(num, method, regime, rhos, max_seconds=math.inf):
    t0 = time.time()
    orders = {k: [_final_order(method, regime, rho, k) for rho in rhos]
              for k in ORDER_RANGE}
    elapsed = time.time() - t0
    ok = elapsed <= max_seconds and all(
        ORDER_RANGE[k][0] <= o <= ORDER_RANGE[k][1]
        for k in orders for o in orders[k])
    _report(num, ok, "; ".join(
        "k={}: orders {} in {}".format(
            k, ["{:.3f}".format(o) for o in orders[k]], list(ORDER_RANGE[k]))
        for k in orders) + ", {:.1f}s".format(elapsed))


def test_criterion_1_hdg_mixed_convergence():
    _convergence_criterion(1, "hdg", "rho_h", (1.0, 1e-3), max_seconds=60.0)


def test_criterion_2_hdg_primal_convergence():
    _convergence_criterion(2, "hdg", "inv", (1e-1, 1e-3))


def test_criterion_3_wg_primal_convergence():
    _convergence_criterion(3, "wg", "rho_h", (1.0, 1e-4))


def test_criterion_4_wg_mixed_convergence():
    _convergence_criterion(4, "wg", "inv", (1.0, 1e-4))


def test_criterion_5_rho_uniform_error_constants():
    prob = manufactured_case("sine")
    mesh = build_structured_mesh(16)  # level 4
    sweeps = {
        ("hdg", "rho_h"): (1.0, 1e-2, 1e-4, 1e-6),
        ("wg", "rho_h"): (1.0, 1e-2, 1e-4, 1e-6),
        ("hdg", "inv"): (1e-1, 1e-2, 1e-3, 1e-4),
        ("wg", "inv"): (1e-1, 1e-2, 1e-3, 1e-4),
    }
    from hdgwg.experiments import _solve_case

    coeff = CoefficientField(alpha=prob.alpha)
    ratios = []
    for k, ((method, regime), rhos) in itertools.product((0, 1),
                                                         sweeps.items()):
        errs = []
        tables = ElementTables(mesh, SpaceCase(method, regime, k, rhos[0]))
        for rho in rhos:
            case = SpaceCase(method, regime, k, rho)
            dofs = build_space_triple(mesh, case)
            x = _solve_case(mesh, dofs, coeff, prob.f, tables)
            ef, es = compute_error_norm(mesh, dofs, x, prob, coeff=coeff,
                                        tables=tables)
            errs.append(ef + es)
        ratios.append(max(errs) / min(errs))
    _report(5, all(r <= 5.0 for r in ratios),
            "max/min error over rho sweeps at k = 0, 1 {} <= 5".format(
                ["{:.2f}".format(r) for r in ratios]))


def test_criterion_6_hdg_primal_limit():
    table = run_rho_limit_study("hdg", 0, level=3)
    totals = [r[1] + r[2] for r in table.rows]
    ok = (table.slope >= 0.45 and all(t > 0.0 for t in totals)
          and totals[0] > totals[-1])
    _report(6, ok, "slope {:.3f} >= 0.45, distances decreasing".format(
        table.slope))


def test_criterion_7_wg_mixed_limit():
    table = run_rho_limit_study("wg", 0, level=3)
    totals = [r[1] + r[2] for r in table.rows]
    ok = (table.slope >= 0.45 and all(t > 0.0 for t in totals)
          and totals[0] > totals[-1])
    _report(7, ok, "slope {:.3f} >= 0.45, distances decreasing".format(
        table.slope))


def test_criterion_8_uniform_infsup():
    sweeps = {
        ("hdg", "rho_h"): (1.0, 1e-2, 1e-4),
        ("wg", "rho_h"): (1.0, 1e-2, 1e-4),
        ("hdg", "inv"): (1e-2, 1e-3, 1e-4),
        ("wg", "inv"): (1.0, 1e-2, 1e-4),
    }
    details = []
    ok = True
    for (method, regime), rhos in sweeps.items():
        table = run_infsup_study(method, regime, 0, rhos,
                                 levels=(1, 2, 3, 4))
        betas = [r[2] for r in table.rows]
        ratio = max(betas) / min(betas)
        ok = ok and min(betas) > 0.0 and ratio <= 10.0
        details.append("{}/{}: min {:.3f} ratio {:.2f}".format(
            method, regime, min(betas), ratio))
    _report(8, ok, "; ".join(details))


def test_criterion_9_identity_consistency_oracle():
    rng = np.random.default_rng(2024)
    mesh2 = build_structured_mesh(2)
    ok = True
    details = []

    # DG identities on 100 random discrete pairs, spread over the regimes
    worst = 0.0
    for method, regime in [("hdg", "rho_h"), ("hdg", "inv"),
                           ("wg", "rho_h"), ("wg", "inv")]:
        case = SpaceCase(method, regime, 1, 0.5)
        dofs = build_space_triple(mesh2, case)
        tables = ElementTables(mesh2, case)
        for _ in range(25):
            x = rng.standard_normal(dofs.total)
            rel = dg_identity_residual(mesh2, dofs, x, tables) / (1.0 + x @ x)
            worst = max(worst, rel)
    ok = ok and worst <= 1e-12
    details.append("dg identity {:.1e} <= 1e-12".format(worst))

    # consistency for an in-space (polynomial) exact solution
    poly = manufactured_case("poly")
    mesh4 = build_structured_mesh(4)
    worst = 0.0
    for method, regime in [("hdg", "rho_h"), ("hdg", "inv"),
                           ("wg", "rho_h"), ("wg", "inv")]:
        case = SpaceCase(method, regime, 1, 0.5)
        dofs = build_space_triple(mesh4, case)
        worst = max(worst, consistency_residual(
            mesh4, dofs, poly, tables=ElementTables(mesh4, case, 9)))
    ok = ok and worst <= 1e-10
    details.append("in-space consistency {:.1e} <= 1e-10".format(worst))

    # sine-case residual decays at order >= k+1 = 1
    sine = manufactured_case("sine")
    case = SpaceCase("hdg", "rho_h", 0, 1.0)
    res = []
    for n in (4, 8):
        mesh = build_structured_mesh(n)
        res.append(consistency_residual(mesh, build_space_triple(mesh, case),
                                        sine, ElementTables(mesh, case)))
    decay = res[0] / res[1]
    ok = ok and decay >= 2.0 ** (case.k + 1) * 0.9
    details.append("sine residual decay x{:.1f}".format(decay))

    # brute-force dense oracle on the n = 1 mesh, entrywise
    mesh1 = build_structured_mesh(1)
    coeff = CoefficientField.unit()
    worst = 0.0
    for method, regime in [("hdg", "rho_h"), ("hdg", "inv"),
                           ("wg", "rho_h"), ("wg", "inv")]:
        case = SpaceCase(method, regime, 0, 0.5)
        dofs = build_space_triple(mesh1, case)
        asm = assemble_hdg if method == "hdg" else assemble_wg
        sys_ = asm(mesh1, dofs, coeff, sine.f, ElementTables(mesh1, case))
        dense = sys_.matrix.toarray()
        oracle = hdg_form_oracle if method == "hdg" else wg_form_oracle
        fields = [form_oracle_fields(mesh1, dofs, case, x)
                  for x in np.eye(dofs.total)]
        for i in range(dofs.total):
            for j in range(i, dofs.total):
                ref = oracle(case, coeff, fields[i], fields[j])
                worst = max(worst, abs(dense[i, j] - ref))
    ok = ok and worst <= 1e-12
    details.append("assembly oracle {:.1e} <= 1e-12".format(worst))

    _report(9, ok, "; ".join(details))


def test_criterion_10_gram_cross_check():
    class Zero:
        def u(self, xy):
            return np.zeros(len(xy))

        def grad_u(self, xy):
            return np.zeros((len(xy), 2))

        p = grad_u

        def f(self, xy):
            return np.zeros(len(xy))

    rng = np.random.default_rng(7)
    zero = Zero()
    worst = 0.0
    for mesh, (method, regime) in itertools.product(
            (build_structured_mesh(2), jittered_mesh()),
            [("hdg", "rho_h"), ("hdg", "inv"), ("wg", "rho_h"), ("wg", "inv")]):
        case = SpaceCase(method, regime, 1, 0.25)
        dofs = build_space_triple(mesh, case)
        tables = ElementTables(mesh, case)
        N = assemble_norm_gram(mesh, dofs, tables)
        for _ in range(50):
            x = rng.standard_normal(dofs.total)
            ef, es = compute_error_norm(mesh, dofs, x, zero, tables)
            via_quad = math.hypot(ef, es)
            via_gram = math.sqrt(x @ (N @ x))
            worst = max(worst, abs(via_quad - via_gram) / via_gram)
    _report(10, worst <= 1e-11,
            "max relative mismatch {:.1e} <= 1e-11".format(worst))
