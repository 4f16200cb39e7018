import math

import numpy as np
import pytest

from hdgwg import assembly, cli, experiments
from hdgwg.experiments import (
    manufactured_case,
    run_convergence_study,
    run_infsup_study,
    run_rho_limit_study,
)
from hdgwg.mesh import build_structured_mesh
from hdgwg.spaces import SpaceCase, build_space_triple


def test_sine_case_values():
    prob = manufactured_case("sine")
    mid = np.array([[0.5, 0.5]])
    assert abs(prob.u(mid)[0] - 1.0) < 1e-15
    assert abs(prob.f(mid)[0] - 2.0 * math.pi**2) < 1e-12
    assert np.allclose(prob.grad_u(mid), 0.0, atol=1e-15)


def test_poly_case_values():
    prob = manufactured_case("poly")
    mid = np.array([[0.5, 0.5]])
    assert abs(prob.u(mid)[0] - 1.0 / 16.0) < 1e-15
    assert abs(prob.f(mid)[0] - 1.0) < 1e-15


@pytest.mark.parametrize("name", ["sine", "poly", "varcoef"])
def test_exact_solution_boundary_and_flux(name):
    prob = manufactured_case(name)
    s = np.linspace(0.0, 1.0, 17)
    z = np.zeros_like(s)
    o = np.ones_like(s)
    for xy in (np.column_stack([s, z]), np.column_stack([s, o]),
               np.column_stack([z, s]), np.column_stack([o, s])):
        assert np.max(np.abs(prob.u(xy))) < 1e-14
    rng = np.random.default_rng(2)
    pts = rng.random((30, 2))
    # p = -alpha grad u everywhere
    ref = -prob.alpha(pts)[:, None] * prob.grad_u(pts)
    assert np.max(np.abs(prob.p(pts) - ref)) < 1e-13


@pytest.mark.parametrize("name", ["sine", "poly", "varcoef"])
def test_load_is_divergence_of_flux(name):
    # central-difference check of f = div p at random interior points
    prob = manufactured_case(name)
    rng = np.random.default_rng(14)
    pts = 0.1 + 0.8 * rng.random((100, 2))
    eps = 1e-5
    ex = np.array([eps, 0.0])
    ey = np.array([0.0, eps])
    divp = (
        (prob.p(pts + ex)[:, 0] - prob.p(pts - ex)[:, 0])
        + (prob.p(pts + ey)[:, 1] - prob.p(pts - ey)[:, 1])
    ) / (2.0 * eps)
    assert np.max(np.abs(prob.f(pts) - divp)) < 1e-5


def test_gradient_matches_finite_difference():
    prob = manufactured_case("varcoef")
    rng = np.random.default_rng(6)
    pts = 0.1 + 0.8 * rng.random((50, 2))
    eps = 1e-6
    ex = np.array([eps, 0.0])
    ey = np.array([0.0, eps])
    fd = np.column_stack([
        (prob.u(pts + ex) - prob.u(pts - ex)) / (2 * eps),
        (prob.u(pts + ey) - prob.u(pts - ey)) / (2 * eps),
    ])
    assert np.max(np.abs(fd - prob.grad_u(pts))) < 1e-9


def test_unknown_case_raises():
    with pytest.raises(ValueError):
        manufactured_case("gaussian")


def test_convergence_table_structure():
    table = run_convergence_study("hdg", "rho_h", 0, 1.0, levels=3,
                                  first_level=1)
    assert table.header == ("level", "h", "dofs", "err_flux", "err_scalar",
                            "order")
    assert len(table.rows) == 3
    levels = [r[0] for r in table.rows]
    assert levels == [1, 2, 3]
    hs = [r[1] for r in table.rows]
    assert all(abs(hs[i] / hs[i + 1] - 2.0) < 1e-12 for i in range(2))
    assert math.isnan(table.rows[0][5])
    # first-order method: observed orders settle near 1
    for row in table.rows[1:]:
        assert 0.5 < row[5] < 1.5
    dofs = [r[2] for r in table.rows]
    assert dofs == sorted(dofs) and dofs[0] < dofs[-1]


def test_convergence_needs_two_levels():
    with pytest.raises(ValueError):
        run_convergence_study("hdg", "rho_h", 0, 1.0, levels=2, first_level=2)


def test_limit_study_decreases_with_rho():
    table = run_rho_limit_study("wg", 0, level=2, rhos=[1e-1, 1e-2, 1e-3])
    assert table.header == ("rho", "dist_flux", "dist_scalar", "slope")
    totals = [r[1] + r[2] for r in table.rows]
    assert totals[0] > totals[1] > totals[2]
    assert table.slope > 0.3
    assert all(r[3] == table.slope for r in table.rows)
    with pytest.raises(ValueError):
        run_rho_limit_study("dg", 0)


@pytest.mark.parametrize("rhos,message", [
    ([], "at least two distinct rhos"),
    ([0.1], "at least two distinct rhos"),
    ([0.1, 0.1], "at least two distinct rhos"),
    ([0.1, 0.0], "must be positive"),
    ([0.1, -1e-2], "must be positive"),
    ([0.1, float("nan")], "must be positive"),
])
def test_limit_study_needs_two_positive_rhos(rhos, message):
    # the slope is a log-log fit: it needs two distinct points, rho > 0
    with pytest.raises(ValueError, match=message):
        run_rho_limit_study("wg", 0, level=1, rhos=rhos)


def test_infsup_study_positive_betas():
    table = run_infsup_study("hdg", "rho_h", 0, rhos=[1.0, 1e-2],
                             levels=(1, 2))
    assert len(table.rows) == 4
    for h, rho, beta in table.rows:
        assert beta > 0.0


def test_infsup_guess_is_the_previous_level_else_the_previous_rho(
        monkeypatch):
    # each eigensolve starts from the beta nearest to it: the same rho one
    # level down, else the rho before it on the same level.  Its expected
    # error is the relative change of beta over the two levels below at the
    # same rho, None until two exist
    calls = []

    def recording(A, N, guess=None, guess_rtol=None):
        calls.append((A.shape[0], guess, guess_rtol))
        return float(len(calls))

    monkeypatch.setattr(experiments, "min_generalized_singular_value",
                        recording)
    table = run_infsup_study("wg", "rho_h", 0, rhos=[1.0, 1e-2, 1e-4],
                             levels=(1, 2, 3))
    assert [beta for _, _, beta in table.rows] == list(range(1, 10))
    assert [guess for _, guess, _ in calls] == [None, 1, 2, 1, 2, 3, 4, 5, 6]
    assert [rtol for _, _, rtol in calls] == [None] * 6 + [3 / 4, 3 / 5,
                                                           3 / 6]


@pytest.mark.parametrize("method", ["hdg", "wg"])
def test_limit_sweep_does_its_rho_free_work_once(method, monkeypatch):
    # the conforming limit and the sweep each build one ElementSums; the
    # sweep sums its unit and stabilization groups once, and every rho's
    # element matrices are then its one-shot ones, to the bit, and exactly
    # symmetric
    counts = {"structure": 0, "sums": 0}
    element_sums = assembly.ElementSums._sum

    def counted_sums(self, mesh, dofs, groups):
        out = element_sums(self, mesh, dofs, groups)
        counts["structure"] += 1
        counts["sums"] += len(out)
        return out

    monkeypatch.setattr(assembly.ElementSums, "_sum", counted_sums)
    solved = []
    solve = experiments.solve_element_system

    def recording(stacks, cell_dofs, rhs, cell_blocks, cell_leaf):
        solved.append(stacks)
        return solve(stacks, cell_dofs, rhs, cell_blocks, cell_leaf)

    monkeypatch.setattr(experiments, "solve_element_system", recording)
    rhos = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5]
    run_rho_limit_study(method, 1, level=2, rhos=rhos)
    assert counts == {"structure": 2, "sums": 3}
    mesh = build_structured_mesh(4)
    prob = manufactured_case("sine")
    coeff = assembly.CoefficientField(alpha=prob.alpha)
    assert len(solved) == 1 + len(rhos)
    for rho, stack in zip(rhos, solved[1:]):
        case = SpaceCase(method, "inv", 1, rho)
        dofs = build_space_triple(mesh, case)
        tables = assembly.ElementTables(mesh, case)
        one_shot = assembly.ElementSums(mesh, dofs, coeff, tables).stack(
            dofs, coeff, tables, last=True)
        for other in (one_shot, stack.transpose(0, 2, 1)):
            assert np.array_equal(stack, other)


def test_studies_sort_no_triplets_but_for_a_dump(monkeypatch, tmp_path):
    # convergence and limit solves start from element matrices: only
    # --dump-matrix assembles a system, and so sorts its triplets
    def refused(n, groups):
        raise AssertionError("triplet sort")

    monkeypatch.setattr(assembly, "_sorted_sums", refused)
    for method, regime in (("hdg", "rho_h"), ("hdg", "inv"),
                           ("wg", "rho_h"), ("wg", "inv")):
        run_convergence_study(method, regime, 1, 0.1, levels=3)
    for method in ("hdg", "wg"):
        run_rho_limit_study(method, 1, level=2)
    with pytest.raises(AssertionError, match="triplet sort"):
        run_convergence_study("hdg", "inv", 1, 0.1, levels=3,
                              dump_matrix=str(tmp_path / "a.txt"))


def test_one_element_tables_per_mesh_and_space(monkeypatch, tmp_path):
    # the solve, the limit method, the Gram, the error norm, the distances
    # and the matrix dump all share the tables of their mesh
    built = []
    init = assembly.ElementTables.__init__

    def counting(self, mesh, case, quad_degree=None):
        built.append(mesh.num_cells)
        init(self, mesh, case, quad_degree)

    monkeypatch.setattr(assembly.ElementTables, "__init__", counting)
    run_convergence_study("hdg", "inv", 1, 0.1, levels=4)
    assert built == [32, 128, 512]
    for method in ("hdg", "wg"):
        built.clear()
        run_rho_limit_study(method, 1, level=2)
        assert built == [32]
    built.clear()
    run_infsup_study("wg", "rho_h", 0, rhos=[1.0, 1e-2], levels=(1, 2))
    assert built == [8, 32]
    built.clear()
    rc = cli.main(["converge", "--method", "hdg", "--regime", "inv",
                   "--levels", "3", "--first-level", "2", "--outdir",
                   str(tmp_path), "--dump-matrix", str(tmp_path / "a.txt")])
    assert rc == 0
    assert built == [32, 128]
