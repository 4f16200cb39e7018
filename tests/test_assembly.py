import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from hdgwg import basis
from hdgwg.assembly import (
    CoefficientField,
    assemble_hdg,
    assemble_mixed_conforming,
    assemble_norm_gram,
    assemble_primal_conforming,
    assemble_wg,
    MixedDofMap,
    PrimalDofMap,
)
from hdgwg.linalg import solve_symmetric_indefinite
from hdgwg.mesh import build_structured_mesh
from hdgwg.spaces import SpaceCase, build_space_triple

import cellwise
from cellwise import jittered_mesh

ZERO = lambda xy: np.zeros(len(xy))
ONE = lambda xy: np.ones(len(xy))


def _edge_data(mesh, ci, li, s):
    ei = mesh.cell_edges[ci, li]
    pts = cellwise._edge_ref_points(li, cellwise._side_flip(mesh, ci, li), s)
    sign = mesh.cell_edge_sign[ci, li]
    return ei, mesh.edge_normal[ei], mesh.edge_length[ei], pts, sign


def one_rule(scalar_degree):
    """Quadrature degree of every cell integral in hdgwg."""
    return min(2 * scalar_degree + 3, basis.MAX_QUADRATURE_DEGREE)


def hdg_form_oracle(mesh, dofs, case, coeff, xa, xb):
    """Pairwise evaluation of the HDG bilinear form by fresh quadrature.

    The rule degree follows the assembler's one rule so non-polynomial
    coefficients integrate to the identical quadrature sum.
    """
    tri = basis.tri_quadrature(one_rule(case.scalar_degree))
    eq = basis.edge_quadrature(one_rule(case.scalar_degree))
    total = 0.0
    for ci in range(mesh.num_cells):
        A, b0, det, _ = cellwise._geometry(mesh, ci)
        w = tri.weights * det
        xy = tri.xy @ A.T + b0
        pa, dpa = cellwise._flux_on_cell(mesh, dofs, xa, ci, tri.xy)
        pb, dpb = cellwise._flux_on_cell(mesh, dofs, xb, ci, tri.xy)
        ua, _ = cellwise._scalar_on_cell(mesh, dofs, xa, ci, tri.xy)
        ub, _ = cellwise._scalar_on_cell(mesh, dofs, xb, ci, tri.xy)
        c = coeff.c_at(xy)
        total += np.einsum("q,qc,qc->", w * c, pa, pb)
        total -= w @ (ua * dpb) + w @ (ub * dpa)
        tau = case.stabilization(mesh.cell_size[ci])
        for li in range(3):
            ei, normal, length, pts, sign = _edge_data(mesh, ci, li, eq.points)
            n_K = sign * normal
            qa, _ = cellwise._flux_on_cell(mesh, dofs, xa, ci, pts)
            qb, _ = cellwise._flux_on_cell(mesh, dofs, xb, ci, pts)
            va, _ = cellwise._scalar_on_cell(mesh, dofs, xa, ci, pts)
            vb, _ = cellwise._scalar_on_cell(mesh, dofs, xb, ci, pts)
            td = dofs.edge_trace_dofs(ei)
            tv = basis.eval_edge_basis(case.trace_deg, eq.points)
            hata = tv @ np.where(td >= 0, xa[td], 0.0)
            hatb = tv @ np.where(td >= 0, xb[td], 0.0)
            we = eq.weights * length
            total += we @ (hata * (qb @ n_K)) + we @ (hatb * (qa @ n_K))
            total -= tau * (we @ ((va - hata) * (vb - hatb)))
    return total


def wg_form_oracle(mesh, dofs, case, coeff, xa, xb):
    """Pairwise evaluation of the WG bilinear form by fresh quadrature."""
    tri = basis.tri_quadrature(one_rule(case.scalar_degree))
    eq = basis.edge_quadrature(one_rule(case.scalar_degree))
    total = 0.0
    for ci in range(mesh.num_cells):
        A, b0, det, _ = cellwise._geometry(mesh, ci)
        w = tri.weights * det
        xy = tri.xy @ A.T + b0
        pa, _ = cellwise._flux_on_cell(mesh, dofs, xa, ci, tri.xy)
        pb, _ = cellwise._flux_on_cell(mesh, dofs, xb, ci, tri.xy)
        _, gua = cellwise._scalar_on_cell(mesh, dofs, xa, ci, tri.xy)
        _, gub = cellwise._scalar_on_cell(mesh, dofs, xb, ci, tri.xy)
        c = coeff.c_at(xy)
        total += np.einsum("q,qc,qc->", w * c, pa, pb)
        total += np.einsum("q,qc,qc->", w, pa, gub)
        total += np.einsum("q,qc,qc->", w, pb, gua)
        eta = case.stabilization(mesh.cell_size[ci])
        for li in range(3):
            ei, normal, length, pts, sign = _edge_data(mesh, ci, li, eq.points)
            n_K = sign * normal
            qa, _ = cellwise._flux_on_cell(mesh, dofs, xa, ci, pts)
            qb, _ = cellwise._flux_on_cell(mesh, dofs, xb, ci, pts)
            va, _ = cellwise._scalar_on_cell(mesh, dofs, xa, ci, pts)
            vb, _ = cellwise._scalar_on_cell(mesh, dofs, xb, ci, pts)
            tv = basis.eval_edge_basis(case.trace_deg, eq.points)
            hata = tv @ xa[dofs.edge_trace_dofs(ei)]
            hatb = tv @ xb[dofs.edge_trace_dofs(ei)]
            we = eq.weights * length
            total -= sign * (we @ (hata * vb) + we @ (hatb * va))
            da = qa @ n_K - sign * hata
            db = qb @ n_K - sign * hatb
            total += eta * (we @ (da * db))
    return total


def rhs_oracle(mesh, dofs, f, x, quad_degree=8):
    tri = basis.tri_quadrature(quad_degree)
    total = 0.0
    for ci in range(mesh.num_cells):
        A, b0, det, _ = cellwise._geometry(mesh, ci)
        xy = tri.xy @ A.T + b0
        v, _ = cellwise._scalar_on_cell(mesh, dofs, x, ci, tri.xy)
        total -= (tri.weights * det) @ (f(xy) * v)
    return total


MESHES = {"unit": lambda: build_structured_mesh(1), "jittered": jittered_mesh}


def _with_meshes(method):
    """(method, regime, mesh) inputs; the unit-mesh ids stay "method-regime"."""
    return pytest.mark.parametrize("method,regime,mesh_name", [
        pytest.param(method, regime, name, id="-".join(
            [method, regime] + ([name] if name != "unit" else [])))
        for name in MESHES for regime in ("rho_h", "inv")])


def _probe_vectors(n):
    """Unit vectors, so x_a' A x_b is an entry of A; for systems too large to
    probe entrywise, 8 random unit-norm vectors."""
    if n <= 20:
        return np.eye(n)
    x = np.random.default_rng(n).standard_normal((8, n))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


@_with_meshes("hdg")
def test_hdg_matrix_against_oracle(method, regime, mesh_name):
    mesh = MESHES[mesh_name]()
    case = SpaceCase(method, regime, 0, 0.7)
    dofs = build_space_triple(mesh, case)
    coeff = CoefficientField(alpha=lambda xy: 1.0 + 0.5 * xy[:, 0])
    f = lambda xy: xy[:, 0] + 2.0 * xy[:, 1]
    sys = assemble_hdg(mesh, dofs, case, coeff, f)
    probes = _probe_vectors(dofs.total)
    for i, xa in enumerate(probes):
        assert abs(rhs_oracle(mesh, dofs, f, xa) - sys.rhs @ xa) < 1e-12
        for xb in probes[i:]:
            ref = hdg_form_oracle(mesh, dofs, case, coeff, xa, xb)
            assert abs(xa @ (sys.matrix @ xb) - ref) < 1e-12


@_with_meshes("wg")
def test_wg_matrix_against_oracle(method, regime, mesh_name):
    mesh = MESHES[mesh_name]()
    case = SpaceCase(method, regime, 0, 0.4)
    dofs = build_space_triple(mesh, case)
    coeff = CoefficientField(alpha=lambda xy: 1.0 + xy[:, 1])
    f = lambda xy: np.sin(xy[:, 0])
    sys = assemble_wg(mesh, dofs, case, coeff, f)
    probes = _probe_vectors(dofs.total)
    for i, xa in enumerate(probes):
        for xb in probes[i:]:
            ref = wg_form_oracle(mesh, dofs, case, coeff, xa, xb)
            assert abs(xa @ (sys.matrix @ xb) - ref) < 1e-10


def test_wg_rhs_against_oracle():
    mesh = build_structured_mesh(2)
    case = SpaceCase("wg", "rho_h", 1, 1.0)
    dofs = build_space_triple(mesh, case)
    f = lambda xy: xy[:, 0] ** 2 - xy[:, 1]
    sys = assemble_wg(mesh, dofs, case, CoefficientField.unit(), f)
    eye = np.eye(dofs.total)
    for j in range(dofs.total):
        assert abs(rhs_oracle(mesh, dofs, f, eye[j]) - sys.rhs[j]) < 1e-12


def test_assembled_matrices_exactly_symmetric():
    mesh = build_structured_mesh(3)
    for method, regime in [("hdg", "rho_h"), ("hdg", "inv"),
                           ("wg", "rho_h"), ("wg", "inv")]:
        case = SpaceCase(method, regime, 1, 0.2)
        dofs = build_space_triple(mesh, case)
        asm = assemble_hdg if method == "hdg" else assemble_wg
        sys = asm(mesh, dofs, case, CoefficientField.unit(), ONE)
        assert (sys.matrix - sys.matrix.T).nnz == 0


def test_zero_load_gives_zero_solution():
    mesh = build_structured_mesh(2)
    case = SpaceCase("hdg", "rho_h", 1, 0.5)
    dofs = build_space_triple(mesh, case)
    sys = assemble_hdg(mesh, dofs, case, CoefficientField.unit(), ZERO)
    x = solve_symmetric_indefinite(sys.matrix, sys.rhs)
    assert np.max(np.abs(x)) < 1e-12


def test_assembly_case_mismatch():
    mesh = build_structured_mesh(1)
    case = SpaceCase("hdg", "rho_h", 0, 1.0)
    dofs = build_space_triple(mesh, case)
    with pytest.raises(ValueError):
        assemble_wg(mesh, dofs, case, CoefficientField.unit(), ZERO)
    other = build_space_triple(build_structured_mesh(2), case)
    with pytest.raises(ValueError):
        assemble_hdg(mesh, other, case, CoefficientField.unit(), ZERO)
    wrong = build_space_triple(mesh, SpaceCase("hdg", "inv", 0, 1.0))
    with pytest.raises(ValueError):
        assemble_hdg(mesh, wrong, case, CoefficientField.unit(), ZERO)


def test_coefficient_must_be_positive():
    field = CoefficientField(alpha=lambda xy: xy[:, 0] - 0.5)
    with pytest.raises(ValueError):
        field.c_at(np.array([[0.25, 0.5]]))
    assert np.allclose(CoefficientField.unit().c_at(np.zeros((3, 2))), 1.0)


def test_primal_conforming_against_oracle():
    mesh = build_structured_mesh(2)
    coeff = CoefficientField(alpha=lambda xy: 1.0 + xy[:, 0] * xy[:, 1])
    f = lambda xy: xy[:, 1]
    sys, dofs = assemble_primal_conforming(mesh, 0, coeff, f)
    dense = sys.matrix.toarray()
    # the assembler's rule: that of hdg/inv, scalar degree k + 1
    tri = basis.tri_quadrature(one_rule(dofs.degree))
    eye = np.eye(dofs.total)

    def form(xa, xb):
        total = 0.0
        for ci in range(mesh.num_cells):
            A, b0, det, _ = cellwise._geometry(mesh, ci)
            w = tri.weights * det
            xy = tri.xy @ A.T + b0
            pa, _ = cellwise._flux_on_cell(mesh, dofs, xa, ci, tri.xy)
            pb, _ = cellwise._flux_on_cell(mesh, dofs, xb, ci, tri.xy)
            _, ga = cellwise._scalar_on_cell(mesh, dofs, xa, ci, tri.xy)
            _, gb = cellwise._scalar_on_cell(mesh, dofs, xb, ci, tri.xy)
            c = coeff.c_at(xy)
            total += np.einsum("q,qc,qc->", w * c, pa, pb)
            total += np.einsum("q,qc,qc->", w, pa, gb)
            total += np.einsum("q,qc,qc->", w, pb, ga)
        return total

    for i in range(dofs.total):
        assert abs(rhs_oracle(mesh, dofs, f, eye[i]) - sys.rhs[i]) < 1e-13
        for j in range(i, dofs.total):
            assert abs(dense[i, j] - form(eye[i], eye[j])) < 1e-12
    assert (sys.matrix - sys.matrix.T).nnz == 0


def test_mixed_conforming_against_oracle():
    mesh = build_structured_mesh(2)
    coeff = CoefficientField(alpha=lambda xy: 2.0 + xy[:, 1])
    f = lambda xy: np.cos(xy[:, 1])
    sys, dofs = assemble_mixed_conforming(mesh, 0, coeff, f)
    dense = sys.matrix.toarray()
    # the assembler's rule: that of wg/inv, scalar degree k
    tri = basis.tri_quadrature(one_rule(dofs.k))
    eye = np.eye(dofs.total)

    def form(xa, xb):
        total = 0.0
        for ci in range(mesh.num_cells):
            A, b0, det, _ = cellwise._geometry(mesh, ci)
            w = tri.weights * det
            xy = tri.xy @ A.T + b0
            pa, dpa = cellwise._flux_on_cell(mesh, dofs, xa, ci, tri.xy)
            pb, dpb = cellwise._flux_on_cell(mesh, dofs, xb, ci, tri.xy)
            ua, _ = cellwise._scalar_on_cell(mesh, dofs, xa, ci, tri.xy)
            ub, _ = cellwise._scalar_on_cell(mesh, dofs, xb, ci, tri.xy)
            c = coeff.c_at(xy)
            total += np.einsum("q,qc,qc->", w * c, pa, pb)
            total -= w @ (ua * dpb) + w @ (ub * dpa)
        return total

    for i in range(dofs.total):
        for j in range(i, dofs.total):
            assert abs(dense[i, j] - form(eye[i], eye[j])) < 1e-11


def test_mixed_conforming_divergence_identity():
    # with RT0 the broken divergence is cellwise constant, so div p = f
    # holds exactly for f = 1
    mesh = build_structured_mesh(3)
    sys, dofs = assemble_mixed_conforming(mesh, 0, CoefficientField.unit(), ONE)
    x = solve_symmetric_indefinite(sys.matrix, sys.rhs)
    tri = basis.tri_quadrature(2)
    for ci in range(mesh.num_cells):
        _, divs = cellwise._flux_on_cell(mesh, dofs, x, ci, tri.xy)
        assert np.max(np.abs(divs - 1.0)) < 1e-9


def test_mixed_normal_trace_is_single_valued():
    # a random conforming coefficient vector has continuous normal trace
    rng = np.random.default_rng(5)
    mesh = build_structured_mesh(2)
    dofs = MixedDofMap(mesh, 1)
    x = rng.standard_normal(dofs.total)
    s = np.linspace(0.1, 0.9, 5)
    for ei in mesh.interior_edges:
        traces = []
        for ci, li in zip(mesh.edge_cells[ei], mesh.edge_local[ei]):
            pts = cellwise._edge_ref_points(li, cellwise._side_flip(mesh, ci, li), s)
            vals, _ = cellwise._flux_on_cell(mesh, dofs, x, ci, pts)
            traces.append(vals @ mesh.edge_normal[ei])
        assert np.max(np.abs(traces[0] - traces[1])) < 1e-11


def test_primal_scalar_is_continuous_and_zero_on_boundary():
    rng = np.random.default_rng(9)
    mesh = build_structured_mesh(2)
    dofs = PrimalDofMap(mesh, 1)
    x = rng.standard_normal(dofs.total)
    s = np.linspace(0.0, 1.0, 7)
    for ei in range(mesh.num_edges):
        vals = []
        for ci, li in zip(mesh.edge_cells[ei], mesh.edge_local[ei]):
            if ci < 0:
                continue
            pts = cellwise._edge_ref_points(li, cellwise._side_flip(mesh, ci, li), s)
            v, _ = cellwise._scalar_on_cell(mesh, dofs, x, ci, pts)
            vals.append(v)
        if len(vals) == 1:
            assert np.max(np.abs(vals[0])) < 1e-12
        else:
            assert np.max(np.abs(vals[0] - vals[1])) < 1e-12


@pytest.mark.parametrize("method,regime", [("hdg", "rho_h"), ("hdg", "inv"),
                                           ("wg", "rho_h"), ("wg", "inv")])
def test_norm_gram_spd(method, regime):
    mesh = build_structured_mesh(2)
    case = SpaceCase(method, regime, 0, 0.3)
    dofs = build_space_triple(mesh, case)
    N = assemble_norm_gram(mesh, dofs)
    dense = N.toarray()
    assert np.max(np.abs(dense - dense.T)) == 0.0
    assert np.min(scipy.linalg.eigvalsh(dense)) > 0.0


def test_norm_gram_quadratic_scaling():
    rng = np.random.default_rng(31)
    mesh = build_structured_mesh(2)
    case = SpaceCase("wg", "rho_h", 1, 0.5)
    dofs = build_space_triple(mesh, case)
    N = assemble_norm_gram(mesh, dofs)
    x = rng.standard_normal(dofs.total)
    assert abs((2 * x) @ (N @ (2 * x)) - 4 * (x @ (N @ x))) < 1e-10
    assert np.zeros(dofs.total) @ (N @ np.zeros(dofs.total)) == 0.0


def test_conforming_flux_has_no_projected_jump():
    # the rho-weighted flux-jump part of the hdg_div norm vanishes for a
    # normal-continuous flux; compare Grams at two rho values on a vector
    # with only flux entries set
    rng = np.random.default_rng(41)
    mesh = build_structured_mesh(2)
    dofs = build_space_triple(mesh, SpaceCase("hdg", "rho_h", 0, 1.0))
    small = build_space_triple(mesh, SpaceCase("hdg", "rho_h", 0, 1e-3))
    mixed = MixedDofMap(mesh, 0)
    xc = rng.standard_normal(mixed.flux_total)
    x = np.zeros(dofs.total)
    x[dofs.cell_flux_dofs()] = mixed.flux_sign * xc[mixed.flux_l2g]
    n1 = x @ (assemble_norm_gram(mesh, dofs) @ x)
    n2 = x @ (assemble_norm_gram(mesh, small) @ x)
    # rho only multiplies the (zero) jump and (zero) trace contributions
    assert abs(n1 - n2) < 1e-9 * max(n1, 1.0)
    # breaking conformity reactivates the jump penalty
    x[dofs.cell_flux_dofs(0)] += rng.standard_normal(dofs.flux_per_cell)
    j1 = x @ (assemble_norm_gram(mesh, small) @ x)
    j0 = x @ (assemble_norm_gram(mesh, dofs) @ x)
    assert j1 > 10.0 * j0


def test_assembly_is_deterministic():
    mesh = build_structured_mesh(2)
    case = SpaceCase("wg", "inv", 1, 0.1)
    dofs = build_space_triple(mesh, case)
    a = assemble_wg(mesh, dofs, case, CoefficientField.unit(), ONE)
    b = assemble_wg(mesh, dofs, case, CoefficientField.unit(), ONE)
    assert (a.matrix != b.matrix).nnz == 0
    assert np.array_equal(a.rhs, b.rhs)
