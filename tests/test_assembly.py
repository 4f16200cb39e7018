import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from hdgwg import assembly, basis
from hdgwg.assembly import (
    CoefficientField,
    ElementSums,
    ElementTables,
    assemble_hdg,
    assemble_mixed_conforming,
    assemble_primal_conforming,
    assemble_wg,
    FormSums,
    cell_dofs,
    form_terms,
)
from hdgwg.linalg import solve_symmetric_indefinite
from hdgwg.mesh import Mesh, build_structured_mesh
from hdgwg.norms import assemble_norm_gram, gram_terms
from hdgwg.spaces import (SpaceCase, build_space_triple, mixed_dofs,
                          primal_dofs)

import cellwise
from cellwise import jittered_mesh, one_rule

ZERO = lambda xy: np.zeros(len(xy))
ONE = lambda xy: np.ones(len(xy))


def _edge_data(mesh, ci, li, s):
    ei = mesh.cell_edges[ci, li]
    pts = cellwise._edge_ref_points(li, cellwise._side_flip(mesh, ci, li), s)
    sign = mesh.cell_edge_sign[ci, li]
    return ei, mesh.edge_normal[ei], mesh.edge_length[ei], pts, sign


def form_oracle_fields(mesh, dofs, case, x):
    """The fields of ``x`` at fresh quadrature points, cell by cell, for the
    HDG and WG form oracles: volume weights, points, cell size, flux,
    divergence, scalar and gradient, and per side the arclength weights,
    sigma = n_K . n_e, flux normal trace q.n_K, scalar and trace.

    The rule degree follows the assembler's one rule so non-polynomial
    coefficients integrate to the identical quadrature sum.
    """
    tri = basis.tri_quadrature(one_rule(case.scalar_degree))
    eq = basis.edge_quadrature(one_rule(case.scalar_degree))
    tv = basis.eval_edge_basis(case.trace_deg, eq.points)
    cells = []
    for ci in range(mesh.num_cells):
        A, b0, det, _ = cellwise._geometry(mesh, ci)
        p, dp = cellwise._flux_on_cell(mesh, dofs, x, ci, tri.xy)
        u, gu = cellwise._scalar_on_cell(mesh, dofs, x, ci, tri.xy)
        sides = []
        for li in range(3):
            ei, normal, length, pts, sign = _edge_data(mesh, ci, li, eq.points)
            q, _ = cellwise._flux_on_cell(mesh, dofs, x, ci, pts)
            v, _ = cellwise._scalar_on_cell(mesh, dofs, x, ci, pts)
            td = dofs.edge_trace[ei]
            hat = tv @ np.where(td >= 0, x[td], 0.0)
            sides.append((eq.weights * length, sign, q @ (sign * normal), v,
                          hat))
        cells.append((tri.weights * det, tri.xy @ A.T + b0,
                      mesh.cell_size[ci], p, dp, u, gu, sides))
    return cells


def hdg_form_oracle(case, coeff, a, b):
    """The HDG bilinear form of two fields of ``form_oracle_fields``."""
    total = 0.0
    for (w, xy, h, pa, dpa, ua, _, sa), (_, _, _, pb, dpb, ub, _, sb) in zip(
            a, b):
        total += np.einsum("q,qc,qc->", w * coeff.c_at(xy), pa, pb)
        total -= w @ (ua * dpb) + w @ (ub * dpa)
        tau = case.stabilization_factor * case.stabilization_law(h)
        for (we, _, qa, va, hata), (_, _, qb, vb, hatb) in zip(sa, sb):
            total += we @ (hata * qb) + we @ (hatb * qa)
            total -= tau * (we @ ((va - hata) * (vb - hatb)))
    return total


def wg_form_oracle(case, coeff, a, b):
    """The WG bilinear form of two fields of ``form_oracle_fields``."""
    total = 0.0
    for (w, xy, h, pa, _, _, gua, sa), (_, _, _, pb, _, _, gub, sb) in zip(
            a, b):
        total += np.einsum("q,qc,qc->", w * coeff.c_at(xy), pa, pb)
        total += np.einsum("q,qc,qc->", w, pa, gub)
        total += np.einsum("q,qc,qc->", w, pb, gua)
        eta = case.stabilization_factor * case.stabilization_law(h)
        for (we, sign, qa, va, hata), (_, _, qb, vb, hatb) in zip(sa, sb):
            total -= sign * (we @ (hata * vb) + we @ (hatb * va))
            total += eta * (we @ ((qa - sign * hata) * (qb - sign * hatb)))
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
    """(method, regime, mesh, k) inputs; the unit-mesh k = 0 ids stay
    "method-regime", and k = 1 ids end in "-k1"."""
    return pytest.mark.parametrize("method,regime,mesh_name,k", [
        pytest.param(method, regime, name, k, id="-".join(
            [method, regime] + ([name] if name != "unit" else [])
            + (["k1"] if k else [])))
        for k in (0, 1) for name in MESHES for regime in ("rho_h", "inv")])


def _probe_vectors(n):
    """Unit vectors, so x_a' A x_b is an entry of A; for systems too large to
    probe entrywise, 8 random unit-norm vectors."""
    if n <= 20:
        return np.eye(n)
    x = np.random.default_rng(n).standard_normal((8, n))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


@_with_meshes("hdg")
def test_hdg_matrix_against_oracle(method, regime, mesh_name, k):
    mesh = MESHES[mesh_name]()
    case = SpaceCase(method, regime, k, 0.7)
    dofs = build_space_triple(mesh, case)
    coeff = CoefficientField(alpha=lambda xy: 1.0 + 0.5 * xy[:, 0])
    f = lambda xy: xy[:, 0] + 2.0 * xy[:, 1]
    sys = assemble_hdg(mesh, dofs, coeff, f, ElementTables(mesh, case))
    probes = _probe_vectors(dofs.total)
    fields = [form_oracle_fields(mesh, dofs, case, x) for x in probes]
    for i, xa in enumerate(probes):
        assert abs(rhs_oracle(mesh, dofs, f, xa) - sys.rhs @ xa) < 1e-12
        for xb, fb in zip(probes[i:], fields[i:]):
            ref = hdg_form_oracle(case, coeff, fields[i], fb)
            assert abs(xa @ (sys.matrix @ xb) - ref) < 1e-12


@_with_meshes("wg")
def test_wg_matrix_against_oracle(method, regime, mesh_name, k):
    mesh = MESHES[mesh_name]()
    case = SpaceCase(method, regime, k, 0.4)
    dofs = build_space_triple(mesh, case)
    coeff = CoefficientField(alpha=lambda xy: 1.0 + xy[:, 1])
    f = lambda xy: np.sin(xy[:, 0])
    sys = assemble_wg(mesh, dofs, coeff, f, ElementTables(mesh, case))
    probes = _probe_vectors(dofs.total)
    fields = [form_oracle_fields(mesh, dofs, case, x) for x in probes]
    for i, xa in enumerate(probes):
        for xb, fb in zip(probes[i:], fields[i:]):
            ref = wg_form_oracle(case, coeff, fields[i], fb)
            assert abs(xa @ (sys.matrix @ xb) - ref) < 1e-10


def test_wg_rhs_against_oracle():
    mesh = build_structured_mesh(2)
    case = SpaceCase("wg", "rho_h", 1, 1.0)
    dofs = build_space_triple(mesh, case)
    f = lambda xy: xy[:, 0] ** 2 - xy[:, 1]
    sys = assemble_wg(mesh, dofs, CoefficientField.unit(), f,
                      ElementTables(mesh, case))
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
        sys = asm(mesh, dofs, CoefficientField.unit(), ONE,
                  ElementTables(mesh, case))
        assert (sys.matrix - sys.matrix.T).nnz == 0


def test_zero_load_gives_zero_solution():
    mesh = build_structured_mesh(2)
    case = SpaceCase("hdg", "rho_h", 1, 0.5)
    dofs = build_space_triple(mesh, case)
    sys = assemble_hdg(mesh, dofs, CoefficientField.unit(), ZERO,
                       ElementTables(mesh, case))
    x = solve_symmetric_indefinite(sys.matrix, sys.rhs)
    assert np.max(np.abs(x)) < 1e-12


def test_assembly_case_mismatch():
    mesh = build_structured_mesh(1)
    case = SpaceCase("hdg", "rho_h", 0, 1.0)
    dofs = build_space_triple(mesh, case)
    tables = ElementTables(mesh, case)
    with pytest.raises(ValueError, match="built for method 'hdg', not 'wg'"):
        assemble_wg(mesh, dofs, CoefficientField.unit(), ZERO, tables)
    other = build_space_triple(build_structured_mesh(2), case)
    with pytest.raises(ValueError, match="does not match the mesh"):
        assemble_hdg(mesh, other, CoefficientField.unit(), ZERO, tables)


def test_coefficient_must_be_positive():
    field = CoefficientField(alpha=lambda xy: xy[:, 0] - 0.5)
    with pytest.raises(ValueError):
        field.c_at(np.array([[0.25, 0.5]]))
    assert np.allclose(CoefficientField.unit().c_at(np.zeros((3, 2))), 1.0)


CONFORMING = pytest.mark.parametrize("mesh_name,k", [
    pytest.param(name, k, id="k{}-{}".format(k, name))
    for k in (0, 1) for name in ("structured", "jittered")])


def _conforming_mesh(name):
    return build_structured_mesh(2) if name == "structured" else jittered_mesh()


@CONFORMING
def test_primal_conforming_against_oracle(mesh_name, k):
    mesh = _conforming_mesh(mesh_name)
    coeff = CoefficientField(alpha=lambda xy: 1.0 + xy[:, 0] * xy[:, 1])
    f = lambda xy: xy[:, 1]
    dofs = primal_dofs(mesh, k)
    sys = assemble_primal_conforming(
        mesh, dofs, coeff, f, ElementTables(mesh, SpaceCase("hdg", "inv", k, 1.0)))
    # the assembler's rule: that of hdg/inv, scalar degree k + 1
    tri = basis.tri_quadrature(one_rule(dofs.local_spaces[2]))

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

    probes = _probe_vectors(dofs.total)
    for i, xa in enumerate(probes):
        assert abs(rhs_oracle(mesh, dofs, f, xa) - sys.rhs @ xa) < 1e-13
        for xb in probes[i:]:
            assert abs(xa @ (sys.matrix @ xb) - form(xa, xb)) < 1e-12
    assert (sys.matrix - sys.matrix.T).nnz == 0


@CONFORMING
def test_mixed_conforming_against_oracle(mesh_name, k):
    mesh = _conforming_mesh(mesh_name)
    coeff = CoefficientField(alpha=lambda xy: 2.0 + xy[:, 1])
    f = lambda xy: np.cos(xy[:, 1])
    dofs = mixed_dofs(mesh, k)
    sys = assemble_mixed_conforming(
        mesh, dofs, coeff, f, ElementTables(mesh, SpaceCase("wg", "inv", k, 1.0)))
    # the assembler's rule: that of wg/inv, scalar degree k
    rule = one_rule(dofs.local_spaces[2])
    tri = basis.tri_quadrature(rule)

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

    probes = _probe_vectors(dofs.total)
    for i, xa in enumerate(probes):
        # f is not polynomial, so the oracle integrates it by the same rule
        ref = rhs_oracle(mesh, dofs, f, xa, quad_degree=rule)
        assert abs(ref - sys.rhs @ xa) < 1e-12
        for xb in probes[i:]:
            assert abs(xa @ (sys.matrix @ xb) - form(xa, xb)) < 1e-11


def test_mixed_conforming_divergence_identity():
    # with RT0 the broken divergence is cellwise constant, so div p = f
    # holds exactly for f = 1
    mesh = build_structured_mesh(3)
    dofs = mixed_dofs(mesh, 0)
    sys = assemble_mixed_conforming(
        mesh, dofs, CoefficientField.unit(), ONE,
        ElementTables(mesh, SpaceCase("wg", "inv", 0, 1.0)))
    x = solve_symmetric_indefinite(sys.matrix, sys.rhs)
    tri = basis.tri_quadrature(2)
    for ci in range(mesh.num_cells):
        _, divs = cellwise._flux_on_cell(mesh, dofs, x, ci, tri.xy)
        assert np.max(np.abs(divs - 1.0)) < 1e-9


def test_mixed_normal_trace_is_single_valued():
    # a random conforming coefficient vector has continuous normal trace
    rng = np.random.default_rng(5)
    mesh = build_structured_mesh(2)
    dofs = mixed_dofs(mesh, 1)
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
    dofs = primal_dofs(mesh, 1)
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
    N = assemble_norm_gram(mesh, dofs, ElementTables(mesh, case))
    dense = N.toarray()
    assert np.max(np.abs(dense - dense.T)) == 0.0
    assert np.min(scipy.linalg.eigvalsh(dense)) > 0.0


def test_norm_gram_quadratic_scaling():
    rng = np.random.default_rng(31)
    mesh = build_structured_mesh(2)
    case = SpaceCase("wg", "rho_h", 1, 0.5)
    dofs = build_space_triple(mesh, case)
    N = assemble_norm_gram(mesh, dofs, ElementTables(mesh, case))
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
    mixed = mixed_dofs(mesh, 0)
    xc = rng.standard_normal(mixed.flux.max() + 1)
    x = np.zeros(dofs.total)
    x[dofs.flux] = mixed.flux_sign * xc[mixed.flux]
    n1 = x @ (assemble_norm_gram(mesh, dofs,
                                 ElementTables(mesh, dofs.case)) @ x)
    n2 = x @ (assemble_norm_gram(mesh, small,
                                 ElementTables(mesh, small.case)) @ x)
    # rho only multiplies the (zero) jump and (zero) trace contributions
    assert abs(n1 - n2) < 1e-9 * max(n1, 1.0)
    # breaking conformity reactivates the jump penalty
    x[dofs.flux[0]] += rng.standard_normal(dofs.flux.shape[1])
    j1 = x @ (assemble_norm_gram(mesh, small,
                                 ElementTables(mesh, small.case)) @ x)
    j0 = x @ (assemble_norm_gram(mesh, dofs,
                                 ElementTables(mesh, dofs.case)) @ x)
    assert j1 > 10.0 * j0


def test_assembly_is_deterministic():
    mesh = build_structured_mesh(2)
    case = SpaceCase("wg", "inv", 1, 0.1)
    dofs = build_space_triple(mesh, case)
    a, b = (assemble_wg(mesh, dofs, CoefficientField.unit(), ONE,
                        ElementTables(mesh, case)) for _ in range(2))
    assert (a.matrix != b.matrix).nnz == 0
    assert np.array_equal(a.rhs, b.rhs)


def _bit_identical(a, b):
    return (np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.data, b.data))


@pytest.mark.parametrize("method,regime", [("hdg", "inv"), ("wg", "rho_h")])
def test_level_5_assembly_is_deterministic(method, regime):
    # at 2048 cells the cell kernels run as threaded BLAS products: two
    # assemblies must still agree to the bit, and stay exactly symmetric
    mesh = build_structured_mesh(32)
    case = SpaceCase(method, regime, 1, 0.1)
    dofs = build_space_triple(mesh, case)
    coeff = CoefficientField(alpha=lambda xy: 1.0 + xy[:, 0] * xy[:, 1])
    asm = assemble_hdg if method == "hdg" else assemble_wg
    first, second = (asm(mesh, dofs, coeff, ONE, ElementTables(mesh, case))
                     for _ in range(2))
    assert _bit_identical(first.matrix, second.matrix)
    assert np.array_equal(first.rhs, second.rhs)
    grams = [assemble_norm_gram(mesh, dofs, ElementTables(mesh, case),
                                coeff=coeff) for _ in range(2)]
    assert _bit_identical(*grams)
    for M in (first.matrix, grams[0]):
        assert _bit_identical(M, M.T.tocsr())


@pytest.mark.parametrize("mesh_name", ["structured", "jittered"])
@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("method,regime", [
    ("hdg", "rho_h"), ("hdg", "inv"), ("wg", "rho_h"), ("wg", "inv")])
def test_shared_pattern_matches_one_shot_assembly(method, regime, k,
                                                  mesh_name):
    # a rho sweep makes every system and every Gram from the sums of its
    # first DOF map; each must equal the matrix assembled on its own, to
    # the bit
    mesh = _conforming_mesh(mesh_name)
    coeff = CoefficientField(alpha=lambda xy: 1.0 + xy[:, 0] * xy[:, 1])
    asm = assemble_hdg if method == "hdg" else assemble_wg
    first = build_space_triple(mesh, SpaceCase(method, regime, k, 1.0))
    tables = ElementTables(mesh, first.case)
    form, norm = (FormSums(terms, mesh, first, coeff, tables)
                  for terms in (form_terms, gram_terms))
    built = []
    for rho in (1.0, 1e-3, 1e-6):
        dofs = build_space_triple(mesh, SpaceCase(method, regime, k, rho))
        pairs = [
            (asm(mesh, dofs, coeff, ONE, tables=tables, sums=form).matrix,
             asm(mesh, dofs, coeff, ONE, ElementTables(mesh, dofs.case)).matrix),
            (assemble_norm_gram(mesh, dofs, coeff=coeff, tables=tables,
                                sums=norm),
             assemble_norm_gram(mesh, dofs, ElementTables(mesh, dofs.case),
                                coeff=coeff))]
        for shared, one_shot in pairs:
            assert _bit_identical(shared, one_shot)
            assert _bit_identical(shared, shared.T.tocsr())
        built.append(pairs[0][0])
    # each matrix owns its index arrays
    assert not np.shares_memory(built[0].indices, built[1].indices)
    assert not np.shares_memory(built[0].indptr, built[1].indptr)


ELEMENT_METHODS = [("hdg", "rho_h"), ("hdg", "inv"), ("wg", "rho_h"),
                   ("wg", "inv"), ("primal", None), ("mixed", None)]


def _element_inputs(method, regime, k, rho, mesh):
    """DOF map and element tables of one of the six methods."""
    if method == "primal":
        return primal_dofs(mesh, k), ElementTables(
            mesh, SpaceCase("hdg", "inv", k, 1.0))
    if method == "mixed":
        return mixed_dofs(mesh, k), ElementTables(
            mesh, SpaceCase("wg", "inv", k, 1.0))
    dofs = build_space_triple(mesh, SpaceCase(method, regime, k, rho))
    return dofs, ElementTables(mesh, dofs.case)


@pytest.mark.parametrize("mesh_name", ["level-2", "jittered"])
@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("method,regime", ELEMENT_METHODS)
def test_element_matrices_sum_to_the_form_sums_matrix(method, regime, k,
                                                      mesh_name):
    # scattered on their cells' DOFs, the element matrices sum to the
    # FormSums matrix within 1e-14 of its largest entry; each is exactly
    # symmetric, and a sweep's, made from the sums of its first DOF map,
    # are the one-shot ones to the bit
    mesh = build_structured_mesh(4) if mesh_name == "level-2" else (
        jittered_mesh())
    coeff = CoefficientField(alpha=lambda xy: 1.0 + xy[:, 0] * xy[:, 1])
    first, tables = _element_inputs(method, regime, k, 1.0, mesh)
    sweep = ElementSums(mesh, first, coeff, tables)
    for rho in (1.0, 1e-3):
        dofs, own_tables = _element_inputs(method, regime, k, rho, mesh)
        one_shot = ElementSums(mesh, dofs, coeff, own_tables).stack(
            dofs, coeff, own_tables, last=True)
        stack = sweep.stack(dofs, coeff, tables)
        assert np.array_equal(stack, one_shot)
        assert np.array_equal(stack, stack.transpose(0, 2, 1))
        matrix = FormSums(form_terms, mesh, dofs, coeff, tables).matrix(
            form_terms, dofs, coeff, tables)
        cells = cell_dofs(mesh, dofs)
        rows = np.broadcast_to(cells[:, :, None], stack.shape)
        cols = np.broadcast_to(cells[:, None, :], stack.shape)
        kept = (rows >= 0) & (cols >= 0)
        summed = sp.csr_matrix((stack[kept], (rows[kept], cols[kept])),
                               shape=matrix.shape)
        assert abs(summed - matrix).max() <= 1e-14 * abs(matrix).max()
    # a sweep's sums serve no other DOF map, coefficient or tables
    with pytest.raises(ValueError, match="another DOF map"):
        sweep.stack(dataclasses.replace(first, flux=first.flux[:, ::-1]),
                    coeff, tables)
    with pytest.raises(ValueError, match="coefficient"):
        sweep.stack(first, CoefficientField.unit(), tables)


def test_pattern_rejects_another_dof_map():
    mesh = build_structured_mesh(2)
    dofs = build_space_triple(mesh, SpaceCase("hdg", "inv", 0, 1.0))
    tables = ElementTables(mesh, dofs.case)
    coeff = CoefficientField.unit()
    form, norm = (FormSums(form_terms, mesh, dofs, coeff, tables),
                  FormSums(gram_terms, mesh, dofs, None, tables))
    # the Gram's sums take the coefficient None they were built with
    assert _bit_identical(assemble_norm_gram(mesh, dofs, tables, sums=norm),
                          assemble_norm_gram(mesh, dofs, tables))
    # the same mesh and tables with each cell's scalar DOFs reversed, and
    # the same DOF map with another coefficient
    reversed_scalar = dataclasses.replace(dofs, scalar=dofs.scalar[:, ::-1])
    with pytest.raises(ValueError, match="another DOF map"):
        assemble_hdg(mesh, reversed_scalar, coeff, ONE, tables, sums=form)
    with pytest.raises(ValueError, match="another DOF map"):
        assemble_norm_gram(mesh, reversed_scalar, tables, sums=norm)
    with pytest.raises(ValueError, match="coefficient"):
        assemble_hdg(mesh, dofs, CoefficientField.unit(), ONE, tables,
                     sums=form)
    with pytest.raises(ValueError, match="coefficient"):
        assemble_norm_gram(mesh, dofs, tables, coeff=coeff, sums=norm)
    with pytest.raises(ValueError, match="term list"):
        assemble_norm_gram(mesh, dofs, tables, coeff=coeff, sums=form)
    # another degree, another mesh size, and the same mesh with each cell's
    # vertices rotated: same DOF count, other local numbering
    rotated = Mesh(mesh.vertices, mesh.cells[:, [1, 2, 0]])
    for other_mesh, k in ((mesh, 1), (build_structured_mesh(4), 0),
                          (rotated, 0)):
        other = build_space_triple(other_mesh,
                                   SpaceCase("hdg", "inv", k, 1e-3))
        tables = ElementTables(other_mesh, other.case)
        with pytest.raises(ValueError, match="another DOF map"):
            assemble_hdg(other_mesh, other, coeff, ONE, tables, sums=form)
        with pytest.raises(ValueError, match="another DOF map"):
            assemble_norm_gram(other_mesh, other, tables, sums=norm)


def _sorted_sum(n, terms):
    """Reference sum of bilinear ``terms`` by one sort of all triplets,
    written apart from ``FormSums``: the triplets in term order, an
    off-diagonal term's transpose right after it, stably sorted by key and
    each run of equal keys summed by ``np.add.reduceat``."""
    rows, cols, vals = [], [], []
    for term in terms:
        _, _, test, trial = term
        r, c = test[0], trial[0]
        r, c = np.broadcast_arrays(
            (r[:, None] if r.ndim < c.ndim else r)[..., :, None],
            c[..., None, :])
        v = np.broadcast_to(assembly._block(*term), r.shape)
        keep = (r >= 0) & (c >= 0)
        pairs = [(r, c)] if test is trial else [(r, c), (c, r)]
        for i, j in pairs:
            rows.append(i[keep])
            cols.append(j[keep])
            vals.append(v[keep])
    key = np.concatenate(rows).astype(np.int64) * n + np.concatenate(cols)
    order = np.argsort(key, kind="stable")
    key, v = key[order], np.concatenate(vals)[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    key = key[starts]
    return sp.csr_matrix((np.add.reduceat(v, starts), (key // n, key % n)),
                         shape=(n, n))


def _on_structure(values, form, part):
    """The ``values`` on ``form``'s structure as a CSR matrix, checked to
    be zero outside the entries of ``part``, restricted to those
    entries."""
    whole = sp.csr_matrix((values, form.indices, form.indptr),
                          shape=form.shape)
    inside = part.copy()
    inside.data[:] = 1.0
    outside = whole - whole.multiply(inside)
    assert outside.count_nonzero() == 0
    rows = np.repeat(np.arange(part.shape[0]), np.diff(part.indptr))
    return sp.csr_matrix((np.asarray(whole[rows, part.indices]).ravel(),
                          part.indices, part.indptr), shape=part.shape)


@pytest.mark.parametrize("k", [0, 1])
def test_form_sums_memory_peak(k):
    # the sort's temporaries are freed as soon as they are used, so
    # building the sums of hdg/inv at level 5 peaks within 2.5 times the
    # bytes they keep: the group sums and the CSR structure
    mesh = build_structured_mesh(2**5)
    dofs = build_space_triple(mesh, SpaceCase("hdg", "inv", k, 0.1))
    tables = ElementTables(mesh, dofs.case)
    coeff = CoefficientField(alpha=lambda xy: 1.0 + xy[:, 0] * xy[:, 1])
    tracemalloc.start()
    try:
        sums = FormSums(form_terms, mesh, dofs, coeff, tables)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(a.nbytes for a in sums.sums + [sums.indices, sums.indptr])
    assert peak <= 2.5 * kept, peak / kept


@pytest.mark.parametrize("method,regime", [("hdg", "inv"), ("wg", "rho_h")])
def test_sum_pattern_matches_a_sort_of_all_triplets(method, regime):
    # one-triplet runs are copied and only longer runs summed: the sums of
    # each scale group of the form, and of the Gram, must be those of
    # summing every run of that group's terms, to the bit
    mesh = build_structured_mesh(16)
    coeff = CoefficientField(alpha=lambda xy: 1.0 + xy[:, 0] * xy[:, 1])
    dofs = build_space_triple(mesh, SpaceCase(method, regime, 1, 1e-3))
    tables = ElementTables(mesh, dofs.case)
    for terms in (form_terms, gram_terms):
        sums = FormSums(terms, mesh, dofs, coeff, tables)
        groups = terms(mesh, dofs, tables, coeff)
        assert len(sums.sums) == len(groups) > 1
        for values, (_, group) in zip(sums.sums, groups):
            oracle = _sorted_sum(dofs.total, group)
            assert _bit_identical(_on_structure(values, sums, oracle), oracle)
