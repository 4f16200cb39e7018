from dataclasses import fields

import numpy as np
import pytest

from hdgwg import basis
from hdgwg.mesh import build_structured_mesh
from hdgwg.spaces import (SpaceCase, build_space_triple, mixed_dofs,
                          primal_dofs)

from cellwise import eval_edge_function, project_to_edge_space


def test_case_validation():
    with pytest.raises(ValueError):
        SpaceCase("dg", "rho_h", 0, 1.0)
    with pytest.raises(ValueError):
        SpaceCase("hdg", "adaptive", 0, 1.0)
    with pytest.raises(ValueError):
        SpaceCase("hdg", "rho_h", -1, 1.0)
    with pytest.raises(ValueError):
        SpaceCase("hdg", "rho_h", 0, 0.0)
    with pytest.raises(ValueError):
        SpaceCase("hdg", "rho_h", 0, 1.5)
    with pytest.raises(ValueError):
        SpaceCase("hdg", "rho_h", 2, 1.0)  # RT flux limited to k <= 1
    with pytest.raises(ValueError):
        SpaceCase("wg", "inv", 3, 1.0)
    with pytest.raises(ValueError):
        SpaceCase("wg", "rho_h", 0, 1.0, trace_degree=5)
    with pytest.raises(ValueError, match="trace degree must lie in .* got -1"):
        SpaceCase("hdg", "inv", 0, 1.0, trace_degree=-1)


def test_space_triples_per_regime():
    a = SpaceCase("hdg", "rho_h", 1, 0.5)
    assert (a.flux_family, a.scalar_degree, a.trace_deg) == ("rt", 1, 1)
    b = SpaceCase("hdg", "inv", 1, 0.5)
    assert (b.flux_family, b.scalar_degree, b.trace_deg) == ("vec", 2, 2)
    c = SpaceCase("wg", "rho_h", 1, 0.5)
    assert (c.flux_family, c.scalar_degree, c.trace_deg) == ("vec", 2, 1)
    d = SpaceCase("wg", "inv", 1, 0.5)
    assert (d.flux_family, d.scalar_degree, d.trace_deg) == ("rt", 1, 1)
    # printed-table variant of the hdg/inv trace degree
    e = SpaceCase("hdg", "inv", 1, 0.5, trace_degree=1)
    assert e.trace_deg == 1


def test_stabilization_weights():
    # tau = eta = f(rho) g(h_K): rho h_K for rho_h, 1/(rho h_K) for inv
    h = 0.25
    rho_h = SpaceCase("hdg", "rho_h", 0, 0.5)
    assert (rho_h.stabilization_factor, rho_h.stabilization_law(h)) == (0.5, h)
    inv = SpaceCase("wg", "inv", 0, 0.5)
    assert (inv.stabilization_factor, inv.stabilization_law(h)) == (2.0, 4.0)


def test_dof_counts_unit_mesh():
    mesh = build_structured_mesh(1)
    # hdg/rho_h k=0: 2 cells x (3 RT + 1 scalar) + 1 interior edge x 1 = 9
    assert build_space_triple(mesh, SpaceCase("hdg", "rho_h", 0, 1.0)).total == 9
    # hdg/inv k=0: 2 x (2 + 3) + 1 interior edge x 2 (degree k+1 trace) = 12
    assert build_space_triple(mesh, SpaceCase("hdg", "inv", 0, 1.0)).total == 12
    # wg/rho_h k=0: 2 x (2 + 3) + 5 edges x 1 = 15
    assert build_space_triple(mesh, SpaceCase("wg", "rho_h", 0, 1.0)).total == 15
    # wg/inv k=0: 2 x (3 + 1) + 5 x 1 = 13
    assert build_space_triple(mesh, SpaceCase("wg", "inv", 0, 1.0)).total == 13


def _dof_maps(mesh):
    """Every DOF map at k = 1: the four HDG/WG triples, then the primal and
    mixed conforming limits."""
    return [build_space_triple(mesh, SpaceCase(method, regime, 1, 0.3))
            for method, regime in [("hdg", "rho_h"), ("hdg", "inv"),
                                   ("wg", "rho_h"), ("wg", "inv")]
            ] + [primal_dofs(mesh, 1), mixed_dofs(mesh, 1)]


def _on_boundary(xy):
    return np.any(np.isclose(xy, 0.0) | np.isclose(xy, 1.0), axis=-1)


def test_dof_map_partition():
    mesh = build_structured_mesh(2)
    for dofs in _dof_maps(mesh):
        flux, scalar, trace = dofs.flux, dofs.scalar, dofs.edge_trace
        # every DOF is reached, and by one of the three parts only
        seen = np.zeros(dofs.total, dtype=int)
        for part in (flux, scalar, trace):
            seen[np.unique(part[part >= 0])] += 1
        assert np.all(seen == 1), dofs.method
        # a broken flux or scalar DOF belongs to one cell, a trace DOF to
        # one edge; only the primal scalar is continuous
        broken = [trace] + [flux] * (dofs.flux_sign is None) + [scalar] * (
            dofs.method != "primal")
        for part in broken:
            assert len(np.unique(part[part >= 0])) == np.count_nonzero(
                part >= 0), dofs.method
        # -1 only where the space eliminates a DOF: primal scalar nodes and
        # HDG traces on the boundary
        assert flux.min() >= 0
        nodes = (mesh.vertices[mesh.cells[:, 0]][:, None]
                 + np.einsum("nd,ckd->cnk",
                             basis.lattice_nodes(dofs.local_spaces[2]),
                             mesh.cell_jac))
        assert np.array_equal(scalar < 0, _on_boundary(nodes)
                              & (dofs.method == "primal"))
        edges = np.zeros(mesh.num_edges, dtype=bool)
        edges[mesh.boundary_edges] = dofs.method == "hdg"
        assert np.array_equal(trace < 0,
                              np.repeat(edges[:, None], trace.shape[1], 1))
        # the cell DOFs, then the trace; HDG interleaves flux and scalar
        # cell by cell (test_condensed_dofs_come_first), the others put
        # all flux before all scalar
        assert flux.min() == 0
        if dofs.method != "hdg":
            assert flux.max() < scalar[scalar >= 0].min()
        if trace.size:
            assert max(flux.max(), scalar.max()) < trace[trace >= 0].min()
        assert max(flux.max(), scalar.max(), trace.max(initial=-1)) == (
            dofs.total - 1)


def test_condensed_dofs_come_first():
    # the first C m DOFs are each cell's condensed unknowns, m consecutive
    # per cell in cell order: HDG flux and scalar, WG and primal flux, and
    # the k (k + 1) = 2 interior RT_1 bubbles of mixed, its last flux basis
    # functions
    mesh = build_structured_mesh(2)
    for dofs in _dof_maps(mesh):
        C, m = dofs.cell_blocks
        parts = {"hdg": [dofs.flux, dofs.scalar], "wg": [dofs.flux],
                 "primal": [dofs.flux],
                 "mixed": [dofs.flux[:, -2:]]}[dofs.method]
        condensed = np.hstack([dofs.flux[:, :0]] + parts)
        assert C == mesh.num_cells
        assert np.array_equal(condensed, np.arange(C * m).reshape(C, m)), (
            dofs.method)


def test_dof_map_arrays_are_read_only():
    mesh = build_structured_mesh(1)
    for dofs in _dof_maps(mesh):
        arrays = [f.name for f in fields(dofs)
                  if isinstance(getattr(dofs, f.name), np.ndarray)]
        assert {"flux", "scalar", "edge_trace"} <= set(arrays)
        assert isinstance(dofs.cell_blocks, tuple)
        for name in arrays:
            with pytest.raises(ValueError, match="read-only"):
                getattr(dofs, name)[...] = 0


def test_hdg_boundary_edges_carry_no_trace():
    mesh = build_structured_mesh(2)
    dofs = build_space_triple(mesh, SpaceCase("hdg", "rho_h", 0, 1.0))
    for ei in mesh.boundary_edges:
        assert np.all(dofs.edge_trace[ei] < 0)
    for ei in mesh.interior_edges:
        assert np.all(dofs.edge_trace[ei] >= 0)
    wg = build_space_triple(mesh, SpaceCase("wg", "rho_h", 0, 1.0))
    for ei in range(mesh.num_edges):
        assert np.all(wg.edge_trace[ei] >= 0)


def test_edge_projection_reproduces_polynomials():
    rng = np.random.default_rng(3)
    s = rng.random(40)
    for degree in range(4):
        poly = np.polynomial.Polynomial(rng.standard_normal(degree + 1))
        coeffs = project_to_edge_space(poly, degree)
        assert np.max(np.abs(eval_edge_function(coeffs, s) - poly(s))) < 1e-12


def test_edge_projection_linear_onto_constants():
    # P_0 projection of f(s) = s is the mean value 1/2
    coeffs = project_to_edge_space(lambda s: s, 0)
    assert coeffs.shape == (1,)
    assert abs(coeffs[0] - 0.5) < 1e-14


def test_edge_projection_properties():
    rng = np.random.default_rng(19)
    f = lambda s: np.sin(3.0 * s) + s**5
    quad_pts = np.linspace(0.01, 0.99, 33)
    for degree in (0, 1, 2, 3):
        coeffs = project_to_edge_space(f, degree)
        # idempotent: projecting the projection changes nothing
        again = project_to_edge_space(
            lambda s: eval_edge_function(coeffs, s), degree
        )
        assert np.max(np.abs(again - coeffs)) < 1e-12
        # contraction in L2 (orthonormal basis: coefficient norm <= ||f||)
        quad = np.polynomial.legendre.leggauss(30)
        s = 0.5 * (quad[0] + 1.0)
        w = 0.5 * quad[1]
        fnorm = np.sqrt(w @ f(s) ** 2)
        assert np.linalg.norm(coeffs) <= fnorm + 1e-12
        # residual orthogonal to the space
        resid_coeffs = project_to_edge_space(
            lambda s: f(s) - eval_edge_function(coeffs, s), degree
        )
        assert np.max(np.abs(resid_coeffs)) < 1e-12
