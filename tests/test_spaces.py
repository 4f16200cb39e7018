import numpy as np
import pytest

from hdgwg.mesh import build_structured_mesh
from hdgwg.spaces import SpaceCase, build_space_triple

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
    h = 0.25
    assert SpaceCase("hdg", "rho_h", 0, 0.5).stabilization(h) == 0.5 * h
    assert SpaceCase("wg", "inv", 0, 0.5).stabilization(h) == 1.0 / (0.5 * h)


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


def test_dof_map_partition():
    mesh = build_structured_mesh(2)
    for method, regime in [("hdg", "rho_h"), ("hdg", "inv"),
                           ("wg", "rho_h"), ("wg", "inv")]:
        case = SpaceCase(method, regime, 1, 0.3)
        dofs = build_space_triple(mesh, case)
        seen = np.zeros(dofs.total, dtype=int)
        for ci in range(mesh.num_cells):
            seen[dofs.cell_flux_dofs(ci)] += 1
            seen[dofs.cell_scalar_dofs(ci)] += 1
        for ei in range(mesh.num_edges):
            tr = dofs.edge_trace_dofs(ei)
            seen[tr[tr >= 0]] += 1
        assert np.all(seen == 1)
        # flux, then scalar, then trace
        flux = dofs.cell_flux_dofs()
        trace = dofs.edge_trace_dofs(dofs.trace_edges)
        assert flux.min() == 0
        assert flux.max() < dofs.cell_scalar_dofs().min()
        assert dofs.cell_scalar_dofs().max() < trace.min()
        assert trace.max() == dofs.total - 1


def test_hdg_boundary_edges_carry_no_trace():
    mesh = build_structured_mesh(2)
    dofs = build_space_triple(mesh, SpaceCase("hdg", "rho_h", 0, 1.0))
    for ei in mesh.boundary_edges:
        assert np.all(dofs.edge_trace_dofs(ei) < 0)
    for ei in mesh.interior_edges:
        assert np.all(dofs.edge_trace_dofs(ei) >= 0)
    wg = build_space_triple(mesh, SpaceCase("wg", "rho_h", 0, 1.0))
    for ei in range(mesh.num_edges):
        assert np.all(wg.edge_trace_dofs(ei) >= 0)


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
