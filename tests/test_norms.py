import numpy as np
import pytest

from hdgwg import basis
from hdgwg.assembly import (
    CoefficientField,
    ElementTables,
    assemble_hdg,
    assemble_mixed_conforming,
    assemble_primal_conforming,
    assemble_wg,
)
from hdgwg.experiments import manufactured_case
from hdgwg.mesh import build_structured_mesh
from hdgwg.norms import (
    assemble_norm_gram,
    broken_h1_distance,
    compute_error_norm,
    consistency_residual,
    dg_identity_residual,
    flux_distance,
    scalar_l2_distance,
)
from hdgwg.spaces import (SpaceCase, build_space_triple, mixed_dofs,
                          primal_dofs)

import cellwise
from cellwise import jittered_mesh, project_to_edge_space

ALL_REGIMES = [("hdg", "rho_h"), ("hdg", "inv"), ("wg", "rho_h"), ("wg", "inv")]


class ZeroExact:
    """All exact fields identically zero: errors equal solution norms."""

    def u(self, xy):
        return np.zeros(len(xy))

    def grad_u(self, xy):
        return np.zeros((len(xy), 2))

    def p(self, xy):
        return np.zeros((len(xy), 2))

    def f(self, xy):
        return np.zeros(len(xy))


@pytest.mark.parametrize("method,regime", ALL_REGIMES)
def test_error_norm_matches_gram_quadratic_form(method, regime):
    rng = np.random.default_rng(101)
    mesh = build_structured_mesh(2)
    case = SpaceCase(method, regime, 1, 0.25)
    dofs = build_space_triple(mesh, case)
    tables = ElementTables(mesh, case)
    N = assemble_norm_gram(mesh, dofs, tables)
    zero = ZeroExact()
    for _ in range(10):
        x = rng.standard_normal(dofs.total)
        ef, es = compute_error_norm(mesh, dofs, x, zero, tables)
        lhs = np.hypot(ef, es)
        ref = np.sqrt(x @ (N @ x))
        assert abs(lhs - ref) <= 1e-11 * ref


@pytest.mark.parametrize("method,regime,k,rho,mesh", [
    pytest.param(m, r, k, rho, mesh,
                 id="{}-{}-k{}-rho{:g}-{}".format(m, r, k, rho, name))
    for name, mesh in (("structured", build_structured_mesh(2)),
                       ("jittered", jittered_mesh()))
    for m, r in ALL_REGIMES for k in (0, 1) for rho in (1.0, 1e-3)])
def test_norm_pair_matches_cellwise_oracle(method, regime, k, rho, mesh):
    # the Gram and the error norm against the four pairs written out from
    # their definitions, cell by cell, with a non-polynomial coefficient
    rng = np.random.default_rng(7)
    coeff = CoefficientField(alpha=manufactured_case("varcoef").alpha)
    dofs = build_space_triple(mesh, SpaceCase(method, regime, k, rho))
    tables = ElementTables(mesh, dofs.case)
    N = assemble_norm_gram(mesh, dofs, tables, coeff=coeff)
    for _ in range(3):
        x = rng.standard_normal(dofs.total)
        ref = np.array(cellwise.norm_pair(mesh, dofs, x, coeff))
        got = compute_error_norm(mesh, dofs, x, ZeroExact(), tables,
                                 coeff=coeff)
        assert np.all(np.abs(np.array(got) - ref) <= 1e-12 * ref)
        total = np.hypot(*ref)
        assert abs(np.sqrt(x @ (N @ x)) - total) <= 1e-12 * total


@pytest.mark.parametrize("method,regime,mesh", [
    pytest.param(m, r, mesh, id="-".join([m, r] + ([name] if name else [])))
    for name, mesh in (("", build_structured_mesh(2)),
                       ("jittered", jittered_mesh()))
    for m, r in ALL_REGIMES])
def test_dg_boundary_pairing_identity(method, regime, mesh):
    rng = np.random.default_rng(3)
    case = SpaceCase(method, regime, 1, 0.5)
    dofs = build_space_triple(mesh, case)
    tables = ElementTables(mesh, case)
    for _ in range(25):
        x = rng.standard_normal(dofs.total)
        res = dg_identity_residual(mesh, dofs, x, tables)
        assert res <= 1e-12 * (1.0 + np.linalg.norm(x) ** 2)


def test_dg_identity_pointwise_edge_decomposition():
    # on a single interior edge: v1 q1.n1 + v2 q2.n2 equals
    # avg(q).jump(v) + jump(q).avg(v) for scalars at one point
    rng = np.random.default_rng(17)
    for _ in range(50):
        v1, v2 = rng.standard_normal(2)
        q1, q2 = rng.standard_normal((2, 2))
        n1 = rng.standard_normal(2)
        n1 /= np.linalg.norm(n1)
        n2 = -n1
        lhs = v1 * (q1 @ n1) + v2 * (q2 @ n2)
        rhs = 0.5 * (q1 + q2) @ (v1 * n1 + v2 * n2)
        rhs += (q1 @ n1 + q2 @ n2) * 0.5 * (v1 + v2)
        assert abs(lhs - rhs) < 1e-13


def test_zero_solution_error_is_exact_solution_norm():
    # wg_div scalar part is plain L2, and the sine solution has L2 norm 1/2
    mesh = build_structured_mesh(8)
    case = SpaceCase("wg", "inv", 0, 0.5)
    dofs = build_space_triple(mesh, case)
    prob = manufactured_case("sine")
    _, es = compute_error_norm(
        mesh, dofs, np.zeros(dofs.total), prob,
        tables=ElementTables(mesh, case, 10)
    )
    assert abs(es - 0.5) < 1e-10


class LinearExact:
    """u = x + 2y with p = -grad u; lies in every k >= 1 space triple."""

    def u(self, xy):
        return xy[:, 0] + 2.0 * xy[:, 1]

    def grad_u(self, xy):
        return np.broadcast_to([1.0, 2.0], (len(xy), 2)).copy()

    def p(self, xy):
        return np.broadcast_to([-1.0, -2.0], (len(xy), 2)).copy()

    def f(self, xy):
        return np.zeros(len(xy))


def _interpolate(mesh, dofs, case, exact):
    """Least-squares per-cell interpolant of exact fields into the triple."""
    x = np.zeros(dofs.total)
    et = ElementTables(mesh, case, quad_degree=2 * case.k + 4)
    for ci in range(mesh.num_cells):
        xy = et.xy[ci]
        target = exact.p(xy).T.ravel()  # component-major stacking
        A = np.concatenate([et.fval[ci, :, :, 0], et.fval[ci, :, :, 1]], axis=0)
        x[dofs.flux[ci]] = np.linalg.lstsq(A, target, rcond=None)[0]
        x[dofs.scalar[ci]] = np.linalg.lstsq(
            et.sval[ci], exact.u(xy), rcond=None
        )[0]
    for ei in np.flatnonzero(dofs.edge_trace[:, 0] >= 0):
        pa, pb = mesh.vertices[mesh.edge_vertices[ei]]
        normal = mesh.edge_normal[ei]
        if case.method == "hdg":
            trace = lambda s: exact.u(pa[None, :] + s[:, None] * (pb - pa))
        else:
            trace = lambda s: exact.p(
                pa[None, :] + s[:, None] * (pb - pa)
            ) @ normal
        x[dofs.edge_trace[ei]] = project_to_edge_space(
            trace, case.trace_deg
        )
    return x


@pytest.mark.parametrize("method,regime",
                         [("hdg", "rho_h"), ("wg", "rho_h"), ("wg", "inv")])
def test_in_space_solution_has_zero_error(method, regime):
    mesh = build_structured_mesh(2)
    case = SpaceCase(method, regime, 1, 0.3)
    dofs = build_space_triple(mesh, case)
    exact = LinearExact()
    x = _interpolate(mesh, dofs, case, exact)
    ef, es = compute_error_norm(mesh, dofs, x, exact,
                                ElementTables(mesh, case))
    assert ef < 1e-10
    assert es < 1e-10


def test_in_space_hdg_inv_boundary_penalty():
    # the gradient-type norm penalizes u_h against the eliminated (zero)
    # boundary trace, so for an interpolated linear u the scalar error is
    # exactly the boundary part of the penalty
    mesh = build_structured_mesh(2)
    case = SpaceCase("hdg", "inv", 1, 0.3)
    dofs = build_space_triple(mesh, case)
    exact = LinearExact()
    x = _interpolate(mesh, dofs, case, exact)
    ef, es = compute_error_norm(mesh, dofs, x, exact,
                                ElementTables(mesh, case))
    assert ef < 1e-10
    eq = basis.edge_quadrature(6)
    expected = 0.0
    for ei in mesh.boundary_edges:
        ci = mesh.edge_cells[ei, 0]
        pa, pb = mesh.vertices[mesh.edge_vertices[ei]]
        pts = pa[None, :] + eq.points[:, None] * (pb - pa)
        vals = exact.u(pts)
        coef = 1.0 / (case.rho * mesh.cell_size[ci])
        expected += coef * mesh.edge_length[ei] * (eq.weights @ vals**2)
    assert abs(es - np.sqrt(expected)) < 1e-10


def test_error_norm_homogeneity():
    rng = np.random.default_rng(29)
    mesh = build_structured_mesh(2)
    case = SpaceCase("hdg", "rho_h", 0, 0.1)
    dofs = build_space_triple(mesh, case)
    x = rng.standard_normal(dofs.total)
    zero = ZeroExact()
    tables = ElementTables(mesh, case)
    ef1, es1 = compute_error_norm(mesh, dofs, x, zero, tables)
    ef2, es2 = compute_error_norm(mesh, dofs, 2.0 * x, zero, tables)
    assert abs(ef2 - 2.0 * ef1) < 1e-11 * ef1
    assert abs(es2 - 2.0 * es1) < 1e-11 * es1


@pytest.mark.parametrize("method,regime", ALL_REGIMES)
def test_consistency_residual_polynomial_in_space(method, regime):
    mesh = build_structured_mesh(4)
    case = SpaceCase(method, regime, 1, 0.5)
    dofs = build_space_triple(mesh, case)
    prob = manufactured_case("poly")
    res = consistency_residual(mesh, dofs, prob,
                               tables=ElementTables(mesh, case, 9))
    assert res < 1e-10


def test_consistency_residual_decays_under_refinement():
    prob = manufactured_case("sine")
    case = SpaceCase("hdg", "rho_h", 0, 1.0)
    res = []
    for n in (4, 8):
        mesh = build_structured_mesh(n)
        dofs = build_space_triple(mesh, case)
        res.append(consistency_residual(mesh, dofs, prob,
                                        ElementTables(mesh, case)))
    assert res[0] / res[1] >= 1.8


def test_distance_functions_metric_properties():
    rng = np.random.default_rng(61)
    mesh = build_structured_mesh(2)
    case = SpaceCase("wg", "inv", 1, 0.5)
    dofs = build_space_triple(mesh, case)
    xa = rng.standard_normal(dofs.total)
    xb = rng.standard_normal(dofs.total)
    xc = rng.standard_normal(dofs.total)
    t = ElementTables(mesh, case)
    for dist in (broken_h1_distance, scalar_l2_distance, flux_distance):
        assert dist(mesh, dofs, xa, dofs, xa, t) < 1e-13
        dab = dist(mesh, dofs, xa, dofs, xb, t)
        assert abs(dab - dist(mesh, dofs, xb, dofs, xa, t)) < 1e-12
        dac = dist(mesh, dofs, xa, dofs, xc, t)
        dcb = dist(mesh, dofs, xc, dofs, xb, t)
        assert dab <= dac + dcb + 1e-12


def test_scalar_distance_cross_checks_error_norm():
    # wg_div scalar error with zero exact is the plain L2 norm, which the
    # distance helper must reproduce against the zero vector
    rng = np.random.default_rng(83)
    mesh = build_structured_mesh(2)
    case = SpaceCase("wg", "inv", 1, 1.0)
    dofs = build_space_triple(mesh, case)
    x = rng.standard_normal(dofs.total)
    t = ElementTables(mesh, case)
    _, es = compute_error_norm(mesh, dofs, x, ZeroExact(), tables=t)
    d = scalar_l2_distance(mesh, dofs, x, dofs, np.zeros(dofs.total), t)
    assert abs(es - d) < 1e-12 * es


def test_hdiv_flux_distance_includes_divergence():
    rng = np.random.default_rng(97)
    mesh = build_structured_mesh(2)
    case = SpaceCase("hdg", "rho_h", 1, 1.0)
    dofs = build_space_triple(mesh, case)
    xa = rng.standard_normal(dofs.total)
    zb = np.zeros(dofs.total)
    t = ElementTables(mesh, case)
    l2 = flux_distance(mesh, dofs, xa, dofs, zb, t, hdiv=False)
    hdiv = flux_distance(mesh, dofs, xa, dofs, zb, t, hdiv=True)
    assert hdiv > l2


def _distance_oracle(mesh, dofs_a, xa, dofs_b, xb):
    """Flux L2, flux broken H(div), broken H1 and scalar L2 distances cell
    by cell at degree 10, by the unbatched evaluators of ``cellwise``."""
    tri = basis.tri_quadrature(10)
    eq = basis.edge_quadrature(10)
    flux = div = h1 = scalar = 0.0
    for ci in range(mesh.num_cells):
        w = tri.weights * cellwise._geometry(mesh, ci)[2]
        pa, da = cellwise._flux_on_cell(mesh, dofs_a, xa, ci, tri.xy)
        pb, db = cellwise._flux_on_cell(mesh, dofs_b, xb, ci, tri.xy)
        ua, ga = cellwise._scalar_on_cell(mesh, dofs_a, xa, ci, tri.xy)
        ub, gb = cellwise._scalar_on_cell(mesh, dofs_b, xb, ci, tri.xy)
        flux += w @ np.sum((pa - pb) ** 2, axis=1)
        div += w @ (da - db) ** 2
        h1 += w @ np.sum((ga - gb) ** 2, axis=1)
        scalar += w @ (ua - ub) ** 2
    for ei in range(mesh.num_edges):
        jump = 0.0
        for ci, li in zip(mesh.edge_cells[ei], mesh.edge_local[ei]):
            if ci < 0:
                continue
            pts = cellwise._edge_ref_points(
                li, cellwise._side_flip(mesh, ci, li), eq.points)
            va, _ = cellwise._scalar_on_cell(mesh, dofs_a, xa, ci, pts)
            vb, _ = cellwise._scalar_on_cell(mesh, dofs_b, xb, ci, pts)
            jump = jump + mesh.cell_edge_sign[ci, li] * (va - vb)
        length = mesh.edge_length[ei]
        h1 += (eq.weights * length) @ jump**2 / length
    return np.sqrt([flux, flux + div, h1, scalar])


@pytest.mark.parametrize("method,k,mesh", [
    pytest.param(m, k, mesh, id="{}-k{}-{}".format(m, k, name))
    for name, mesh in (("structured", build_structured_mesh(4)),
                       ("jittered", jittered_mesh()))
    for m in ("hdg", "wg") for k in (0, 1)])
def test_limit_distances_match_cellwise_oracle(method, k, mesh):
    # each inv method against its conforming limit, on the inv tables
    rng = np.random.default_rng(k)
    case = SpaceCase(method, "inv", k, 0.1)
    dofs = build_space_triple(mesh, case)
    limit = primal_dofs(mesh, k) if method == "hdg" else mixed_dofs(mesh, k)
    x = rng.standard_normal(dofs.total)
    y = rng.standard_normal(limit.total)
    t = ElementTables(mesh, case)
    got = [flux_distance(mesh, dofs, x, limit, y, t),
           flux_distance(mesh, dofs, x, limit, y, t, hdiv=True),
           broken_h1_distance(mesh, dofs, x, limit, y, t),
           scalar_l2_distance(mesh, dofs, x, limit, y, t)]
    ref = _distance_oracle(mesh, dofs, x, limit, y)
    assert np.all(np.abs(np.array(got) - ref) <= 1e-12 * ref)


def test_tables_must_match_mesh_and_spaces():
    mesh = build_structured_mesh(2)
    other = build_structured_mesh(2)
    coeff = CoefficientField.unit()
    one = lambda xy: np.ones(len(xy))
    case = SpaceCase("hdg", "inv", 1, 0.5)
    dofs = build_space_triple(mesh, case)
    x = np.zeros(dofs.total)
    t = ElementTables(mesh, case)
    elsewhere = ElementTables(other, case)
    with pytest.raises(ValueError, match="another mesh"):
        assemble_hdg(mesh, dofs, coeff, one, tables=elsewhere)
    with pytest.raises(ValueError, match="another mesh"):
        compute_error_norm(mesh, dofs, x, ZeroExact(), tables=elsewhere)
    with pytest.raises(ValueError, match="another mesh"):
        flux_distance(mesh, dofs, x, dofs, x, elsewhere)
    # a DOF map on a mesh of another size
    coarse = build_space_triple(build_structured_mesh(1), case)
    with pytest.raises(ValueError, match="does not match the mesh"):
        assemble_norm_gram(mesh, coarse, tables=t)
    # local spaces: P_{k+1} against P_k scalars, vec against RT fluxes
    wg = SpaceCase("wg", "inv", 1, 0.5)
    mixed = mixed_dofs(mesh, 1)
    with pytest.raises(ValueError, match="do not match the element tables"):
        scalar_l2_distance(mesh, dofs, x, mixed, np.zeros(mixed.total), t)
    with pytest.raises(ValueError, match="do not match the element tables"):
        assemble_primal_conforming(mesh, primal_dofs(mesh, 1), coeff, one,
                                   tables=ElementTables(mesh, wg))
    with pytest.raises(ValueError, match="do not match the element tables"):
        assemble_mixed_conforming(mesh, mixed_dofs(mesh, 0), coeff, one,
                                  tables=ElementTables(mesh, wg))
    with pytest.raises(ValueError, match="do not match the element tables"):
        assemble_wg(mesh, build_space_triple(mesh, wg), coeff, one,
                    tables=t)
    # the trace space
    wide = SpaceCase("hdg", "inv", 1, 0.5, trace_degree=1)
    with pytest.raises(ValueError, match="another trace space"):
        dg_identity_residual(mesh, build_space_triple(mesh, wide),
                             np.zeros(dofs.total), tables=t)
