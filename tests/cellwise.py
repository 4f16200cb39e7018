"""Unbatched per-cell evaluators, the independent side of the form oracles.

Each function works on one cell at a time with its own affine geometry, so
the tests compare the batched kernels of ``hdgwg`` against code that shares
nothing with them but the reference bases and the mesh arrays.  Edge L2
projections, the four norm pairs written out from their definitions, a
reader for ``linalg.write_matrix`` text and a second inf-sup eigensolve
serve as oracles too.
"""

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from hdgwg import basis
from hdgwg.mesh import Mesh, build_structured_mesh


def one_rule(scalar_degree):
    """Quadrature degree of every cell integral in hdgwg."""
    return min(2 * scalar_degree + 3, basis.MAX_QUADRATURE_DEGREE)


def jittered_mesh():
    """``build_structured_mesh(4)`` with each interior vertex moved by at
    most 0.15 h, deterministically; every cell stays counterclockwise."""
    base = build_structured_mesh(4)
    h = 0.25
    rng = np.random.default_rng(0)
    v = base.vertices
    interior = np.all((v > 0.0) & (v < 1.0), axis=1)
    # each component within 0.15 h / sqrt(2), so the move is at most 0.15 h
    shift = rng.uniform(-1.0, 1.0, v.shape) * 0.15 * h / np.sqrt(2.0)
    return Mesh(v + interior[:, None] * shift, base.cells)


def shuffled_mesh():
    """``build_structured_mesh(8)`` with its cells in a fixed random order,
    so that no cell index follows the grid."""
    base = build_structured_mesh(8)
    order = np.random.default_rng(1).permutation(base.num_cells)
    return Mesh(base.vertices, base.cells[order])


def _geometry(mesh, ci):
    p = mesh.vertices[mesh.cells[ci]]
    A = np.column_stack([p[1] - p[0], p[2] - p[0]])
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    return A, p[0], det, np.linalg.inv(A)


def _side_flip(mesh, ci, li):
    ei = mesh.cell_edges[ci, li]
    local_start = int(mesh.cells[ci][(li + 1) % 3])
    return local_start != mesh.edge_vertices[ei, 0]


def _edge_ref_points(li, flip, s):
    a, b, _, _ = basis.REF_EDGES[li]
    t = 1.0 - s if flip else s
    return a[None, :] + t[:, None] * (b - a)[None, :]


def _scalar_on_cell(mesh, dofs, x, ci, ref_pts):
    """Scalar field of a solution vector on cell ``ci``: (values, gradients);
    eliminated DOFs read zero."""
    d = dofs.scalar[ci]
    coeffs = np.where(d >= 0, x[d], 0.0)
    vals, grads = basis.eval_scalar_basis(dofs.local_spaces[2], ref_pts)
    _, _, _, invA = _geometry(mesh, ci)
    phys_grads = np.einsum("qbd,dc->qbc", grads, invA)
    return vals @ coeffs, np.einsum("qbc,b->qc", phys_grads, coeffs)


def _flux_on_cell(mesh, dofs, x, ci, ref_pts):
    """Flux field of a solution vector on cell ``ci``: (values, divergences),
    the local basis oriented by ``flux_sign``."""
    A, _, det, invA = _geometry(mesh, ci)
    family, degree, _ = dofs.local_spaces
    coeffs = x[dofs.flux[ci]]
    if dofs.flux_sign is not None:
        coeffs = dofs.flux_sign[ci] * coeffs
    if family == "rt":
        rv, rd = basis.eval_rt_basis(degree, ref_pts)
        vals = np.einsum("qbc,b->qc", rv @ (A.T / det), coeffs)
        divs = (rd / det) @ coeffs
        return vals, divs
    sval, sgrad = basis.eval_scalar_basis(degree, ref_pts)
    nbs = sval.shape[1]
    cx, cy = coeffs[:nbs], coeffs[nbs:]
    vals = np.column_stack([sval @ cx, sval @ cy])
    pg = np.einsum("qbd,dc->qbc", sgrad, invA)
    divs = pg[:, :, 0] @ cx + pg[:, :, 1] @ cy
    return vals, divs


def project_to_edge_space(f, degree, quad_degree=None):
    """L^2(0,1) projection coefficients of ``f`` in the orthonormal edge basis.

    ``f`` is a callable of the edge parameter s in [0, 1] (vectorized) or an
    array of values at the quadrature nodes.
    """
    if quad_degree is None:
        quad_degree = 2 * degree + 9
    quad = basis.edge_quadrature(quad_degree)
    values = f(quad.points) if callable(f) else np.asarray(f, dtype=float)
    leg = basis.eval_edge_basis(degree, quad.points)
    return (quad.weights * values) @ leg


def eval_edge_function(coeffs, s):
    """Evaluate an edge function from its orthonormal-basis coefficients."""
    coeffs = np.asarray(coeffs, dtype=float)
    return basis.eval_edge_basis(len(coeffs) - 1, s) @ coeffs


def _outward(mesh, ci, li):
    """Outward unit normal and length of side ``li`` of the counterclockwise
    cell ``ci``, which runs from its vertex li+1 to its vertex li+2."""
    p = mesh.vertices[mesh.cells[ci]]
    t = p[(li + 2) % 3] - p[(li + 1) % 3]
    length = np.hypot(t[0], t[1])
    return np.array([t[1], -t[0]]) / length, length


def norm_pair(mesh, dofs, x, coeff):
    """(flux, scalar) norms of ``x`` in the norm pair of ``dofs.case``,
    written out from their definitions cell by cell and edge by edge:

    =========  ==================================  ==========================
    case       flux norm squared                   scalar norm squared
    =========  ==================================  ==========================
    hdg/rho_h  c|p|^2 + |div p|^2                  |u|^2
               + rho^-1 sum_int h_e^-1 |P_e[p.n]|^2  + rho sum h_e |u-hat|^2
    hdg/inv    c|p|^2                              |grad u|^2 + sum_K
                                                   (rho h_K)^-1 |u - u-hat|^2
    wg/rho_h   c|p|^2 + sum_K rho h_K               |grad u|^2
               |p.n_K - sigma p-hat|^2_dK          + rho^-1 sum_e h_e^-1
                                                   |Q_e[u]|^2
    wg/inv     c|p|^2 + |div p|^2 + sum_K           |u|^2
               (rho h_K)^-1 |p.n_K - sigma p-hat|^2
    =========  ==================================  ==========================

    Here c = 1/alpha of ``coeff``, h_K = sqrt(2 |K|), sigma = n_K . n_e,
    P_e and Q_e are the L^2(e) projections onto the trace space, [.] is
    the jump (the one-sided value on the boundary), and u-hat is zero on
    edges without trace DOFs.  Cell integrals use the package's one rule,
    so that a non-polynomial c integrates to the same quadrature sum.
    """
    case = dofs.case
    rho = case.rho
    pair = (case.method, case.regime)
    deg = one_rule(case.scalar_degree)
    tri, eq = basis.tri_quadrature(deg), basis.edge_quadrature(deg)
    tv = basis.eval_edge_basis(case.trace_deg, eq.points)

    def hat(ei):
        td = dofs.edge_trace[ei]
        return tv @ np.where(td >= 0, x[td], 0.0)

    def on_side(field, ci, li):
        """Values of ``field`` (``_flux_on_cell`` or ``_scalar_on_cell``)
        on side ``li`` of cell ``ci`` at the edge nodes."""
        pts = _edge_ref_points(li, _side_flip(mesh, ci, li), eq.points)
        return field(mesh, dofs, x, ci, pts)[0]

    def projected_square(values):
        """h_e^-1 |P_e[values]|^2_e for values at the edge nodes: the
        parametric basis is orthonormal on (0, 1) and ds = h_e ds_param, so
        |P_e[g]|^2_e = h_e sum_m coeffs_m^2."""
        return np.sum(project_to_edge_space(values, case.trace_deg, deg) ** 2)

    flux = scalar = 0.0
    for ci in range(mesh.num_cells):
        A, b0, det, _ = _geometry(mesh, ci)
        w = tri.weights * det
        c = coeff.c_at(tri.xy @ A.T + b0)
        p, div_p = _flux_on_cell(mesh, dofs, x, ci, tri.xy)
        u, grad_u = _scalar_on_cell(mesh, dofs, x, ci, tri.xy)
        flux += w @ (c * np.sum(p**2, axis=1))
        if pair in (("hdg", "rho_h"), ("wg", "inv")):
            flux += w @ div_p**2
            scalar += w @ u**2
        else:
            scalar += w @ np.sum(grad_u**2, axis=1)
        h_K = np.sqrt(det)
        for li in range(3):
            ei = mesh.cell_edges[ci, li]
            n_K, length = _outward(mesh, ci, li)
            we = eq.weights * length
            if pair == ("hdg", "inv"):
                v = on_side(_scalar_on_cell, ci, li)
                scalar += we @ (v - hat(ei)) ** 2 / (rho * h_K)
            elif case.method == "wg":
                q = on_side(_flux_on_cell, ci, li)
                sigma = np.sign(n_K @ mesh.edge_normal[ei])
                weight = (rho * h_K if case.regime == "rho_h"
                          else 1.0 / (rho * h_K))
                flux += weight * (we @ (q @ n_K - sigma * hat(ei)) ** 2)

    for ei in range(mesh.num_edges):
        pa, pb = mesh.vertices[mesh.edge_vertices[ei]]
        length = np.hypot(*(pb - pa))
        sides = [(ci, li) for ci, li in zip(mesh.edge_cells[ei],
                                            mesh.edge_local[ei]) if ci >= 0]
        if pair == ("hdg", "rho_h"):
            scalar += rho * length * ((eq.weights * length) @ hat(ei) ** 2)
            if len(sides) == 2:
                jump = sum(on_side(_flux_on_cell, ci, li)
                           @ _outward(mesh, ci, li)[0] for ci, li in sides)
                flux += projected_square(jump) / rho
        if pair == ("wg", "rho_h"):
            values = [on_side(_scalar_on_cell, ci, li) for ci, li in sides]
            jump = values[0] - values[1] if len(values) == 2 else values[0]
            scalar += projected_square(jump) / rho
    return np.sqrt(flux), np.sqrt(scalar)


def read_matrix(fh):
    """Read the square coordinate text format produced by write_matrix."""
    rows, cols, vals = [], [], []
    for line in fh:
        if not line.strip():
            continue
        r, c, v = line.split()
        rows.append(int(r))
        cols.append(int(c))
        vals.append(float(v))
    n = max(max(rows), max(cols)) + 1 if rows else 0
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def min_generalized_singular_value(A, N):
    """Smallest |lambda| of the pencil (A, N) by a Cholesky SPD check of N
    and the default divide-and-conquer ``eigh`` on C-ordered copies."""
    Ad = A.toarray() if sp.issparse(A) else np.asarray(A, dtype=float)
    Nd = N.toarray() if sp.issparse(N) else np.asarray(N, dtype=float)
    if Ad.shape != Nd.shape or Ad.shape[0] != Ad.shape[1]:
        raise ValueError("A and N must be square with equal shapes")
    try:
        scipy.linalg.cholesky(Nd)
    except scipy.linalg.LinAlgError as exc:
        raise ValueError("norm matrix N must be symmetric positive definite") from exc
    eigvals = scipy.linalg.eigh(Ad, Nd, eigvals_only=True)
    return float(np.min(np.abs(eigvals)))
