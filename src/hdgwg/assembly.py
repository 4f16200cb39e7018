"""Assembly of the HDG/WG systems, their conforming limits, and norm Grams.

Every form is evaluated for all cells at once on the batched tables below
and scattered as stacked per-cell blocks.  Triplets are summed in a fixed
order with exact symmetric insertion, so A == A.T exactly and repeated runs
are bit-identical.

Subscripts in the ``einsum`` calls: ``c`` cell, ``l`` local edge, ``q``
quadrature point, ``a``/``b`` basis functions, ``s``/``t`` trace basis
functions, ``k`` vector component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from . import basis
from .mesh import Mesh
from .spaces import SpaceCase, cell_block_dofs


def at_points(fn, xy):
    """Evaluate a callable of (n, 2) points at points of shape (..., 2)."""
    out = np.asarray(fn(xy.reshape(-1, 2)), dtype=float)
    return out.reshape(xy.shape[:-1] + out.shape[1:])


@dataclass(frozen=True)
class CoefficientField:
    """Scalar diffusion coefficient alpha(x, y) > 0 and its inverse c."""

    alpha: Callable

    @staticmethod
    def unit():
        return CoefficientField(alpha=lambda xy: np.ones(len(xy)))

    def c_at(self, xy):
        a = at_points(self.alpha, xy)
        if np.any(a <= 0.0):
            raise ValueError("coefficient alpha must be strictly positive")
        return 1.0 / a


@dataclass
class LinearSystem:
    """Symmetric sparse system and its right-hand side."""

    matrix: sp.csr_matrix
    rhs: np.ndarray


def _point_shape(pts):
    """Leading shape of basis data at reference points: (1, n) for points
    (n, 2) shared by all cells, else the (C, ...) of per-cell points."""
    return (1,) + pts.shape[:-1] if pts.ndim == 2 else pts.shape[:-1]


def _per_cell(values, shape):
    """Per-cell (C, ...) values reshaped to broadcast against ``shape``."""
    return values.reshape((len(values),) + (1,) * (len(shape) - 1)
                          + values.shape[1:])


def edge_points(mesh, s):
    """Physical points (E, ns, 2) of edge parameters ``s`` on every edge."""
    pa = mesh.vertices[mesh.edge_vertices[:, 0]]
    pb = mesh.vertices[mesh.edge_vertices[:, 1]]
    return pa[:, None] + s[:, None] * (pb - pa)[:, None]


def side_points(mesh, s):
    """Reference points (C, 3, ns, 2) of edge parameters ``s`` on every cell
    side, following the global edge parameter."""
    ref = np.array([[a + np.multiply.outer(t, b - a) for t in (s, 1.0 - s)]
                    for a, b, _, _ in basis.REF_EDGES])
    return ref[np.arange(3), mesh.cell_edge_flip.astype(int)]


def edge_sides(mesh, side_values, edges=slice(None)):
    """Per-side values (C, 3, ...) gathered on both sides of ``edges``:
    (E', 2, ...) with the owner first and zeros for a missing neighbour."""
    cells = mesh.edge_cells[edges]
    vals = side_values[cells, mesh.edge_local[edges]]
    vals[cells < 0] = 0.0
    return vals


class ElementTables:
    """Basis values at quadrature points, mapped to all C cells at once.

    Built for the local spaces of one ``SpaceCase``: nf flux, nu scalar and
    nt trace basis functions.  The volume rule of nq points and the edge
    rule of ns points are both of degree ``quad_degree``, by default
    min(2 scalar_degree + 3, ``basis.MAX_QUADRATURE_DEGREE``).  That default
    is the one rule of the studies: each builds one set of tables per mesh
    and space and passes it to the assembler, the conforming limit method
    on the same local spaces, the Gram matrix, the error norm and the limit
    distances.  The tables do not depend on rho.

    Volume tables: weights ``w`` (C,nq), points ``xy`` (C,nq,2), scalar
    values ``sval`` (C,nq,nu) and physical gradients ``sgrad`` (C,nq,nu,2),
    flux values ``fval`` (C,nq,nf,2) and divergences ``fdiv`` (C,nq,nf).
    The flux family "rt" is RT_k under the contravariant Piola map; "vec"
    is (P_k)^2, x-components first.

    Edge tables, per cell side: arclength weights ``edge_w`` (C,3,ns), points
    ``edge_xy`` (C,3,ns,2), ``edge_sval`` (C,3,ns,nu), ``edge_fval``
    (C,3,ns,nf,2), the cell-outward normals ``normal`` (C,3,2) and the flux
    normal traces ``flux_n`` (C,3,ns,nf) against them.  Edge points follow
    the global edge parameter (lower to higher vertex), so the two sides of
    an interior edge see identical physical points; each side's reference
    points are picked by ``Mesh.cell_edge_flip``.  ``trace`` (ns,nt) is the
    orthonormal trace basis in that parameter, shared by all edges.
    """

    def __init__(self, mesh: Mesh, case: SpaceCase, quad_degree=None):
        self.mesh = mesh
        self.case = case
        self.local_spaces = case.local_spaces
        qd = (quad_degree if quad_degree is not None
              else min(2 * case.scalar_degree + 3, basis.MAX_QUADRATURE_DEGREE))
        self.vol = basis.tri_quadrature(qd)
        self.edge = basis.edge_quadrature(qd)
        family, fdeg, sdeg = self.local_spaces

        origin = mesh.vertices[mesh.cells[:, 0]]
        self.xy = (self.vol.xy @ np.swapaxes(mesh.cell_jac, 1, 2)
                   + origin[:, None])
        self.w = self.vol.weights * mesh.cell_det[:, None]
        self.sval, self.sgrad = self._scalar_basis(sdeg, self.vol.xy)
        self.fval, self.fdiv = self._flux_basis(family, fdeg, self.vol.xy)

        pts = side_points(mesh, self.edge.points)
        self.edge_w = (self.edge.weights
                       * mesh.edge_length[mesh.cell_edges][..., None])
        self.edge_xy = edge_points(mesh, self.edge.points)[mesh.cell_edges]
        self.edge_sval, _ = self._scalar_basis(sdeg, pts)
        self.edge_fval, _ = self._flux_basis(family, fdeg, pts)
        self.normal = (mesh.cell_edge_sign[..., None]
                       * mesh.edge_normal[mesh.cell_edges])
        self.flux_n = np.einsum("clqak,clk->clqa", self.edge_fval, self.normal)
        self.trace = basis.eval_edge_basis(case.trace_deg, self.edge.points)

    def _scalar_basis(self, degree, pts):
        """Lagrange P_degree values (C, ..., nb) and physical gradients
        (C, ..., nb, 2) at reference points ``pts``, (n, 2) shared by all
        cells or (C, ..., 2) per cell."""
        shape = _point_shape(pts)
        vals, grads = basis.eval_scalar_basis(degree, pts.reshape(-1, 2))
        grads = (grads.reshape(shape + grads.shape[1:])
                 @ _per_cell(self.mesh.cell_jac_inv, shape))
        vals = vals.reshape(shape + vals.shape[1:])
        return np.broadcast_to(vals, grads.shape[:-1]), grads

    def _flux_basis(self, family, degree, pts):
        """Flux values (C, ..., nb, 2) and divergences (C, ..., nb) at
        reference points ``pts`` (as above)."""
        if family == "vec":
            sval, sgrad = self._scalar_basis(degree, pts)
            nbs = sval.shape[-1]
            vals = np.zeros(sval.shape[:-1] + (2 * nbs, 2))
            vals[..., :nbs, 0] = sval
            vals[..., nbs:, 1] = sval
            return vals, np.concatenate([sgrad[..., 0], sgrad[..., 1]], axis=-1)
        mesh = self.mesh
        shape = _point_shape(pts)
        vals, divs = basis.eval_rt_basis(degree, pts.reshape(-1, 2))
        det = mesh.cell_det[:, None]
        piola = np.swapaxes(mesh.cell_jac, 1, 2) / det[:, :, None]
        vals = vals.reshape(shape + vals.shape[1:]) @ _per_cell(piola, shape)
        divs = divs.reshape(shape + divs.shape[1:]) / _per_cell(det, shape)
        return vals, divs

    def check(self, mesh, *dof_maps):
        """Raise ValueError unless these tables were built on ``mesh`` and
        every DOF map has their mesh size and local spaces."""
        if mesh is not self.mesh:
            raise ValueError("element tables were built on another mesh")
        for dofs in dof_maps:
            if dofs.num_cells != mesh.num_cells:
                raise ValueError("DOF map does not match the mesh")
            if dofs.local_spaces != self.local_spaces:
                raise ValueError(
                    "DOF map spaces {} do not match the element tables' {}"
                    .format(dofs.local_spaces, self.local_spaces))

    def edge_mass(self, values):
        """Arclength pairings with the trace basis, per side: (C,3,...,nt)
        for values (C,3,ns,...)."""
        return np.einsum("clq,clq...,qt->cl...t", self.edge_w, values,
                         self.trace)

    def trace_mass(self):
        """Arclength trace-basis Gram per side: (C,3,nt,nt)."""
        return np.einsum("clq,qs,qt->clst", self.edge_w, self.trace, self.trace)

    def moments(self, values):
        """Parametric trace-basis moments, per side: (C,3,nt,...) for values
        (C,3,ns,...)."""
        return np.einsum("q,qt,clq...->clt...", self.edge.weights, self.trace,
                         values)


class _Accumulator:
    """Triplet accumulator with exact symmetric insertion.  Each triplet is
    kept as its int64 key row * n + col and its value."""

    def __init__(self, n):
        self.n = n
        self.keys = []
        self.vals = []

    def add(self, rdofs, cdofs, block, mirror=False, sym=False):
        """Add blocks (..., a, b) at row DOFs (..., a) and column DOFs
        (..., b), broadcast over the leading axes.  Entries with a negative
        DOF are dropped."""
        block = np.asarray(block, dtype=float)
        if sym:
            # quadrature blocks are symmetric up to rounding; make it exact
            block = 0.5 * (block + np.swapaxes(block, -1, -2))
        r, c, v = np.broadcast_arrays(rdofs[..., :, None], cdofs[..., None, :],
                                      block)
        keep = (r >= 0) & (c >= 0)
        r = r[keep].astype(np.int64, copy=False)
        c = c[keep].astype(np.int64, copy=False)
        v = v[keep]
        self.keys.append(r * self.n + c)
        self.vals.append(v)
        if mirror:
            self.keys.append(c * self.n + r)
            self.vals.append(v)

    def tocsr(self):
        n = self.n
        if not self.keys:
            return sp.csr_matrix((n, n))
        key = np.concatenate(self.keys)
        v = np.concatenate(self.vals)
        self.keys, self.vals = [], []  # free before sorting
        # sum duplicates ourselves with a stable sort: mirrored triplets then
        # reduce in the same order on both sides of the diagonal, keeping the
        # assembled matrix bit-exactly symmetric
        order = np.argsort(key, kind="stable")
        key, v = key[order], v[order]
        first = np.empty(len(key), dtype=bool)
        first[0] = True
        first[1:] = key[1:] != key[:-1]
        starts = np.flatnonzero(first)
        # reduceat, not bincount: bincount sums each run in sequence and
        # reduceat long runs pairwise, so their sums differ in the last bit
        sums = np.add.reduceat(v, starts)
        key = key[starts]
        indptr = np.searchsorted(key, np.arange(n + 1) * n)
        return sp.csr_matrix((sums, key % n, indptr), shape=(n, n))


def checked_tables(mesh, dofs, tables):
    """``tables``, or new ones for ``dofs.case``, checked against the mesh
    and against the local and trace spaces of ``dofs``."""
    t = tables or ElementTables(mesh, dofs.case)
    t.check(mesh, dofs)
    if t.case.trace_deg != dofs.case.trace_deg:
        raise ValueError("element tables were built for another trace space")
    return t


def _check(dofs, case, method):
    if case.method != method:
        raise ValueError("case.method must be {!r}".format(method))
    if dofs.case != case:
        raise ValueError("DofMap was built for a different SpaceCase")


def _local_dofs(mesh, dofs):
    """Flux (C,nf), scalar (C,nu) and per-side trace (C,3,nt) DOFs."""
    return (dofs.cell_flux_dofs(), dofs.cell_scalar_dofs(),
            dofs.edge_trace_dofs(mesh.cell_edges))


def _flux_mass(t, weights):
    return np.einsum("cq,cqak,cqbk->cab", weights, t.fval, t.fval)


def _load(t, f):
    """Load vector -(f, v) per cell: (C, nu)."""
    return -np.einsum("cq,cqb->cb", t.w * at_points(f, t.xy), t.sval)


def assemble_hdg(mesh, dofs, case, coeff, f, tables=None):
    """HDG saddle system for unknowns (flux p, scalar u, trace u-hat)."""
    _check(dofs, case, "hdg")
    t = checked_tables(mesh, dofs, tables)
    acc = _Accumulator(dofs.total)
    rhs = np.zeros(dofs.total)
    pd, ud, td = _local_dofs(mesh, dofs)
    tau = case.stabilization(mesh.cell_size)[:, None, None]
    acc.add(pd, pd, _flux_mass(t, t.w * coeff.c_at(t.xy)), sym=True)
    acc.add(pd, ud, -np.einsum("cq,cqa,cqb->cab", t.w, t.fdiv, t.sval),
            mirror=True)
    rhs[ud] += _load(t, f)
    acc.add(pd[:, None], td, t.edge_mass(t.flux_n), mirror=True)
    acc.add(ud, ud, -tau * np.einsum("clq,clqa,clqb->cab", t.edge_w,
                                     t.edge_sval, t.edge_sval), sym=True)
    acc.add(ud[:, None], td, tau[..., None] * t.edge_mass(t.edge_sval),
            mirror=True)
    acc.add(td, td, -tau[..., None] * t.trace_mass(), sym=True)
    return LinearSystem(matrix=acc.tocsr(), rhs=rhs)


def assemble_wg(mesh, dofs, case, coeff, f, tables=None):
    """WG saddle system for unknowns (flux p, scalar u, trace p-hat)."""
    _check(dofs, case, "wg")
    t = checked_tables(mesh, dofs, tables)
    acc = _Accumulator(dofs.total)
    rhs = np.zeros(dofs.total)
    pd, ud, td = _local_dofs(mesh, dofs)
    eta = case.stabilization(mesh.cell_size)[:, None, None]
    sign = mesh.cell_edge_sign[..., None, None]
    # mass plus stabilization eta <(p - p-hat n_e).n_K, (q - q-hat n_e).n_K>
    acc.add(pd, pd, _flux_mass(t, t.w * coeff.c_at(t.xy))
            + eta * np.einsum("clq,clqa,clqb->cab", t.edge_w, t.flux_n,
                              t.flux_n), sym=True)
    # b_w volume part (q, grad v)
    acc.add(pd, ud, np.einsum("cq,cqak,cqbk->cab", t.w, t.fval, t.sgrad),
            mirror=True)
    rhs[ud] += _load(t, f)
    # b_w edge part -<sigma q-hat, v>
    acc.add(ud[:, None], td, -sign * t.edge_mass(t.edge_sval), mirror=True)
    acc.add(pd[:, None], td, -eta[..., None] * sign * t.edge_mass(t.flux_n),
            mirror=True)
    acc.add(td, td, eta[..., None] * t.trace_mass(), sym=True)
    return LinearSystem(matrix=acc.tocsr(), rhs=rhs)


class PrimalDofMap:
    """Broken vector P_k flux plus continuous P_{k+1} scalar with zero trace.

    ``scalar_l2g`` (C, nb) maps the local lattice nodes of the basis to
    global scalar DOFs; boundary nodes are eliminated (entry -1).
    """

    def __init__(self, mesh, k):
        if k < 0:
            raise ValueError("polynomial degree k must be >= 0")
        self.k = k
        self.degree = k + 1
        self.local_spaces = ("vec", k, k + 1)
        self.num_cells = mesh.num_cells
        self.flux_per_cell = 2 * basis.scalar_dim(k)
        self.flux_total = mesh.num_cells * self.flux_per_cell
        d = self.degree
        boundary = np.zeros(mesh.num_vertices, dtype=bool)
        boundary[mesh.edge_vertices[mesh.boundary_edges]] = True
        vmap = np.full(mesh.num_vertices, -1, dtype=np.int64)
        vmap[~boundary] = np.arange(np.count_nonzero(~boundary))
        nxt = np.count_nonzero(~boundary)
        per_edge = d - 1
        emap = np.full(mesh.num_edges, -1, dtype=np.int64)
        emap[mesh.interior_edges] = nxt + per_edge * np.arange(
            len(mesh.interior_edges))
        nxt += per_edge * len(mesh.interior_edges)
        per_cell_int = basis.scalar_dim(d) - 3 - 3 * per_edge
        cell_int_start = nxt
        self.scalar_total = nxt + mesh.num_cells * per_cell_int

        # edge nodes walk from the cell's start vertex of each local edge
        j = np.arange(per_edge)
        along = np.where(mesh.cell_edge_flip[..., None], per_edge - 1 - j, j)
        base = emap[mesh.cell_edges][..., None]
        edge_nodes = np.where(base >= 0, base + along, -1)
        self.scalar_l2g = np.concatenate([
            vmap[mesh.cells],
            edge_nodes.reshape(mesh.num_cells, -1),
            cell_block_dofs(cell_int_start, per_cell_int, mesh.num_cells),
        ], axis=1)
        self.total = self.flux_total + self.scalar_total

    def cell_flux_dofs(self, ci=None):
        return cell_block_dofs(0, self.flux_per_cell, self.num_cells, ci)

    def cell_coefficients(self, x):
        """Per-cell flux (C, nf) and scalar (C, nb) basis coefficients of
        ``x``; eliminated boundary nodes read zero."""
        g = self.scalar_l2g
        return (x[self.cell_flux_dofs()],
                np.where(g >= 0, x[self.flux_total + np.maximum(g, 0)], 0.0))

    def cell_local_dofs(self):
        """The broken flux, (C, 2 dim P_k): its cell block is the SPD flux
        mass, so condensing it leaves the scalar stiffness system."""
        return self.cell_flux_dofs()


def assemble_primal_conforming(mesh, k, coeff, f, tables=None):
    """Primal conforming method: (c p, q) + (grad u, q) = 0, -(p, grad v) = (f, v).

    Its local spaces are those of hdg/inv, whose rho -> 0 limit it is, so it
    runs on that case's ``tables`` (built here by default).
    """
    dofs = PrimalDofMap(mesh, k)
    t = tables or ElementTables(mesh, SpaceCase("hdg", "inv", k, 1.0))
    t.check(mesh, dofs)
    acc = _Accumulator(dofs.total)
    rhs = np.zeros(dofs.total)
    pd = dofs.cell_flux_dofs()
    g = dofs.scalar_l2g
    gd = np.where(g >= 0, dofs.flux_total + g, -1)
    acc.add(pd, pd, _flux_mass(t, t.w * coeff.c_at(t.xy)), sym=True)
    acc.add(pd, gd, np.einsum("cq,cqak,cqbk->cab", t.w, t.fval, t.sgrad),
            mirror=True)
    np.add.at(rhs, gd[g >= 0], _load(t, f)[g >= 0])
    return LinearSystem(matrix=acc.tocsr(), rhs=rhs), dofs


class MixedDofMap:
    """H(div)-conforming RT_k flux (shared edge moments) plus broken P_k scalar.

    ``flux_l2g`` (C, nf) maps the local RT basis to global flux DOFs and
    ``flux_sign`` (C, nf) orients it: the edge moments are signed by
    ``Mesh.cell_edge_sign``, and odd moments flip with the traversal.
    """

    def __init__(self, mesh, k):
        if k not in (0, 1):
            raise ValueError("mixed conforming method supports k in {0, 1}")
        self.k = k
        self.local_spaces = ("rt", k, k)
        self.num_cells = mesh.num_cells
        self.per_edge = k + 1
        self.per_cell_int = k * (k + 1)
        self.flux_edge_total = mesh.num_edges * self.per_edge
        self.flux_total = self.flux_edge_total + mesh.num_cells * self.per_cell_int
        self.scalar_per_cell = basis.scalar_dim(k)
        self.total = self.flux_total + mesh.num_cells * self.scalar_per_cell
        m = np.arange(self.per_edge)
        edge_dofs = mesh.cell_edges[..., None] * self.per_edge + m
        edge_sign = mesh.cell_edge_sign[..., None] * np.where(
            mesh.cell_edge_flip[..., None], (-1.0) ** m, 1.0)
        interior = cell_block_dofs(self.flux_edge_total, self.per_cell_int,
                                   mesh.num_cells)
        self.flux_l2g = np.concatenate(
            [edge_dofs.reshape(mesh.num_cells, -1), interior], axis=1)
        self.flux_sign = np.concatenate(
            [edge_sign.reshape(mesh.num_cells, -1), np.ones(interior.shape)],
            axis=1)

    def cell_scalar_dofs(self, ci=None):
        return cell_block_dofs(self.flux_total, self.scalar_per_cell,
                               self.num_cells, ci)

    def cell_coefficients(self, x):
        """Per-cell flux (C, nf) and scalar (C, nu) basis coefficients of
        ``x``, the flux oriented by ``flux_sign``."""
        return self.flux_sign * x[self.flux_l2g], x[self.cell_scalar_dofs()]

    def cell_local_dofs(self):
        """No DOF is cell-local, so (C, 0): the flux is shared across edges
        and the scalar block is zero, so everything stays in the sparse
        factorization."""
        return np.empty((self.num_cells, 0), dtype=np.int64)


def assemble_mixed_conforming(mesh, k, coeff, f, tables=None):
    """Mixed conforming method: (c p, q) - (u, div q) = 0, (div p, v) = (f, v).

    Its local spaces are those of wg/inv, whose rho -> 0 limit it is, so it
    runs on that case's ``tables`` (built here by default).
    """
    dofs = MixedDofMap(mesh, k)
    t = tables or ElementTables(mesh, SpaceCase("wg", "inv", k, 1.0))
    t.check(mesh, dofs)
    acc = _Accumulator(dofs.total)
    rhs = np.zeros(dofs.total)
    idx, sgn = dofs.flux_l2g, dofs.flux_sign
    mass = _flux_mass(t, t.w * coeff.c_at(t.xy))
    acc.add(idx, idx, sgn[:, :, None] * mass * sgn[:, None, :], sym=True)
    div_block = np.einsum("cq,cqa,cqb->cab", t.w, t.fdiv, t.sval)
    ud = dofs.cell_scalar_dofs()
    acc.add(idx, ud, -sgn[:, :, None] * div_block, mirror=True)
    rhs[ud] += _load(t, f)
    return LinearSystem(matrix=acc.tocsr(), rhs=rhs), dofs


_KIND_FOR_CASE = {
    ("hdg", "rho_h"): "hdg_div",
    ("hdg", "inv"): "hdg_grad",
    ("wg", "rho_h"): "wg_grad",
    ("wg", "inv"): "wg_div",
}


def norm_kind_for_case(case):
    return _KIND_FOR_CASE[(case.method, case.regime)]


def assemble_norm_gram(mesh, dofs, coeff=None, tables=None):
    """Gram matrix N of the parameter-dependent norm pair: x'Nx = |x|^2.

    The norm kind and rho are those of ``dofs.case``.
    """
    case = dofs.case
    norm_kind, rho = norm_kind_for_case(case), case.rho
    coeff = coeff or CoefficientField.unit()
    t = checked_tables(mesh, dofs, tables)
    acc = _Accumulator(dofs.total)
    pd, ud, td = _local_dofs(mesh, dofs)
    h = mesh.cell_size[:, None, None]
    div = norm_kind in ("hdg_div", "wg_div")

    pp = _flux_mass(t, t.w * coeff.c_at(t.xy))
    if div:
        pp = pp + np.einsum("cq,cqa,cqb->cab", t.w, t.fdiv, t.fdiv)
        uu = np.einsum("cq,cqa,cqb->cab", t.w, t.sval, t.sval)
    else:
        uu = np.einsum("cq,cqak,cqbk->cab", t.w, t.sgrad, t.sgrad)
    if norm_kind == "hdg_grad":
        coef = 1.0 / (rho * h)
        uu = uu + coef * np.einsum("clq,clqa,clqb->cab", t.edge_w, t.edge_sval,
                                   t.edge_sval)
        acc.add(ud[:, None], td, -coef[..., None] * t.edge_mass(t.edge_sval),
                mirror=True)
        acc.add(td, td, coef[..., None] * t.trace_mass(), sym=True)
    if norm_kind in ("wg_grad", "wg_div"):
        coef = rho * h if norm_kind == "wg_grad" else 1.0 / (rho * h)
        sign = mesh.cell_edge_sign[..., None, None]
        pp = pp + coef * np.einsum("clq,clqa,clqb->cab", t.edge_w, t.flux_n,
                                   t.flux_n)
        acc.add(pd[:, None], td, -coef[..., None] * sign * t.edge_mass(t.flux_n),
                mirror=True)
        acc.add(td, td, coef[..., None] * t.trace_mass(), sym=True)
    acc.add(pd, pd, pp, sym=True)
    acc.add(ud, ud, uu, sym=True)

    if norm_kind == "hdg_div":
        # scalar trace term rho h_e <v-hat, v-hat>_e = rho h_e^2 (coefficients)
        trace_dofs = dofs.edge_trace_dofs(dofs.trace_edges)
        h_e = mesh.edge_length[dofs.trace_edges][:, None, None]
        acc.add(trace_dofs, trace_dofs,
                rho * h_e * h_e * np.eye(case.trace_deg + 1))
        # projected normal-jump term rho^{-1} h_e^{-1} <P[q], P[q]>
        _add_jump_gram(acc, mesh, t.moments(t.flux_n), pd, mesh.interior_edges,
                       1.0 / rho)
    if norm_kind == "wg_grad":
        # same moment construction for the scalar jump [v] (all edges)
        moments = mesh.cell_edge_sign[..., None, None] * t.moments(t.edge_sval)
        _add_jump_gram(acc, mesh, moments, ud, slice(None), 1.0 / rho)
    return acc.tocsr()


def _add_jump_gram(acc, mesh, moments, cell_dofs, edges, coef):
    """Accumulate coef * sum_m mu_m^2 per edge, with mu the moments of the
    jump: the sum of the (signed) side ``moments`` over the edge's cells.

    For the orthonormal trace basis this equals coef * h_e^{-1}
    <P_e[.], P_e[.]>_e with P_e the L^2(e) projection onto the trace space.
    """
    J = edge_sides(mesh, moments, edges)
    J = np.concatenate([J[:, 0], J[:, 1]], axis=-1)
    cells = mesh.edge_cells[edges]
    gd = np.where(cells[..., None] >= 0, cell_dofs[cells], -1)
    gd = gd.reshape(len(gd), -1)
    acc.add(gd, gd, coef * np.einsum("eta,etb->eab", J, J), sym=True)
