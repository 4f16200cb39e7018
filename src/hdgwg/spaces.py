"""Space triples for the four method regimes and their DOF management."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import basis

METHODS = ("hdg", "wg")
REGIMES = ("rho_h", "inv")


@dataclass(frozen=True)
class SpaceCase:
    """One method/space/parameter regime plus polynomial degree and rho.

    The regime fixes the space triple (flux x scalar x trace):

    ==========  ===========  ==============  ===========
    method      regime       triple          parameter
    ==========  ===========  ==============  ===========
    hdg         rho_h        RT_k, P_k, P_k       tau = rho h_K
    hdg         inv          P_k^2, P_{k+1}, P_{k+1}  tau = 1/(rho h_K)
    wg          rho_h        P_k^2, P_{k+1}, P_k  eta = rho h_K
    wg          inv          RT_k, P_k, P_k       eta = 1/(rho h_K)
    ==========  ===========  ==============  ===========

    ``trace_degree`` overrides the default trace polynomial degree (used for
    the printed-table variant of the hdg/inv regime).
    """

    method: str
    regime: str
    k: int
    rho: float
    trace_degree: int | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError("unknown method {!r}".format(self.method))
        if self.regime not in REGIMES:
            raise ValueError("unknown regime {!r}".format(self.regime))
        if self.k < 0:
            raise ValueError("polynomial degree k must be >= 0")
        if not 0.0 < self.rho <= 1.0:
            raise ValueError("rho must lie in (0, 1]")
        if self.flux_family == "rt" and self.k not in (0, 1):
            raise ValueError(
                "RT flux spaces support k in {{0, 1}}, got k={}".format(self.k)
            )
        if not 0 <= self.trace_deg <= 4:
            raise ValueError("trace degree must lie in [0, 4], got {}".format(
                self.trace_deg))
        if self.method == "hdg" and self.regime == "inv":
            # gradient inclusion grad V_h subset Q_h
            if self.scalar_degree - 1 > self.flux_degree:
                raise ValueError("hdg/inv requires grad V_h in Q_h")

    @property
    def flux_family(self):
        return "rt" if (self.method, self.regime) in (
            ("hdg", "rho_h"),
            ("wg", "inv"),
        ) else "vec"

    @property
    def flux_degree(self):
        return self.k

    @property
    def scalar_degree(self):
        return self.k if self.flux_family == "rt" else self.k + 1

    @property
    def trace_deg(self):
        if self.trace_degree is not None:
            return self.trace_degree
        if self.method == "hdg" and self.regime == "inv":
            return self.k + 1
        return self.k

    @property
    def local_spaces(self):
        """(flux family, flux degree, scalar degree) of the cell spaces."""
        return (self.flux_family, self.flux_degree, self.scalar_degree)

    @property
    def stabilization_factor(self):
        """f(rho) of the stabilization weight tau (hdg) or eta (wg) =
        f(rho) g(h_K): rho for rho_h, 1/rho for inv."""
        return self.rho if self.regime == "rho_h" else 1.0 / self.rho

    @property
    def stabilization_law(self):
        """g(h_K) of the stabilization weight f(rho) g(h_K), as a function
        of h_K: h_K for rho_h, 1/h_K for inv.  It does not depend on rho."""
        if self.regime == "rho_h":
            return lambda h: h
        return lambda h: 1.0 / h


@dataclass(frozen=True, eq=False)
class DofMap:
    """Global DOF layout of one method on one mesh, as per-cell index arrays.

    ``flux`` (C, nf) and ``scalar`` (C, nu) hold the global DOFs of each
    cell's local bases, ``edge_trace`` (E, nt) those of each edge's trace
    basis (nt = 0 for the conforming methods); -1 marks a DOF that the
    space eliminates.  ``flux_sign`` (C, nf) orients a shared flux basis,
    and is None for a broken flux.  ``cell_blocks`` (C, m): the first C m
    DOFs are the ones that couple only within their own cell, m per cell
    in cell order, for the static condensation of
    ``linalg.solve_symmetric_indefinite``.  ``case`` is the ``SpaceCase``
    of an HDG or WG map, None for the conforming limits.  The arrays are
    built once and read-only, since every caller shares them.
    """

    method: str
    local_spaces: tuple
    total: int
    flux: np.ndarray
    scalar: np.ndarray
    edge_trace: np.ndarray
    cell_blocks: tuple
    flux_sign: np.ndarray | None = None
    case: SpaceCase | None = None

    def __post_init__(self):
        for a in (self.flux, self.scalar, self.edge_trace, self.flux_sign):
            if a is not None:
                a.setflags(write=False)


def cell_block_dofs(offset, per_cell, num_cells):
    """DOFs ``offset + c * per_cell + [0, per_cell)`` of every cell c."""
    cells = np.arange(num_cells)[:, None]
    return offset + cells * per_cell + np.arange(per_cell)


def build_space_triple(mesh, case):
    """DofMap for ``case`` on ``mesh``: the condensed DOFs, then the
    other cell DOFs, then the trace DOFs, each cell's and edge's in one
    block.

    HDG trace DOFs live on interior edges only (boundary traces are
    eliminated by the space definition); WG trace DOFs live on all edges.

    HDG condenses flux and scalar, so cell c holds c (nf + nu) + [0, nf +
    nu).  Their cell block is quasi-definite, because the flux mass is SPD
    and the stabilization tau > 0 makes the scalar block -tau <u, v>
    negative definite.  WG condenses the flux alone.  Its (p, u) block is
    singular on cell constants, since (q, grad v) = 0 for constant v, so
    the scalar stays global with the trace.
    """
    family, fdeg, sdeg = case.local_spaces
    nf = (basis.rt_dim(fdeg) if family == "rt"
          else 2 * basis.scalar_dim(fdeg))
    nu, nt = basis.scalar_dim(sdeg), case.trace_deg + 1
    C = mesh.num_cells
    trace_edges = (mesh.interior_edges if case.method == "hdg"
                   else np.arange(mesh.num_edges))
    m = nf + nu if case.method == "hdg" else nf
    cell = np.concatenate([cell_block_dofs(0, m, C),
                           cell_block_dofs(C * m, nf + nu - m, C)], axis=1)
    edge_trace = np.full((mesh.num_edges, nt), -1, dtype=np.int64)
    edge_trace[trace_edges] = cell_block_dofs(C * (nf + nu), nt,
                                              len(trace_edges))
    return DofMap(
        method=case.method, local_spaces=case.local_spaces,
        total=C * (nf + nu) + len(trace_edges) * nt,
        flux=cell[:, :nf], scalar=cell[:, nf:], edge_trace=edge_trace,
        cell_blocks=(C, m), case=case)


def primal_dofs(mesh, k):
    """Broken vector P_k flux plus continuous P_{k+1} scalar with zero trace.

    The scalar DOFs of each cell follow ``basis.lattice_nodes``: vertices,
    edge nodes walked from the cell's start vertex of each local edge, then
    interior nodes; boundary nodes are eliminated.  Only the broken flux is
    local: its cell block is the SPD flux mass, so condensing it leaves the
    scalar stiffness system.
    """
    if k < 0:
        raise ValueError("polynomial degree k must be >= 0")
    C, nf = mesh.num_cells, 2 * basis.scalar_dim(k)
    boundary = np.zeros(mesh.num_vertices, dtype=bool)
    boundary[mesh.edge_vertices[mesh.boundary_edges]] = True
    vmap = np.full(mesh.num_vertices, -1, dtype=np.int64)
    vmap[~boundary] = C * nf + np.arange(np.count_nonzero(~boundary))
    nxt = C * nf + np.count_nonzero(~boundary)
    # k nodes inside each interior edge
    interior = mesh.interior_edges
    emap = np.full(mesh.num_edges, -1, dtype=np.int64)
    emap[interior] = nxt + k * np.arange(len(interior))
    nxt += k * len(interior)
    j = np.arange(k)
    along = np.where(mesh.cell_edge_flip[..., None], k - 1 - j, j)
    base = emap[mesh.cell_edges][..., None]
    edge_nodes = np.where(base >= 0, base + along, -1)
    per_cell = basis.scalar_dim(k + 1) - 3 - 3 * k
    flux = cell_block_dofs(0, nf, C)
    scalar = np.concatenate([vmap[mesh.cells], edge_nodes.reshape(C, -1),
                             cell_block_dofs(nxt, per_cell, C)], axis=1)
    return DofMap(
        method="primal", local_spaces=("vec", k, k + 1), cell_blocks=(C, nf),
        total=nxt + C * per_cell, flux=flux, scalar=scalar,
        edge_trace=np.empty((mesh.num_edges, 0), dtype=np.int64))


def mixed_dofs(mesh, k):
    """H(div)-conforming RT_k flux (shared edge moments and k (k + 1)
    interior bubbles per cell) plus broken P_k scalar.

    ``flux_sign`` orients the shared edge moments: they are signed by
    ``Mesh.cell_edge_sign``, and odd moments flip with the traversal.  Only
    the bubbles are cell-local, and they come first: their cell block is
    the SPD bubble mass, so condensing them leaves the edge moments and
    the scalar, whose block is zero, in the sparse factorization.
    """
    if k not in (0, 1):
        raise ValueError("mixed conforming method supports k in {0, 1}")
    C = mesh.num_cells
    per_edge, per_cell_int = k + 1, k * (k + 1)
    flux_total = mesh.num_edges * per_edge + C * per_cell_int
    nu = basis.scalar_dim(k)
    m = np.arange(per_edge)
    edge_dofs = C * per_cell_int + mesh.cell_edges[..., None] * per_edge + m
    edge_sign = mesh.cell_edge_sign[..., None] * np.where(
        mesh.cell_edge_flip[..., None], (-1.0) ** m, 1.0)
    interior = cell_block_dofs(0, per_cell_int, C)
    return DofMap(
        method="mixed", local_spaces=("rt", k, k),
        total=flux_total + C * nu,
        flux=np.concatenate([edge_dofs.reshape(C, -1), interior], axis=1),
        scalar=cell_block_dofs(flux_total, nu, C),
        edge_trace=np.empty((mesh.num_edges, 0), dtype=np.int64),
        cell_blocks=(C, per_cell_int),
        flux_sign=np.concatenate([edge_sign.reshape(C, -1),
                                  np.ones(interior.shape)], axis=1))
