"""Space triples for the four method regimes and their DOF management."""

from __future__ import annotations

from dataclasses import dataclass, field

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
        if self.trace_deg > 4:
            raise ValueError("trace degree {} not supported".format(self.trace_deg))
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
    def stabilization(self):
        """Per-cell stabilization weight as a function of h_K."""
        if self.regime == "rho_h":
            return lambda h: self.rho * h
        return lambda h: 1.0 / (self.rho * h)

    def flux_dim_per_cell(self):
        if self.flux_family == "rt":
            return basis.rt_dim(self.flux_degree)
        return 2 * basis.scalar_dim(self.flux_degree)

    def scalar_dim_per_cell(self):
        return basis.scalar_dim(self.scalar_degree)

    def trace_dim_per_edge(self):
        return self.trace_deg + 1


@dataclass
class DofMap:
    """Global DOF layout: all flux DOFs, then scalar DOFs, then trace DOFs.

    HDG trace DOFs live on interior edges only (boundary traces are
    eliminated by the space definition); WG trace DOFs live on all edges.
    """

    case: SpaceCase
    num_cells: int
    trace_edges: np.ndarray
    flux_per_cell: int
    scalar_per_cell: int
    trace_per_edge: int
    edge_offset: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        self.flux_offset = 0
        self.scalar_offset = self.num_cells * self.flux_per_cell
        self.trace_offset = self.scalar_offset + self.num_cells * self.scalar_per_cell
        self.total = self.trace_offset + len(self.trace_edges) * self.trace_per_edge

    @property
    def local_spaces(self):
        return self.case.local_spaces

    def cell_flux_dofs(self, ci=None):
        """Flux DOFs of cell(s) ``ci`` (default all cells): (..., flux_per_cell)."""
        return cell_block_dofs(self.flux_offset, self.flux_per_cell,
                               self.num_cells, ci)

    def cell_scalar_dofs(self, ci=None):
        """Scalar DOFs of cell(s) ``ci`` (default all cells)."""
        return cell_block_dofs(self.scalar_offset, self.scalar_per_cell,
                               self.num_cells, ci)

    def cell_coefficients(self, x):
        """Per-cell flux (C, nf) and scalar (C, nu) basis coefficients of
        ``x``."""
        return x[self.cell_flux_dofs()], x[self.cell_scalar_dofs()]

    def cell_local_dofs(self):
        """DOFs that couple only within their own cell, (C, m), for static
        condensation in ``linalg.solve_symmetric_indefinite``.

        HDG: flux and scalar.  Their cell block is quasi-definite, because
        the flux mass is SPD and the stabilization tau > 0 makes the scalar
        block -tau <u, v> negative definite.  WG: the flux alone.  Its
        (p, u) block is singular on cell constants, since (q, grad v) = 0
        for constant v, so the scalar stays global with the trace.
        """
        if self.case.method == "hdg":
            return np.concatenate([self.cell_flux_dofs(),
                                   self.cell_scalar_dofs()], axis=1)
        return self.cell_flux_dofs()

    def edge_trace_dofs(self, ei):
        """Trace DOFs of edge(s) ``ei``: (..., trace_per_edge), -1 on edges
        that carry none."""
        pos = self.edge_offset[ei][..., None]
        dofs = self.trace_offset + pos * self.trace_per_edge
        return np.where(pos >= 0, dofs + np.arange(self.trace_per_edge), -1)


def cell_block_dofs(offset, per_cell, num_cells, ci=None):
    """DOFs ``offset + ci * per_cell + [0, per_cell)`` of cell(s) ``ci``."""
    cells = np.arange(num_cells) if ci is None else np.asarray(ci)
    return offset + cells[..., None] * per_cell + np.arange(per_cell)


def build_space_triple(mesh, case):
    """DofMap for ``case`` on ``mesh`` with deterministic ordering."""
    if case.method == "hdg":
        trace_edges = mesh.interior_edges
    else:
        trace_edges = np.arange(mesh.num_edges)
    edge_offset = np.full(mesh.num_edges, -1, dtype=np.int64)
    edge_offset[trace_edges] = np.arange(len(trace_edges))
    return DofMap(
        case=case,
        num_cells=mesh.num_cells,
        trace_edges=trace_edges,
        flux_per_cell=case.flux_dim_per_cell(),
        scalar_per_cell=case.scalar_dim_per_cell(),
        trace_per_edge=case.trace_dim_per_edge(),
        edge_offset=edge_offset,
    )
