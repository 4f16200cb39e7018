"""Structured triangulations of the unit square, stored as arrays."""

from __future__ import annotations

from functools import cached_property

import numpy as np

# cells per leaf of the bisection (``Mesh.cell_leaf``): the depth is the
# smallest at which no leaf holds more.  Measured on the nested-dissection
# factor of hdg/inv k = 1 at level 6 (2 cores), leaves of 2, 4, 8 and 16
# cells give 2.92M, 2.96M, 3.10M and 3.46M stored entries, factored in
# 0.095, 0.097, 0.099 and 0.107 s.  Whole element solves with leaves of 2
# and of 8 take the same time within noise, and 8 needs two fewer depths
LEAF_CELLS = 8


class Mesh:
    """Immutable triangulation of the unit square.

    Cells are counterclockwise vertex triples.  Local edge ``i`` of a cell is
    the edge opposite local vertex ``i``; the cell traverses it from local
    vertex ``i+1`` to ``i+2`` (cyclic).  With V vertices, C cells and E edges
    every array below is read-only:

    - ``vertices`` (V,2) float, ``cells`` (C,3) int.
    - ``cell_jac`` (C,2,2): columns ``p1 - p0`` and ``p2 - p0`` of the affine
      map from the reference triangle; ``cell_jac_inv`` (C,2,2) its inverse,
      ``cell_det`` (C,) its determinant (twice ``cell_area``).
    - ``cell_edges`` (C,3): global edge of each local edge.
    - ``cell_edge_sign`` (C,3): +1 where the cell owns the edge (its outward
      normal is ``edge_normal``), -1 on the neighbour side.
    - ``cell_edge_flip`` (C,3) bool: the cell traverses the edge from its
      higher to its lower vertex, against the global edge parameter.
    - ``edge_vertices`` (E,2): lower then higher vertex index; the global
      edge parameter runs from the first to the second.
    - ``edge_cells`` (E,2), ``edge_local`` (E,2): owner cell (the first, and
      so lower-indexed, incident cell) and neighbour, with their local edge
      indices; -1 in the second column on the boundary.
    - ``edge_normal`` (E,2): unit normal, outward from the owner (so
      domain-outward on the boundary); ``edge_length`` (E,).
    - ``interior_edges``, ``boundary_edges``: ascending edge indices.
    - ``cell_leaf`` (C,) int: the leaf of each cell in a recursive median
      bisection of the cells, made on first use (see ``cell_leaf``).

    Edges are numbered by first appearance in cell-then-local-edge order.
    """

    def __init__(self, vertices, cells):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.cells = np.ascontiguousarray(cells, dtype=np.int64)

        p = self.vertices[self.cells]
        u, v = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
        self.cell_area = 0.5 * (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])
        if np.any(self.cell_area <= 0.0):
            raise ValueError("cells must be counterclockwise with positive area")
        self.cell_jac = np.stack([u, v], axis=2)
        self.cell_det = 2.0 * self.cell_area
        self.cell_jac_inv = np.linalg.inv(self.cell_jac)
        # scale-equivalent cell size used by the stabilization weights
        self.cell_size = np.sqrt(self.cell_det)
        self.cell_diam = np.linalg.norm(
            p[:, [1, 2, 0]] - p[:, [2, 0, 1]], axis=2).max(axis=1)
        self._build_edges()
        for name, value in vars(self).items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    def _build_edges(self):
        """Derive the edge arrays from cell connectivity."""
        start = self.cells[:, [1, 2, 0]]  # local edge i runs start -> end
        end = self.cells[:, [2, 0, 1]]
        lo, hi = np.minimum(start, end).ravel(), np.maximum(start, end).ravel()
        keys, first, inverse, counts = np.unique(
            lo * self.num_vertices + hi, return_index=True,
            return_inverse=True, return_counts=True)
        if np.any(counts > 2):
            raise ValueError("an edge is shared by more than two cells")
        # renumber the sorted keys by first appearance
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        side_edge = rank[inverse]
        self.cell_edges = side_edge.reshape(-1, 3)
        num_edges = len(keys)

        sides = np.arange(side_edge.size)
        owner = first[order]
        is_owner = sides == owner[side_edge]
        self.cell_edge_sign = np.where(is_owner, 1.0, -1.0).reshape(-1, 3)
        self.cell_edge_flip = (start > end)
        self.edge_cells = np.full((num_edges, 2), -1, dtype=np.int64)
        self.edge_local = np.full((num_edges, 2), -1, dtype=np.int64)
        slot = np.where(is_owner, 0, 1)
        self.edge_cells[side_edge, slot] = sides // 3
        self.edge_local[side_edge, slot] = sides % 3
        self.edge_vertices = np.column_stack([lo[owner], hi[owner]])

        # traversed by its owner the edge keeps the owner on its left, so the
        # right-hand rotation of the tangent is the owner-outward normal
        tangent = (self.vertices[end.ravel()[owner]]
                   - self.vertices[start.ravel()[owner]])
        self.edge_length = np.linalg.norm(tangent, axis=1)
        self.edge_normal = (np.column_stack([tangent[:, 1], -tangent[:, 0]])
                            / self.edge_length[:, None])
        boundary = self.edge_cells[:, 1] < 0
        self.interior_edges = np.flatnonzero(~boundary)
        self.boundary_edges = np.flatnonzero(boundary)

    @cached_property
    def cell_leaf(self):
        """Leaf of each cell in a recursive bisection of the cells, for the
        nested-dissection order of the reduced systems (George, SINUM 1973).

        Each part is split at the median of its cells' centroids along its
        longer extent (x where they tie): the lower half goes to child 0, the
        rest to child 1, so at each depth the parts' sizes differ by at most 1.
        Parts are split until none holds more than ``LEAF_CELLS`` cells, so
        every leaf lies at the same depth D, and a leaf's id is its path from
        the root, D bits read from the top: the leaves under any node hold the
        consecutive ids that share its path as their prefix.  Centroids that
        tie keep their order from the depth above, so the bisection does not
        depend on the machine.
        """
        num_cells = self.num_cells
        depth = 0
        while num_cells > LEAF_CELLS << depth:
            depth += 1
        # the centroids' x and y apart, as contiguous arrays
        v, c = self.vertices, self.cells
        xy = [(v[c[:, 0], i] + v[c[:, 1], i] + v[c[:, 2], i]) / 3.0
              for i in range(2)]
        # ``order`` lists the cells part by part, ``xy`` follows it, ``part``
        # is the part at each position and ``sizes`` the parts' sizes
        order, part = np.arange(num_cells), np.zeros(num_cells, dtype=np.int64)
        sizes = np.array([num_cells])
        for _ in range(depth):
            starts = np.cumsum(sizes) - sizes
            x_extent, y_extent = (np.maximum.reduceat(a, starts)
                                  - np.minimum.reduceat(a, starts) for a in xy)
            along_y = (y_extent > x_extent)[part]
            # each part's cells ascending along its axis, parts in order
            moved = np.lexsort((np.where(along_y, xy[1], xy[0]), part))
            order = order[moved]
            xy = [a[moved] for a in xy]
            low = sizes // 2
            upper = np.arange(num_cells) - starts[part] >= low[part]
            part = 2 * part + upper
            sizes = np.column_stack([low, sizes - low]).ravel()
        leaf = np.empty(num_cells, dtype=np.int64)
        leaf[order] = part
        leaf.setflags(write=False)
        return leaf

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_cells(self):
        return self.cells.shape[0]

    @property
    def num_edges(self):
        return self.edge_vertices.shape[0]

    @property
    def h_max(self):
        return float(self.cell_diam.max())

    def __repr__(self):
        return "Mesh(vertices={}, cells={}, edges={})".format(
            self.num_vertices, self.num_cells, self.num_edges
        )


def build_structured_mesh(n):
    """Triangulate the unit square into ``2 n^2`` right triangles.

    Each of the ``n x n`` subsquares is split by the diagonal running from
    its lower-left to its upper-right corner.
    """
    if n < 1:
        raise ValueError("n must be a positive integer, got {}".format(n))
    xs = np.arange(n + 1) / n
    xv, yv = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([xv.ravel(), yv.ravel()])
    j, i = np.divmod(np.arange(n * n), n)
    a = j * (n + 1) + i
    b, c, d = a + 1, a + n + 2, a + n + 1
    cells = np.stack([np.column_stack([a, b, c]), np.column_stack([a, c, d])],
                     axis=1).reshape(-1, 3)
    return Mesh(vertices, cells)
