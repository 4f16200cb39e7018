import numpy as np
import pytest

from hdgwg.basis import REF_VERTICES
from hdgwg.mesh import Mesh, build_structured_mesh

from cellwise import jittered_mesh


def test_unit_counts():
    m = build_structured_mesh(1)
    assert m.num_vertices == 4
    assert m.num_cells == 2
    assert m.num_edges == 5
    assert len(m.boundary_edges) == 4
    assert len(m.interior_edges) == 1


def test_n2_counts_euler():
    m = build_structured_mesh(2)
    assert (m.num_vertices, m.num_cells, m.num_edges) == (9, 8, 16)
    assert m.num_vertices - m.num_edges + m.num_cells == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
def test_euler_and_area(n):
    m = build_structured_mesh(n)
    assert m.num_vertices - m.num_edges + m.num_cells == 1
    assert abs(m.cell_area.sum() - 1.0) < 1e-13


def test_cell_diam_structured():
    m = build_structured_mesh(4)
    assert m.num_cells == 32
    assert np.allclose(m.cell_diam, np.sqrt(2.0) / 4.0)
    assert np.allclose(m.cell_size, 1.0 / 4.0)


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        build_structured_mesh(0)
    with pytest.raises(ValueError):
        # clockwise cell
        Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
             np.array([[0, 2, 1]]))
    with pytest.raises(ValueError):
        # edge 0-1 shared by three cells
        Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, -1.0],
                       [0.5, 0.5]]), np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]]))


def test_edge_normals_unit_and_boundary_outward():
    m = build_structured_mesh(1)
    for ei in range(m.num_edges):
        n = m.edge_normal[ei]
        assert abs(np.linalg.norm(n) - 1.0) < 1e-14
    # bottom boundary edge (0,0)-(1,0)
    for ei in m.boundary_edges:
        pa, pb = m.vertices[m.edge_vertices[ei]]
        if np.allclose([pa[1], pb[1]], 0.0):
            assert np.allclose(m.edge_normal[ei], [0.0, -1.0])
    with pytest.raises(IndexError):
        m.edge_normal[m.num_edges]


def test_normal_is_first_cell_outward():
    m = build_structured_mesh(3)
    for ei in m.interior_edges:
        cells, local = m.edge_cells[ei], m.edge_local[ei]
        assert np.all(cells >= 0)
        assert m.cell_edge_sign[cells[0], local[0]] == 1.0
        assert m.cell_edge_sign[cells[1], local[1]] == -1.0
    for ei in m.boundary_edges:
        assert m.edge_cells[ei, 0] >= 0 and m.edge_cells[ei, 1] == -1


def test_outward_normal_geometry():
    # the stored normal points away from the owning cell's centroid
    m = build_structured_mesh(2)
    for ei in range(m.num_edges):
        ci = m.edge_cells[ei, 0]
        centroid = m.vertices[m.cells[ci]].mean(axis=0)
        midpoint = m.vertices[m.edge_vertices[ei]].mean(axis=0)
        assert (midpoint - centroid) @ m.edge_normal[ei] > 0.0


def test_edge_length_bound():
    m = build_structured_mesh(3)
    for ei in range(m.num_edges):
        cells = m.edge_cells[ei][m.edge_cells[ei] >= 0]
        hmax = max(m.cell_diam[c] for c in cells)
        assert m.edge_length[ei] <= hmax + 1e-14


def test_shape_regularity():
    m = build_structured_mesh(2)
    for ci in range(m.num_cells):
        pts = m.vertices[m.cells[ci]]
        a = np.linalg.norm(pts[1] - pts[2])
        b = np.linalg.norm(pts[2] - pts[0])
        c = np.linalg.norm(pts[0] - pts[1])
        inradius = 2.0 * m.cell_area[ci] / (a + b + c)
        assert m.cell_diam[ci] / inradius <= 2.0 * (1.0 + np.sqrt(2.0)) + 1e-12


def test_arrays_on_jittered_mesh():
    m = jittered_mesh()
    # edges are numbered by first appearance in cell-then-local-edge order
    _, first = np.unique(m.cell_edges.ravel(), return_index=True)
    assert np.all(np.diff(first) > 0)
    # the affine maps send the reference vertices to the cell vertices
    mapped = (REF_VERTICES @ np.swapaxes(m.cell_jac, 1, 2)
              + m.vertices[m.cells[:, 0]][:, None])
    assert np.max(np.abs(mapped - m.vertices[m.cells])) < 1e-15
    assert np.allclose(m.cell_jac_inv @ m.cell_jac, np.eye(2), atol=1e-14)
    assert np.allclose(m.cell_det, np.linalg.det(m.cell_jac), rtol=1e-14)
    # a flipped side starts at the edge's higher vertex
    start = m.cells[:, [1, 2, 0]]
    ev = m.edge_vertices[m.cell_edges]
    assert np.array_equal(np.where(m.cell_edge_flip, ev[..., 1], ev[..., 0]),
                          start)
    # a side is positive exactly where its cell owns the edge
    owner = m.edge_cells[m.cell_edges, 0] == np.arange(m.num_cells)[:, None]
    assert np.array_equal(owner, m.cell_edge_sign > 0)


def test_mesh_is_immutable():
    m = build_structured_mesh(2)
    with pytest.raises(ValueError):
        m.vertices[0, 0] = 7.0
    with pytest.raises(ValueError):
        m.cells[0, 0] = 5
