import functools
import io
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hdgwg.assembly import (
    CoefficientField,
    ElementSums,
    ElementTables,
    FormSums,
    assemble_hdg,
    assemble_mixed_conforming,
    assemble_primal_conforming,
    assemble_wg,
    cell_dofs,
    form_terms,
    load_vector,
)
from hdgwg import experiments, linalg
from hdgwg.experiments import manufactured_case, run_infsup_study
from hdgwg.linalg import (
    SingularMatrixError,
    min_generalized_singular_value,
    solve_element_system,
    solve_symmetric_indefinite,
    write_matrix,
)
from hdgwg.mesh import build_structured_mesh
from hdgwg.norms import assemble_norm_gram
from hdgwg.spaces import (SpaceCase, build_space_triple, mixed_dofs,
                          primal_dofs)

import cellwise
from cellwise import jittered_mesh, read_matrix

MESHES = {"structured": lambda: build_structured_mesh(4),
          "jittered": jittered_mesh}


def test_identity_solve():
    x = solve_symmetric_indefinite(sp.eye(4, format="csr"), np.arange(4.0))
    assert np.allclose(x, np.arange(4.0), atol=1e-14)


def test_swap_matrix_solve():
    A = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    x = solve_symmetric_indefinite(A, np.array([1.0, 2.0]))
    assert np.allclose(x, [2.0, 1.0], atol=1e-14)


def test_random_indefinite_residual():
    rng = np.random.default_rng(12)
    B = rng.standard_normal((50, 50))
    A = sp.csr_matrix(B + B.T)  # indefinite with overwhelming probability
    b = rng.standard_normal(50)
    x = solve_symmetric_indefinite(A, b)
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_spd_round_trip():
    rng = np.random.default_rng(8)
    B = rng.standard_normal((30, 30))
    A = sp.csr_matrix(B @ B.T + 30.0 * np.eye(30))
    xt = rng.standard_normal(30)
    x = solve_symmetric_indefinite(A, A @ xt)
    assert np.linalg.norm(x - xt) < 1e-9


def test_singular_matrix_raises():
    A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularMatrixError):
        solve_symmetric_indefinite(A, np.array([1.0, 0.0]))


def test_shape_mismatch_raises():
    with pytest.raises(ValueError):
        solve_symmetric_indefinite(sp.eye(3, format="csr"), np.zeros(4))


def _varcoef_system(method, regime, k, rho, mesh_name):
    """Assembled varcoef system, rhs and cell-local DOFs of one input."""
    mesh = MESHES[mesh_name]()
    prob = manufactured_case("varcoef")
    coeff = CoefficientField(alpha=prob.alpha)
    if method in ("primal", "mixed"):
        assemble, limit_of, dofs = (
            (assemble_primal_conforming, "hdg", primal_dofs(mesh, k))
            if method == "primal"
            else (assemble_mixed_conforming, "wg", mixed_dofs(mesh, k)))
        system = assemble(mesh, dofs, coeff, prob.f, ElementTables(
            mesh, SpaceCase(limit_of, "inv", k, 1.0)))
    else:
        case = SpaceCase(method, regime, k, rho)
        dofs = build_space_triple(mesh, case)
        assemble = assemble_hdg if method == "hdg" else assemble_wg
        system = assemble(mesh, dofs, coeff, prob.f, ElementTables(mesh, case))
    return system.matrix, system.rhs, dofs


CONDENSED_INPUTS = [
    (method, regime, k, rho, mesh_name)
    for mesh_name in MESHES
    for method, regime in (("hdg", "rho_h"), ("hdg", "inv"),
                           ("wg", "rho_h"), ("wg", "inv"))
    for k in (0, 1)
    for rho in (1.0, 1e-2)
] + [("primal", None, k, None, mesh_name) for mesh_name in MESHES
     for k in (0, 1)] + [("mixed", None, 1, None, mesh_name)
                         for mesh_name in MESHES]


@pytest.mark.parametrize("method,regime,k,rho,mesh_name", CONDENSED_INPUTS)
def test_condensation_matches_plain_factorization(method, regime, k, rho,
                                                  mesh_name, monkeypatch):
    A, b, dofs = _varcoef_system(method, regime, k, rho, mesh_name)
    cell_blocks = dofs.cell_blocks
    assert cell_blocks[0] * cell_blocks[1] > 0
    x_plain = solve_symmetric_indefinite(A, b)
    x_cond = solve_symmetric_indefinite(A, b, cell_blocks=cell_blocks)
    assert np.linalg.norm(x_cond - x_plain) <= 1e-10 * np.linalg.norm(x_plain)
    # refinement would hide a wrong elimination: the factor alone must pass
    monkeypatch.setattr(linalg, "REFINEMENT_STEPS", 0)
    x_once = solve_symmetric_indefinite(A, b, cell_blocks=cell_blocks)
    assert np.linalg.norm(x_once - x_plain) <= 1e-10 * np.linalg.norm(x_plain)


def _reduced_by_sparse_products(A, cell_blocks):
    """The reduced matrix A_gg - A_gl B^-1 A_lg formed as the solver once
    did, by slicing A and two sparse products with the block-diagonal B^-1
    (plain dense inverses of its cell blocks); the products and the
    difference drop exact zeros."""
    C, m = cell_blocks
    L = C * m
    B = A[:L, :L].toarray()
    B_inv = sp.block_diag([np.linalg.inv(B[c * m:(c + 1) * m,
                                           c * m:(c + 1) * m])
                           for c in range(C)], format="csr")
    return (A[L:, L:] - A[L:, :L] @ (B_inv @ A[:L, L:])).tocsc()


def _solver_reduced(A, b, cell_blocks, monkeypatch):
    """The reduced matrix that the solver factors first."""
    factored = []
    splu = linalg.spla.splu

    def recording(matrix, **kwargs):
        factored.append(matrix)
        return splu(matrix, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(linalg.spla, "splu", recording)
        solve_symmetric_indefinite(A, b, cell_blocks=cell_blocks)
    return factored[0]


REDUCED_INPUTS = [
    (method, regime, k, mesh_name)
    for mesh_name in MESHES
    for method, regime in (("hdg", "rho_h"), ("hdg", "inv"),
                           ("wg", "rho_h"), ("wg", "inv"))
    for k in (0, 1)
] + [(method, None, 1, mesh_name) for mesh_name in MESHES
     for method in ("primal", "mixed")]


@pytest.mark.parametrize("rho", [1.0, 1e-2])
@pytest.mark.parametrize("method,regime,k,mesh_name", REDUCED_INPUTS)
def test_cellwise_reduced_matrix_matches_sparse_products(method, regime, k,
                                                         mesh_name, rho,
                                                         monkeypatch):
    # the per-cell Schur complements summed on A's structure give the reduced
    # matrix of the sparse products within 1e-14 of its largest entry, or
    # of A_gg's where that is larger: at rho = 1e-2 the wg/inv entries are
    # differences of terms of size 1/(rho h) (measured: 2.4e-13 of the
    # reduced matrix's largest entry, 5e-16 of A_gg's)
    A, b, dofs = _varcoef_system(method, regime, k, rho, mesh_name)
    reduced = _solver_reduced(A, b, dofs.cell_blocks, monkeypatch)
    oracle = _reduced_by_sparse_products(A, dofs.cell_blocks)
    assert reduced.shape == oracle.shape
    L = dofs.cell_blocks[0] * dofs.cell_blocks[1]
    scale = max(abs(oracle).max(), abs(A[L:, L:]).max())
    gap = abs(reduced - oracle).max()
    assert gap <= 1e-14 * scale, gap / scale
    # no exact zeros reach the factorization
    assert np.all(reduced.data != 0.0)


@pytest.mark.parametrize("method", ["hdg", "wg"])
def test_reduced_matrix_keeps_no_exact_zeros(method, monkeypatch):
    # the assembled inv systems store 12-37 % exact zeros; the reduced
    # matrix keeps as many entries as the sparse products did
    mesh = build_structured_mesh(2**3)
    case = SpaceCase(method, "inv", 1, 0.1)
    dofs = build_space_triple(mesh, case)
    prob = manufactured_case("sine")
    system = (assemble_hdg if method == "hdg" else assemble_wg)(
        mesh, dofs, CoefficientField(alpha=prob.alpha), prob.f,
        ElementTables(mesh, case))
    assert np.count_nonzero(system.matrix.data == 0.0) > 0
    reduced = _solver_reduced(system.matrix, system.rhs, dofs.cell_blocks,
                              monkeypatch)
    assert reduced.nnz == _reduced_by_sparse_products(
        system.matrix, dofs.cell_blocks).nnz


@pytest.mark.parametrize("method,regime,k", [
    ("hdg", "inv", 1), ("wg", "rho_h", 0), ("mixed", None, 1)])
def test_plan_pads_a_structure_without_full_blocks(method, regime, k,
                                                   monkeypatch):
    # without its exact zeros (the mixed system stores none), and with an
    # explicit zero between two cells' blocks, an assembled system no longer
    # stores its cell blocks in full: the solver pads a copy to them, and
    # the reduced matrix is the same, to the bit
    A, b, dofs = _varcoef_system(method, regime, k, 1e-2, "jittered")
    m = dofs.cell_blocks[1]
    L = dofs.cell_blocks[0] * m
    sparse = A.copy()
    sparse.eliminate_zeros()
    sparse = (sparse + sp.csr_matrix(([1.0, 1.0], ([0, m], [m, 0])),
                                     shape=A.shape)).tocsr()
    sparse[0, m] = sparse[m, 0] = 0.0
    assert sparse[0, m] == 0.0
    before = [a.copy() for a in (sparse.data, sparse.indices, sparse.indptr)]
    # an explicit zero in A[L:, :L] whose mirror is not stored: the cell
    # rows still store their blocks in full, and the solver reads nothing
    # of A[L:, :L]
    row_0 = lambda M: M.indices[M.indptr[0]:M.indptr[1]]
    far = np.setdiff1d(np.arange(L, A.shape[0]), row_0(A))[0]
    coo = A.tocoo()
    lower = sp.csr_matrix((np.append(coo.data, 0.0),
                           (np.append(coo.row, far), np.append(coo.col, 0))),
                          shape=A.shape)
    assert lower.nnz == A.nnz + 1 and lower[far, 0] == 0.0
    assert np.array_equal(row_0(lower), row_0(A))
    calls = []
    pad = linalg._padded

    def counted(*args):
        calls.append(args)
        return pad(*args)

    monkeypatch.setattr(linalg, "_padded", counted)
    want = _solver_reduced(A, b, dofs.cell_blocks, monkeypatch)
    assert len(calls) == 0
    for matrix, pads in ((sparse, 1), (lower, 0)):
        del calls[:]
        got = _solver_reduced(matrix, b, dofs.cell_blocks, monkeypatch)
        assert len(calls) == pads
        for a, c in ((got.indptr, want.indptr), (got.indices, want.indices),
                     (got.data, want.data)):
            assert np.array_equal(a, c)
    # the padding works on a copy: the caller's arrays are unchanged
    for old, new in zip(before, (sparse.data, sparse.indices, sparse.indptr)):
        assert old.dtype == new.dtype and np.array_equal(old, new)


def _record_splu(monkeypatch):
    """Record the keyword arguments of every ``splu`` call of the solver."""
    calls = []
    splu = linalg.spla.splu

    def recording(matrix, **kwargs):
        calls.append(kwargs)
        return splu(matrix, **kwargs)

    monkeypatch.setattr(linalg.spla, "splu", recording)
    return calls


# the reduced HDG trace and primal systems are negative definite; the WG
# (scalar plus trace) and mixed systems are indefinite
FACTOR_CHOICE = (
    [(method, regime, k, linalg.PIVOT_FREE)
     for method, regime in (("hdg", "rho_h"), ("hdg", "inv"), ("primal", None))
     for k in (0, 1)]
    + [(method, regime, k, linalg.PARTIAL_PIVOTING)
       for method, regime in (("wg", "rho_h"), ("wg", "inv"), ("mixed", None))
       for k in (0, 1)])


@pytest.mark.parametrize("method,regime,k,expected", FACTOR_CHOICE)
def test_factorization_follows_the_reduced_system(method, regime, k, expected,
                                                  monkeypatch):
    calls = _record_splu(monkeypatch)
    for mesh_name in MESHES:
        for rho in (1.0, 1e-3):
            A, b, dofs = _varcoef_system(method, regime, k, rho, mesh_name)
            del calls[:]
            solve_symmetric_indefinite(A, b, cell_blocks=dofs.cell_blocks)
            assert calls == [expected], (mesh_name, rho)


FALLBACK = [linalg.PIVOT_FREE, linalg.PARTIAL_PIVOTING]


@pytest.mark.parametrize("matrix,stage,expected", [
    # indefinite, one-sign diagonal: the unpivoted factor still passes
    ([[1e-8, 1.0], [1.0, 1e-8]], None, [linalg.PIVOT_FREE]),
    # singular: both factorizations meet an exact zero pivot
    ([[1.0, 1.0], [1.0, 1.0]], "reduced factorization of 2 DOFs failed",
     FALLBACK),
    # indefinite cycle: the unpivoted factor's growth of 1e8 is beyond
    # refinement, so partial pivoting refactors it
    ([[1e-8, 1.0, 1.0, 0.0], [1.0, 1e-8, 0.0, 1.0],
      [1.0, 0.0, 1e-8, 1.0], [0.0, 1.0, 1.0, 1e-8]], None, FALLBACK),
], ids=["matrix0-None", "matrix1-reduced factorization of 2 DOFs failed",
        "matrix2-None"])
def test_pivot_free_factor_meets_the_contract_or_raises(matrix, stage,
                                                        expected, monkeypatch):
    # a one-sign diagonal does not prove definiteness: the unpivoted factor
    # of an indefinite matrix must pass the backward-error contract, or be
    # replaced once by partial pivoting that passes it or raises, never
    # return a degraded solution
    calls = _record_splu(monkeypatch)
    A = sp.csr_matrix(np.array(matrix))
    b = np.random.default_rng(3).standard_normal(A.shape[0])
    if stage is None:
        x = solve_symmetric_indefinite(A, b)
        bound = 1e-10 * (np.linalg.norm(A.toarray()) * np.linalg.norm(x)
                         + np.linalg.norm(b))
        assert np.linalg.norm(A @ x - b) <= bound
    else:
        with pytest.raises(SingularMatrixError, match=stage):
            solve_symmetric_indefinite(A, b)
    assert calls == expected


@pytest.mark.parametrize("regime", ["rho_h", "inv"])
@pytest.mark.parametrize("k", [0, 1])
def test_wg_scalar_is_not_cell_local(regime, k):
    # the WG (p, u) cell block is singular on cell constants: renumbered
    # so that each cell's flux and scalar come first, cell by cell, the
    # system condenses them and fails in the local elimination
    A, b, dofs = _varcoef_system("wg", regime, k, 1.0, "structured")
    pu = np.concatenate([dofs.flux, dofs.scalar], axis=1)
    order = np.concatenate([pu.ravel(), np.arange(pu.size, dofs.total)])
    C, m = pu.shape
    with pytest.raises(SingularMatrixError,
                       match=r"local elimination: the {0}x{0} block of cell 0 "
                             r"is singular".format(m)):
        solve_symmetric_indefinite(A[order][:, order], b[order],
                                   cell_blocks=(C, m))


def test_cell_dofs_must_be_cell_local():
    A, b, dofs = _varcoef_system("hdg", "rho_h", 0, 1.0, "structured")
    C, m = dofs.cell_blocks
    # cell blocks are two non-negative integers
    for pair in ((-1, 2), (1.5, 2), (C, -m), (C,)):
        with pytest.raises(ValueError, match=re.escape(
                "cell blocks must be two non-negative integers (C, m), "
                "got {!r}".format(pair))):
            solve_symmetric_indefinite(A, b, cell_blocks=pair)
    # blocks one DOF too wide straddle the cells: each reaches into the next
    with pytest.raises(ValueError, match="couple across cells"):
        solve_symmetric_indefinite(A, b, cell_blocks=(C - 1, m + 1))
    # more condensed DOFs than A has
    with pytest.raises(ValueError, match="exceed the {} DOFs".format(
            dofs.total)):
        solve_symmetric_indefinite(A, b, cell_blocks=(dofs.total, 2))


def test_solve_leaves_a_non_canonical_matrix_unchanged():
    # duplicate and unsorted column indices: canonicalizing them in place
    # would rewrite the caller's arrays
    A = sp.csr_matrix((np.array([1.0, 2.0, 1.0, 3.0]), np.array([1, 0, 1, 1]),
                       np.array([0, 2, 4])), shape=(2, 2))
    before = [a.copy() for a in (A.data, A.indices, A.indptr)]
    # the summed matrix is [[2, 1], [0, 4]]
    x = solve_symmetric_indefinite(A, np.array([3.0, 4.0]))
    assert np.allclose(x, [1.0, 1.0], atol=1e-14)
    for old, new in zip(before, (A.data, A.indices, A.indptr)):
        assert old.dtype == new.dtype and np.array_equal(old, new)


def _element_system(method, regime, k, rho, mesh):
    """The varcoef system of one input on ``mesh`` as the studies solve
    it: its element matrices, their cell DOFs, the load and the DOF map,
    and the ``FormSums`` matrix of the same system."""
    prob = manufactured_case("varcoef")
    coeff = CoefficientField(alpha=prob.alpha)
    if method in ("primal", "mixed"):
        dofs, case = ((primal_dofs(mesh, k), SpaceCase("hdg", "inv", k, 1.0))
                      if method == "primal" else
                      (mixed_dofs(mesh, k), SpaceCase("wg", "inv", k, 1.0)))
    else:
        case = SpaceCase(method, regime, k, rho)
        dofs = build_space_triple(mesh, case)
    tables = ElementTables(mesh, case)
    stack = ElementSums(mesh, dofs, coeff, tables).stack(dofs, coeff, tables)
    matrix = FormSums(form_terms, mesh, dofs, coeff, tables).matrix(
        form_terms, dofs, coeff, tables)
    return (stack, cell_dofs(mesh, dofs), load_vector(dofs, tables, prob.f),
            dofs, matrix)


@pytest.mark.parametrize("method,regime,k,rho,mesh_name", CONDENSED_INPUTS)
def test_element_solve_matches_the_matrix_solve(method, regime, k, rho,
                                                mesh_name, monkeypatch):
    # the element path condenses the same blocks as the matrix solver: the
    # solutions agree as the condensed and plain matrix solves do, and
    # without refinement too
    stack, cells, b, dofs, A = _element_system(method, regime, k, rho,
                                               MESHES[mesh_name]())
    x_matrix = solve_symmetric_indefinite(A, b, cell_blocks=dofs.cell_blocks)
    for steps in (linalg.REFINEMENT_STEPS, 0):
        monkeypatch.setattr(linalg, "REFINEMENT_STEPS", steps)
        x = solve_element_system(stack, cells, b, dofs.cell_blocks)
        assert (np.linalg.norm(x - x_matrix)
                <= 1e-10 * np.linalg.norm(x_matrix))


ELEMENT_METHODS = [("hdg", "rho_h"), ("hdg", "inv"), ("wg", "rho_h"),
                   ("wg", "inv"), ("primal", None), ("mixed", None)]


@pytest.mark.parametrize("mesh_name", MESHES)
@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("method,regime", ELEMENT_METHODS)
def test_element_norm_is_the_assembled_norm(method, regime, k, mesh_name):
    # the backward-error bound reads ||A||_F from the element matrices:
    # the cells' own rows and columns plus the summed K_gg, not a bound
    stack, cells, b, dofs, A = _element_system(method, regime, k, 1e-3,
                                               MESHES[mesh_name]())
    C, m = dofs.cell_blocks
    own = (cells[0] >= 0) & (cells[0] < C * m)
    norm = linalg._ElementMatrix(stack, cells, dofs.total,
                                 np.flatnonzero(own),
                                 np.flatnonzero(~own)).frobenius_norm()
    want = np.sqrt(A.data @ A.data)
    assert abs(norm - want) <= 1e-13 * want, abs(norm - want) / want


@pytest.mark.parametrize("method", ["hdg", "wg"])
def test_element_solve_on_the_bound_path_meets_the_contract(method,
                                                            monkeypatch):
    # at rho = 1e-5 the limit solves of level 3 stop on the backward-error
    # bound, not the strict residual: the x they return has a backward
    # error within the contract against the assembled matrix itself
    norms = []
    frobenius = linalg._ElementMatrix.frobenius_norm

    def recorded(self):
        norms.append(frobenius(self))
        return norms[-1]

    monkeypatch.setattr(linalg._ElementMatrix, "frobenius_norm", recorded)
    stack, cells, b, dofs, A = _element_system(
        method, "inv", 1, 1e-5, build_structured_mesh(2**3))
    x = solve_element_system(stack, cells, b, dofs.cell_blocks)
    assert len(norms) == 1
    anorm = np.sqrt(A.data @ A.data)
    error = np.linalg.norm(b - A @ x) / (anorm * np.linalg.norm(x)
                                         + np.linalg.norm(b))
    assert error <= linalg.REFINEMENT_RTOL, error


def test_element_solve_checks_its_inputs():
    stack, cells, b, dofs, _ = _element_system("hdg", "inv", 1, 1.0,
                                               MESHES["structured"]())
    C, m = dofs.cell_blocks
    before = [a.copy() for a in (stack, cells, b)]
    with pytest.raises(ValueError, match="cell blocks must be two"):
        solve_element_system(stack, cells, b, (C, -m))
    with pytest.raises(ValueError, match="exceed the"):
        solve_element_system(stack, cells, b, (dofs.total, 2))
    # one DOF too few per cell: each cell's own DOFs are not its block
    with pytest.raises(ValueError, match="not the cells' own DOFs"):
        solve_element_system(stack, cells, b, (C, m - 1))
    with pytest.raises(ValueError, match="do not fit"):
        solve_element_system(stack[:, :-1], cells, b, dofs.cell_blocks)
    with pytest.raises(ValueError, match="do not fit"):
        solve_element_system(stack, cells, b[:-1], dofs.cell_blocks)
    solve_element_system(stack, cells, b, dofs.cell_blocks)
    for old, new in zip(before, (stack, cells, b)):
        assert np.array_equal(old, new)


def test_condensation_memory_peak():
    # the element solve copies only the cell blocks K_ll, reads K_lg and
    # K_gg as views of the element matrices, and frees K_ll^-1 K_lg once
    # the complements are summed.  Condensing, factoring and refining
    # hdg/inv k = 1 at level 4 peaks at 1.14 times the bytes of the element
    # matrices in numpy's traced memory (SuperLU's own allocations are not
    # traced), as at level 5; the bound leaves 10 % above that
    mesh = build_structured_mesh(2**4)
    case = SpaceCase("hdg", "inv", 1, 0.1)
    dofs = build_space_triple(mesh, case)
    prob = manufactured_case("sine")
    coeff = CoefficientField(alpha=prob.alpha)
    tables = ElementTables(mesh, case)
    stack = ElementSums(mesh, dofs, coeff, tables).stack(dofs, coeff, tables,
                                                        last=True)
    cells, b = cell_dofs(mesh, dofs), load_vector(dofs, tables, prob.f)
    tracemalloc.start()
    try:
        solve_element_system(stack, cells, b, dofs.cell_blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * stack.nbytes, peak / stack.nbytes


def test_matrix_condensation_memory_peak():
    # the matrix solver's layout keeps int32 positions, and its
    # condensation gathers the cell blocks once and inverts them in place,
    # so laying out the blocks and condensing them peaks within 2.5 times
    # the bytes of A (hdg/inv k = 1, level 4)
    mesh = build_structured_mesh(2**4)
    case = SpaceCase("hdg", "inv", 1, 0.1)
    dofs = build_space_triple(mesh, case)
    prob = manufactured_case("sine")
    A = assemble_hdg(mesh, dofs, CoefficientField(alpha=prob.alpha), prob.f,
                     ElementTables(mesh, case)).matrix
    nbytes = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
    tracemalloc.start()
    try:
        linalg._condensed_factor(A, dofs.cell_blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * nbytes, peak / nbytes


@pytest.mark.parametrize("skew,outcome", [(1e-3, "pass"), (10.0, "raise")])
def test_nonsymmetric_input_meets_the_contract_or_raises(skew, outcome):
    # the condensation reads K_gl as K_lg^T, so on a nonsymmetric A it
    # factors the symmetric matrix of A's cell rows; the refinement against
    # A itself then meets the contract on A, or raises, never returns a
    # wrong x.  Here K_gl = K_lg^T + skew e_0 e_1^T, stored where K_lg is not
    A = np.array([[4.0, 1.0, 0.0, 0.0, 1.0, 0.0],
                  [1.0, 3.0, 0.0, 0.0, 0.0, 1.0],
                  [0.0, 0.0, 4.0, 1.0, 1.0, 1.0],
                  [0.0, 0.0, 1.0, 3.0, 0.0, 1.0],
                  [1.0, skew, 1.0, 0.0, -2.0, 0.5],
                  [0.0, 1.0, 1.0, 1.0, 0.5, -2.0]])
    b = np.arange(1.0, 7.0)
    if outcome == "pass":
        x = solve_symmetric_indefinite(sp.csr_matrix(A), b, cell_blocks=(2, 2))
        bound = 1e-10 * (np.linalg.norm(A) * np.linalg.norm(x)
                         + np.linalg.norm(b))
        assert np.linalg.norm(A @ x - b) <= bound
        assert np.allclose(x, np.linalg.solve(A, b), rtol=1e-10, atol=0.0)
    else:
        with pytest.raises(SingularMatrixError, match="^refinement: "):
            solve_symmetric_indefinite(sp.csr_matrix(A), b, cell_blocks=(2, 2))


def test_failures_name_their_stage(monkeypatch):
    b = np.ones(3)
    A = np.diag([np.nan, 1.0, 1.0])
    with pytest.raises(SingularMatrixError,
                       match="local elimination: the 1x1 block of cell 0 "
                             "is non-finite"):
        solve_symmetric_indefinite(sp.csr_matrix(A), b, cell_blocks=(1, 1))
    A = sp.csr_matrix(np.array([[2.0, 0.0, 0.0],
                                [0.0, 1.0, 1.0],
                                [0.0, 1.0, 1.0]]))
    with pytest.raises(SingularMatrixError,
                       match="reduced factorization of 2 DOFs failed"):
        solve_symmetric_indefinite(A, b, cell_blocks=(1, 1))
    rng = np.random.default_rng(5)
    B = rng.standard_normal((20, 20))
    monkeypatch.setattr(linalg, "REFINEMENT_RTOL", 1e-30)
    with pytest.raises(SingularMatrixError,
                       match=r"refinement: residual \S+ exceeds tolerance \S+ "
                             r"after [0-5] steps"):
        solve_symmetric_indefinite(sp.csr_matrix(B + B.T),
                                   rng.standard_normal(20))


@pytest.mark.parametrize("gain,rtol,steps,outcome", [
    (1.0, 1e-10, 0, "pass"),    # exact: the first residual passes
    (1.1, 1e-10, 5, "raise"),   # r -> -0.1 r: halves every step, too slowly
    (1.1, 1e-3, 3, "pass"),     # ... until the strict test passes
    (1.9, 1e-10, 1, "raise"),   # r -> -0.9 r: stops after the first step
    (1.9, 0.7, 1, "pass"),      # ... and then meets a loose contract
])
def test_refinement_stops_when_the_residual_stops_halving(
        gain, rtol, steps, outcome, monkeypatch):
    # a solver that scales its answer by ``gain`` on A = I maps each
    # residual r to (1 - gain) r
    calls = []

    def solve(r):
        calls.append(r)
        return gain * r

    b = np.ones(4)
    monkeypatch.setattr(linalg, "REFINEMENT_RTOL", rtol)
    if outcome == "pass":
        linalg._refine(sp.identity(4, format="csr"), b, solve)
    else:
        with pytest.raises(SingularMatrixError,
                           match="after {} steps".format(steps)):
            linalg._refine(sp.identity(4, format="csr"), b, solve)
    assert len(calls) == 1 + steps


def test_refinement_rejects_a_non_finite_correction():
    # a finite first solve whose correction is NaN must not come back
    def solve(r):
        return 1.1 * r if r is b else np.full_like(r, np.nan)

    b = np.ones(4)
    with pytest.raises(SingularMatrixError,
                       match="refinement: residual nan .* after 1 steps"):
        linalg._refine(sp.identity(4, format="csr"), b, solve)


# the two routes of min_generalized_singular_value.  Every beta test runs
# both with the same bounds: the inputs are all below the crossover, so the
# public function alone would reach the dense route only
BETA_ROUTES = (linalg._dense_beta, linalg._counted_beta)


def test_beta_of_identity_pencil():
    N = sp.eye(5, format="csr")
    for route in BETA_ROUTES:
        assert abs(route(N, N) - 1.0) < 1e-12


def test_beta_diagonal():
    A = sp.diags([3.0, -1.0, 5.0]).tocsr()
    N = sp.eye(3, format="csr")
    for route in BETA_ROUTES:
        assert abs(route(A, N) - 1.0) < 1e-12


def test_beta_matches_svd_oracle():
    # independent route: beta is the smallest singular value of
    # L^{-1} A L^{-T} with N = L L^T
    rng = np.random.default_rng(77)
    B = rng.standard_normal((5, 5))
    A = B + B.T
    C = rng.standard_normal((5, 5))
    N = C @ C.T + 5.0 * np.eye(5)
    L = np.linalg.cholesky(N)
    M = np.linalg.solve(L, np.linalg.solve(L, A).T).T
    ref = np.linalg.svd(M, compute_uv=False).min()
    betas = [route(sp.csr_matrix(A), sp.csr_matrix(N))
             for route in BETA_ROUTES]
    assert all(abs(beta - ref) < 1e-10 for beta in betas)
    # random N-unit vectors never dip below beta in the dual norm
    Ninv = np.linalg.inv(N)
    for _ in range(2000):
        x = rng.standard_normal(5)
        x /= np.sqrt(x @ (N @ x))
        y = A @ x
        assert np.sqrt(y @ (Ninv @ y)) >= max(betas) - 1e-10


def test_beta_congruence_invariance():
    # diagonal rescaling S applied as S A S, S N S leaves beta unchanged
    rng = np.random.default_rng(4)
    B = rng.standard_normal((12, 12))
    A = B + B.T
    C = rng.standard_normal((12, 12))
    N = C @ C.T + 12.0 * np.eye(12)
    S = np.diag(np.exp(rng.uniform(-2, 2, size=12)))
    for route in BETA_ROUTES:
        b1 = route(A, N)
        b2 = route(S @ A @ S, S @ N @ S)
        assert abs(b1 - b2) < 1e-8 * max(b1, 1.0)


def test_beta_requires_spd_norm():
    A = np.eye(3)
    for route in BETA_ROUTES:
        for N in (np.diag([1.0, -1.0, 1.0]), np.diag([1.0, 0.0, 1.0]),
                  np.array([[1.0, 2.0], [2.0, 1.0]])):
            with pytest.raises(ValueError, match="positive definite"):
                route(np.eye(len(N)), N)
        with pytest.raises(ValueError):
            route(A, np.eye(4))


INFSUP_INPUTS = [
    (method, regime, k, rho, mesh_name)
    for mesh_name in MESHES
    for method, regime in (("hdg", "rho_h"), ("hdg", "inv"),
                           ("wg", "rho_h"), ("wg", "inv"))
    for k in (0, 1)
    for rho in (1.0, 1e-4)
]


@pytest.mark.parametrize("method,regime,k,rho,mesh_name", INFSUP_INPUTS)
def test_beta_matches_cholesky_eigh_oracle(method, regime, k, rho, mesh_name):
    A, _, dofs = _varcoef_system(method, regime, k, rho, mesh_name)
    mesh = MESHES[mesh_name]()
    coeff = CoefficientField(alpha=manufactured_case("varcoef").alpha)
    N = assemble_norm_gram(mesh, dofs, ElementTables(mesh, dofs.case),
                           coeff=coeff)
    ref = cellwise.min_generalized_singular_value(A, N)
    for route in BETA_ROUTES:
        beta = route(A, N)
        assert beta > 0.0
        assert abs(beta - ref) <= 1e-10 * ref


@pytest.mark.parametrize("order", ["C", "F"])
def test_beta_leaves_its_inputs_unchanged(order):
    # the eigensolve overwrites its own copies, never the caller's arrays
    rng = np.random.default_rng(9)
    B = rng.standard_normal((8, 8))
    C = rng.standard_normal((8, 8))
    A = np.array(B + B.T, order=order)
    N = np.array(C @ C.T + 8.0 * np.eye(8), order=order)
    A0, N0 = A.copy(), N.copy()
    As, Ns = sp.csr_matrix(A), sp.csr_matrix(N)
    As0, Ns0 = As.copy(), Ns.copy()
    for route in BETA_ROUTES:
        b1 = route(A, N)
        assert np.array_equal(A, A0) and np.array_equal(N, N0)
        assert route(A, N) == b1
        assert route(As, Ns) == pytest.approx(b1, rel=1e-12)
        assert (As != As0).nnz == 0 and (Ns != Ns0).nnz == 0


@pytest.mark.parametrize("which", ["A", "N"])
def test_beta_rejects_non_finite_input(which):
    A, N = np.eye(3), np.eye(3)
    (A if which == "A" else N)[1, 1] = np.nan
    # rejected by a finiteness check, before LAPACK or SuperLU sees the NaN
    for route in BETA_ROUTES:
        with pytest.raises(ValueError, match="NaN"):
            route(A, N)
        with pytest.raises(ValueError, match="NaN"):
            route(sp.csr_matrix(A), sp.csr_matrix(N))


@pytest.fixture(scope="module")
def level_4_pencil():
    """hdg/rho_h, k = 0, rho = 1 at level 4: 2,784 DOFs, over the
    crossover.  sigma = 1 cancels its flux mass: the diagonal of A - N has
    zeros there."""
    mesh = build_structured_mesh(16)
    case = SpaceCase("hdg", "rho_h", 0, 1.0)
    dofs = build_space_triple(mesh, case)
    tables = ElementTables(mesh, case)
    coeff = CoefficientField.unit()
    A = assemble_hdg(mesh, dofs, coeff, lambda xy: np.zeros(len(xy)),
                     tables).matrix
    return A, assemble_norm_gram(mesh, dofs, tables, coeff=coeff)


@functools.lru_cache(maxsize=None)
def _study_pencil(method, regime, k, rho):
    """The level-3 pencil of ``run_infsup_study`` at rho, with the guess
    and guess_rtol that the study passes it."""
    seen = []

    def capture(A, N, guess=None, guess_rtol=None):
        seen.append((A, N, guess, guess_rtol))
        return min_generalized_singular_value(A, N, guess, guess_rtol)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "min_generalized_singular_value", capture)
        run_infsup_study(method, regime, k, rhos=[rho], levels=(1, 2, 3))
    return seen[-1]


def test_beta_above_the_crossover_matches_cholesky_eigh_oracle(
        level_4_pencil):
    A, N = level_4_pencil
    assert A.shape[0] >= linalg.COUNTING_MIN_DOFS
    beta = min_generalized_singular_value(A, N)
    ref = cellwise.min_generalized_singular_value(A, N)
    assert abs(beta - ref) <= 1e-10 * ref


# the two most clustered level-3 pencils of the study, with its guess and
# guess_rtol: the eigenvalue above beta sits 4.5e-10 (wg/rho_h) and 1.2e-11
# (wg/inv) relative above it, so the root-finding must hand back to
# bisection there
@pytest.mark.parametrize("method,regime,rho", [("wg", "rho_h", 1e-4),
                                               ("wg", "inv", 1e-2)])
def test_clustered_pencil_matches_cholesky_eigh_oracle(method, regime, rho):
    A, N, guess, guess_rtol = _study_pencil(method, regime, 1, rho)
    assert A.shape[0] >= linalg.COUNTING_MIN_DOFS and guess_rtol is not None
    beta = min_generalized_singular_value(A, N, guess, guess_rtol)
    ref = cellwise.min_generalized_singular_value(A, N)
    assert abs(beta - ref) <= 1e-10 * ref


def test_counted_beta_does_not_depend_on_the_guess(level_4_pencil):
    A, N = level_4_pencil
    cold = linalg._counted_beta(A, N)
    for guess in (10.0 * cold, 0.1 * cold):
        assert linalg._counted_beta(A, N, guess) == pytest.approx(cold,
                                                                   rel=1e-12)


# ids that name no size, so that moving the crossover renames no test
@pytest.mark.parametrize("n,route", [
    (linalg.COUNTING_MIN_DOFS - 1, "_dense_beta"),
    (linalg.COUNTING_MIN_DOFS, "_counted_beta")], ids=["below", "at"])
def test_beta_route_follows_the_pencil_size(monkeypatch, n, route):
    calls = []

    def recorder(name):
        def record(A, N, *guess):
            calls.append((name, guess))
            return 0.5
        return record

    for name in ("_dense_beta", "_counted_beta"):
        monkeypatch.setattr(linalg, name, recorder(name))
    identity = sp.eye(n, format="csr")
    assert min_generalized_singular_value(identity, identity, 0.3,
                                          0.01) == 0.5
    assert calls == [(route,
                      (0.3, 0.01) if route == "_counted_beta" else ())]


def test_counted_beta_never_counts_from_a_bad_factor(level_4_pencil):
    # an exactly singular shift, and one whose zero diagonal forces a row
    # exchange, raise naming the shift; so does a pencil with beta = 0
    N = sp.eye(4, format="csr")
    with pytest.raises(SingularMatrixError,
                       match="inf-sup count at sigma = 1.0: .*singular"):
        linalg._counted_beta(N, N, guess=1.0)
    with pytest.raises(SingularMatrixError,
                       match="inf-sup count at sigma = 1.0: .*row exchange"):
        linalg._counted_beta(*level_4_pencil, guess=1.0)
    with pytest.raises(SingularMatrixError, match="singular to working"):
        linalg._counted_beta(sp.diags([0.0, 1.0, 2.0]), N[:3, :3])


SHIFT = r"inf-sup count at sigma = -?\d+\.\d+(e-\d+)?"


def test_counted_beta_names_its_shifts_as_plain_numbers(monkeypatch):
    # the bisection shifts come from np.sqrt and midpoints, so they are
    # numpy floats; a count that fails past the first bisection step must
    # still name its shift as a bare number
    A = sp.diags([0.5, 0.51, -3.0, 2.0, 4.0], format="csr")
    N = sp.eye(5, format="csr")
    stages = []
    pivots = linalg._ldlt_pivots

    def recording(matrix, options, stage):
        stages.append(stage)
        if len(stages) == fail_at:
            raise SingularMatrixError(stage + ": failed")
        return pivots(matrix, options, stage)

    monkeypatch.setattr(linalg, "_ldlt_pivots", recording)
    fail_at = 0
    linalg._counted_beta(A, N, guess=0.1)
    assert all(re.fullmatch(SHIFT, stage) for stage in stages[1:]), stages
    # the bracket counts +sigma and -sigma; the first step past it that
    # counts one sign only is a bisection of (0, hi), as only positive
    # eigenvalues lie in the bracket
    signs = [stage.split("= ")[1].startswith("-") for stage in stages[1:]]
    first_step = next(i for i in range(0, len(signs), 2)
                      if i + 1 == len(signs) or not signs[i + 1])
    fail_at = first_step + 3
    del stages[:]
    with pytest.raises(SingularMatrixError,
                       match="^" + SHIFT + ": failed$"):
        linalg._counted_beta(A, N, guess=0.1)
    assert len(stages) == fail_at


@pytest.mark.parametrize("guess", [0.0, -1.0, float("nan"), float("inf")])
def test_counted_beta_rejects_a_bad_guess(guess):
    N = sp.eye(3, format="csr")
    with pytest.raises(ValueError, match="guess"):
        linalg._counted_beta(N, N, guess)


@pytest.mark.parametrize("guess_rtol", [-1.0, float("nan"), float("inf")])
def test_counted_beta_rejects_a_bad_guess_rtol(guess_rtol):
    N = sp.eye(3, format="csr")
    with pytest.raises(ValueError, match="guess_rtol"):
        linalg._counted_beta(N, N, 1.0, guess_rtol)


# every splu call of one warm pencil: the SPD check of N, the bracket and
# the steps.  Measured 32 and 24; bisection from the same brackets takes
# 32 and 41, from the 1.05-wide brackets of a guess alone 41 and 41
@pytest.mark.parametrize("method,regime,k,rho,most", [
    ("wg", "rho_h", 1, 1e-4, 34), ("hdg", "inv", 0, 1.0, 26)])
def test_counted_beta_factorization_count(monkeypatch, method, regime, k, rho,
                                          most):
    A, N, guess, guess_rtol = _study_pencil(method, regime, k, rho)
    calls = []
    splu = spla.splu

    def counting(*args, **kwargs):
        calls.append(kwargs.get("permc_spec"))
        return splu(*args, **kwargs)

    monkeypatch.setattr(linalg.spla, "splu", counting)
    linalg._counted_beta(A, N, guess, guess_rtol)
    # one fill-reducing ordering, for the SPD check; every count reuses it
    assert calls[0] == "MMD_AT_PLUS_A"
    assert set(calls[1:]) == {"NATURAL"}
    assert len(calls) <= most


def test_matrix_io_round_trip():
    rng = np.random.default_rng(55)
    A = sp.random(20, 20, density=0.2, random_state=np.random.RandomState(1))
    A = (A + A.T).tolil()
    A[19, 19] = rng.standard_normal()  # pin the shape
    A = A.tocsr()
    buf = io.StringIO()
    write_matrix(A, buf)
    text = buf.getvalue()
    for line in text.strip().split("\n"):
        parts = line.split()
        assert len(parts) == 3
        int(parts[0]), int(parts[1]), float(parts[2])
    back = read_matrix(io.StringIO(text))
    assert back.shape == A.shape
    assert abs(A - back).max() < 1e-15
    # writing is deterministic
    buf2 = io.StringIO()
    write_matrix(A, buf2)
    assert buf2.getvalue() == text
