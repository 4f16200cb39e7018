import io

import numpy as np
import pytest
import scipy.sparse as sp

from hdgwg.assembly import (
    CoefficientField,
    assemble_hdg,
    assemble_norm_gram,
    assemble_primal_conforming,
    assemble_wg,
)
from hdgwg import linalg
from hdgwg.experiments import manufactured_case
from hdgwg.linalg import (
    SingularMatrixError,
    min_generalized_singular_value,
    solve_symmetric_indefinite,
    write_matrix,
)
from hdgwg.mesh import build_structured_mesh
from hdgwg.spaces import SpaceCase, build_space_triple

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
    if method == "primal":
        system, dofs = assemble_primal_conforming(mesh, k, coeff, prob.f)
    else:
        case = SpaceCase(method, regime, k, rho)
        dofs = build_space_triple(mesh, case)
        assemble = assemble_hdg if method == "hdg" else assemble_wg
        system = assemble(mesh, dofs, case, coeff, prob.f)
    return system.matrix, system.rhs, dofs


CONDENSED_INPUTS = [
    (method, regime, k, rho, mesh_name)
    for mesh_name in MESHES
    for method, regime in (("hdg", "rho_h"), ("hdg", "inv"),
                           ("wg", "rho_h"), ("wg", "inv"))
    for k in (0, 1)
    for rho in (1.0, 1e-2)
] + [("primal", None, k, None, mesh_name) for mesh_name in MESHES
     for k in (0, 1)]


@pytest.mark.parametrize("method,regime,k,rho,mesh_name", CONDENSED_INPUTS)
def test_condensation_matches_plain_factorization(method, regime, k, rho,
                                                  mesh_name, monkeypatch):
    A, b, dofs = _varcoef_system(method, regime, k, rho, mesh_name)
    cell_dofs = dofs.cell_local_dofs()
    assert cell_dofs.size > 0
    x_plain = solve_symmetric_indefinite(A, b)
    x_cond = solve_symmetric_indefinite(A, b, cell_dofs=cell_dofs)
    assert np.linalg.norm(x_cond - x_plain) <= 1e-10 * np.linalg.norm(x_plain)
    # refinement would hide a wrong elimination: the factor alone must pass
    monkeypatch.setattr(linalg, "REFINEMENT_STEPS", 0)
    x_once = solve_symmetric_indefinite(A, b, cell_dofs=cell_dofs)
    assert np.linalg.norm(x_once - x_plain) <= 1e-10 * np.linalg.norm(x_plain)


@pytest.mark.parametrize("regime", ["rho_h", "inv"])
@pytest.mark.parametrize("k", [0, 1])
def test_wg_scalar_is_not_cell_local(regime, k):
    # the WG (p, u) cell block is singular on cell constants
    A, b, dofs = _varcoef_system("wg", regime, k, 1.0, "structured")
    pu = np.concatenate([dofs.cell_flux_dofs(), dofs.cell_scalar_dofs()],
                        axis=1)
    m = pu.shape[1]
    with pytest.raises(SingularMatrixError,
                       match=r"local elimination: the {0}x{0} block of cell 0 "
                             r"is singular".format(m)):
        solve_symmetric_indefinite(A, b, cell_dofs=pu)


def test_cell_dofs_must_be_cell_local():
    A, b, dofs = _varcoef_system("hdg", "rho_h", 0, 1.0, "structured")
    local = dofs.cell_local_dofs()
    # cells 0 and 1 swap a flux DOF: each block now reaches into the other
    swapped = local.copy()
    swapped[[0, 1], 0] = local[[1, 0], 0]
    with pytest.raises(ValueError, match="couple across cells"):
        solve_symmetric_indefinite(A, b, cell_dofs=swapped)
    with pytest.raises(ValueError, match="more than once"):
        solve_symmetric_indefinite(A, b, cell_dofs=np.vstack([local, local]))
    with pytest.raises(ValueError, match="out of range"):
        solve_symmetric_indefinite(A, b, cell_dofs=local + dofs.total)


def test_failures_name_their_stage():
    b = np.ones(3)
    A = np.diag([np.nan, 1.0, 1.0])
    with pytest.raises(SingularMatrixError,
                       match="local elimination: the 1x1 block of cell 0 "
                             "is non-finite"):
        solve_symmetric_indefinite(sp.csr_matrix(A), b, cell_dofs=[[0]])
    A = sp.csr_matrix(np.array([[2.0, 0.0, 0.0],
                                [0.0, 1.0, 1.0],
                                [0.0, 1.0, 1.0]]))
    with pytest.raises(SingularMatrixError,
                       match="reduced factorization of 2 DOFs failed"):
        solve_symmetric_indefinite(A, b, cell_dofs=[[0]])
    rng = np.random.default_rng(5)
    B = rng.standard_normal((20, 20))
    with pytest.raises(SingularMatrixError,
                       match=r"refinement: residual .* exceeds tolerance .* "
                             r"after 5 steps"):
        solve_symmetric_indefinite(sp.csr_matrix(B + B.T),
                                   rng.standard_normal(20), rtol=1e-30)


def test_beta_of_identity_pencil():
    N = sp.eye(5, format="csr")
    assert abs(min_generalized_singular_value(N, N) - 1.0) < 1e-12


def test_beta_diagonal():
    A = sp.diags([3.0, -1.0, 5.0]).tocsr()
    N = sp.eye(3, format="csr")
    assert abs(min_generalized_singular_value(A, N) - 1.0) < 1e-12


def test_beta_matches_svd_oracle():
    # independent route: beta is the smallest singular value of
    # L^{-1} A L^{-T} with N = L L^T
    rng = np.random.default_rng(77)
    B = rng.standard_normal((5, 5))
    A = B + B.T
    C = rng.standard_normal((5, 5))
    N = C @ C.T + 5.0 * np.eye(5)
    beta = min_generalized_singular_value(sp.csr_matrix(A), sp.csr_matrix(N))
    L = np.linalg.cholesky(N)
    M = np.linalg.solve(L, np.linalg.solve(L, A).T).T
    ref = np.linalg.svd(M, compute_uv=False).min()
    assert abs(beta - ref) < 1e-10
    # random N-unit vectors never dip below beta in the dual norm
    Ninv = np.linalg.inv(N)
    for _ in range(2000):
        x = rng.standard_normal(5)
        x /= np.sqrt(x @ (N @ x))
        y = A @ x
        assert np.sqrt(y @ (Ninv @ y)) >= beta - 1e-10


def test_beta_congruence_invariance():
    # diagonal rescaling S applied as S A S, S N S leaves beta unchanged
    rng = np.random.default_rng(4)
    B = rng.standard_normal((12, 12))
    A = B + B.T
    C = rng.standard_normal((12, 12))
    N = C @ C.T + 12.0 * np.eye(12)
    S = np.diag(np.exp(rng.uniform(-2, 2, size=12)))
    b1 = min_generalized_singular_value(A, N)
    b2 = min_generalized_singular_value(S @ A @ S, S @ N @ S)
    assert abs(b1 - b2) < 1e-8 * max(b1, 1.0)


def test_beta_requires_spd_norm():
    A = np.eye(3)
    with pytest.raises(ValueError):
        min_generalized_singular_value(A, np.diag([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError):
        min_generalized_singular_value(np.eye(3), np.eye(4))


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
    N = assemble_norm_gram(mesh, dofs, coeff=coeff)
    beta = min_generalized_singular_value(A, N)
    ref = cellwise.min_generalized_singular_value(A, N)
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
    b1 = min_generalized_singular_value(A, N)
    assert np.array_equal(A, A0) and np.array_equal(N, N0)
    assert min_generalized_singular_value(A, N) == b1
    As, Ns = sp.csr_matrix(A), sp.csr_matrix(N)
    As0, Ns0 = As.copy(), Ns.copy()
    assert min_generalized_singular_value(As, Ns) == pytest.approx(b1,
                                                                   rel=1e-12)
    assert (As != As0).nnz == 0 and (Ns != Ns0).nnz == 0


@pytest.mark.parametrize("which", ["A", "N"])
def test_beta_rejects_non_finite_input(which):
    A, N = np.eye(3), np.eye(3)
    (A if which == "A" else N)[1, 1] = np.nan
    # rejected by the finiteness check, before LAPACK sees the NaN
    with pytest.raises(ValueError, match="NaN"):
        min_generalized_singular_value(A, N)
    with pytest.raises(ValueError, match="NaN"):
        min_generalized_singular_value(sp.csr_matrix(A), sp.csr_matrix(N))


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
