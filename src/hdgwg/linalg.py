"""Linear algebra for the saddle systems: solves and inf-sup constants."""

from __future__ import annotations

import numbers

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SingularMatrixError(RuntimeError):
    """Raised when a solve cannot meet its accuracy contract.  The message
    names the failing stage (local elimination, reduced factorization or
    refinement) and its numbers."""


# smallest accepted reciprocal 1-norm condition number of an equilibrated
# cell block; below it the block is singular to working precision
CELL_RCOND_MIN = 1e-13

REFINEMENT_STEPS = 5
# relative residual and backward error that a solve must meet
REFINEMENT_RTOL = 1e-10

# splu keyword arguments of the reduced factorization.  A reduced matrix
# whose diagonal has one strict sign is factored pivot-free in symmetric
# mode: diagonal pivots on a minimum-degree ordering of A + A^T, i.e. an
# LDL^T.  The HDG trace and primal systems are such (negative definite).
# Any other, such as the indefinite WG and mixed systems, gets partial
# pivoting on a COLAMD ordering.  The refinement contract below is the only
# acceptance test of either: a one-sign diagonal does not prove definiteness,
# so a pivot-free factor that misses it is redone once with partial pivoting.
PIVOT_FREE = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options=dict(SymmetricMode=True))
PARTIAL_PIVOTING = {}
# the pivot-free options on a matrix already in its fill-reducing order
ORDERED_PIVOT_FREE = dict(PIVOT_FREE, permc_spec="NATURAL")

# pencils of at least this many rows get their inf-sup constant by inertia
# counting, smaller ones by one dense eigensolve: the crossover of the two
# costs on the inf-sup study's pencils
COUNTING_MIN_DOFS = 600

# relative width of the final inertia-counting bracket on beta
BETA_RTOL = 1e-12

# first shift of a bracket search without a guess: not a round number, as
# a round one can be an exact eigenvalue (sigma = 1 is one of the hdg/rho_h
# k = 0 pencil)
COLD_SHIFT = 1.0 / np.pi

# first factor by which a bracket search moves its shift when the guess
# has no stated error, and the largest one when it has; each further move
# squares it.  The study's betas at one rho differ by about 1 % from one
# level to the next, so a bracket from such a guess closes in one move
BRACKET_STEP = 1.05

# smallest first move of a bracket search from a guess with a stated
# relative error (see _counted_beta), so that a zero error still moves
BRACKET_RTOL_MIN = 1e-6


def solve_symmetric_indefinite(matrix, rhs, cell_blocks=(0, 0)):
    """Solve A x = b for symmetric (generally indefinite) sparse A.

    ``cell_blocks`` (C, m), two non-negative integers, says that the first
    L = C m DOFs couple only within their own cell, m consecutive per
    cell: A[:L, :L] is block diagonal with C blocks of size m.  They are
    eliminated first (static condensation), cell by cell, on a layout of
    the blocks that each call reads from A's sparsity structure.  The
    condensation reads A's first L rows alone and takes K_gl as K_lg^T, so
    it requires a symmetric A; on any other, the refinement below meets
    the contract or raises.  The reduced matrix is factored with a sparse
    LU (pivot-free when its diagonal has one sign, see ``PIVOT_FREE``),
    and the cell unknowns are recovered by back-substitution.
    ``DofMap.cell_blocks`` gives the blocks (see
    ``spaces.build_space_triple``); without them the reduced matrix is A.
    The condensation, factorization and refinement are those of
    ``solve_element_system``, which starts from element matrices instead.

    The solution is refined iteratively against the full A.  Refinement
    stops as soon as ||A x - b|| <= rtol ||b|| (rtol = ``REFINEMENT_RTOL``),
    or when a step fails to halve the residual norm (the stagnation test
    of LAPACK's xGERFS), or after ``REFINEMENT_STEPS`` steps.  The first
    test passes when the matrix is well scaled; in general the acceptance
    criterion is the normwise backward error ||A x - b|| <= rtol (||A||_F
    ||x|| + ||b||), checked on the x where refinement stopped, which is
    attainable in double precision even when the stabilization weights
    inflate the matrix scale.  Failure raises SingularMatrixError naming
    its stage; cell blocks that are not two non-negative integers, couple
    across cells or exceed A raise ValueError.  The arguments are never
    modified.
    """
    A = _canonical(matrix)
    b = np.asarray(rhs, dtype=float)
    if A.shape[0] != A.shape[1] or A.shape[0] != b.shape[0]:
        raise ValueError("matrix/rhs shapes do not match")
    return _refined(A, b, *_condensed_factor(A, cell_blocks))


def solve_element_system(stacks, cell_dofs, rhs, cell_blocks):
    """Solve A x = b for the symmetric A = sum_c P_c^T K_c P_c given by its
    element matrices, without assembling A.

    ``stacks`` (C, k, k) holds each cell's element matrix K_c on its k
    local DOFs ``cell_dofs`` (C, k): global DOFs, or -1 for one that the
    space eliminates, whose rows and columns of K_c are left out.
    ``cell_blocks`` (C, m) are those of ``solve_symmetric_indefinite``:
    the first L = C m DOFs are the cells' own, m consecutive per cell, and
    each cell lists its own ones among its local DOFs in that order, at the
    same local positions in every cell; every other local DOF is at least
    L (or -1).  K_ll, K_lg and K_gg are gathered from each cell's K_c, the
    cells are condensed in batch and only the reduced matrix is summed
    across cells.  The factorization, back-substitution and refinement are
    those of ``solve_symmetric_indefinite``, against A itself: A x is
    formed cell by cell, and ||A||_F, which only the backward-error bound
    reads, exactly, as the squares of the cells' own rows and columns plus
    those of the summed K_gg.  Inputs that do not fit raise ValueError;
    the arguments are never modified.
    """
    K = np.asarray(stacks, dtype=float)
    dofs = np.asarray(cell_dofs)
    b = np.asarray(rhs, dtype=float)
    n = b.shape[0]
    num_cells, m = _cell_block_sizes(cell_blocks, n)
    if not (K.ndim == 3 and dofs.ndim == 2 and K.shape[1] == K.shape[2]
            and K.shape[:2] == dofs.shape and dofs.max(initial=-1) < n):
        raise ValueError("element matrices {} do not fit cell DOFs {} of a "
                         "system of {} DOFs".format(K.shape, dofs.shape, n))
    L = num_cells * m
    own = (dofs >= 0) & (dofs < L)
    local = np.flatnonzero(own[0]) if len(dofs) else np.zeros(0, dtype=int)
    if m and not (len(dofs) == num_cells and len(local) == m
                  and np.array_equal(own, np.broadcast_to(own[0], own.shape))
                  and np.array_equal(dofs[:, local],
                                     np.arange(L).reshape(num_cells, m))):
        raise ValueError("cell blocks {!r} are not the cells' own DOFs, m "
                         "per cell in cell order".format(tuple(cell_blocks)))
    coupled = np.flatnonzero(~own[0]) if len(dofs) else local
    A = _ElementMatrix(K, dofs, n, local, coupled)
    glob = dofs[:, coupled] - L
    glob[glob < 0] = n - L
    # K_lg and K_gg are views where the positions run contiguously, as
    # they do for every method but mixed; K_ll is overwritten, so a copy
    return _refined(A, b, *_condense(
        np.array(_gather(K, local, local)), _gather(K, local, coupled), glob,
        n - L, cell_gg=_gather(K, coupled, coupled)))


def _gather(K, rows, cols):
    """K[:, rows][:, :, cols] for position arrays ``rows`` and ``cols``:
    a view if each is one contiguous run."""
    runs = [slice(p[0], p[-1] + 1) if len(p) and p[-1] - p[0] == len(p) - 1
            else None for p in (rows, cols)]
    if None in runs:
        return K[:, rows[:, None], cols]
    return K[:, runs[0], runs[1]]


class _ElementMatrix:
    """A = sum_c P_c^T K_c P_c of element matrices, for ``_refine``: the
    product A x and the exact ||A||_F, both cell by cell.  ``local`` and
    ``coupled`` split the local positions: the cells' own DOFs, which no
    two cells share, and the others."""

    def __init__(self, stacks, cell_dofs, n, local, coupled):
        self.stacks, self.n = stacks, n
        self.local, self.coupled = local, coupled
        # an eliminated DOF's slot points past the end
        self.at = np.where(cell_dofs >= 0, cell_dofs, n)

    def __matmul__(self, x):
        y = self.stacks @ np.append(x, 0.0)[self.at][..., None]
        return np.bincount(self.at.ravel(), weights=y.ravel(),
                           minlength=self.n + 1)[:self.n]

    def frobenius_norm(self):
        """||A||_F: the cells' own rows and columns hold A's entries there,
        and the rest of the element matrices sums to A_gg."""
        K, n, local, coupled = self.stacks, self.n, self.local, self.coupled
        valid = self.at < n
        own = (np.sum(np.square(K[:, local]), axis=1)[valid].sum()
               + np.sum(np.square(K[:, coupled[:, None], local]),
                        axis=2)[valid[:, coupled]].sum())
        at = self.at[:, coupled]
        # an eliminated DOF's entries go to row and column n, and are zero
        gg = np.where(at[:, :, None] < n, K[:, coupled[:, None], coupled], 0.0)
        A_gg = sp.csr_matrix((gg.ravel(), (
            np.repeat(at, len(coupled), axis=1).ravel(),
            np.tile(at, len(coupled)).ravel())), shape=(n + 1, n + 1))
        return np.sqrt(own + A_gg.data @ A_gg.data)


def _cell_block_sizes(cell_blocks, n):
    """``cell_blocks`` as two ints (C, m) with C m <= n, else ValueError."""
    pair = tuple(cell_blocks)
    if not (len(pair) == 2 and all(isinstance(v, numbers.Integral)
                                   and v >= 0 for v in pair)):
        raise ValueError("cell blocks must be two non-negative integers "
                         "(C, m), got {!r}".format(pair))
    num_cells, m = map(int, pair)
    if num_cells * m > n:
        raise ValueError("{} cell blocks of {} DOFs exceed the {} DOFs "
                         "of A".format(num_cells, m, n))
    return num_cells, m


def _canonical(matrix):
    """``matrix`` as CSR with sorted, unique column indices."""
    A = matrix if sp.isspmatrix_csr(matrix) else sp.csr_matrix(matrix)
    if not A.has_canonical_format:
        # sum_duplicates works in place, on arrays shared with ``matrix``
        A = A.copy()
        A.sum_duplicates()
    return A


def _refined(A, b, factor, first):
    """The solution of A x = b by the condensed ``factor`` with the splu
    options ``first``, refined; a pivot-free factor that fails is redone
    once with partial pivoting."""
    try:
        return _refine(A, b, factor(first))
    except SingularMatrixError:
        if first is PARTIAL_PIVOTING:
            raise
    return _refine(A, b, factor(PARTIAL_PIVOTING))


def _refine(A, b, solve):
    """x = solve(b), refined against A to the contract above.  A is a
    sparse matrix or an ``_ElementMatrix``."""
    x = solve(b)
    if not np.all(np.isfinite(x)):
        raise SingularMatrixError("solution contains non-finite entries")
    strict = REFINEMENT_RTOL * max(np.linalg.norm(b), 1e-300)
    last, steps = np.inf, 0
    while True:
        r = b - A @ x
        residual = np.linalg.norm(r)
        if residual <= strict:
            return x
        # stop once a step fails to halve the residual, or the steps run out
        if not residual <= 0.5 * last or steps == REFINEMENT_STEPS:
            break
        x = x + solve(r)
        last, steps = residual, steps + 1
    anorm = (A.frobenius_norm() if isinstance(A, _ElementMatrix)
             else np.sqrt(A.data @ A.data))
    bound = REFINEMENT_RTOL * max(
        anorm * np.linalg.norm(x) + np.linalg.norm(b), 1e-300)
    if not residual <= bound:
        raise SingularMatrixError(
            "refinement: residual {:.3e} exceeds tolerance {:.3e} after {} "
            "steps".format(residual, bound, steps)
        )
    return x


def _full_block_layout(A, num_cells, m):
    """``(coupled, start)`` if the cell rows of A's structure, its first
    L = C m rows, store the cell blocks in full, else None.  They do when
    each row of cell c's block holds the block's m columns and then the
    same DOFs beyond L, c's coupled DOFs, as the rows of every assembled
    system do.  ``start`` (C, m) holds the position, among the stored
    entries, of the first entry of each row of each cell's block: the
    row's m block entries, then its g coupled ones, K_ll and K_lg.
    ``coupled`` (C, g) lists each cell's coupled DOFs ascending, as its
    first row does, -1 padded.  Then every position follows from the row
    pointers, and no entry couples two cells' blocks."""
    L = num_cells * m
    indptr, indices = A.indptr, A.indices
    start = indptr[:L].reshape(num_cells, m)
    if m == 0:
        return np.zeros((num_cells, 0), dtype=np.int64), start
    # entries beyond the block, the same in every row of a cell
    count = np.diff(indptr[:L + 1]).reshape(num_cells, m) - m
    if not np.all(count == count[:, :1]) or np.any(count < 0):
        return None
    count = count[:, 0]
    j = np.arange(count.max(initial=0))
    valid = j < count[:, None]
    first = np.arange(0, L, m)
    # each row's coupled entries; an absent DOF's point at the first entry
    lg = np.where(valid[:, None, :], start[:, :, None] + m + j,
                  start[:, :1, None])
    coupled = np.where(valid, indices[lg[:, 0]], -1)
    # a row's columns are sorted and distinct, so m of them that start at
    # c m and end at c m + m - 1 are cell c's block
    if not (np.all(coupled[valid] >= L)
            and np.array_equal(indices[start], np.broadcast_to(
                first[:, None], start.shape))
            and np.array_equal(indices[start + m - 1], np.broadcast_to(
                first[:, None] + m - 1, start.shape))
            and np.all((indices[lg] == coupled[:, None, :])
                       | ~valid[:, None, :])):
        return None
    return coupled, start


def _padded(A, num_cells, m):
    """A copy of A without A[L:, :L], padded with explicit zeros so that
    its cell rows store their blocks in full.  It holds A's own values:
    the COO -> CSR sum adds only zeros to them, and keeps the explicit
    zeros.  The entries that couple two cells' blocks are left out; a
    nonzero among them raises ValueError.  Each cell's coupled DOFs are
    the ones beyond L that its rows reach."""
    n, L = A.shape[0], num_cells * m
    row = np.repeat(np.arange(n), np.diff(A.indptr))
    col = A.indices.astype(np.int64)
    cross = (row < L) & (col < L) & (row // m != col // m)
    outside = np.count_nonzero(A.data[cross])
    if outside:
        raise ValueError(
            "cell blocks couple across cells: {} nonzeros of A[:{}, :{}] "
            "lie outside the {} diagonal {}x{} blocks".format(
                outside, L, L, num_cells, m, m))
    kept = ~cross & ((row < L) | (col >= L))
    lg = (row < L) & (col >= L)
    cell, dof = np.divmod(np.unique((row[lg] // m) * n + col[lg]), n)
    block = np.arange(L).reshape(num_cells, 1, m)
    own = np.broadcast_to(block, (num_cells, m, m))
    return sp.csr_matrix((
        np.concatenate([A.data[kept], np.zeros(own.size + len(cell) * m)]),
        (np.concatenate([row[kept], own.transpose(0, 2, 1).ravel(),
                         (cell[:, None] * m + np.arange(m)).ravel()]),
         np.concatenate([col[kept], own.ravel(), np.repeat(dof, m)]))),
        shape=A.shape)


def _condensed_factor(A, cell_blocks):
    """Condense the leading ``cell_blocks`` (C, m) out of A, reading its
    cell rows alone: K_gl is K_lg^T.  Returns ``factor`` and the options
    to try first, as ``_condense``."""
    num_cells, m = _cell_block_sizes(cell_blocks, A.shape[0])
    n, L = A.shape[0], num_cells * m
    layout = _full_block_layout(A, num_cells, m)
    if layout is None:
        A = _padded(A, num_cells, m)
        layout = _full_block_layout(A, num_cells, m)
    coupled, start = layout
    del layout
    g = coupled.shape[1]
    glob = np.where(coupled >= 0, coupled - L, n - L)
    split = A.indptr[L]
    keep = A.indices[split:] >= L
    # an absent DOF's slots read the cell's first entry
    start = start[:, :, None]
    lg = np.where((glob == n - L)[:, None, :], start,
                  start + m + np.arange(g, dtype=start.dtype))
    # the gathers go straight to the condensation, which frees each once
    # used; A_gg's entries go with their rows and columns in the reduced
    # matrix
    return _condense(
        A.data[start + np.arange(m, dtype=start.dtype)], A.data[lg], glob,
        n - L,
        gg=(A.data[split:][keep],
            np.repeat(np.arange(n - L, dtype=A.indices.dtype),
                      np.diff(A.indptr[L:]))[keep],
            A.indices[split:][keep] - L))


def _condense(blocks, K_lg, glob, size, cell_gg=None, gg=None):
    """Condense the cell blocks K_ll ``blocks`` (C, m, m), which are
    overwritten, out of a system whose other ``size`` DOFs form the
    reduced one: the first L = C m DOFs are the cells', and each cell's
    K_lg (C, m, g) couples them to its DOFs ``glob`` (C, g) of the
    reduced system, numbered from L on; an absent one is ``size``, and
    its entries, finite, are left out.  The reduced matrix sums the
    cells' complements K_gg - K_gl K_ll^-1 K_lg, K_gl = K_lg^T, with K_gg
    each cell's own (C, g, g) ``cell_gg``, or else zero, and the
    triplets ``gg`` (values, rows, cols) of A_gg if given.

    Returns ``factor``, which maps splu options to a solver r -> A^-1 r,
    and the options to try first: ``PIVOT_FREE`` if the reduced diagonal
    has one strict sign, else ``PARTIAL_PIVOTING``.  The caller passes
    its arrays on, keeping no reference, so each is freed once used."""
    num_cells, m, g = K_lg.shape
    L = num_cells * m
    inv = _invert_cell_blocks(blocks)
    del blocks
    # the solve keeps K_ll^-1 and K_lg alone: K_gl is a view of K_lg^T,
    # and K_ll^-1 K_lg lives only for the complement
    K_gl = K_lg.transpose(0, 2, 1)
    complement = K_gl @ (inv @ K_lg)
    if cell_gg is None:
        np.negative(complement, out=complement)
    else:
        np.subtract(cell_gg, complement, out=complement)
    del cell_gg
    # the rows and columns of absent DOFs are zeroed, and added to the
    # first entry; the solve multiplies their K_lg columns by zero
    absent = glob == size
    complement[absent[:, :, None] | absent[:, None, :]] = 0.0
    idx = np.int32 if size < 2**31 else np.int64
    at = np.where(absent, 0, glob).astype(idx)
    del absent
    values, rows, cols = [complement.ravel()], [np.repeat(
        at, g, axis=1).ravel()], [np.tile(at, g).ravel()]
    del complement, at
    if gg is not None:
        values.insert(0, gg[0])
        rows.insert(0, gg[1])
        cols.insert(0, gg[2])
        del gg
    reduced = sp.coo_matrix(
        (np.concatenate(values), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size))
    # the sum holds its own copies: free the parts before it converts them
    del values, rows, cols
    reduced = reduced.tocsc()
    # the sum keeps the exact zeros of A_gg, and the room of the summed
    # duplicates; the factorization needs neither
    reduced.eliminate_zeros()
    reduced = reduced.copy()
    diag = reduced.diagonal()
    one_sign = np.all(diag < 0.0) or np.all(diag > 0.0)

    def factor(options):
        try:
            lu = spla.splu(reduced, **options)
        except Exception as exc:
            raise SingularMatrixError(
                "reduced factorization of {} DOFs failed: {}".format(
                    size, exc)) from exc

        def solve(r):
            r_l = r[:L].reshape(num_cells, m, 1)
            x_g = lu.solve(r[L:] - np.bincount(
                glob.ravel(), weights=(K_gl @ (inv @ r_l)).ravel(),
                minlength=size + 1)[:size])
            x_l = inv @ (r_l - K_lg @ np.append(x_g, 0.0)[glob][..., None])
            return np.concatenate([x_l.ravel(), x_g])

        return solve

    return factor, PIVOT_FREE if one_sign else PARTIAL_PIVOTING


def _invert_cell_blocks(blocks):
    """Inverses of a (C, m, m) block stack by batched dense LU after
    symmetric equilibration, which overwrites ``blocks``; a singular or
    non-finite block raises."""
    num_cells, m, _ = blocks.shape
    finite = np.isfinite(blocks).all(axis=(1, 2))
    blocks[~finite] = np.eye(m)
    row_max = np.abs(blocks).max(axis=2, initial=0.0)
    scale = 1.0 / np.sqrt(np.where(row_max > 0.0, row_max, 1.0))
    blocks *= scale[:, :, None]
    blocks *= scale[:, None, :]
    # column sums as a product: a sum over the short middle axis is slow
    ones = np.ones(m)
    norm1 = lambda M: (ones @ np.abs(M)).max(axis=1, initial=0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        try:
            inv = np.linalg.inv(blocks)
            rcond = 1.0 / (norm1(blocks) * norm1(inv))
        except np.linalg.LinAlgError:
            # an exactly singular block: rank all blocks by singular values
            sv = np.linalg.svd(blocks, compute_uv=False)
            rcond = sv[:, -1] / sv[:, 0]
    bad = np.flatnonzero(~finite | ~(rcond >= CELL_RCOND_MIN))
    if bad.size:
        c = bad[0]
        raise SingularMatrixError(
            "local elimination: the {}x{} block of cell {} is {} ({} of {} "
            "cell blocks fail)".format(
                m, m, c,
                "non-finite" if not finite[c]
                else "singular (reciprocal condition {:.1e} < {:.0e})".format(
                    rcond[c], CELL_RCOND_MIN),
                bad.size, num_cells))
    inv *= scale[:, :, None]
    inv *= scale[:, None, :]
    return inv


def min_generalized_singular_value(A, N, guess=None, guess_rtol=None):
    """Smallest |lambda| of N^{-1/2} A N^{-1/2} for symmetric A and SPD N.

    Equals min_x max_y (x' A y) / (|x|_N |y|_N), the discrete inf-sup
    constant of A measured in the norm induced by N.

    A pencil of fewer than ``COUNTING_MIN_DOFS`` rows is solved by one dense
    eigensolve (``_dense_beta``), a larger one by inertia counting
    (``_counted_beta``), whose bracket starts from ``guess``, an estimate of
    beta such as its value on a coarser mesh, and is first sized by
    ``guess_rtol``, the guess's expected relative error.  Either way a
    non-SPD N or non-finite input raises ValueError, and the arguments are
    never modified.
    """
    if np.shape(A)[0] < COUNTING_MIN_DOFS:
        return _dense_beta(A, N)
    return _counted_beta(A, N, guess, guess_rtol)


def _dense_beta(A, N):
    """beta by one dense generalized eigensolve with LAPACK's QR-based
    ``sygv``, which also factors N by Cholesky, so a non-SPD N raises
    ValueError from that factorization.  It works in place on fresh
    Fortran-ordered copies of A and N."""
    Ad = _densify(A)
    Nd = _densify(N)
    if Ad.shape != Nd.shape or Ad.shape[0] != Ad.shape[1]:
        raise ValueError("A and N must be square with equal shapes")
    try:
        eigvals = scipy.linalg.eigh(Ad, Nd, eigvals_only=True, driver="gv",
                                    overwrite_a=True, overwrite_b=True)
    except scipy.linalg.LinAlgError as exc:
        # only a failed Cholesky factorization of N ("... of B is not
        # positive definite") is a bad input; a QR failure propagates
        if "positive definite" not in str(exc):
            raise
        raise ValueError("norm matrix N must be symmetric positive definite") from exc
    return float(np.min(np.abs(eigvals)))


def _counted_beta(A, N, guess=None, guess_rtol=None):
    """beta by spectrum slicing (Parlett, The Symmetric Eigenvalue Problem,
    1980, ch. 3).  By Sylvester's law of inertia the number of negative
    pivots of an LDL^T factorization of A - sigma N is the number of
    eigenvalues of the pencil below sigma, and the product of the pivots
    is det(A - sigma N).  beta is the infimum of the sigma > 0 with an
    eigenvalue in [-sigma, sigma).

    The bracket search starts at ``guess`` (else at ``COLD_SHIFT``) and
    moves by growing factors until the low end lo holds no eigenvalue in
    [-lo, lo) and the high end hi some.  The first factor is 1 +
    ``guess_rtol``, the expected relative error of the guess, within
    [1 + ``BRACKET_RTOL_MIN``, ``BRACKET_STEP``]; without it,
    ``BRACKET_STEP``.  Then neg(A) is the count at lo on either side, and
    only the side(s), positive or negative, that still hold an eigenvalue
    below hi are factored.  While they hold more than one, the next shift
    bisects the bracket.  Once one side holds exactly one, the determinant
    changes sign across the bracket exactly once, and the next shift is
    the Illinois regula falsi root of it: the sign from the count, the
    magnitude from the log of the pivots.  Whenever two steps fail to
    halve the bracket, the next one bisects.  It stops when hi - lo <=
    BETA_RTOL * hi and returns the midpoint; every bracket end is a count.

    N is checked SPD by a pivot-free LDL^T (``PIVOT_FREE``) with all
    pivots > 0.  Its fill-reducing order is applied once to the shared
    structure of A and N, and every count factors in that order.  A factor
    is accepted only if its row and column permutations agree; else, or if
    it is exactly singular, SingularMatrixError names the shift.  A bracket
    search that runs out of floating-point range, as for an A singular to
    working precision, raises SingularMatrixError too.
    """
    if guess is not None and not (0.0 < guess < np.inf):
        raise ValueError("inf-sup guess must be positive and finite, "
                         "got {!r}".format(guess))
    if guess_rtol is not None and not (0.0 <= guess_rtol < np.inf):
        raise ValueError("inf-sup guess_rtol must be non-negative and "
                         "finite, got {!r}".format(guess_rtol))
    a, n, indices, indptr = _ordered_pencil(A, N)
    shape = (len(indptr) - 1,) * 2

    def count(sigma):
        """The number of eigenvalues below sigma, and log|det(A - sigma N)|,
        both from the pivots."""
        _, d = _ldlt_pivots(
            sp.csc_matrix((a - sigma * n, indices, indptr), shape=shape),
            ORDERED_PIVOT_FREE,
            "inf-sup count at sigma = {!r}".format(float(sigma)))
        return (int(np.count_nonzero(d < 0.0)),
                float(np.sum(np.log(np.abs(d)))))

    lo, hi = 0.0, np.inf
    sigma = COLD_SHIFT if guess is None else float(guess)
    factor = BRACKET_STEP if guess_rtol is None else 1.0 + min(
        max(guess_rtol, BRACKET_RTOL_MIN), BRACKET_STEP - 1.0)
    while True:
        counted = {side: count(side * sigma) for side in (1, -1)}
        if counted[1][0] == counted[-1][0]:
            # none in [-sigma, sigma): the count is neg(A)
            lo, at_lo, negative = sigma, counted, counted[1][0]
        else:
            hi, at_hi = sigma, counted
        if lo > 0.0 and hi < np.inf:
            break
        sigma = sigma * factor if hi == np.inf else sigma / factor
        factor *= factor
        if not 0.0 < sigma < np.inf:
            raise SingularMatrixError("inf-sup bracket: " + (
                "no eigenvalue of modulus below sigma = {!r}".format(
                    float(lo))
                if hi == np.inf else "eigenvalues in (-sigma, sigma) for "
                "every sigma down to {!r}: A is singular to working "
                "precision".format(float(hi))))
    # +1: an eigenvalue in (0, hi); -1: one in (-hi, 0)
    sides = [side for side in (1, -1) if at_hi[side][0] != negative]
    widths, moved, halved = [], 0, {1: 0, -1: 0}
    while hi - lo > BETA_RTOL * hi:
        widths.append(hi - lo)
        side = sides[0]
        isolated = len(sides) == 1 and abs(at_hi[side][0] - negative) == 1
        if isolated and (len(widths) < 3 or widths[-1] < 0.5 * widths[-3]):
            # the regula falsi root 1 / (1 + |det(hi)| / |det(lo)|) of the
            # way from lo to hi, each end's |det| scaled down by 2^halved,
            # at least 0.4 BETA_RTOL hi from either end
            log_ratio = (at_hi[side][1] - at_lo[side][1]
                         - (halved[1] - halved[-1]) * np.log(2.0))
            root = lo + 0.5 * (1.0 - np.tanh(0.5 * log_ratio)) * (hi - lo)
            gap = 0.4 * BETA_RTOL * hi
            mid = min(max(root, lo + gap), hi - gap)
        else:
            mid = np.sqrt(lo * hi) if hi > 2.0 * lo else 0.5 * (lo + hi)
        counted = {side: count(side * mid) for side in sides}
        hit = [side for side in sides if counted[side][0] != negative]
        # Illinois: an end kept for a second step in a row has its |det|
        # halved again; a new end starts unscaled
        end = 1 if hit else -1
        if moved == end:
            halved[-end] += 1
        halved[end], moved = 0, end
        if hit:
            hi, at_hi, sides = mid, counted, hit
        else:
            lo, at_lo = mid, counted
    return float(0.5 * (lo + hi))


def _ordered_pencil(A, N):
    """A and N on the union of their patterns, in the fill-reducing order
    of N's SPD check: the values of A and of N, and the shared CSC row
    indices and column pointers.  Only these outlive the call, so no
    unordered copy of the pencil stays in memory through the counts."""
    A, N = sp.coo_matrix(A), sp.coo_matrix(N)
    if A.shape != N.shape or A.shape[0] != A.shape[1]:
        raise ValueError("A and N must be square with equal shapes")
    if not (np.isfinite(A.data).all() and np.isfinite(N.data).all()):
        raise ValueError("A and N must not contain infs or NaNs")
    # A + iN summed on the union of both patterns: its real and imaginary
    # parts are A and N on one shared CSC structure
    both = sp.csc_matrix(
        (np.concatenate([A.data, 1j * N.data]),
         (np.concatenate([A.row, N.row]), np.concatenate([A.col, N.col]))),
        shape=A.shape)
    try:
        order, d = _ldlt_pivots(
            sp.csc_matrix((both.data.imag.copy(), both.indices, both.indptr),
                          shape=A.shape), PIVOT_FREE, "norm matrix N")
        spd = np.all(d > 0.0)
    except SingularMatrixError:
        spd = False
    if not spd:
        raise ValueError("norm matrix N must be symmetric positive definite")
    # the order moves entry (i, j) to (order[i], order[j]): sort the moved
    # entries by column, then row, and gather the values in that order
    rows = order[both.indices]
    cols = order[np.repeat(np.arange(A.shape[1]), np.diff(both.indptr))]
    gather = np.lexsort((rows, cols))
    indptr = np.zeros_like(both.indptr)
    np.cumsum(np.bincount(cols, minlength=A.shape[1]), out=indptr[1:])
    return (both.data.real[gather], both.data.imag[gather], rows[gather],
            indptr)


def _ldlt_pivots(matrix, options, stage):
    """Column order and pivots of a pivot-free LDL^T of ``matrix`` by
    ``splu`` with ``options``.  An exactly singular factor, or one whose
    row and column permutations differ, raises SingularMatrixError naming
    ``stage``."""
    try:
        lu = spla.splu(matrix, **options)
    except RuntimeError as exc:
        raise SingularMatrixError("{}: {}".format(stage, exc)) from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SingularMatrixError(
            "{}: a zero diagonal pivot forced a row exchange, so the "
            "factor is no LDL^T".format(stage))
    return lu.perm_c, lu.U.diagonal()


def _densify(M):
    """A fresh Fortran-ordered float64 copy, for LAPACK to overwrite."""
    if sp.issparse(M):
        return M.toarray(order="F")
    return np.array(M, dtype=float, order="F")


def write_matrix(matrix, fh):
    """Write ``row col value`` coordinate text, row-major, 17 digits."""
    coo = sp.coo_matrix(matrix)
    order = np.lexsort((coo.col, coo.row))
    for i in order:
        fh.write("{} {} {:.17g}\n".format(coo.row[i], coo.col[i], coo.data[i]))
