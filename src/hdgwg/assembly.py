"""Assembly of the HDG/WG systems and their conforming limits.

Each method's bilinear form is written once, as the terms of
``_form_terms``; ``FormSums`` evaluates them, and ``assemble_terms`` the
norm-pair terms of ``hdgwg.norms``, as stacked per-cell blocks on the
batched tables below.

The blocks are summed on a ``SumPattern``, which is built from the terms'
DOFs alone: one stable sort of the triplet keys fixes where each block
entry goes and which entries add up.  Assembly then writes the raveled
blocks one after another, takes each run of equal keys' first value, and
sums the runs of more than one triplet by ``np.add.reduceat``.  A diagonal
term's blocks are symmetrized and an off-diagonal term's entries are also
gathered for its transpose, so A == A.T exactly, and repeated runs are
bit-identical.

rho enters a system only through the factor f(rho) of its stabilization
weight f(rho) g(h_K), so ``FormSums`` sums the unit-scale terms and the
stabilization terms apart, once, and each rho's matrix is A0 + f(rho) A1
on their shared structure.  A rho sweep on one mesh and space builds one
``FormSums`` for its systems and one pattern for its Grams
(``norms.gram_pattern``), and gets for every rho the matrix a one-shot
assembly would give, to the bit.

Subscripts in the ``contract`` calls: ``c`` cell, ``l`` local edge, ``q``
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
from .spaces import SpaceCase


def contract(subscripts, *operands):
    """``np.einsum`` on an optimized contraction order, so that pairwise
    products run as BLAS matrix products where they can instead of one
    nested loop over all indices.  Every cell kernel of the package
    contracts through this one helper."""
    return np.einsum(subscripts, *operands, optimize=True)


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


def _per_cell(values, naxes):
    """Per-cell (C, ...) values reshaped to broadcast over ``naxes`` point
    axes after the cell axis."""
    return values.reshape((len(values),) + (1,) * naxes + values.shape[1:])


def _tabulate(evaluate, degree, pts, rows=None):
    """The arrays of ``evaluate(degree, points)`` from one evaluation at
    reference points ``pts`` (..., 2), with a leading cell axis: of length
    1 for points shared by all cells (``rows`` None), else each cell's
    entries of the first point axis, picked by ``rows`` (C, ...)."""
    out = evaluate(degree, pts.reshape(-1, 2))
    out = [a.reshape(pts.shape[:-1] + a.shape[1:]) for a in out]
    return [a[None] if rows is None else a[rows] for a in out]


def edge_points(mesh, s):
    """Physical points (E, ns, 2) of edge parameters ``s`` on every edge."""
    pa = mesh.vertices[mesh.edge_vertices[:, 0]]
    pb = mesh.vertices[mesh.edge_vertices[:, 1]]
    return pa[:, None] + s[:, None] * (pb - pa)[:, None]


def side_points(s):
    """Reference points (6, ns, 2) of edge parameters ``s`` on the three
    reference sides, each traversed both ways: row 2 l + flip holds local
    side l, run against its own direction if flip.  A cell's side l follows
    the global edge parameter on row ``2 l + Mesh.cell_edge_flip[:, l]``."""
    return np.array([a + np.multiply.outer(t, b - a)
                     for a, b, _, _ in basis.REF_EDGES for t in (s, 1.0 - s)])


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
    nt trace basis functions.  Each basis is tabulated once, at reference
    points, and the affine and Piola maps carry that table to the cells.
    Only the studies build tables; every kernel takes them as an
    argument.  The volume rule of nq points and the edge rule of ns points
    are both of degree ``quad_degree``, by default
    min(2 scalar_degree + 3, ``basis.MAX_QUADRATURE_DEGREE``).  That default
    is the one rule of the studies: each builds one set of tables per mesh
    and space and shares it between its assemblers and ``hdgwg.norms``.
    The tables do not depend on rho, and keep of the case only its local
    spaces and trace degree ``trace_deg``.

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
    an interior edge see identical physical points.  The side bases are
    tabulated on the six point sets of ``side_points``, and cell side l
    reads row 2 l + ``Mesh.cell_edge_flip``.  ``trace`` (ns,nt) is the
    orthonormal trace basis in that parameter, shared by all edges.
    """

    def __init__(self, mesh: Mesh, case: SpaceCase, quad_degree=None):
        self.mesh = mesh
        self.local_spaces = case.local_spaces
        self.trace_deg = case.trace_deg
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

        pts = side_points(self.edge.points)
        rows = 2 * np.arange(3) + mesh.cell_edge_flip
        self.edge_w = (self.edge.weights
                       * mesh.edge_length[mesh.cell_edges][..., None])
        self.edge_xy = edge_points(mesh, self.edge.points)[mesh.cell_edges]
        self.edge_sval, _ = self._scalar_basis(sdeg, pts, rows)
        self.edge_fval, _ = self._flux_basis(family, fdeg, pts, rows)
        self.normal = (mesh.cell_edge_sign[..., None]
                       * mesh.edge_normal[mesh.cell_edges])
        self.flux_n = contract("clqak,clk->clqa", self.edge_fval, self.normal)
        self.trace = basis.eval_edge_basis(self.trace_deg, self.edge.points)

    def _scalar_basis(self, degree, pts, rows=None):
        """Lagrange P_degree values (C, ..., nb) and physical gradients
        (C, ..., nb, 2) at reference points ``pts``, given to the cells as
        in ``_tabulate``."""
        vals, grads = _tabulate(basis.eval_scalar_basis, degree, pts, rows)
        grads = grads @ _per_cell(self.mesh.cell_jac_inv, pts.ndim - 1)
        return np.broadcast_to(vals, grads.shape[:-1]), grads

    def _flux_basis(self, family, degree, pts, rows=None):
        """Flux values (C, ..., nb, 2) and divergences (C, ..., nb) at
        reference points ``pts`` (as above)."""
        if family == "vec":
            sval, sgrad = self._scalar_basis(degree, pts, rows)
            nbs = sval.shape[-1]
            vals = np.zeros(sval.shape[:-1] + (2 * nbs, 2))
            vals[..., :nbs, 0] = sval
            vals[..., nbs:, 1] = sval
            return vals, np.concatenate([sgrad[..., 0], sgrad[..., 1]], axis=-1)
        mesh, naxes = self.mesh, pts.ndim - 1
        vals, divs = _tabulate(basis.eval_rt_basis, degree, pts, rows)
        piola = (np.swapaxes(mesh.cell_jac, 1, 2)
                 / mesh.cell_det[:, None, None])
        return (vals @ _per_cell(piola, naxes),
                divs / _per_cell(mesh.cell_det, naxes + 1))

    def check(self, mesh, *dof_maps):
        """These tables, if they were built on ``mesh`` and every DOF map
        has their mesh size and local spaces, and an HDG or WG map also
        their trace space; else ValueError."""
        if mesh is not self.mesh:
            raise ValueError("element tables were built on another mesh")
        for dofs in dof_maps:
            if len(dofs.flux) != mesh.num_cells:
                raise ValueError("DOF map does not match the mesh")
            if dofs.local_spaces != self.local_spaces:
                raise ValueError(
                    "DOF map spaces {} do not match the element tables' {}"
                    .format(dofs.local_spaces, self.local_spaces))
            if dofs.case is not None and dofs.case.trace_deg != self.trace_deg:
                raise ValueError(
                    "element tables were built for another trace space")
        return self

    def moments(self, values):
        """Parametric trace-basis moments, per side: (C,3,nt,...) for values
        (C,3,ns,...)."""
        return contract("q,qt,clq...->clt...", self.edge.weights, self.trace,
                        values)


class SumPattern:
    """Where each entry of a term list's blocks goes in the summed matrix.

    Built from the DOFs of the terms (see ``_form_terms``) alone: the int64
    key row * n + col of every triplet that has no negative DOF, in term
    order, an off-diagonal term's transposed triplets right after its own.
    One stable sort of the keys gives the runs of equal keys, one per entry
    of the CSR ``indices`` and ``indptr``, and ``head``, the position of
    each run's first value among the terms' raveled blocks.  Most runs hold
    one triplet, whose value is the entry.  The longer runs are the entries
    ``sum_to``: ``sum_from`` lists their triplets' value positions, run by
    run, and ``sum_starts`` where each run begins in it.
    Terms with other values on the same DOFs (another rho, say) are then
    summed by ``assemble`` without a sort.
    """

    def __init__(self, n, terms):
        self.n = n
        self.sides = []  # per term: row DOFs, column DOFs, diagonal, shape
        keys, at = [], []
        size = 0
        for _, _, test, trial in terms:
            rows, cols = test[0], trial[0]
            r, c = np.broadcast_arrays(
                (rows[:, None] if rows.ndim < cols.ndim else rows)[..., :, None],
                cols[..., None, :])
            self.sides.append((rows, cols, test is trial, r.shape))
            keep = (r >= 0) & (c >= 0)
            r = r[keep].astype(np.int64, copy=False)
            c = c[keep].astype(np.int64, copy=False)
            pos = size + np.flatnonzero(keep)
            keys.append(r * n + c)
            at.append(pos)
            if test is not trial:
                keys.append(c * n + r)
                at.append(pos)
            size += keep.size
        self.size = size
        empty = [np.zeros(0, dtype=np.int64)]
        key = np.concatenate(empty + keys)
        at = np.concatenate(empty + at)
        del keys
        # a stable sort: mirrored triplets then reduce in the same order on
        # both sides of the diagonal, so the sum is bit-exactly symmetric
        order = np.argsort(key, kind="stable")
        # int32 where it fits: the pattern stays resident through a sweep
        idx = np.int32 if max(n, size, len(key)) < 2**31 else np.int64
        gather = at[order].astype(idx)
        key = key[order]
        del at, order
        first = np.ones(len(key) + 1, dtype=bool)
        first[1:-1] = key[1:] != key[:-1]
        # a triplet shares its run unless it starts it and the next triplet
        # starts the next one
        shared = ~(first[:-1] & first[1:])
        first = first[:-1]
        key = key[first]
        self.indices = (key % n).astype(idx)
        self.indptr = np.searchsorted(key, np.arange(n + 1) * n).astype(idx)
        self.head = gather[first]
        self.sum_to = np.flatnonzero(shared[first]).astype(idx)
        self.sum_from = gather[shared]
        self.sum_starts = np.flatnonzero(first[shared]).astype(idx)

    def assemble(self, n, terms):
        """The (n, n) CSR matrix of ``terms``, which must have the DOFs this
        pattern was built from (else ValueError)."""
        terms = list(terms)
        if n != self.n or len(terms) != len(self.sides):
            raise ValueError("sum pattern was built for another DOF map")
        for (_, _, test, trial), (rows, cols, diag, _) in zip(terms,
                                                              self.sides):
            if ((test is trial) != diag or not np.array_equal(test[0], rows)
                    or not np.array_equal(trial[0], cols)):
                raise ValueError("sum pattern was built for another DOF map")
        return sp.csr_matrix((self.sum(terms), self.indices.copy(),
                              self.indptr.copy()), shape=(n, n))

    def sum(self, terms, keep=None):
        """The entries, in CSR order, of the sum of ``terms``, unchecked.
        Only the terms flagged in ``keep`` (default all) are summed; the
        others' entries count as zeros, so that every group of one term
        list sums on one structure."""
        vals = np.empty(self.size) if keep is None else np.zeros(self.size)
        o = 0
        for i, (term, (_, _, _, shape)) in enumerate(zip(terms, self.sides)):
            size = int(np.prod(shape))
            if keep is None or keep[i]:
                vals[o:o + size].reshape(shape)[...] = _block(*term)
            o += size
        sums = vals[self.head]
        # reduceat, not bincount: bincount sums each run in sequence and
        # reduceat long runs pairwise, so their sums differ in the last bit
        sums[self.sum_to] = np.add.reduceat(vals[self.sum_from],
                                            self.sum_starts)
        return sums


def per_group(scale, ndim):
    """A term's ``scale`` shaped to broadcast over ``ndim`` group axes."""
    return np.reshape(scale, np.shape(scale) + (1,) * (ndim - np.ndim(scale)))


def scatter(r, dofs, values):
    """r[dofs] += values, summing repeated DOFs and skipping negative ones."""
    np.add.at(r, dofs[dofs >= 0], values[dofs >= 0])


def _form_terms(mesh, dofs, t, coeff, exact=None):
    """The bilinear terms of the method of ``dofs`` on tables ``t``, as
    ``(unit, stabilized, factor)``: the form is the sum of the ``unit``
    terms plus ``factor`` times the sum of the ``stabilized`` ones.  rho
    enters only through ``factor``, the f(rho) of the stabilization weight
    tau = eta = f(rho) g(h_K) (``SpaceCase.stabilization_factor``); each
    stabilized term carries +-g(h_K) as its scale.  The conforming limits
    have no stabilized terms.

    A term ``(w, scale, test, trial)`` adds scale sum w B_test . B_trial over
    its group axes G (cells or cell sides) and points: ``w`` is (G, q),
    ``scale`` a number or one value per cell.  A side ``(D, B, S)`` holds
    DOFs D (G', a), negative ones eliminated, basis samples B (G'', q, a, k),
    G' and G'' leading axes of G, and the samples S (G, q, k) of ``exact``'s
    field, or None.  The test side has the fewer DOF axes.  A term whose
    test side is its trial side is a diagonal block; any other adds its
    transpose too.

    Every method has the flux mass (c p, q) and one coupling: -(u, div q)
    for hdg and mixed, (q, grad u) for wg and primal.  HDG adds
    <u-hat, q.n_K> - tau <u - u-hat, v - v-hat>; WG adds -<sigma p-hat, v>
    + eta <p.n_K - sigma p-hat, q.n_K - sigma q-hat>, sigma = n_K . n_e.
    """
    def sample(name, xy):
        return None if exact is None else at_points(
            getattr(exact, name), xy).reshape(xy.shape[:-1] + (-1,))

    fval, fdiv = t.fval, t.fdiv[..., None]
    if dofs.flux_sign is not None:
        fval, fdiv = (dofs.flux_sign[:, None, :, None] * b for b in (fval, fdiv))
    pd, ud = dofs.flux, dofs.scalar
    p = (pd, fval, sample("p", t.xy))
    unit = [(t.w * coeff.c_at(t.xy), 1.0, p, p)]
    if dofs.method in ("hdg", "mixed"):
        unit.append((t.w, -1.0, (pd, fdiv, sample("f", t.xy)),
                     (ud, t.sval[..., None], sample("u", t.xy))))
    else:
        unit.append((t.w, 1.0, p, (ud, t.sgrad, sample("grad_u", t.xy))))
    if dofs.method not in ("hdg", "wg"):
        return unit, [], 0.0
    law = dofs.case.stabilization_law(mesh.cell_size)
    td, trace = dofs.edge_trace[mesh.cell_edges], t.trace[..., None]
    u_e = sample("u", t.edge_xy)
    pn = None if exact is None else contract(
        "clqk,clk->clq", at_points(exact.p, t.edge_xy), t.normal)[..., None]
    qn = (pd, t.flux_n[..., None], pn)
    v = (ud, t.edge_sval[..., None], u_e)
    if dofs.method == "hdg":
        uhat = (td, trace, u_e)
        unit.append((t.edge_w, 1.0, qn, uhat))
        stabilized = [(t.edge_w, -law, v, v), (t.edge_w, law, v, uhat),
                      (t.edge_w, -law, uhat, uhat)]
    else:
        # sigma goes into the weights, so the trace basis stays shared
        sign = mesh.cell_edge_sign[..., None]
        phat = (td, trace, None if exact is None else sign[..., None] * pn)
        unit.append((sign * t.edge_w, -1.0, v, phat))
        stabilized = [(t.edge_w, law, qn, qn),
                      (sign * t.edge_w, -law, qn, phat),
                      (t.edge_w, law, phat, phat)]
    return unit, stabilized, dofs.case.stabilization_factor


def _block(w, scale, test, trial):
    """The blocks (G'..., a, b) of one term, summed over the group axes its
    DOFs lack; a diagonal term's blocks are made exactly symmetric."""
    (rows, bi, _), (cols, bj, _) = test, trial
    g = "ABCD"[:w.ndim - 1]
    gi, gj, k = g[:bi.ndim - 3], g[:bj.ndim - 3], "k"
    out = g[:max(rows.ndim, cols.ndim) - 1]
    if bi.shape[-1] == bj.shape[-1] == 1:
        # scalar sides: without the unit component axis numpy's contraction
        # path drops an elementwise step
        bi, bj, k = bi[..., 0], bj[..., 0], ""
    # scale after the sum: beta moves ~1e-12 per ulp of N at rho 1e-4
    block = per_group(scale, len(out) + 2) * contract(
        "{g}q,{gi}qa{k},{gj}qb{k}->{out}ab".format(
            g=g, gi=gi, gj=gj, k=k, out=out), w, bi, bj)
    if test is trial:
        # quadrature blocks are symmetric up to rounding; make it exact
        block = 0.5 * (block + np.swapaxes(block, -1, -2))
    return block


def assemble_terms(n, terms, pattern=None):
    """Sparse (n, n) matrix of bilinear ``terms`` (see ``_form_terms``),
    summed on ``pattern``, by default one built from the terms' DOFs."""
    terms = list(terms)
    return (pattern or SumPattern(n, terms)).assemble(n, terms)


def load_vector(dofs, t, f):
    """Right-hand side -(f, v) on the scalar DOFs of ``dofs``."""
    rhs = np.zeros(dofs.total)
    scatter(rhs, dofs.scalar,
            -contract("cq,cqb->cb", t.w * at_points(f, t.xy), t.sval))
    return rhs


class FormSums:
    """The form of a DOF map's method as A0 + f A1, on one mesh, coefficient
    and set of tables.

    ``unit`` holds the entries of A0, the sum of the unit terms of
    ``_form_terms``, and ``stabilized`` those of A1, the sum of its
    stabilized terms (None for the conforming limits), both on the CSR
    structure ``indices``, ``indptr`` of one ``SumPattern`` of all the
    terms.  Neither depends on rho, so a rho sweep builds them once and
    ``matrix`` makes each rho's matrix by one axpy, with f = f(rho).
    One-shot assembly builds them too, so a sweep's matrices are the
    one-shot ones to the bit, and exactly symmetric, as A0 and A1 are.
    """

    def __init__(self, mesh, dofs, coeff, tables):
        self.coeff, self.tables = coeff, tables.check(mesh, dofs)
        unit, stabilized, _ = _form_terms(mesh, dofs, tables, coeff)
        terms = unit + stabilized
        pattern = SumPattern(dofs.total, terms)
        self.dofs, self.shape = dofs, (dofs.total, dofs.total)
        self.indices, self.indptr = pattern.indices, pattern.indptr
        # the pattern was built from these terms: sum them unchecked
        is_unit = [True] * len(unit) + [False] * len(stabilized)
        self.unit = pattern.sum(terms, is_unit)
        self.stabilized = None if not stabilized else pattern.sum(
            terms, [not u for u in is_unit])

    def matrix(self, dofs):
        """The CSR matrix of the form of ``dofs``, which must number the
        DOFs of the map these sums were built for, and may differ from it
        in rho alone (else ValueError)."""
        if dofs is not self.dofs and not _same_dofs(dofs, self.dofs):
            raise ValueError("form sums were built for another DOF map")
        if self.stabilized is None:
            data = self.unit.copy()
        else:
            # f A1 + A0 in place: one array, the bits of A0 + f A1
            data = dofs.case.stabilization_factor * self.stabilized
            data += self.unit
        return sp.csr_matrix((data, self.indices.copy(), self.indptr.copy()),
                             shape=self.shape)

    def structure(self):
        """A CSR matrix of zeros on the structure of every matrix of these
        sums, sharing its index arrays."""
        return sp.csr_matrix((np.zeros(len(self.indices)), self.indices,
                              self.indptr), shape=self.shape)


def _same_dofs(a, b):
    """Whether DOF maps ``a`` and ``b`` of one method number the same DOFs
    the same way."""
    return a.method == b.method and a.total == b.total and all(
        np.array_equal(x, y) for x, y in (
            (a.flux, b.flux), (a.scalar, b.scalar),
            (a.edge_trace, b.edge_trace), (a.flux_sign, b.flux_sign)))


def _assemble(method, mesh, dofs, coeff, f, tables, sums=None):
    if dofs.method != method:
        raise ValueError("DofMap was built for method {!r}, not {!r}".format(
            dofs.method, method))
    t = tables.check(mesh, dofs)
    if sums is None:
        sums = FormSums(mesh, dofs, coeff, t)
    elif coeff != sums.coeff or t is not sums.tables:
        raise ValueError("form sums were built for another DOF map, "
                         "coefficient or tables")
    return LinearSystem(matrix=sums.matrix(dofs), rhs=load_vector(dofs, t, f))


def assemble_hdg(mesh, dofs, coeff, f, tables, sums=None):
    """HDG saddle system for unknowns (flux p, scalar u, trace u-hat),
    made from a sweep's ``FormSums`` if given."""
    return _assemble("hdg", mesh, dofs, coeff, f, tables, sums)


def assemble_wg(mesh, dofs, coeff, f, tables, sums=None):
    """WG saddle system for unknowns (flux p, scalar u, trace p-hat),
    made from a sweep's ``FormSums`` if given."""
    return _assemble("wg", mesh, dofs, coeff, f, tables, sums)


def assemble_primal_conforming(mesh, dofs, coeff, f, tables, sums=None):
    """Primal conforming method on a ``spaces.primal_dofs`` map:
    (c p, q) + (grad u, q) = 0, -(p, grad v) = (f, v).

    Its local spaces are those of hdg/inv, whose rho -> 0 limit it is, so it
    runs on that case's ``tables``.
    """
    return _assemble("primal", mesh, dofs, coeff, f, tables, sums)


def assemble_mixed_conforming(mesh, dofs, coeff, f, tables, sums=None):
    """Mixed conforming method on a ``spaces.mixed_dofs`` map:
    (c p, q) - (u, div q) = 0, (div p, v) = (f, v).

    Its local spaces are those of wg/inv, whose rho -> 0 limit it is, so it
    runs on that case's ``tables``.
    """
    return _assemble("mixed", mesh, dofs, coeff, f, tables, sums)
