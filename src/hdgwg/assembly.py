"""Assembly of the HDG/WG systems and their conforming limits.

Each method's bilinear form is written once, as the terms of
``form_terms``, and the Gram of each norm pair as those of
``norms.gram_terms``.  ``FormSums`` evaluates either list as stacked
per-cell blocks on the batched tables below, and sums them.

rho enters a form or a Gram only as a factor of some of its terms: the
f(rho) of the stabilization weight f(rho) g(h_K) in a system, rho or 1/rho
in a Gram.  The terms therefore come in groups, one rho-free and one per
factor, and ``FormSums`` sums each group once, on one structure built from
the terms' DOFs alone: one stable sort of the triplet keys fixes where
each block entry goes and which entries add up.  A group's raveled blocks
are written one after another, each run of equal keys' first value is
taken, and the runs of more than one triplet are summed by
``np.add.reduceat``.  A diagonal term's blocks are symmetrized and an
off-diagonal term's entries are also gathered for its transpose, so every
sum is exactly symmetric, and repeated runs are bit-identical.  Each rho's
matrix is then f_1 S_1 (+ f_2 S_2) + S_0, so a rho sweep on one mesh and
space builds one ``FormSums`` for its systems and one for its Grams, and
gets for every rho the matrix a one-shot assembly would give, to the bit.

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


def per_group(scale, ndim):
    """A term's ``scale`` shaped to broadcast over ``ndim`` group axes."""
    return np.reshape(scale, np.shape(scale) + (1,) * (ndim - np.ndim(scale)))


def scatter(r, dofs, values):
    """r[dofs] += values, summing repeated DOFs and skipping negative ones."""
    np.add.at(r, dofs[dofs >= 0], values[dofs >= 0])


def _stabilization_factor(case):
    return case.stabilization_factor


def form_terms(mesh, dofs, t, coeff, exact=None):
    """The bilinear terms of the method of ``dofs`` on tables ``t``, in the
    groups of ``FormSums``: the unit terms, then for HDG and WG the
    stabilized ones, with the factor f(rho) of the stabilization weight
    tau = eta = f(rho) g(h_K) (``SpaceCase.stabilization_factor``).  rho
    enters only through that factor; each stabilized term carries +-g(h_K)
    as its scale.

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
        return [(None, unit)]
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
    return [(None, unit), (_stabilization_factor, stabilized)]


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
    # scale after the sum, as a group's factor of rho multiplies its summed
    # entries: beta moves ~1e-12 per ulp of N at rho 1e-4
    block = per_group(scale, len(out) + 2) * contract(
        "{g}q,{gi}qa{k},{gj}qb{k}->{out}ab".format(
            g=g, gi=gi, gj=gj, k=k, out=out), w, bi, bj)
    if test is trial:
        # quadrature blocks are symmetric up to rounding; make it exact
        block = 0.5 * (block + np.swapaxes(block, -1, -2))
    return block


def load_vector(dofs, t, f):
    """Right-hand side -(f, v) on the scalar DOFs of ``dofs``."""
    rhs = np.zeros(dofs.total)
    scatter(rhs, dofs.scalar,
            -contract("cq,cqb->cb", t.w * at_points(f, t.xy), t.sval))
    return rhs


def _sorted_sums(n, groups):
    """The CSR structure ``indices``, ``indptr`` of the (n, n) sum of the
    term lists ``groups`` (see ``form_terms``), and each group's sum on it.

    The int64 key row * n + col of every triplet that has no negative DOF
    is listed in term order, an off-diagonal term's transposed triplets
    right after its own, and sorted once, stably: each run of equal keys
    is one entry of the structure.  Most runs hold one triplet, whose value
    is the entry; the longer runs are summed.  A group sums the raveled
    blocks of its own terms, and those of the other groups count as
    zeros, so every group sums on the one structure.
    """
    shapes, keys, at = [], [], []
    size = 0
    for _, _, test, trial in (term for terms in groups for term in terms):
        rows, cols = test[0], trial[0]
        r, c = np.broadcast_arrays(
            (rows[:, None] if rows.ndim < cols.ndim else rows)[..., :, None],
            cols[..., None, :])
        shapes.append(r.shape)
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
    empty = [np.zeros(0, dtype=np.int64)]
    key = np.concatenate(empty + keys)
    at = np.concatenate(empty + at)
    del keys, r, c, keep, pos  # and the last term's DOF pairs
    # a stable sort: mirrored triplets then reduce in the same order on
    # both sides of the diagonal, so the sum is bit-exactly symmetric
    order = np.argsort(key, kind="stable")
    # int32 where it fits: the structure stays resident through a sweep
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
    indices = (key % n).astype(idx)
    indptr = np.searchsorted(key, np.arange(n + 1) * n).astype(idx)
    # each run's first value position, and the runs of more than one
    # triplet: their positions run by run, and where each run begins
    head = gather[first]
    sum_to = np.flatnonzero(shared[first]).astype(idx)
    sum_from = gather[shared]
    sum_starts = np.flatnonzero(first[shared]).astype(idx)
    del key, gather, first, shared  # before the groups' values are made
    sums, o = [], 0
    shapes = iter(shapes)
    for terms in groups:
        vals = np.zeros(size)
        for term in terms:
            shape = next(shapes)
            end = o + int(np.prod(shape))
            vals[o:end].reshape(shape)[...] = _block(*term)
            o = end
        group = vals[head]
        # reduceat, not bincount: bincount sums each run in sequence and
        # reduceat long runs pairwise, so their sums differ in the last bit
        group[sum_to] = np.add.reduceat(vals[sum_from], sum_starts)
        sums.append(group)
        del vals
    return indices, indptr, sums


class _GroupSums:
    """The sums of one term list's groups on a DOF map, coefficient and
    set of tables, made into f_1 S_1 (+ f_2 S_2) + S_0 at every rho.

    ``terms(mesh, dofs, tables, coeff)`` lists the terms in groups
    ``(factor, terms)``: first the rho-free group, with factor None, then
    one group per factor of rho, whose ``factor(case)`` is its f_i at the
    rho of a ``SpaceCase``.  ``sums`` holds S_0, S_1, ..., each summed by
    the subclass's ``_sum``, and ``factors`` the factors of S_1, ....  No
    sum depends on rho, so a rho sweep builds them once and ``_combined``
    makes each rho's values by one axpy per factor.  One-shot assembly
    builds them too, so a sweep's values are the one-shot ones to the bit.
    """

    def __init__(self, terms, mesh, dofs, coeff, tables):
        self.terms, self.dofs, self.coeff = terms, dofs, coeff
        self.tables = tables.check(mesh, dofs)
        groups = terms(mesh, dofs, tables, coeff)
        self.factors = [factor for factor, _ in groups[1:]]
        self.sums = self._sum(mesh, dofs, [group for _, group in groups])

    def _combined(self, terms, dofs, coeff, tables, last=False):
        """f_1 S_1 (+ f_2 S_2) + S_0 for ``terms`` on ``dofs``, ``coeff``
        and ``tables``: the terms, coefficient and tables these sums were
        built with, and a map that numbers the DOFs of theirs the same way
        and may differ from it in rho alone (else ValueError).  If
        ``last``, the sums are used up: the result is made in place of
        S_1, with the same bits, and no sum is kept."""
        a, b = dofs, self.dofs
        same_dofs = a is b or (a.method == b.method and a.total == b.total
                               and all(np.array_equal(x, y) for x, y in (
                                   (a.flux, b.flux), (a.scalar, b.scalar),
                                   (a.edge_trace, b.edge_trace),
                                   (a.flux_sign, b.flux_sign))))
        if (terms is not self.terms or coeff != self.coeff
                or tables is not self.tables or not same_dofs):
            raise ValueError("form sums were built for another DOF map, "
                             "coefficient, tables or term list")
        rho_free, *scaled = self.sums
        if last:
            self.sums = None
        if not scaled:
            return rho_free if last else rho_free.copy()
        # f_1 S_1 (+ f_2 S_2) + S_0 in one array; for a system, the bits
        # of S_0 + f S_1
        factors = [factor(dofs.case) for factor in self.factors]
        first, *rest = scaled
        if last:
            data = first
            data *= factors[0]
        else:
            data = factors[0] * first
        for f, s in zip(factors[1:], rest):
            data += f * s
        data += rho_free
        return data


class FormSums(_GroupSums):
    """The matrices of one term list, ``form_terms`` (the systems of the
    six methods, for the inf-sup pencils and ``--dump-matrix``) or
    ``norms.gram_terms`` (the Grams of the inf-sup study), summed on the
    CSR structure ``indices``, ``indptr`` of ``_sorted_sums``.  Every S_i
    is exactly symmetric, and so is each rho's ``matrix``."""

    def _sum(self, mesh, dofs, groups):
        self.shape = (dofs.total, dofs.total)
        self.indices, self.indptr, sums = _sorted_sums(dofs.total, groups)
        return sums

    def matrix(self, terms, dofs, coeff, tables):
        """The CSR matrix of ``terms`` on ``dofs``, ``coeff`` and
        ``tables`` (see ``_GroupSums._combined``)."""
        return sp.csr_matrix((self._combined(terms, dofs, coeff, tables),
                              self.indices.copy(), self.indptr.copy()),
                             shape=self.shape)


def cell_dofs(mesh, dofs):
    """Each cell's local DOF list (C, n_loc): its flux, its scalar, then
    the trace DOFs of its three sides, side by side; -1 for an eliminated
    DOF."""
    trace = dofs.edge_trace[mesh.cell_edges].reshape(mesh.num_cells, -1)
    return np.concatenate([dofs.flux, dofs.scalar, trace], axis=1)


def _slots(dofs, side_dofs):
    """The positions in ``cell_dofs`` of a term side's DOFs: one slice for
    the flux or the scalar, one per cell side for the trace."""
    nf, nu = dofs.flux.shape[1], dofs.scalar.shape[1]
    if side_dofs is dofs.flux:
        return [slice(0, nf)]
    if side_dofs is dofs.scalar:
        return [slice(nf, nf + nu)]
    nt = side_dofs.shape[-1]
    return [slice(nf + nu + side * nt, nf + nu + (side + 1) * nt)
            for side in range(3)]


def _element_stack(dofs, size, terms):
    """The (C, size, size) element matrices of a term list: each term's
    blocks added in term order on the slots of its sides, an off-diagonal
    term's transposed blocks on the mirrored slots, so every element
    matrix is exactly symmetric."""
    stack = np.zeros((len(dofs.flux), size, size))
    for term in terms:
        test, trial = term[2], term[3]
        block = _block(*term)
        rows, cols = _slots(dofs, test[0]), _slots(dofs, trial[0])
        pairs = [(rows, cols, block)]
        if test is not trial:
            pairs.append((cols, rows, np.swapaxes(block, -1, -2)))
        for rows, cols, block in pairs:
            if block.ndim == 3:
                stack[:, rows[0], cols[0]] += block
                continue
            # a trace side: one block per cell side
            for side in range(3):
                stack[:, rows[side % len(rows)],
                      cols[side % len(cols)]] += block[:, side]
    return stack


class ElementSums(_GroupSums):
    """The element matrices of ``form_terms`` on a DOF map, coefficient
    and tables: per group a (C, n_loc, n_loc) stack on the local DOFs of
    ``cell_dofs``, and each rho's stack f K_1 + K_0, by the operations of
    ``FormSums.matrix``.  They are what the studies solve
    (``linalg.solve_element_system``); scattered on the global DOFs, they
    sum to the ``FormSums`` matrix up to the order of the additions."""

    def __init__(self, mesh, dofs, coeff, tables):
        super().__init__(form_terms, mesh, dofs, coeff, tables)

    def _sum(self, mesh, dofs, groups):
        size = cell_dofs(mesh, dofs).shape[1]
        return [_element_stack(dofs, size, terms) for terms in groups]

    def stack(self, dofs, coeff, tables, last=False):
        """The element matrices of the system on ``dofs``, ``coeff`` and
        ``tables``, made in place of the sums if ``last`` (see
        ``_GroupSums._combined``)."""
        return self._combined(form_terms, dofs, coeff, tables, last)


def _assemble(method, mesh, dofs, coeff, f, tables, sums=None):
    if dofs.method != method:
        raise ValueError("DofMap was built for method {!r}, not {!r}".format(
            dofs.method, method))
    if sums is None:
        sums = FormSums(form_terms, mesh, dofs, coeff, tables)
    return LinearSystem(matrix=sums.matrix(form_terms, dofs, coeff, tables),
                        rhs=load_vector(dofs, tables.check(mesh, dofs), f))


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
