"""Reference-element polynomial bases and quadrature rules.

Reference triangle: vertices (0,0), (1,0), (0,1).  Local edge ``i`` runs from
vertex ``i+1`` to vertex ``i+2`` (cyclic), matching the mesh convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

MAX_QUADRATURE_DEGREE = 10

REF_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
# (start, end, outward normal, length) per local edge
REF_EDGES = []
for _i in range(3):
    _a = REF_VERTICES[(_i + 1) % 3]
    _b = REF_VERTICES[(_i + 2) % 3]
    _t = _b - _a
    _len = float(np.linalg.norm(_t))
    REF_EDGES.append((_a, _b, np.array([_t[1], -_t[0]]) / _len, _len))


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature nodes and weights on the reference triangle or unit edge.

    Triangle points are barycentric triples; edge points are parameters in
    [0, 1].  Triangle weights sum to 1/2, edge weights to 1.
    """

    points: np.ndarray
    weights: np.ndarray

    @property
    def xy(self):
        """Cartesian reference coordinates (triangle rules only)."""
        return self.points[:, 1:]


@lru_cache(maxsize=None)
def tri_quadrature(degree):
    """Rule exact for polynomials of total degree <= ``degree``.

    Built as a Duffy-collapsed product of Gauss-Jacobi (weight 1-u) and
    Gauss-Legendre rules.
    """
    if not 0 <= degree <= MAX_QUADRATURE_DEGREE:
        raise ValueError("unsupported triangle quadrature degree {}".format(degree))
    m = degree // 2 + 1
    xj, wj = roots_jacobi(m, 1.0, 0.0)
    u = 0.5 * (xj + 1.0)
    wu = 0.25 * wj
    xl, wl = roots_legendre(m)
    v = 0.5 * (xl + 1.0)
    wv = 0.5 * wl
    xs = np.repeat(u, m)
    ys = np.tile(v, m) * (1.0 - xs)
    w = (np.repeat(wu, m) * np.tile(wv, m)).ravel()
    bary = np.column_stack([1.0 - xs - ys, xs, ys])
    return QuadratureRule(points=bary, weights=w)


@lru_cache(maxsize=None)
def edge_quadrature(degree):
    """Gauss-Legendre rule on [0, 1], exact to ``degree``."""
    if not 0 <= degree <= 2 * MAX_QUADRATURE_DEGREE:
        raise ValueError("unsupported edge quadrature degree {}".format(degree))
    m = degree // 2 + 1
    x, w = roots_legendre(m)
    return QuadratureRule(points=0.5 * (x + 1.0), weights=0.5 * w)


def scalar_dim(k):
    return (k + 1) * (k + 2) // 2


def rt_dim(k):
    return (k + 1) * (k + 3)


def _monomial_exponents(k):
    return [(a, b) for total in range(k + 1) for a in range(total, -1, -1)
            for b in [total - a]]


def lattice_nodes(k):
    """Degree-``k`` lattice on the reference triangle.

    Ordered vertices, then edge-interior nodes (edge 0, 1, 2, each walked
    from its start vertex), then cell-interior nodes.  The ordering is what
    the conforming scalar spaces key on.
    """
    if k == 0:
        return np.array([[1.0 / 3.0, 1.0 / 3.0]])
    nodes = [REF_VERTICES[i] for i in range(3)]
    for a, b, _, _ in REF_EDGES:
        for j in range(1, k):
            nodes.append(a + (j / k) * (b - a))
    for i in range(1, k):
        for j in range(1, k - i):
            nodes.append(np.array([i / k, j / k]))
    return np.array(nodes)


def _eval_monomials(exponents, points):
    pts = np.atleast_2d(points)
    vals = np.empty((pts.shape[0], len(exponents)))
    dx = np.empty_like(vals)
    dy = np.empty_like(vals)
    x, y = pts[:, 0], pts[:, 1]
    for j, (a, b) in enumerate(exponents):
        vals[:, j] = x**a * y**b
        dx[:, j] = a * x ** max(a - 1, 0) * y**b if a else 0.0
        dy[:, j] = b * x**a * y ** max(b - 1, 0) if b else 0.0
    return vals, dx, dy


@lru_cache(maxsize=None)
def _scalar_coeffs(k):
    exponents = tuple(_monomial_exponents(k))
    vand, _, _ = _eval_monomials(exponents, lattice_nodes(k))
    return np.linalg.inv(vand), exponents


def eval_scalar_basis(k, points):
    """Lagrange basis of P_k at the lattice nodes.

    Returns ``(values, gradients)`` of shapes (np, nb) and (np, nb, 2).
    """
    coeffs, exponents = _scalar_coeffs(k)
    vals, dx, dy = _eval_monomials(exponents, points)
    values = vals @ coeffs
    grads = np.stack([dx @ coeffs, dy @ coeffs], axis=-1)
    return values, grads


def _rt_generators(k, points):
    """Monomial generators of RT_k: (P_k)^2 plus x times homogeneous P_k."""
    exponents = _monomial_exponents(k)
    vals, dx, dy = _eval_monomials(exponents, points)
    npts = vals.shape[0]
    nb = 2 * len(exponents) + (k + 1)
    values = np.zeros((npts, nb, 2))
    divs = np.zeros((npts, nb))
    for j in range(len(exponents)):
        values[:, j, 0] = vals[:, j]
        divs[:, j] = dx[:, j]
        values[:, len(exponents) + j, 1] = vals[:, j]
        divs[:, len(exponents) + j] = dy[:, j]
    x, y = np.atleast_2d(points)[:, 0], np.atleast_2d(points)[:, 1]
    homogeneous = [(a, k - a) for a in range(k, -1, -1)]
    for j, (a, b) in enumerate(homogeneous):
        col = 2 * len(exponents) + j
        mono = x**a * y**b
        values[:, col, 0] = x * mono
        values[:, col, 1] = y * mono
        divs[:, col] = (2 + k) * mono
    return values, divs


def _legendre_param(k, s):
    """Shifted Legendre basis of P_k, L^2(0,1)-orthonormal."""
    from numpy.polynomial import legendre

    vand = legendre.legvander(2.0 * np.asarray(s) - 1.0, k)
    return vand * np.sqrt(2.0 * np.arange(k + 1) + 1.0)


def eval_edge_basis(k, s):
    """Orthonormal (shifted Legendre) basis of P_k(e) at parameters ``s``."""
    if k > 4:
        raise ValueError("edge basis degree {} not supported".format(k))
    return _legendre_param(k, s)


@lru_cache(maxsize=None)
def _rt_coeffs(k):
    """Dual-basis coefficients for the RT_k degrees of freedom.

    Edge DOFs are arclength moments of the normal trace against the
    orthonormal edge basis; interior DOFs (k = 1) pair against constant
    vectors.
    """
    if k not in (0, 1):
        raise ValueError("RT basis only implemented for k in {0, 1}")
    nb = rt_dim(k)
    dof = np.zeros((nb, nb))
    quad = edge_quadrature(2 * k + 2)
    leg = _legendre_param(k, quad.points)
    row = 0
    for a, b, normal, length in REF_EDGES:
        pts = a[None, :] + quad.points[:, None] * (b - a)[None, :]
        vals, _ = _rt_generators(k, pts)
        normal_trace = vals @ normal
        for m in range(k + 1):
            dof[row] = length * (quad.weights * leg[:, m]) @ normal_trace
            row += 1
    if k == 1:
        tri = tri_quadrature(2 * k)
        vals, _ = _rt_generators(k, tri.xy)
        for comp in range(2):
            dof[row] = tri.weights @ vals[:, :, comp]
            row += 1
    return np.linalg.inv(dof)


def eval_rt_basis(k, points):
    """RT_k basis dual to the standard DOFs; returns (values, divergences)."""
    coeffs = _rt_coeffs(k)
    gen_vals, gen_divs = _rt_generators(k, np.atleast_2d(points))
    values = coeffs.T @ gen_vals
    divs = gen_divs @ coeffs
    return values, divs
