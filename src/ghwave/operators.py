"""Uniform meshes, coefficient-weighted mass/stiffness assembly, norms.

Discretization is conforming P1 on a uniform interval mesh or bilinear Q1 on a
uniform rectangle mesh, with homogeneous Dirichlet conditions (interior nodes
only).  Quadrature is a one-point midpoint rule per element in 1d and a 2x2
Gauss rule per cell in 2d; a CoefficientField sampled at exactly those points
supplies the pullback weights:

    M_ij = int phi_i phi_j det            K_ij = int (Hbar^T Hbar grad phi_i) . grad phi_j det

The smallest generalized eigenvalue of K x = lambda M x is computed by shifted
inverse power iteration and cached on the operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import numpy.typing as npt
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .domains import CoefficientField, DiffeoMap, ReferenceDomain, identity_map, make_pullback

__all__ = [
    "Mesh",
    "DiscreteOperator",
    "NormPack",
    "NonlinearitySpec",
    "ConvergenceFailure",
    "assemble_operators",
    "pullback_operator",
    "identity_operator",
    "first_eigenvalue",
    "x_norm",
    "default_nonlinearity",
]

Array = npt.NDArray[np.float64]

_GP = 1.0 / np.sqrt(3.0)  # 2-point Gauss abscissa on [-1, 1]
# 2x2 Gauss points in cell-local coordinates on [0, 1]^2, in the fixed order
# shared by the quadrature sample points and the Q1 assembly
_GAUSS_2X2 = np.array(
    [
        (0.5 - 0.5 * _GP, 0.5 - 0.5 * _GP),
        (0.5 + 0.5 * _GP, 0.5 - 0.5 * _GP),
        (0.5 - 0.5 * _GP, 0.5 + 0.5 * _GP),
        (0.5 + 0.5 * _GP, 0.5 + 0.5 * _GP),
    ]
)


class ConvergenceFailure(RuntimeError):
    """Inverse power iteration exceeded its iteration cap."""


@dataclass(frozen=True)
class Mesh:
    """Uniform tensor mesh; `resolution` counts cells per axis.

    Interior (Dirichlet-free) nodes per axis = resolution - 1; at least three
    are required.  Node ordering is x-major in 2d: flat = ix*(n+1) + iy.
    """

    domain: ReferenceDomain
    resolution: int

    def __post_init__(self) -> None:
        if self.resolution < 4:
            raise ValueError("resolution must be at least 4 (>= 3 interior nodes per axis)")

    @property
    def axes(self) -> tuple[Array, ...]:
        return tuple(
            np.linspace(lo, hi, self.resolution + 1) for lo, hi in self.domain.bounds
        )

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple((hi - lo) / self.resolution for lo, hi in self.domain.bounds)

    @property
    def nodes(self) -> Array:
        if self.domain.dim == 1:
            return self.axes[0][:, None]
        gx, gy = np.meshgrid(self.axes[0], self.axes[1], indexing="ij")
        return np.column_stack([gx.ravel(), gy.ravel()])

    @property
    def interior_idx(self) -> npt.NDArray[np.intp]:
        n = self.resolution
        if self.domain.dim == 1:
            return np.arange(1, n)
        ix, iy = np.meshgrid(np.arange(1, n), np.arange(1, n), indexing="ij")
        return (ix * (n + 1) + iy).ravel()

    @property
    def n_interior(self) -> int:
        return (self.resolution - 1) ** self.domain.dim

    def quadrature_points(self) -> Array:
        """Assembly sample points: element midpoints (1d) / 2x2 Gauss (2d)."""
        n = self.resolution
        if self.domain.dim == 1:
            x = self.axes[0]
            return (0.5 * (x[:-1] + x[1:]))[:, None]
        hx, hy = self.spacing
        cx = self.axes[0][:-1]
        cy = self.axes[1][:-1]
        # cell-major (x-major cells), then the fixed order of _GAUSS_2X2
        CX, CY = np.meshgrid(cx, cy, indexing="ij")
        base = np.column_stack([CX.ravel(), CY.ravel()])
        pts = base[:, None, :] + _GAUSS_2X2[None, :, :] * np.array([hx, hy])
        return pts.reshape(-1, 2)


@dataclass
class DiscreteOperator:
    """Interior-node mass and stiffness matrices for one pullback field.

    M and K are fixed at construction, with the field `coeffs` they were
    assembled from.  Derived data is filled in lazily on first use: the first
    eigenvalue with its residual and iteration count (`eig_report`), and the
    M/K factorizations and lambda_max bound in `_cache`.  The caches are filled without a lock; two threads using a fresh
    operator at once may compute an entry twice, to the same value.
    """

    mesh: Mesh
    M: sp.csr_matrix
    K: sp.csr_matrix
    coeffs: CoefficientField = field(repr=False)
    _lambda1: float | None = field(default=None, repr=False)
    eig_report: dict | None = field(default=None, repr=False)
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        n = self.mesh.n_interior
        if self.M.shape != (n, n) or self.K.shape != (n, n):
            raise ValueError("operator shapes do not match the mesh interior")
        for name, A in (("M", self.M), ("K", self.K)):
            sym = float(abs(A - A.T).max()) if A.nnz else 0.0
            if sym > 1e-12:
                raise ValueError(f"{name} is not symmetric (max asymmetry {sym:.2e})")

    @property
    def n(self) -> int:
        return self.M.shape[0]

    @property
    def lambda1(self) -> float:
        if self._lambda1 is None:
            self._lambda1 = first_eigenvalue(self)
        return self._lambda1

    def solve_M(self, b: Array) -> Array:
        if "M_lu" not in self._cache:
            self._cache["M_lu"] = splu(self.M.tocsc())
        return self._cache["M_lu"].solve(b)

    def solve_K(self, b: Array) -> Array:
        if "K_lu" not in self._cache:
            self._cache["K_lu"] = splu(self.K.tocsc())
        return self._cache["K_lu"].solve(b)

    def lambda_max_estimate(self) -> float:
        """Gershgorin-style bound max_i sum_j |K_ij| / sum_j M_ij."""
        if "lmax" not in self._cache:
            rows_k = np.asarray(np.abs(self.K).sum(axis=1)).ravel()
            rows_m = np.asarray(self.M.sum(axis=1)).ravel()
            self._cache["lmax"] = float(np.max(rows_k / rows_m))
        return self._cache["lmax"]


def _assemble_1d(mesh: Mesh, fieldv: CoefficientField) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    n = mesh.resolution
    (h,) = mesh.spacing
    det = fieldv.det
    hb2 = fieldv.Hbar[:, 0, 0] ** 2
    wM = h * det  # midpoint weight per element
    wK = h * hb2 * det
    nn = n + 1
    # element e couples nodes (e, e+1); phi values at the midpoint are 1/2
    e = np.arange(n)
    rows = np.concatenate([e, e, e + 1, e + 1])
    cols = np.concatenate([e, e + 1, e, e + 1])
    mvals = np.concatenate([wM * 0.25, wM * 0.25, wM * 0.25, wM * 0.25])
    kd = wK / h**2
    kvals = np.concatenate([kd, -kd, -kd, kd])
    M = sp.coo_matrix((mvals, (rows, cols)), shape=(nn, nn)).tocsr()
    K = sp.coo_matrix((kvals, (rows, cols)), shape=(nn, nn)).tocsr()
    return M, K


def _assemble_2d(mesh: Mesh, fieldv: CoefficientField) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    n = mesh.resolution
    hx, hy = mesh.spacing
    nn = (n + 1) ** 2
    ncell = n * n
    # local Q1 shape values / gradients at the 4 Gauss points (fixed order)
    # local node order: (0,0), (1,0), (0,1), (1,1) in (ix, iy) offsets
    def shape_vals(xi, eta):
        return np.array([(1 - xi) * (1 - eta), xi * (1 - eta), (1 - xi) * eta, xi * eta])

    N = np.stack([shape_vals(xi, eta) for xi, eta in _GAUSS_2X2])  # (4q, 4n)
    G = np.zeros((4, 4, 2))  # (q, node, comp)
    for qi, (xi, eta) in enumerate(_GAUSS_2X2):
        G[qi, 0] = (-(1 - eta) / hx, -(1 - xi) / hy)
        G[qi, 1] = ((1 - eta) / hx, -xi / hy)
        G[qi, 2] = (-eta / hx, (1 - xi) / hy)
        G[qi, 3] = (eta / hx, xi / hy)
    w = hx * hy / 4.0  # each Gauss point carries a quarter of the cell area

    det = fieldv.det.reshape(ncell, 4)
    Hbar = fieldv.Hbar.reshape(ncell, 4, 2, 2)
    A = np.einsum("cqki,cqkj->cqij", Hbar, Hbar)  # Hbar^T Hbar per point

    Mloc = np.einsum("qa,qb,cq->cab", N, N, det) * w
    Kloc = np.einsum("qai,cqij,qbj,cq->cab", G, A, G, det) * w

    cx, cy = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    c0 = (cx * (n + 1) + cy).ravel()  # node (ix, iy) of each cell corner
    lnodes = np.column_stack([c0, c0 + (n + 1), c0 + 1, c0 + (n + 1) + 1])  # matches local order
    rows = np.repeat(lnodes, 4, axis=1).ravel()
    cols = np.tile(lnodes, (1, 4)).ravel()
    M = sp.coo_matrix((Mloc.ravel(), (rows, cols)), shape=(nn, nn)).tocsr()
    K = sp.coo_matrix((Kloc.ravel(), (rows, cols)), shape=(nn, nn)).tocsr()
    return M, K


def assemble_operators(mesh: Mesh, fieldv: CoefficientField) -> DiscreteOperator:
    """Build interior-node M and K weighted by a pullback coefficient field."""
    quad = mesh.quadrature_points()
    if fieldv.points.shape != quad.shape:
        raise ValueError(
            f"field has {fieldv.points.shape[0]} points, mesh quadrature needs {quad.shape[0]}"
        )
    if float(np.abs(fieldv.points - quad).max()) > 1e-9:
        raise ValueError("field points do not coincide with the mesh quadrature points")
    if mesh.domain.dim == 1:
        M, K = _assemble_1d(mesh, fieldv)
    else:
        M, K = _assemble_2d(mesh, fieldv)
    idx = mesh.interior_idx
    Mi = M[np.ix_(idx, idx)].tocsr()
    Ki = K[np.ix_(idx, idx)].tocsr()
    # enforce exact symmetry against accumulation-order roundoff
    Mi = ((Mi + Mi.T) * 0.5).tocsr()
    Ki = ((Ki + Ki.T) * 0.5).tocsr()
    return DiscreteOperator(mesh, Mi, Ki, fieldv)


def pullback_operator(mesh: Mesh, h: DiffeoMap) -> DiscreteOperator:
    """Operator of the domain h(Omega) pulled back to the reference mesh."""
    return assemble_operators(mesh, make_pullback(h, mesh.quadrature_points()))


def identity_operator(mesh: Mesh) -> DiscreteOperator:
    """Operator of the unperturbed reference domain (identity pullback)."""
    return pullback_operator(mesh, identity_map(mesh.domain))


def first_eigenvalue(op: DiscreteOperator, tol: float = 1e-10, max_iter: int = 1000) -> float:
    """Smallest generalized eigenvalue of K x = lambda M x.

    Shifted inverse power iteration (zero shift on the SPD stiffness);
    converged when ||K x - lambda M x|| / ||M x|| <= tol * lambda.
    """
    n = op.n
    x = np.ones(n)
    x /= np.sqrt(x @ (op.M @ x))
    lam = float(x @ (op.K @ x))
    for it in range(1, max_iter + 1):
        y = op.solve_K(op.M @ x)
        ny = np.sqrt(y @ (op.M @ y))
        if ny == 0.0 or not np.isfinite(ny):
            raise ConvergenceFailure("inverse iteration collapsed to the zero vector")
        x = y / ny
        lam = float(x @ (op.K @ x))
        r = op.K @ x - lam * (op.M @ x)
        rel = float(np.linalg.norm(r) / np.linalg.norm(op.M @ x))
        if rel <= tol * lam:
            op.eig_report = {"lambda1": lam, "residual": rel, "iterations": it}
            if lam <= 0:
                raise ConvergenceFailure(f"non-positive eigenvalue {lam}")
            return lam
    raise ConvergenceFailure(
        f"inverse power iteration did not converge in {max_iter} iterations (residual {rel:.3e})"
    )


def _sqrt_dot(a: Array, b: Array) -> float | Array:
    """sqrt(max(a^T b, 0)) per column; `vecdot` on rows keeps the bits of 1-D `a @ b`."""
    dots = np.vecdot(np.ascontiguousarray(a.T), np.ascontiguousarray(b.T))
    return np.sqrt(np.maximum(dots, 0.0))


@dataclass
class NormPack:
    """Discrete norms of one state (dim,), or per column of a block (dim, k).

    ||u||_0 = sqrt(u^T M u), ||u||_1 = sqrt(u^T K u), ||u||_2 = ||M^{-1} K u||_0.
    Product norms: level 0 -> sqrt(||u||_1^2 + ||v||_0^2),
                   level 1 -> sqrt(||u||_2^2 + ||v||_1^2).
    """

    op: DiscreteOperator

    def norm0(self, u: Array) -> float | Array:
        return _sqrt_dot(u, self.op.M @ u)

    def norm1(self, u: Array) -> float | Array:
        return _sqrt_dot(u, self.op.K @ u)

    def norm2(self, u: Array) -> float | Array:
        ku = self.op.K @ u
        return _sqrt_dot(self.op.solve_M(ku), ku)

    def apply_A(self, u: Array) -> Array:
        """M^{-1} K u, the discrete Dirichlet Laplacian action."""
        return self.op.solve_M(self.op.K @ u)


def x_norm(u: Array, v: Array, pack: NormPack, level: int) -> float | Array:
    """Product phase-space norm at level 0 or 1 (see `NormPack`): an np.float64 for
    one state, or one per column of a (dim, k) block, bit for bit that column's alone."""
    if level == 0:
        return np.sqrt(pack.norm1(u) ** 2 + pack.norm0(v) ** 2)
    if level == 1:
        return np.sqrt(pack.norm2(u) ** 2 + pack.norm1(v) ** 2)
    raise ValueError(f"unsupported norm level {level}")


@dataclass
class NonlinearitySpec:
    """Scalar nonlinearity: f is a vectorized callable and `l` bounds |f'|."""

    f: Callable[[Array], Array]
    l: float

    def __post_init__(self) -> None:
        if self.l <= 0:
            raise ValueError("Lipschitz bound l must be positive")


def default_nonlinearity(a: float = 1.0, b: float = 0.5) -> NonlinearitySpec:
    """f(u) = a u + b sin(u); |f'| <= a + |b|."""
    if a <= abs(b):
        raise ValueError("need a > |b| for the sign condition")

    def f(u):
        return a * u + b * np.sin(u)

    return NonlinearitySpec(f, l=a + abs(b))
