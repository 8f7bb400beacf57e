"""Uniform meshes, coefficient-weighted mass/stiffness assembly, norms, and
the nonlinearity f(u) = a u + b sin(u).

Discretization is conforming P1 on a uniform interval mesh or bilinear Q1 on a
uniform rectangle mesh, with homogeneous Dirichlet conditions (interior nodes
only).  Quadrature is a one-point midpoint rule per element in 1d and a 2x2
Gauss rule per cell in 2d; a CoefficientField sampled at exactly those points
supplies the pullback weights:

    M_ij = int phi_i phi_j det            K_ij = int (Hbar^T Hbar grad phi_i) . grad phi_j det

The smallest generalized eigenvalue of K x = lambda M x is computed by shifted
inverse power iteration and cached on the operator.

An operator of at most `DENSE_MAX_DIM` unknowns, every shipped mesh, holds M
and K as dense arrays, whose solves go through a Cholesky factorization
written in numpy (`_cholesky`); a larger one holds CSR matrices, whose solves
go through SuperLU.  scipy is imported only for the larger ones, so a study
on a shipped mesh never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np
import numpy.typing as npt

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

if TYPE_CHECKING:
    import scipy.sparse as sp

Array = npt.NDArray[np.float64]

# Largest op.n held as dense M and K and stepped with the dense step operator
# (G holds 6 n^2 floats, 1.1 MB at the cap); above it M and K are CSR and the
# sparse step runs, in memory linear in n.  Set from `scripts/step_cost.py`
# on a 2-core Xeon VM, OpenBLAS on one thread: microseconds per step in one
# run of the step loop, sparse vs dense, 1D at k = 8: n = 47 25.0 vs 11.0,
# n = 111 34.9 vs 33.3, n = 127 43.0 vs 43.0; 2D at k = 4: n = 121 40.3 vs
# 23.6, n = 144 42.7 vs 31.6, n = 225 62.9 vs 273.2.  The dense cost grows as
# n^2 and the sparse one about as n, so the two meet near n = 127 in 1D at
# k = 8 and between n = 144 and 225 in 2D at k = 4; the cap lies between,
# well above every shipped mesh (n = 47 and 121).
DENSE_MAX_DIM = 150

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


def _cholesky(A: Array) -> Array:
    """Lower Cholesky factor L of the SPD array A, L L^T = A, one column at a time.

    Each column is one matrix-vector product with the columns before it, so
    the bits do not depend on the BLAS thread count; LAPACK's blocked
    factorization (`np.linalg.cholesky`) gives other bits at one and two
    OpenBLAS threads at n = 144, and its LU (`np.linalg.solve`,
    `np.linalg.inv`) already at n = 121.
    """
    L = np.zeros_like(A)
    for j in range(len(A)):
        r = L[j, :j]
        L[j, j] = math.sqrt(A[j, j] - r @ r)
        L[j + 1 :, j] = (A[j + 1 :, j] - L[j + 1 :, :j] @ r) / L[j, j]
    return L


def _matvecs(A: Array | sp.csr_matrix, x: Array) -> Array:
    """A @ x for one vector (n,) or a block (n, k), each column of a block multiplied alone.

    A sparse product and numpy's `matvec` treat columns independently, so a
    column gets the bits it gets as a vector; a dense matrix-matrix product
    rounds a column by the kernel BLAS picks for the block's width.
    """
    return np.matvec(A, x.T).T if isinstance(A, np.ndarray) else A @ x


def _factorize(A: Array | sp.csr_matrix) -> Callable[[Array], Array]:
    """b -> A^-1 b for an SPD matrix, each column of a block alone: SuperLU for a
    sparse matrix; for a dense array, `_matvecs` with its inverse, formed by
    forward and back substitution with `_cholesky`'s factor, one row at a time."""
    if not isinstance(A, np.ndarray):
        from scipy.sparse.linalg import splu

        return splu(A.tocsc()).solve
    L = _cholesky(A)
    Lt = np.ascontiguousarray(L.T)  # so that both sweeps read contiguous rows
    inv = np.eye(len(A))
    for i in range(len(A)):
        inv[i] = (inv[i] - L[i, :i] @ inv[:i]) / L[i, i]
    for i in reversed(range(len(A))):
        inv[i] = (inv[i] - Lt[i, i + 1 :] @ inv[i + 1 :]) / L[i, i]
    return lambda b: _matvecs(inv, b)


@dataclass
class DiscreteOperator:
    """Interior-node mass and stiffness matrices for one pullback field.

    M and K are fixed at construction, with the field `coeffs` they were
    assembled from: dense arrays for at most `DENSE_MAX_DIM` unknowns
    (`dense`), CSR matrices above.  Derived data is filled in lazily on
    first use: the first eigenvalue with its residual and iteration count
    (`eig_report`), and the M/K factorizations (Cholesky for dense
    operators, SuperLU for sparse ones) and lambda_max bound in `_cache`.
    None of these is a constructor argument, so a `dataclasses.replace` copy
    starts with empty caches.  The caches are filled without a lock; two
    threads using a fresh operator at once may compute an entry twice, to
    the same value.
    """

    mesh: Mesh
    M: Array | sp.csr_matrix
    K: Array | sp.csr_matrix
    coeffs: CoefficientField = field(repr=False)
    _lambda1: float | None = field(default=None, init=False, repr=False, compare=False)
    eig_report: dict | None = field(default=None, init=False, repr=False, compare=False)
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.mesh.n_interior
        if self.M.shape != (n, n) or self.K.shape != (n, n):
            raise ValueError("operator shapes do not match the mesh interior")
        for name, A in (("M", self.M), ("K", self.K)):
            sym = float(abs(A - A.T).max())
            if sym > 1e-12:
                raise ValueError(f"{name} is not symmetric (max asymmetry {sym:.2e})")

    @property
    def n(self) -> int:
        return self.M.shape[0]

    @property
    def dense(self) -> bool:
        """Whether M and K are dense arrays (else CSR matrices)."""
        return isinstance(self.M, np.ndarray)

    @property
    def lambda1(self) -> float:
        if self._lambda1 is None:
            self._lambda1 = first_eigenvalue(self)
        return self._lambda1

    def solve_M(self, b: Array) -> Array:
        if "M_solve" not in self._cache:
            self._cache["M_solve"] = _factorize(self.M)
        return self._cache["M_solve"](b)

    def solve_K(self, b: Array) -> Array:
        if "K_solve" not in self._cache:
            self._cache["K_solve"] = _factorize(self.K)
        return self._cache["K_solve"](b)

    def lambda_max_estimate(self) -> float:
        """Gershgorin-style bound max_i sum_j |K_ij| / sum_j M_ij."""
        if "lmax" not in self._cache:
            rows_k = np.asarray(np.abs(self.K).sum(axis=1)).ravel()
            rows_m = np.asarray(self.M.sum(axis=1)).ravel()
            self._cache["lmax"] = float(np.max(rows_k / rows_m))
        return self._cache["lmax"]


def _assemble_1d(mesh: Mesh, fieldv: CoefficientField) -> tuple[Array, Array, Array, Array]:
    """(rows, cols, M values, K values) of every element's contribution, in global node numbers."""
    n = mesh.resolution
    (h,) = mesh.spacing
    det = fieldv.det
    hb2 = fieldv.Hbar[:, 0, 0] ** 2
    wM = h * det  # midpoint weight per element
    wK = h * hb2 * det
    # element e couples nodes (e, e+1); phi values at the midpoint are 1/2
    e = np.arange(n)
    rows = np.concatenate([e, e, e + 1, e + 1])
    cols = np.concatenate([e, e + 1, e, e + 1])
    mvals = np.concatenate([wM * 0.25, wM * 0.25, wM * 0.25, wM * 0.25])
    kd = wK / h**2
    kvals = np.concatenate([kd, -kd, -kd, kd])
    return rows, cols, mvals, kvals


def _assemble_2d(mesh: Mesh, fieldv: CoefficientField) -> tuple[Array, Array, Array, Array]:
    """(rows, cols, M values, K values) of every cell's contribution, in global node numbers."""
    n = mesh.resolution
    hx, hy = mesh.spacing
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
    return rows, cols, Mloc.ravel(), Kloc.ravel()


def assemble_operators(mesh: Mesh, fieldv: CoefficientField) -> DiscreteOperator:
    """Build interior-node M and K weighted by a pullback coefficient field.

    Both are dense arrays for at most `DENSE_MAX_DIM` interior nodes, summed
    with `np.add.at`, and CSR matrices above, the only case that imports
    scipy.  Either is sliced to the interior and symmetrized exactly.
    """
    quad = mesh.quadrature_points()
    if fieldv.points.shape != quad.shape:
        raise ValueError(
            f"field has {fieldv.points.shape[0]} points, mesh quadrature needs {quad.shape[0]}"
        )
    if float(np.abs(fieldv.points - quad).max()) > 1e-9:
        raise ValueError("field points do not coincide with the mesh quadrature points")
    assemble = _assemble_1d if mesh.domain.dim == 1 else _assemble_2d
    rows, cols, mvals, kvals = assemble(mesh, fieldv)
    nn = (mesh.resolution + 1) ** mesh.domain.dim
    interior = np.ix_(mesh.interior_idx, mesh.interior_idx)
    if mesh.n_interior <= DENSE_MAX_DIM:

        def build(vals: Array) -> Array:
            A = np.zeros((nn, nn))
            np.add.at(A, (rows, cols), vals)
            A = A[interior]
            # enforce exact symmetry against accumulation-order roundoff
            return (A + A.T) * 0.5

    else:
        import scipy.sparse as sp

        def build(vals: Array) -> sp.csr_matrix:
            A = sp.coo_matrix((vals, (rows, cols)), shape=(nn, nn)).tocsr()[interior].tocsr()
            return ((A + A.T) * 0.5).tocsr()

    return DiscreteOperator(mesh, build(mvals), build(kvals), fieldv)


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
        return _sqrt_dot(u, _matvecs(self.op.M, u))

    def norm1(self, u: Array) -> float | Array:
        return _sqrt_dot(u, _matvecs(self.op.K, u))

    def norm2(self, u: Array) -> float | Array:
        ku = _matvecs(self.op.K, u)
        return _sqrt_dot(self.op.solve_M(ku), ku)

    def apply_A(self, u: Array) -> Array:
        """M^{-1} K u, the discrete Dirichlet Laplacian action."""
        return self.op.solve_M(_matvecs(self.op.K, u))


def x_norm(z: Array, pack: NormPack, level: int) -> float | Array:
    """Product phase-space norm of z = (u; v) at level 0 or 1 (see `NormPack`): an np.float64
    for one state (2 dim,), or one per column of a (2 dim, k) block, bit for bit that column's alone."""
    u, v = z[: pack.op.n], z[pack.op.n :]
    if level == 0:
        return np.sqrt(pack.norm1(u) ** 2 + pack.norm0(v) ** 2)
    if level == 1:
        return np.sqrt(pack.norm2(u) ** 2 + pack.norm1(v) ** 2)
    raise ValueError(f"unsupported norm level {level}")


@dataclass(frozen=True)
class NonlinearitySpec:
    """The scalar nonlinearity f(u) = a u + b sin(u), applied nodally.

    Its two coefficients are the whole spec: `WaveIntegrator` folds the
    linear part a u into its step operator, so a step evaluates only sin.
    `l` = |a| + |b| bounds |f'| = |a + b cos(u)|.
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"coefficients a = {self.a}, b = {self.b} must be finite")

    def f(self, u: Array) -> Array:
        return self.a * u + self.b * np.sin(u)

    @property
    def l(self) -> float:
        return abs(self.a) + abs(self.b)


def default_nonlinearity(a: float = 1.0, b: float = 0.5) -> NonlinearitySpec:
    """f(u) = a u + b sin(u) with a > |b|, the dissipative case every study runs."""
    if not a > abs(b):
        raise ValueError(f"a ({a}) must exceed |b| ({abs(b)}) for dissipativity")
    return NonlinearitySpec(a, b)
