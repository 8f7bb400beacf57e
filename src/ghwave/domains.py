"""Reference domains, C2 diffeomorphisms, and pullback coefficient fields.

A perturbed domain is the image h(Omega) of a reference interval or rectangle
under a C2 diffeomorphism h close to the identity.  Instead of meshing each
image domain, the wave problem on h(Omega) is pulled back to the reference
domain: the change of variables turns the Laplacian into a variable-coefficient
operator described pointwise by the inverse transpose Hbar of the Jacobian
matrix H = Dh and by the Jacobian determinant.  The reference domain
is the one base of every pullback, so all problems share one mesh and one
coefficient space.  Everything downstream (assembly, flows, attractor
comparisons) consumes the CoefficientField produced here.

All shipped map families are closed-form with hand-coded first and second
derivatives.  `FAMILIES` maps each family name to its map constructor
`(domain, amplitude, **params)`, and the constructor is where the family's
rules live: its domain dimension, its parameter ranges, and (through
`_finalize`) a C2 distance below 1 from the identity.  A scenario's family
parameters are that constructor's keyword arguments, and the config asks the
constructor rather than restating its rules.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np
import numpy.typing as npt

__all__ = [
    "ReferenceDomain",
    "DiffeoMap",
    "CoefficientField",
    "OrientationError",
    "c2_distance",
    "default_c2_grid",
    "make_pullback",
    "deviation_norms",
    "identity_map",
    "affine_map_1d",
    "bump_map_1d",
    "polybump_map_1d",
    "shear_map_2d",
    "radial_bump_map_2d",
    "FAMILIES",
]

Array = npt.NDArray[np.float64]

class OrientationError(RuntimeError):
    """A pullback Jacobian determinant was non-positive at some point."""


class _ArgumentError(ValueError):
    """A map constructor's rule broken by its argument `arg`; `parse_config`
    addresses its diagnostic by that name."""

    def __init__(self, arg: str, message: str):
        super().__init__(message)
        self.arg = arg


@dataclass(frozen=True)
class ReferenceDomain:
    """Interval (a, b) or axis-aligned rectangle (a, b) x (c, d)."""

    kind: str
    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if self.kind not in ("interval", "rectangle"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        want = 1 if self.kind == "interval" else 2
        if len(self.bounds) != want:
            raise ValueError(f"{self.kind} needs {want} bound pair(s)")
        for lo, hi in self.bounds:
            if not hi > lo:
                raise ValueError(f"degenerate bounds ({lo}, {hi})")

    @property
    def dim(self) -> int:
        return len(self.bounds)

    @staticmethod
    def interval(a: float, b: float) -> "ReferenceDomain":
        return ReferenceDomain("interval", ((float(a), float(b)),))

    @staticmethod
    def rectangle(a: float, b: float, c: float, d: float) -> "ReferenceDomain":
        return ReferenceDomain("rectangle", ((float(a), float(b)), (float(c), float(d))))


@dataclass
class DiffeoMap:
    """Closed-form C2 map with hand-coded Jacobian and Hessian.

    Callables are vectorized over a leading point axis:
      map_fn(x: (n, d))  -> (n, d)
      jac_fn(x: (n, d))  -> (n, d, d)
      hess_fn(x: (n, d)) -> (n, d, d, d)   (component, then two derivative axes)

    `delta` is the C2 distance to the identity on the default sample grid and
    must stay below 1 for the map to count as an admissible perturbation.
    `key` identifies the family and its parameters.
    """

    domain: ReferenceDomain
    map_fn: Callable[[Array], Array]
    jac_fn: Callable[[Array], Array]
    hess_fn: Callable[[Array], Array]
    key: tuple = ()
    delta: float = field(default=float("nan"))

    def __call__(self, x: Array) -> Array:
        return self.map_fn(np.atleast_2d(np.asarray(x, dtype=float)))

    def jac(self, x: Array) -> Array:
        return self.jac_fn(np.atleast_2d(np.asarray(x, dtype=float)))

    def hess(self, x: Array) -> Array:
        return self.hess_fn(np.atleast_2d(np.asarray(x, dtype=float)))


@lru_cache(maxsize=8)
def default_c2_grid(domain: ReferenceDomain, points_per_axis: int | None = None) -> Array:
    """Uniform sample grid used for C2 distances: by default 1001 points on an
    interval, 201^2 on a rectangle.  Built once per argument list and
    read-only, as every caller shares it."""
    points_per_axis = points_per_axis or (1001 if domain.dim == 1 else 201)
    axes = [np.linspace(lo, hi, points_per_axis) for lo, hi in domain.bounds]
    if domain.dim == 1:
        grid = axes[0][:, None]
    else:
        gx, gy = np.meshgrid(axes[0], axes[1], indexing="ij")
        grid = np.column_stack([gx.ravel(), gy.ravel()])
    grid.flags.writeable = False
    return grid


def c2_distance(h: DiffeoMap, g: DiffeoMap, grid: Array) -> float:
    """sup over the grid of |h-g|_2 + |Dh-Dg|_F + |D2h-D2g|_F.

    The matrix and third-order deviations use the Frobenius norm.
    """
    pts = np.atleast_2d(np.asarray(grid, dtype=float))
    if pts.size == 0:
        raise ValueError("c2_distance needs a non-empty sample grid")
    if pts.shape[1] != h.domain.dim:
        raise ValueError("grid dimension does not match the maps")
    return _c2_sup(pts, h(pts) - g(pts), h.jac(pts) - g.jac(pts), h.hess(pts) - g.hess(pts))


def _c2_sup(pts: Array, dv: Array, dj: Array, dh: Array) -> float:
    """The C2 distance from the deviations of value, Jacobian and Hessian on the grid `pts`."""
    if not (np.all(np.isfinite(dv)) and np.all(np.isfinite(dj)) and np.all(np.isfinite(dh))):
        bad = np.argwhere(~np.isfinite(dv).all(axis=1))
        where = pts[bad[0, 0]] if bad.size else pts[0]
        raise ValueError(f"map evaluation produced non-finite values near {where}")
    total = (
        np.sqrt((dv**2).sum(axis=1))
        + np.sqrt((dj**2).sum(axis=(1, 2)))
        + np.sqrt((dh**2).sum(axis=(1, 2, 3)))
    )
    return float(total.max())


def _finalize(h: DiffeoMap) -> DiffeoMap:
    """Set delta and admit h only if delta < 1: the one check of a map.

    delta is `c2_distance(h, identity_map(h.domain), default_c2_grid(h.domain))`
    bit for bit, taken against the identity directly: h(x) - x, Dh - I and
    D2h (less 0, which moves no bit), on the domain's one grid.  It also
    keeps Dh invertible on the grid: at each grid point delta bounds
    |Dh - I|_F >= |Dh - I|_2, so every eigenvalue of Dh lies within delta of
    1 and det Dh >= (1 - delta)^d > 0.  The hand-coded derivatives are fixed
    code, checked against a symbolic oracle in the tests.
    """
    pts = default_c2_grid(h.domain)
    h.delta = _c2_sup(pts, h(pts) - pts, h.jac(pts) - np.eye(h.domain.dim), h.hess(pts))
    if not h.delta < 1.0:
        raise _ArgumentError("amplitude", f"map {h.key} has C2 distance {h.delta:.4f} >= 1 from the identity")
    return h


def identity_map(domain: ReferenceDomain) -> DiffeoMap:
    d = domain.dim

    def mp(x: Array) -> Array:
        return x.copy()

    def jc(x: Array) -> Array:
        return np.broadcast_to(np.eye(d), (x.shape[0], d, d)).copy()

    def hs(x: Array) -> Array:
        return np.zeros((x.shape[0], d, d, d))

    h = DiffeoMap(domain, mp, jc, hs, key=("identity",))
    h.delta = 0.0
    return h


def affine_map_1d(domain: ReferenceDomain, scale: float = 1.0, shift: float = 0.0) -> DiffeoMap:
    """h(x) = scale*x + shift on an interval; scale must be positive."""
    if domain.dim != 1:
        raise ValueError("affine_map_1d needs an interval domain")
    if scale <= 0:
        raise _ArgumentError("scale", "scale must be positive")
    s, q = float(scale), float(shift)

    def mp(x: Array) -> Array:
        return s * x + q

    def jc(x: Array) -> Array:
        return np.full((x.shape[0], 1, 1), s)

    def hs(x: Array) -> Array:
        return np.zeros((x.shape[0], 1, 1, 1))

    return _finalize(DiffeoMap(domain, mp, jc, hs, key=("affine1d", s, q)))


def bump_map_1d(
    domain: ReferenceDomain, amplitude: float, center: float = 0.5, width: float = 0.3
) -> DiffeoMap:
    """Gaussian bump h(x) = x + A exp(-(x-c)^2 / (2 w^2))."""
    if domain.dim != 1:
        raise ValueError("bump_map_1d needs an interval domain")
    if width <= 0:
        raise _ArgumentError("width", "width must be positive")
    a, c, w = float(amplitude), float(center), float(width)

    def g(x: Array) -> Array:
        return np.exp(-((x - c) ** 2) / (2 * w**2))

    def mp(x: Array) -> Array:
        return x + a * g(x)

    def jc(x: Array) -> Array:
        val = 1.0 + a * (-(x - c) / w**2) * g(x)
        return val[:, :, None]

    def hs(x: Array) -> Array:
        val = a * (((x - c) ** 2) / w**4 - 1.0 / w**2) * g(x)
        return val[:, :, None, None]

    return _finalize(DiffeoMap(domain, mp, jc, hs, key=("bump1d", a, c, w)))


def polybump_map_1d(domain: ReferenceDomain, amplitude: float) -> DiffeoMap:
    """Quartic bump h(x) = x + A * 16 xi^2 (1-xi)^2 with xi = (x-a)/(b-a)."""
    if domain.dim != 1:
        raise ValueError("polybump_map_1d needs an interval domain")
    a = float(amplitude)
    lo, hi = domain.bounds[0]
    L = hi - lo

    def mp(x: Array) -> Array:
        xi = (x - lo) / L
        return x + a * 16.0 * xi**2 * (1 - xi) ** 2

    def jc(x: Array) -> Array:
        xi = (x - lo) / L
        val = 1.0 + (a * 16.0 / L) * (2 * xi - 6 * xi**2 + 4 * xi**3)
        return val[:, :, None]

    def hs(x: Array) -> Array:
        xi = (x - lo) / L
        val = (a * 16.0 / L**2) * (2 - 12 * xi + 12 * xi**2)
        return val[:, :, None, None]

    return _finalize(DiffeoMap(domain, mp, jc, hs, key=("polybump1d", a)))


def shear_map_2d(domain: ReferenceDomain, k: float) -> DiffeoMap:
    """Shear h(x, y) = (x, y + k x)."""
    if domain.dim != 2:
        raise ValueError("shear_map_2d needs a rectangle domain")
    kk = float(k)

    def mp(x: Array) -> Array:
        out = x.copy()
        out[:, 1] += kk * x[:, 0]
        return out

    def jc(x: Array) -> Array:
        J = np.broadcast_to(np.array([[1.0, 0.0], [kk, 1.0]]), (x.shape[0], 2, 2)).copy()
        return J

    def hs(x: Array) -> Array:
        return np.zeros((x.shape[0], 2, 2, 2))

    return _finalize(DiffeoMap(domain, mp, jc, hs, key=("shear2d", kk)))


def radial_bump_map_2d(
    domain: ReferenceDomain,
    amplitude: float,
    center_x: float = 0.5,
    center_y: float = 0.5,
    width: float = 0.3,
) -> DiffeoMap:
    """Radial bump h(p) = p + A exp(-|p-c|^2 / (2 w^2)) (p - c), c = (center_x, center_y)."""
    if domain.dim != 2:
        raise ValueError("radial_bump_map_2d needs a rectangle domain")
    if width <= 0:
        raise _ArgumentError("width", "width must be positive")
    a, w = float(amplitude), float(width)
    c = np.array([center_x, center_y], dtype=float)

    def g(x: Array) -> Array:
        r2 = ((x - c) ** 2).sum(axis=1)
        return np.exp(-r2 / (2 * w**2))

    def mp(x: Array) -> Array:
        return x + a * g(x)[:, None] * (x - c)

    def jc(x: Array) -> Array:
        r = x - c
        gg = g(x)
        eye = np.eye(2)
        # D(g r) = g (I - r r^T / w^2)
        outer = r[:, :, None] * r[:, None, :] / w**2
        return eye[None, :, :] + a * gg[:, None, None] * (eye[None, :, :] - outer)

    def hs(x: Array) -> Array:
        r = x - c
        gg = g(x)
        eye = np.eye(2)
        n = x.shape[0]
        H = np.zeros((n, 2, 2, 2))
        outer = r[:, :, None] * r[:, None, :] / w**2
        base = eye[None, :, :] - outer  # (n, i, j)
        for kk in range(2):
            dk = np.zeros(2)
            dk[kk] = 1.0
            term1 = -(r[:, kk] / w**2)[:, None, None] * base
            term2 = -(dk[None, :, None] * r[:, None, :] + r[:, :, None] * dk[None, None, :]) / w**2
            H[:, :, :, kk] = a * gg[:, None, None] * (term1 + term2)
        return H

    return _finalize(DiffeoMap(domain, mp, jc, hs, key=("radial_bump2d", a, tuple(c), w)))


FAMILIES: dict[str, Callable[..., DiffeoMap]] = {
    "bump1d": bump_map_1d,
    "polybump1d": polybump_map_1d,
    "scale1d": lambda domain, amplitude: affine_map_1d(domain, 1.0 + amplitude, 0.0),
    "affine1d": lambda domain, amplitude: affine_map_1d(domain, 1.0, amplitude),
    "shear2d": shear_map_2d,
    "radial_bump2d": radial_bump_map_2d,
}


@dataclass
class CoefficientField:
    """Pointwise pullback data at quadrature points, built from the Jacobian.

    `jacobian[i]` is H = Dh of the map h at points[i]; the field keeps what
    assembly and the deviation norms read, Hbar = H^{-T} and det = det H,
    which must be positive (h preserves orientation), else OrientationError.
    """

    points: Array  # (nq, d)
    jacobian: InitVar[Array]  # (nq, d, d)
    Hbar: Array = field(init=False)  # (nq, d, d)
    det: Array = field(init=False)  # (nq,)

    def __post_init__(self, jacobian: Array) -> None:
        nq, d = self.points.shape
        if jacobian.shape != (nq, d, d):
            raise ValueError("inconsistent field shapes")
        self.det = np.linalg.det(jacobian)
        if np.any(self.det <= 0):
            k = int(np.argmax(self.det <= 0))
            raise OrientationError(
                f"pullback determinant {self.det[k]:.3e} <= 0 at point {self.points[k]}; h reverses orientation"
            )
        self.Hbar = np.linalg.inv(jacobian).transpose(0, 2, 1)

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def make_pullback(h: DiffeoMap, quad: Array) -> CoefficientField:
    """Coefficient field of the map h at the `quad` points of its reference domain.

    Raises OrientationError if det Dh is non-positive at any of them.
    """
    pts = np.atleast_2d(np.asarray(quad, dtype=float))
    if pts.shape[1] != h.domain.dim:
        raise ValueError("quadrature dimension does not match the map")
    return CoefficientField(pts, h.jac(pts))


def deviation_norms(fieldv: CoefficientField) -> tuple[float, float]:
    """(max |det - 1|, max Frobenius |I - Hbar|) over the field points."""
    det_dev = float(np.abs(fieldv.det - 1.0).max())
    d = fieldv.dim
    diff = np.eye(d)[None, :, :] - fieldv.Hbar
    hbar_dev = float(np.sqrt((diff**2).sum(axis=(1, 2))).max())
    return det_dev, hbar_dev

