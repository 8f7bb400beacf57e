"""Perturbation maps, C2 distances, and pullback coefficient fields."""

import numpy as np
import pytest
import sympy as sym
from hypothesis import given, settings
from hypothesis import strategies as st

from ghwave.domains import (
    FAMILIES,
    CoefficientField,
    OrientationError,
    ReferenceDomain,
    affine_map_1d,
    bump_map_1d,
    c2_distance,
    default_c2_grid,
    deviation_norms,
    identity_map,
    make_pullback,
    polybump_map_1d,
    radial_bump_map_2d,
    shear_map_2d,
)
from ghwave.config import ScenarioConfig
from ghwave.operators import Mesh

UNIT = ReferenceDomain("interval", ((0.0, 1.0),))
SQUARE = ReferenceDomain("rectangle", ((0.0, 1.0), (0.0, 1.0)))


# --- symbolic oracle for the hand-coded derivatives -------------------------

def _sympy_jac_hess_1d(expr, x, pts):
    d1 = sym.lambdify(x, sym.diff(expr, x), "numpy")
    d2 = sym.lambdify(x, sym.diff(expr, x, 2), "numpy")
    return d1(pts), d2(pts)


def test_bump_derivatives_match_symbolic_oracle():
    a, c, w = 0.07, 0.5, 0.3
    x = sym.Symbol("x")
    expr = x + a * sym.exp(-((x - c) ** 2) / (2 * w**2))
    pts = np.linspace(0.02, 0.98, 17)
    d1, d2 = _sympy_jac_hess_1d(expr, x, pts)
    h = bump_map_1d(UNIT, a, c, w)
    np.testing.assert_allclose(h.jac(pts[:, None])[:, 0, 0], d1, rtol=1e-12)
    np.testing.assert_allclose(h.hess(pts[:, None])[:, 0, 0, 0], d2, rtol=1e-12, atol=1e-13)


def test_polybump_derivatives_match_symbolic_oracle():
    a = 0.02  # curvature at the edges is 32 a, and the gate needs delta < 1
    x = sym.Symbol("x")
    expr = x + a * 16 * x**2 * (1 - x) ** 2
    pts = np.linspace(0.0, 1.0, 13)
    d1, d2 = _sympy_jac_hess_1d(expr, x, pts)
    h = polybump_map_1d(UNIT, a)
    np.testing.assert_allclose(h.jac(pts[:, None])[:, 0, 0], d1, rtol=1e-12)
    np.testing.assert_allclose(h.hess(pts[:, None])[:, 0, 0, 0], d2, atol=1e-12)


def test_radial_bump_derivatives_match_symbolic_oracle():
    a, w = 0.04, 0.3
    x, y = sym.symbols("x y")
    r2 = (x - sym.Rational(1, 2)) ** 2 + (y - sym.Rational(1, 2)) ** 2
    g = sym.exp(-r2 / (2 * w**2))
    hx, hy = x + a * (x - sym.Rational(1, 2)) * g, y + a * (y - sym.Rational(1, 2)) * g
    pts = np.column_stack(
        [np.linspace(0.1, 0.9, 9), np.linspace(0.85, 0.15, 9)]
    )
    h = radial_bump_map_2d(SQUARE, a, center_x=0.5, center_y=0.5, width=w)
    jac = h.jac(pts)
    hess = h.hess(pts)
    for i, comp in enumerate((hx, hy)):
        for j, v1 in enumerate((x, y)):
            d1 = sym.lambdify((x, y), sym.diff(comp, v1), "numpy")(pts[:, 0], pts[:, 1])
            np.testing.assert_allclose(jac[:, i, j], d1, rtol=0, atol=1e-12)
            for k, v2 in enumerate((x, y)):
                d2 = sym.lambdify((x, y), sym.diff(comp, v1, v2), "numpy")(
                    pts[:, 0], pts[:, 1]
                )
                np.testing.assert_allclose(hess[:, i, j, k], d2, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "name, domain, amp, comps",
    [
        ("scale1d", UNIT, 0.05, lambda a, x, y: [(1 + a) * x]),
        ("affine1d", UNIT, 0.05, lambda a, x, y: [x + a]),
        ("shear2d", SQUARE, 0.1, lambda a, x, y: [x, y + a * x]),
    ],
)
def test_linear_family_derivatives_match_symbolic_oracle(name, domain, amp, comps):
    x, y = sym.symbols("x y")
    syms = (x, y)[: domain.dim]
    pts = np.column_stack([np.linspace(0.0, 1.0, 11), np.linspace(0.9, 0.1, 11)])[:, : domain.dim]
    h = FAMILIES[name](domain, amp)
    jac, hess = h.jac(pts), h.hess(pts)
    for i, comp in enumerate(comps(amp, x, y)):
        for j, v1 in enumerate(syms):
            d1 = sym.lambdify(syms, sym.diff(comp, v1), "numpy")(*pts.T)
            np.testing.assert_allclose(jac[:, i, j], np.broadcast_to(d1, len(pts)), rtol=1e-12, atol=1e-12)
            for k, v2 in enumerate(syms):
                d2 = sym.lambdify(syms, sym.diff(comp, v1, v2), "numpy")(*pts.T)
                np.testing.assert_allclose(hess[:, i, j, k], np.broadcast_to(d2, len(pts)), rtol=1e-12, atol=1e-12)


def test_symbolic_oracle_covers_every_family():
    # the derivative tests above are the only check of the hand-coded
    # Jacobians and Hessians, so a new family needs its oracle there
    assert set(FAMILIES) == {"bump1d", "polybump1d", "radial_bump2d", "scale1d", "affine1d", "shear2d"}


# --- C2 distance -------------------------------------------------------------

def test_c2_distance_quadratic_oracle():
    # h(x) = x + 0.05 x^2: |h-id| + |h'-1| + |h''| = 0.05 x^2 + 0.1 x + 0.1,
    # maximized at x = 1 -> 0.25 exactly
    x = np.linspace(0.0, 1.0, 1001)[:, None]

    def mp(p):
        return p + 0.05 * p**2

    def jc(p):
        return (1.0 + 0.1 * p)[:, :, None]

    def hs(p):
        return np.full((p.shape[0], 1, 1, 1), 0.1)

    from ghwave.domains import DiffeoMap

    h = DiffeoMap(UNIT, mp, jc, hs, key=("quad", 0.05))
    assert c2_distance(h, identity_map(UNIT), x) == pytest.approx(0.25, rel=1e-12)


def test_c2_distance_zero_on_self():
    h = bump_map_1d(UNIT, 0.08)
    assert c2_distance(h, h, default_c2_grid(UNIT)) == 0.0
    # the grid is built once and shared read-only
    assert default_c2_grid(UNIT) is default_c2_grid(UNIT)
    assert not default_c2_grid(UNIT).flags.writeable


@given(st.floats(0.005, 0.08), st.floats(0.005, 0.08))
@settings(max_examples=25, deadline=None)
def test_c2_distance_symmetric(a1, a2):
    g = default_c2_grid(UNIT, 101)
    h1, h2 = bump_map_1d(UNIT, a1), bump_map_1d(UNIT, a2)
    assert c2_distance(h1, h2, g) == pytest.approx(c2_distance(h2, h1, g), rel=1e-12)


def test_affine_c2_distance_exact():
    # h(x) = 1.1 x: |h-id| = 0.1 x, |h'-1| = 0.1, h'' = 0 -> sup = 0.2 at x = 1
    h = affine_map_1d(UNIT, scale=1.1)
    d = c2_distance(h, identity_map(UNIT), default_c2_grid(UNIT))
    assert d == pytest.approx(0.2, rel=1e-12)


def test_admissibility_gate_rejects_large_maps():
    with pytest.raises(ValueError, match="C2 distance"):
        bump_map_1d(UNIT, 0.9, width=0.1)


@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize("amp", [0.0, 0.01, -0.03, 0.08])
def test_family_delta_is_the_c2_distance_to_the_identity(name, amp):
    # the gate measures h against the identity directly; it must give the
    # bits of the general distance on the default grid, on an interval and
    # on a rectangle with bounds other than the unit ones
    domain = (
        ReferenceDomain.interval(0.0, np.pi)
        if name.endswith("1d")
        else ReferenceDomain.rectangle(0.0, 1.0, -0.5, 0.75)
    )
    h = FAMILIES[name](domain, amp)
    assert h.delta == c2_distance(h, identity_map(domain), default_c2_grid(domain))


# --- families ----------------------------------------------------------------

def test_family_deltas_decrease_along_schedule():
    cfg = ScenarioConfig(upper=1.0, family="bump1d", schedule=(0.08, 0.04, 0.02, 0.01))
    deltas = [m.delta for m in cfg.maps()]
    assert all(b < a for a, b in zip(deltas, deltas[1:]))


def test_unknown_family_lists_available():
    with pytest.raises(ValueError, match="bump1d"):
        ScenarioConfig(family="warp9").maps()


def test_schedule_must_decrease():
    with pytest.raises(ValueError, match="decreasing"):
        ScenarioConfig(schedule=(0.01, 0.02)).maps()


@given(st.floats(0.01, 0.08))
@settings(max_examples=20, deadline=None)
def test_amplitude_scaling_halves_bump_c2_distance(amp):
    # the bump family is linear in its amplitude, so d_C2 to the identity
    # scales exactly with it
    g = default_c2_grid(UNIT, 201)
    ident = identity_map(UNIT)
    full = c2_distance(bump_map_1d(UNIT, amp), ident, g)
    half = c2_distance(bump_map_1d(UNIT, amp / 2), ident, g)
    assert half == pytest.approx(full / 2, rel=1e-12)


# --- pullback coefficient fields ----------------------------------------------

def test_pullback_identity_field_is_exact():
    mesh = Mesh(UNIT, 16)
    fld = make_pullback(identity_map(UNIT), mesh.quadrature_points())
    assert np.all(fld.det == 1.0)
    assert np.all(fld.Hbar == np.eye(1))


def test_pullback_affine_scaling_frozen_values():
    # h = 1.1 x: H = 1.1, Hbar = 1/1.1, det = 1.1 everywhere
    mesh = Mesh(UNIT, 16)
    fld = make_pullback(affine_map_1d(UNIT, 1.1), mesh.quadrature_points())
    np.testing.assert_allclose(fld.Hbar[:, 0, 0], 1 / 1.1, rtol=1e-14)
    np.testing.assert_allclose(fld.det, 1.1, rtol=1e-14)
    det_dev, hbar_dev = deviation_norms(fld)
    assert det_dev == pytest.approx(0.1, rel=1e-12)
    assert hbar_dev == pytest.approx(abs(1 - 1 / 1.1), rel=1e-12)


def test_pullback_shear_has_unit_determinant():
    mesh = Mesh(SQUARE, 8)
    fld = make_pullback(shear_map_2d(SQUARE, 0.1), mesh.quadrature_points())
    np.testing.assert_allclose(fld.det, 1.0, rtol=1e-12)


def test_pullback_rejects_orientation_flip():
    mesh = Mesh(UNIT, 8)
    quad = mesh.quadrature_points()
    from ghwave.domains import DiffeoMap

    def mp(p):
        return 1.0 - p

    def jc(p):
        return np.full((p.shape[0], 1, 1), -1.0)

    def hs(p):
        return np.zeros((p.shape[0], 1, 1, 1))

    flip = DiffeoMap(UNIT, mp, jc, hs, key=("flip",))
    flip.delta = 0.0
    with pytest.raises(OrientationError, match="reverses orientation"):
        make_pullback(flip, quad)


def test_coefficient_field_rejects_nonpositive_det():
    # a singular Jacobian is refused as an orientation fault, before inversion
    pts = np.linspace(0.1, 0.9, 3)[:, None]
    jac = np.array([1.0, 0.0, 1.0]).reshape(3, 1, 1)
    with pytest.raises(OrientationError, match=r"at point \[0\.5\]"):
        CoefficientField(pts, jac)

