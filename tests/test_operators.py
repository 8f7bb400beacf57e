"""Assembly, eigenvalues, norms, and the nonlinearity spec.

The 1d identity-coefficient matrices have closed forms under midpoint
quadrature, and the generalized eigenvalues of that (K, M) pencil are
lambda_k = (4/h^2) tan^2(k pi / (2 n)) — both derived by hand and frozen here
as oracles for the assembly path.
"""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ghwave.domains import ReferenceDomain, affine_map_1d, bump_map_1d, make_pullback, radial_bump_map_2d
from ghwave.operators import (
    DiscreteOperator,
    Mesh,
    NormPack,
    default_nonlinearity,
    first_eigenvalue,
    identity_operator,
    pullback_operator,
    _assemble_1d,
    _assemble_2d,
    assemble_operators,
    x_norm,
)

UNIT = ReferenceDomain("interval", ((0.0, 1.0),))
SQUARE = ReferenceDomain("rectangle", ((0.0, 1.0), (0.0, 1.0)))


def test_identity_mass_matrix_frozen_1d():
    # midpoint quadrature: M = h * tridiag(1/4, 1/2, 1/4) on interior nodes
    n = 8
    mesh = Mesh(UNIT, n)
    op = identity_operator(mesh)
    h = 1.0 / n
    M = op.M
    expect = h * (np.diag(np.full(n - 1, 0.5)) + np.diag(np.full(n - 2, 0.25), 1) + np.diag(np.full(n - 2, 0.25), -1))
    np.testing.assert_allclose(M, expect, rtol=0, atol=1e-15)


def test_identity_stiffness_matrix_frozen_1d():
    n = 8
    mesh = Mesh(UNIT, n)
    op = identity_operator(mesh)
    h = 1.0 / n
    K = op.K
    expect = (1 / h) * (np.diag(np.full(n - 1, 2.0)) + np.diag(np.full(n - 2, -1.0), 1) + np.diag(np.full(n - 2, -1.0), -1))
    np.testing.assert_allclose(K, expect, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "mesh, h",
    [
        (Mesh(UNIT, 24), bump_map_1d(UNIT, 0.05)),
        (Mesh(UNIT, 48), bump_map_1d(UNIT, 0.05)),
        (Mesh(SQUARE, 12), radial_bump_map_2d(SQUARE, 0.05)),
    ],
    ids=["1d-24", "1d-48", "2d-12"],
)
def test_dense_assembly_matches_csr_assembly(mesh, h):
    # below DENSE_MAX_DIM the matrices are dense arrays summed with np.add.at;
    # a CSR assembly of the same element triples, sliced and symmetrized the
    # same way, is the oracle
    fieldv = make_pullback(h, mesh.quadrature_points())
    op = assemble_operators(mesh, fieldv)
    assert op.dense
    rows, cols, *values = (_assemble_1d if mesh.domain.dim == 1 else _assemble_2d)(mesh, fieldv)
    nn = (mesh.resolution + 1) ** mesh.domain.dim
    interior = np.ix_(mesh.interior_idx, mesh.interior_idx)
    csr = []
    for vals in values:
        A = sp.coo_matrix((vals, (rows, cols)), shape=(nn, nn)).tocsr()[interior].tocsr()
        csr.append(((A + A.T) * 0.5).tocsr())
    for dense, A in zip((op.M, op.K), csr):
        assert np.array_equal(dense, dense.T)
        assert (A != A.T).nnz == 0
        assert np.abs(dense - A.toarray()).max() <= 1e-15 * np.abs(dense).max()
    ref = DiscreteOperator(mesh, *csr, fieldv)
    assert not ref.dense
    assert op.lambda1 == pytest.approx(ref.lambda1, rel=1e-12)


def test_first_eigenvalue_matches_modal_formula():
    n = 64
    op = identity_operator(Mesh(UNIT, n))
    h = 1.0 / n
    lam_exact = (4 / h**2) * np.tan(np.pi / (2 * n)) ** 2
    assert first_eigenvalue(op) == pytest.approx(lam_exact, rel=1e-9)


def test_first_eigenvalue_converges_to_pi_squared():
    op = identity_operator(Mesh(UNIT, 256))
    assert op.lambda1 == pytest.approx(np.pi**2, rel=1e-3)


def test_first_eigenvalue_2d_converges():
    op = identity_operator(Mesh(SQUARE, 64))
    assert op.lambda1 == pytest.approx(2 * np.pi**2, rel=5e-3)


def test_modal_formula_across_modes():
    # every pencil eigenvalue, not just the first: eigvals of M^{-1}K against
    # the closed form
    from scipy.linalg import eigh

    n = 16
    op = identity_operator(Mesh(UNIT, n))
    h = 1.0 / n
    lam = np.sort(eigh(op.K, op.M, eigvals_only=True))
    k = np.arange(1, n)
    expect = (4 / h**2) * np.tan(k * np.pi / (2 * n)) ** 2
    np.testing.assert_allclose(lam, expect, rtol=1e-9)


def test_affine_pullback_matrices_exact_1d():
    # constant coefficients make the change of variables exact: K entries
    # carry Hbar^2 det = (1/s^2) s = 1/s and M entries carry det = s
    n = 12
    mesh = Mesh(UNIT, n)
    s = 1.25
    op = pullback_operator(mesh, affine_map_1d(UNIT, s))
    base = identity_operator(mesh)
    np.testing.assert_allclose(op.K, base.K / s, rtol=1e-13)
    np.testing.assert_allclose(op.M, base.M * s, rtol=1e-13)


def test_affine_pullback_eigenvalue_scales_1d():
    # lambda_1(pulled back by 1.25x) = lambda_1(reference) / 1.25^2: the pencil
    # picks up 1/s from K and s from M
    n = 64
    mesh = Mesh(UNIT, n)
    s = 1.25
    op = pullback_operator(mesh, affine_map_1d(UNIT, s))
    base = identity_operator(mesh)
    assert op.lambda1 == pytest.approx(base.lambda1 / s**2, rel=1e-9)


def test_radial_bump_pullback_2d_runs_and_stays_spd():
    mesh = Mesh(SQUARE, 12)
    op = pullback_operator(mesh, radial_bump_map_2d(SQUARE, 0.05))
    rng = np.random.default_rng(3)
    for _ in range(5):
        u = rng.standard_normal(op.n)
        assert u @ (op.M @ u) > 0
        assert u @ (op.K @ u) > 0


def test_replaced_operator_recomputes_its_caches():
    # a copy with another K must not keep the eigenvalue, factorization or
    # lambda_max bound of the original
    op = identity_operator(Mesh(UNIT, 16))
    b = np.ones(op.n)
    lam, x, lmax = op.lambda1, op.solve_K(b), op.lambda_max_estimate()
    op2 = dataclasses.replace(op, K=2 * op.K)
    assert op2.eig_report is None
    assert op2.lambda1 == pytest.approx(2 * lam, rel=1e-9)
    np.testing.assert_allclose(op2.solve_K(b), 0.5 * x, rtol=1e-12)
    assert op2.lambda_max_estimate() == pytest.approx(2 * lmax, rel=1e-15)
    assert op.lambda1 == lam and op.lambda_max_estimate() == lmax


def test_poincare_inequality_discrete():
    # ||u||_0^2 <= ||u||_1^2 / lambda_1 for every interior vector
    op = identity_operator(Mesh(UNIT, 32))
    pack = NormPack(op)
    lam1 = op.lambda1
    rng = np.random.default_rng(11)
    for _ in range(20):
        u = rng.standard_normal(op.n)
        assert pack.norm0(u) ** 2 <= pack.norm1(u) ** 2 / lam1 * (1 + 1e-12)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_x_norm_level_ordering(seed):
    # the Poincare chain makes ||(u,v)||_{X^0} <= ||(u,v)||_{X^1}/sqrt(lambda_1)
    op = identity_operator(Mesh(UNIT, 16))
    pack = NormPack(op)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(2 * op.n)  # (u; v)
    lo = x_norm(z, pack, 0)
    hi = x_norm(z, pack, 1)
    assert lo <= hi / np.sqrt(op.lambda1) * (1 + 1e-10)


def test_x_norm_rejects_bad_level():
    op = identity_operator(Mesh(UNIT, 8))
    pack = NormPack(op)
    with pytest.raises(ValueError):
        x_norm(np.zeros(2 * op.n), pack, 2)


def test_lambda_max_estimate_frozen_1d():
    # rows of |K| over rows of M give 4/h^2 at every interior node (the
    # boundary rows share the ratio), so the step-size clock is exactly 4 n^2
    n = 24
    op = identity_operator(Mesh(UNIT, n))
    assert op.lambda_max_estimate() == pytest.approx(4.0 * n**2, rel=1e-12)


def test_default_nonlinearity_requires_sign_margin():
    with pytest.raises(ValueError):
        default_nonlinearity(a=1.0, b=1.0)
