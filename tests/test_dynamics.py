"""Time integration, energy behavior, sampling, and conjugated flows.

Oracle: a single pencil mode with linear f(u) = a u satisfies
alpha'' + alpha' + (lambda + a) alpha = 0, so from rest
alpha(t) = e^{-t/2} (cos(w t) + sin(w t) / (2 w)), w = sqrt(lambda + a - 1/4),
with lambda taken from the frozen modal formula of the discrete pencil.
"""

import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

from ghwave import dynamics, operators
from ghwave.config import load_config, parse_config
from ghwave.domains import ReferenceDomain, bump_map_1d, identity_map
from ghwave.operators import (
    Mesh,
    NonlinearitySpec,
    NormPack,
    default_nonlinearity,
    identity_operator,
    pullback_operator,
    x_norm,
)
from ghwave.dynamics import (
    BlowupError,
    SamplerConfig,
    WaveIntegrator,
    _e2,
    _envelope_points,
    _fit_envelope,
    calibration_state,
    conjugated_flow_error,
    energy_profile,
    gronwall_rate,
    lipschitz_envelope_check,
    pair_separations,
    random_state,
    sample_attractor,
    solve_trajectory,
    x0_dist,
    x0_sqdist,
)

UNIT = ReferenceDomain("interval", ((0.0, 1.0),))


def _zero_f() -> NonlinearitySpec:
    return NonlinearitySpec(0.0, 0.0)


def _linear_f() -> NonlinearitySpec:
    return NonlinearitySpec(1.0, 0.0)


# strongly anti-restoring: drives a state of X^1 radius 40 on the 16-cell mesh
# past the float range within 300 steps of dt = 0.01
_ANTI = NonlinearitySpec(-1e5, 0.0)


def _mode(op, k=1):
    (lo, hi) = op.mesh.domain.bounds[0]
    x = op.mesh.nodes[op.mesh.interior_idx, 0]
    return np.sin(k * np.pi * (x - lo) / (hi - lo))


def _at_rest(u):
    """The state (u; 0)."""
    return np.concatenate([u, np.zeros_like(u)])


def _advance(integ, z, n_steps):
    """The state n_steps steps on from z: a record on the one-point grid [n_steps]."""
    return integ.record(z, [n_steps])[..., 0]


def _modal_exact(op, k, a, t):
    n = op.mesh.resolution
    h = op.mesh.spacing[0]
    lam = (4 / h**2) * np.tan(k * np.pi / (2 * n)) ** 2
    w = np.sqrt(lam + a - 0.25)
    return np.exp(-t / 2) * (np.cos(w * t) + np.sin(w * t) / (2 * w))


def test_zero_state_is_fixed_point():
    op = identity_operator(Mesh(UNIT, 16))
    f = default_nonlinearity()
    out = _advance(WaveIntegrator(op, f, 0.01), np.zeros(2 * op.n), 100)
    assert np.all(out == 0.0)


def test_single_mode_matches_closed_form():
    op = identity_operator(Mesh(UNIT, 32))
    f = _linear_f()
    phi = _mode(op)
    t_final = 2.0
    out = _advance(WaveIntegrator(op, f, 5e-4), _at_rest(phi), 4000)
    alpha = _modal_exact(op, 1, 1.0, t_final)
    assert np.abs(out[: op.n] - alpha * phi).max() < 2e-6


def test_time_convergence_order_at_least_1_9():
    # wider cells so the whole dt ladder clears the stability cap
    wide = ReferenceDomain("interval", ((0.0, np.pi),))
    op = identity_operator(Mesh(wide, 32))
    f = _linear_f()
    phi = _mode(op)
    t_final = 1.0
    alpha = _modal_exact(op, 1, 1.0, t_final)
    errs = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        out = _advance(WaveIntegrator(op, f, dt), _at_rest(phi), round(t_final / dt))
        errs.append(np.abs(out[: op.n] - alpha * phi).max())
    orders = [np.log2(e0 / e1) for e0, e1 in zip(errs, errs[1:])]
    assert min(orders) >= 1.9


def test_step_size_cap_enforced():
    op = identity_operator(Mesh(UNIT, 64))
    with pytest.raises(ValueError, match="stability cap"):
        WaveIntegrator(op, default_nonlinearity(), dt=0.1)


def test_advance_semigroup_composition():
    op = identity_operator(Mesh(UNIT, 16))
    f = default_nonlinearity()
    rng = np.random.default_rng(5)
    s = random_state(op, rng, radius=1.0)
    integ = WaveIntegrator(op, f, 0.01)
    one = _advance(integ, s, 50)
    two = _advance(integ, _advance(integ, s, 30), 20)
    assert np.array_equal(one, two)


def test_record_matches_successive_advances():
    # step count 0 records the start state, and a repeated count its state again
    op = identity_operator(Mesh(UNIT, 16))
    integ = WaveIntegrator(op, default_nonlinearity(), 0.01)
    rng = np.random.default_rng(13)
    singles = [random_state(op, rng, radius=1.0) for _ in range(3)]
    steps = [0, 5, 12, 12, 30]
    for start in (singles[0], np.column_stack(singles)):
        rec = integ.record(start, steps)
        assert rec.shape == start.shape + (5,)
        cur, prev = start, 0
        for j, n in enumerate(steps):
            cur, prev = _advance(integ, cur, n - prev), n
            assert np.array_equal(rec[..., j], cur)
        assert rec.flags.c_contiguous


def test_record_rejects_decreasing_grid():
    # a grid is whole step counts: one that goes back, starts below 0 or
    # holds times (floats, even whole-valued ones) is an error, never a
    # rounded or truncated run
    op = identity_operator(Mesh(UNIT, 16))
    integ = WaveIntegrator(op, default_nonlinearity(), 0.01)
    s = random_state(op, np.random.default_rng(17), radius=1.0)
    for steps in ([2, 1], [2, 3, 1], [-1, 0], [0.05, 0.1], [0.0, 5.0], np.arange(3) * 0.01, [[1, 2]]):
        with pytest.raises(ValueError, match="nonnegative, nondecreasing whole step counts"):
            integ.record(s, steps)


_SQUARE = ReferenceDomain("rectangle", ((0.0, 1.0), (0.0, 1.0)))
# meshes above DENSE_MAX_DIM (n = 255 and 225), where the sparse kernel steps,
# and the shipped sizes (n = 47 and 121), where the dense product does
SPARSE_MESHES = [(UNIT, 256, 0.0005), (_SQUARE, 16, 0.01)]
DENSE_MESHES = [(UNIT, 48, 0.004), (_SQUARE, 12, 0.01)]


def _rel_err(got, want):
    """Largest relative 2-norm difference of u and of v, the two halves of the states."""
    return max(np.linalg.norm(g - w) / np.linalg.norm(w) for g, w in zip(np.split(got, 2), np.split(want, 2)))


@pytest.mark.parametrize("domain, resolution, dt", [(UNIT, 24, 0.005), (_SQUARE, 12, 0.01), *SPARSE_MESHES])
def test_block_step_matches_single_states(domain, resolution, dt):
    # a (dim, 3) block must evolve column by column like three separate
    # integrations: bit for bit with the sparse kernel, whose products and LU
    # solve treat columns independently, and to rounding with the dense
    # product, whose BLAS kernel depends on the block width
    op = identity_operator(Mesh(domain, resolution))
    integ = WaveIntegrator(op, default_nonlinearity(), dt)
    rng = np.random.default_rng(41)
    singles = [random_state(op, rng, radius=2.0) for _ in range(3)]
    block = np.column_stack(singles)
    for _ in range(300):
        block = integ.step(block)
        singles = [integ.step(s) for s in singles]
    for i, s in enumerate(singles):
        if integ.dense:
            assert _rel_err(block[:, i], s) <= 1e-12
        else:
            assert np.array_equal(block[:, i], s)
    # the norms and E2 of a block must also be those of its columns, bit for
    # bit: the settling test and the energy profile evaluate blocks
    columns = [block[:, i].copy() for i in range(3)]
    pack = NormPack(op)
    u, v = block[: op.n], block[op.n :]
    for norm in (pack.norm0, pack.norm1, pack.norm2):
        assert np.array_equal(norm(u), [norm(c[: op.n]) for c in columns])
    for level in (0, 1):
        assert np.array_equal(x_norm(block, pack, level), [x_norm(c, pack, level) for c in columns])
    f = default_nonlinearity()
    assert np.array_equal(_e2(block, pack, f), [_e2(c, pack, f) for c in columns])
    # E2 forms K u and its M solve once; the bits are those of the norm methods,
    # which multiply each column alone
    ku = np.column_stack([op.K @ c for c in u.T])
    acc = -v - op.solve_M(ku) - f.f(u)
    want = pack.norm0(acc) ** 2 + pack.norm1(v) ** 2 + pack.norm2(u) ** 2
    assert np.array_equal(_e2(block, pack, f), want)
    # E2 of a recorded block, evaluated as one (2 dim, 3 L) block, must hold
    # each step's (2 dim, 3) values
    L = 60
    rec = integ.record(block, np.arange(1, L + 1))
    wide = _e2(rec.reshape(2 * op.n, -1), pack, f)
    per_step = [_e2(rec[..., j].copy(), pack, f) for j in range(L)]
    assert np.array_equal(wide.reshape(3, L).T, per_step)


def _step_reference(integ, z, lu):
    """The documented theta step with scipy's `@`, solved with `lu`, with
    f(p) = a p + b sin(p) folded into R = [R_u | R_v | R_f]:
    v+ = S^-1 [R_u + a R_f | R_v + a (dt/2) R_f | b R_f] (u; v; sin(u + dt/2 v))."""
    op, dt, th, f = integ.op, integ.dt, integ.theta, integ.f
    u, v = z[: op.n], z[op.n :]
    c_v = 1.0 - dt * (1.0 - th)
    c_k = dt**2 * th * (1.0 - th)
    K, M = sp.csr_matrix(op.K), sp.csr_matrix(op.M)
    R_u, R_v, R_f = -dt * K, c_v * M - c_k * K, -dt * M
    R = sp.hstack([R_u + f.a * R_f, R_v + f.a * (0.5 * dt * R_f), f.b * R_f]).tocsr()
    v_new = lu.solve(R @ np.concatenate([u, v, np.sin(u + 0.5 * dt * v)]))
    u_new = u + dt * (th * v_new + (1.0 - th) * v)
    return np.concatenate([u_new, v_new])


@pytest.mark.parametrize("domain, resolution, dt", DENSE_MESHES + SPARSE_MESHES)
@pytest.mark.parametrize("k", [None, 1, 3])
def test_step_matches_reference_expression(domain, resolution, dt, k):
    # the sparse kernel is the documented step bit for bit, for one state
    # (k = None) and for blocks of k columns; the dense product G w is the
    # same map, rounded differently
    op = identity_operator(Mesh(domain, resolution))
    integ = WaveIntegrator(op, default_nonlinearity(), dt)
    assert integ.dense == ((domain, resolution, dt) in DENSE_MESHES)
    b = dt * integ.theta
    lu = splu(sp.csc_matrix((1.0 + b) * op.M + b**2 * op.K))
    rng = np.random.default_rng(43)
    singles = [random_state(op, rng, radius=2.0) for _ in range(k or 1)]
    state = singles[0] if k is None else np.column_stack(singles)
    ref = state
    for _ in range(300):
        state = integ.step(state)
        ref = _step_reference(integ, ref, lu)
    assert state.shape == ref.shape
    if integ.dense:
        assert _rel_err(state, ref) <= 1e-12
    else:
        assert np.array_equal(state, ref)


@pytest.mark.parametrize("a, b", [(1.0, 0.5), (-0.5, 0.3), (1.0, 0.0)], ids=["default", "a<0", "b=0"])
@pytest.mark.parametrize("domain, resolution, dt", DENSE_MESHES + SPARSE_MESHES)
def test_step_matches_dense_solve_of_the_unfolded_system(domain, resolution, dt, a, b):
    # an oracle that shares no code with either kernel: S v+ = R (u; v; f(p)),
    # p = u + dt/2 v, solved by LAPACK with S and R dense and f applied as a
    # function, then u+ = u + dt (theta v+ + (1 - theta) v)
    op = identity_operator(Mesh(domain, resolution))
    f = NonlinearitySpec(a, b)
    integ = WaveIntegrator(op, f, dt)
    assert integ.dense == ((domain, resolution, dt) in DENSE_MESHES)
    K, M = (sp.csr_matrix(A).toarray() for A in (op.K, op.M))
    th = 0.5 + dynamics.THETA_SHIFT * dt
    S = (1.0 + dt * th) * M + (dt * th) ** 2 * K
    R = np.hstack([-dt * K, (1.0 - dt * (1.0 - th)) * M - dt**2 * th * (1.0 - th) * K, -dt * M])
    rng = np.random.default_rng(61)
    block = np.column_stack([random_state(op, rng, radius=2.0) for _ in range(3)])
    for z in (block[:, 0], block):
        u, v = z[: op.n], z[op.n :]
        v_new = np.linalg.solve(S, R @ np.concatenate([u, v, f.f(u + dt / 2 * v)]))
        want = np.concatenate([u + dt * (th * v_new + (1.0 - th) * v), v_new])
        assert _rel_err(integ.step(z), want) <= 1e-12


@pytest.mark.parametrize("domain, resolution, dt", DENSE_MESHES)
def test_dense_step_same_bits_for_same_block_shape(domain, resolution, dt):
    # the dense product's contract: one block shape always gives the same
    # bits (a fresh integrator included), and each column of a block stays
    # within rounding of the state stepped alone
    op = identity_operator(Mesh(domain, resolution))
    f = default_nonlinearity()
    integ = WaveIntegrator(op, f, dt)
    assert integ.dense
    rng = np.random.default_rng(47)
    singles = [random_state(op, rng, radius=2.0) for _ in range(3)]

    def run(integ, state):
        for _ in range(300):
            state = integ.step(state)
        return state

    alone = [run(integ, s) for s in singles]
    for start in (singles[0], np.column_stack(singles[:1]), np.column_stack(singles)):
        got = run(integ, start)
        for again in (run(integ, start.copy()), run(WaveIntegrator(op, f, dt), start)):
            assert np.array_equal(got, again)
        cols = [got] if got.ndim == 1 else list(got.T)
        for col, want in zip(cols, alone):
            assert _rel_err(col, want) <= 1e-12


def test_kernel_picked_by_dimension():
    # n = DENSE_MAX_DIM steps with the dense product, one node more with
    # the sparse kernel; 1D meshes have n = resolution - 1 interior nodes
    for n, dense in ((operators.DENSE_MAX_DIM, True), (operators.DENSE_MAX_DIM + 1, False)):
        op = identity_operator(Mesh(UNIT, n + 1))
        assert op.n == n
        integ = WaveIntegrator(op, default_nonlinearity(), dynamics.stability_cap(op))
        assert integ.dense is dense
        assert hasattr(integ, "_G") is dense and hasattr(integ, "_solve_S") is not dense


# prints what a dense operator of 144 unknowns (resolution 13, near the cap)
# factors and precomputes: the step operator G, an M solve of a block as
# wide as a stability flow table, and lambda1 (from K solves)
_DENSE_BITS_SCRIPT = """
import hashlib
import numpy as np
from ghwave.domains import ReferenceDomain
from ghwave.dynamics import WaveIntegrator
from ghwave.operators import Mesh, default_nonlinearity, identity_operator
op = identity_operator(Mesh(ReferenceDomain("rectangle", ((0.0, 1.0), (0.0, 1.0))), 13))
integ = WaveIntegrator(op, default_nonlinearity(), 0.01)
print(op.n, integ.dense)
block = np.random.default_rng(59).standard_normal((op.n, 1056))
for a in (integ._G, op.solve_M(block), np.float64(op.lambda1)):
    print(hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest())
"""


def test_dense_operator_bits_do_not_depend_on_blas_threads():
    # LAPACK's LU and blocked Cholesky give other bits at 2 OpenBLAS threads
    # than at 1 on these sizes; the determinism contract needs the same bits
    src = str(Path(dynamics.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", _DENSE_BITS_SCRIPT], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.splitlines())
    assert outputs[0][0] == "144 True"
    assert len(outputs[0]) == 4 and outputs[0] == outputs[1]


def test_advance_without_steps_returns_a_copy():
    op = identity_operator(Mesh(UNIT, 16))
    integ = WaveIntegrator(op, default_nonlinearity(), 0.01)
    s = random_state(op, np.random.default_rng(3), radius=1.0)
    s0 = s.copy()
    out = _advance(integ, s, 0)
    assert not np.shares_memory(out, s)
    assert np.array_equal(out, s0)
    out[:] = 9.0
    assert np.array_equal(s, s0)
    # with steps, the start state is read and left as it was, and so is a
    # block's by one step
    assert not np.shares_memory(_advance(integ, s, 5), s)
    assert np.array_equal(s, s0)
    block = np.column_stack([s, s])
    assert not np.shares_memory(integ.step(block), block)
    assert np.array_equal(block, np.column_stack([s0, s0]))


@pytest.mark.parametrize("domain, resolution, dt", DENSE_MESHES + SPARSE_MESHES)
@pytest.mark.parametrize("k", [None, 1, 3, 8])
def test_step_loop_matches_chained_steps(domain, resolution, dt, k):
    # a record on whole steps runs the step loop once, through its
    # alternating buffers; every state must be the bits of chained steps
    op = identity_operator(Mesh(domain, resolution))
    integ = WaveIntegrator(op, default_nonlinearity(), dt)
    rng = np.random.default_rng(53)
    singles = [random_state(op, rng, radius=2.0) for _ in range(k or 1)]
    start = singles[0] if k is None else np.column_stack(singles)
    chained = [start]
    for _ in range(40):
        chained.append(integ.step(chained[-1]))
    for n_steps in (0, 1, 2, 3, 40):
        assert np.array_equal(_advance(integ, start, n_steps), chained[n_steps])
    rec = integ.record(start, np.arange(41))
    assert rec.shape == start.shape + (41,)
    for j, want in enumerate(chained):
        assert np.array_equal(rec[..., j], want)
    # the loop steps a C-order copy, so a block in Fortran order gets the same
    # bits (BLAS takes another path for it at 8 columns)
    fortran = np.asfortranarray(start)
    assert np.array_equal(integ.step(fortran), chained[1])
    assert np.array_equal(_advance(integ, fortran, 40), chained[40])


_CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("kernel", ["dense", "sparse"])
@pytest.mark.parametrize("config, k", [("estimates_1d.cfg", 2), ("shear_2d.cfg", 4)])
def test_record_of_a_stack_matches_each_block_alone(config, k, kernel):
    # a stack (B, 2 dim, k) is B blocks stepped in one run: the dense product
    # broadcasts G over the stack, one product per block, and the sparse
    # kernel steps it as one (2 dim, B k) block; either way every block gets
    # the bits its own record gives it, at the Gronwall pairs' 47 x 2 and the
    # shear_2d block's 121 x 4.  The sparse kernel is forced by holding M and
    # K as CSR matrices, as scripts/step_cost.py does
    cfg, diags = load_config(_CONFIGS / config)
    assert not diags
    op = cfg.reference_operator()
    if kernel == "sparse":
        op = dataclasses.replace(op, M=sp.csr_matrix(op.M), K=sp.csr_matrix(op.K))
    integ = WaveIntegrator(op, cfg.make_nonlinearity(), cfg.dt)
    assert integ.dense == (kernel == "dense")
    rng = np.random.default_rng(43)
    stack = np.stack([np.column_stack([random_state(op, rng, radius=1.0) for _ in range(k)]) for _ in range(5)])
    steps = [0, 1, 7, 7, 60]
    rec = integ.record(stack, steps)
    assert rec.shape == stack.shape + (len(steps),) and rec.flags.c_contiguous
    assert np.array_equal(rec, np.stack([integ.record(block, steps) for block in stack]))
    assert np.array_equal(integ.step(stack), np.stack([integ.step(block) for block in stack]))


def test_step_and_record_refuse_a_misshapen_state():
    # a state is (2 dim,), a block (2 dim, k) and a stack (B, 2 dim, k): one
    # entry too many, a block or a stack of u's alone, or one axis too many,
    # is refused with the accepted shapes and its own, not stepped
    op = identity_operator(Mesh(UNIT, 16))
    integ = WaveIntegrator(op, default_nonlinearity(), 0.01)
    dim2 = 2 * op.n
    accepted = f"({dim2},), ({dim2}, k) or (B, {dim2}, k)"
    for bad in (np.zeros(dim2 + 1), np.zeros((op.n, 3)), np.zeros((2, op.n, 3)), np.zeros((1, 2, dim2, 1))):
        for run in (integ.step, lambda z: integ.record(z, [0, 5])):
            with pytest.raises(ValueError, match=re.escape(f"{accepted}, got {bad.shape}")):
                run(bad)


def test_blowup_raised_from_step_and_from_record():
    # a = -1e60 multiplies the state by about 1e58 a step: five steps from
    # radius 1 stay finite, and the sixth overflows
    op = identity_operator(Mesh(UNIT, 16))
    s = calibration_state(op, radius=1.0)
    integ = WaveIntegrator(op, NonlinearitySpec(-1e60, 0.0), 0.01)
    cur = s
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(5):
            cur = integ.step(cur)
        assert np.isfinite(cur).all()
        with pytest.raises(BlowupError, match="^non-finite state after step$"):
            integ.step(cur)
        with pytest.raises(BlowupError, match=r"^blow-up while evolving over \[0, 0\.0\d+\]$") as exc:
            integ.record(s, np.arange(8))
    assert str(exc.value.__cause__) == "non-finite state after step"


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("resolution, dt", [(16, 0.01), (256, 0.0005)], ids=["dense", "sparse"])
def test_blowup_of_one_block_column_mid_run(resolution, dt, bad):
    # one entry of column 1 of a block of three turns non-finite after step
    # 49 of 400: the step loop checks only its last state, so it steps on to
    # the end, where that column is still non-finite and the other two hold
    # the bits of the same run without the bad entry (both kernels treat
    # the columns of a product independently)
    op = identity_operator(Mesh(UNIT, resolution))
    integ = WaveIntegrator(op, default_nonlinearity(), dt)
    block = np.column_stack([calibration_state(op, radius=1.0)] * 3)
    healthy = _advance(integ, block, 49)  # no error
    assert np.isfinite(healthy).all()
    sick = healthy.copy()
    sick[op.n + 3, 1] = bad
    want = integ._steps(healthy, [351])
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(BlowupError, match=re.escape(f"blow-up while evolving over [0, {351 * dt}]")) as exc:
            _advance(integ, sick, 351)
        assert str(exc.value.__cause__) == "non-finite state after step"
        with pytest.raises(BlowupError, match="^blow-up while evolving over") as exc:
            integ.record(sick, np.arange(0, 352, 50))
        assert str(exc.value.__cause__) == "non-finite state after step"
        out = np.empty((1,) + block.shape)
        with pytest.raises(BlowupError, match="^non-finite state after step$"):
            integ._steps(sick, [351], out)
    # every step ran: the kept last state is the healthy run's in columns 0 and 2
    assert not np.isfinite(out[0][: op.n, 1]).any()
    assert np.array_equal(out[0][:, [0, 2]], want[:, [0, 2]])


def test_sampler_raises_blowup():
    # an anti-restoring f drives every IC off to infinity; the sampler
    # runs the step loop directly and passes its error on as it is
    op = identity_operator(Mesh(UNIT, 16))
    cfg = dataclasses.replace(_FAST, radius=40.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowupError, match="^non-finite state after step$"):
            sample_attractor(WaveIntegrator(op, _ANTI, _DT), cfg, seed=1)


def test_energy_nonincreasing_per_step_without_forcing():
    # the theta update is dissipative step by step for the quadratic energy
    # ||u||_1^2 + ||v||_0^2 when f vanishes, including on pulled-back operators
    mesh = Mesh(UNIT, 24)
    for op in (identity_operator(mesh), pullback_operator(mesh, bump_map_1d(UNIT, 0.05))):
        pack = NormPack(op)
        integ = WaveIntegrator(op, _zero_f(), 0.005)
        rng = np.random.default_rng(17)
        s = rng.standard_normal(2 * op.n)
        e_prev = x_norm(s, pack, 0) ** 2
        for _ in range(300):
            s = integ.step(s)
            e = x_norm(s, pack, 0) ** 2
            assert e <= e_prev * (1 + 1e-13)
            e_prev = e


def test_blowup_detected_for_antirestoring_force():
    op = identity_operator(Mesh(UNIT, 16))
    s = calibration_state(op, radius=40.0)
    integ = WaveIntegrator(op, _ANTI, 0.01)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowupError):
            for _ in range(500):
                s = integ.step(s)


def test_envelope_fit_on_fundamental_mode():
    op = identity_operator(Mesh(UNIT, 48))
    f = default_nonlinearity()
    prof = energy_profile(*solve_trajectory(calibration_state(op, 1.0), 12.0, WaveIntegrator(op, f, 0.004), record_every=5), op, f)
    assert prof.c == pytest.approx(1.0, abs=0.02)
    assert prof.overshoot < 5e-3
    assert prof.b > 0


@settings(max_examples=60, deadline=None)
@given(
    b=st.floats(0.1, 10.0),
    c=st.floats(0.05, 3.0),
    horizon=st.floats(3.0, 40.0),
    n=st.integers(20, 400),
)
def test_envelope_fit_is_exact_on_a_pure_exponential(b, c, horizon, n):
    t = np.linspace(0.0, horizon, n)
    fit_b, fit_c = _fit_envelope(t, b * np.exp(-c * t))
    assert fit_b == pytest.approx(b, rel=1e-12)
    assert fit_c == pytest.approx(c, rel=1e-12)


def test_envelope_fit_settling_series_uses_the_tail():
    # the bistable f = -0.5 u - sin u settles at a nonzero E2, with fewer
    # than 4 detrended crests, so every point of the tail is fitted; the
    # line through them does not fall, so the series is not called decaying
    cfg, _ = load_config(Path(__file__).resolve().parents[1] / "configs" / "stability_1d.cfg")
    op = cfg.reference_operator()
    f = NonlinearitySpec(-0.5, -1.0)
    times, states = solve_trajectory(calibration_state(op, 1.0), 24.0, WaveIntegrator(op, f, cfg.dt), record_every=5)
    e2 = _e2(states, NormPack(op), f)
    tp, _ = _envelope_points(times, e2)
    assert np.array_equal(tp, times[times >= 0.4 * times[-1]])
    assert _fit_envelope(times, e2)[1] <= 0.0


def test_envelope_fit_of_a_series_with_no_decay():
    # `run_estimate_checks` calls an envelope decaying only when its rate
    # c > 0, so a constant with ripple and a slowly growing series, whose
    # crests do not fall, must get c <= 0
    t = np.linspace(0.0, 24.0, 600)
    ripple = 1 + 0.02 * np.sin(3.0 * t)
    assert _fit_envelope(t, 8.0 * ripple)[1] <= 0.0
    assert _fit_envelope(t, 8.0 * (1 + 0.001 * t) * ripple)[1] <= 0.0


def test_envelope_fit_of_a_zero_series():
    assert _fit_envelope(np.linspace(0.0, 10.0, 50), np.zeros(50)) == (0.0, 1.0)


def test_lipschitz_constant_formula():
    # l = |a| + |b| bounds |f'| = |a + b cos u| whatever the signs, and is
    # its maximum: a + b cos u reaches a + b at cos u = 1 and a - b at -1
    op = identity_operator(Mesh(UNIT, 24))
    u = np.linspace(-7.0, 7.0, 2801)
    for a, b in ((1.0, 0.5), (-1.0, 0.5), (-1.0, -0.5), (0.5, -1.0)):
        f = NonlinearitySpec(a, b)
        assert f.l == 1.5
        assert gronwall_rate(f, op) == 1.5 / (2 * op.lambda1) + 0.5
        slopes = np.abs(np.diff(f.f(u)) / np.diff(u))
        assert slopes.max() <= f.l and slopes.max() > f.l - 1e-4


def _pair_ratio(s0, s1, t_final, integ):
    """The Gronwall ratio of one pair, stepped as a stack of one."""
    return lipschitz_envelope_check(pair_separations(np.column_stack([s0, s1])[None], t_final, integ)[0], integ)


def test_gronwall_ratio_linear_case_below_one():
    op = identity_operator(Mesh(UNIT, 24))
    rng = np.random.default_rng(23)
    s0 = random_state(op, rng, radius=1.0)
    s1 = random_state(op, rng, radius=1.0)
    # the restoring f = 1.5 u, whose bound is l = 1.5: the envelope's rate C
    # exceeds the linear system's, so the ratio falls below 1 from the first
    # step on (time 0, where it is 1 by construction, is not in the maximum)
    linear = NonlinearitySpec(1.5, 0.0)
    assert _pair_ratio(s0, s1, 1.5, WaveIntegrator(op, linear, 0.005)) < 1.0


def test_gronwall_ratio_default_nonlinearity():
    op = identity_operator(Mesh(UNIT, 24))
    f = default_nonlinearity()
    rng = np.random.default_rng(29)
    s0 = random_state(op, rng, radius=1.0)
    s1 = random_state(op, rng, radius=1.0)
    assert _pair_ratio(s0, s1, 2.0, WaveIntegrator(op, f, 0.005)) <= 1.05


def test_gronwall_rejects_identical_start():
    op = identity_operator(Mesh(UNIT, 16))
    s = calibration_state(op, 1.0)
    with pytest.raises(ValueError, match="initial states coincide"):
        _pair_ratio(s, s.copy(), 1.0, WaveIntegrator(op, default_nonlinearity(), 0.01))


def test_gronwall_rejects_horizon_below_one_step():
    # the ratio's maximum runs over t >= dt, so a horizon with no step has
    # none: the pairs are not stepped, and a series of time 0 alone is refused
    op = identity_operator(Mesh(UNIT, 16))
    rng = np.random.default_rng(31)
    s0, s1 = random_state(op, rng, radius=1.0), random_state(op, rng, radius=1.0)
    integ = WaveIntegrator(op, default_nonlinearity(), 0.01)
    with pytest.raises(ValueError, match="shorter than one step"):
        pair_separations(np.column_stack([s0, s1])[None], 0.004, integ)
    with pytest.raises(ValueError, match="shorter than one step"):
        lipschitz_envelope_check(np.array([x_norm(s0 - s1, NormPack(op), 0)]), integ)
    assert _pair_ratio(s0, s1, 0.01, integ) < 1.0


def test_gronwall_shared_integrator_matches_fresh_ones():
    # a study passes one integrator to all its pairs; each pair's ratio must
    # be the bits a fresh integrator gives it
    op = identity_operator(Mesh(UNIT, 24))
    f = default_nonlinearity()
    shared = WaveIntegrator(op, f, 0.005)
    rng = np.random.default_rng(37)
    for _ in range(4):
        s0, s1 = random_state(op, rng, radius=1.0), random_state(op, rng, radius=1.0)
        got = _pair_ratio(s0, s1, 1.0, shared)
        assert got == _pair_ratio(s0, s1, 1.0, WaveIntegrator(op, f, 0.005))


@pytest.mark.parametrize("resolution, dt", [(24, 0.005), (256, 0.0005)], ids=["dense", "sparse"])
@pytest.mark.parametrize("n_pairs", [1, 3, 7, 20])
def test_pair_separations_match_each_pair_recorded_alone(resolution, dt, n_pairs):
    # the stack steps in chunks of max(1, steps // B) steps (200 steps: one
    # chunk of 200, chunks of 66 and a last one of 2, of 28 and 4, of 10), and
    # each row holds the bits of its pair's whole trajectory recorded alone as
    # a (2 dim, 2) block, its separation the x_norm of the difference block:
    # a pair's bits do not depend on how many pairs share its stack
    op = identity_operator(Mesh(UNIT, resolution))
    integ = WaveIntegrator(op, default_nonlinearity(), dt)
    pack = NormPack(op)
    rng = np.random.default_rng(41)
    pairs = np.stack([np.column_stack([random_state(op, rng, radius=1.0) for _ in range(2)]) for _ in range(n_pairs)])
    sep = pair_separations(pairs, 200 * dt, integ)
    assert sep.shape == (n_pairs, 201)
    for row, pair in zip(sep, pairs):
        rec = integ.record(pair, np.arange(201))
        assert np.array_equal(row, x_norm(rec[:, 0] - rec[:, 1], pack, 0))
        assert row[0] == x_norm(pair[:, 0] - pair[:, 1], pack, 0)


def test_pair_separations_refuse_what_is_not_a_stack_of_pairs():
    op = identity_operator(Mesh(UNIT, 16))
    integ = WaveIntegrator(op, default_nonlinearity(), 0.01)
    for bad in (np.zeros((2 * op.n, 2)), np.zeros((3, 2 * op.n, 3)), np.zeros((3, op.n, 2)), np.zeros((0, 2 * op.n, 2))):
        with pytest.raises(ValueError, match=re.escape(f"(B, {2 * op.n}, 2), B >= 1, got {bad.shape}")):
            pair_separations(bad, 1.0, integ)


# --- attractor sampling -------------------------------------------------------

_FAST = SamplerConfig(
    n_ics=2,
    radius=1.0,
    t_transient=1.0,
    t_window=1.0,
    stride=50,
    max_points=8,
    flow_grid_m=3,
    n_modes=4,
)
_DT = 0.01  # the step the fast sampler configs are sampled with


def test_sampler_deterministic_for_fixed_seed():
    op = identity_operator(Mesh(UNIT, 16))
    integ = WaveIntegrator(op, default_nonlinearity(), _DT)
    a = sample_attractor(integ, _FAST, seed=99)
    b = sample_attractor(integ, _FAST, seed=99)
    assert np.array_equal(a, b)
    assert np.array_equal(x0_dist(a[:, 0], op), x0_dist(b[:, 0], op))


def test_sampler_seed_changes_sample():
    integ = WaveIntegrator(identity_operator(Mesh(UNIT, 16)), default_nonlinearity(), _DT)
    a = sample_attractor(integ, _FAST, seed=99)
    b = sample_attractor(integ, _FAST, seed=100)
    assert not np.array_equal(a, b)


def test_sampler_linear_attractor_is_origin():
    # with f linear the only invariant set is 0: a late window samples points
    # whose norms and pairwise distances sit at the decay floor
    cfg = SamplerConfig(
        n_ics=2,
        radius=0.5,
        t_transient=20.0,
        t_window=1.0,
        stride=25,
        max_points=12,
        flow_grid_m=2,
        n_modes=3,
    )
    op = identity_operator(Mesh(UNIT, 16))
    sample = sample_attractor(WaveIntegrator(op, _linear_f(), _DT), cfg, seed=4)[:, 0]
    pack = NormPack(op)
    worst = max(x_norm(s, pack, 0) for s in sample)
    assert worst < 1e-3
    assert x0_dist(sample, op).max() < 2e-3


@pytest.mark.parametrize("config, n, q", [("stability_1d.cfg", 96, 11), ("shear_2d.cfg", 16, 5)])
def test_x0_sqdist_blocks_match_one_full_gram(config, n, q):
    # two flow tables of the shipped sample size on the shipped 1D and 2D
    # meshes, read one time slice at a time: every block a study asks for
    # holds the bits of one Gram over all states of both tables' slices,
    # concatenated (a sample's own states, and the two tables' states at one
    # flow time)
    cfg, diags = load_config(Path(__file__).resolve().parents[1] / "configs" / config)
    assert not diags
    op = cfg.reference_operator()
    rng = np.random.default_rng(11)
    fa, fb = rng.standard_normal((2, n, q, 2 * op.n))
    full = _full_sqdist(np.concatenate([fa[:, j] for j in range(q)] + [fb[:, j] for j in range(q)]), op)
    a = n * q
    for j in range(q):
        xs, ys = slice(j * n, (j + 1) * n), slice(a + j * n, a + (j + 1) * n)
        assert np.array_equal(x0_sqdist(fa[:, j], fa[:, j], op), full[xs, xs])
        assert np.array_equal(x0_sqdist(fa[:, j], fb[:, j], op), full[xs, ys])
        assert np.array_equal(x0_sqdist(fb[:, j], fa[:, j], op), full[ys, xs])
    # at any size the blocks agree with it to rounding
    small = full[:7, :7]
    np.testing.assert_allclose(x0_sqdist(fa[:7, 0], fa[:7, 0], op), small, rtol=0, atol=1e-12 * small.max())


def _full_sqdist(states, op):
    """Squared X^0 distances between all rows of `states` (n, 2 dim) from one
    n x n Gram G = U K U^T + V M V^T: d^2(i, j) = (G_ii + G_jj) - 2 G_ij,
    clipped at 0."""
    U, V = states[:, : op.n], states[:, op.n :]
    G = U @ (op.K @ U.T)
    G += V @ (op.M @ V.T)
    dg = np.diag(G).copy()
    G *= 2.0
    d2 = dg[:, None] + dg[None, :]
    d2 -= G
    return np.maximum(d2, 0.0, out=d2)


def _lags(cfg, dt):
    """The steps from a snapshot to each of its flow images: j / (m dt) rounded."""
    return [round(j / (cfg.flow_grid_m * dt)) for j in range(cfg.flow_grid_m + 1)]


def _flow_end(cfg, dt):
    """The step of the last snapshot's last flow image."""
    window_start = round(cfg.t_transient / dt)
    last_snap = window_start + round(cfg.t_window / dt) // cfg.stride * cfg.stride
    return last_snap + _lags(cfg, dt)[-1]


def _sampler_ics(op, cfg, seed):
    """The (2 dim, n_ics) block of `sample_attractor`'s ICs at this seed."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5A17]))
    return np.column_stack([random_state(op, rng, cfg.radius, cfg.n_modes) for _ in range(cfg.n_ics)])


def _sample_per_step(integ, cfg, seed):
    """The flow table (n, m+1, 2 dim) of `sample_attractor`'s ICs, stepped
    one step per run of `integ`'s step loop on the same (2 dim, n_ics)
    block: the sampler must reproduce it bit for bit."""
    op, dt = integ.op, integ.dt
    z = _sampler_ics(op, cfg, seed)
    window_start = round(cfg.t_transient / dt)
    snaps = [window_start + cfg.stride * i for i in range(cfg.pool_size(dt) // cfg.n_ics)]
    wanted = {s + lag for s in snaps for lag in _lags(cfg, dt)}
    kept = {0: z}
    for k in range(1, _flow_end(cfg, dt) + 1):
        z = integ._steps(z, [1])  # each run returns a buffer of its own
        if k in wanted:
            kept[k] = z
    flow = np.array([[kept[s + lag] for lag in _lags(cfg, dt)] for s in snaps])  # (n_snaps, m+1, 2 dim, n_ics)
    return flow.transpose(3, 0, 1, 2).reshape(-1, cfg.flow_grid_m + 1, 2 * op.n)


def _count_steps(monkeypatch):
    """A list of the step count of every later run of the step loop."""
    runs, real = [], WaveIntegrator._steps

    def steps(self, z, marks, out=None):
        runs.append(marks[-1])
        return real(self, z, marks, out)

    monkeypatch.setattr(WaveIntegrator, "_steps", steps)
    return runs


def _shipped_stability():
    cfg, diags = load_config(Path(__file__).resolve().parents[1] / "configs" / "stability_1d.cfg")
    assert not diags
    return WaveIntegrator(cfg.reference_operator(), cfg.make_nonlinearity(), cfg.dt), cfg.sampler, cfg.seed


def _fast(domain, resolution, **changes):
    integ = WaveIntegrator(identity_operator(Mesh(domain, resolution)), default_nonlinearity(), _DT)
    return integ, dataclasses.replace(_FAST, **changes), 5


def _three_ics(domain, resolution, **changes):
    return _fast(domain, resolution, **{"n_ics": 3, "max_points": 9, **changes})


@pytest.mark.parametrize(
    "case",
    [
        # a snapshot's last flow image is the next snapshot: one due step, two slots
        _shipped_stability,
        lambda: _fast(_SQUARE, 6, flow_grid_m=2),
        # m dt = 0.03 s: the images lie 33, 67 and 100 steps on
        lambda: _fast(UNIT, 16),
        # a 100-step flow span over a 30-step stride: snapshot 0's last image
        # is due after snapshot 1's first two
        lambda: _fast(UNIT, 16, stride=30),
        # a window shorter than one step holds one snapshot, at step 1000
        lambda: _three_ics(UNIT, 16, t_transient=10.0, t_window=0.004, max_points=3),
        # windows that start at step 30, 49 and 50
        *(lambda s=s: _three_ics(UNIT, 16, t_transient=s * _DT) for s in (30, 49, 50)),
    ],
    ids=[
        "stability-shipped",
        "2d",
        "off-lattice",
        "span-past-stride",
        "window-below-one-step",
        "t_transient-30",
        "t_transient-49",
        "t_transient-50",
    ],
)
def test_sampler_matches_per_step_reference(case, monkeypatch):
    # the sampler steps its ICs through every due flow step in one run of
    # the step loop: its table holds the per-step bits, from exactly the
    # steps to the last flow image, and it evaluates no E2
    integ, cfg, seed = case()
    op, dt = integ.op, integ.dt
    want = _sample_per_step(integ, cfg, seed)
    dist = np.sqrt(_full_sqdist(want[:, 0], op))
    dist = 0.5 * (dist + dist.T)
    np.fill_diagonal(dist, 0.0)
    runs = _count_steps(monkeypatch)
    e2_calls = []
    monkeypatch.setattr(dynamics, "_e2", lambda *args: e2_calls.append(args) or _e2(*args))
    table = sample_attractor(integ, cfg, seed)
    assert np.array_equal(table, want)
    assert runs == [_flow_end(cfg, dt)]
    # the states alone stop at the last snapshot, with the same bits
    runs.clear()
    states = sample_attractor(integ, cfg, seed, states_only=True)
    assert np.array_equal(states, want[:, 0])
    assert np.array_equal(x0_dist(states, op), dist)
    assert runs == [_flow_end(cfg, dt) - _lags(cfg, dt)[-1]]
    assert e2_calls == []


def _settling_steps(integ, cfg, seed, floor=1e-12, tol=1e-4, window=50, last=5000):
    """The step each IC's energy settles at, by the test the sampler once
    stepped on for: the first step k with k dt >= t_transient that ends
    `window` consecutive steps whose slope |dE2/dt| is below tol E2 + floor
    (-1 if none by step `last`).  Steps the sampler's ICs as one block, one
    step and one E2 evaluation at a time."""
    op, f, dt = integ.op, integ.f, integ.dt
    pack = NormPack(op)
    z = _sampler_ics(op, cfg, seed)
    e_prev = _e2(z, pack, f)
    consec = np.zeros(cfg.n_ics, dtype=np.intp)
    settled = np.full(cfg.n_ics, -1)
    for k in range(1, last + 1):
        z = integ._steps(z, [1])
        e_now = _e2(z, pack, f)
        consec = np.where(np.abs(e_now - e_prev) / dt < tol * e_now + floor, consec + 1, 0)
        e_prev = e_now
        if k * dt >= cfg.t_transient:
            settled[(consec >= window) & (settled < 0)] = k
        if (settled >= 0).all():
            break
    return settled


def _check_sampler(integ, cfg, seed, monkeypatch):
    """`sample_attractor`'s table against the per-step reference, bit for
    bit, from one run of `_flow_end` steps and without one E2 evaluation."""
    want = _sample_per_step(integ, cfg, seed)
    runs = _count_steps(monkeypatch)
    e2_calls = []
    monkeypatch.setattr(dynamics, "_e2", lambda *args: e2_calls.append(args) or _e2(*args))
    assert np.array_equal(sample_attractor(integ, cfg, seed), want)
    assert runs == [_flow_end(cfg, integ.dt)]
    assert e2_calls == []


def _parsed_sampler(cfg, **retired):
    """The sampler config parsed from a file that steps with `_DT` and sets
    every field of `cfg` and the retired keys `retired`."""
    keys = {**dataclasses.asdict(cfg), **retired}
    text = f"[solver]\ndt = {_DT}\n[sampler]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) + "[run]\nseed = 1\n"
    parsed, diags = parse_config(text)
    assert diags == []
    return parsed.sampler


_SETTLE = dataclasses.replace(_FAST, n_ics=3, max_points=9)


@pytest.mark.parametrize(
    "domain, resolution, changes, settles",
    [
        # a coarse floor settles every IC's energy long before a 10 s window
        # ends, the default floor only well past the last flow image: the
        # sampler stops at that image either way
        (UNIT, 16, dict(t_window=10.0, stride=1000), (1e-3, "before window end")),
        (UNIT, 16, {}, (1e-12, "after flow end")),
        (UNIT, 16, dict(t_window=2.0, max_points=15), None),
        (UNIT, 16, dict(t_window=5.0, max_points=33), None),
        (UNIT, 16, dict(n_ics=1, max_points=3), None),
        (_SQUARE, 6, dict(n_ics=2, max_points=6), None),
    ],
    ids=["plateau-before-window-end", "plateau-after-window-end", "window-2", "window-5", "one-ic", "2d"],
)
def test_chunked_settling_matches_per_step_loop(domain, resolution, changes, settles, monkeypatch):
    # the sampler steps its ICs through the transient and the window in one
    # run of the step loop: its table holds the per-step bits,
    # and when each IC's energy settles moves neither them nor the stop
    integ = WaveIntegrator(identity_operator(Mesh(domain, resolution)), default_nonlinearity(), _DT)
    cfg = dataclasses.replace(_SETTLE, **changes)
    if settles is not None:
        floor, where = settles
        settled = _settling_steps(integ, cfg, 5, floor=floor)
        assert (settled >= 0).all()
        if where == "before window end":
            assert settled.max() < round(cfg.t_transient / _DT) + round(cfg.t_window / _DT)
        else:
            assert settled.min() > _flow_end(cfg, _DT) + 10 * 50
    _check_sampler(integ, cfg, 5, monkeypatch)


@pytest.mark.parametrize("t_cap", [8.0, 11.5], ids=["cap-in-window", "cap-in-flow-span"])
def test_settling_cap_past_every_plateau_stops_at_the_flow_end(t_cap, monkeypatch):
    # a coarse floor settles the ICs' energy at steps 794, 652 and 749, the
    # window ends at step 1100 and its last flow image lies at step 1200; a
    # file that still sets that floor and a t_cap at step 800 or 1150, both
    # retired keys, parses to the same sampler, which stops at the flow end
    integ = WaveIntegrator(identity_operator(Mesh(UNIT, 16)), default_nonlinearity(), _DT)
    cfg = dataclasses.replace(_SETTLE, t_window=10.0, stride=1000)
    assert _parsed_sampler(cfg, plateau_floor=1e-3, t_cap=t_cap) == cfg
    assert list(_settling_steps(integ, cfg, 5, floor=1e-3)) == [794, 652, 749]
    assert round(t_cap / _DT) < _flow_end(cfg, _DT) == 1200
    _check_sampler(integ, cfg, 5, monkeypatch)


@pytest.mark.parametrize(
    "changes",
    [
        dict(plateau_window=0),
        dict(plateau_window=1),
        dict(plateau_tol=0.0),
        dict(plateau_tol=float("nan")),
        dict(plateau_floor=-1e-12),
        dict(t_cap=0.0),
        dict(t_cap=-5.0),
    ],
)
def test_sampler_config_rejects_disabled_settling_test(changes):
    # the settling test is gone, not disabled: SamplerConfig takes none of
    # its knobs, and a file's retired key, even at a value that once
    # switched the test off, is dropped unread
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        dataclasses.replace(_FAST, **changes)
    assert _parsed_sampler(_FAST, **changes) == _FAST


def test_stability_sample_flow_images_chain_into_the_next_snapshot():
    # on stability_1d.cfg a snapshot's flow span, 1 s, is the stride: each
    # snapshot's last flow image is the same step of the same IC as its next
    # snapshot, bit for bit
    cfg, diags = load_config(Path(__file__).resolve().parents[1] / "configs" / "stability_1d.cfg")
    assert not diags
    sampler = cfg.sampler
    assert round(1 / cfg.dt) == sampler.stride
    table = sample_attractor(WaveIntegrator(cfg.reference_operator(), cfg.make_nonlinearity(), cfg.dt), sampler, cfg.seed)
    per_ic = table.reshape(sampler.n_ics, -1, *table.shape[1:])  # (n_ics, n_snaps, m+1, 2 dim)
    assert per_ic.shape[1] == 12
    assert np.array_equal(per_ic[:, :-1, -1], per_ic[:, 1:, 0])


def test_sampler_rejects_pool_above_max_points():
    # two ICs x three snapshots: one point over the bound, refused before stepping
    op = identity_operator(Mesh(UNIT, 16))
    integ = WaveIntegrator(op, default_nonlinearity(), _DT)
    small = dataclasses.replace(_FAST, max_points=5)
    with pytest.raises(ValueError, match="6 points exceeds max_points = 5"):
        sample_attractor(integ, small, seed=1)
    assert sample_attractor(integ, _FAST, seed=1).shape == (6, _FAST.flow_grid_m + 1, 2 * op.n)


# --- conjugated flows ----------------------------------------------------------

_CONJ_STEPS = [20, 40, 60, 80, 100]  # t = 0.1, ..., 0.5 at dt = 0.005


def _pullback_flow(op0, h, f, dt=0.005):
    """The integrator of the flow T_n on the pullback of op0 by h."""
    return WaveIntegrator(pullback_operator(op0.mesh, h), f, dt)


def test_conjugated_error_zero_for_identical_maps():
    # h_n = identity: both flows run on the reference operator
    op0 = identity_operator(Mesh(UNIT, 24))
    f = default_nonlinearity()
    v0 = calibration_state(op0, 1.0)
    integ_0 = WaveIntegrator(op0, f, 0.005)
    flow_0 = integ_0.record(v0, _CONJ_STEPS)
    errs = conjugated_flow_error(integ_0, flow_0, _pullback_flow(op0, identity_map(UNIT), f), v0, _CONJ_STEPS)
    assert errs.shape == (5,)
    assert errs.max() == 0.0


def test_conjugated_error_shrinks_with_amplitude():
    # one reference flow, recorded once, serves every amplitude
    f = default_nonlinearity()
    op0 = identity_operator(Mesh(UNIT, 24))
    v0 = calibration_state(op0, 1.0)
    integ_0 = WaveIntegrator(op0, f, 0.005)
    flow_0 = integ_0.record(v0, _CONJ_STEPS)
    errs = []
    for amp in (0.04, 0.02, 0.01):
        integ_n = _pullback_flow(op0, bump_map_1d(UNIT, amp), f)
        errs.append(conjugated_flow_error(integ_0, flow_0, integ_n, v0, _CONJ_STEPS).max())
    assert errs[0] > errs[1] > errs[2]


def test_conjugated_error_requires_increasing_grid():
    # a grid of times, or one that goes back, is refused, and so are two
    # flows whose step counts would be different times
    op = identity_operator(Mesh(UNIT, 16))
    f = default_nonlinearity()
    v0 = calibration_state(op, 1.0)
    integ_0, integ_n = WaveIntegrator(op, f, 0.01), _pullback_flow(op, bump_map_1d(UNIT, 0.02), f, 0.01)
    flow_0 = integ_0.record(v0, [20, 50])
    for steps in ([50, 20], [0.2, 0.5]):
        with pytest.raises(ValueError, match="whole step counts"):
            conjugated_flow_error(integ_0, flow_0, integ_n, v0, steps)
    with pytest.raises(ValueError, match="not one dt"):
        conjugated_flow_error(integ_0, flow_0, _pullback_flow(op, bump_map_1d(UNIT, 0.02), f, 0.005), v0, [20, 50])


def test_calibration_state_hits_requested_radius():
    op = identity_operator(Mesh(UNIT, 32))
    s = calibration_state(op, radius=1.75)
    pack = NormPack(op)
    assert x_norm(s, pack, 1) == pytest.approx(1.75, rel=1e-12)
    assert np.all(s[op.n :] == 0.0)
