"""Time integration, energy behavior, sampling, and conjugated flows.

Oracle: a single pencil mode with linear f(u) = a u satisfies
alpha'' + alpha' + (lambda + a) alpha = 0, so from rest
alpha(t) = e^{-t/2} (cos(w t) + sin(w t) / (2 w)), w = sqrt(lambda + a - 1/4),
with lambda taken from the frozen modal formula of the discrete pencil.
"""

import dataclasses

import numpy as np
import pytest

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
    NonDissipativeError,
    SamplerConfig,
    StateVector,
    WaveIntegrator,
    _e2,
    calibration_state,
    conjugated_flow_error,
    energy_profile,
    lipschitz_constants,
    lipschitz_envelope_check,
    random_state,
    sample_attractor,
    solve_trajectory,
)

UNIT = ReferenceDomain("interval", ((0.0, 1.0),))


def _zero_f() -> NonlinearitySpec:
    return NonlinearitySpec(f=lambda u: np.zeros_like(u), l=1.0)


def _linear_f() -> NonlinearitySpec:
    return NonlinearitySpec(f=lambda u: 1.0 * u, l=1.0)


def _mode(op, k=1):
    (lo, hi) = op.mesh.domain.bounds[0]
    x = op.mesh.nodes[op.mesh.interior_idx, 0]
    return np.sin(k * np.pi * (x - lo) / (hi - lo))


def _modal_exact(op, k, a, t):
    n = op.mesh.resolution
    h = op.mesh.spacing[0]
    lam = (4 / h**2) * np.tan(k * np.pi / (2 * n)) ** 2
    w = np.sqrt(lam + a - 0.25)
    return np.exp(-t / 2) * (np.cos(w * t) + np.sin(w * t) / (2 * w))


def test_zero_state_is_fixed_point():
    op = identity_operator(Mesh(UNIT, 16))
    f = default_nonlinearity()
    s = StateVector(np.zeros(op.n), np.zeros(op.n))
    out = WaveIntegrator(op, f, 0.01).advance(s, 1.0)
    assert np.all(out.u == 0.0)
    assert np.all(out.v == 0.0)


def test_single_mode_matches_closed_form():
    op = identity_operator(Mesh(UNIT, 32))
    f = _linear_f()
    phi = _mode(op)
    s = StateVector(phi.copy(), np.zeros_like(phi))
    t_final = 2.0
    out = WaveIntegrator(op, f, 5e-4).advance(s, t_final)
    alpha = _modal_exact(op, 1, 1.0, t_final)
    assert np.abs(out.u - alpha * phi).max() < 2e-6


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
        out = WaveIntegrator(op, f, dt).advance(StateVector(phi.copy(), np.zeros_like(phi)), t_final)
        errs.append(np.abs(out.u - alpha * phi).max())
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
    one = integ.advance(s, 0.5)
    two = integ.advance(integ.advance(s, 0.3), 0.2)
    assert np.array_equal(one.u, two.u)
    assert np.array_equal(one.v, two.v)


def test_record_matches_successive_advances():
    # 0.125 is off the dt = 0.01 lattice, so the grid needs partial steps;
    # time 0 records the start state
    op = identity_operator(Mesh(UNIT, 16))
    integ = WaveIntegrator(op, default_nonlinearity(), 0.01)
    rng = np.random.default_rng(13)
    singles = [random_state(op, rng, radius=1.0) for _ in range(3)]
    block = StateVector(np.column_stack([s.u for s in singles]), np.column_stack([s.v for s in singles]))
    times = np.array([0.0, 0.05, 0.125, 0.3])
    for start in (singles[0], block):
        rec = integ.record(start, times)
        assert rec.u.shape == start.u.shape + (4,)
        cur, t_prev = start, 0.0
        for j, t in enumerate(times):
            cur, t_prev = integ.advance(cur, t - t_prev), t
            assert np.array_equal(rec.u[..., j], cur.u)
            assert np.array_equal(rec.v[..., j], cur.v)


@pytest.mark.parametrize(
    "domain, resolution, dt",
    [(UNIT, 24, 0.005), (ReferenceDomain("rectangle", ((0.0, 1.0), (0.0, 1.0))), 12, 0.01)],
)
def test_block_step_matches_single_states(domain, resolution, dt):
    # a (dim, 3) block must evolve column by column exactly like three
    # separate integrations: the sampler and the flow table rely on it
    op = identity_operator(Mesh(domain, resolution))
    integ = WaveIntegrator(op, default_nonlinearity(), dt)
    rng = np.random.default_rng(41)
    singles = [random_state(op, rng, radius=2.0) for _ in range(3)]
    block = StateVector(np.column_stack([s.u for s in singles]), np.column_stack([s.v for s in singles]))
    for _ in range(300):
        block = integ.step(block)
        singles = [integ.step(s) for s in singles]
    for i, s in enumerate(singles):
        assert np.array_equal(block.u[:, i], s.u)
        assert np.array_equal(block.v[:, i], s.v)
    # the norms and E2 of a block must also be those of its columns, bit for
    # bit: the settling test and the energy profile evaluate blocks
    pack = NormPack(op)
    for norm in (pack.norm0, pack.norm1, pack.norm2):
        assert np.array_equal(norm(block.u), [norm(s.u) for s in singles])
    for level in (0, 1):
        assert np.array_equal(x_norm(block.u, block.v, pack, level), [x_norm(s.u, s.v, pack, level) for s in singles])
    f = default_nonlinearity()
    assert np.array_equal(_e2(block, pack, f), [_e2(s, pack, f) for s in singles])
    # E2 forms K u and its M solve once; the bits are those of the norm methods
    acc = -block.v - pack.apply_A(block.u) - f.f(block.u)
    want = pack.norm0(acc) ** 2 + pack.norm1(block.v) ** 2 + pack.norm2(block.u) ** 2
    assert np.array_equal(_e2(block, pack, f), want)


def test_energy_nonincreasing_per_step_without_forcing():
    # the theta update is dissipative step by step for the quadratic energy
    # ||u||_1^2 + ||v||_0^2 when f vanishes, including on pulled-back operators
    mesh = Mesh(UNIT, 24)
    for op in (identity_operator(mesh), pullback_operator(mesh, bump_map_1d(UNIT, 0.05))):
        pack = NormPack(op)
        integ = WaveIntegrator(op, _zero_f(), 0.005)
        rng = np.random.default_rng(17)
        s = StateVector(rng.standard_normal(op.n), rng.standard_normal(op.n))
        e_prev = x_norm(s.u, s.v, pack, 0) ** 2
        for _ in range(300):
            s = integ.step(s)
            e = x_norm(s.u, s.v, pack, 0) ** 2
            assert e <= e_prev * (1 + 1e-13)
            e_prev = e


def test_blowup_detected_for_antirestoring_cubic():
    op = identity_operator(Mesh(UNIT, 16))
    unstable = NonlinearitySpec(f=lambda u: -(u**3), l=1.0)
    s = calibration_state(op, radius=40.0)
    integ = WaveIntegrator(op, unstable, 0.01)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowupError):
            for _ in range(500):
                s = integ.step(s)


def test_envelope_fit_on_fundamental_mode():
    op = identity_operator(Mesh(UNIT, 48))
    f = default_nonlinearity()
    traj = solve_trajectory(calibration_state(op, 1.0), 12.0, 0.004, op, f, record_every=5)
    prof = energy_profile(traj, f)
    assert prof.c == pytest.approx(1.0, abs=0.02)
    assert prof.overshoot < 5e-3
    assert prof.b > 0


def test_lipschitz_constant_formula():
    consts = lipschitz_constants(1.5, np.pi**2)
    assert consts.C == pytest.approx(1.5 / (2 * np.pi**2) + 0.5, rel=1e-14)
    assert consts.ell == 1.5


def test_gronwall_ratio_linear_case_below_one():
    op = identity_operator(Mesh(UNIT, 24))
    rng = np.random.default_rng(23)
    s0 = random_state(op, rng, radius=1.0)
    s1 = random_state(op, rng, radius=1.0)
    chk = lipschitz_envelope_check(
        s0, s1, 1.5, 0.005, op, _zero_f(), consts=lipschitz_constants(1.5, op.lambda1)
    )
    assert chk.max_ratio <= 1.0 + 1e-12


def test_gronwall_ratio_default_nonlinearity():
    op = identity_operator(Mesh(UNIT, 24))
    f = default_nonlinearity()
    rng = np.random.default_rng(29)
    s0 = random_state(op, rng, radius=1.0)
    s1 = random_state(op, rng, radius=1.0)
    chk = lipschitz_envelope_check(s0, s1, 2.0, 0.005, op, f)
    assert chk.passed
    assert chk.max_ratio <= 1.05


def test_gronwall_rejects_identical_start():
    op = identity_operator(Mesh(UNIT, 16))
    s = calibration_state(op, 1.0)
    with pytest.raises(ValueError):
        lipschitz_envelope_check(s, s.copy(), 1.0, 0.01, op, default_nonlinearity())


# --- attractor sampling -------------------------------------------------------

_FAST = SamplerConfig(
    n_ics=2,
    radius=1.0,
    t_transient=1.0,
    t_window=1.0,
    stride=50,
    max_points=8,
    dt=0.01,
    flow_grid_m=3,
    n_modes=4,
)


def test_sampler_deterministic_for_fixed_seed():
    op = identity_operator(Mesh(UNIT, 16))
    f = default_nonlinearity()
    a = sample_attractor(op, f, _FAST, seed=99)
    b = sample_attractor(op, f, _FAST, seed=99)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.dist, b.dist)
    assert np.array_equal(a.flow, b.flow)
    assert a.eps_inv == b.eps_inv


def test_sampler_seed_changes_sample():
    op = identity_operator(Mesh(UNIT, 16))
    f = default_nonlinearity()
    a = sample_attractor(op, f, _FAST, seed=99)
    b = sample_attractor(op, f, _FAST, seed=100)
    assert not np.array_equal(a.states, b.states)


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
        dt=0.01,
        flow_grid_m=2,
        n_modes=3,
    )
    op = identity_operator(Mesh(UNIT, 16))
    sample = sample_attractor(op, _linear_f(), cfg, seed=4)
    pack = NormPack(op)
    worst = max(x_norm(s[0], s[1], pack, 0) for s in sample.states)
    assert worst < 1e-3
    assert sample.dist.max() < 2e-3


def test_sampler_raises_when_cap_precedes_plateau():
    cfg = SamplerConfig(
        n_ics=1,
        radius=1.0,
        t_transient=1.0,
        t_window=1.0,
        stride=50,
        max_points=8,
        dt=0.01,
        t_cap=3.0,
        flow_grid_m=2,
    )
    op = identity_operator(Mesh(UNIT, 16))
    with pytest.raises(NonDissipativeError):
        sample_attractor(op, default_nonlinearity(), cfg, seed=1)


def test_sampler_flow_invariance_proxy_consistent():
    # eps_inv must equal the worst distance from any flowed state back to the
    # sampled cloud, recomputed here from the stored tables
    op = identity_operator(Mesh(UNIT, 16))
    f = default_nonlinearity()
    sample = sample_attractor(op, f, _FAST, seed=7)
    pack = NormPack(op)
    worst = 0.0
    for i in range(len(sample.states)):
        for j in range(1, sample.flow.shape[1]):
            su, sv = sample.flow[i, j]
            best = min(
                x_norm(su - t[0], sv - t[1], pack, 0) for t in sample.states
            )
            worst = max(worst, best)
    assert sample.eps_inv == pytest.approx(worst, rel=1e-12)


def test_sampler_rejects_pool_above_max_points():
    # two ICs x three snapshots: one point over the bound, refused before stepping
    op = identity_operator(Mesh(UNIT, 16))
    small = dataclasses.replace(_FAST, max_points=5)
    with pytest.raises(ValueError, match="6 points exceeds max_points = 5"):
        sample_attractor(op, default_nonlinearity(), small, seed=1)
    assert sample_attractor(op, default_nonlinearity(), _FAST, seed=1).states.shape[0] == 6


# --- conjugated flows ----------------------------------------------------------

def test_conjugated_error_zero_for_identical_maps():
    # h_n = identity: both flows run on the reference operator
    op0 = identity_operator(Mesh(UNIT, 24))
    f = default_nonlinearity()
    v0 = calibration_state(op0, 1.0)
    t_grid = np.linspace(0.0, 0.5, 6)[1:]
    errs = conjugated_flow_error(identity_map(UNIT), v0, t_grid, op0, f, 0.005)
    assert errs.max() == 0.0


def test_conjugated_error_shrinks_with_amplitude():
    f = default_nonlinearity()
    op0 = identity_operator(Mesh(UNIT, 24))
    v0 = calibration_state(op0, 1.0)
    t_grid = np.linspace(0.0, 0.5, 6)[1:]
    errs = []
    for amp in (0.04, 0.02, 0.01):
        errs.append(conjugated_flow_error(bump_map_1d(UNIT, amp), v0, t_grid, op0, f, 0.005).max())
    assert errs[0] > errs[1] > errs[2]


def test_conjugated_error_requires_increasing_grid():
    op = identity_operator(Mesh(UNIT, 16))
    v0 = calibration_state(op, 1.0)
    with pytest.raises(ValueError):
        conjugated_flow_error(
            identity_map(UNIT),
            v0,
            np.array([0.5, 0.2]),
            op,
            default_nonlinearity(),
            0.01,
        )


def test_calibration_state_hits_requested_radius():
    op = identity_operator(Mesh(UNIT, 32))
    s = calibration_state(op, radius=1.75)
    pack = NormPack(op)
    assert x_norm(s.u, s.v, pack, 1) == pytest.approx(1.75, rel=1e-12)
    assert np.all(s.v == 0.0)
