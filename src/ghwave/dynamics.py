"""Time integration and attractor sampling for the damped wave system.

Semi-discrete form on interior nodes (M, K from `operators`, f applied
nodally):

    u_t = v
    M v_t = -M v - K u - M f(u)

One step treats damping and stiffness by a weighted (theta) rule and
evaluates f at an explicit midpoint predictor: with b = dt*theta the velocity
update solves the SPD system

    [(1+b) M + b^2 K] v+ =
        [1 - dt(1-theta)] M v - dt K u - dt^2 theta(1-theta) K v
        - dt M f(u + (dt/2) v)

followed by u+ = u + dt (theta v+ + (1-theta) v).  theta = 1/2 is the
trapezoidal rule; we use theta = 1/2 + c dt (c fixed) which keeps second
order (the shift contributes O(dt^3) locally) while giving the scheme a
spectral radius (1-theta)/theta < 1 at infinite stiffness.  That matters
here: midpoint quadrature leaves the mesh-zigzag mode nearly massless, and
a plain trapezoid rule would let coefficient coupling park energy in that
mode indefinitely (its multiplier is -1 in the stiff limit).  For f = 0 the
discrete energy satisfies

    E+ - E = -2 dt ||v_theta||_M^2 + (1 - 2 theta) dt^2 ||L z_theta||_E^2,

nonincreasing for every theta >= 1/2, exactly at theta = 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt
from scipy.optimize import curve_fit
from scipy.sparse.linalg import splu

from .domains import DiffeoMap
from .operators import DiscreteOperator, Mesh, NonlinearitySpec, NormPack, _sqrt_dot, pullback_operator, x_norm

__all__ = [
    "StateVector",
    "Trajectory",
    "EnergyProfile",
    "LipschitzConstants",
    "LipschitzCheck",
    "SamplerConfig",
    "AttractorSample",
    "BlowupError",
    "NonDissipativeError",
    "WaveIntegrator",
    "stability_cap",
    "solve_trajectory",
    "energy_profile",
    "lipschitz_constants",
    "lipschitz_envelope_check",
    "sample_attractor",
    "conjugated_flow_error",
    "random_state",
    "x0_sqdist",
    "calibration_state",
]

Array = npt.NDArray[np.float64]


class BlowupError(RuntimeError):
    """The integrator produced a non-finite state."""


class NonDissipativeError(RuntimeError):
    """Energy never reached a plateau before the sampling time cap."""


@dataclass
class StateVector:
    """Displacement/velocity pair on the interior nodes.

    `u` and `v` have shape (dim,) for one state or (dim, k) for a block of k
    states, one per column.
    """

    u: Array
    v: Array

    def __post_init__(self) -> None:
        self.u = np.asarray(self.u, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.u.shape != self.v.shape:
            raise ValueError("u and v must have matching shapes")

    def copy(self) -> "StateVector":
        return StateVector(self.u.copy(), self.v.copy())


THETA_SHIFT = 0.5  # theta = 1/2 + THETA_SHIFT * dt


def stability_cap(op: DiscreteOperator) -> float:
    """Largest dt accepted on `op`: 0.5/sqrt(lambda_max estimate), plus 1e-12 relative."""
    return 0.5 / np.sqrt(op.lambda_max_estimate()) * (1 + 1e-12)


class WaveIntegrator:
    """Prefactorized one-step map for a fixed (operator, nonlinearity, dt).

    Every method takes a single state or a block of states (see
    `StateVector`); each column of a block evolves exactly as it would alone,
    since the sparse products and the LU solve treat columns independently.
    """

    def __init__(self, op: DiscreteOperator, f: NonlinearitySpec, dt: float):
        if dt <= 0:
            raise ValueError("dt must be positive")
        cap = stability_cap(op)
        if dt > cap:
            raise ValueError(
                f"dt = {dt:.3e} exceeds the stability cap {cap:.3e} "
                f"(0.5/sqrt(lambda_max estimate))"
            )
        self.op = op
        self.f = f
        self.dt = float(dt)
        self.theta = min(0.5 + THETA_SHIFT * dt, 0.75)
        b = self.dt * self.theta
        S = ((1.0 + b) * op.M + b**2 * op.K).tocsc()
        self._S_lu = splu(S)

    def step(self, state: StateVector) -> StateVector:
        """One theta-scheme step of length dt."""
        op, dt, th = self.op, self.dt, self.theta
        u, v = state.u, state.v
        umid = u + 0.5 * dt * v
        rhs = (
            (1.0 - dt * (1.0 - th)) * (op.M @ v)
            - dt * (op.K @ u)
            - dt**2 * th * (1.0 - th) * (op.K @ v)
            - dt * (op.M @ self.f.f(umid))
        )
        v_new = self._S_lu.solve(rhs)
        u_new = u + dt * (th * v_new + (1.0 - th) * v)
        if not (np.all(np.isfinite(u_new)) and np.all(np.isfinite(v_new))):
            raise BlowupError("non-finite state after step")
        return StateVector(u_new, v_new)

    def advance(self, state: StateVector, t: float) -> StateVector:
        """Advance by time t: full steps of dt, then one partial step onto t."""
        if t < 0:
            raise ValueError("t must be nonnegative")
        n_full = int(np.floor(t / self.dt + 1e-9))
        rem = t - n_full * self.dt
        cur = state.copy()
        try:
            for _ in range(n_full):
                cur = self.step(cur)
            if rem > 1e-12 * max(1.0, t):
                cur = WaveIntegrator(self.op, self.f, rem).step(cur)
        except BlowupError as exc:
            raise BlowupError(f"blow-up while evolving over [0, {t}]") from exc
        return cur

    def record(self, state: StateVector, times: Array) -> StateVector:
        """States at each time of the increasing grid `times` (>= 0), on a trailing axis.

        One `advance` per grid difference, the first from 0, so time 0 gives the
        start state and a time off the dt lattice a partial step.  u and v are
        (dim, T) for one state, (dim, k, T) for a block.
        """
        steps = np.diff(np.asarray(times, dtype=float), prepend=0.0)
        u = np.empty(state.u.shape + steps.shape)
        v = np.empty_like(u)
        for i, t in enumerate(steps):
            state = self.advance(state, t)
            u[..., i], v[..., i] = state.u, state.v
        return StateVector(u, v)


@dataclass
class Trajectory:
    """States recorded at uniformly spaced times, one column of `states` each."""

    times: Array
    states: StateVector
    op: DiscreteOperator

    def __post_init__(self) -> None:
        if self.states.u.shape[1:] != self.times.shape:
            raise ValueError("times/states length mismatch")


def solve_trajectory(
    state: StateVector,
    t_final: float,
    dt: float,
    op: DiscreteOperator,
    f: NonlinearitySpec,
    record_every: int = 1,
) -> Trajectory:
    """States at time 0, every `record_every` steps of dt, and the last step."""
    n_steps = int(round(t_final / dt))
    times = np.union1d(np.arange(0, n_steps + 1, record_every), n_steps) * dt
    return Trajectory(times, WaveIntegrator(op, f, dt).record(state, times), op)


def _e2(state: StateVector, pack: NormPack, f: NonlinearitySpec) -> float | Array:
    """E2 per state, with u_tt = -v - M^{-1}Ku - f(u) from the semi-discrete law.

    K u and M^{-1} K u are formed once and serve both u_tt and ||u||_2, with
    the operands `NormPack.norm2` takes.
    """
    ku = pack.op.K @ state.u
    au = pack.op.solve_M(ku)
    acc = -state.v - au - f.f(state.u)
    return pack.norm0(acc) ** 2 + pack.norm1(state.v) ** 2 + _sqrt_dot(au, ku) ** 2


@dataclass
class EnergyProfile:
    """Second-order energy E2 along a trajectory with its decay envelope.

    E2(t) = ||u_tt||_0^2 + ||u_t||_1^2 + ||u||_2^2 with u_tt reconstructed
    algebraically.  The envelope a + b exp(-c t) is least-squares fitted
    through the local peaks of E2 (the curve's upper envelope); `overshoot`
    is max_t E2(t)/envelope(t) - 1.
    """

    times: Array
    e2: Array
    a: float
    b: float
    c: float
    overshoot: float

    def envelope(self, t: Array) -> Array:
        return self.a + self.b * np.exp(-self.c * np.asarray(t, dtype=float))


def _interior_peaks(y: Array) -> npt.NDArray[np.intp]:
    """Indices of interior local maxima (endpoints never qualify)."""
    if len(y) <= 2:
        return np.empty(0, dtype=np.intp)
    return (np.where((y[1:-1] >= y[:-2]) & (y[1:-1] >= y[2:]))[0] + 1).astype(np.intp)


def _fit_envelope(times: Array, e2: Array) -> tuple[float, float, float]:
    if float(e2.max(initial=0.0)) <= 1e-300:
        return 0.0, 0.0, 1.0
    tail = max(1, len(e2) // 5)
    a0 = float(np.mean(e2[-tail:]))
    loge = np.log(np.maximum(e2, 1e-300))
    span = float(times[-1] - times[0])
    cut = float(times[0]) + 0.4 * span
    fit_mask = times >= cut
    if int(fit_mask.sum()) < 4:
        fit_mask = np.ones(len(times), dtype=bool)
    # pre-fit rate from the tail's log-linear trend, then pick the peaks of
    # the detrended series: a decaying signal whose ripple is slower than the
    # decay has almost no local maxima of its own, but the detrended wobble
    # exposes every point where the signal runs against the envelope
    coef = np.polyfit(times[fit_mask], loge[fit_mask], 1)
    c0 = float(np.clip(-coef[0], 1e-3, 1e3))
    idx = _interior_peaks(loge + c0 * times)
    # least squares over the tail only, and only through true ripple crests:
    # early samples are depressed by amplitude-dependent softening of the
    # restoring force, and a series endpoint is usually mid-ripple, so either
    # one drags the line under the late peaks
    keep = idx[times[idx] >= cut]
    if len(keep) < 4:
        keep = np.where(fit_mask)[0]
    tp, ep = times[keep], e2[keep]
    b0 = max(
        (float(ep[0]) - a0) * float(np.exp(min(c0 * float(tp[0]), 600.0))),
        1e-12 * float(e2.max()),
    )
    # fit in log space: the data spans many decades, and the envelope must
    # track the tail in relative terms, not just the dominant early peaks
    floor = 1e-300
    try:
        popt, _ = curve_fit(
            lambda t, a, b, c: np.log(a + b * np.exp(-c * t) + floor),
            tp,
            np.log(ep + floor),
            p0=(max(a0, 0.0), b0, c0),
            bounds=([0.0, 0.0, 1e-8], [np.inf, np.inf, np.inf]),
            maxfev=20000,
        )
        a, b, c = (float(x) for x in popt)
    except RuntimeError:
        a, b, c = max(a0, 0.0), b0, c0
    return a, b, c


def energy_profile(traj: Trajectory, f: NonlinearitySpec) -> EnergyProfile:
    pack = NormPack(traj.op)
    e2 = _e2(traj.states, pack, f)
    a, b, c = _fit_envelope(traj.times, e2)
    env = a + b * np.exp(-c * traj.times)
    floor = 1e-15 * max(float(e2.max(initial=0.0)), 1.0)
    overshoot = float(np.max(e2 / np.maximum(env, floor)) - 1.0) if e2.size else 0.0
    return EnergyProfile(traj.times, e2, a, b, c, overshoot)


@dataclass(frozen=True)
class LipschitzConstants:
    """Gronwall data: C = l/(2 lambda1) + 1/2 and ell = max(l/lambda1, l)."""

    l: float
    lambda1: float
    C: float
    ell: float

    def __post_init__(self) -> None:
        if not self.C > 0.5:
            raise ValueError("C must exceed 1/2")
        if self.ell < self.l:
            raise ValueError("ell must dominate l")


def lipschitz_constants(l: float, lambda1: float) -> LipschitzConstants:
    if l <= 0 or lambda1 <= 0:
        raise ValueError("l and lambda1 must be positive")
    return LipschitzConstants(l, lambda1, C=l / (2 * lambda1) + 0.5, ell=max(l / lambda1, l))


GRONWALL_SLACK = 1.05  # largest accepted ratio of separation to the exp(C t) envelope


@dataclass
class LipschitzCheck:
    """Largest pair separation / (||Z(0)|| exp(C t)) on the step grid; `passed` if <= GRONWALL_SLACK."""

    max_ratio: float
    passed: bool


def lipschitz_envelope_check(
    s0: StateVector,
    s1: StateVector,
    t_final: float,
    dt: float,
    op: DiscreteOperator,
    f: NonlinearitySpec,
    consts: LipschitzConstants | None = None,
) -> LipschitzCheck:
    """Two-trajectory separation against ||Z(0)|| exp(C t) on the step grid.

    `passed` when the separation ratio stays within GRONWALL_SLACK.
    """
    pack = NormPack(op)
    z0 = x_norm(s0.u - s1.u, s0.v - s1.v, pack, 0)
    if z0 == 0.0:
        raise ValueError("initial states coincide; the envelope ratio is undefined")
    if consts is None:
        consts = lipschitz_constants(f.l, op.lambda1)
    pair = StateVector(np.column_stack([s0.u, s1.u]), np.column_stack([s0.v, s1.v]))
    times = np.arange(int(round(t_final / dt)) + 1) * dt
    pair = WaveIntegrator(op, f, dt).record(pair, times)
    sep = x_norm(pair.u[:, 0] - pair.u[:, 1], pair.v[:, 0] - pair.v[:, 1], pack, 0)
    mx = float((sep / (z0 * np.exp(consts.C * times))).max())
    return LipschitzCheck(mx, mx <= GRONWALL_SLACK)


@dataclass
class SamplerConfig:
    """Attractor sampling knobs (defaults follow the shipped scenarios)."""

    # 8 ICs x 12 snapshots at 1 s spacing fills max_points exactly; every
    # snapshot is kept, so clouds sampled with one seed on nearby operators
    # stay point-for-point comparable, and max_points only bounds the pool
    n_ics: int = 8
    radius: float = 2.0
    t_transient: float = 8.0
    t_window: float = 11.0
    stride: int = 250
    max_points: int = 96
    plateau_tol: float = 1e-4
    plateau_floor: float = 1e-12
    plateau_window: int = 50
    t_cap: float = 200.0
    dt: float = 0.004
    flow_grid_m: int = 10
    n_modes: int = 6

    def __post_init__(self) -> None:
        if self.n_ics < 1:
            raise ValueError("n_ics must be at least 1")
        if self.t_transient <= 0 or self.t_window <= 0 or self.dt <= 0:
            raise ValueError("t_transient, t_window and dt must be positive")
        if self.stride < 1 or self.max_points < 1 or self.flow_grid_m < 1:
            raise ValueError("stride, max_points and flow_grid_m must be positive")

    @property
    def pool_size(self) -> int:
        """Points in a sample: n_ics times the snapshots of the window at this dt."""
        return self.n_ics * (int(round(self.t_window / self.dt)) // self.stride + 1)


def _mode_shapes(mesh: Mesh, n_modes: int) -> Array:
    """Dirichlet sine modes sampled on the interior nodes, row per mode."""
    if mesh.domain.dim == 1:
        (lo, hi) = mesh.domain.bounds[0]
        x = mesh.nodes[mesh.interior_idx, 0]
        return np.array([np.sin(k * np.pi * (x - lo) / (hi - lo)) for k in range(1, n_modes + 1)])
    (ax, bx), (ay, by) = mesh.domain.bounds
    pts = mesh.nodes[mesh.interior_idx]
    shapes = []
    per_axis = max(2, int(np.ceil(np.sqrt(n_modes))))
    for kx in range(1, per_axis + 1):
        for ky in range(1, per_axis + 1):
            if len(shapes) >= n_modes:
                break
            shapes.append(
                np.sin(kx * np.pi * (pts[:, 0] - ax) / (bx - ax))
                * np.sin(ky * np.pi * (pts[:, 1] - ay) / (by - ay))
            )
    return np.array(shapes[:n_modes])


def random_state(
    op: DiscreteOperator,
    rng: np.random.Generator,
    radius: float,
    n_modes: int = 6,
) -> StateVector:
    """Random low-mode state scaled to a uniform fraction of the X^1 ball."""
    shapes = _mode_shapes(op.mesh, n_modes)
    decay = 1.0 / (np.arange(1, shapes.shape[0] + 1) ** 2)
    cu = rng.standard_normal(shapes.shape[0]) * decay
    cv = rng.standard_normal(shapes.shape[0]) * decay
    u = cu @ shapes
    v = cv @ shapes
    pack = NormPack(op)
    nrm = x_norm(u, v, pack, 1)
    if nrm == 0.0:
        u = shapes[0]
        nrm = x_norm(u, v, pack, 1)
    target = radius * rng.uniform(0.3, 1.0)
    s = target / nrm
    return StateVector(s * u, s * v)


def calibration_state(op: DiscreteOperator, radius: float = 1.0) -> StateVector:
    """Fundamental-mode displacement at rest, scaled to `radius` in X^1.

    The canonical single-frequency scenario: with one mode excited the energy
    rides a clean decaying exponential, so envelope fits against it measure
    the decay rate instead of inter-mode beat patterns.
    """
    u = _mode_shapes(op.mesh, 1)[0]
    v = np.zeros_like(u)
    pack = NormPack(op)
    return StateVector(radius / x_norm(u, v, pack, 1) * u, v)


@dataclass
class AttractorSample:
    """Post-transient snapshot cloud with its metric and flow table.

    `flow` holds the forward images of the n sampled points at times j/m,
    j = 0..m, as states (n, m+1, 2, dim) (u and v per image); its time-0
    column is the points themselves, see `states`.  `dist` is the pairwise
    X^0 distance matrix in this operator's own norm, and `eps_inv` the
    invariance proxy: the largest distance from any flow image to the
    sampled set.
    """

    dist: Array
    flow: Array
    flow_times: Array
    eps_inv: float

    @property
    def states(self) -> Array:
        """The sampled points, (n, 2, dim): the time-0 column of `flow`."""
        return self.flow[:, 0]


def x0_sqdist(states: Array, op: DiscreteOperator) -> Array:
    """Squared X^0 distances between all rows of `states` (n, 2, dim).

    Gram trick: with G = U K U^T + V M V^T, d^2(i, j) = G_ii + G_jj - 2 G_ij,
    clipped at 0 against cancellation.  Symmetrizing is left to the caller.
    """
    U = states[:, 0, :]
    V = states[:, 1, :]
    G = U @ (op.K @ U.T) + V @ (op.M @ V.T)
    dg = np.diag(G)
    return np.maximum(dg[:, None] + dg[None, :] - 2 * G, 0.0)


def sample_attractor(
    op: DiscreteOperator, f: NonlinearitySpec, cfg: SamplerConfig, seed: int
) -> AttractorSample:
    """Seeded approximate-attractor sample with flow table over [0, 1].

    Snapshots are taken on the fixed window [t_transient, t_transient +
    t_window], every `stride` steps, so the sample is a smooth function of
    the operator coefficients.  Independently, each trajectory must pass the
    settling test: the per-step slope |dE2/dt| < plateau_tol * E2 +
    plateau_floor for `plateau_window` consecutive steps (a single zero
    crossing of the oscillating slope does not count) before `t_cap`,
    otherwise NonDissipativeError.  Every snapshot is a sample point, in
    IC-major order (all snapshots of ic 0, then of ic 1, ...); a pool larger
    than `max_points` is a ValueError before any stepping.
    """
    if cfg.pool_size > cfg.max_points:
        raise ValueError(
            f"{cfg.n_ics} ICs x {cfg.pool_size // cfg.n_ics} snapshots = {cfg.pool_size} points "
            f"exceeds max_points = {cfg.max_points}"
        )
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5A17]))
    pack = NormPack(op)
    integ = WaveIntegrator(op, f, cfg.dt)
    n_ics = cfg.n_ics
    ics = [random_state(op, rng, cfg.radius, cfg.n_modes) for _ in range(n_ics)]
    # all ICs advance together, one column each
    state = StateVector(np.column_stack([s.u for s in ics]), np.column_stack([s.v for s in ics]))
    window_start = int(round(cfg.t_transient / cfg.dt))
    window_end = window_start + int(round(cfg.t_window / cfg.dt))

    snaps: list[StateVector] = [state] if window_start == 0 else []
    e_prev = _e2(state, pack, f)
    consec = np.zeros(n_ics, dtype=np.intp)
    plateaued = np.zeros(n_ics, dtype=bool)
    k = 0
    while True:
        state = integ.step(state)
        k += 1
        t = k * cfg.dt
        if window_start <= k <= window_end and (k - window_start) % cfg.stride == 0:
            snaps.append(state)
        # a plateaued IC keeps stepping until every IC is done; its settling
        # test is over, so its later E2 values are never read
        e_now = _e2(state, pack, f)
        slope = np.abs(e_now - e_prev) / cfg.dt
        e_prev = e_now
        settled = slope < cfg.plateau_tol * e_now + cfg.plateau_floor
        consec = np.where(settled, consec + 1, 0)
        if t >= cfg.t_transient:
            plateaued |= consec >= cfg.plateau_window
        if plateaued.all() and k >= window_end:
            break
        if t >= cfg.t_cap:
            ic = int(np.argmin(plateaued))
            raise NonDissipativeError(f"energy of ic {ic} never plateaued before t_cap = {cfg.t_cap}")
    # IC-major: every snapshot of ic 0, then of ic 1, ...
    snap_uv = np.array([(st.u, st.v) for st in snaps])  # (n_snaps, 2, dim, n_ics)
    states = snap_uv.transpose(3, 0, 1, 2).reshape(n_ics * len(snaps), 2, -1)
    dist = np.sqrt(x0_sqdist(states, op))
    dist = 0.5 * (dist + dist.T)
    np.fill_diagonal(dist, 0.0)
    m = cfg.flow_grid_m
    flow_times = np.linspace(0.0, 1.0, m + 1)
    rec = integ.record(StateVector(states[:, 0].T.copy(), states[:, 1].T.copy()), flow_times)
    flow = np.ascontiguousarray(np.stack([rec.u, rec.v]).transpose(2, 3, 0, 1))  # (n, m+1, 2, dim)
    # invariance proxy: worst distance from any flow image back to the sample;
    # flow[:, 0] is the sample itself, i.e. every (m+1)-th row of the table
    d2_flow = x0_sqdist(flow.reshape(-1, 2, states.shape[2]), op)
    eps_inv = float(np.sqrt(d2_flow[:, :: m + 1]).min(axis=1).max())
    return AttractorSample(dist, flow, flow_times, eps_inv)


def conjugated_flow_error(
    h_n: DiffeoMap,
    v0: StateVector,
    t_grid: Array,
    op0: DiscreteOperator,
    f: NonlinearitySpec,
    dt: float,
) -> Array:
    """||T_n(t) V0 - T_0(t) V0|| in op0's X^0 norm at each time of the increasing, nonnegative `t_grid`.

    T_0 runs on the reference operator op0 and T_n on h_n's pullback; the shared
    discrete space makes the pullback identification the identity on coefficients.
    """
    opn = pullback_operator(op0.mesh, h_n)
    tg = np.asarray(t_grid, dtype=float)
    if tg.ndim != 1 or tg.size == 0 or np.any(np.diff(tg) <= 0) or tg[0] < 0:
        raise ValueError("t_grid must be increasing and nonnegative")
    a = WaveIntegrator(op0, f, dt).record(v0, tg)
    b = WaveIntegrator(opn, f, dt).record(v0, tg)
    return x_norm(a.u - b.u, a.v - b.v, NormPack(op0), 0)
