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

The right-hand side is one operator applied to (u, v, f(p)), p = u + dt/2 v,
R = [R_u | R_v | R_f] = [-dt K | (1 - dt(1-theta)) M - dt^2 theta(1-theta) K
| -dt M], so v+ = S^-1 R (u; v; f(p)) with S the matrix on the left.  The
nonlinearity f(p) = a p + b sin(p) (`operators.NonlinearitySpec`) is linear
but for its sine, so its linear part folds into R: on w = (u; v; sin(p)),
v+ = S^-1 R' w with R' = [R_u + a R_f | R_v + a (dt/2) R_f | b R_f].  On a
dense operator (at most `operators.DENSE_MAX_DIM` unknowns) the whole step
is one product z+ = G w, z = (u; v), with a precomputed dense G (2 dim x
3 dim) folded the same way from the dense step of the unfolded system; on a
sparse one, it is the product with R' and the sparse LU solve with S.  A block of states (one per column) gives the same
bits for the same block shape; only the sparse kernel gives each column the
bits it would get alone.

A state is one array z = (u; v): (2 dim,) for one state, (2 dim, k) for a
block of k states, one per column, and (B, 2 dim, k) for a stack of B
blocks, each stepped as it would be alone.  Both kernels are written once,
in one step loop over z that steps into preallocated buffers; `step` and
`record` are runs of it (a record is one run that keeps only its grid's
states), and the sampler runs it directly: it steps its block of ICs straight from
one step a flow image is due at to the next and copies each image into its
table, so no state of a sample is stepped twice.

Time is a count of whole steps of one dt: a reader rounds its times to
steps, round(t / dt), and takes the integrator it steps with, so a study
builds one integrator per operator and every reader on that operator
shares it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
# numpy loads numpy.random lazily, on the first default_rng; the package's
# __init__ imports this module, so this one line loads it before any study
import numpy.random
import numpy.typing as npt

from .operators import (
    DiscreteOperator,
    Mesh,
    NonlinearitySpec,
    NormPack,
    _factorize,
    _matvecs,
    _sqrt_dot,
    x_norm,
)

__all__ = [
    "EnergyProfile",
    "SamplerConfig",
    "BlowupError",
    "WaveIntegrator",
    "stability_cap",
    "solve_trajectory",
    "energy_profile",
    "gronwall_rate",
    "pair_separations",
    "lipschitz_envelope_check",
    "sample_attractor",
    "conjugated_flow_error",
    "random_state",
    "x0_sqdist",
    "x0_dist",
    "calibration_state",
]

Array = npt.NDArray[np.float64]


class BlowupError(RuntimeError):
    """The integrator produced a non-finite state."""


THETA_SHIFT = 0.5  # theta = 1/2 + THETA_SHIFT * dt


def stability_cap(op: DiscreteOperator) -> float:
    """Largest dt accepted on `op`: 0.5/sqrt(lambda_max estimate), plus 1e-12 relative."""
    return 0.5 / np.sqrt(op.lambda_max_estimate()) * (1 + 1e-12)


class WaveIntegrator:
    """Prefactorized one-step map for a fixed (operator, nonlinearity, dt).

    Every method takes a single state z = (u; v), a block of states, one
    per column, or a stack of blocks.  Both kernels apply the right-hand-side
    operator with f's linear part folded in, R' (see the module docstring),
    to w = (u; v; sin(u + dt/2 v)), so a step evaluates one sin.  On a dense operator
    (`dense`, at most `operators.DENSE_MAX_DIM` unknowns) the step is one
    product z+ = G w: G = [P + a [Q | (dt/2) Q] | b Q], with P z + Q f the
    step of the unfolded system, is formed once here, from S^-1 R by S's
    Cholesky factor (see `operators._cholesky`) and then elementwise, so
    that no BLAS thread count changes its bits.  BLAS picks its kernel by
    the block width, so a column of a block matches the same state stepped
    alone to rounding, not bit for bit; the same block shape always gives
    the same bits.  On a sparse operator the step is one sparse product
    with R' and one sparse LU solve, which treat columns independently, so
    there each column evolves exactly as it would alone.
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
        self.dt = dt = float(dt)
        self.theta = th = min(0.5 + THETA_SHIFT * dt, 0.75)
        b = dt * th
        S = (1.0 + b) * op.M + b**2 * op.K
        c_v = 1.0 - dt * (1.0 - th)
        c_k = dt**2 * th * (1.0 - th)
        R = [-dt * op.K, c_v * op.M - c_k * op.K, -dt * op.M]
        self._half_dt = 0.5 * dt
        self._one_minus_theta = 1.0 - th

        def fold(cols: list) -> None:
            """Turn the column blocks [on u, on v, on f(p)], p = u + dt/2 v, of a
            step operator into [on u, on v, on sin(p)], in place where the
            blocks allow: f(p) = a u + a dt/2 v + b sin(p)."""
            cols[0] += f.a * cols[2]
            cols[1] += f.a * (self._half_dt * cols[2])
            cols[2] *= f.b

        self.dense = op.dense
        if self.dense:
            # first [P | Q], the step z+ = P z + Q f(p) of the unfolded system:
            # v+ = A (u; v; f(p)) and u+ = u + b v+ + dt (1 - th) v.  G is
            # built in place, as every temporary of its size raises a study's
            # peak memory
            n = op.n
            A = _factorize(S)(np.hstack(R))
            self._G = G = np.empty((2 * n, 3 * n))
            np.multiply(b, A, out=G[:n])
            G[n:] = A
            G[:n, :n] += np.eye(n)
            G[:n, n : 2 * n] += dt * self._one_minus_theta * np.eye(n)
            fold([G[:, :n], G[:, n : 2 * n], G[:, 2 * n :]])
        else:
            import scipy.sparse as sp

            self._solve_S = _factorize(S)
            fold(R)
            self._R = sp.hstack(R).tocsr()

    def _steps(self, z: Array, marks: Sequence[int], out: Sequence[Array] | None = None) -> Array:
        """The step loop: z = (u; v), (2 dim,), (2 dim, k) or a stack of
        blocks (B, 2 dim, k), stepped marks[-1] times; the state after
        marks[i] steps (a nondecreasing count, 0 for z itself) is written
        into out[i], a row of an array or an array view of a list.  Returns
        the last state; z is left as it is.

        The states live in two work buffers of this call that take turns,
        w = (u; v; s) in C order, so the dense step allocates nothing and
        every step reads and writes C order whatever the layout of z and
        `out`.  A step writes s = sin(u + dt/2 v) into its own buffer and the
        next state into the other: one product with G on the dense kernel,
        the product with R' and the S solve on the sparse one (see
        `WaveIntegrator`).  A kept state is copied to its slot of `out`.  On
        a stack the dense product broadcasts G over the blocks, one product
        per block, so that each block gets the bits it gets alone; the
        sparse kernel, whose products treat columns independently, steps the
        stack as one (2 dim, B k) block.

        BlowupError if a step ran and the last state is not finite.  One
        check per call suffices: a non-finite entry of u or v makes the same
        column's u non-finite after every later step under either kernel (the
        dense product spreads it over the column, and the sparse step adds it
        to u+ = u + dt (theta v+ + (1 - theta) v)).
        """
        n = self.op.n
        stack = len(z) if z.ndim == 3 else 0
        if stack and self.dense:
            # the rows of a stack's blocks are its second axis
            shape, rows = (stack, 3 * n, z.shape[2]), lambda w, a, b: w[:, a:b]
        else:
            # the blocks of a stack side by side, one (3 dim, B k) block
            shape = (3 * n, stack * z.shape[2]) if stack else (3 * n, *z.shape[1:])
            rows = lambda w, a, b: w[a:b]

        def parts(w: Array) -> tuple[Array, ...]:
            """w itself, its state z = (u; v) in the shape of the state stepped, and u, v and s."""
            state = rows(w, 0, 2 * n)
            if stack and not self.dense:
                state = state.reshape(2 * n, stack, -1).transpose(1, 0, 2)
            return w, state, rows(w, 0, n), rows(w, n, 2 * n), rows(w, 2 * n, 3 * n)

        cur, nxt = parts(np.empty(shape)), parts(np.empty(shape))
        cur[1][...] = z
        half_dt, dense, done = self._half_dt, self.dense, 0
        for i, mark in enumerate(marks):
            for _ in range(mark - done):
                w, _, u, v, s = cur
                # outputs go positionally: the out= keyword costs about 0.4
                # microseconds a call, a tenth of a small block's step
                np.multiply(v, half_dt, s)
                s += u
                np.sin(s, s)
                if dense:
                    np.matmul(self._G, w, nxt[1])
                else:
                    nxt[3][...] = self._solve_S(self._R @ w)
                    nxt[2][...] = u + self.dt * (self.theta * nxt[3] + self._one_minus_theta * v)
                cur, nxt = nxt, cur
            done = mark
            if out is not None:
                out[i][...] = cur[1]
        if done and not np.isfinite(cur[1]).all():
            raise BlowupError("non-finite state after step")
        return cur[1]

    def _entry(self, z: Array) -> Array:
        """z as a float array of a state's shape; the step loop copies it into its own buffers."""
        z = np.asarray(z, dtype=float)
        dim2 = 2 * self.op.n
        if z.ndim not in (1, 2, 3) or z.shape[1 if z.ndim == 3 else 0] != dim2:
            raise ValueError(f"a state must have shape ({dim2},), ({dim2}, k) or (B, {dim2}, k), got {z.shape}")
        return z

    def step(self, z: Array) -> Array:
        """One theta-scheme step of length dt; the input array is left as it is."""
        return self._steps(self._entry(z), [1])

    def record(self, z: Array, steps: Sequence[int]) -> Array:
        """States after each of the nondecreasing whole step counts `steps`
        (>= 0, 0 for z itself), on a trailing axis.

        One run of the step loop, which writes each kept state straight into
        the result: (2 dim, T) for one state, (2 dim, k, T) for a block and
        (B, 2 dim, k, T) for a stack of B blocks, never sharing memory with
        `z`; each block of a stack gets the bits it gets alone.  A grid that
        is not whole numbers, or is negative or decreasing, is a ValueError:
        a time is a count of steps, which the caller rounds from its own
        times.
        """
        steps = np.asarray(steps)
        if steps.ndim != 1 or steps.dtype.kind not in "iu" or (np.diff(steps, prepend=0) < 0).any():
            raise ValueError("steps must be nonnegative, nondecreasing whole step counts")
        z = self._entry(z)
        rec = np.empty(z.shape + steps.shape)
        try:
            self._steps(z, steps.tolist(), np.moveaxis(rec, -1, 0))
        except BlowupError as exc:
            raise BlowupError(f"blow-up while evolving over [0, {int(steps[-1]) * self.dt}]") from exc
        return rec


def solve_trajectory(z: Array, t_final: float, integ: WaveIntegrator, record_every: int = 1) -> tuple[Array, Array]:
    """(times, states) of `integ`'s trajectory from z: time 0, every
    `record_every` steps and the last step, round(t_final / dt), (T,), and
    the state at each, one column of (2 dim, T)."""
    n_steps = int(round(t_final / integ.dt))
    steps = np.arange(0, n_steps + 1, record_every)  # not np.union1d, whose np.unique loads numpy.ma
    if steps[-1] != n_steps:
        steps = np.append(steps, n_steps)
    return steps * integ.dt, integ.record(z, steps)


def _e2(z: Array, pack: NormPack, f: NonlinearitySpec) -> float | Array:
    """E2 per state z = (u; v), with u_tt = -v - M^{-1}Ku - f(u) from the semi-discrete law.

    K u and M^{-1} K u are formed once and serve both u_tt and ||u||_2, with
    the operands `NormPack.norm2` takes.
    """
    u, v = z[: pack.op.n], z[pack.op.n :]
    ku = _matvecs(pack.op.K, u)
    au = pack.op.solve_M(ku)
    acc = -v - au - f.f(u)
    return pack.norm0(acc) ** 2 + pack.norm1(v) ** 2 + _sqrt_dot(au, ku) ** 2


@dataclass
class EnergyProfile:
    """Second-order energy E2 along a trajectory with its decay envelope.

    E2(t) = ||u_tt||_0^2 + ||u_t||_1^2 + ||u||_2^2 with u_tt reconstructed
    algebraically, one value per recorded time.  The envelope b exp(-c t) is
    the least-squares line log b - c t through the local peaks of log E2 (the
    curve's upper envelope); a series whose peaks do not fall gets c <= 0.
    `overshoot` is max_t E2(t)/envelope(t) - 1.
    """

    e2: Array
    b: float
    c: float
    overshoot: float

    def envelope(self, t: Array) -> Array:
        return self.b * np.exp(-self.c * np.asarray(t, dtype=float))


def _interior_peaks(y: Array) -> npt.NDArray[np.intp]:
    """Indices of interior local maxima (endpoints never qualify)."""
    if len(y) <= 2:
        return np.empty(0, dtype=np.intp)
    return (np.where((y[1:-1] >= y[:-2]) & (y[1:-1] >= y[2:]))[0] + 1).astype(np.intp)


_LOG_FLOOR = 1e-300  # keeps the log of E2 finite at 0


def _envelope_points(times: Array, e2: Array) -> tuple[Array, Array]:
    """The times and E2 values the envelope is fitted through."""
    loge = np.log(np.maximum(e2, _LOG_FLOOR))
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
    return times[keep], e2[keep]


def _fit_envelope(times: Array, e2: Array) -> tuple[float, float]:
    """Decay envelope (b, c) of E2: the least-squares line log b - c t through
    the log ripple crests of the series' tail; (0, 1) for a zero series.

    Log space because the data spans many decades, and the envelope must
    track the tail in relative terms, not just the dominant early peaks.  The
    line is fitted about the crests' mean time tbar, so its rate is not tied
    to its amplitude, and b = exp(intercept) exp(c tbar).  Crests that do not
    fall give c <= 0: the series does not decay.
    """
    if float(e2.max(initial=0.0)) <= 1e-300:
        return 0.0, 1.0
    tp, ep = _envelope_points(times, e2)
    tbar = float(np.mean(tp))
    slope, intercept = np.polyfit(tp - tbar, np.log(ep + _LOG_FLOOR), 1)
    c = float(-slope)
    return math.exp(intercept) * float(np.exp(c * tbar)), c


def energy_profile(times: Array, states: Array, op: DiscreteOperator, f: NonlinearitySpec) -> EnergyProfile:
    """E2 of `states` (2 dim, T), recorded at `times` (T,) on `op`, and its envelope."""
    e2 = _e2(states, NormPack(op), f)
    b, c = _fit_envelope(times, e2)
    env = b * np.exp(-c * times)
    floor = 1e-15 * max(float(e2.max(initial=0.0)), 1.0)
    overshoot = float(np.max(e2 / np.maximum(env, floor)) - 1.0) if e2.size else 0.0
    return EnergyProfile(e2, b, c, overshoot)


def gronwall_rate(f: NonlinearitySpec, op: DiscreteOperator) -> float:
    """C = l/(2 lambda1) + 1/2 of the separation envelope exp(C t), from f's
    Lipschitz bound l and the operator's first eigenvalue lambda1."""
    return f.l / (2 * op.lambda1) + 0.5


def pair_separations(pairs: Array, t_final: float, integ: WaveIntegrator) -> Array:
    """X^0 separation ||z_0(t) - z_1(t)|| of each pair of a stack of state
    pairs (B, 2 dim, 2), pair i the block (z_0 | z_1) = pairs[i], at every
    step 0, 1, ..., round(t_final / dt) of `integ`: (B, steps + 1), a row
    per pair.

    The stack steps as one, in chunks of whole steps, and each chunk is
    reduced to its separations before the next is stepped, so no trajectory
    is held whole: a chunk of max(1, steps // B) steps records no more
    floats than one pair's whole trajectory.  Each pair gets the bits it
    gets stepped alone (see `WaveIntegrator.record`), and each separation
    the bits of its own `x_norm`.
    """
    n_steps = int(round(t_final / integ.dt))
    if n_steps < 1:
        raise ValueError(f"t_final = {t_final} is shorter than one step of dt = {integ.dt}")
    pairs = np.asarray(pairs, dtype=float)
    if pairs.ndim != 3 or not len(pairs) or pairs.shape[1:] != (2 * integ.op.n, 2):
        raise ValueError(f"pairs must have shape (B, {2 * integ.op.n}, 2), B >= 1, got {pairs.shape}")
    pack = NormPack(integ.op)

    def differences(states: Array) -> Array:
        """z_0 - z_1 per pair and state of a record (B, 2 dim, 2, c) of the stack, as the columns of one block (2 dim, B c)."""
        # pair by pair: one subtraction over the whole stack would also
        # allocate numpy's iteration buffers, 128 KB
        diff = np.empty((states.shape[1], len(states), states.shape[-1]))
        for i, pair in enumerate(states):
            np.subtract(pair[:, 0], pair[:, 1], out=diff[:, i])
        return diff.reshape(len(diff), -1)

    def advance(z: Array, steps: int) -> tuple[Array, Array]:
        """The stack `steps` steps on from z, and its separations (B, steps) after each of them."""
        rec = integ.record(z, np.arange(1, steps + 1))
        last, diff = rec[..., -1].copy(), differences(rec)
        del rec  # before the norms, so that the record and their temporaries are not alive at once
        return last, x_norm(diff, pack, 0).reshape(len(pairs), steps)

    chunk = max(1, n_steps // len(pairs))
    sep = np.empty((len(pairs), n_steps + 1))
    sep[:, 0] = x_norm(differences(pairs[..., None]), pack, 0)
    z = pairs
    for done in range(0, n_steps, chunk):
        steps = min(chunk, n_steps - done)
        z, sep[:, done + 1 : done + 1 + steps] = advance(z, steps)
    return sep


def lipschitz_envelope_check(sep: Array, integ: WaveIntegrator) -> float:
    """Largest ratio of a pair's separation to ||Z(0)|| exp(C t) over every step t >= integ.dt.

    `sep` is the pair's X^0 separation at steps 0, 1, ... of `integ`, a row
    of `pair_separations`, so ||Z(0)|| = sep[0].  Time 0 is left out: its
    ratio is 1 by construction, so a maximum over it would never show how
    close the envelope comes.
    """
    if len(sep) < 2:
        raise ValueError(f"the separation series is shorter than one step of dt = {integ.dt}")
    if sep[0] == 0.0:
        raise ValueError("initial states coincide; the envelope ratio is undefined")
    times = np.arange(1, len(sep)) * integ.dt
    return float((sep[1:] / (sep[0] * np.exp(gronwall_rate(integ.f, integ.op) * times))).max())


# SamplerConfig field -> (predicate, description of the valid range); the
# config schema's [sampler] section is built from this table.
SAMPLER_RANGES: dict[str, tuple[Callable[[float], bool], str]] = {
    "n_ics": (lambda n: n >= 1, "at least 1"),
    "radius": (lambda x: x > 0, "positive"),
    "t_transient": (lambda x: x > 0, "positive"),
    "t_window": (lambda x: x > 0, "positive"),
    "stride": (lambda n: n >= 1, "at least 1"),
    "max_points": (lambda n: n >= 1, "at least 1"),
    "flow_grid_m": (lambda n: n >= 1, "at least 1"),
    "n_modes": (lambda n: n >= 1, "at least 1"),
}


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
    flow_grid_m: int = 10
    n_modes: int = 6

    def __post_init__(self) -> None:
        for key, (ok, rng) in SAMPLER_RANGES.items():
            if not ok(val := getattr(self, key)):
                raise ValueError(f"sampler {key} = {val!r} out of range; must be {rng}")

    def pool_size(self, dt: float) -> int:
        """Points in a sample stepped with `dt`: n_ics times the snapshots of the window."""
        return self.n_ics * (int(round(self.t_window / dt)) // self.stride + 1)


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
) -> Array:
    """Random low-mode state z = (u; v) scaled to a uniform fraction of the X^1 ball."""
    return _low_mode_state(_mode_shapes(op.mesh, n_modes), NormPack(op), rng, radius)


def _low_mode_state(shapes: Array, pack: NormPack, rng: np.random.Generator, radius: float) -> Array:
    """`random_state` on the mode shapes and norms of its operator, formed once by a caller drawing many states."""
    decay = 1.0 / (np.arange(1, shapes.shape[0] + 1) ** 2)
    cu = rng.standard_normal(shapes.shape[0]) * decay
    cv = rng.standard_normal(shapes.shape[0]) * decay
    z = np.concatenate([cu @ shapes, cv @ shapes])
    nrm = x_norm(z, pack, 1)
    if nrm == 0.0:
        z[: pack.op.n] = shapes[0]
        nrm = x_norm(z, pack, 1)
    target = radius * rng.uniform(0.3, 1.0)
    return target / nrm * z


def calibration_state(op: DiscreteOperator, radius: float = 1.0) -> Array:
    """Fundamental-mode displacement at rest, scaled to `radius` in X^1.

    The canonical single-frequency scenario: with one mode excited the energy
    rides a clean decaying exponential, so envelope fits against it measure
    the decay rate instead of inter-mode beat patterns.
    """
    z = np.concatenate([_mode_shapes(op.mesh, 1)[0], np.zeros(op.n)])
    return radius / x_norm(z, NormPack(op), 1) * z


def _x0_right(b: Array, op: DiscreteOperator) -> tuple[Array, Array]:
    """The right operands (K u_b^T, M v_b^T) of a Gram against the states (rows) of b, (n, 2 dim)."""
    return op.K @ b[:, : op.n].T, op.M @ b[:, op.n :].T


def _x0_gram(a: Array, right: tuple[Array, Array]) -> Array:
    """G_ab = u_a K u_b + v_a M v_b between the states (rows) of a, (n, 2 dim), and of b, given as `_x0_right(b)`."""
    Kb, Mb = right
    n = len(Kb)
    G = a[:, :n] @ Kb
    G += a[:, n:] @ Mb
    return G


def _x0_sqnorms(states: Array, op: DiscreteOperator) -> Array:
    """Squared X^0 norms G_aa of the states (rows) of `states`, (n, 2 dim): the diagonal of their own Gram."""
    return np.diag(_x0_gram(states, _x0_right(states, op))).copy()


def x0_sqdist(rows: Array, cols: Array, op: DiscreteOperator) -> Array:
    """Squared X^0 distances from every state of `rows` (n, 2 dim) to every state of `cols` (m, 2 dim).

    Gram trick: with G_ab = u_a K u_b + v_a M v_b, d^2(a, b) =
    (G_aa + G_bb) - 2 G_ab in that operand order, clipped at 0 against
    cancellation; symmetrizing is left to the caller.  G_aa is the diagonal
    of the Gram of a's own set, a product of the same BLAS kernel as G_ab
    (a row-wise dot product rounds differently), so the result holds the
    entries of one Gram over both sets, bit for bit where the BLAS rounds
    every column of a product alike.
    """
    d2 = np.add(_x0_sqnorms(rows, op)[:, None], _x0_sqnorms(cols, op)[None, :])
    d2 -= 2.0 * _x0_gram(rows, _x0_right(cols, op))
    return np.maximum(d2, 0.0, out=d2)


def x0_dist(states: Array, op: DiscreteOperator) -> Array:
    """The X^0 distance matrix of `states` (n, 2 dim) in `op`'s norm: the
    square root of `x0_sqdist`, symmetrized, with zero diagonal."""
    dist = np.sqrt(x0_sqdist(states, states, op))
    dist = 0.5 * (dist + dist.T)
    np.fill_diagonal(dist, 0.0)
    return dist


def sample_attractor(integ: WaveIntegrator, cfg: SamplerConfig, seed: int, states_only: bool = False) -> Array:
    """Seeded approximate-attractor sample of `integ`'s flow, as its flow table (n, q, 2 dim), q = `flow_grid_m` + 1.

    Snapshots are taken on the fixed window [t_transient, t_transient +
    t_window], every `stride` steps of the integrator's dt, so the sample is
    a smooth function of the operator coefficients.  Every snapshot is a
    sample point, in IC-major order (all snapshots of ic 0, then of ic 1,
    ...); a pool larger than `max_points` is a ValueError before any
    stepping.  Column j of a point's row is the same IC's state z = (u; v)
    round(j / (m dt)) steps after the snapshot (m = `flow_grid_m`), so
    column 0 is the point itself; a flow grid off the dt lattice is rounded
    to whole steps, as the window is.  With `states_only` the result is
    column 0 alone, (n, 2 dim), and the stepping ends at the last snapshot.

    The ICs advance as one (2 dim, n_ics) block in one run of the
    integrator's step loop, which writes each image into its table slot as
    the block passes the image's step; the last step run is the last
    image's.  Nothing waits for the energy to settle: a scenario's
    nonlinearity (a > |b|, `operators.default_nonlinearity`) makes the
    system dissipative, so the attractor the window samples exists, and a
    trajectory that leaves the float range is a BlowupError.
    """
    op, dt = integ.op, integ.dt
    if (pool := cfg.pool_size(dt)) > cfg.max_points:
        raise ValueError(
            f"{cfg.n_ics} ICs x {pool // cfg.n_ics} snapshots = {pool} points exceeds max_points = {cfg.max_points}"
        )
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5A17]))
    n_ics, m = cfg.n_ics, cfg.flow_grid_m
    # all ICs advance together, one column each, drawn on one set of mode shapes and norms
    shapes, pack = _mode_shapes(op.mesh, cfg.n_modes), NormPack(op)
    z = np.column_stack([_low_mode_state(shapes, pack, rng, cfg.radius) for _ in range(n_ics)])
    window_start = int(round(cfg.t_transient / dt))
    n_snaps = pool // n_ics
    lags = [round(j / (m * dt)) for j in range(1 if states_only else m + 1)]
    table = np.empty((n_ics, n_snaps, len(lags), 2 * op.n))
    # every (snapshot, image) slot by its due step: a flow span longer than
    # `stride` interleaves the images of successive snapshots, and one as
    # long puts a snapshot's last image on the next snapshot's step
    slots = sorted((window_start + cfg.stride * i + lag, i, j) for i in range(n_snaps) for j, lag in enumerate(lags))
    integ._steps(z, [step for step, _, _ in slots], [table[:, i, j].T for _, i, j in slots])
    rows = table.reshape(-1, len(lags), 2 * op.n)
    return rows[:, 0] if states_only else rows


def conjugated_flow_error(
    integ_0: WaveIntegrator, flow_0: Array, integ_n: WaveIntegrator, v0: Array, steps: Sequence[int]
) -> Array:
    """||T_n(t) V0 - T_0(t) V0|| in the X^0 norm of integ_0's operator after each whole step count of `steps`.

    T_0 is `integ_0`'s flow, on the reference operator, given as `flow_0`,
    its record `integ_0.record(v0, steps)`, which a caller comparing several
    perturbed flows records once; T_n is `integ_n`'s flow, on a pullback of
    the reference, recorded here.  The shared discrete space makes the
    pullback identification the identity on coefficients.  Both must step
    with the same dt, so that each count is the same time t on both flows;
    `record` checks the grid.
    """
    if integ_n.dt != integ_0.dt:
        raise ValueError(f"the two flows step with dt = {integ_0.dt} and {integ_n.dt}, not one dt")
    return x_norm(flow_0 - integ_n.record(v0, steps), NormPack(integ_0.op), 0)
