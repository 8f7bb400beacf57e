"""Experiment drivers: continuity, stability, and estimate-check studies.

Every study is a pure function of its ScenarioConfig: outputs (CSV rows,
report.json) are byte-identical across reruns and thread counts.  Wall-clock
measurements go to a separate timing.json sidecar so the report stays
deterministic.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import __version__
from .config import ScenarioConfig
from .domains import c2_distance, default_c2_grid, deviation_norms
from .dynamics import (
    WaveIntegrator,
    calibration_state,
    conjugated_flow_error,
    energy_profile,
    lipschitz_envelope_check,
    pair_separations,
    random_state,
    sample_attractor,
    solve_trajectory,
    x0_dist,
    x0_sqdist,
)
from .ghmetric import dgh_dynamical, gh_upper
from .operators import DiscreteOperator, pullback_operator

__all__ = [
    "ContinuityRow",
    "ContinuityResult",
    "StabilityResult",
    "EstimateResult",
    "CsvWriter",
    "run_continuity_study",
    "run_stability_study",
    "run_estimate_checks",
    "build_flow_pair",
    "write_report",
    "write_timing",
    "StudyTimer",
]


class CsvWriter:
    """Line-oriented CSV at 17 significant digits, fsynced per row."""

    def __init__(self, path, header: list[str]):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "w", newline="\n")
        self._fh.write(",".join(header) + "\n")
        self._sync()

    def _sync(self) -> None:
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def row(self, values) -> None:
        cells = []
        for v in values:
            if isinstance(v, (bool, np.bool_)):
                cells.append("1" if v else "0")
            elif isinstance(v, (int, np.integer)):
                cells.append(str(int(v)))
            elif isinstance(v, str):
                cells.append(v)
            else:
                cells.append(f"{float(v):.17g}")
        self._fh.write(",".join(cells) + "\n")
        self._sync()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "CsvWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class ContinuityRow:
    delta: float
    det_dev: float
    hbar_dev: float
    gh_low: float
    gh_up: float
    restarts_used: int
    exact: bool


class _StudyResult:
    """report.json entry of a study: its name, every field, and the verdict."""

    study: ClassVar[str]

    def payload(self) -> dict:
        return {"study": self.study, **asdict(self), "passed": self.passed}


@dataclass
class ContinuityResult(_StudyResult):
    study: ClassVar[str] = "continuity"
    rows: list[ContinuityRow]
    noise_floor: float  # the control's upper estimate
    noise_floor_low: float  # the control's certified lower bound, which the floor verdict reads
    monotone: bool
    below_floor: bool
    floor_margin: float | None  # 3 * noise_floor_low - last row's gh_up: positive iff below_floor
    gh_up_slope: float | None  # least-squares slope of log gh_up against log delta; reported, not judged

    @property
    def passed(self) -> bool:
        return self.monotone and self.below_floor


def run_continuity_study(cfg: ScenarioConfig, out_dir=None, timer: StudyTimer | None = None) -> ContinuityResult:
    """Sampled-attractor GH distance against perturbation size.

    The reference integrator samples again with seed+1 as a same-distribution
    control, the sampling noise floor that the smallest perturbation is
    compared against.  `below_floor` reads the control's certified lower
    bound (`gh_lower`), so the control needs no multistart: its search runs
    restart 0 alone in each direction, and its value, the upper end of the
    floor, is reported as `noise_floor` beside the lower end
    `noise_floor_low`.  Every row is sampled first, one integrator per
    operator; then the control search and the row searches, each
    independent of the others, run on `cfg.threads` workers, and the CSV
    rows are written in schedule order as their results arrive, so the
    output is the same for any worker count.  `timer` collects the wall
    clock of the assembly, sampling and GH-search stages.
    """
    clock = timer or StudyTimer()
    mesh = cfg.make_mesh()
    f = cfg.make_nonlinearity()
    op_ref = cfg.reference_operator()

    def sample_dists(op: DiscreteOperator, *seeds: int) -> list[np.ndarray]:
        # one integrator per operator, freed before the searches
        integ = WaveIntegrator(op, f, cfg.dt)
        return [x0_dist(sample_attractor(integ, cfg.sampler, seed, states_only=True), op) for seed in seeds]

    with clock.stage("continuity.sample"):
        dist_ref, *dists = sample_dists(op_ref, cfg.seed, cfg.seed + 1)
    devs: list[tuple[float, float, float]] = []
    for h in cfg.maps():
        with clock.stage("continuity.assemble"):
            op = pullback_operator(mesh, h)
        devs.append((h.delta, *deviation_norms(op.coeffs)))
        with clock.stage("continuity.sample"):
            dists += sample_dists(op, cfg.seed)

    def search(dist: np.ndarray, budget: int):
        return gh_upper(dist_ref, dist, budget, cfg.seed)

    budgets = [1] + [cfg.budget] * len(devs)  # the control first
    header = ["delta", "det_dev", "hbar_dev", "gh_lower", "gh_upper", "restarts_used", "exact"]
    writer = CsvWriter(Path(out_dir) / "continuity.csv", header) if out_dir else None
    rows: list[ContinuityRow] = []
    # the stage is opened here, not in the workers: StudyTimer is not thread-safe;
    # the pool starts no thread when the plain map runs instead
    try:
        with clock.stage("continuity.search"), ThreadPoolExecutor(cfg.threads) as pool:
            ests = pool.map(search, dists, budgets) if cfg.threads > 1 else map(search, dists, budgets)
            control = next(ests)
            for dev, est in zip(devs, ests):
                row = ContinuityRow(*dev, est.lower, est.value, est.restarts_used, est.exact)
                rows.append(row)
                if writer:
                    writer.row(list(asdict(row).values()))
    finally:
        if writer:
            writer.close()
    ups = [r.gh_up for r in rows]
    monotone = all(b <= a + 1e-15 for a, b in zip(ups, ups[1:]))
    below = ups[-1] < 3.0 * control.lower if rows else False
    margin = 3.0 * control.lower - ups[-1] if rows else None
    slope = _log_slope([r.delta for r in rows], ups)
    return ContinuityResult(rows, control.value, control.lower, monotone, below, margin, slope)


def _log_slope(x: list[float], y: list[float]) -> float | None:
    """Least-squares slope of log y against log x; None without two positive points."""
    if len(x) < 2 or min(x + y) <= 0.0:
        return None
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def build_flow_pair(flow_a: np.ndarray, flow_b: np.ndarray, op: DiscreteOperator) -> tuple[np.ndarray, ...]:
    """The arrays `dgh_dynamical` reads for two flow tables (n, q, 2 dim), under `op`'s X^0 form: (cost, dx, dy).

    Both flows are measured in the same metric.  The flow cost is c[x, y] =
    max_j d(flow_a[x, j], flow_b[y, j]), the square root of a running
    maximum over the q flow times of one `x0_sqdist` each, so that one
    n_a x n_b block of squared distances is alive at a time; dx and dy are
    the `x0_dist` of each table's time-0 states.  The two tables must have
    the same number of flow times.
    """
    if flow_a.shape[1] != flow_b.shape[1]:
        raise ValueError("flow tables must share the time grid")
    worst = x0_sqdist(flow_a[:, 0], flow_b[:, 0], op)
    for j in range(1, flow_a.shape[1]):
        np.maximum(worst, x0_sqdist(flow_a[:, j], flow_b[:, j], op), out=worst)
    return np.sqrt(worst, out=worst), x0_dist(flow_a[:, 0], op), x0_dist(flow_b[:, 0], op)


@dataclass
class StabilityResult(_StudyResult):
    study: ClassVar[str] = "stability"
    delta_full: float
    delta_half: float
    eps_full: float
    eps_half: float
    certified_full: bool
    certified_half: bool
    exact_full: bool
    exact_half: bool

    @property
    def passed(self) -> bool:
        return (
            self.certified_full
            and self.certified_half
            and self.eps_half <= self.eps_full + 1e-15
        )


def run_stability_study(cfg: ScenarioConfig, out_dir=None, timer: StudyTimer | None = None) -> StabilityResult:
    """Dynamical distance between two perturbed systems, then at half gap.

    The pair is (schedule[0], schedule[1]); the half-gap partner is the
    amplitude midpoint, which for amplitude-linear families halves the C^2
    distance exactly.  Both estimates must come with verified witnesses and
    the half-gap epsilon must not exceed the full-gap one.  Each system's
    flow table is its sample as `sample_attractor` returns it, read off
    its integrator's trajectory, so each sample is stepped once.  The two
    estimates run one after the other on one thread, so that one flow pair
    is alive at a time; `cfg.threads` does not enter this study.  `timer`
    collects the wall clock of the sampling, flow-pair and GH-search stages.
    A schedule of fewer than two amplitudes is a ConfigError before any work.
    """
    cfg.check_schedule(at_least=2)
    clock = timer or StudyTimer()
    mesh = cfg.make_mesh()
    f = cfg.make_nonlinearity()
    h_anchor, h_full = cfg.maps()[:2]
    h_half = cfg.make_map(0.5 * (cfg.schedule[0] + cfg.schedule[1]))

    grid = default_c2_grid(mesh.domain)
    d_full = c2_distance(h_anchor, h_full, grid)
    d_half = c2_distance(h_anchor, h_half, grid)

    op_univ = cfg.reference_operator()
    op_anchor = pullback_operator(mesh, h_anchor)
    op_full = pullback_operator(mesh, h_full)
    op_half = pullback_operator(mesh, h_half)

    with clock.stage("stability.sample"):
        flow_anchor, flow_full, flow_half = (
            sample_attractor(WaveIntegrator(op, f, cfg.dt), cfg.sampler, cfg.seed)
            for op in (op_anchor, op_full, op_half)
        )

    def estimate(flow_other: np.ndarray):
        with clock.stage("stability.flow_pair"):
            cost, dx, dy = build_flow_pair(flow_anchor, flow_other, op_univ)
        with clock.stage("stability.search"):
            return dgh_dynamical(cost, dx, dy, cfg.budget, cfg.seed)

    est_full = estimate(flow_full)
    est_half = estimate(flow_half)

    result = StabilityResult(
        d_full, d_half, est_full.value, est_half.value,
        est_full.certified, est_half.certified, est_full.exact, est_half.exact,
    )
    if out_dir:
        with CsvWriter(
            Path(out_dir) / "stability.csv",
            ["pair", "c2_gap", "eps", "certified", "exact"],
        ) as w:
            w.row(["full", d_full, est_full.value, est_full.certified, est_full.exact])
            w.row(["half", d_half, est_half.value, est_half.certified, est_half.exact])
    return result


GRONWALL_SLACK = 1.05  # largest accepted ratio of separation to the exp(C t) envelope


@dataclass
class EstimateResult(_StudyResult):
    study: ClassVar[str] = "estimates"
    gronwall_max_ratio: float
    gronwall_pairs: int
    gronwall_ok: bool
    envelope_rate: float
    envelope_overshoot: float
    envelope_ok: bool
    conjugation_errors: list[tuple[float, float]]  # (amplitude, max error)
    conjugation_ok: bool

    @property
    def passed(self) -> bool:
        return self.gronwall_ok and self.envelope_ok and self.conjugation_ok


def run_estimate_checks(cfg: ScenarioConfig, out_dir=None, timer: StudyTimer | None = None) -> EstimateResult:
    """Numerical confirmation of the three analytic workhorses.

    1. Trajectory-pair separation under the Gronwall envelope exp(Ct).
    2. Second-order energy under a decaying exponential envelope.
    3. Conjugated-flow error shrinking with the perturbation schedule.
    `dynamics` measures; the three verdicts are decided here, together: the
    largest pair ratio within GRONWALL_SLACK, an envelope b exp(-c t) with
    c > 0 (its crests fall) and an overshoot of at most 5% over it, and
    errors strictly falling to below 1e-3.
    `timer` collects the wall clock of each of the three checks.
    """
    clock = timer or StudyTimer()
    f = cfg.make_nonlinearity()
    op = cfg.reference_operator()

    def pair(k: int) -> np.ndarray:
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 7, k]))
        return np.column_stack([random_state(op, rng, radius=1.0, n_modes=cfg.sampler.n_modes) for _ in range(2)])

    # one integrator on the reference operator serves the pairs, stepped as
    # one stack, the energy trajectory and the conjugation reference flow T_0
    with clock.stage("estimates.gronwall"):
        integ = WaveIntegrator(op, f, cfg.dt)
        seps = pair_separations(np.stack([pair(k) for k in range(cfg.n_pairs)]), cfg.estimate_t_final, integ)
        max_ratio = max(lipschitz_envelope_check(sep, integ) for sep in seps)

    # single-frequency scenario: superpositions of modes carry beat patterns
    # whose peak heights scatter well beyond the 5% overshoot budget, so the
    # shape check rides the fundamental mode where the envelope is clean; the
    # 24 s horizon leaves >= 5 ripple crests in the fit window even when the
    # fundamental is slow (oscillation rate is at least sqrt(ell - 1/4))
    with clock.stage("estimates.energy"):
        s0 = calibration_state(op, radius=1.0)
        prof = energy_profile(*solve_trajectory(s0, 24.0, integ, record_every=5), op, f)

    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 5]))
    v0 = random_state(op, rng, radius=1.0, n_modes=4)
    # t = 0.1, 0.2, ..., 1.0 as whole steps, rounded as the sampler's flow grid is
    steps = [round(0.1 * k / cfg.dt) for k in range(1, 11)]
    conj: list[tuple[float, float]] = []
    with clock.stage("estimates.conjugation"):
        flow_0 = integ.record(v0, steps)
        for amp, h in zip(cfg.schedule, cfg.maps()):
            integ_n = WaveIntegrator(pullback_operator(op.mesh, h), f, cfg.dt)
            conj.append((amp, float(conjugated_flow_error(integ, flow_0, integ_n, v0, steps).max())))

    gronwall_ok = max_ratio <= GRONWALL_SLACK
    envelope_ok = prof.c > 0 and prof.overshoot <= 0.05
    errs = [e for _, e in conj]
    conj_ok = all(b < a for a, b in zip(errs, errs[1:])) and errs[-1] < 1e-3

    if out_dir:
        out = Path(out_dir)
        with CsvWriter(out / "gronwall.csv", ["pairs", "max_ratio"]) as w:
            w.row([cfg.n_pairs, max_ratio])
        with CsvWriter(out / "envelope.csv", ["rate", "overshoot"]) as w:
            w.row([prof.c, prof.overshoot])
        with CsvWriter(out / "conjugation.csv", ["amplitude", "max_error"]) as w:
            for a, e in conj:
                w.row([a, e])

    return EstimateResult(
        max_ratio,
        cfg.n_pairs,
        gronwall_ok,
        prof.c,
        prof.overshoot,
        envelope_ok,
        conj,
        conj_ok,
    )


def write_report(payloads: list[dict], out_dir) -> Path:
    """Deterministic report.json: version header plus one entry per study."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    doc = {"version": __version__, "studies": payloads}
    path = out / "report.json"
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return path


def write_timing(timings: dict[str, float], out_dir) -> Path:
    """Wall-clock sidecar; intentionally excluded from determinism checks."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "timing.json"
    path.write_text(json.dumps({k: round(v, 3) for k, v in timings.items()}, sort_keys=True, indent=2) + "\n")
    return path


class StudyTimer:
    """Wall-clock seconds per study and per named stage, for timing.json."""

    def __init__(self) -> None:
        self.timings: dict[str, float] = {}

    @contextmanager
    def stage(self, name: str):
        """Add the wall clock of the block to `name`; a stage may recur."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.timings[name] = self.timings.get(name, 0.0) + time.perf_counter() - t0
