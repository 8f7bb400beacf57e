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
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import __version__
from .config import ScenarioConfig
from .domains import c2_distance, default_c2_grid, deviation_norms
from .dynamics import (
    AttractorSample,
    calibration_state,
    conjugated_flow_error,
    energy_profile,
    lipschitz_envelope_check,
    random_state,
    sample_attractor,
    solve_trajectory,
    x0_sqdist,
)
from .ghmetric import FiniteMetricSpace, FlowSample, dgh_dynamical, gh_lower, gh_upper
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


class _StudyResult:
    """report.json entry of a study: its name, every field, and the verdict."""

    study: ClassVar[str]

    def payload(self) -> dict:
        return {"study": self.study, **asdict(self), "passed": self.passed}


@dataclass
class ContinuityResult(_StudyResult):
    study: ClassVar[str] = "continuity"
    rows: list[ContinuityRow]
    noise_floor: float
    monotone: bool
    below_floor: bool

    @property
    def passed(self) -> bool:
        return self.monotone and self.below_floor


def run_continuity_study(cfg: ScenarioConfig, out_dir=None, timer: StudyTimer | None = None) -> ContinuityResult:
    """Sampled-attractor GH distance against perturbation size.

    The reference operator is resampled with seed+1 as a same-distribution
    control; the resulting gh_upper value is the sampling noise floor that
    the smallest perturbation is compared against.  `timer` collects the
    wall clock of the assembly, sampling and GH-search stages.
    """
    clock = timer or StudyTimer()
    mesh = cfg.make_mesh()
    f = cfg.make_nonlinearity()
    family = cfg.make_family()
    op_ref = cfg.reference_operator()
    with clock.stage("continuity.sample"):
        sample_ref = sample_attractor(op_ref, f, cfg.sampler, cfg.seed)
        sample_ctrl = sample_attractor(op_ref, f, cfg.sampler, cfg.seed + 1)
    space_ref = FiniteMetricSpace(sample_ref.dist, validate=False)
    space_ctrl = FiniteMetricSpace(sample_ctrl.dist, validate=False)
    with clock.stage("continuity.search"):
        floor = gh_upper(space_ref, space_ctrl, cfg.budget, cfg.seed, cfg.threads).value

    writer = CsvWriter(Path(out_dir) / "continuity.csv", ["delta", "det_dev", "hbar_dev", "gh_lower", "gh_upper"]) if out_dir else None
    rows: list[ContinuityRow] = []
    try:
        for h in family.maps():
            with clock.stage("continuity.assemble"):
                op = pullback_operator(mesh, h)
            det_dev, hbar_dev = deviation_norms(op.coeffs)
            with clock.stage("continuity.sample"):
                sample = sample_attractor(op, f, cfg.sampler, cfg.seed)
            space = FiniteMetricSpace(sample.dist, validate=False)
            with clock.stage("continuity.search"):
                low = gh_lower(space_ref, space)
                up = gh_upper(space_ref, space, cfg.budget, cfg.seed, cfg.threads).value
            row = ContinuityRow(h.delta, det_dev, hbar_dev, low, up)
            rows.append(row)
            if writer:
                writer.row([row.delta, row.det_dev, row.hbar_dev, row.gh_low, row.gh_up])
    finally:
        if writer:
            writer.close()
    ups = [r.gh_up for r in rows]
    monotone = all(b <= a + 1e-15 for a, b in zip(ups, ups[1:]))
    below = ups[-1] < 3.0 * floor if rows else False
    return ContinuityResult(rows, floor, monotone, below)


def build_flow_pair(
    sa: AttractorSample, sb: AttractorSample, op: DiscreteOperator
) -> tuple[FlowSample, FlowSample]:
    """Embed two samples' flow tables in one universe under `op`'s X^0 form.

    All base points and flow images of both samples become rows of a single
    squared-distance matrix, so cross-sample and along-flow distances are
    taken in the same metric and the interpolation identity applies.
    """
    if sa.flow.shape[1] != sb.flow.shape[1]:
        raise ValueError("flow tables must share the time grid")
    na, mp1 = sa.flow.shape[0], sa.flow.shape[1]
    nb = sb.flow.shape[0]
    all_states = np.concatenate(
        [sa.flow.reshape(na * mp1, 2, -1), sb.flow.reshape(nb * mp1, 2, -1)], axis=0
    )
    d2 = x0_sqdist(all_states, op)
    d2 = 0.5 * (d2 + d2.T)
    np.fill_diagonal(d2, 0.0)
    ta = np.arange(na * mp1, dtype=np.intp).reshape(na, mp1)
    tb = (na * mp1 + np.arange(nb * mp1, dtype=np.intp)).reshape(nb, mp1)
    return FlowSample(d2, ta, sa.flow_times), FlowSample(d2, tb, sb.flow_times)


@dataclass
class StabilityResult(_StudyResult):
    study: ClassVar[str] = "stability"
    delta_full: float
    delta_half: float
    eps_full: float
    eps_half: float
    certified_full: bool
    certified_half: bool

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
    the half-gap epsilon must not exceed the full-gap one.  `timer` collects
    the wall clock of the sampling, flow-pair and GH-search stages.
    """
    if len(cfg.schedule) < 2:
        raise ValueError("stability study needs at least two schedule amplitudes")
    clock = timer or StudyTimer()
    mesh = cfg.make_mesh()
    f = cfg.make_nonlinearity()
    gen = cfg.make_family().generator
    a0, a1 = cfg.schedule[0], cfg.schedule[1]
    amid = 0.5 * (a0 + a1)
    h_anchor = gen(a0)
    h_full = gen(a1)
    h_half = gen(amid)

    d_full = _c2_gap(h_anchor, h_full, mesh)
    d_half = _c2_gap(h_anchor, h_half, mesh)

    op_univ = cfg.reference_operator()
    op_anchor = pullback_operator(mesh, h_anchor)
    op_full = pullback_operator(mesh, h_full)
    op_half = pullback_operator(mesh, h_half)

    with clock.stage("stability.sample"):
        s_anchor = sample_attractor(op_anchor, f, cfg.sampler, cfg.seed)
        s_full = sample_attractor(op_full, f, cfg.sampler, cfg.seed)
        s_half = sample_attractor(op_half, f, cfg.sampler, cfg.seed)

    def estimate(s_other: AttractorSample):
        # one flow universe alive at a time: it is the study's largest array
        with clock.stage("stability.flow_pair"):
            fx, fy = build_flow_pair(s_anchor, s_other, op_univ)
        with clock.stage("stability.search"):
            return dgh_dynamical(fx, fy, cfg.rho, cfg.budget, cfg.seed, cfg.threads)

    est_full = estimate(s_full)
    est_half = estimate(s_half)

    result = StabilityResult(
        d_full, d_half, est_full.value, est_half.value, est_full.certified, est_half.certified
    )
    if out_dir:
        with CsvWriter(
            Path(out_dir) / "stability.csv",
            ["pair", "c2_gap", "eps", "certified"],
        ) as w:
            w.row(["full", d_full, est_full.value, est_full.certified])
            w.row(["half", d_half, est_half.value, est_half.certified])
    return result


def _c2_gap(h, g, mesh) -> float:
    grid = default_c2_grid(mesh.domain, 1001 if mesh.domain.dim == 1 else 201)
    return c2_distance(h, g, grid)


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
    `timer` collects the wall clock of each of the three checks.
    """
    clock = timer or StudyTimer()
    f = cfg.make_nonlinearity()
    op = cfg.reference_operator()

    max_ratio, gronwall_ok = 0.0, True
    with clock.stage("estimates.gronwall"):
        for k in range(cfg.n_pairs):
            rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 7, k]))
            s0 = random_state(op, rng, radius=1.0, n_modes=cfg.sampler.n_modes)
            s1 = random_state(op, rng, radius=1.0, n_modes=cfg.sampler.n_modes)
            chk = lipschitz_envelope_check(s0, s1, cfg.estimate_t_final, cfg.dt, op, f)
            max_ratio = max(max_ratio, chk.max_ratio)
            gronwall_ok = gronwall_ok and chk.passed

    # single-frequency scenario: superpositions of modes carry beat patterns
    # whose peak heights scatter well beyond the 5% overshoot budget, so the
    # shape check rides the fundamental mode where the envelope is clean; the
    # 24 s horizon leaves >= 5 ripple crests in the fit window even when the
    # fundamental is slow (oscillation rate is at least sqrt(ell - 1/4))
    with clock.stage("estimates.energy"):
        s0 = calibration_state(op, radius=1.0)
        traj = solve_trajectory(s0, 24.0, cfg.dt, op, f, record_every=5)
        prof = energy_profile(traj, f)
    envelope_ok = prof.c > 0 and prof.overshoot <= 0.05

    family = cfg.make_family()
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 5]))
    v0 = random_state(op, rng, radius=1.0, n_modes=4)
    t_grid = np.linspace(0.0, 1.0, 11)[1:]
    conj: list[tuple[float, float]] = []
    with clock.stage("estimates.conjugation"):
        for amp, h in zip(family.schedule, family.maps()):
            conj.append((amp, float(conjugated_flow_error(h, v0, t_grid, op, f, cfg.dt).max())))
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

    def run(self, name: str, fn, *args, **kwargs):
        with self.stage(name):
            return fn(*args, **kwargs)

    @contextmanager
    def stage(self, name: str):
        """Add the wall clock of the block to `name`; a stage may recur."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.timings[name] = self.timings.get(name, 0.0) + time.perf_counter() - t0
