"""Command-line front end for the study drivers.

Exit codes: 0 on a completed run, 2 on config problems (every diagnostic is
printed to stderr), 1 on runtime failure.  With --strict a completed study
whose verdict is negative also exits 1.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ScenarioConfig, load_config


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="scenario INI file")
    p.add_argument("--out", default=None, help="output directory (default: alongside config)")
    p.add_argument("--seed", type=int, default=None, help="override [run] seed")
    p.add_argument("--threads", type=int, default=None, help="override [run] threads")
    p.add_argument("--strict", action="store_true", help="exit 1 if the study verdict is negative")


def _load(args) -> ScenarioConfig | None:
    cfg, diags = load_config(args.config)
    if diags:
        for d in diags:
            print(str(d), file=sys.stderr)
        return None
    assert cfg is not None
    if args.seed is not None:
        cfg.seed = args.seed
    if args.threads is not None:
        cfg.threads = args.threads
    return cfg


def _out_dir(args) -> Path:
    out = Path(args.out) if args.out else Path(args.config).resolve().parent / "out"
    out.mkdir(parents=True, exist_ok=True)
    return out


def _run_study(args, name: str) -> int:
    from . import harness

    cfg = _load(args)
    if cfg is None:
        return 2
    out = _out_dir(args)
    timer = harness.StudyTimer()
    runner = {
        "continuity": harness.run_continuity_study,
        "stability": harness.run_stability_study,
        "estimates": harness.run_estimate_checks,
    }[name]
    result = timer.run(name, runner, cfg, out, timer=timer)
    harness.write_report([result.payload()], out)
    harness.write_timing(timer.timings, out)
    print(f"{name}: {'PASS' if result.passed else 'FAIL'}  (report: {out / 'report.json'})")
    if args.strict and not result.passed:
        return 1
    return 0


def _cmd_solve(args) -> int:
    import numpy as np

    from .dynamics import energy_profile, export_energy_csv, export_trajectory_csv, random_state, solve_trajectory

    cfg = _load(args)
    if cfg is None:
        return 2
    out = _out_dir(args)
    op = cfg.reference_operator()
    f = cfg.make_nonlinearity()
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 3]))
    s0 = random_state(op, rng, cfg.sampler.radius, cfg.sampler.n_modes)
    traj = solve_trajectory(s0, cfg.t_final, cfg.dt, op, f, record_every=max(1, int(round(cfg.t_final / cfg.dt)) // 400))
    prof = energy_profile(traj, f)
    export_trajectory_csv(traj, out / "trajectory.csv")
    export_energy_csv(prof, out / "energy.csv")
    print(
        f"solve: {len(traj.times)} snapshots to t={cfg.t_final}; "
        f"decay rate {prof.c:.4g}, envelope overshoot {prof.overshoot:.3%} "
        f"(files in {out})"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ghwave", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    for name, blurb in (
        ("continuity", "attractor GH distance along a shrinking perturbation schedule"),
        ("stability", "dynamical distance for a map pair, rechecked at half the C2 gap"),
        ("estimates", "Gronwall envelope, energy decay and conjugated-flow checks"),
    ):
        p = sub.add_parser(name, help=blurb)
        _add_common(p)
        p.set_defaults(fn=lambda a, n=name: _run_study(a, n))

    ps = sub.add_parser("solve", help="integrate one random initial state and dump CSVs")
    _add_common(ps)
    ps.set_defaults(fn=_cmd_solve)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # surfaced as a single stderr line for scripting
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
