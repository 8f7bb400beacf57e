#!/usr/bin/env python3
"""Cost of one `WaveIntegrator.step` on the block shapes the shipped studies run.

    python3 scripts/step_cost.py

Four shapes, each on its shipped config's reference operator and time step:
47x8 (`stability_1d.cfg`, the sampler's IC block), 121x4 (`shear_2d.cfg`),
and 47x2 and one 47-vector (`estimates_1d.cfg`: Gronwall pairs, and single
trajectories).  The block is random low-mode states (fixed seed).  Per shape
it prints the best of REPEATS runs, in microseconds per step, of two loops:
CHUNKS `record` calls over the next STEPS steps (how every study steps), and
the same number of bare `step` calls.  The repeats cycle through the shapes.
The states and the step count are the same on every commit, so the printed
numbers of two commits compare their per-step cost on one machine.  OpenBLAS
is held to one thread unless the environment says otherwise.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import time
from pathlib import Path

import numpy as np

from ghwave.config import load_config
from ghwave.dynamics import StateVector, WaveIntegrator, random_state

REPEATS, CHUNKS, STEPS = 15, 20, 50
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# (label, config, columns or None for a single (dim,) state, dt of the stepping path)
SHAPES = (
    ("stability_1d sampler", "stability_1d.cfg", 8, "sampler"),
    ("shear_2d sampler", "shear_2d.cfg", 4, "sampler"),
    ("estimates_1d pair", "estimates_1d.cfg", 2, "solver"),
    ("estimates_1d single", "estimates_1d.cfg", None, "solver"),
)


def workload(name: str, k: int | None, dt_from: str):
    """The reference-operator integrator of a shipped config and a fixed random start block."""
    cfg, diags = load_config(CONFIGS / name)
    if cfg is None:
        raise SystemExit(f"{name}: " + "; ".join(map(str, diags)))
    op = cfg.reference_operator()
    dt = cfg.sampler.dt if dt_from == "sampler" else cfg.dt
    integ = WaveIntegrator(op, cfg.make_nonlinearity(), dt)
    rng = np.random.default_rng(2026)
    ics = [random_state(op, rng, cfg.sampler.radius, cfg.sampler.n_modes) for _ in range(k or 1)]
    start = ics[0] if k is None else StateVector(np.column_stack([s.u for s in ics]), np.column_stack([s.v for s in ics]))
    return integ, start


def recorded(integ: WaveIntegrator, start: StateVector) -> None:
    grid = np.arange(1, STEPS + 1) * integ.dt
    for _ in range(CHUNKS):
        integ.record(start, grid)


def bare(integ: WaveIntegrator, start: StateVector) -> None:
    for _ in range(CHUNKS):
        s = start
        for _ in range(STEPS):
            s = integ.step(s)


def main() -> None:
    runs = [(label, k, *workload(name, k, dt_from)) for label, name, k, dt_from in SHAPES]
    best = {(label, loop): float("inf") for label, *_ in runs for loop in (recorded, bare)}
    # the repeats go round the shapes, so a burst of load elsewhere on the
    # machine spoils one sample of each shape rather than every sample of one
    for _ in range(REPEATS):
        for label, _k, integ, start in runs:
            for loop in (recorded, bare):
                t0 = time.perf_counter()
                loop(integ, start)
                best[label, loop] = min(best[label, loop], time.perf_counter() - t0)
    print(f"best of {REPEATS} x {CHUNKS} chunks of {STEPS} steps, microseconds per step")
    print(f"{'shape':>7}  {'workload':<20} {'dt':>7} {'record':>8} {'step':>8}")
    for label, k, integ, start in runs:
        us = [best[label, loop] / (CHUNKS * STEPS) * 1e6 for loop in (recorded, bare)]
        shape = f"{start.u.shape[0]}x{k or 1}"
        print(f"{shape:>7}  {label:<20} {integ.dt:>7g} {us[0]:>8.1f} {us[1]:>8.1f}")


if __name__ == "__main__":
    main()
