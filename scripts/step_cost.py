#!/usr/bin/env python3
"""Cost of one `WaveIntegrator.step`, with each of its two kernels, on the
block shapes the shipped studies run and across the kernels' crossover.

    python3 scripts/step_cost.py

Five shipped shapes, each on its config's reference operator and time step:
47x8 (`stability_1d.cfg`, the sampler's IC block), 121x4 (`shear_2d.cfg`),
and 20x47x2, 47x2 and one 47-vector (`estimates_1d.cfg`: its 20 Gronwall
pairs stepped as one stack, one pair alone, and single trajectories; the
stack's cost a step is to be read against 20 times one pair's).  Four more put the sampler blocks of `stability_1d.cfg` and
`shear_2d.cfg` on finer meshes, 111x8 and 127x8 (resolutions 112 and 128)
and 144x4 and 225x4 (resolutions 13 and 16), at the config's dt or the
mesh's stability cap if that is smaller; these bracket
`operators.DENSE_MAX_DIM`.  The block is random low-mode states (fixed
seed); a stack is B such blocks, stepped in one run.  Per shape and kernel (the sparse step, one product with the
integrator's right-hand-side operator R' and one sparse LU solve, and the
dense step, one product with G) it prints the
best of REPEATS runs, in microseconds per step, of two loops: CHUNKS `record`
calls over the next STEPS steps, each one run of the integrator's step loop
(how every study steps), and the same number of bare `step` calls, each a
run of that loop for one step.  Each kernel steps the operator held as its
own representation (CSR matrices and SuperLU for the sparse step, dense
arrays and the Cholesky factor for the dense one); `*` marks the
representation `assemble_operators` picks, dense up to `DENSE_MAX_DIM`
unknowns.  The repeats
cycle through the shapes.  The states and the step count are the same on
every commit, so the printed numbers of two commits compare their per-step
cost on one machine.  OpenBLAS is held to one thread unless the environment
says otherwise.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import dataclasses
import time
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from ghwave.config import load_config
from ghwave.dynamics import WaveIntegrator, random_state, stability_cap
from ghwave.operators import DENSE_MAX_DIM

REPEATS, CHUNKS, STEPS = 15, 20, 50
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
KERNELS = ("sparse", "dense")
# (label, config, blocks of a stack or None for no stack, columns or None
# for a single (2 dim,) state, mesh resolution or None for the config's)
SHAPES = (
    ("stability_1d sampler", "stability_1d.cfg", None, 8, None),
    ("shear_2d sampler", "shear_2d.cfg", None, 4, None),
    ("estimates_1d pairs", "estimates_1d.cfg", 20, 2, None),
    ("estimates_1d pair", "estimates_1d.cfg", None, 2, None),
    ("estimates_1d single", "estimates_1d.cfg", None, None, None),
    ("stability_1d res 112", "stability_1d.cfg", None, 8, 112),
    ("stability_1d res 128", "stability_1d.cfg", None, 8, 128),
    ("shear_2d res 13", "shear_2d.cfg", None, 4, 13),
    ("shear_2d res 16", "shear_2d.cfg", None, 4, 16),
)


def integrator(op, f, dt: float, kernel: str) -> WaveIntegrator:
    """The integrator stepping with `kernel`, on `op` with M and K held as that kernel's representation."""
    if kernel == "dense" and not op.dense:
        op = dataclasses.replace(op, M=op.M.toarray(), K=op.K.toarray())
    elif kernel == "sparse" and op.dense:
        op = dataclasses.replace(op, M=sp.csr_matrix(op.M), K=sp.csr_matrix(op.K))
    integ = WaveIntegrator(op, f, dt)
    assert integ.dense == (kernel == "dense")
    return integ


def workload(name: str, b: int | None, k: int | None, resolution: int | None):
    """Both kernels' integrators on a shipped config's reference operator (at `resolution`), and a fixed random start:
    a stack of b blocks of k columns, a block, or one state."""
    cfg, diags = load_config(CONFIGS / name)
    if cfg is None:
        raise SystemExit(f"{name}: " + "; ".join(map(str, diags)))
    if resolution is not None:
        cfg = dataclasses.replace(cfg, resolution=resolution)
    op = cfg.reference_operator()
    dt = min(cfg.dt, stability_cap(op))
    integs = {kernel: integrator(op, cfg.make_nonlinearity(), dt, kernel) for kernel in KERNELS}
    rng = np.random.default_rng(2026)
    ics = [random_state(op, rng, cfg.sampler.radius, cfg.sampler.n_modes) for _ in range((b or 1) * (k or 1))]
    if k is None:
        return integs, ics[0]
    blocks = [np.column_stack(ics[i : i + k]) for i in range(0, len(ics), k)]
    return integs, blocks[0] if b is None else np.stack(blocks)


def recorded(integ: WaveIntegrator, start: np.ndarray) -> None:
    steps = np.arange(1, STEPS + 1)
    for _ in range(CHUNKS):
        integ.record(start, steps)


def bare(integ: WaveIntegrator, start: np.ndarray) -> None:
    for _ in range(CHUNKS):
        s = start
        for _ in range(STEPS):
            s = integ.step(s)


LOOPS = (recorded, bare)


def main() -> None:
    runs = [(label, *workload(name, b, k, res)) for label, name, b, k, res in SHAPES]
    best = {(label, kernel, loop): float("inf") for label, *_ in runs for kernel in KERNELS for loop in LOOPS}
    # the repeats go round the shapes, so a burst of load elsewhere on the
    # machine spoils one sample of each shape rather than every sample of one
    for _ in range(REPEATS):
        for label, integs, start in runs:
            for kernel, integ in integs.items():
                for loop in LOOPS:
                    t0 = time.perf_counter()
                    loop(integ, start)
                    best[label, kernel, loop] = min(best[label, kernel, loop], time.perf_counter() - t0)
    print(f"best of {REPEATS} x {CHUNKS} chunks of {STEPS} steps, microseconds per step; DENSE_MAX_DIM = {DENSE_MAX_DIM}")
    print(f"{'shape':>8}  {'workload':<20} {'dt':>9} {'kernel':<7} {'record':>8} {'step':>8}")
    for label, integs, start in runs:
        n = integs["dense"].op.n
        # a stack (B, 2 dim, k) prints as Bxnxk, a block as nxk, a state as nx1
        shape = "x".join(map(str, (*start.shape[:-2], n, start.shape[-1] if start.ndim > 1 else 1)))
        for kernel, integ in integs.items():
            us = [best[label, kernel, loop] / (CHUNKS * STEPS) * 1e6 for loop in LOOPS]
            picked = "*" if (kernel == "dense") == (n <= DENSE_MAX_DIM) else " "
            print(f"{shape:>8}  {label:<20} {integ.dt:>9.3g} {kernel + picked:<7} {us[0]:>8.1f} {us[1]:>8.1f}")


if __name__ == "__main__":
    main()
