"""Reference work for timing calibration: the same kind of work ghwave does, none of its code.

    python3 perfbench/reference.py

Imports numpy and scipy's sparse solvers, then advances a damped 1D wave
with a factorised sparse implicit step, as `WaveIntegrator.step` does, and
scores one map with dense broadcasting, as the GH descent does.  run.py
times whole runs of this script (interpreter start to exit) beside each
workload: when the host is slower, this slows with it, and no change to
ghwave can move it.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

N = 96
STEPS = 6000
DT = 0.004


def main() -> float:
    off = -np.ones(N - 1)
    K = sp.diags([off, 2.0 * np.ones(N), off], [-1, 0, 1], format="csr") * float(N * N)
    M = sp.diags([off / 6.0, np.full(N, 4.0 / 6.0), off / 6.0], [-1, 0, 1], format="csr")
    lu = splu(((1.0 + DT) * M + DT * DT * K).tocsc())
    u = np.sin(np.linspace(0.0, np.pi, N))
    v = np.zeros(N)
    energy = 0.0
    for _ in range(STEPS):
        rhs = M @ v - DT * (K @ u) - DT * (M @ (u + 0.5 * np.sin(u)))
        v = lu.solve(rhs)
        u = u + DT * v
        energy = float(np.sqrt(max(u @ (K @ u) + v @ (M @ v), 0.0)))
    rng = np.random.default_rng(0)
    dx, dy = rng.random((N, N)), rng.random((N, N))
    cur = rng.integers(0, N, N)
    worst = 0.0
    for _ in range(20):
        worst += float(np.abs(dx[:, None, :] - dy[None, :, :][:, :, cur]).max())
    return energy + worst


if __name__ == "__main__":
    main()
