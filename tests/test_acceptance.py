"""End-to-end acceptance suite.

Each test checks one shipped guarantee, records a single PASS/FAIL line in
the terminal summary (see conftest), and enforces a wall-clock budget.  The
two study tests run the shipped configs at full scale, so this module is the
slow part of the suite.
"""

import json
from pathlib import Path

import numpy as np

from ghwave.cli import main
from ghwave.config import ScenarioConfig, load_config
from ghwave.domains import ReferenceDomain
from ghwave.dynamics import (
    StateVector,
    calibration_state,
    conjugated_flow_error,
    energy_profile,
    lipschitz_envelope_check,
    random_state,
    solve_trajectory,
)
from ghwave.ghmetric import FiniteMetricSpace, gh_exact, gh_lower, gh_upper
from ghwave.harness import run_continuity_study, run_stability_study
from ghwave.operators import Mesh, NonlinearitySpec, identity_operator

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _load(name):
    cfg, diags = load_config(CONFIGS / name)
    assert cfg is not None, diags
    return cfg


def test_eigenvalue_fidelity(verdict):
    lam_1d = identity_operator(Mesh(ReferenceDomain.interval(0.0, 1.0), 256)).lambda1
    err_1d = abs(lam_1d - np.pi**2) / np.pi**2
    lam_2d = identity_operator(
        Mesh(ReferenceDomain.rectangle(0.0, 1.0, 0.0, 1.0), 64)
    ).lambda1
    err_2d = abs(lam_2d - 2.0 * np.pi**2) / (2.0 * np.pi**2)
    verdict(
        err_1d < 1e-3 and err_2d < 5e-3,
        f"interval rel err {err_1d:.2e} (<1e-3), square rel err {err_2d:.2e} (<5e-3)",
        budget=5.0,
    )


def test_solver_time_order(verdict):
    # damped single pencil mode from rest: alpha'' + alpha' + lambda alpha = 0,
    # alpha(t) = e^{-t/2}(cos wt + sin wt / 2w); on (0, pi) w is close to
    # sqrt(3)/2.  Using the discrete lambda keeps spatial error out of the
    # time-order measurement.
    op = identity_operator(Mesh(ReferenceDomain.interval(0.0, np.pi), 32))
    f = NonlinearitySpec(f=lambda u: np.zeros_like(u), l=1.0)
    n = op.mesh.resolution
    h = op.mesh.spacing[0]
    lam = (4 / h**2) * np.tan(np.pi / (2 * n)) ** 2
    w = np.sqrt(lam - 0.25)
    x = op.mesh.nodes[op.mesh.interior_idx, 0]
    phi = np.sin(x)
    t_final = 2.0
    alpha = np.exp(-t_final / 2) * (np.cos(w * t_final) + np.sin(w * t_final) / (2 * w))
    errs = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        traj = solve_trajectory(StateVector(phi.copy(), np.zeros_like(phi)), t_final, dt, op, f)
        errs.append(float(np.abs(traj.states.u[:, -1] - alpha * phi).max()))
    orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    verdict(
        min(orders) >= 1.9,
        f"observed orders {orders[0]:.2f}, {orders[1]:.2f} (each >= 1.9), w = {w:.4f}",
        budget=10.0,
    )


def test_pairwise_growth_envelope(verdict):
    cfg = ScenarioConfig()
    op = identity_operator(cfg.make_mesh())
    f = cfg.make_nonlinearity()
    worst = 0.0
    n_pairs = 20
    for k in range(n_pairs):
        rng = np.random.default_rng(np.random.SeedSequence([99, k]))
        s0 = random_state(op, rng, radius=1.0, n_modes=8)
        s1 = random_state(op, rng, radius=1.0, n_modes=8)
        chk = lipschitz_envelope_check(s0, s1, 2.0, cfg.dt, op, f)
        worst = max(worst, chk.max_ratio)
    verdict(
        worst <= 1.05,
        f"max separation ratio {worst:.4f} over {n_pairs} pairs (<= 1.05)",
        budget=60.0,
    )


def test_energy_decay_envelope(verdict):
    cfg = ScenarioConfig()
    op = identity_operator(cfg.make_mesh())
    f = cfg.make_nonlinearity()
    s0 = calibration_state(op, radius=1.0)
    traj = solve_trajectory(s0, 24.0, cfg.dt, op, f, record_every=5)
    prof = energy_profile(traj, f)
    verdict(
        prof.c > 0 and prof.overshoot <= 0.05,
        f"rate {prof.c:.5f} (> 0), overshoot {100 * prof.overshoot:.3f}% (<= 5%)",
        budget=60.0,
    )


def test_conjugated_flow_convergence(verdict):
    cfg = ScenarioConfig()
    f = cfg.make_nonlinearity()
    family = cfg.make_family()
    assert len(family.schedule) == 5
    op = identity_operator(cfg.make_mesh())
    rng = np.random.default_rng(np.random.SeedSequence([99, 5]))
    v0 = random_state(op, rng, radius=1.0, n_modes=4)
    t_grid = np.linspace(0.0, 1.0, 11)[1:]
    errs = [
        conjugated_flow_error(h, v0, t_grid, op, f, cfg.dt).max()
        for h in family.maps()
    ]
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    verdict(
        decreasing and errs[-1] < 1e-3,
        f"max errors {', '.join(f'{e:.2e}' for e in errs)} strictly decreasing, "
        f"final < 1e-3",
        budget=120.0,
    )


def _euclidean_space(rng) -> FiniteMetricSpace:
    n = int(rng.integers(1, 7))
    pts = rng.uniform(size=(n, 2))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    return FiniteMetricSpace(d, validate=False)


def test_distance_estimator_agreement(verdict):
    two_a = FiniteMetricSpace(np.array([[0.0, 2.0], [2.0, 0.0]]))
    two_b = FiniteMetricSpace(np.array([[0.0, 3.0], [3.0, 0.0]]))
    one = FiniteMetricSpace(np.zeros((1, 1)))
    frozen_ok = gh_exact(two_a, two_b) == 1.0 and gh_exact(one, two_b) == 3.0

    rng = np.random.default_rng(20260816)
    hits = 0
    never_below = True
    lower_ok = True
    for _ in range(100):
        X = _euclidean_space(rng)
        Y = _euclidean_space(rng)
        exact = gh_exact(X, Y)
        up = gh_upper(X, Y, budget=200, seed=7).value
        never_below &= up >= exact - 1e-9
        lower_ok &= gh_lower(X, Y) <= exact + 1e-9
        hits += up <= exact + 1e-9
    verdict(
        frozen_ok and never_below and lower_ok and hits >= 90,
        f"upper hit exact {hits}/100 (>= 90), never below: {never_below}, "
        f"lower <= exact: {lower_ok}, frozen instances: {frozen_ok}",
        budget=60.0,
    )


def test_continuity_study(verdict, tmp_path):
    cfg = _load("continuity_1d.cfg")
    res = run_continuity_study(cfg, out_dir=tmp_path)
    assert len(res.rows) == 5
    ups = [r.gh_up for r in res.rows]
    verdict(
        res.monotone and res.below_floor,
        f"gh_upper {', '.join(f'{u:.2e}' for u in ups)} nonincreasing, "
        f"final vs 3x floor {3 * res.noise_floor:.2e}",
        budget=600.0,
    )


def test_stability_study(verdict, tmp_path):
    cfg = _load("stability_1d.cfg")
    res = run_stability_study(cfg, out_dir=tmp_path)
    verdict(
        res.certified_full and res.certified_half and res.eps_half <= res.eps_full,
        f"certified eps {res.eps_full:.2e} at gap {res.delta_full:.3f}, "
        f"{res.eps_half:.2e} at gap {res.delta_half:.3f} (not larger)",
        budget=600.0,
    )


def test_reproducibility_across_threads(verdict, tmp_path):
    cfg_path = str(CONFIGS / "determinism_tiny.cfg")
    outs = []
    for tag, threads in (("t1", "1"), ("t4", "4")):
        out = tmp_path / tag
        rc = main(["continuity", "--config", cfg_path, "--out", str(out), "--threads", threads])
        assert rc == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    compared = [n for n in names if n != "timing.json"]
    identical = all(
        (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in compared
    )
    verdict(
        identical and len(compared) >= 2,
        f"{', '.join(compared)} byte-identical at 1 and 4 threads",
        budget=60.0,
    )
