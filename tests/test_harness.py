"""Study drivers, CSV/report determinism, and the CLI front end."""

import dataclasses
import json
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ghwave.cli import main
from ghwave.config import ScenarioConfig, load_config, parse_config
from ghwave.dynamics import (
    SamplerConfig,
    WaveIntegrator,
    gronwall_rate,
    lipschitz_envelope_check,
    pair_separations,
    random_state,
    sample_attractor,
    x0_dist,
    x0_sqdist,
)
from ghwave import harness
from ghwave.harness import (
    CsvWriter,
    build_flow_pair,
    run_continuity_study,
    run_estimate_checks,
    run_stability_study,
    write_report,
    write_timing,
)
from ghwave.ghmetric import dgh_dynamical, gh_upper
from ghwave.operators import Mesh, NormPack, default_nonlinearity, identity_operator, pullback_operator, x_norm
from ghwave.domains import ReferenceDomain

UNIT = ReferenceDomain("interval", ((0.0, 1.0),))

_FAST_SAMPLER = SamplerConfig(
    n_ics=2,
    radius=1.0,
    t_transient=1.0,
    t_window=1.0,
    stride=50,
    max_points=8,
    flow_grid_m=3,
    n_modes=4,
)


def test_csv_writer_format(tmp_path):
    p = tmp_path / "t.csv"
    with CsvWriter(p, ["a", "b", "ok"]) as w:
        w.row([1.0 / 3.0, 2, True])
        w.row([0.5, -1.5, False])
    lines = p.read_text().splitlines()
    assert lines[0] == "a,b,ok"
    assert lines[1].startswith("0.333333333333333")
    assert lines[1].endswith(",2,1")
    assert lines[2] == "0.5,-1.5,0"


def test_csv_writer_creates_directories(tmp_path):
    p = tmp_path / "deep" / "nest" / "t.csv"
    with CsvWriter(p, ["x"]) as w:
        w.row([1])
    assert p.exists()


def test_csv_writer_byte_identical_across_runs(tmp_path):
    rows = [[0.1, 7], [np.float64(2.5), -1]]
    out = []
    for name in ("a.csv", "b.csv"):
        p = tmp_path / name
        with CsvWriter(p, ["x", "k"]) as w:
            for r in rows:
                w.row(r)
        out.append(p.read_bytes())
    assert out[0] == out[1]


def test_report_layout_and_determinism(tmp_path):
    payloads = [{"study": "demo", "passed": True, "value": 0.25}]
    p1 = write_report(payloads, tmp_path / "r1")
    p2 = write_report(payloads, tmp_path / "r2")
    assert p1.read_bytes() == p2.read_bytes()
    doc = json.loads(p1.read_text())
    assert set(doc) == {"version", "studies"}
    assert doc["studies"][0]["study"] == "demo"


def test_timing_sidecar_separate_from_report(tmp_path):
    write_report([], tmp_path)
    write_timing({"continuity": 12.3456789}, tmp_path)
    timing = json.loads((tmp_path / "timing.json").read_text())
    report = json.loads((tmp_path / "report.json").read_text())
    assert timing == {"continuity": 12.346}
    assert "timing" not in report


def test_timing_sidecar_records_study_stages(tmp_path):
    # each study reports its stages' wall clock beside its own total; the
    # stages nest inside the study, and none of it reaches report.json
    cfg = Path(__file__).resolve().parents[1] / "configs" / "determinism_tiny.cfg"
    stages = {
        "continuity": {"sample", "assemble", "search"},
        "stability": {"sample", "flow_pair", "search"},
        "estimates": {"gronwall", "energy", "conjugation"},
    }
    for study, names in stages.items():
        out = tmp_path / study
        assert main([study, "--config", str(cfg), "--out", str(out)]) == 0
        timing = json.loads((out / "timing.json").read_text())
        assert set(timing) == {study} | {f"{study}.{n}" for n in names}
        assert sum(timing[f"{study}.{n}"] for n in names) <= timing[study] + 0.002 * len(names)
        assert study + "." not in (out / "report.json").read_text()


def test_build_flow_pair_universe_indices():
    op = identity_operator(Mesh(UNIT, 16))
    integ = WaveIntegrator(op, default_nonlinearity(), 0.01)
    fa = sample_attractor(integ, _FAST_SAMPLER, seed=1)
    fb = sample_attractor(integ, _FAST_SAMPLER, seed=2)
    cost, dx, dy = build_flow_pair(fa, fb, op)
    na, nb = len(fa), len(fb)
    # one flow cost for every base point of one sample against every one of the other's
    assert cost.shape == (na, nb)
    assert dx.shape == (na, na) and dy.shape == (nb, nb)
    # the base metrics are each sample's own distance matrix when the
    # shared operator is the sample's own (same op here, so exactly)
    assert np.array_equal(dx, x0_dist(fa[:, 0], op))
    assert np.array_equal(dy, x0_dist(fb[:, 0], op))
    # the cost bounds the distance of the base points, its time-0 term
    assert (cost >= x0_sqdist(fa[:, 0], fb[:, 0], op) ** 0.5).all()


def _one_product_sqdist(rows, cols, op):
    """x0_sqdist's (G_aa + G_bb) - 2 G_ab, clipped at 0, with G_ab one product
    over all rows, and G_aa the diagonal of each set's own Gram."""

    def gram(a, b):
        G = a[:, : op.n] @ (op.K @ b[:, : op.n].T)
        G += a[:, op.n :] @ (op.M @ b[:, op.n :].T)
        return G

    G = gram(rows, cols)
    G *= 2.0
    d2 = np.diag(gram(rows, rows))[:, None] + np.diag(gram(cols, cols))[None, :]
    d2 -= G
    return np.maximum(d2, 0.0, out=d2)


def test_build_flow_pair_matches_the_universe():
    # the stability study's first pair at its shipped size (96 points, 11
    # flow times): the cost holds the bits of the square root of the maximum
    # over the diagonal time blocks cross[j::q, j::q] of one product over
    # every flow state of both samples, and the base metrics those of the
    # square roots of its time-0 blocks, symmetrized, so that dgh_dynamical
    # finds the same maps and flags on either
    cfg, diags = load_config(Path(__file__).resolve().parents[1] / "configs" / "stability_1d.cfg")
    assert not diags
    mesh, f = cfg.make_mesh(), cfg.make_nonlinearity()
    fa, fb = (
        sample_attractor(WaveIntegrator(pullback_operator(mesh, h), f, cfg.dt), cfg.sampler, cfg.seed)
        for h in cfg.maps()[:2]
    )
    op = cfg.reference_operator()
    cost, dx, dy = build_flow_pair(fa, fb, op)
    n, q = fa.shape[:2]
    a = n * q
    flows = np.concatenate([fa.reshape(a, -1), fb.reshape(a, -1)])  # flow state (i, j) at row i * q + j
    cross = _one_product_sqdist(flows, flows, op)
    want_cost = np.sqrt(np.max([cross[j:a:q, a + j :: q] for j in range(q)], axis=0))

    def base(d2):
        d = np.sqrt(d2)
        d = 0.5 * (d + d.T)
        np.fill_diagonal(d, 0.0)
        return d

    want_dx, want_dy = base(cross[0:a:q, 0:a:q]), base(cross[a::q, a::q])
    assert np.array_equal(cost, want_cost)
    assert np.array_equal(dx, want_dx) and np.array_equal(dy, want_dy)
    got, ref = dgh_dynamical(cost, dx, dy, 4, cfg.seed), dgh_dynamical(want_cost, want_dx, want_dy, 4, cfg.seed)
    assert got.value == ref.value
    assert (got.forward_flow_eps, got.backward_flow_eps) == (ref.forward_flow_eps, ref.backward_flow_eps)
    assert (got.certified, got.exact) == (ref.certified, ref.exact) == (True, True)
    np.testing.assert_array_equal(got.forward, ref.forward)
    np.testing.assert_array_equal(got.backward, ref.backward)


def test_build_flow_pair_peak_memory_below_one_universe():
    # two synthetic 96-point flow tables with 11 flow times each: the pair is
    # built within 1 MB, its three 96 x 96 arrays (0.22 MB) with one time
    # block's temporaries, far from the 0.8 MB of eleven stacked 96 x 96
    # blocks, the 9 MB of one cross table over all flow states and the 36 MB
    # of one (96 + 96) * 11 square
    op = identity_operator(Mesh(UNIT, 48))
    rng = np.random.default_rng(0)
    fa, fb = rng.standard_normal((2, 96, 11, 2 * op.n))
    tracemalloc.start()
    try:
        build_flow_pair(fa, fb, op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1e6


def test_build_flow_pair_refuses_different_time_grids():
    # two samples recorded at different numbers of flow times: the flow
    # columns would not be comparable
    op = identity_operator(Mesh(UNIT, 16))
    integ = WaveIntegrator(op, default_nonlinearity(), 0.01)
    fa = sample_attractor(integ, _FAST_SAMPLER, seed=1)
    fb = sample_attractor(integ, dataclasses.replace(_FAST_SAMPLER, flow_grid_m=4), seed=1)
    with pytest.raises(ValueError, match="share the time grid"):
        build_flow_pair(fa, fb, op)


@pytest.mark.parametrize("study", ["continuity", "stability"])
def test_sampling_study_steps_each_sample_once(study, monkeypatch):
    # the sampler keeps each sample off the trajectory of the integrator it
    # is given, with no record call: one integrator per operator, so the
    # continuity study's reference integrator samples both the seed and the
    # seed+1 control (1 + one per schedule row), and the stability study
    # builds one per sample (anchor, full gap, half gap)
    cfg, diags = load_config(Path(__file__).resolve().parents[1] / "configs" / "determinism_tiny.cfg")
    assert not diags
    calls = []
    real_init, real_record = WaveIntegrator.__init__, WaveIntegrator.record

    def init(self, *args):
        calls.append("init")
        real_init(self, *args)

    def record(self, z, steps):
        calls.append("record")
        return real_record(self, z, steps)

    monkeypatch.setattr(WaveIntegrator, "__init__", init)
    monkeypatch.setattr(WaveIntegrator, "record", record)
    {"continuity": run_continuity_study, "stability": run_stability_study}[study](cfg)
    assert len(cfg.schedule) == 2
    assert calls == ["init"] * 3


_TINY = Path(__file__).resolve().parents[1] / "configs" / "determinism_tiny.cfg"


def test_estimates_study_steps_the_pairs_as_one_stack_and_v0_once(monkeypatch):
    # the estimates study on determinism_tiny.cfg: the 20 Gronwall pairs are
    # stepped only as one stack of (2 dim, 2) blocks, in chunks that cover
    # the horizon once, and no pair is stepped alone; the reference flow
    # T_0 V0 is recorded once, beside the calibration trajectory, and each
    # perturbed integrator records V0 once
    cfg, diags = load_config(_TINY)
    assert not diags
    integs, records, stepped = [], [], []
    real_init, real_record, real_steps = WaveIntegrator.__init__, WaveIntegrator.record, WaveIntegrator._steps

    def init(self, *args):
        integs.append(self)
        real_init(self, *args)

    def record(self, z, steps):
        records.append((integs.index(self), np.shape(z), list(steps)))
        return real_record(self, z, steps)

    def steps_loop(self, z, marks, out=None):
        stepped.append(z.shape)
        return real_steps(self, z, marks, out)

    monkeypatch.setattr(WaveIntegrator, "__init__", init)
    monkeypatch.setattr(WaveIntegrator, "record", record)
    monkeypatch.setattr(WaveIntegrator, "_steps", steps_loop)
    run_estimate_checks(cfg)
    dim2 = 2 * cfg.reference_operator().n
    assert len(integs) == 1 + len(cfg.schedule)
    stack = [r for r in records if len(r[1]) == 3]
    assert {(i, shape) for i, shape, _ in stack} == {(0, (cfg.n_pairs, dim2, 2))}
    assert sum(len(steps) for *_, steps in stack) == round(cfg.estimate_t_final / cfg.dt)
    assert (dim2, 2) not in stepped
    conj_steps = [round(0.1 * k / cfg.dt) for k in range(1, 11)]
    singles = [(i, steps == conj_steps) for i, shape, steps in records if shape == (dim2,)]
    assert sorted(singles) == [(0, False), *((i, True) for i in range(len(integs)))]
    assert len(records) == len(stack) + len(singles)


def _per_pair_ratio(s0, s1, t_final, integ):
    """The Gronwall ratio as each pair was measured before pairs were stepped as one
    stack: the pair's whole trajectory recorded alone as a (2 dim, 2) block."""
    op, dt = integ.op, integ.dt
    pack = NormPack(op)
    z0 = x_norm(s0 - s1, pack, 0)
    steps = np.arange(1, int(round(t_final / dt)) + 1)
    pair = integ.record(np.column_stack([s0, s1]), steps)
    sep = x_norm(pair[:, 0] - pair[:, 1], pack, 0)
    return float((sep / (z0 * np.exp(gronwall_rate(integ.f, op) * steps * dt))).max())


def test_gronwall_stage_peak_memory_below_the_per_pair_loop():
    # the study's 20 pairs on determinism_tiny.cfg (23 unknowns, 200 steps),
    # each path measured alone with tracemalloc: the stack in chunks of 10
    # steps peaks at 299 KB and the per-pair loop it replaced at 356 KB, a
    # margin of 57 KB (16%).  A chunk's record, the size of one pair's whole
    # record, is freed before its norms are taken
    cfg, diags = load_config(_TINY)
    assert not diags
    op = cfg.reference_operator()
    integ = WaveIntegrator(op, cfg.make_nonlinearity(), cfg.dt)
    gronwall_rate(integ.f, op)  # lambda1 is computed once, on first use
    pairs = []
    for k in range(cfg.n_pairs):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 7, k]))
        pairs.append(np.column_stack([random_state(op, rng, 1.0, cfg.sampler.n_modes) for _ in range(2)]))
    stack = np.stack(pairs)

    def stacked():
        return max(lipschitz_envelope_check(sep, integ) for sep in pair_separations(stack, cfg.estimate_t_final, integ))

    def per_pair():
        return max(_per_pair_ratio(*pair.T, cfg.estimate_t_final, integ) for pair in pairs)

    peaks, ratios = {}, {}
    for run in (per_pair, stacked):
        tracemalloc.start()
        try:
            ratios[run] = run()
            peaks[run] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert ratios[stacked] == ratios[per_pair]
    assert peaks[stacked] <= peaks[per_pair]


def test_stability_pairs_certified_whatever_the_budget():
    # the stability study's two flow pairs on determinism_tiny.cfg: both
    # directions' start maps are certified optimal, so the search budget
    # (and with it the multistart descent) no longer enters the value
    cfg, diags = load_config(Path(__file__).resolve().parents[1] / "configs" / "determinism_tiny.cfg")
    assert not diags
    mesh, f = cfg.make_mesh(), cfg.make_nonlinearity()
    h_anchor, h_full = cfg.maps()[:2]
    h_half = cfg.make_map(0.5 * (cfg.schedule[0] + cfg.schedule[1]))
    flow_anchor, flow_full, flow_half = (
        sample_attractor(WaveIntegrator(pullback_operator(mesh, h), f, cfg.dt), cfg.sampler, cfg.seed)
        for h in (h_anchor, h_full, h_half)
    )
    for flow_other in (flow_full, flow_half):
        pair = build_flow_pair(flow_anchor, flow_other, cfg.reference_operator())
        ests = [dgh_dynamical(*pair, budget, cfg.seed) for budget in (1, 4, 32)]
        assert all(e.exact and e.certified for e in ests)
        assert len({e.value for e in ests}) == 1


def test_studies_report_brackets_and_exact_flags(tmp_path):
    # the report and the CSV of each study carry the same flags: a continuity
    # row is exact when gh_up meets gh_low, and a stability pair when
    # dgh_dynamical proved both directions optimal
    cfg, diags = load_config(Path(__file__).resolve().parents[1] / "configs" / "determinism_tiny.cfg")
    assert not diags
    res = run_continuity_study(cfg, out_dir=tmp_path / "c")
    lines = (tmp_path / "c" / "continuity.csv").read_text().splitlines()
    assert lines[0] == "delta,det_dev,hbar_dev,gh_lower,gh_upper,restarts_used,exact"
    assert len(lines) == len(res.rows) + 1
    for row, line in zip(res.rows, lines[1:]):
        assert row.gh_low <= row.gh_up
        assert row.exact == (row.gh_up <= row.gh_low)
        assert 1 <= row.restarts_used <= 2 * cfg.budget
        assert line.split(",")[5:] == [str(row.restarts_used), "1" if row.exact else "0"]
    want = np.polyfit(np.log([r.delta for r in res.rows]), np.log([r.gh_up for r in res.rows]), 1)[0]
    assert res.gh_up_slope == want
    st = run_stability_study(cfg, out_dir=tmp_path / "s")
    flags = [line.split(",")[-1] for line in (tmp_path / "s" / "stability.csv").read_text().splitlines()]
    assert flags == ["exact", "1" if st.exact_full else "0", "1" if st.exact_half else "0"]
    assert {"exact_full", "exact_half", "certified_full", "certified_half"} <= set(st.payload())


def test_continuity_searches_finish_out_of_order_and_report_in_order(tmp_path, monkeypatch):
    # the earlier a search starts, the longer it sleeps, so at 3 workers the
    # control and the two rows finish last-started first; the study must still
    # report and write them in schedule order
    cfg, diags = load_config(Path(__file__).resolve().parents[1] / "configs" / "determinism_tiny.cfg")
    assert not diags
    lock = threading.Lock()
    started: list[int] = []
    finished: list[int] = []

    def slow_gh_upper(*args):
        with lock:
            k = len(started)
            started.append(k)
        time.sleep(0.2 * (3 - k))
        est = gh_upper(*args)
        with lock:
            finished.append(k)
        return est

    monkeypatch.setattr(harness, "gh_upper", slow_gh_upper)
    results, csvs, orders = [], [], []
    for threads in (1, 3):
        started.clear()
        finished.clear()
        out = tmp_path / f"t{threads}"
        results.append(run_continuity_study(dataclasses.replace(cfg, threads=threads), out_dir=out))
        csvs.append((out / "continuity.csv").read_bytes())
        orders.append(list(finished))
    assert orders == [[0, 1, 2], [2, 1, 0]]
    assert results[0] == results[1]
    assert csvs[0] == csvs[1]
    assert [r.delta for r in results[1].rows] == [h.delta for h in cfg.maps()]


def test_estimates_study_fast_config(tmp_path, monkeypatch):
    # one integrator per operator: the reference one serves the pairs, the
    # energy trajectory and every conjugation reference
    cfg = ScenarioConfig(seed=3, n_pairs=2, estimate_t_final=0.5)
    cfg.resolution = 16
    cfg.dt = 0.01
    cfg.sampler = _FAST_SAMPLER
    ops, real_init = [], WaveIntegrator.__init__

    def init(self, op, *args):
        ops.append(op)
        real_init(self, op, *args)

    monkeypatch.setattr(WaveIntegrator, "__init__", init)
    res = run_estimate_checks(cfg, out_dir=tmp_path)
    assert len(ops) == 1 + len(cfg.schedule) == len({id(op) for op in ops})
    assert res.gronwall_pairs == 2
    assert res.gronwall_ok
    assert res.envelope_ok
    assert (tmp_path / "gronwall.csv").exists()
    assert (tmp_path / "envelope.csv").exists()
    assert (tmp_path / "conjugation.csv").exists()


def test_estimates_study_gronwall_verdict_fails_above_the_slack(tmp_path, monkeypatch):
    # the study, not dynamics, judges the measured ratio: a slack below it
    # fails the Gronwall check and the study, and leaves the ratio as it is
    cfg = ScenarioConfig(seed=3, n_pairs=2, estimate_t_final=0.5)
    cfg.resolution = 16
    cfg.dt = 0.01
    cfg.sampler = _FAST_SAMPLER
    ratio = run_estimate_checks(cfg).gronwall_max_ratio
    monkeypatch.setattr(harness, "GRONWALL_SLACK", 0.5 * ratio)
    res = run_estimate_checks(cfg, out_dir=tmp_path)
    assert not res.gronwall_ok
    assert not res.passed
    assert res.gronwall_max_ratio == ratio


# --- CLI -----------------------------------------------------------------------

_CLI_CFG = """
[domain]
kind = interval
lower = 0.0
upper = 1.0
resolution = 16

[solver]
dt = 0.01
t_final = 1.0

[sampler]
n_ics = 2
t_transient = 1.0
t_window = 1.0
stride = 50
max_points = 8
flow_grid_m = 3
n_modes = 4

[estimates]
n_pairs = 2
t_final = 0.5

[run]
seed = 11
"""


def test_shipped_configs_parse():
    from pathlib import Path

    from ghwave.config import load_config

    root = Path(__file__).resolve().parents[1]
    paths = sorted(root.glob("configs/*.cfg")) + sorted(root.glob("perfbench/configs/*.cfg"))
    assert len(paths) >= 8
    for p in paths:
        cfg, diags = load_config(p)
        assert cfg is not None, (p.name, diags)
        # every shipped cloud fills max_points exactly
        assert cfg.sampler.pool_size(cfg.dt) == cfg.sampler.max_points, p.name


def test_cli_rejects_bad_config(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text("[solver]\ndt = -3\n")
    rc = main(["estimates", "--config", str(p)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "solver.dt" in err
    assert "run.seed" in err


def test_cli_missing_config_file(tmp_path, capsys):
    rc = main(["continuity", "--config", str(tmp_path / "nope.cfg")])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def test_cli_estimates_runs_and_reports(tmp_path, capsys):
    p = tmp_path / "fast.cfg"
    p.write_text(_CLI_CFG)
    out = tmp_path / "out"
    rc = main(["estimates", "--config", str(p), "--out", str(out)])
    stdout = capsys.readouterr().out
    assert rc == 0
    assert "estimates:" in stdout
    doc = json.loads((out / "report.json").read_text())
    assert doc["studies"][0]["study"] == "estimates"
    assert (out / "timing.json").exists()


def test_cli_solve_writes_csvs(tmp_path, capsys):
    p = tmp_path / "fast.cfg"
    p.write_text(_CLI_CFG)
    out = tmp_path / "sout"
    rc = main(["solve", "--config", str(p), "--out", str(out)])
    assert rc == 0
    assert (out / "trajectory.csv").exists()
    assert (out / "energy.csv").exists()
    assert "decay rate" in capsys.readouterr().out


def test_cli_seed_override(tmp_path):
    p = tmp_path / "fast.cfg"
    p.write_text(_CLI_CFG)
    cfg, _ = parse_config(_CLI_CFG)
    assert cfg.seed == 11
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    rc1 = main(["estimates", "--config", str(p), "--out", str(out1), "--seed", "5"])
    rc2 = main(["estimates", "--config", str(p), "--out", str(out2), "--seed", "5"])
    assert rc1 == rc2 == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "gronwall.csv").read_bytes() == (out2 / "gronwall.csv").read_bytes()


def test_cli_overrides_checked_like_run_keys(tmp_path, capsys):
    # --seed and --threads go through the [run] ranges: exit 2 with the key named
    cfg = str(Path(__file__).resolve().parents[1] / "configs" / "determinism_tiny.cfg")
    for flag, value, key in (("--seed", "-1", "run.seed"), ("--threads", "0", "run.threads")):
        assert main(["estimates", "--config", cfg, "--out", str(tmp_path), flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{key}: value {int(value)} out of range")


def test_cli_runtime_error_single_line(tmp_path, capsys):
    # a valid config whose dt is below the reference operator's stability
    # cap (1.5625e-2) but above the first perturbed operator's (1.438e-2),
    # which only the integrator built on that operator finds out
    text = _CLI_CFG.replace("dt = 0.01\n", "dt = 0.015\n")
    assert parse_config(text)[1] == []
    p = tmp_path / "perturbed_cap.cfg"
    p.write_text(text)
    rc = main(["stability", "--config", str(p), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: dt = 1.500e-02 exceeds the stability cap")
    assert err.count("\n") == 1
