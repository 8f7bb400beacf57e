"""Study drivers, CSV/report determinism, and the CLI front end."""

import json
from pathlib import Path

import numpy as np
import pytest

from ghwave.cli import main
from ghwave.config import ScenarioConfig, parse_config
from ghwave.dynamics import SamplerConfig, sample_attractor
from ghwave.harness import (
    CsvWriter,
    build_flow_pair,
    run_estimate_checks,
    write_report,
    write_timing,
)
from ghwave.operators import Mesh, default_nonlinearity, identity_operator
from ghwave.domains import ReferenceDomain

UNIT = ReferenceDomain("interval", ((0.0, 1.0),))

_FAST_SAMPLER = SamplerConfig(
    n_ics=2,
    radius=1.0,
    t_transient=1.0,
    t_window=1.0,
    stride=50,
    max_points=8,
    dt=0.01,
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
    f = default_nonlinearity()
    sa = sample_attractor(op, f, _FAST_SAMPLER, seed=1)
    sb = sample_attractor(op, f, _FAST_SAMPLER, seed=2)
    fa, fb = build_flow_pair(sa, sb, op)
    assert fa.universe_d2 is fb.universe_d2
    na, m1 = sa.flow.shape[0], sa.flow.shape[1]
    nb = sb.flow.shape[0]
    assert fa.universe_d2.shape == ((na + nb) * m1,) * 2
    # the two samples occupy disjoint index blocks, in order
    assert set(fa.traj_idx.ravel()) == set(range(na * m1))
    assert set(fb.traj_idx.ravel()) == set(range(na * m1, (na + nb) * m1))
    # base distances in the universe agree with each sample's own matrix up
    # to the change from its own operator norm to the shared one (same op
    # here, so exactly)
    Xa = fa.metric().d
    np.testing.assert_allclose(Xa, sa.dist, rtol=1e-9, atol=1e-12)


def test_estimates_study_fast_config(tmp_path):
    cfg = ScenarioConfig(seed=3, n_pairs=2, estimate_t_final=0.5)
    cfg.resolution = 16
    cfg.dt = 0.01
    cfg.sampler = _FAST_SAMPLER
    res = run_estimate_checks(cfg, out_dir=tmp_path)
    assert res.gronwall_pairs == 2
    assert res.gronwall_ok
    assert res.envelope_ok
    assert (tmp_path / "gronwall.csv").exists()
    assert (tmp_path / "envelope.csv").exists()
    assert (tmp_path / "conjugation.csv").exists()


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

    cfg_dir = Path(__file__).resolve().parents[1] / "configs"
    paths = sorted(cfg_dir.glob("*.cfg"))
    assert len(paths) >= 5
    for p in paths:
        cfg, diags = load_config(p)
        assert cfg is not None, (p.name, diags)
        # every shipped cloud fills max_points exactly
        assert cfg.sampler.pool_size == cfg.sampler.max_points, p.name


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
    # a valid config the stability study cannot use: it needs two amplitudes
    p = tmp_path / "one_amp.cfg"
    p.write_text(_CLI_CFG + "\n[perturbation]\nschedule = 0.04\n")
    rc = main(["stability", "--config", str(p), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1
