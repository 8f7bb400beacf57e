"""Config parsing and diagnostics addressing."""

import dataclasses
from pathlib import Path

import pytest

from ghwave.cli import main
from ghwave.config import DEFAULT_SCHEDULE, ScenarioConfig, load_config, parse_config
from ghwave.dynamics import SamplerConfig

GOOD = """
[domain]
kind = interval
lower = 0.0
upper = 1.0
resolution = 24

[perturbation]
family = bump1d
schedule = 0.04, 0.02, 0.01
width = 0.25

[run]
seed = 7
"""


def _diag_keys(diags):
    return {d.key for d in diags}


def test_good_config_parses():
    cfg, diags = parse_config(GOOD)
    assert diags == []
    assert cfg is not None
    assert cfg.resolution == 24
    assert cfg.schedule == (0.04, 0.02, 0.01)
    assert cfg.family_params == {"width": 0.25}
    assert cfg.seed == 7


def test_defaults_without_file_sections():
    cfg, diags = parse_config("[run]\nseed = 0\n")
    assert diags == []
    assert cfg.schedule == DEFAULT_SCHEDULE
    assert cfg.sampler.max_points == 96


def test_missing_seed_is_diagnosed():
    cfg, diags = parse_config("[domain]\nkind = interval\n")
    assert cfg is None
    assert "run.seed" in _diag_keys(diags)


def test_zero_dt_addressed_by_section_and_key():
    cfg, diags = parse_config("[solver]\ndt = 0\n[run]\nseed = 1\n")
    assert cfg is None
    (d,) = [d for d in diags if d.key == "solver.dt"]
    assert "positive" in d.message


def test_unknown_key_lists_alternatives():
    cfg, diags = parse_config("[solver]\ndtt = 0.01\n[run]\nseed = 1\n")
    assert cfg is None
    (d,) = [d for d in diags if d.key == "solver.dtt"]
    assert "dt" in d.message


def test_unknown_section_diagnosed():
    cfg, diags = parse_config("[slover]\ndt = 0.01\n[run]\nseed = 1\n")
    assert cfg is None
    assert "slover" in _diag_keys(diags)


def test_unknown_family_lists_known_ones():
    cfg, diags = parse_config("[perturbation]\nfamily = warp\n[run]\nseed = 1\n")
    assert cfg is None
    (d,) = [d for d in diags if d.key == "perturbation.family"]
    assert "bump1d" in d.message


def test_increasing_schedule_rejected():
    cfg, diags = parse_config("[perturbation]\nschedule = 0.01, 0.02\n[run]\nseed = 1\n")
    assert cfg is None
    (d,) = [d for d in diags if d.key == "perturbation.schedule"]
    assert "decreasing" in d.message


def test_domain_bounds_must_order():
    cfg, diags = parse_config("[domain]\nlower = 2.0\nupper = 1.0\n[run]\nseed = 1\n")
    assert cfg is None
    assert "domain.upper" in _diag_keys(diags)


def test_sign_condition_on_nonlinearity():
    cfg, diags = parse_config("[nonlinearity]\na = 0.5\nb = 0.7\n[run]\nseed = 1\n")
    assert cfg is None
    assert "nonlinearity.a" in _diag_keys(diags)


def test_family_dimension_mismatch():
    cfg, diags = parse_config("[perturbation]\nfamily = shear2d\n[run]\nseed = 1\n")
    assert cfg is None
    assert "perturbation.family" in _diag_keys(diags)


def test_non_numeric_value_diagnosed():
    cfg, diags = parse_config("[domain]\nresolution = many\n[run]\nseed = 1\n")
    assert cfg is None
    (d,) = [d for d in diags if d.key == "domain.resolution"]
    assert "many" in d.message


def test_multiple_diagnostics_reported_together():
    text = "[solver]\ndt = -1\n[domain]\nresolution = 2\n"
    cfg, diags = parse_config(text)
    assert cfg is None
    assert {"solver.dt", "domain.resolution", "run.seed"} <= _diag_keys(diags)


def test_sampler_dt_follows_solver_dt():
    # half the default dt with twice the default stride keeps the 96-point pool
    cfg, diags = parse_config("[solver]\ndt = 0.002\n[sampler]\nstride = 500\n[run]\nseed = 1\n")
    assert diags == []
    assert cfg.dt == 0.002
    assert cfg.sampler.pool_size(cfg.dt) == 96


def test_sampler_pool_above_max_points_rejected():
    # the pool is counted at the solver dt: halving it doubles the snapshots
    # per IC, 8 x 23 = 184 points against max_points 96
    cfg, diags = parse_config("[solver]\ndt = 0.002\n[run]\nseed = 1\n")
    assert cfg is None
    (d,) = diags
    assert d.key == "sampler.max_points"
    assert "184 points exceeds max_points (96)" in d.message


def test_sampler_dt_key_is_unknown(tmp_path):
    # a scenario has one dt, the solver's: a file that still sets a sampler
    # dt is refused rather than sampled at a dt other than the one it names
    text = "[solver]\ndt = 0.002\n[sampler]\ndt = 0.005\n[run]\nseed = 1\n"
    cfg, diags = parse_config(text)
    assert cfg is None
    (d,) = diags
    assert d.key == "sampler.dt"
    assert d.message.startswith("unknown key")
    p = tmp_path / "sampler_dt.cfg"
    p.write_text(text)
    assert main(["stability", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_retired_sampler_keys_are_ignored():
    # the keys of the sampler's energy-settling test, which the nonlinearity
    # rule a > |b| made redundant, still parse and change nothing, even at
    # values their old ranges refused
    plain = "[sampler]\nn_ics = 4\n[run]\nseed = 1\n"
    cfg, diags = parse_config(plain)
    keys = "plateau_tol = 0\nplateau_floor = -1\nplateau_window = 1\nt_cap = 0.5\n"
    retired, retired_diags = parse_config(plain.replace("[sampler]\n", "[sampler]\n" + keys))
    assert diags == retired_diags == []
    assert retired == cfg


def test_dt_above_reference_stability_cap_rejected(tmp_path):
    # at resolution 48 on [0, pi] the cap is 0.5/sqrt(4/h^2) = h/4, about 0.016
    text = "[domain]\nresolution = 48\n[solver]\ndt = 0.05\n[run]\nseed = 1\n"
    cfg, diags = parse_config(text)
    assert cfg is None
    assert _diag_keys(diags) == {"solver.dt"}
    assert all("stability cap" in d.message for d in diags)
    p = tmp_path / "fast.cfg"
    p.write_text(text)
    assert main(["solve", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_retired_rho_key_is_ignored():
    # [gh] rho, the time-change slack of a dynamical distance that now
    # compares the flows at the same times, still parses and changes nothing
    plain = "[gh]\nbudget = 8\n[run]\nseed = 1\n"
    cfg, diags = parse_config(plain)
    retired, retired_diags = parse_config(plain.replace("[gh]\n", "[gh]\nrho = 1.0\n"))
    assert diags == retired_diags == []
    assert retired == cfg
    # the benchmark's copy of the stability scenario carries the key: it is
    # the shipped scenario at the copy's own budget
    root = Path(__file__).resolve().parents[1]
    shipped, bench = (load_config(root / d / "stability_1d.cfg")[0] for d in ("configs", "perfbench/configs"))
    assert dataclasses.replace(bench, budget=shipped.budget) == shipped


TINY = Path(__file__).resolve().parents[1] / "configs" / "determinism_tiny.cfg"


@pytest.mark.parametrize(
    "old, new, key, command",
    [
        ("schedule = 0.04 0.02\n", "schedule = 0.04 0.02\nwidth = -1\n", "perturbation.width", "continuity"),
        ("schedule = 0.04 0.02\n", "schedule = 0.04 0.02\ncenter_x = 7\n", "perturbation.center_x", "continuity"),
        ("schedule = 0.04 0.02\n", "schedule = 0.9 0.5\n", "perturbation.schedule", "continuity"),
        ("family = bump1d\n", "family = shear2d\n", "perturbation.family", "continuity"),
        ("t_window = 2.0\n", "t_window = inf\n", "sampler.t_window", "continuity"),
        ("upper = 3.141592653589793\n", "upper = inf\n", "domain.upper", "continuity"),
        ("schedule = 0.04 0.02\n", "schedule =\n", "perturbation.schedule", "continuity"),
        ("schedule = 0.04 0.02\n", "schedule = 0.02 -0.01\n", "perturbation.schedule", "continuity"),
        ("schedule = 0.04 0.02\n", "schedule = 0.02 0.04\n", "perturbation.schedule", "continuity"),
        ("schedule = 0.04 0.02\n", "schedule = 0.04\n", "perturbation.schedule", "stability"),
    ],
)
def test_scenario_rejected_before_sampling(tmp_path, capsys, old, new, key, command):
    # the family constructor's own checks (parameters, dimension, C2 distance
    # below 1), the schedule rule (the stability study compares two of its
    # maps) and the finiteness of every number run before any sampling
    text = TINY.read_text()
    assert old in text
    p = tmp_path / "bad.cfg"
    p.write_text(text.replace(old, new))
    assert main([command, "--config", str(p), "--out", str(tmp_path / "out")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"{key}: ")
    assert not (tmp_path / "out").exists()


_SAMPLER_JUST_OUTSIDE = {
    "n_ics": 0,
    "radius": 0.0,
    "t_transient": 0.0,
    "t_window": 0.0,
    "stride": 0,
    "max_points": 0,
    "flow_grid_m": 0,
    "n_modes": 0,
}


@pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(SamplerConfig)])
def test_sampler_key_just_outside_its_range_rejected(key):
    value = _SAMPLER_JUST_OUTSIDE[key]
    with pytest.raises(ValueError, match=f"sampler {key} = .* out of range"):
        SamplerConfig(**{key: value})
    cfg, diags = parse_config(f"[sampler]\n{key} = {value}\n[run]\nseed = 1\n")
    assert cfg is None
    assert [d.key for d in diags] == [f"sampler.{key}"]


def test_estimates_t_final_renamed_attr():
    cfg, diags = parse_config("[estimates]\nt_final = 3.5\n[run]\nseed = 1\n")
    assert diags == []
    assert cfg.estimate_t_final == 3.5


def test_missing_file_diagnosed(tmp_path):
    cfg, diags = load_config(tmp_path / "nope.cfg")
    assert cfg is None
    assert any("not found" in d.message for d in diags)


def test_load_config_roundtrip(tmp_path):
    p = tmp_path / "ok.cfg"
    p.write_text(GOOD)
    cfg, diags = load_config(p)
    assert diags == []
    assert cfg.family == "bump1d"


def test_factories_build_consistent_objects():
    cfg, _ = parse_config(GOOD)
    mesh = cfg.make_mesh()
    assert mesh.resolution == 24
    assert [h.key for h in cfg.maps()] == [("bump1d", a, 0.5, 0.25) for a in (0.04, 0.02, 0.01)]
    f = cfg.make_nonlinearity()
    assert f.l == pytest.approx(1.5)
