"""The failure classifier, and the whole benchmark path on the tiny config."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import run
from run import Workload, classify, quality

STAB = {"study": "stability", "passed": True, "certified_full": True, "certified_half": True, "eps_full": 2.0, "eps_half": 1.0}


def doc(entry):
    return {"studies": [entry], "version": "0.1.0"}


@pytest.mark.parametrize(
    "rc, report, sha, set_sha, why",
    [
        (0, doc(STAB), "a", "a", None),
        (0, doc(STAB), "a", None, None),
        (1, doc(STAB), "a", "a", "exit code 1"),
        (0, None, None, None, "no readable report.json"),
        (0, {"studies": []}, "a", "a", "no readable report.json"),
        (0, doc({**STAB, "passed": False}), "a", "a", "negative verdict"),
        (0, doc({"study": "continuity"}), "a", "a", "negative verdict"),
        (0, doc({**STAB, "certified_half": False}), "a", "a", "uncertified witness"),
        (0, doc(STAB), "b", "a", "report.json differs from the first of its set"),
    ],
)
def test_classify(rc, report, sha, set_sha, why):
    assert classify(rc, report, sha, set_sha) == why


def test_quality_sums():
    cont = {"study": "continuity", "rows": [{"gh_up": 0.5}, {"gh_up": 0.25}], "noise_floor": 1.0}
    assert quality(doc(cont)) == {"gh_upper_sum": 1.75, "eps_certified_sum": 0.0}
    assert quality(doc(STAB)) == {"gh_upper_sum": 0.0, "eps_certified_sum": 3.0}


SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = Workload("continuity", "configs/determinism_tiny.cfg", {"dynamics.sample_attractor": 4, "ghmetric.gh_upper": 3})


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY)
    monkeypatch.setattr(run, "OUT", tmp_path / "bench")
    monkeypatch.setattr(run, "SETUP_PROBES", 2)
    return tmp_path


def direct_cli_sha(out) -> str:
    env = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"), **run.BLAS_PIN)
    subprocess.run(
        [sys.executable, "-m", "ghwave", "continuity", "--config", str(run.ROOT / TINY.config), "--out", str(out), "--threads", "2", "--strict"],
        check=True, cwd=run.ROOT, env=env, capture_output=True, timeout=120,
    )
    return hashlib.sha256((out / "report.json").read_bytes()).hexdigest()


def test_untraced_and_traced_runs_match_the_cli_on_the_tiny_config(tiny):
    plain = run.run_workload("tiny", None, 0.0, trace=False)
    assert plain.failures == [] and len(plain.studies) == 1 and len(plain.probes) == 2
    assert len(plain.reference_s) == 3 and all(r > 0 for r in plain.reference_s)
    m = run.metrics_of(plain, SPEC)
    assert m["setup_s"]["n"] == 3 and m["study_s"]["n"] == 1
    scale = run.REFERENCE_S / run._median(plain.reference_s)
    assert m["study_s"]["value"] == pytest.approx(plain.studies[0].study_s * scale)
    assert list(m) == [e["name"] for e in SPEC["end_to_end"]]
    assert all(v["value"] > 0 for v in m.values())

    traced = run.run_workload("tiny", None, 0.0, trace=True)
    assert traced.failures == []
    assert plain.sha == traced.sha == direct_cli_sha(tiny / "direct")
    m = run.metrics_of(traced, SPEC)
    assert m["dynamics.sample_attractor.calls"]["value"] == 4
    assert m["ghmetric.dgh_dynamical.calls"]["value"] == 0
    assert m["gh_upper_sum"]["value"] == plain.quality["gh_upper_sum"] > 0
    spans = traced.studies[0].record["spans"]
    study = spans["harness.study"]
    assert 0 < study["self_s"] < study["s"]
    bindings = traced.studies[0].record["bindings"]
    assert "ghwave.harness.sample_attractor" in bindings and "ghwave.dynamics.sample_attractor" in bindings


def test_a_missed_expected_count_fails_the_run(tiny, monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, "tiny", Workload(TINY.study, TINY.config, {"ghmetric.gh_upper": 99}))
    rs = run.run_workload("tiny", None, 0.0, trace=True)
    assert rs.failures == ["study 0: ghmetric.gh_upper: expected 99 calls, traced 3"]


def test_refuses_to_run_without_the_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "estimates-1d"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "no ghwave sources" in out.err


def test_a_failed_study_still_yields_every_metric(tmp_path):
    crashed = run.Proc(rc=1, spawned=0.0, record={}, peak_rss_mb=50.0, out_dir=tmp_path)
    for trace in (False, True):
        rs = run.RunSet("estimates-1d", None, trace, studies=[crashed])
        rs.check(run.WORKLOADS["estimates-1d"])
        assert rs.failures == ["study 0: exit code 1"]
        names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
        assert list(run.metrics_of(rs, SPEC)) == names
