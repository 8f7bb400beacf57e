#!/usr/bin/env python3
"""Run the shipped studies back to back: the three 1D studies, the three
studies on the 2D shear_2d.cfg, the three studies on determinism_tiny.cfg
and `ghwave solve` on estimates_1d.cfg.

Each run writes report.json, timing.json, and its CSVs under
<out>/<config name>-<command>/ (for example out/stability_1d-stability/).
After each run the script prints the sha256 of its report.json and of every
CSV, then the stages of its timing.json, so comparing the printed shas of two
commits checks that they write the same results.  The same record (exit code,
shas and stages per run), with the machine it ran on (nproc, CPU model,
Python, numpy and scipy versions), goes to <out>/bench.json, the form the
repo-root BENCH_*.json files keep, together with `import_s`: the median
wall clock of IMPORT_PROBES fresh interpreters that only import
`ghwave.cli` and `ghwave.harness` (the start-up every study process pays),
printed first.  The shipped studies run with --strict, so
exit status is nonzero if any of them fails or any run errors; the
determinism_tiny runs are there for their shas (its two-amplitude schedule
stops short of the conjugation check's 1e-3), so only their errors count.
Cheapest run first, so a broken install fails within seconds.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import ghwave
from ghwave.cli import main as cli_main

# (command, config, whether a negative verdict fails the script)
RUNS = (
    ("continuity", "determinism_tiny.cfg", False),
    ("stability", "determinism_tiny.cfg", False),
    ("estimates", "determinism_tiny.cfg", False),
    ("solve", "estimates_1d.cfg", False),
    ("estimates", "estimates_1d.cfg", True),
    ("stability", "shear_2d.cfg", True),
    ("estimates", "shear_2d.cfg", True),
    ("continuity", "shear_2d.cfg", True),
    ("stability", "stability_1d.cfg", True),
    ("continuity", "continuity_1d.cfg", True),
)


IMPORT_PROBES = 5


def import_seconds() -> float:
    """Median wall clock of IMPORT_PROBES fresh interpreters that import ghwave.cli and ghwave.harness.

    The probes import the same ghwave package this script runs.
    """
    src = str(Path(ghwave.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    times = []
    for _ in range(IMPORT_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ghwave.cli, ghwave.harness"], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def record(out: Path) -> dict:
    """The sha256 of report.json and of every CSV, and the timing.json stages, of one run's output."""
    files = [p for p in (out / "report.json", *sorted(out.glob("*.csv"))) if p.exists()]
    timing = out / "timing.json"
    return {
        "sha256": {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files},
        "stages": json.loads(timing.read_text()) if timing.exists() else {},
    }


def summary(rec: dict) -> list[str]:
    """The lines printed for one run's record."""
    lines = [f"  {name} sha256 {sha}" for name, sha in rec["sha256"].items()] or ["  no report.json or CSV"]
    return lines + [f"  {stage} {sec} s" for stage, sec in rec["stages"].items()]


def machine() -> dict:
    """What the timings of a bench.json depend on: cores, CPU and library versions."""
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text().splitlines()
        cpu = next(line.split(":", 1)[1].strip() for line in cpuinfo if line.startswith("model name"))
    except (OSError, StopIteration):
        cpu = platform.processor()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out", help="output root (default: ./out)")
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument(
        "--configs", default=None, help="config directory (default: repo configs/)"
    )
    args = ap.parse_args()
    cfg_dir = (
        Path(args.configs)
        if args.configs
        else Path(__file__).resolve().parents[1] / "configs"
    )
    import_s = import_seconds()
    print(f"import_s {import_s:.3f} s (median of {IMPORT_PROBES} fresh imports of ghwave.cli, ghwave.harness)", flush=True)
    worst, runs = 0, []
    for command, cfg_name, strict in RUNS:
        out = Path(args.out) / f"{Path(cfg_name).stem}-{command}"
        for stale in ("report.json", "timing.json", *(p.name for p in out.glob("*.csv"))):  # never hash an earlier run's file
            (out / stale).unlink(missing_ok=True)
        rc = cli_main(
            [
                command,
                "--config", str(cfg_dir / cfg_name),
                "--out", str(out),
                "--threads", str(args.threads),
                *(["--strict"] if strict else []),
            ]
        )
        rec = record(out)
        print(f"{command} {cfg_name}: exit {rc}", *summary(rec), sep="\n", flush=True)
        runs.append({"command": command, "config": cfg_name, "exit": rc, **rec})
        worst = max(worst, rc)
    bench = {"machine": machine(), "threads": args.threads, "import_s": import_s, "runs": runs}
    (Path(args.out) / "bench.json").write_text(json.dumps(bench, indent=1) + "\n")
    return worst


if __name__ == "__main__":
    sys.exit(main())
