#!/usr/bin/env python3
"""Run the shipped studies back to back: the three 1D studies, the 2D
continuity study on shear_2d.cfg, the three studies on determinism_tiny.cfg
and `ghwave solve` on estimates_1d.cfg.

Each run writes report.json, timing.json, and its CSVs under
<out>/<config name>-<command>/ (for example out/stability_1d-stability/).
After each run the script prints the sha256 of its report.json and of every
CSV, then the stages of its timing.json, so comparing the printed shas of two
commits checks that they write the same results.  The shipped studies run
with --strict, so exit status is nonzero if any of them fails or any run
errors; the determinism_tiny runs are there for their shas (its two-amplitude
schedule stops short of the conjugation check's 1e-3), so only their errors
count.  Cheapest run first, so a broken install fails within seconds.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

from ghwave.cli import main as cli_main

# (command, config, whether a negative verdict fails the script)
RUNS = (
    ("continuity", "determinism_tiny.cfg", False),
    ("stability", "determinism_tiny.cfg", False),
    ("estimates", "determinism_tiny.cfg", False),
    ("solve", "estimates_1d.cfg", False),
    ("estimates", "estimates_1d.cfg", True),
    ("continuity", "shear_2d.cfg", True),
    ("stability", "stability_1d.cfg", True),
    ("continuity", "continuity_1d.cfg", True),
)


def summary(out: Path) -> list[str]:
    """The sha256 of report.json and of every CSV, then the timing.json stages, of one run's output."""
    files = [p for p in (out / "report.json", *sorted(out.glob("*.csv"))) if p.exists()]
    lines = [f"  {p.name} sha256 {hashlib.sha256(p.read_bytes()).hexdigest()}" for p in files] or ["  no report.json or CSV"]
    timing = out / "timing.json"
    if timing.exists():
        lines += [f"  {stage} {sec} s" for stage, sec in json.loads(timing.read_text()).items()]
    return lines


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
    worst = 0
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
        print(f"{command} {cfg_name}: exit {rc}", *summary(out), sep="\n", flush=True)
        worst = max(worst, rc)
    return worst


if __name__ == "__main__":
    sys.exit(main())
