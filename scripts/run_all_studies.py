#!/usr/bin/env python3
"""Run the shipped studies back to back: the three 1D studies and the 2D
continuity study on shear_2d.cfg.

Each study writes report.json, timing.json, and its CSVs under
<out>/<config name>/ (for example out/stability_1d/).  After each study the
script prints the sha256 of its report.json and the stages of its
timing.json, so comparing the printed shas of two commits checks that they
write the same results.  Exit status is nonzero if any study fails or
errors; --strict semantics come from the CLI itself.  Cheapest study first,
so a broken install fails within seconds.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

from ghwave.cli import main as cli_main

STUDIES = (
    ("estimates", "estimates_1d.cfg"),
    ("continuity", "shear_2d.cfg"),
    ("stability", "stability_1d.cfg"),
    ("continuity", "continuity_1d.cfg"),
)


def summary(out: Path) -> list[str]:
    """The report.json sha256 and the timing.json stages of one study's output."""
    report, timing = out / "report.json", out / "timing.json"
    lines = [
        f"  report.json sha256 {hashlib.sha256(report.read_bytes()).hexdigest()}"
        if report.exists()
        else "  no report.json"
    ]
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
    for study, cfg_name in STUDIES:
        out = Path(args.out) / Path(cfg_name).stem
        for stale in ("report.json", "timing.json"):  # never hash an earlier run's file
            (out / stale).unlink(missing_ok=True)
        rc = cli_main(
            [
                study,
                "--config", str(cfg_dir / cfg_name),
                "--out", str(out),
                "--threads", str(args.threads),
                "--strict",
            ]
        )
        print(f"{study} {cfg_name}: exit {rc}", *summary(out), sep="\n", flush=True)
        worst = max(worst, rc)
    return worst


if __name__ == "__main__":
    sys.exit(main())
