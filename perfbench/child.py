"""One study process: `ghwave.cli.main` with the benchmark's clocks around it.

    python3 perfbench/child.py MODE RECORD -- <ghwave CLI arguments>

MODE is one of
  setup  exit as soon as the study driver is entered (a set-up probe);
  study  run the study, recording when the driver is entered and left;
  trace  as `study`, with every public function of the layer modules and
         the methods in METHODS wrapped by a span tracer.
RECORD is the JSON file the clocks (CLOCK_MONOTONIC, shared by all processes
of the machine) and, when tracing, the per-span totals are written to.  The
process exits with the CLI's own exit code.
"""

from __future__ import annotations

import json
import sys
import time

LAYERS = ("domains", "operators", "dynamics", "ghmetric", "harness", "config")
DRIVERS = ("run_continuity_study", "run_stability_study", "run_estimate_checks")
# Methods traced besides the public module functions; the four norms share
# one span name because every per-step energy test calls all of them.
METHODS = {
    ("dynamics.WaveIntegrator", "__init__"): "dynamics.WaveIntegrator.init",
    ("dynamics.WaveIntegrator", "step"): "dynamics.WaveIntegrator.step",
    ("operators.NormPack", "norm0"): "operators.NormPack",
    ("operators.NormPack", "norm1"): "operators.NormPack",
    ("operators.NormPack", "norm2"): "operators.NormPack",
    ("operators.NormPack", "apply_A"): "operators.NormPack",
    ("harness.CsvWriter", "row"): "harness.CsvWriter.row",
}


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] not in ("setup", "study", "trace") or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    mode, record, cli_args = argv[0], argv[1], argv[3:]

    from ghwave import cli, harness

    doc: dict = {"mode": mode}
    tracer = None
    if mode == "trace":
        from tracer import Tracer, public_functions, wrap_package

        tracer = Tracer()
        functions = {}
        for layer in LAYERS:
            module = sys.modules[f"ghwave.{layer}"]
            for name in public_functions(module):
                span = "harness.study" if name in DRIVERS else f"{layer}.{name}"
                functions[f"{layer}.{name}"] = span
        doc["bindings"] = wrap_package(tracer, "ghwave", functions, METHODS)

    def clocked(fn):
        def run(*args, **kwargs):
            doc["entered"] = _clock()
            if mode == "setup":
                raise SystemExit(0)
            try:
                return fn(*args, **kwargs)
            finally:
                doc["left"] = _clock()

        return run

    # cli looks the driver up on `harness` at call time, so this binding is
    # the one it calls; it sits outside the tracer's span.
    for name in DRIVERS:
        setattr(harness, name, clocked(getattr(harness, name)))

    try:
        rc = cli.main(cli_args)
    except SystemExit as exc:
        if mode != "setup" or "entered" not in doc:
            raise
        rc = exc.code or 0
    if tracer is not None:
        doc["spans"] = tracer.snapshot()
    with open(record, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
