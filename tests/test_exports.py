"""Every exported name resolves (each module's __all__, the package's imports and each script's imports), and every public definition is exported."""

import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ghwave

MODULES = ["domains", "operators", "dynamics", "ghmetric", "harness", "config"]
SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"ghwave.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_module_public_definitions_are_exported(name):
    # the reverse: every public class and function the module defines is in __all__
    module = importlib.import_module(f"ghwave.{name}")
    defined = [
        n
        for n, v in vars(module).items()
        if not n.startswith("_") and (inspect.isclass(v) or inspect.isfunction(v)) and v.__module__ == module.__name__
    ]
    assert [n for n in defined if n not in module.__all__] == []


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports(path):
    # loading a script runs its imports and definitions, not its main: a
    # script that imports a name the package no longer has fails here
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_package_names_resolve():
    tree = ast.parse(Path(ghwave.__file__).read_text())
    names = [a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names]
    assert names
    assert [n for n in names if not hasattr(ghwave, n)] == []


def test_no_private_scipy_imports():
    # scipy's underscored modules and names may change in any release
    private = []
    for path in sorted(Path(ghwave.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            for name in names:
                parts = name.split(".")
                if parts[0] == "scipy" and any(p.startswith("_") for p in parts):
                    private.append(f"{path.name}: {name}")
    assert private == []


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
DRIVERS = ("run_continuity_study", "run_stability_study", "run_estimate_checks")


def _fresh_python(script: str) -> str:
    """The last line `script` prints, run in a fresh interpreter on this checkout's package."""
    src = str(Path(ghwave.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def _studies_script(configs: list[str], tmp_path) -> str:
    """Runs the three studies through the CLI on each config, each to exit code 0."""
    return (
        "import sys\n"
        "from ghwave.cli import main\n"
        f"for config in {configs!r}:\n"
        "    for study in ('continuity', 'stability', 'estimates'):\n"
        f"        assert main([study, '--config', {str(CONFIGS)!r} + '/' + config, '--out', {str(tmp_path)!r} + f'/{{config}}-{{study}}']) == 0\n"
    )


def test_studies_run_without_scipy_optimize(tmp_path):
    # scipy.optimize costs a fresh process about 0.18 s of import; a lazy
    # import inside a study would move that into the study's own time
    script = _studies_script(["determinism_tiny.cfg"], tmp_path) + "print('scipy.optimize' in sys.modules)\n"
    assert _fresh_python(script) == "False"


def test_studies_on_shipped_meshes_run_without_scipy(tmp_path):
    # every shipped mesh has at most DENSE_MAX_DIM unknowns, so its operators
    # are dense and numpy factors them; scipy.sparse alone would cost a
    # fresh process about 0.3 s of import
    script = _studies_script(["determinism_tiny.cfg", "shear_2d.cfg"], tmp_path)
    script += "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    assert _fresh_python(script) == "[]"


def test_study_drivers_load_no_module(tmp_path):
    # numpy loads some submodules on first use (numpy.ma on the first
    # np.unique, numpy.random on the first default_rng); one a driver loads
    # counts in the study's own time rather than in the set-up
    script = (
        "import sys\n"
        "from ghwave import harness\n"
        "from ghwave.config import load_config\n"
        f"cfg, _ = load_config({str(CONFIGS / 'determinism_tiny.cfg')!r})\n"
        "added = {}\n"
        f"for name in {DRIVERS!r}:\n"
        "    before = set(sys.modules)\n"
        f"    getattr(harness, name)(cfg, {str(tmp_path)!r} + '/' + name)\n"
        "    added[name] = sorted(set(sys.modules) - before)\n"
        "print(added)\n"
    )
    assert _fresh_python(script) == str({name: [] for name in DRIVERS})
