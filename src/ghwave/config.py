"""INI scenario configs: strict schema, typed values, diagnostic errors.

A scenario file uses the sections [domain], [perturbation], [nonlinearity],
[solver], [sampler], [gh], [estimates], [run].  Unknown sections or keys,
unparseable values, and out-of-range values are reported as a list of
Diagnostic(key, message) entries instead of exceptions, so a CLI run can show
every problem at once.  `seed` under [run] is the one mandatory key.  A rule
that a study adds, such as the stability study's two amplitudes, raises a
ConfigError that names its key, and the CLI reports it the same way.
"""

from __future__ import annotations

import configparser
import inspect
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .domains import FAMILIES, DiffeoMap, ReferenceDomain
from .dynamics import SAMPLER_RANGES, SamplerConfig, stability_cap
from .operators import DiscreteOperator, Mesh, NonlinearitySpec, default_nonlinearity, identity_operator

__all__ = ["Diagnostic", "ConfigError", "ScenarioConfig", "parse_config", "load_config", "range_diagnostic", "DEFAULT_SCHEDULE"]

DEFAULT_SCHEDULE = (0.04, 0.02, 0.01, 0.005, 0.0025)


@dataclass(frozen=True)
class Diagnostic:
    """One problem found in a config file, addressed as section.key."""

    key: str
    message: str

    def __str__(self) -> str:
        return f"{self.key}: {self.message}"


class ConfigError(ValueError):
    """A scenario rule broken at config key `key`, raised outside parse_config;
    the CLI prints it as that key's Diagnostic and exits 2."""

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


@dataclass
class ScenarioConfig:
    """Validated scenario parameters with factories for the heavy objects."""

    # [domain]
    kind: str = "interval"
    lower: float = 0.0
    upper: float = 3.141592653589793
    lower_y: float = 0.0
    upper_y: float = 1.0
    resolution: int = 48
    # [perturbation]
    family: str = "bump1d"
    schedule: tuple[float, ...] = DEFAULT_SCHEDULE
    family_params: dict[str, float] = field(default_factory=dict)
    # [nonlinearity]
    a: float = 1.0
    b: float = 0.5
    # [solver]
    dt: float = 0.004
    t_final: float = 1.0
    # [sampler]
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    # [gh]
    budget: int = 32
    # [estimates]
    n_pairs: int = 20
    estimate_t_final: float = 2.0
    # [run]
    seed: int = 0
    threads: int = 1
    _reference_op: DiscreteOperator | None = field(default=None, init=False, repr=False, compare=False)
    _maps: tuple[tuple, list[DiffeoMap]] | None = field(default=None, init=False, repr=False, compare=False)

    def make_domain(self) -> ReferenceDomain:
        if self.kind == "interval":
            return ReferenceDomain.interval(self.lower, self.upper)
        return ReferenceDomain.rectangle(self.lower, self.upper, self.lower_y, self.upper_y)

    def make_mesh(self) -> Mesh:
        return Mesh(self.make_domain(), self.resolution)

    def reference_operator(self) -> DiscreteOperator:
        """Identity-pullback operator of the mesh; the config-time dt check and
        the studies share one assembly of it."""
        mesh = self.make_mesh()
        if self._reference_op is None or self._reference_op.mesh != mesh:
            self._reference_op = identity_operator(mesh)
        return self._reference_op

    def check_schedule(self, at_least: int = 1) -> None:
        """The schedule rule: positive, strictly decreasing amplitudes, at
        least `at_least` of them; ConfigError at perturbation.schedule."""
        s = self.schedule
        if not s or any(a <= 0 for a in s):
            raise ConfigError("perturbation.schedule", "schedule needs at least one amplitude, all positive")
        if any(b >= a for a, b in zip(s, s[1:])):
            raise ConfigError("perturbation.schedule", "schedule must be strictly decreasing")
        if len(s) < at_least:
            raise ConfigError("perturbation.schedule", f"this study needs at least {at_least} schedule amplitudes, got {len(s)}")

    def make_map(self, amplitude: float) -> DiffeoMap:
        """The family's admitted map at `amplitude` on the config's domain."""
        if self.family not in FAMILIES:
            raise ConfigError("perturbation.family", f"unknown family {self.family!r}; expected one of {sorted(FAMILIES)}")
        return FAMILIES[self.family](self.make_domain(), amplitude, **self.family_params)

    def maps(self) -> list[DiffeoMap]:
        """The schedule's maps; parse_config builds them to check them, and
        the studies reuse that one build."""
        key = (self.family, self.make_domain(), self.schedule, sorted(self.family_params.items()))
        if self._maps is None or self._maps[0] != key:
            self.check_schedule()
            self._maps = (key, [self.make_map(a) for a in self.schedule])
        return self._maps[1]

    def make_nonlinearity(self) -> NonlinearitySpec:
        return default_nonlinearity(self.a, self.b)


_FLOAT, _INT, _STR = "float", "int", "str"

# key -> (type, predicate, description of the valid range)
_SCHEMA: dict[str, dict[str, tuple[str, object, str]]] = {
    "domain": {
        "kind": (_STR, lambda s: s in ("interval", "rectangle"), "one of interval, rectangle"),
        "lower": (_FLOAT, lambda x: True, ""),
        "upper": (_FLOAT, lambda x: True, ""),
        "lower_y": (_FLOAT, lambda x: True, ""),
        "upper_y": (_FLOAT, lambda x: True, ""),
        "resolution": (_INT, lambda n: n >= 4, "at least 4 cells"),
    },
    "perturbation": {
        "family": (_STR, lambda s: s in FAMILIES, f"one of {sorted(FAMILIES)}"),
        "schedule": (_STR, lambda s: True, ""),
    },
    "nonlinearity": {
        "a": (_FLOAT, lambda x: True, ""),
        "b": (_FLOAT, lambda x: True, ""),
    },
    "solver": {
        "dt": (_FLOAT, lambda x: x > 0, "positive"),
        "t_final": (_FLOAT, lambda x: x > 0, "positive"),
    },
    "sampler": {f.name: (f.type, *SAMPLER_RANGES[f.name]) for f in fields(SamplerConfig)},
    "gh": {
        "budget": (_INT, lambda n: n >= 1, "at least 1"),
    },
    "estimates": {
        "n_pairs": (_INT, lambda n: n >= 1, "at least 1"),
        "t_final": (_FLOAT, lambda x: x > 0, "positive"),
    },
    "run": {
        "seed": (_INT, lambda n: n >= 0, "nonnegative"),
        "threads": (_INT, lambda n: n >= 1, "at least 1"),
    },
}


# keys a config may still carry that nothing reads: gh.rho, the time-change
# slack of a dynamical distance that now compares the flows at the same
# times, and the sampler's energy-settling test, which the nonlinearity rule
# a > |b| made redundant
_RETIRED = {"gh.rho", "sampler.plateau_tol", "sampler.plateau_floor", "sampler.plateau_window", "sampler.t_cap"}


def _finite(raw: str) -> float:
    val = float(raw)
    if not math.isfinite(val):
        raise ValueError(f"{raw!r} is not finite")
    return val


def _parse_schedule(raw: str) -> tuple[float, ...]:
    return tuple(_finite(p) for p in raw.replace(",", " ").split())


def range_diagnostic(section: str, key: str, val: object) -> Diagnostic | None:
    """The diagnostic of a typed value outside the schema's range for section.key, else None."""
    _, pred, rng = _SCHEMA[section][key]
    hint = f"; must be {rng}" if rng else ""
    return None if pred(val) else Diagnostic(f"{section}.{key}", f"value {val!r} out of range{hint}")


def parse_config(text: str, source: str = "<string>") -> tuple[ScenarioConfig | None, list[Diagnostic]]:
    """Parse INI text; on any diagnostic the config result is None.

    The objects a study builds from the values enforce the rest: the
    nonlinearity checks dissipativity, the family's map constructor takes the
    [perturbation] parameters and checks them, its dimension and the C2
    distance of every schedule map (kept on the config), and the reference
    operator bounds dt.
    """
    cp = configparser.ConfigParser(interpolation=None)
    diags: list[Diagnostic] = []
    try:
        cp.read_string(text, source=source)
    except configparser.Error as exc:
        return None, [Diagnostic("<file>", f"not parseable as INI: {exc}")]

    cfg = ScenarioConfig()
    sampler_kwargs: dict[str, float | int] = {}
    family_raw: dict[str, str] = {}

    for section in cp.sections():
        if section not in _SCHEMA:
            diags.append(Diagnostic(section, f"unknown section; expected one of {sorted(_SCHEMA)}"))
            continue
        schema = _SCHEMA[section]
        for key, raw in cp.items(section):
            addr = f"{section}.{key}"
            if addr in _RETIRED:
                continue
            if key not in schema:
                if section == "perturbation":  # checked against the family's constructor below
                    family_raw[key] = raw
                    continue
                diags.append(Diagnostic(addr, f"unknown key; expected one of {sorted(schema)}"))
                continue
            typ = schema[key][0]
            if typ == _STR:
                val: object = raw.strip()
            else:
                try:
                    val = int(raw) if typ == _INT else _finite(raw)
                except ValueError:
                    diags.append(Diagnostic(addr, f"expected {'an integer' if typ == _INT else 'a finite number'}, got {raw!r}"))
                    continue
            if diag := range_diagnostic(section, key, val):
                diags.append(diag)
                continue
            if section == "sampler":
                sampler_kwargs[key] = val  # type: ignore[assignment]
            elif section == "perturbation" and key == "schedule":
                try:
                    cfg.schedule = _parse_schedule(raw)
                except ValueError:
                    diags.append(Diagnostic(addr, f"expected a comma-separated list of finite numbers, got {raw!r}"))
            else:
                attr = {"estimates.t_final": "estimate_t_final"}.get(addr, key)
                setattr(cfg, attr, val)

    if not cp.has_option("run", "seed"):
        diags.append(Diagnostic("run.seed", "mandatory key is missing"))

    if cp.get("perturbation", "family", fallback=cfg.family).strip() == cfg.family:  # else already diagnosed
        params = list(inspect.signature(FAMILIES[cfg.family]).parameters)[2:]  # after (domain, amplitude)
        for key, raw in family_raw.items():
            addr = f"perturbation.{key}"
            if key not in params:
                diags.append(Diagnostic(addr, f"unknown key for family {cfg.family!r}; expected one of {sorted([*_SCHEMA['perturbation'], *params])}"))
                continue
            try:
                cfg.family_params[key] = _finite(raw)
            except ValueError:
                diags.append(Diagnostic(addr, f"expected a finite number, got {raw!r}"))

    if not cfg.upper > cfg.lower:
        diags.append(Diagnostic("domain.upper", f"upper ({cfg.upper}) must exceed lower ({cfg.lower})"))
    if cfg.kind == "rectangle" and not cfg.upper_y > cfg.lower_y:
        diags.append(Diagnostic("domain.upper_y", f"upper_y ({cfg.upper_y}) must exceed lower_y ({cfg.lower_y})"))
    try:
        cfg.make_nonlinearity()
    except ValueError as exc:
        diags.append(Diagnostic("nonlinearity.a", str(exc)))

    if diags:  # the checks below combine values, so each must be valid on its own first
        return None, diags

    cfg.sampler = sampler = SamplerConfig(**sampler_kwargs)
    if (pool := sampler.pool_size(cfg.dt)) > sampler.max_points:
        diags.append(
            Diagnostic(
                "sampler.max_points",
                f"{sampler.n_ics} ICs x {pool // sampler.n_ics} snapshots at dt {cfg.dt} "
                f"= {pool} points exceeds max_points ({sampler.max_points}); every snapshot is kept",
            )
        )
    try:
        cfg.maps()
    except ConfigError as exc:
        diags.append(Diagnostic(exc.key, str(exc)))
    except ValueError as exc:
        # at the parameter that broke a rule, at the schedule when an
        # amplitude makes a map too large, else (the domain kind) at the family
        arg = getattr(exc, "arg", None)
        key = "schedule" if arg == "amplitude" else arg if arg in cfg.family_params else "family"
        diags.append(Diagnostic(f"perturbation.{key}", f"{cfg.family} on the {cfg.kind}: {exc}"))
    # the cap of the unperturbed operator; each perturbed operator's cap is
    # still checked when an integrator is built on it
    if cfg.dt > (cap := stability_cap(cfg.reference_operator())):
        diags.append(Diagnostic("solver.dt", f"dt ({cfg.dt}) exceeds the stability cap {cap:.3e} of the reference mesh"))
    return (None, diags) if diags else (cfg, [])


def load_config(path) -> tuple[ScenarioConfig | None, list[Diagnostic]]:
    p = Path(path)
    if not p.exists():
        return None, [Diagnostic("<file>", f"config file not found: {p}")]
    return parse_config(p.read_text(), source=str(p))
