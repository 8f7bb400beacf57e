"""INI scenario configs: strict schema, typed values, diagnostic errors.

A scenario file uses the sections [domain], [perturbation], [nonlinearity],
[solver], [sampler], [gh], [estimates], [run].  Unknown sections or keys,
unparseable values, and out-of-range values are reported as a list of
Diagnostic(key, message) entries instead of exceptions, so a CLI run can show
every problem at once.  `seed` under [run] is the one mandatory key.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

from .domains import FAMILIES, PerturbationFamily, ReferenceDomain, make_family
from .dynamics import SamplerConfig, stability_cap
from .ghmetric import _S_GRID, Reparametrization
from .operators import DiscreteOperator, Mesh, NonlinearitySpec, default_nonlinearity, identity_operator

__all__ = ["Diagnostic", "ScenarioConfig", "parse_config", "load_config", "DEFAULT_SCHEDULE"]

DEFAULT_SCHEDULE = (0.04, 0.02, 0.01, 0.005, 0.0025)

_S_MAX = float(max(abs(_S_GRID)))  # largest |s| of the dynamical distance's reparametrizations


@dataclass(frozen=True)
class Diagnostic:
    """One problem found in a config file, addressed as section.key."""

    key: str
    message: str

    def __str__(self) -> str:
        return f"{self.key}: {self.message}"


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
    rho: float = 1.0
    # [estimates]
    n_pairs: int = 20
    estimate_t_final: float = 2.0
    # [run]
    seed: int = 0
    threads: int = 1
    _reference_op: DiscreteOperator | None = field(default=None, init=False, repr=False, compare=False)

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

    def make_family(self) -> PerturbationFamily:
        return make_family(self.family, self.make_domain(), self.schedule, self.family_params)

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
        "a": (_FLOAT, lambda x: x > 0, "positive"),
        "b": (_FLOAT, lambda x: True, ""),
    },
    "solver": {
        "dt": (_FLOAT, lambda x: x > 0, "positive"),
        "t_final": (_FLOAT, lambda x: x > 0, "positive"),
    },
    "sampler": {
        "n_ics": (_INT, lambda n: n >= 1, "at least 1"),
        "radius": (_FLOAT, lambda x: x > 0, "positive"),
        "t_transient": (_FLOAT, lambda x: x > 0, "positive"),
        "t_window": (_FLOAT, lambda x: x > 0, "positive"),
        "stride": (_INT, lambda n: n >= 1, "at least 1"),
        "max_points": (_INT, lambda n: n >= 1, "at least 1"),
        "plateau_tol": (_FLOAT, lambda x: x > 0, "positive"),
        "plateau_floor": (_FLOAT, lambda x: x >= 0, "nonnegative"),
        "plateau_window": (_INT, lambda n: n >= 2, "at least 2"),
        "t_cap": (_FLOAT, lambda x: x > 0, "positive"),
        "dt": (_FLOAT, lambda x: x > 0, "positive"),
        "flow_grid_m": (_INT, lambda n: n >= 1, "at least 1"),
        "n_modes": (_INT, lambda n: n >= 1, "at least 1"),
    },
    "gh": {
        "budget": (_INT, lambda n: n >= 1, "at least 1"),
        "rho": (
            _FLOAT,
            lambda x: x > 0 and Reparametrization.monotone(_S_MAX, x),
            f"positive and below {1 / _S_MAX:.6g}, so that |s * rho| < 1 for every reparametrization |s| <= {_S_MAX:g}",
        ),
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

# family parameters are free-form floats under [perturbation]
_FAMILY_PARAM_KEYS = {"center", "width", "center_x", "center_y"}


def _parse_schedule(raw: str) -> tuple[float, ...]:
    parts = [p for p in raw.replace(",", " ").split() if p]
    return tuple(float(p) for p in parts)


def parse_config(text: str, source: str = "<string>") -> tuple[ScenarioConfig | None, list[Diagnostic]]:
    """Parse INI text; on any diagnostic the config result is None."""
    cp = configparser.ConfigParser(interpolation=None)
    diags: list[Diagnostic] = []
    try:
        cp.read_string(text, source=source)
    except configparser.Error as exc:
        return None, [Diagnostic("<file>", f"not parseable as INI: {exc}")]

    cfg = ScenarioConfig()
    sampler_kwargs: dict[str, float | int] = {}
    family_params: dict[str, float] = {}

    for section in cp.sections():
        if section not in _SCHEMA:
            diags.append(Diagnostic(section, f"unknown section; expected one of {sorted(_SCHEMA)}"))
            continue
        schema = _SCHEMA[section]
        for key, raw in cp.items(section):
            addr = f"{section}.{key}"
            if key not in schema:
                if section == "perturbation" and key in _FAMILY_PARAM_KEYS:
                    try:
                        family_params[key] = float(raw)
                    except ValueError:
                        diags.append(Diagnostic(addr, f"expected a number, got {raw!r}"))
                    continue
                diags.append(Diagnostic(addr, f"unknown key; expected one of {sorted(schema)}"))
                continue
            typ, pred, rng = schema[key]
            if typ == _STR:
                val: object = raw.strip()
            else:
                try:
                    val = int(raw) if typ == _INT else float(raw)
                except ValueError:
                    diags.append(Diagnostic(addr, f"expected {'an integer' if typ == _INT else 'a number'}, got {raw!r}"))
                    continue
            if not pred(val):
                hint = f"; must be {rng}" if rng else ""
                diags.append(Diagnostic(addr, f"value {val!r} out of range{hint}"))
                continue
            if section == "sampler":
                sampler_kwargs[key] = val  # type: ignore[assignment]
            elif section == "perturbation" and key == "schedule":
                try:
                    sched = _parse_schedule(raw)
                except ValueError:
                    diags.append(Diagnostic(addr, f"expected a comma-separated list of numbers, got {raw!r}"))
                    continue
                if len(sched) < 1:
                    diags.append(Diagnostic(addr, "schedule must contain at least one amplitude"))
                    continue
                if any(s <= 0 for s in sched) or any(
                    b >= a_ for a_, b in zip(sched, sched[1:])
                ):
                    diags.append(Diagnostic(addr, f"schedule must be positive and strictly decreasing, got {sched}"))
                    continue
                cfg.schedule = sched
            else:
                attr = {"estimates.t_final": "estimate_t_final"}.get(addr, key)
                setattr(cfg, attr, val)

    if not cp.has_option("run", "seed"):
        diags.append(Diagnostic("run.seed", "mandatory key is missing"))

    if cfg.kind == "interval" and not cfg.upper > cfg.lower:
        diags.append(Diagnostic("domain.upper", f"upper ({cfg.upper}) must exceed lower ({cfg.lower})"))
    if cfg.kind == "rectangle":
        if not cfg.upper > cfg.lower:
            diags.append(Diagnostic("domain.upper", f"upper ({cfg.upper}) must exceed lower ({cfg.lower})"))
        if not cfg.upper_y > cfg.lower_y:
            diags.append(Diagnostic("domain.upper_y", f"upper_y ({cfg.upper_y}) must exceed lower_y ({cfg.lower_y})"))
    if not cfg.a > abs(cfg.b):
        diags.append(Diagnostic("nonlinearity.a", f"a ({cfg.a}) must exceed |b| ({abs(cfg.b)}) for dissipativity"))
    fam_2d = FAMILIES.get(cfg.family)
    if fam_2d is not None:
        want_2d = cfg.family.endswith("2d")
        have_2d = cfg.kind == "rectangle"
        if want_2d != have_2d:
            diags.append(
                Diagnostic("perturbation.family", f"family {cfg.family!r} does not fit a {cfg.kind} domain")
            )

    sampler = SamplerConfig(**sampler_kwargs)
    if "dt" not in sampler_kwargs:
        sampler.dt = cfg.dt
    if sampler.t_cap < sampler.t_transient + sampler.t_window:
        diags.append(Diagnostic("sampler.t_cap", f"t_cap ({sampler.t_cap}) ends the run before t_transient + t_window"))
    if sampler.pool_size > sampler.max_points:
        diags.append(
            Diagnostic(
                "sampler.max_points",
                f"{sampler.n_ics} ICs x {sampler.pool_size // sampler.n_ics} snapshots at dt {sampler.dt} "
                f"= {sampler.pool_size} points exceeds max_points ({sampler.max_points}); every snapshot is kept",
            )
        )

    if diags:
        return None, diags

    # the cap of the unperturbed operator; each perturbed operator's cap is
    # still checked when an integrator is built on it
    cap = stability_cap(cfg.reference_operator())
    for key, dt in (("solver.dt", cfg.dt), ("sampler.dt", sampler_kwargs.get("dt"))):
        if dt is not None and dt > cap:
            diags.append(Diagnostic(key, f"dt ({dt}) exceeds the stability cap {cap:.3e} of the reference mesh"))
    if diags:
        return None, diags

    cfg.sampler = sampler
    cfg.family_params = family_params
    return cfg, []


def load_config(path) -> tuple[ScenarioConfig | None, list[Diagnostic]]:
    p = Path(path)
    if not p.exists():
        return None, [Diagnostic("<file>", f"config file not found: {p}")]
    return parse_config(p.read_text(), source=str(p))
