"""Run configuration: a single JSON file merged over bundled defaults.

Validation is strict, and every error names its dotted path: unknown keys
are rejected, record-like nodes (an area, the CDM gain triple, a PID gain
set, a load profile) must be complete when supplied, and every leaf is read
by one rule (`_value`). Everything not supplied falls back to the bundled
benchmark values.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import MISSING, asdict, dataclass, fields
from typing import Any, Optional

from . import defaults
from .cdm import CdmController, CdmGains, synthesize
from .errors import ConfigError, UnstableDesign
from .plant import AreaParams, NonlinearityConfig, TieLine, derive_design_plant
from .poly import Polynomial
from .scenarios import PROFILE_KINDS, CaseDefinition, Composite, LoadProfile, case_definition, profile_to_json
from .sim import ControllerSpec, IntegralSpec, PidSpec, horizon_steps, sample_steps
from .wca import WcaConfig


def default_config() -> dict:
    """The bundled values of `defaults`, WcaConfig() and case 2, as a config tree."""
    scenario = case_definition(2)
    return {
        "model": {
            "area1": asdict(defaults.AREA1),
            "area2": asdict(defaults.AREA2),
            "tie": asdict(defaults.TIE),
            "nonlinear": asdict(defaults.NONLIN_DEFAULT),
        },
        "controllers": {
            "cdm_opt": {
                "gamma": list(defaults.OPT_GAMMA),
                "tau": defaults.OPT_TAU,
                "k_b0": list(defaults.OPT_KB0),
            },
            "cdm_classic": {
                "ac": [list(p.coeffs) for p in defaults.CLASSIC_AC],
                "bc": [list(p.coeffs) for p in defaults.CLASSIC_BC],
            },
            "pid": [asdict(PidSpec(*gains)) for gains in defaults.PID_GAINS],
            "integral": list(defaults.INTEGRAL_GAINS),
        },
        "solver": {
            "dt": defaults.DT_DEFAULT,
            "controller_dt": defaults.CONTROLLER_DT_DEFAULT,
            "horizon": None,
        },
        "cases": {
            "seed": defaults.CASE_SEED,
            "nonlinear": asdict(defaults.NONLIN_CASES),
        },
        "optimizer": {
            **asdict(WcaConfig()),
            # one range per block of [gamma_1..5, tau, k_b0 area1, k_b0 area2]
            "bounds": {
                "gamma": list(defaults.OPT_BOUNDS[0]),
                "tau": list(defaults.OPT_BOUNDS[5]),
                "k_b0": list(defaults.OPT_BOUNDS[6]),
            },
            "objective": {
                "dt": defaults.OBJECTIVE_DT,
                "horizon": defaults.OBJECTIVE_HORIZON,
                "perturb": defaults.OBJECTIVE_PERTURB,
                **asdict(defaults.NONLIN_OBJECTIVE),
            },
        },
        "scenario": {
            "loads": [profile_to_json(p) for p in scenario.loads],
            "horizon": scenario.horizon,
            "disturbance_time": scenario.disturbance_time,
        },
    }


# object records: supplied whole, with exactly the keys of their default node
_RECORD_PATHS = {
    "model.area1",
    "model.area2",
    "model.tie",
    "controllers.cdm_opt",
    "controllers.cdm_classic",
    "optimizer.bounds",
}


def _keys(node, allowed: set, required: set, path: str) -> None:
    """Refuse a node that is not an object, holds a key outside allowed or lacks a required one."""
    if not isinstance(node, dict):
        raise ConfigError(path, "expected an object")
    for keys, message in ((set(node) - allowed, "unknown key"), (required - set(node), "missing required field")):
        if keys:
            raise ConfigError(f"{path}.{min(keys)}".lstrip("."), message)


def _merge(base: Any, user: Any, path: str) -> Any:
    if not isinstance(base, dict):
        return copy.deepcopy(user)
    _keys(user, set(base), set(base) if path in _RECORD_PATHS else set(), path)
    merged = copy.deepcopy(base)
    merged.update({key: _merge(base[key], value, f"{path}.{key}".lstrip(".")) for key, value in user.items()})
    return merged


@dataclass
class RunConfig:
    raw: dict  # merged, validated config (the manifest hashes this)
    areas: tuple[AreaParams, AreaParams]
    tie: TieLine
    nonlin: NonlinearityConfig
    cases_nonlin: NonlinearityConfig
    cases_seed: int
    cdm_gains: tuple[CdmGains, CdmGains]
    classic: tuple  # (Ac per area, Bc per area) of the classic CDM baseline
    pid: tuple[PidSpec, PidSpec]
    integral: tuple[IntegralSpec, IntegralSpec]
    dt: float
    controller_dt: float
    horizon: Optional[float]
    wca: WcaConfig
    opt_bounds: list
    objective_settings: dict
    objective_nonlin: NonlinearityConfig
    scenario: CaseDefinition

    def canonical_json(self) -> str:
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))

    def run_horizon(self, default: float, what: str) -> float:
        """The horizon of a case, sweep or scenario run (`what` names it): solver.horizon,
        else `default`. Refuses a controller sample or a horizon off the solver.dt grid."""
        if not sample_steps(self.controller_dt, self.dt):
            message = f"{self.controller_dt:g} is not a positive whole multiple of solver.dt = {self.dt:g}"
            raise ConfigError("solver.controller_dt", message)
        horizon = default if self.horizon is None else self.horizon
        if not horizon_steps(horizon, self.dt):
            raise ConfigError("solver.dt", f"{self.dt:g} does not divide the {horizon:g} s horizon of {what}")
        return horizon

    def controller_pair(self, name: str) -> tuple[ControllerSpec, ControllerSpec]:
        """Controller pair by report name; the CDM sets are designed on the areas' design
        plants, and a CDM set whose design loop is not Hurwitz raises UnstableDesign."""
        if name == "pid":
            return self.pid
        if name == "pi":
            return self.integral
        plants = [derive_design_plant(area, self.tie) for area in self.areas]
        if name == "cdm_opt":
            pair = tuple(synthesize(plant, gains) for plant, gains in zip(plants, self.cdm_gains))
        elif name == "cdm":
            pair = tuple(CdmController.from_polynomials(ac, bc, plant) for ac, bc, plant in zip(*self.classic, plants))
        else:
            raise KeyError(f"unknown controller set {name!r}; expected one of {defaults.CONTROLLER_SET_NAMES}")
        unstable = [i + 1 for i, ctrl in enumerate(pair) if not ctrl.stable]
        if unstable:
            raise UnstableDesign(f"controller set {name!r} has an unstable design for area(s) {unstable}")
        return pair


_KINDS = {"float": "a finite number", "int": "a whole number", "bool": "a boolean", "str": "a string"}


def _value(value, kind: str, path: str):
    """value read as a leaf of kind "float", "int", "bool" or "str", else a config error naming path.

    A float is a finite JSON number (never a string, a boolean or NaN), an int a whole one, a bool
    a JSON boolean and a str a string. Only a grc_rate may be +inf, which means no clamp."""
    number = type(value) in (int, float) and (math.isfinite(value) or (value == math.inf and path.endswith("grc_rate")))
    ok = type(value).__name__ == kind if kind in ("bool", "str") else number and (kind == "float" or value % 1 == 0)
    if not ok:
        raise ConfigError(path, f"expected {_KINDS[kind]}, got {json.dumps(value, default=repr)}")
    return float(value) if kind == "float" else int(value) if kind == "int" else value


def _record(cls, node, path: str, others: tuple = ()):
    """The dataclass cls built from the object node, each field read with `_value` as its annotated
    type; a field with a default may be left out, and node may hold no key but the fields and `others`."""
    required = {f.name for f in fields(cls) if f.default is MISSING}
    _keys(node, {f.name for f in fields(cls)} | set(others), required, path)
    try:
        return cls(**{f.name: _value(node[f.name], f.type, f"{path}.{f.name}") for f in fields(cls) if f.name in node})
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _seed(value, path: str) -> int:
    """value as a non-negative integer seed, else a config error naming path."""
    seed = _value(value, "int", path)
    if seed < 0:
        raise ConfigError(path, "must be a non-negative integer")
    return seed


def _pair(values, path: str) -> list:
    """values if a two-element list (one entry per area, or [low, high]), else a config error naming path."""
    if not (isinstance(values, list) and len(values) == 2):
        raise ConfigError(path, "expected a two-element list")
    return values


def _numbers(values, path: str) -> list[float]:
    """values as a list of finite floats, else a config error naming path or the bad entry."""
    if not isinstance(values, list):
        raise ConfigError(path, "expected a list of numbers")
    return [_value(v, "float", f"{path}[{i}]") for i, v in enumerate(values)]


def _step(node: dict, path: str) -> float:
    """node["dt"], an integrator step in (0, 0.05] as the simulator requires."""
    dt = _value(node["dt"], "float", f"{path}.dt")
    if not (0.0 < dt <= 0.05):
        raise ConfigError(f"{path}.dt", "must be in (0, 0.05]")
    return dt


def _horizon(node: dict, path: str, dt: float, dt_path: str) -> float:
    horizon = _value(node["horizon"], "float", f"{path}.horizon")
    if not horizon_steps(horizon, dt):
        raise ConfigError(f"{path}.horizon", f"must be a positive whole multiple of {dt_path}")
    return horizon


def _profile(node, path: str) -> Optional[LoadProfile]:
    """A scenario load profile from its JSON form (`profile_to_json`'s), or None."""
    if node is None:
        return None
    if not isinstance(node, dict):
        raise ConfigError(path, "expected a load profile object or null")
    kind = _value(node.get("kind"), "str", f"{path}.kind")
    if kind not in PROFILE_KINDS:
        raise ConfigError(f"{path}.kind", f"expected one of {sorted(PROFILE_KINDS)}")
    if kind != "composite":
        return _record(PROFILE_KINDS[kind], node, path, ("kind",))
    _keys(node, {"kind", "parts"}, {"parts"}, path)
    if not isinstance(node["parts"], list):
        raise ConfigError(f"{path}.parts", "expected a list of load profiles")
    return Composite(tuple(_profile(part, f"{path}.parts[{i}]") for i, part in enumerate(node["parts"])))


def build_config(user: Optional[dict] = None, overrides: Optional[dict] = None) -> RunConfig:
    """Merge user config over defaults, apply flag overrides, validate."""
    merged = _merge(default_config(), user or {}, "")
    for dotted, value in (overrides or {}).items():
        node = merged
        parts = dotted.split(".")
        for part in parts[:-1]:
            node = node[part]
        node[parts[-1]] = value

    model = merged["model"]
    controllers = merged["controllers"]
    opt = merged["optimizer"]

    cdm_opt = controllers["cdm_opt"]
    gamma = _numbers(cdm_opt["gamma"], "controllers.cdm_opt.gamma")
    if len(gamma) != len(defaults.OPT_GAMMA):
        raise ConfigError("controllers.cdm_opt.gamma", f"expected {len(defaults.OPT_GAMMA)} stability indices")
    tau = _value(cdm_opt["tau"], "float", "controllers.cdm_opt.tau")
    kb0 = _numbers(_pair(cdm_opt["k_b0"], "controllers.cdm_opt.k_b0"), "controllers.cdm_opt.k_b0")
    try:
        cdm_gains = tuple(CdmGains(gamma, tau, k) for k in kb0)
    except ValueError as exc:
        raise ConfigError("controllers.cdm_opt", str(exc)) from None

    pid = _pair(controllers["pid"], "controllers.pid")
    pid = tuple(_record(PidSpec, node, f"controllers.pid[{i}]") for i, node in enumerate(pid))
    integral = _numbers(_pair(controllers["integral"], "controllers.integral"), "controllers.integral")

    classic = []
    for key in ("ac", "bc"):
        path = f"controllers.cdm_classic.{key}"
        polys = _pair(controllers["cdm_classic"][key], path)
        classic.append(tuple(Polynomial(_numbers(c, f"{path}[{i}]")) for i, c in enumerate(polys)))

    bounds = {}
    for key, pair in opt["bounds"].items():
        path = f"optimizer.bounds.{key}"
        low, high = bounds[key] = tuple(_numbers(_pair(pair, path), path))
        if not low < high:
            raise ConfigError(path, "expected [low, high] with low < high")
    opt_bounds = [bounds["gamma"]] * 5 + [bounds["tau"]] + [bounds["k_b0"]] * 2
    wca_node = {**opt, "seed": _seed(opt["seed"], "optimizer.seed")}
    wca = _record(WcaConfig, wca_node, "optimizer", ("bounds", "objective"))

    solver = merged["solver"]
    dt = _step(solver, "solver")
    controller_dt = _value(solver["controller_dt"], "float", "solver.controller_dt")
    # a controller sample finer than dt is refused by the commands that run the solver
    if not (controller_dt > 0.0 and (controller_dt < dt or sample_steps(controller_dt, dt))):
        raise ConfigError("solver.controller_dt", "must be a positive whole multiple of solver.dt")
    horizon = None if solver["horizon"] is None else _horizon(solver, "solver", dt, "solver.dt")

    objective = opt["objective"]
    objective_dt = _step(objective, "optimizer.objective")
    perturb = _value(objective["perturb"], "float", "optimizer.objective.perturb")
    if not perturb > 0.0:
        raise ConfigError("optimizer.objective.perturb", "must be > 0")
    objective_nonlin = _record(NonlinearityConfig, objective, "optimizer.objective", ("dt", "horizon", "perturb"))
    objective_settings = {
        "dt": objective_dt,
        "horizon": _horizon(objective, "optimizer.objective", objective_dt, "optimizer.objective.dt"),
        "perturb": perturb,
        **asdict(objective_nonlin),
    }

    scenario = merged["scenario"]
    # its solver.dt grid is checked by the commands that run the scenario, so
    # that a --dt off its grid still serves the commands that do not
    scenario_horizon = _value(scenario["horizon"], "float", "scenario.horizon")
    if not scenario_horizon > 0.0:
        raise ConfigError("scenario.horizon", "must be > 0")
    loads = tuple(_profile(n, f"scenario.loads[{i}]") for i, n in enumerate(_pair(scenario["loads"], "scenario.loads")))

    return RunConfig(
        raw=merged,
        areas=(_record(AreaParams, model["area1"], "model.area1"), _record(AreaParams, model["area2"], "model.area2")),
        tie=_record(TieLine, model["tie"], "model.tie"),
        nonlin=_record(NonlinearityConfig, model["nonlinear"], "model.nonlinear"),
        cases_nonlin=_record(NonlinearityConfig, merged["cases"]["nonlinear"], "cases.nonlinear"),
        cases_seed=_seed(merged["cases"]["seed"], "cases.seed"),
        cdm_gains=cdm_gains,
        classic=tuple(classic),
        pid=pid,
        integral=tuple(IntegralSpec(k) for k in integral),
        dt=dt,
        controller_dt=controller_dt,
        horizon=horizon,
        wca=wca,
        opt_bounds=opt_bounds,
        objective_settings=objective_settings,
        objective_nonlin=objective_nonlin,
        scenario=CaseDefinition(
            "custom scenario comparison",
            loads,
            scenario_horizon,
            disturbance_time=_value(scenario["disturbance_time"], "float", "scenario.disturbance_time"),
        ),
    )


def load_config(path: Optional[str], overrides: Optional[dict] = None) -> RunConfig:
    user = None
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(path, "config file not found") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(path, f"invalid JSON: {exc}") from None
        if not isinstance(user, dict):
            raise ConfigError(path, "top-level config must be an object")
    return build_config(user, overrides)
