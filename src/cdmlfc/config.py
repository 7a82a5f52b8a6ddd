"""Run configuration: a single JSON file merged over bundled defaults.

Validation is strict: unknown keys are rejected with path-qualified
messages, and record-like nodes (an area, the CDM gain triple, a PID gain
set, a load profile) must be complete when supplied. Everything not
supplied falls back to the bundled benchmark values.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Any, Optional

from . import defaults
from .cdm import CdmController, CdmGains, synthesize
from .errors import ConfigError, UnstableDesign
from .plant import AreaParams, NonlinearityConfig, TieLine, derive_design_plant
from .poly import Polynomial
from .scenarios import CaseDefinition, case_definition, profile_from_json, profile_to_json
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
            "pid": [
                {"kp": g[0], "ki": g[1], "kd": g[2], "tf": defaults.PID_FILTER_TF}
                for g in defaults.PID_GAINS
            ],
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


# schema tree: dict of allowed keys, "*" marks record nodes validated whole
_RECORD_PATHS = {
    "model.area1",
    "model.area2",
    "model.tie",
    "controllers.cdm_opt",
    "controllers.cdm_classic",
    "controllers.pid",
    "controllers.integral",
    "scenario.loads",
    "optimizer.bounds",
}

_AREA_KEYS = {f.name for f in fields(AreaParams)}
_REQUIRED_RECORD_KEYS = {
    "model.area1": _AREA_KEYS,
    "model.area2": _AREA_KEYS,
    "model.tie": {"T12"},
    "controllers.cdm_opt": {"gamma", "tau", "k_b0"},
    "controllers.cdm_classic": {"ac", "bc"},
    "optimizer.bounds": {"gamma", "tau", "k_b0"},
}


def _merge(base: Any, user: Any, path: str) -> Any:
    if path in _RECORD_PATHS:
        required = _REQUIRED_RECORD_KEYS.get(path)
        if required is not None:
            if not isinstance(user, dict):
                raise ConfigError(path, f"expected an object with keys {sorted(required)}")
            missing = required - set(user.keys())
            if missing:
                raise ConfigError(f"{path}.{sorted(missing)[0]}", "missing required field")
            unknown = set(user.keys()) - required
            if unknown:
                raise ConfigError(f"{path}.{sorted(unknown)[0]}", "unknown key")
        return copy.deepcopy(user)
    if isinstance(base, dict):
        if not isinstance(user, dict):
            raise ConfigError(path, "expected an object")
        unknown = set(user.keys()) - set(base.keys())
        if unknown:
            raise ConfigError(f"{path}.{sorted(unknown)[0]}" if path else sorted(unknown)[0], "unknown key")
        merged = {}
        for key, value in base.items():
            child = f"{path}.{key}" if path else key
            merged[key] = _merge(value, user[key], child) if key in user else copy.deepcopy(value)
        return merged
    return copy.deepcopy(user)


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


_CASTS = {"int": int, "float": float, "bool": bool, "str": str}


def _record(cls, node: dict, path: str):
    """The dataclass cls built from node's values, each cast to its field's annotated type."""
    try:
        return cls(**{f.name: _CASTS[f.type](node[f.name]) for f in fields(cls)})
    except (ValueError, TypeError) as exc:
        raise ConfigError(path, str(exc)) from None


def _number(value, path: str) -> float:
    """value as a finite float, else a config error naming path."""
    try:
        number = float(value)
        if math.isfinite(number):
            return number
    except (TypeError, ValueError):
        pass
    raise ConfigError(path, "expected a finite number")


def _seed(value, path: str) -> int:
    """value as a non-negative integer seed, else a config error naming path."""
    seed = _number(value, path)
    if seed < 0.0 or seed != int(seed):
        raise ConfigError(path, "must be a non-negative integer")
    return int(seed)


def _pair(values, path: str) -> list:
    """values if a two-element list (one entry per area, or [low, high]), else a config error naming path."""
    if not (isinstance(values, list) and len(values) == 2):
        raise ConfigError(path, "expected a two-element list")
    return values


def _numbers(values, path: str) -> list[float]:
    """values as a list of finite floats, else a config error naming path or the bad entry."""
    if not isinstance(values, list):
        raise ConfigError(path, "expected a list of numbers")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(values)]


def _step(node: dict, path: str) -> float:
    """node["dt"], an integrator step in (0, 0.05] as the simulator requires."""
    dt = _number(node["dt"], f"{path}.dt")
    if not (0.0 < dt <= 0.05):
        raise ConfigError(f"{path}.dt", "must be in (0, 0.05]")
    return dt


def _horizon(node: dict, path: str, dt: float, dt_path: str) -> float:
    horizon = _number(node["horizon"], f"{path}.horizon")
    if not horizon_steps(horizon, dt):
        raise ConfigError(f"{path}.horizon", f"must be a positive whole multiple of {dt_path}")
    return horizon


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
    tau = _number(cdm_opt["tau"], "controllers.cdm_opt.tau")
    kb0 = _numbers(_pair(cdm_opt["k_b0"], "controllers.cdm_opt.k_b0"), "controllers.cdm_opt.k_b0")
    try:
        cdm_gains = tuple(CdmGains(gamma, tau, k) for k in kb0)
    except ValueError as exc:
        raise ConfigError("controllers.cdm_opt", str(exc)) from None

    pid = []
    keys = {f.name for f in fields(PidSpec)}
    for i, node in enumerate(_pair(controllers["pid"], "controllers.pid")):
        path = f"controllers.pid[{i}]"
        if not isinstance(node, dict) or set(node.keys()) - keys:
            raise ConfigError(path, f"expected keys {sorted(keys)}")
        missing = keys - {"tf"} - set(node.keys())
        if missing:
            raise ConfigError(f"{path}.{sorted(missing)[0]}", "missing required field")
        pid.append(_record(PidSpec, {"tf": defaults.PID_FILTER_TF, **node}, path))

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

    solver = merged["solver"]
    dt = _step(solver, "solver")
    controller_dt = _number(solver["controller_dt"], "solver.controller_dt")
    # a controller sample finer than dt is refused by the commands that run the solver
    if not (controller_dt > 0.0 and (controller_dt < dt or sample_steps(controller_dt, dt))):
        raise ConfigError("solver.controller_dt", "must be a positive whole multiple of solver.dt")
    horizon = None if solver["horizon"] is None else _horizon(solver, "solver", dt, "solver.dt")
    objective_dt = _step(opt["objective"], "optimizer.objective")
    _horizon(opt["objective"], "optimizer.objective", objective_dt, "optimizer.objective.dt")
    scenario = merged["scenario"]
    # its solver.dt grid is checked by the commands that run the scenario, so
    # that a --dt off its grid still serves the commands that do not
    scenario_horizon = _number(scenario["horizon"], "scenario.horizon")
    if not scenario_horizon > 0.0:
        raise ConfigError("scenario.horizon", "must be > 0")
    try:
        loads = tuple(profile_from_json(node) for node in _pair(scenario["loads"], "scenario.loads"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError("scenario.loads", f"bad load profile: {exc}") from None

    return RunConfig(
        raw=merged,
        areas=(_record(AreaParams, model["area1"], "model.area1"), _record(AreaParams, model["area2"], "model.area2")),
        tie=_record(TieLine, model["tie"], "model.tie"),
        nonlin=_record(NonlinearityConfig, model["nonlinear"], "model.nonlinear"),
        cases_nonlin=_record(NonlinearityConfig, merged["cases"]["nonlinear"], "cases.nonlinear"),
        cases_seed=_seed(merged["cases"]["seed"], "cases.seed"),
        cdm_gains=cdm_gains,
        classic=tuple(classic),
        pid=tuple(pid),
        integral=tuple(IntegralSpec(k) for k in integral),
        dt=dt,
        controller_dt=controller_dt,
        horizon=horizon,
        wca=_record(WcaConfig, {**opt, "seed": _seed(opt["seed"], "optimizer.seed")}, "optimizer"),
        opt_bounds=opt_bounds,
        objective_settings=dict(opt["objective"]),
        objective_nonlin=_record(NonlinearityConfig, opt["objective"], "optimizer.objective"),
        scenario=CaseDefinition(
            "custom scenario comparison",
            loads,
            scenario_horizon,
            disturbance_time=_number(scenario["disturbance_time"], "scenario.disturbance_time"),
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
