"""Case definitions, load profiles, performance indices, transient measures,
the optimization objective, and sensitivity sweeps.

Case catalog: 2 = 1% step in area 1, 3 = sinusoidal load in area 1,
4 = uniformly random loads in both areas, 5 = random loads with
governor/turbine constants drifted, 6 = the parameter sensitivity sweep.
The sine and random-load parameters are nominal choices, exposed through
the case definitions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field, fields, replace
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from . import defaults
from .cdm import CdmGains, synthesize
from .errors import ConfigError, NonFiniteState, SingularSystem
from .plant import AreaParams, NonlinearityConfig, TieLine, derive_design_plant
from .sim import BatchCdmSimulator, LoadShape, LoadTable, SystemModel, Trajectory, simulate

if TYPE_CHECKING:
    from .config import RunConfig

# ---------------------------------------------------------------------------
# load profiles


@dataclass(frozen=True)
class Step(LoadShape):
    """magnitude from time on, 0.0 before."""

    magnitude: float  # pu
    time: float  # s

    def sample(self, times: np.ndarray, sines: bool = True) -> np.ndarray:
        return np.where(times >= self.time, self.magnitude, 0.0)


@dataclass(frozen=True)
class Sine(LoadShape):
    """amplitude * sin(2 pi frequency (t - start)) from start on, 0.0 before: one sine term."""

    amplitude: float  # pu
    frequency: float  # Hz
    start: float = 0.0  # s

    @property
    def sines(self) -> tuple:
        return ((self.amplitude, 2.0 * math.pi * self.frequency, self.start),)

    def sample(self, times: np.ndarray, sines: bool = True) -> np.ndarray:
        out = np.zeros(times.shape)
        if sines:
            ((amplitude, omega, start),) = self.sines
            on = times >= start
            phases = omega * (times[on] - start)
            # math.sin per sample: np.sin may round differently
            out[on] = amplitude * np.fromiter(map(math.sin, phases), float, count=len(phases))
        return out


@dataclass(frozen=True)
class UniformRandom(LoadShape):
    """Draw k of seed's generator over [k * hold, (k + 1) * hold), whatever the span sampled."""

    amplitude: float  # pu, values drawn from [-amplitude, +amplitude]
    hold: float  # s, zero-order hold per segment
    seed: int

    def __post_init__(self):
        if not self.hold > 0.0:
            raise ValueError("hold must be > 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def sample(self, times: np.ndarray, sines: bool = True) -> np.ndarray:
        segments = (times / self.hold).astype(np.intp)
        return _draws(self.amplitude, self.seed, int(segments.max(initial=0)) + 1)[segments]


@functools.lru_cache
def _draws(amplitude: float, seed: int, count: int) -> np.ndarray:
    """The first count draws of seed's generator, cached for per-call samples (indexing them copies)."""
    return np.random.default_rng(seed).uniform(-amplitude, amplitude, size=count)


@dataclass(frozen=True)
class Composite(LoadShape):
    """The sum of parts, added left to right from 0.0 (0.0 with no parts); a None part is no load."""

    parts: tuple

    @property
    def sines(self) -> tuple:
        return tuple(term for part in self.parts if part is not None for term in part.sines)

    def sample(self, times: np.ndarray, sines: bool = True) -> np.ndarray:
        acc = np.zeros(times.shape)
        for part in self.parts:
            if part is not None:
                acc += part.sample(times, sines)
        return acc


LoadProfile = Union[Step, Sine, UniformRandom, Composite]


# JSON form: {"kind": <key>, <field>: <value>, ...}; a composite's parts nest
PROFILE_KINDS = {"step": Step, "sine": Sine, "uniform_random": UniformRandom, "composite": Composite}
_KIND_OF = {cls: kind for kind, cls in PROFILE_KINDS.items()}


def profile_to_json(profile: Optional[LoadProfile]) -> Optional[dict]:
    if profile is None:
        return None
    kind = _KIND_OF.get(type(profile))
    if kind is None:
        raise TypeError(type(profile).__name__)
    if kind == "composite":
        return {"kind": kind, "parts": [profile_to_json(p) for p in profile.parts]}
    return {"kind": kind, **asdict(profile)}


# ---------------------------------------------------------------------------
# indices and transient measures


@dataclass
class SignalStats:
    iae: float
    t_s: Optional[float]  # None marks NotSettled
    overshoot: float
    undershoot: float
    settled: bool


@dataclass
class Metrics:
    iae: float
    ise: float
    itse: float
    itae: float
    signals: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return asdict(self)


def indices(traj: Trajectory) -> Metrics:
    """Summed performance indices over both areas' frequency deviations."""
    t = traj.t
    a1, a2 = np.abs(traj.df1), np.abs(traj.df2)
    s1, s2 = traj.df1**2, traj.df2**2
    return Metrics(
        iae=float(np.trapezoid(a1, t) + np.trapezoid(a2, t)),
        ise=float(np.trapezoid(s1, t) + np.trapezoid(s2, t)),
        itse=float(np.trapezoid((s1 + s2) * t, t)),
        itae=float(np.trapezoid((a1 + a2) * t, t)),
    )


def transient_measures(
    signal: np.ndarray,
    t: np.ndarray,
    band: float,
    t0: float = 0.0,
) -> tuple[Optional[float], float, float, bool]:
    """(t_s, overshoot, undershoot, settled) of one signal.

    t_s is the last exit time of the +/-band tube measured from the
    disturbance instant t0 (linearly interpolated at the crossing); None
    with settled=False when the signal is still outside the band at the end
    of the horizon.
    """
    if band <= 0.0:
        raise ValueError("band must be > 0")
    overshoot = float(np.max(signal))
    undershoot = float(np.min(signal))
    mag = np.abs(signal)
    outside = mag > band
    if not outside.any():
        return 0.0, overshoot, undershoot, True
    last = int(np.nonzero(outside)[0][-1])
    if last == len(signal) - 1:
        return None, overshoot, undershoot, False
    # interpolate the |signal| = band crossing inside [t_last, t_last+1]
    m0, m1 = float(mag[last]), float(mag[last + 1])
    frac = (m0 - band) / (m0 - m1) if m1 < m0 else 0.0
    t_cross = float(t[last]) + frac * float(t[last + 1] - t[last])
    return max(0.0, t_cross - t0), overshoot, undershoot, True


def evaluate(traj: Trajectory, t0: float = 0.0) -> Metrics:
    """Indices plus per-signal transient statistics for df1, df2, dptie,
    settling into the `defaults.SETTLE_BANDS` tubes."""
    m = indices(traj)
    for name in ("df1", "df2", "dptie"):
        sig = getattr(traj, name)
        t_s, os_, us, settled = transient_measures(sig, traj.t, defaults.SETTLE_BANDS[name], t0)
        m.signals[name] = SignalStats(
            iae=float(np.trapezoid(np.abs(sig), traj.t)),
            t_s=t_s,
            overshoot=os_,
            undershoot=us,
            settled=settled,
        )
    return m


# ---------------------------------------------------------------------------
# tuning objective

PENALTY_FLOOR = 1e6  # the least cost TuningObjective gives a penalized candidate


def case1_load() -> Composite:
    """1% steps in both areas at t = 1 s and t = 30 s."""
    return Composite((Step(0.01, 1.0), Step(0.01, 30.0)))


@dataclass
class TuningObjective:
    """IAE objective over the 8-vector [gamma_1..5, tau, k_b0_1, k_b0_2].

    Controllers are synthesized on the nominal design plants; the
    evaluation model carries the 50% governor/turbine drift. A singular
    synthesis (SingularSystem, the one error synthesize raises for positive
    gains), unstable design, or divergent run maps to a penalty of at least
    PENALTY_FLOOR; any other exception is a bug and propagates.
    """

    areas: tuple[AreaParams, AreaParams] = (defaults.AREA1, defaults.AREA2)
    tie: TieLine = defaults.TIE
    nonlin: NonlinearityConfig = defaults.NONLIN_OBJECTIVE
    perturb: float = defaults.OBJECTIVE_PERTURB
    dt: float = defaults.OBJECTIVE_DT
    horizon: float = defaults.OBJECTIVE_HORIZON
    bounds: Sequence[tuple[float, float]] = tuple(defaults.OPT_BOUNDS)

    def __post_init__(self):
        self._plants = tuple(derive_design_plant(a, self.tie) for a in self.areas)
        # the evaluation model, built here only: Tg and Tt scaled by perturb, the case-1 load in both areas
        self.eval_areas = tuple(replace(a, Tg=a.Tg * self.perturb, Tt=a.Tt * self.perturb) for a in self.areas)
        load = case1_load()
        self.eval_loads = (load, load)
        self._sim = BatchCdmSimulator(self.eval_areas, self.tie, self.nonlin, self.eval_loads, self.dt, self.horizon)

    def decode(self, x: Sequence[float]) -> tuple[CdmGains, CdmGains]:
        gamma = tuple(float(v) for v in x[:5])
        tau = float(x[5])
        return (CdmGains(gamma, tau, float(x[6])), CdmGains(gamma, tau, float(x[7])))

    def reference_vector(self) -> np.ndarray:
        """The benchmark gain triple as a decision vector."""
        return np.array(list(defaults.OPT_GAMMA) + [defaults.OPT_TAU, *defaults.OPT_KB0])

    def batch(self, xs: np.ndarray) -> np.ndarray:
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        n = xs.shape[0]
        costs = np.empty(n)
        pairs = []
        live = []
        for i, x in enumerate(xs):
            try:
                g1, g2 = self.decode(x)
                c1 = synthesize(self._plants[0], g1)
                c2 = synthesize(self._plants[1], g2)
            except SingularSystem:
                costs[i] = PENALTY_FLOOR
                continue
            if not (c1.stable and c2.stable):
                costs[i] = PENALTY_FLOOR + c1.residual + c2.residual
                continue
            pairs.append((c1, c2))
            live.append(i)
        if live:
            iae = self._sim.run_iae(pairs)
            for j, i in enumerate(live):
                if math.isfinite(iae[j]):
                    costs[i] = float(iae[j])
                else:
                    costs[i] = PENALTY_FLOOR + pairs[j][0].residual + pairs[j][1].residual
        return costs


# ---------------------------------------------------------------------------
# cases


@dataclass
class CaseDefinition:
    description: str
    loads: tuple[Optional[LoadProfile], Optional[LoadProfile]]
    horizon: float
    area_overrides: tuple[dict, dict] = ({}, {})
    disturbance_time: float = 0.0


def case_definition(case_id: int, seed: int = defaults.CASE_SEED) -> CaseDefinition:
    if case_id == 2:
        return CaseDefinition(
            "1% step increase in area-1 load demand at t = 1 s",
            (Step(0.01, 1.0), None),
            defaults.CASE_HORIZONS[2],
            disturbance_time=1.0,
        )
    if case_id == 3:
        # nominal sine parameters: 0.01 pu amplitude, 20 s period
        return CaseDefinition(
            "sinusoidal load disturbance in area 1",
            (Sine(0.01, 0.05, 0.0), None),
            defaults.CASE_HORIZONS[3],
        )
    if case_id == 4:
        return CaseDefinition(
            "uniformly distributed random load in both areas",
            (UniformRandom(0.01, 10.0, seed), UniformRandom(0.01, 10.0, seed + 1)),
            defaults.CASE_HORIZONS[4],
        )
    if case_id == 5:
        return CaseDefinition(
            "random loads in both areas with drifted governor/turbine constants",
            (UniformRandom(0.01, 10.0, seed), UniformRandom(0.01, 10.0, seed + 1)),
            defaults.CASE_HORIZONS[5],
            area_overrides=({"Tg": 0.105, "Tt": 0.785}, {"Tg": 0.105, "Tt": 0.6}),
        )
    raise ValueError("case definitions cover cases 2-5 (1 is the optimizer study, 6 the sweep)")


@dataclass
class ControllerResult:
    name: str
    metrics: Metrics
    trajectory: Trajectory


@dataclass
class CaseReport:
    case_id: int
    description: str
    results: list[ControllerResult]
    ranking: list[str]  # lexicographic by (IAE, ISE)
    model_snapshot: dict
    run_params: dict

    def to_json(self) -> dict:
        return {
            "case_id": self.case_id,
            "description": self.description,
            "controllers": [r.name for r in self.results],
            "ranking": self.ranking,
            "model_snapshot": self.model_snapshot,
            "run_params": self.run_params,
            "results": {r.name: r.metrics.to_json() for r in self.results},
        }


def run_scenario(
    case_id: int, definition: CaseDefinition, cfg: RunConfig, nonlin: NonlinearityConfig, controllers: Sequence[str]
) -> CaseReport:
    """Simulate and score each named controller set (`cfg.controller_pair`, all resolved before
    anything runs) on one scenario (case 0 the configured one): the definition's loads over cfg's
    run horizon, sampled once for every set, on cfg's areas with its area overrides, cfg's tie
    line and solver steps, and `nonlin`. The configured scenario's disturbance time must lie
    inside its run horizon (ConfigError otherwise).

    Each set runs with simulate(..., closed_form=True): where the controllers sample every
    solver step, its stretches with the GRC clamp idle, the dead band closed and the load's
    sine-free part constant go in closed form, each sine riding along as two exosystem states,
    the rest steps exactly, and every channel lies within about 1e-12 of its peak magnitude of
    the exact run's (8.2e-13 at most over cases 2-5 and the four sets, case 3's cdm_opt)."""
    horizon = cfg.run_horizon(definition.horizon, f"case {case_id}" if case_id else "the scenario (scenario.horizon)")
    if not case_id and not 0.0 <= definition.disturbance_time < horizon:
        raise ConfigError("scenario.disturbance_time", f"must lie in [0, {horizon:g}), the run horizon")
    pairs = [(name, cfg.controller_pair(name)) for name in controllers]
    areas = tuple(replace(area, **overrides) for area, overrides in zip(cfg.areas, definition.area_overrides))
    loads = scenario_loads(definition, cfg, horizon)
    results = []
    for name, pair in pairs:
        model = SystemModel(areas, cfg.tie, nonlin, pair)
        traj = simulate(model, loads, cfg.dt, horizon, cfg.controller_dt, closed_form=True)
        results.append(ControllerResult(name, evaluate(traj, t0=definition.disturbance_time), traj))
    return CaseReport(
        case_id=case_id,
        description=definition.description,
        results=results,
        ranking=[r.name for r in sorted(results, key=lambda r: (r.metrics.iae, r.metrics.ise))],
        model_snapshot={"area1": asdict(areas[0]), "area2": asdict(areas[1]), "T12": cfg.tie.T12, **asdict(nonlin)},
        run_params={
            "dt": cfg.dt,
            "controller_dt": cfg.controller_dt,
            "horizon": horizon,
            "seed": cfg.cases_seed,
            "disturbance_time": definition.disturbance_time,
            "loads": [profile_to_json(p) for p in definition.loads],
        },
    )


def scenario_loads(definition: CaseDefinition, cfg: RunConfig, horizon: float) -> LoadTable:
    """The definition's loads over horizon, sampled on cfg's solver step; a None load is no load."""
    return LoadTable.sample(tuple(Composite(()) if p is None else p for p in definition.loads), cfg.dt, horizon)


def run_case(case_id: int, cfg: RunConfig, controllers: Sequence[str]) -> CaseReport:
    """Simulate one bundled case on cfg's model, in its case regime
    (cases.seed, cases.nonlinear), for each requested controller set."""
    return run_scenario(case_id, case_definition(case_id, seed=cfg.cases_seed), cfg, cfg.cases_nonlin, controllers)


# ---------------------------------------------------------------------------
# sensitivity sweep


@dataclass(frozen=True)
class SweepSpec:
    parameter: str  # e.g. "area1.Tg"
    deltas: tuple[float, ...] = (-0.5, -0.25, 0.25, 0.5)  # relative changes

    def __post_init__(self):
        area, _, field_name = self.parameter.partition(".")
        if area not in ("area1", "area2") or field_name not in {f.name for f in fields(AreaParams)}:
            raise ValueError(f"unsupported parameter path {self.parameter!r}")
        if any(d <= -1.0 for d in self.deltas):
            raise ValueError("relative deltas must be > -100%")


@dataclass
class SweepRow:
    parameter: str
    delta: float  # relative; 0 marks the nominal row
    value: float
    metrics: dict  # controller name -> Metrics


@dataclass
class SweepReport:
    rows: list[SweepRow]
    controllers: list[str]
    run_params: dict

    def to_json(self) -> dict:
        return asdict(self)


def table6_specs() -> list[SweepSpec]:
    return [SweepSpec(p) for p in ("area1.Tg", "area2.Tg", "area1.Tt", "area2.Tt")]


def sensitivity_sweep(specs: Sequence[SweepSpec], cfg: RunConfig, controllers: Sequence[str]) -> SweepReport:
    """Robustness sweep: nominal controllers against perturbed plants.

    Every cell is case 2's step, on one table of its loads, on cfg's model in
    its case regime: one nominal row, then one per (parameter, delta) pair.
    Controllers stay at their nominal design, resolved before any cell runs.
    Each cell and set is run_scenario's run of a set, closed form included,
    so the nominal row is case 2's run bit for bit; None where it diverges.
    """
    case2 = case_definition(2)
    pairs = {name: cfg.controller_pair(name) for name in controllers}
    horizon = cfg.run_horizon(defaults.CASE_HORIZONS[6], "the sweep")
    loads = scenario_loads(case2, cfg, horizon)

    def run_cell(areas: tuple[AreaParams, AreaParams]) -> dict:
        out = {}
        for name, pair in pairs.items():
            model = SystemModel(areas, cfg.tie, cfg.cases_nonlin, pair)
            try:
                traj = simulate(model, loads, cfg.dt, horizon, cfg.controller_dt, closed_form=True)
            except NonFiniteState:
                out[name] = None
            else:
                out[name] = evaluate(traj, t0=case2.disturbance_time)
        return out

    rows = [SweepRow(parameter="nominal", delta=0.0, value=math.nan, metrics=run_cell(cfg.areas))]
    for spec in specs:
        area_key, _, field_name = spec.parameter.partition(".")
        i = ("area1", "area2").index(area_key)
        for delta in spec.deltas:
            value = getattr(cfg.areas[i], field_name) * (1.0 + delta)
            areas = list(cfg.areas)
            areas[i] = replace(areas[i], **{field_name: value})
            rows.append(SweepRow(parameter=spec.parameter, delta=delta, value=value, metrics=run_cell(tuple(areas))))

    return SweepReport(
        rows=rows,
        controllers=list(controllers),
        run_params={
            "dt": cfg.dt,
            "controller_dt": cfg.controller_dt,
            "horizon": horizon,
            **asdict(cfg.cases_nonlin),
        },
    )
