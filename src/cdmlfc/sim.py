"""Fixed-step nonlinear simulation of the two-area system.

Plant states (df, dPm, dPg per area, shared dPtie) integrate with classic
RK4; the generation-rate clamp is applied inside every stage evaluation.
Controllers act on ACE and run as trapezoidal (Tustin) discrete blocks
updated once per step. Trapezoidal rather than step-invariant: the
synthesized CDM controllers carry a derivative-filter pole two decades
above the sample rate, and a ZOH hold turns that into a grossly
over-weighted discrete derivative that destabilizes the loop, while the
bilinear map preserves the continuous closed-loop dynamics at dt = 0.01.
Sign convention, documented once: the control signal is
u = -(Bc/Ac) * ACE (and u = -Ki * integral(ACE) for the integral
baseline), so positive ACE commands a generation decrease.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np
from scipy.signal import cont2discrete

from .cdm import CdmController, controller_to_statespace
from .errors import NonFiniteState
from .plant import AreaParams, NonlinearityConfig, TieLine, frequency_bias

LoadFn = Callable[[float], float]

_DIVERGENCE_CAP = 1e6  # pu; anything beyond this is treated as divergence


@dataclass(frozen=True)
class IntegralSpec:
    ki: float

    def __post_init__(self):
        if not math.isfinite(self.ki):
            raise ValueError("integral gain must be finite")


@dataclass(frozen=True)
class PidSpec:
    kp: float
    ki: float
    kd: float
    tf: float = 0.01  # derivative filter time constant (s)

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.kp, self.ki, self.kd, self.tf)):
            raise ValueError("PID gains must be finite")
        if self.tf <= 0.0:
            raise ValueError("derivative filter time constant must be > 0")


@dataclass(frozen=True)
class CdmSpec:
    controller: CdmController


ControllerSpec = Union[IntegralSpec, PidSpec, CdmSpec]


@dataclass(frozen=True)
class SystemModel:
    areas: tuple[AreaParams, AreaParams]
    tie: TieLine
    nonlin: NonlinearityConfig
    controllers: tuple[ControllerSpec, ControllerSpec]

    def __post_init__(self):
        if len(self.areas) != 2 or len(self.controllers) != 2:
            raise ValueError("the validated path supports exactly two areas")


def _continuous_realization(spec: ControllerSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """(A, B, C, D) of the raw controller transfer function on ACE."""
    if isinstance(spec, IntegralSpec):
        return np.zeros((1, 1)), np.ones(1), np.array([spec.ki]), 0.0
    if isinstance(spec, PidSpec):
        a = np.array([[0.0, 0.0], [0.0, -1.0 / spec.tf]])
        b = np.array([1.0, 1.0 / spec.tf])
        c = np.array([spec.ki, -spec.kd / spec.tf])
        d = spec.kp + spec.kd / spec.tf
        return a, b, c, d
    if isinstance(spec, CdmSpec):
        ss = controller_to_statespace(spec.controller)
        return np.array(ss.A), np.array(ss.B), np.array(ss.C), ss.D
    raise TypeError(f"unknown controller spec {type(spec).__name__}")


def tustin_discretize(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, d: float, dt: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Bilinear (trapezoidal) discretization of (A, B, C, D) at step dt."""
    ad, bd, cd, dd, _ = cont2discrete(
        (a, b.reshape(-1, 1), c.reshape(1, -1), np.array([[d]])), dt, method="bilinear"
    )
    return ad, bd.ravel(), cd.ravel(), float(dd[0, 0])


class DiscreteController:
    """Trapezoidal per-sample stepper for any controller kind: u_k = output(y_k);
    advance(y_k) moves the state. Raises ImproperController for an improper CDM
    controller."""

    def __init__(self, spec: ControllerSpec, dt: float):
        a, b, c, d = _continuous_realization(spec)
        self.ad, self.bd, self.cd, self.dd = tustin_discretize(a, b, c, d, dt)
        self.x = np.zeros(a.shape[0])

    def output(self, y: float) -> float:
        return -(float(self.cd @ self.x) + self.dd * y)

    def advance(self, y: float) -> None:
        self.x = self.ad @ self.x + self.bd * y

    def step(self, y: float) -> float:
        u = self.output(y)
        self.advance(y)
        return u


def _gdb(x: float, half_width: float, mode: str, xdot: float) -> float:
    if half_width == 0.0:
        return x
    if mode == "backlash":
        # describing-function approximation of the governor dead band
        return 0.8 * x - (0.2 / math.pi) * xdot
    if x > half_width:
        return x - half_width
    if x < -half_width:
        return x + half_width
    return 0.0


def derivatives(
    state: Sequence[float],
    model: SystemModel,
    loads: tuple[float, float],
    u: tuple[float, float],
) -> tuple[float, ...]:
    """Plant state derivative under held control inputs.

    state = (df1, dpm1, dpg1, df2, dpm2, dpg2, dptie); the tie-line term
    enters area 1 with +1 and area 2 with -1, and the rate clamp is applied
    to the turbine derivative so GRC holds inside every integrator stage.
    """
    df1, dpm1, dpg1, df2, dpm2, dpg2, dptie = state
    a1, a2 = model.areas
    nl = model.nonlin
    grc = nl.grc_rate
    half = 0.5 * nl.gdb_width

    ddf1 = (dpm1 - loads[0] - a1.D * df1 - dptie) / a1.M
    ddf2 = (dpm2 - loads[1] - a2.D * df2 + dptie) / a2.M

    ddpm1 = (dpg1 - dpm1) / a1.Tt
    if ddpm1 > grc:
        ddpm1 = grc
    elif ddpm1 < -grc:
        ddpm1 = -grc
    ddpm2 = (dpg2 - dpm2) / a2.Tt
    if ddpm2 > grc:
        ddpm2 = grc
    elif ddpm2 < -grc:
        ddpm2 = -grc

    g1 = _gdb(df1 / a1.R, half, nl.gdb_mode, ddf1 / a1.R)
    g2 = _gdb(df2 / a2.R, half, nl.gdb_mode, ddf2 / a2.R)
    ddpg1 = (u[0] - g1 - dpg1) / a1.Tg
    ddpg2 = (u[1] - g2 - dpg2) / a2.Tg

    ddptie = 2.0 * math.pi * model.tie.T12 * (df1 - df2)
    return (ddf1, ddpm1, ddpg1, ddf2, ddpm2, ddpg2, ddptie)


@dataclass
class Trajectory:
    """Uniformly sampled simulation channels.

    dpm1/dpm2 (mechanical power) are recorded for rate-constraint audits
    but stay out of the CSV contract.
    """

    t: np.ndarray
    df1: np.ndarray
    df2: np.ndarray
    dptie: np.ndarray
    ace1: np.ndarray
    ace2: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    dpl1: np.ndarray
    dpl2: np.ndarray
    dpm1: Optional[np.ndarray] = None
    dpm2: Optional[np.ndarray] = None

    CHANNELS = ("t", "df1", "df2", "dptie", "ace1", "ace2", "u1", "u2", "dpl1", "dpl2")

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(self.CHANNELS) + "\n")
            cols = [getattr(self, name) for name in self.CHANNELS]
            for row in zip(*cols):
                fh.write(",".join(f"{v:.9g}" for v in row) + "\n")


def horizon_steps(horizon: float, dt: float) -> int:
    """Steps of dt in horizon; 0 unless horizon is a positive whole multiple of dt."""
    n = round(horizon / dt)
    return n if n >= 1 and abs(n * dt - horizon) <= 1e-9 * max(1.0, horizon) else 0


def sample_steps(controller_dt: float, dt: float) -> int:
    """Steps of dt per controller sample; 0 unless controller_dt is a positive whole multiple of dt."""
    n = round(controller_dt / dt)
    return n if n >= 1 and abs(n * dt - controller_dt) <= 1e-9 * controller_dt else 0


def _n_steps(horizon: float, dt: float) -> int:
    if not (0.0 < dt <= 0.05):
        raise ValueError("dt must be in (0, 0.05]")
    n_steps = horizon_steps(horizon, dt)
    if not n_steps:
        raise ValueError("horizon must be a positive multiple of dt")
    return n_steps


def simulate(
    model: SystemModel,
    loads: tuple[LoadFn, LoadFn],
    dt: float = 0.01,
    horizon: float = 60.0,
    controller_dt: float | None = None,
) -> Trajectory:
    """Simulate the closed two-area loop over [0, horizon].

    controller_dt fixes the digital controllers' sample time independently
    of the integrator step (it must be an integer multiple of dt; default:
    equal to dt). Refining dt with controller_dt held therefore tests pure
    integrator convergence, with the control sequence unchanged.
    """
    n_steps = _n_steps(horizon, dt)
    if controller_dt is None:
        controller_dt = dt
    decim = sample_steps(controller_dt, dt)
    if not decim:
        raise ValueError("controller_dt must be a positive integer multiple of dt")

    a1, a2 = model.areas
    b1, b2 = frequency_bias(a1), frequency_bias(a2)
    ctrl1 = DiscreteController(model.controllers[0], controller_dt)
    ctrl2 = DiscreteController(model.controllers[1], controller_dt)
    load1, load2 = loads

    n_samp = n_steps + 1
    out = {name: np.empty(n_samp) for name in Trajectory.CHANNELS}
    out["dpm1"] = np.empty(n_samp)
    out["dpm2"] = np.empty(n_samp)

    state = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    u1 = u2 = 0.0
    for k in range(n_samp):
        t = k * dt
        df1, dpm1, dpg1, df2, dpm2, dpg2, dptie = state
        ace1 = b1 * df1 + dptie
        ace2 = b2 * df2 - dptie
        if k % decim == 0:
            u1 = ctrl1.output(ace1)
            u2 = ctrl2.output(ace2)
        row = (t, df1, df2, dptie, ace1, ace2, u1, u2, load1(t), load2(t))
        for name, val in zip(Trajectory.CHANNELS, row):
            out[name][k] = val
        out["dpm1"][k] = dpm1
        out["dpm2"][k] = dpm2
        if k == n_steps:
            break
        if k % decim == 0:
            ctrl1.advance(ace1)
            ctrl2.advance(ace2)

        u = (u1, u2)
        h = dt
        t_mid = t + 0.5 * h
        t_end = t + h
        l0 = (load1(t), load2(t))
        lm = (load1(t_mid), load2(t_mid))
        le = (load1(t_end), load2(t_end))
        k1 = derivatives(state, model, l0, u)
        s2 = tuple(x + 0.5 * h * d for x, d in zip(state, k1))
        k2 = derivatives(s2, model, lm, u)
        s3 = tuple(x + 0.5 * h * d for x, d in zip(state, k2))
        k3 = derivatives(s3, model, lm, u)
        s4 = tuple(x + h * d for x, d in zip(state, k3))
        k4 = derivatives(s4, model, le, u)
        state = tuple(
            x + h / 6.0 * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
            for x, d1, d2, d3, d4 in zip(state, k1, k2, k3, k4)
        )
        probe = sum(state)
        if not math.isfinite(probe) or abs(state[0]) > _DIVERGENCE_CAP or abs(state[3]) > _DIVERGENCE_CAP:
            raise NonFiniteState(t_end, f"state={state}")

    return Trajectory(**out)


class BatchCdmSimulator:
    """Vectorized co-simulation of many candidate CDM controller pairs.

    Every candidate shares the same physical model and load profiles; only
    the two controller realizations differ. Used by the tuning objective,
    where only the summed IAE of the frequency deviations is needed.
    Divergent candidates yield NaN.
    """

    def __init__(
        self,
        areas: tuple[AreaParams, AreaParams],
        tie: TieLine,
        nonlin: NonlinearityConfig,
        loads: tuple[LoadFn, LoadFn],
        dt: float,
        horizon: float,
    ):
        self.n_steps = _n_steps(horizon, dt)
        self.areas = areas
        self.tie = tie
        self.nonlin = nonlin
        self.loads = loads
        self.dt = dt

    def run_iae(self, controller_pairs: Sequence[tuple[CdmController, CdmController]]) -> np.ndarray:
        nb = len(controller_pairs)
        dt = self.dt
        a1, a2 = self.areas
        b1, b2 = frequency_bias(a1), frequency_bias(a2)
        nl = self.nonlin
        grc = nl.grc_rate
        half = 0.5 * nl.gdb_width
        mode = nl.gdb_mode
        t12 = 2.0 * math.pi * self.tie.T12
        load1, load2 = self.loads

        # per-candidate trapezoidal controller blocks (order 2)
        def pack(side: int):
            ad = np.empty((nb, 2, 2))
            bd = np.empty((nb, 2))
            c = np.empty((nb, 2))
            d = np.empty(nb)
            for i, pair in enumerate(controller_pairs):
                spec = CdmSpec(pair[side])
                a_m, b_v, c_v, d_s = _continuous_realization(spec)
                if a_m.shape[0] != 2:
                    raise ValueError("batch path expects order-2 controller realizations")
                ad[i], bd[i], c[i], d[i] = tustin_discretize(a_m, b_v, c_v, d_s, dt)
            return ad, bd, c, d

        ad1, bd1, c1, d1 = pack(0)
        ad2, bd2, c2, d2 = pack(1)

        z = np.zeros(nb)
        df1, dpm1, dpg1 = z.copy(), z.copy(), z.copy()
        df2, dpm2, dpg2 = z.copy(), z.copy(), z.copy()
        dptie = z.copy()
        x1 = np.zeros((nb, 2))
        x2 = np.zeros((nb, 2))
        iae = np.zeros(nb)

        def deriv(df1, dpm1, dpg1, df2, dpm2, dpg2, dptie, l1, l2, u1, u2):
            ddf1 = (dpm1 - l1 - a1.D * df1 - dptie) / a1.M
            ddf2 = (dpm2 - l2 - a2.D * df2 + dptie) / a2.M
            ddpm1 = np.clip((dpg1 - dpm1) / a1.Tt, -grc, grc)
            ddpm2 = np.clip((dpg2 - dpm2) / a2.Tt, -grc, grc)
            if half == 0.0:
                g1 = df1 / a1.R
                g2 = df2 / a2.R
            elif mode == "backlash":
                g1 = 0.8 * (df1 / a1.R) - (0.2 / math.pi) * (ddf1 / a1.R)
                g2 = 0.8 * (df2 / a2.R) - (0.2 / math.pi) * (ddf2 / a2.R)
            else:
                s1 = df1 / a1.R
                s2 = df2 / a2.R
                g1 = np.sign(s1) * np.maximum(np.abs(s1) - half, 0.0)
                g2 = np.sign(s2) * np.maximum(np.abs(s2) - half, 0.0)
            ddpg1 = (u1 - g1 - dpg1) / a1.Tg
            ddpg2 = (u2 - g2 - dpg2) / a2.Tg
            ddptie = t12 * (df1 - df2)
            return ddf1, ddpm1, ddpg1, ddf2, ddpm2, ddpg2, ddptie

        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(self.n_steps + 1):
                t = k * dt
                w = dt if 0 < k < self.n_steps else 0.5 * dt
                iae += w * (np.abs(df1) + np.abs(df2))
                if k == self.n_steps:
                    break
                ace1 = b1 * df1 + dptie
                ace2 = b2 * df2 - dptie
                u1 = -(c1[:, 0] * x1[:, 0] + c1[:, 1] * x1[:, 1] + d1 * ace1)
                u2 = -(c2[:, 0] * x2[:, 0] + c2[:, 1] * x2[:, 1] + d2 * ace2)
                x1 = np.stack(
                    (
                        ad1[:, 0, 0] * x1[:, 0] + ad1[:, 0, 1] * x1[:, 1] + bd1[:, 0] * ace1,
                        ad1[:, 1, 0] * x1[:, 0] + ad1[:, 1, 1] * x1[:, 1] + bd1[:, 1] * ace1,
                    ),
                    axis=1,
                )
                x2 = np.stack(
                    (
                        ad2[:, 0, 0] * x2[:, 0] + ad2[:, 0, 1] * x2[:, 1] + bd2[:, 0] * ace2,
                        ad2[:, 1, 0] * x2[:, 0] + ad2[:, 1, 1] * x2[:, 1] + bd2[:, 1] * ace2,
                    ),
                    axis=1,
                )

                l0 = (load1(t), load2(t))
                lm = (load1(t + 0.5 * dt), load2(t + 0.5 * dt))
                le = (load1(t + dt), load2(t + dt))
                s0 = (df1, dpm1, dpg1, df2, dpm2, dpg2, dptie)
                k1 = deriv(*s0, *l0, u1, u2)
                s1_ = tuple(x + 0.5 * dt * d for x, d in zip(s0, k1))
                k2 = deriv(*s1_, *lm, u1, u2)
                s2_ = tuple(x + 0.5 * dt * d for x, d in zip(s0, k2))
                k3 = deriv(*s2_, *lm, u1, u2)
                s3_ = tuple(x + dt * d for x, d in zip(s0, k3))
                k4 = deriv(*s3_, *le, u1, u2)
                df1, dpm1, dpg1, df2, dpm2, dpg2, dptie = tuple(
                    x + dt / 6.0 * (d1_ + 2.0 * d2_ + 2.0 * d3_ + d4_)
                    for x, d1_, d2_, d3_, d4_ in zip(s0, k1, k2, k3, k4)
                )
                # divergent candidates poison their own lane with NaN
                bad = np.abs(df1) > _DIVERGENCE_CAP
                if bad.any():
                    df1 = np.where(bad, np.nan, df1)

        return iae
