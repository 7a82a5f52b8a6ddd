"""Fixed-step nonlinear simulation of the two-area system.

Plant states (df, dPm, dPg per area, shared dPtie) integrate with classic
RK4; the generation-rate clamp is applied inside every stage evaluation.
Both simulators hold the state in one order, df1 df2 dpm1 dpm2 dpg1 dpg2
dptie: a 7-tuple for one lane, the rows of a (7, lanes) array for many.
The plant is written once per driver: plant_rhs and rk4_step step one lane
(simulate, closed_form_iae's fallback blocks, and affine._rk4_maps, which
reads the closed form's matrices off that step), and lanes_step steps the stacked array in place with the same
operations per lane (BatchCdmSimulator), binding its views, buffers and
RK4 stages once per run.
The scalar step works on named floats: plant_rhs binds the area parameters
as locals and tests the rate clamp and the dead band inline, and rk4_step
unpacks the state and each stage once and writes every stage and the final
sum out per state, with no per-stage tuple building. simulate's one loop
of exact steps records nine floats a step into one flat array('d'), and
simulate takes its loads either as functions, sampled into a load_samples
table per run, or as a LoadTable sampled once and shared by every run on
the same grid (a scenario's controller sets, a sweep's cells). A LoadShape
(every scenarios load profile is one) samples its whole table in bulk, by
the one formula its per-call samples also take, and lists its sine terms,
which simulate's closed form carries as exosystem states.
Controllers act on ACE and run as trapezoidal (Tustin) discrete blocks
updated once per sample, in plain float arithmetic in both drivers: the
realization rows S = [[Cd, Dd], [Ad, Bd]] applied to [x; y], each product
rounded on its own, each row summed left to right, no BLAS call and no
fused multiply-add per step. So the per-step arithmetic does not depend on
the CPU kernel numpy's BLAS picks; the Tustin coefficients come from LAPACK
solves, once per controller (tustin_lanes, stacked over the lanes), and
may. Trapezoidal rather than
step-invariant: the synthesized CDM controllers carry a derivative-filter
pole two decades above the sample rate, and a ZOH hold turns that into a
grossly over-weighted discrete derivative that destabilizes the loop, while
the bilinear map preserves the continuous closed-loop dynamics at dt = 0.01.
Sign convention, documented once: the control signal is
u = -(Bc/Ac) * ACE (and u = -Ki * integral(ACE) for the integral
baseline), so positive ACE commands a generation decrease.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

import numpy as np

from .cdm import CdmController, controller_to_statespace
from .errors import NonFiniteState
from .plant import AreaParams, NonlinearityConfig, TieLine, frequency_bias

if TYPE_CHECKING:
    from .affine import StepMaps

LoadFn = Callable[[float], float]

# The largest integrator step both simulators (and the config) accept, s.
MAX_DT = 0.05

# Both simulators' divergence rule: any state non-finite, or |df1| or |df2| above
# this cap (pu); simulate then raises NonFiniteState, run_iae NaNs the lane
# (checked once per run there: see BatchCdmSimulator).
_DIVERGENCE_CAP = 1e6

# run_iae's |df| history block: the steps recorded between two folds into the
# running peak and IAE (see BatchCdmSimulator). At 64 a fold's nine calls come
# to a seventh of a call per step, and the block holds 1 KB per lane.
_FOLD_ROWS = 64

# closed_form_iae's lanes per block table: at 8 a table of the objective's model holds 0.55 MB.
# At 4, tune rounds took about 11% more CPU and criterion 7's campaign twice the time; at 16,
# the tune benchmark's peak RSS rose about 0.6 MB more than at 8.
_CHUNK = 8


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


ControllerSpec = Union[IntegralSpec, PidSpec, CdmController]


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
    if isinstance(spec, CdmController):
        return controller_to_statespace(spec)
    raise TypeError(f"unknown controller spec {type(spec).__name__}")


def tustin_lanes(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Bilinear (trapezoidal) discretization at step dt of each lane of (A, B,
    C, D), stacked on a leading lanes axis: three linear solves (Ad, Bd, Cd)
    and one dot product (Dd) per lane. numpy's stacked solve and matmul give
    each lane the bits of its own tustin_discretize call."""
    eye = np.eye(a.shape[-1])
    ima = eye - 0.5 * dt * a
    ad = np.linalg.solve(ima, eye + 0.5 * dt * a)
    bd = np.linalg.solve(ima, (dt * b)[..., None])[..., 0]
    cd = np.linalg.solve(ima.swapaxes(-1, -2), c[..., None])[..., 0]
    return ad, bd, cd, d + 0.5 * np.matmul(c[..., None, :], bd[..., None])[..., 0, 0]


def tustin_discretize(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, d: float, dt: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Bilinear (trapezoidal) discretization of (A, B, C, D) at step dt: tustin_lanes on one lane."""
    ad, bd, cd, dd = tustin_lanes(np.asarray(a)[None], np.asarray(b)[None], np.asarray(c)[None], np.array([d]), dt)
    return ad[0], bd[0], cd[0], float(dd[0])


def realization_rows(ad: np.ndarray, bd: np.ndarray, cd: np.ndarray, dd) -> np.ndarray:
    """The realization rows S = [[Cd, Dd], [Ad, Bd]] of a discretization
    (tustin_discretize's, or tustin_lanes' with the lanes axis leading)."""
    n = ad.shape[-1]
    rows = np.empty((*np.shape(dd), n + 1, n + 1))
    rows[..., 0, :n] = cd
    rows[..., 0, n] = dd
    rows[..., 1:, :n] = ad
    rows[..., 1:, n] = bd
    return rows


class DiscreteController:
    """Trapezoidal per-sample stepper for any controller kind: step(y_k) returns
    u_k and moves the state. Raises ImproperController for an improper CDM
    controller.

    A step applies the realization rows S = [[cd, dd], [ad, bd]] (`rows`) to
    z = [x; y]: w_i = S_i0 z_0 + S_i1 z_1 + ..., each product rounded on its
    own and each row summed left to right, then u = -w_0 and x <- w_1..w_n.
    The step runs on Python floats with no BLAS call and no fused
    multiply-add, so its bits do not depend on the CPU kernel.
    """

    def __init__(self, spec: ControllerSpec, dt: float):
        self.rows = realization_rows(*tustin_discretize(*_continuous_realization(spec), dt)).tolist()
        self.step = controller_step(self.rows)


def controller_step(rows: list[list[float]], x: Optional[Sequence[float]] = None) -> Callable[[float], float]:
    """DiscreteController's step(y) -> u over the realization rows S, from the
    state x (zero by default); the step's state() gives its current state.
    Orders 1 and 2 (pi; pid and CDM at synthesize's default degrees)
    are unrolled into one expression per row; any other order sums the rows
    in a loop, in the same order. The loop does not use sum() (compensated
    from Python 3.12) or math.fsum (exact)."""
    n = len(rows) - 1
    x = [0.0] * n if x is None else [float(v) for v in x]
    if n == 1:
        (c0, d), (a00, b0) = rows
        (x0,) = x

        def step(y: float) -> float:
            nonlocal x0
            u = -(c0 * x0 + d * y)
            x0 = a00 * x0 + b0 * y
            return u

        step.state = lambda: [x0]
        return step
    if n == 2:
        (c0, c1, d), (a00, a01, b0), (a10, a11, b1) = rows
        x0, x1 = x

        def step(y: float) -> float:
            nonlocal x0, x1
            u = -(c0 * x0 + c1 * x1 + d * y)
            x0, x1 = a00 * x0 + a01 * x1 + b0 * y, a10 * x0 + a11 * x1 + b1 * y
            return u

        step.state = lambda: [x0, x1]
        return step

    z = x + [0.0]  # [x; y]

    def step(y: float) -> float:
        z[n] = y
        w = []
        for row in rows:
            acc = row[0] * z[0]
            for j in range(1, n + 1):
                acc += row[j] * z[j]
            w.append(acc)
        z[:n] = w[1:]
        return -w[0]

    step.state = lambda: z[:n]
    return step


def plant_rhs(areas: tuple[AreaParams, AreaParams], tie: TieLine, nonlin: NonlinearityConfig) -> Callable:
    """The plant state derivative under held control inputs: f(state, loads,
    u) with state = (df1, df2, dpm1, dpm2, dpg1, dpg2, dptie), loads = (dPL1,
    dPL2) and u = (u1, u2) floats, returning a tuple in state order. The
    tie-line term enters area 1 with +1 and area 2 with -1, and the rate clamp
    is applied to the turbine derivative so GRC holds inside every integrator
    stage. lanes_step is the same model written for many lanes at once.
    """
    a1, a2 = areas
    d1, d2, m1, m2, r1, r2 = a1.D, a2.D, a1.M, a2.M, a1.R, a2.R
    tt1, tt2, tg1, tg2 = a1.Tt, a2.Tt, a1.Tg, a2.Tg
    grc = nonlin.grc_rate
    half = 0.5 * nonlin.gdb_width
    # the governor's dead band: none at zero width, else a static dead zone or
    # the describing-function approximation of backlash
    backlash = half != 0.0 and nonlin.gdb_mode == "backlash"
    zone = half != 0.0 and not backlash
    slope = 0.2 / math.pi
    t12 = 2.0 * math.pi * tie.T12

    def rhs(state, loads, u):
        df1, df2, dpm1, dpm2, dpg1, dpg2, dptie = state
        ddf1 = (dpm1 - loads[0] - d1 * df1 - dptie) / m1
        ddf2 = (dpm2 - loads[1] - d2 * df2 + dptie) / m2
        ddpm1 = (dpg1 - dpm1) / tt1
        ddpm1 = grc if ddpm1 > grc else -grc if ddpm1 < -grc else ddpm1
        ddpm2 = (dpg2 - dpm2) / tt2
        ddpm2 = grc if ddpm2 > grc else -grc if ddpm2 < -grc else ddpm2
        # the governor's droop input df / R, passed through its dead band
        g1, g2 = df1 / r1, df2 / r2
        if zone:
            g1 = g1 - half if g1 > half else g1 + half if g1 < -half else 0.0
            g2 = g2 - half if g2 > half else g2 + half if g2 < -half else 0.0
        elif backlash:
            g1 = 0.8 * g1 - slope * (ddf1 / r1)
            g2 = 0.8 * g2 - slope * (ddf2 / r2)
        ddpg1 = (u[0] - g1 - dpg1) / tg1
        ddpg2 = (u[1] - g2 - dpg2) / tg2
        return (ddf1, ddf2, ddpm1, ddpm2, ddpg1, ddpg2, t12 * (df1 - df2))

    return rhs


class LoadShape:
    """A load function that samples in bulk and lists its sine terms.

    sample(times) gives its values at every entry of a times array, and
    sample(times, sines=False) the same with every sine term taken as 0.0; a
    call at a time t is sample at that one time, so bulk and per-call samples
    come from one formula. sines lists each term as (amplitude, angular
    frequency, start): amplitude * sin(omega * (t - start)) from start on, 0.0
    before. Every scenarios load profile (Step, Sine, UniformRandom,
    Composite) is a shape.
    """

    sines: tuple = ()

    def __call__(self, t: float) -> float:
        return float(self.sample(np.array([t]))[0])


def load_times(dt: float, n_steps: int) -> np.ndarray:
    """load_samples' sample times, shape (n_steps, 3): row k holds t, t + dt/2
    and t + dt for t = k * dt, the floats Python's own arithmetic gives."""
    t = np.arange(n_steps) * dt
    return np.stack([t, t + 0.5 * dt, t + dt], axis=1)


def _sampled(loads: tuple[LoadFn, LoadFn], times: np.ndarray, sines: bool = True) -> np.ndarray:
    """Each load at every entry of times, stacked on a last axis: in bulk for a
    LoadShape, else one call per time (a plain function lists no sine terms)."""
    return np.stack(
        [
            load.sample(times, sines) if isinstance(load, LoadShape)
            else np.fromiter(map(load, times.ravel().tolist()), float, count=times.size).reshape(times.shape)
            for load in loads
        ],
        axis=-1,
    )


def load_samples(loads: tuple[LoadFn, LoadFn], dt: float, n_steps: int) -> np.ndarray:
    """Both simulators' load table: row k holds the (dPL1, dPL2) samples at t,
    t + dt/2 and t + dt of the step from t = k * dt, shape (n_steps, 3, 2).
    A LoadShape samples in bulk, any other function one call per sample."""
    return _sampled(loads, load_times(dt, n_steps))


def load_row_changes(samples: np.ndarray) -> np.ndarray:
    """The steps whose row of samples (a load_samples table, or any array with
    a row per step) differs from the previous step's, step 0 first: where the
    loads both simulators hold over a step change."""
    changed = np.ones(len(samples), bool)
    changed[1:] = (samples[1:] != samples[:-1]).any(axis=tuple(range(1, samples.ndim)))
    return np.flatnonzero(changed)


def load_stretches(samples: np.ndarray) -> list[tuple[int, int, bool]]:
    """Stretches (k0, k1, closed) of equal rows of samples, closed where one
    holds two or more steps; consecutive one-step stretches merge into one."""
    n_steps = len(samples)
    changes = load_row_changes(samples)
    closed = np.diff(changes, append=n_steps) > 1
    first = closed.copy()
    first[0] = True
    first[1:] |= closed[:-1]
    starts = changes[first]
    return list(zip(starts.tolist(), np.append(starts[1:], n_steps).tolist(), closed[first].tolist()))


@dataclass(frozen=True)
class LoadTable:
    """A pair of load functions sampled once for every simulate run on one
    grid: the functions, the step dt, their load_samples table, the table
    with every sine term taken as 0.0 (base; the table itself when no load
    has one) and each function's sine terms (sines: a LoadShape's, none for
    a plain function)."""

    fns: tuple[LoadFn, LoadFn]
    dt: float
    samples: np.ndarray
    base: np.ndarray
    sines: tuple[tuple, tuple]

    @classmethod
    def sample(cls, loads: tuple[LoadFn, LoadFn], dt: float, horizon: float) -> LoadTable:
        times = load_times(dt, _n_steps(horizon, dt))
        samples = _sampled(loads, times)
        sines = tuple(load.sines if isinstance(load, LoadShape) else () for load in loads)
        return cls(tuple(loads), dt, samples, _sampled(loads, times, sines=False) if any(sines) else samples, sines)


def rk4_step(rhs: Callable, state: tuple, loads: Sequence, u: tuple, h: float) -> tuple:
    """One classic RK4 step of rhs over h under held control u; loads holds the
    step's (dPL1, dPL2) samples at its start, midpoint and end (a load_samples row).
    Each stage is x + (h / 2) * k (x + h * k for the last) per state, and the
    step x + (h / 6) * (k1 + 2 k2 + 2 k3 + k4), summed left to right."""
    l0, lm, le = loads
    x1, x2, x3, x4, x5, x6, x7 = state
    half, sixth = 0.5 * h, h / 6.0
    a1, a2, a3, a4, a5, a6, a7 = rhs(state, l0, u)
    b1, b2, b3, b4, b5, b6, b7 = rhs(
        (x1 + half * a1, x2 + half * a2, x3 + half * a3, x4 + half * a4,
         x5 + half * a5, x6 + half * a6, x7 + half * a7),
        lm,
        u,
    )
    c1, c2, c3, c4, c5, c6, c7 = rhs(
        (x1 + half * b1, x2 + half * b2, x3 + half * b3, x4 + half * b4,
         x5 + half * b5, x6 + half * b6, x7 + half * b7),
        lm,
        u,
    )
    d1, d2, d3, d4, d5, d6, d7 = rhs(
        (x1 + h * c1, x2 + h * c2, x3 + h * c3, x4 + h * c4, x5 + h * c5, x6 + h * c6, x7 + h * c7), le, u
    )
    return (
        x1 + sixth * (a1 + 2.0 * b1 + 2.0 * c1 + d1),
        x2 + sixth * (a2 + 2.0 * b2 + 2.0 * c2 + d2),
        x3 + sixth * (a3 + 2.0 * b3 + 2.0 * c3 + d3),
        x4 + sixth * (a4 + 2.0 * b4 + 2.0 * c4 + d4),
        x5 + sixth * (a5 + 2.0 * b5 + 2.0 * c5 + d5),
        x6 + sixth * (a6 + 2.0 * b6 + 2.0 * c6 + d6),
        x7 + sixth * (a7 + 2.0 * b7 + 2.0 * c7 + d7),
    )


def lanes_step(
    areas: tuple[AreaParams, AreaParams], tie: TieLine, nonlin: NonlinearityConfig, state: np.ndarray, h: float
) -> Callable[[np.ndarray, np.ndarray], None]:
    """rk4_step of plant_rhs in place on a (7, lanes) state whose rows are in
    state order: per lane, the same operations in the same order.

    Binds the derivative's row views, the parameter and constant rows, two
    (2, lanes) scratch rows and the four RK4 stages (k1-k4 and the stage
    buffer) once and returns step(loads, u), which advances state by h for
    u (2, lanes) and loads the step's start, midpoint and end samples: a
    load_samples row as (2, 1) columns, or three (2, lanes) rows, which
    spare the loads' subtraction numpy's broadcasting set-up. Every term
    writes through out=, so a step creates no array beyond the views of
    unpacking loads (none for a tuple of rows).
    """
    a1, a2 = areas
    lanes = state.shape[1]
    grc = nonlin.grc_rate
    half = 0.5 * nonlin.gdb_width

    # Parameters (area 1 over area 2) and constants spread over the lanes: an
    # operation whose operands all have one shape skips numpy's broadcasting
    # set-up, which costs more than the arithmetic (about 2x a same-shape call).
    def row(key):
        return np.repeat([[getattr(a1, key)], [getattr(a2, key)]], lanes, axis=1)

    def const(value, rows=2):
        return np.full((rows, lanes), value)

    d, m, r = row("D"), row("M"), row("R")
    lags = np.concatenate([row("Tt"), row("Tg")])  # divides ddpm and ddpg in one operation
    low, high, tie_gain = const(-grc), const(grc), const(2.0 * math.pi * tie.T12, 1)
    gov, tmp = np.empty((2, 2, lanes))

    # the governor's droop input df / R, passed through its dead band, into gov
    if half == 0.0:
        def governor(df, ddf):
            np.divide(df, r, out=gov)
    elif nonlin.gdb_mode == "backlash":
        share, slope = const(0.8), const(0.2 / math.pi)

        def governor(df, ddf):
            # describing-function approximation of the governor dead band
            np.divide(df, r, out=gov)
            np.multiply(gov, share, out=gov)
            np.divide(ddf, r, out=tmp)
            np.multiply(tmp, slope, out=tmp)
            np.subtract(gov, tmp, out=gov)
    else:
        band, zero = const(half), const(0.0)

        def governor(df, ddf):
            np.divide(df, r, out=gov)
            np.abs(gov, out=tmp)
            np.subtract(tmp, band, out=tmp)
            np.maximum(tmp, zero, out=tmp)
            np.sign(gov, out=gov)
            np.multiply(gov, tmp, out=gov)

    def stage(s, out):
        """rhs(loads, u) writing the derivative at s into out."""
        df, dpm, dpg, dptie = s[0:2], s[2:4], s[4:6], s[6:7]
        df1, df2 = s[0:1], s[1:2]
        ddf, ddpm, ddpg, ddptie = out[0:2], out[2:4], out[4:6], out[6:7]
        ddf1, ddf2, lagged = out[0:1], out[1:2], out[2:6]

        def rhs(loads, u):
            np.subtract(dpm, loads, out=ddf)
            np.multiply(d, df, out=tmp)
            np.subtract(ddf, tmp, out=ddf)
            np.subtract(ddf1, dptie, out=ddf1)
            np.add(ddf2, dptie, out=ddf2)
            np.divide(ddf, m, out=ddf)
            np.subtract(dpg, dpm, out=ddpm)
            governor(df, ddf)
            np.subtract(u, gov, out=ddpg)
            np.subtract(ddpg, dpg, out=ddpg)
            np.divide(lagged, lags, out=lagged)
            np.maximum(ddpm, low, out=ddpm)
            np.minimum(ddpm, high, out=ddpm)
            np.subtract(df1, df2, out=ddptie)
            np.multiply(ddptie, tie_gain, out=ddptie)

        return rhs

    k1, k2, k3, k4, x = np.empty((5, 7, lanes))
    f1, f2, f3, f4 = stage(state, k1), stage(x, k2), stage(x, k3), stage(x, k4)
    # the step's constants spread over the state, so that no operation broadcasts
    mid, whole, two, sixth = (np.full(state.shape, c) for c in (0.5 * h, h, 2.0, h / 6.0))

    def step(loads, u):
        l0, lm, le = loads
        f1(l0, u)
        np.multiply(k1, mid, out=x)
        np.add(x, state, out=x)
        f2(lm, u)
        np.multiply(k2, mid, out=x)
        np.add(x, state, out=x)
        f3(lm, u)
        np.multiply(k3, whole, out=x)
        np.add(x, state, out=x)
        f4(le, u)
        # state + h / 6 * (k1 + 2 k2 + 2 k3 + k4), summed left to right
        np.multiply(k2, two, out=x)
        np.add(x, k1, out=x)
        np.multiply(k3, two, out=k3)
        np.add(x, k3, out=x)
        np.add(x, k4, out=x)
        np.multiply(x, sixth, out=x)
        np.add(state, x, out=state)

    return step


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
        """One header line, then one row per sample of the channels as %.9g,
        comma-separated: np.savetxt's bytes, formatted from Python floats
        (tolist), which is faster than from numpy scalars, a row at a time, so
        that few float objects are alive at once."""
        data = np.column_stack([getattr(self, name) for name in self.CHANNELS])
        row = ",".join(["%.9g"] * len(self.CHANNELS)) + "\n"
        with open(path, "w") as fh:
            fh.write(",".join(self.CHANNELS) + "\n")
            for values in data:
                fh.write(row % tuple(values.tolist()))


def horizon_steps(horizon: float, dt: float) -> int:
    """Steps of dt in horizon; 0 unless horizon is a positive whole multiple of dt."""
    n = round(horizon / dt) if math.isfinite(horizon / dt) else 0
    return n if n >= 1 and abs(n * dt - horizon) <= 1e-9 * max(1.0, horizon) else 0


def sample_steps(controller_dt: float, dt: float) -> int:
    """Steps of dt per controller sample; 0 unless controller_dt is a positive whole multiple of dt."""
    n = round(controller_dt / dt) if math.isfinite(controller_dt / dt) else 0
    return n if n >= 1 and abs(n * dt - controller_dt) <= 1e-9 * controller_dt else 0


def _n_steps(horizon: float, dt: float) -> int:
    if not (0.0 < dt <= MAX_DT):
        raise ValueError(f"dt must be in (0, {MAX_DT:g}]")
    n_steps = horizon_steps(horizon, dt)
    if not n_steps:
        raise ValueError("horizon must be a positive multiple of dt")
    return n_steps


def simulate(
    model: SystemModel,
    loads: Union[tuple[LoadFn, LoadFn], LoadTable],
    dt: float = 0.01,
    horizon: float = 60.0,
    controller_dt: float | None = None,
    closed_form: bool = False,
) -> Trajectory:
    """Simulate the closed two-area loop over [0, horizon].

    loads is the (dPL1, dPL2) pair of load functions, or a LoadTable of them
    sampled on this dt and horizon, which runs on one grid can share.
    controller_dt fixes the digital controllers' sample time independently
    of the integrator step (it must be an integer multiple of dt; default:
    equal to dt). Refining dt with controller_dt held therefore tests pure
    integrator convergence, with the control sequence unchanged.

    closed_form takes the linear stretches in closed form where the
    controllers sample every step: blocks of up to affine._BLOCK steps in
    stretches (load_stretches) of one sine-free load row (LoadTable.base) in
    which each sine term is on at every sample or at none, each block
    predicted by affine.block_predictor with every sine on as two exosystem
    states; the one-step stretches (a row that sees a step or a sine's
    start) and the blocks that fail the prediction's check take the exact
    steps, which read the full load table. A sine given as a plain function
    lists no term, so its rows differ every step and its run is exact. The
    channels lie within about 1e-12 of their peak magnitude of the exact
    run's; a run whose exact steps diverge runs again exactly, to raise the
    exact NonFiniteState.
    """
    n_steps = _n_steps(horizon, dt)
    if controller_dt is None:
        controller_dt = dt
    decim = sample_steps(controller_dt, dt)
    if not decim:
        raise ValueError("controller_dt must be a positive integer multiple of dt")
    if not isinstance(loads, LoadTable):
        loads = LoadTable.sample(loads, dt, horizon)
    elif loads.dt != dt or len(loads.samples) != n_steps:
        raise ValueError("the load table was sampled on another dt or horizon")

    a1, a2 = model.areas
    b1, b2 = frequency_bias(a1), frequency_bias(a2)
    rows1, rows2 = (DiscreteController(spec, controller_dt).rows for spec in model.controllers)
    n1 = len(rows1) - 1
    rhs = plant_rhs(model.areas, model.tie, model.nonlin)
    table = loads.samples

    # Trajectory's channels, one row each; a step records all but t, dpl1 and dpl2
    rec = np.empty((12, n_steps + 1))
    rec[0] = np.arange(n_steps + 1) * dt
    rec[8:10, :-1] = table[:, 0].T
    channels = [1, 2, 3, 4, 5, 6, 7, 10, 11]
    z = np.zeros(7 + n1 + len(rows2) - 1)  # the state at the next step
    held = [0.0, 0.0]  # u1 and u2 as last sampled

    def exact(k0: int, k1: int) -> None:
        """Steps k0..k1-1 from z and held, recorded, their end state left in z and held."""
        start = z.tolist()
        state = tuple(start[:7])
        step1, step2 = controller_step(rows1, x=start[7 : 7 + n1]), controller_step(rows2, x=start[7 + n1 :])
        u1, u2 = held
        part = array("d")
        record = part.extend
        for k in range(k0, k1):
            df1, df2, dpm1, dpm2, _, _, dptie = state
            ace1 = b1 * df1 + dptie
            ace2 = b2 * df2 - dptie
            if k % decim == 0:
                u1 = step1(ace1)
                u2 = step2(ace2)
            record((df1, df2, dptie, ace1, ace2, u1, u2, dpm1, dpm2))
            # the loads as Python floats: numpy scalars would slow every stage
            state = rk4_step(rhs, state, table[k].tolist(), (u1, u2), dt)
            if not math.isfinite(sum(state)) or abs(state[0]) > _DIVERGENCE_CAP or abs(state[1]) > _DIVERGENCE_CAP:
                raise NonFiniteState(k * dt + dt, f"state={state}")
        rec[channels, k0:k1] = np.frombuffer(part).reshape(k1 - k0, 9).T
        z[:] = list(state) + step1.state() + step2.state()
        held[:] = u1, u2

    stretches = [(0, n_steps, False)]
    if closed_form and decim == 1:
        # stretches of one base row, in which each sine is on at every sample or at none
        sines = [(area, *term) for area, terms in enumerate(loads.sines) for term in terms]
        times = load_times(dt, n_steps)
        on = [times >= start for *_, start in sines]
        stretches = load_stretches(np.concatenate([loads.base.reshape(n_steps, 6), *on], axis=1))
    closed_form = any(closed for _, _, closed in stretches)
    if closed_form:
        from .affine import _BLOCK, block_predictor  # only here, so that importing the CLI does not compile it

        under = block_predictor(model, rows1, rows2, dt, _DIVERGENCE_CAP, sines)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # a prediction that overflows fails its check
            for a, b, closed in stretches:
                if not closed:
                    exact(a, b)
                    continue
                predict = under(loads.base[a], [bool(sine_on[a, 0]) for sine_on in on])
                for k0 in range(a, b, _BLOCK):
                    k1 = min(k0 + _BLOCK, b)
                    block = predict(z, k0 * dt, k1 - k0)
                    if block is None:
                        exact(k0, k1)
                    else:
                        rec[channels, k0:k1], z[:] = block
    except NonFiniteState:
        if not closed_form:
            raise
        z[:] = 0.0  # from t = 0 (u is sampled at every step)
        exact(0, n_steps)

    # the final sample, at n * dt itself, which need not equal (n - 1) * dt + dt
    end = z.tolist()
    df1, df2, dpm1, dpm2, _, _, dptie = end[:7]
    ace1 = b1 * df1 + dptie
    ace2 = b2 * df2 - dptie
    u1, u2 = held
    if n_steps % decim == 0:
        u1 = controller_step(rows1, x=end[7 : 7 + n1])(ace1)
        u2 = controller_step(rows2, x=end[7 + n1 :])(ace2)
    t = n_steps * dt
    rec[1:, n_steps] = (df1, df2, dptie, ace1, ace2, u1, u2, loads.fns[0](t), loads.fns[1](t), dpm1, dpm2)
    return Trajectory(*rec)


def controller_rows(controller_pairs: Sequence[tuple[ControllerSpec, ControllerSpec]], dt: float) -> np.ndarray:
    """Both areas' DiscreteController rows for each (area 1, area 2) pair,
    stacked as (2, lanes, n + 1, n + 1), area first, by one tustin_lanes call
    per area: the pairs must share one state-space order. run_iae's bank and
    affine.step_maps take them so."""
    sides = []
    for side in (0, 1):
        realizations = [_continuous_realization(pair[side]) for pair in controller_pairs]
        sides.append(realization_rows(*tustin_lanes(*(np.array(part, dtype=float) for part in zip(*realizations)), dt)))
    return np.array(sides)


class BatchCdmSimulator:
    """Vectorized co-simulation of many candidate CDM controller pairs.

    Every candidate shares the same physical model and load profiles; only
    the two controller realizations differ. Used by the tuning objective,
    where only the summed IAE of the frequency deviations is needed.
    Divergent candidates yield NaN. run_iae is the exact engine;
    closed_form_iae gives the same IAE, to rounding, for loop-stable lanes.

    run_iae holds the plant state as one (7, lanes) array, stepped by
    lanes_step, and both areas' controllers as one bank: the columns of their
    realization rows S as (n + 1, 2, lanes) arrays, with the output row
    [cd, dd] stored negated. A controller update is DiscreteController.step's
    arithmetic on elementwise ufuncs, per column j of S: w = S[:, 0] z_0,
    then w += S[:, j] z_j, then x <- w_1..n, with ACE written straight into
    z's last row; so each product is rounded on its own and each row summed
    left to right, with no BLAS call. Negating a row negates each product
    and each partial sum exactly under round-to-nearest, so w_0 is u = -(cd x
    + dd y) itself, up to the sign of a zero, which no nonzero value of the
    plant depends on. Every buffer, view, parameter and constant is made once
    per call, so a step is a fixed run of operations written through out=
    that creates no array. Parameters and constants are spread over the
    lanes, and so are the loads: the call copies a load-table row into one
    (3, 2, lanes) buffer only on the steps where the row changes (a few for
    a step load), so no plant or RK4 operation broadcasts. Per lane these
    are the operations of simulate's step, in the same order, so each lane's
    step states equal a one-lane simulate run's bit for bit.

    The step loop does only the plant step and the controller update: each
    step copies df into the next row of a fixed block of _FOLD_ROWS history
    rows, and each full block, and the last partial one, folds into the
    running peak of |df1| and |df2| and the IAE in a few in-place
    vectorized calls. The fold weighs each row as (|df1| + |df2|) * w, with
    w = dt inside and dt / 2 at the two ends, and adds the rows to the
    carried IAE in step order with np.add.accumulate (never a pairwise sum),
    so each lane's IAE is the running trapezoid over its one-lane simulate
    run exactly; it agrees with a quadrature of that trajectory only to
    rounding.

    Divergence: simulate raises after the first step whose seven states sum
    to a non-finite value or whose |df1| or |df2| exceeds the cap. run_iae
    keeps a per-lane peak of |df1| and |df2| (np.maximum and its reduction
    propagate NaN) and tests the final state once. A state that turns
    non-finite stays non-finite, since x + h/6 * (k1 + 2 k2 + 2 k3 + k4) of
    an inf or NaN x is inf or NaN, so a non-finite final state or a peak
    above the cap marks the lanes simulate raises on, and their IAE is set
    to NaN. (The one case this does not see is seven finite states whose sum
    overflows, which needs a state above 2.5e307.) A divergent lane steps on
    in isolation, so the other lanes keep their bits.
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
        self.dt = dt
        self.plant = (areas, tie, nonlin)
        self.bias = np.array([[frequency_bias(areas[0])], [frequency_bias(areas[1])]])
        # the load table, and the steps whose row differs from the last
        self.samples = load_samples(loads, dt, self.n_steps)
        self.load_changes = load_row_changes(self.samples)

    def _lanes(self, rows: np.ndarray) -> tuple[np.ndarray, Callable]:
        """run_iae's lanes for the controller rows (2, lanes, n + 1, n + 1)
        (controller_rows): the plant state (7, lanes), zero, and run(k0, k1,
        records), which steps the lanes in place from step k0 to k1, copying
        df into records[i] before step k0 + i. Each call goes on from the
        last one's k1, the first from step 0."""
        dt, lanes = self.dt, rows.shape[1]

        # the trapezoidal controllers as one bank: column j of every area's and
        # lane's rows S, output row negated, as cols[j], shape (n + 1, 2,
        # lanes), and z = [x; ace] as z[0..n], each a (2, lanes) row, so that
        # each lane takes DiscreteController.step's products and row sums
        cols = np.ascontiguousarray(rows.transpose(3, 2, 0, 1))
        np.negative(cols[:, 0], out=cols[:, 0])
        z, w, prod = np.zeros((3, len(cols), 2, lanes))
        x, ace, u, new_x = z[:-1], z[-1], w[0], w[1:]
        c0, z0, later = cols[0], z[0], list(zip(cols[1:], z[1:]))

        state = np.zeros((7, lanes))
        df, dptie = state[0:2], state[6:7]
        ace1, ace2 = ace[0:1], ace[1:2]
        # constants and loads spread over the lanes, as in lanes_step
        bias = np.broadcast_to(self.bias, (2, lanes)).copy()
        loads = np.empty((3, 2, lanes))
        stage_loads = tuple(loads)
        table, changes = self.samples[..., None], set(self.load_changes.tolist())  # step 0 is a change
        step = lanes_step(*self.plant, state, dt)

        def run(k0: int, k1: int, records: Sequence[np.ndarray]) -> None:
            for k, record in zip(range(k0, k1), records):
                np.copyto(record, df)
                if k in changes:
                    np.copyto(loads, table[k])
                np.multiply(bias, df, out=ace)
                np.add(ace1, dptie, out=ace1)
                np.subtract(ace2, dptie, out=ace2)
                np.multiply(c0, z0, out=w)
                for col, zj in later:
                    np.multiply(col, zj, out=prod)
                    np.add(w, prod, out=w)
                np.copyto(x, new_x)
                step(stage_loads, u)

        return state, run

    def run_iae(self, controller_pairs: Sequence[tuple[CdmController, CdmController]]) -> np.ndarray:
        """The IAE of each (area 1, area 2) controller pair, NaN where it diverges.

        All controllers of a call share one state-space order, as synthesize's
        default degrees give, so that both areas stack into one bank.
        """
        if not len(controller_pairs):
            return np.empty(0)
        return self._iae(controller_rows(controller_pairs, self.dt))

    def _iae(self, rows: np.ndarray) -> np.ndarray:
        """run_iae for the controller rows (2, lanes, n + 1, n + 1) (controller_rows)."""
        dt, n_steps = self.dt, self.n_steps
        lanes = rows.shape[1]
        state, run = self._lanes(rows)
        df = state[0:2]

        # |df| history, folded block by block into the peak and the IAE
        history = np.empty((2, _FOLD_ROWS, lanes))
        records = [history[:, i] for i in range(_FOLD_ROWS)]
        weighted = np.empty((_FOLD_ROWS, lanes))
        top, peak = np.zeros((2, 2, lanes))
        iae = np.zeros(lanes)

        def fold(m, ends):
            """Fold the records 0..m-1 into peak and iae in step order: the
            first `ends` of them (a run's first or last) weighted dt / 2, the rest dt."""
            mag, sums = history[:, :m], weighted[:m]
            np.abs(mag, out=mag)
            np.maximum.reduce(mag, axis=1, out=top)
            np.maximum(peak, top, out=peak)
            np.add(mag[0], mag[1], out=sums)
            np.multiply(sums[:ends], 0.5 * dt, out=sums[:ends])
            np.multiply(sums[ends:], dt, out=sums[ends:])
            np.add(sums[0], iae, out=sums[0])
            np.add.accumulate(sums, axis=0, out=sums)
            np.copyto(iae, sums[-1])

        with np.errstate(over="ignore", invalid="ignore"):
            for k0 in range(0, n_steps, _FOLD_ROWS):
                k1 = min(k0 + _FOLD_ROWS, n_steps)
                run(k0, k1, records)
                fold(k1 - k0, ends=1 if k0 == 0 else 0)
            np.copyto(records[0], df)
            fold(1, ends=1)  # the final state

        # simulate's divergence rule, checked once: see the class docstring
        live = np.isfinite(state).all(axis=0) & (peak <= _DIVERGENCE_CAP).all(axis=0)
        iae[~live] = np.nan
        return iae

    def closed_form_iae(self, rows: np.ndarray, maps: StepMaps) -> tuple[np.ndarray, int]:
        """run_iae's IAE for the controller rows (2, lanes, n + 1, n + 1)
        (controller_rows), whose step maps on this simulator's plant and dt
        are maps (affine.step_maps), in closed form, NaN where a lane diverges,
        and the number of blocks stepped exactly, summed over the lanes.

        Meant for loop-stable lanes, whose clamp-free step map has spectral
        radius below 1: their clamp is idle through nearly every block. The
        lanes go in chunks of _CHUNK, so that the tables' memory does not grow
        with the batch: each chunk's affine.block_table observes only df1, df2
        and the clamp (and dead-zone) arguments, one row per step of the
        longest block, and affine.step_powers gives the end state of each
        block length, both from one chain of squarings (affine.step_squares).
        The run goes in blocks of at most _BLOCK steps inside each stretch of
        one load_samples row. A block stands for a lane if its clamp
        arguments lie within their limits and its |df| within the divergence
        cap at every step, and its end state is finite; else the lane steps
        the block exactly (_exact_block), and the closed form resumes from the
        block's end. Each lane's |df1| + |df2| before every step, and at the
        end, fills one row, which one np.add.accumulate folds into run_iae's
        running trapezoid, so a lane's value depends on neither its batch nor
        its chunk, and lies within rounding of run_iae's (rel 1e-12 in the
        tests); a lane whose exact steps break simulate's divergence rule is
        NaN.
        """
        iae = np.empty(rows.shape[1])
        exact = 0
        for c0 in range(0, len(iae), _CHUNK):
            chunk = slice(c0, c0 + _CHUNK)
            iae[chunk], blocks = self._closed_form_chunk(rows[:, chunk], maps.take(chunk))
            exact += blocks
        return iae, exact

    def _closed_form_chunk(self, rows: np.ndarray, maps: StepMaps) -> tuple[np.ndarray, int]:
        """closed_form_iae for one chunk of lanes."""
        from .affine import _BLOCK, block_table, step_powers, step_squares, sum_rows  # only here: see simulate

        dt, n_steps, lanes, order = self.dt, self.n_steps, rows.shape[1], rows.shape[-1] - 1
        n = 7 + 2 * order
        starts = self.load_changes.tolist()
        stretches = list(zip(starts, starts[1:] + [n_steps]))
        lengths = {min(_BLOCK, b - k0) for a, b in stretches for k0 in range(a, b, _BLOCK)}
        longest = max(lengths)

        observe = np.concatenate([np.broadcast_to(np.eye(2, n + 6), (lanes, 2, n + 6)), maps.modes], axis=1)
        bound = np.concatenate([[_DIVERGENCE_CAP] * 2, maps.limits])
        squares = step_squares(maps, longest.bit_length())
        # the table over (coefficient, lane, step, row): the state's part and the load's
        table = block_table(maps, observe, longest, squares)
        on_z, on_w = table[:n], table[n:]
        # each block length's end-state rows over (coefficient, lane, state)
        ends = {j: np.ascontiguousarray(power.transpose(2, 0, 1)) for j, power in step_powers(maps, lengths, squares).items()}
        prod, end_prod = np.empty(on_z.shape), np.empty((n + 6, lanes, n))
        zw = np.zeros((n + 6, lanes))  # each lane's [z; w] at the next block's start, z in step_maps' order
        z = zw[:n]
        alive = np.ones(lanes, bool)
        mag = np.empty((lanes, n_steps + 1))  # |df1| + |df2| before each step, then at the end
        exact = 0
        with np.errstate(over="ignore", invalid="ignore"):
            for a, b in stretches:
                zw[n:] = self.samples[a].reshape(6, 1)
                load_part = sum_rows(on_w * zw[n:, :, None, None])  # the load's part of every prediction in the stretch
                for k0 in range(a, b, _BLOCK):
                    steps = min(_BLOCK, b - k0)
                    y = prod[:, :, :steps]
                    np.multiply(on_z[:, :, :steps], z[:, :, None, None], out=y)
                    y = sum_rows(y)
                    y += load_part[:, :steps]
                    np.multiply(ends[steps], zw[:, :, None], out=end_prod)
                    end = sum_rows(end_prod)
                    np.abs(y, out=y)
                    sums = mag[:, k0 : k0 + steps]
                    np.add(y[..., 0], y[..., 1], out=sums)
                    ok = (y <= bound).all(axis=(1, 2)) & np.isfinite(end).all(axis=1)
                    failed = np.flatnonzero(alive & ~ok)
                    if failed.size:
                        exact += failed.size
                        sums[failed], end[failed], alive[failed] = self._exact_block(rows[:, failed], z[:, failed], k0, steps)
                    z[:] = end.T
            np.add(np.abs(z[0]), np.abs(z[1]), out=mag[:, -1])  # the final state
            # run_iae's running trapezoid: dt / 2 at the two ends, dt inside, summed in step order
            mag[:, 1:-1] *= dt
            mag[:, 0] *= 0.5 * dt
            mag[:, -1] *= 0.5 * dt
            np.add.accumulate(mag, axis=1, out=mag)
        iae = mag[:, -1].copy()
        iae[~(alive & (np.abs(z[:2]) <= _DIVERGENCE_CAP).all(axis=0))] = np.nan
        return iae, exact

    def _exact_block(self, rows: np.ndarray, z: np.ndarray, k0: int, steps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Steps k0..k0+steps-1 of the lanes of rows exactly, one lane at a
        time on simulate's step (rk4_step of plant_rhs, controller_step), from
        the states z (n, lanes) in step_maps' order: each lane's |df1| + |df2|
        before every step (lanes, steps), its end state (lanes, n), and whether
        it kept within the divergence rule of run_iae's lanes engine: |df1| and
        |df2| within the cap before every step, and a finite end state."""
        dt, order = self.dt, rows.shape[-1] - 1
        rhs = plant_rhs(*self.plant)
        (b1,), (b2,) = self.bias.tolist()
        loads = self.samples[k0 : k0 + steps].tolist()
        mags, ends = [], []
        for (rows1, rows2), start in zip(rows.transpose(1, 0, 2, 3).tolist(), z.T.tolist()):
            step1, step2 = controller_step(rows1, x=start[7 : 7 + order]), controller_step(rows2, x=start[7 + order :])
            state = tuple(start[:7])
            record = array("d")
            for row in loads:
                df1, df2, _, _, _, _, dptie = state
                record.extend((abs(df1), abs(df2)))
                state = rk4_step(rhs, state, row, (step1(b1 * df1 + dptie), step2(b2 * df2 - dptie)), dt)
            mags.append(np.frombuffer(record).reshape(steps, 2))
            ends.append(list(state) + step1.state() + step2.state())
        mags, ends = np.array(mags), np.array(ends)
        kept = (mags <= _DIVERGENCE_CAP).all(axis=(1, 2)) & np.isfinite(ends).all(axis=1)
        return mags[..., 0] + mags[..., 1], ends, kept
