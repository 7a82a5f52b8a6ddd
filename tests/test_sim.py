import json
import math
import pathlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from cdmlfc import defaults
from cdmlfc.cdm import CdmController, CdmGains, synthesize
from cdmlfc.config import build_config
from cdmlfc.errors import CdmlfcError, ImproperController, NonFiniteState
from cdmlfc.plant import NonlinearityConfig, derive_design_plant, frequency_bias
from cdmlfc.poly import Polynomial, poly_mul
from cdmlfc.scenarios import TuningObjective, run_case
from cdmlfc.sim import (
    _FOLD_ROWS,
    BatchCdmSimulator,
    DiscreteController,
    IntegralSpec,
    LoadTable,
    PidSpec,
    SystemModel,
    Trajectory,
    controller_step,
    lanes_step,
    load_samples,
    plant_rhs,
    rk4_step,
    simulate,
)

ZERO = lambda t: 0.0
STEP1 = lambda t: 0.01 if t >= 1.0 else 0.0
LINEAR = NonlinearityConfig(grc_rate=math.inf, gdb_width=0.0)
NONLINEARITIES = [
    NonlinearityConfig(grc_rate=grc, gdb_width=0.05, gdb_mode=mode)
    for grc in (0.1, 0.1 / 60.0)
    for mode in ("deadzone", "backlash")
] + [LINEAR]


def cdm_pair():
    return tuple(
        synthesize(derive_design_plant(area, defaults.TIE), gains)
        for area, gains in zip((defaults.AREA1, defaults.AREA2), build_config().cdm_gains)
    )


def trapezoid_iae(traj):
    """Summed IAE of df1 and df2 of a trajectory, by numpy's trapezoid rule."""
    return float(np.trapezoid(np.abs(traj.df1), traj.t) + np.trapezoid(np.abs(traj.df2), traj.t))


def running_trapezoid(traj, dt):
    """The IAE as run_iae adds it: w * (|df1_k| + |df2_k|) in step order, with
    w = dt inside and dt / 2 at the two ends."""
    n = len(traj.t) - 1
    iae = 0.0
    for k in range(n + 1):
        iae += (dt if 0 < k < n else 0.5 * dt) * (abs(traj.df1[k]) + abs(traj.df2[k]))
    return iae


def one_lane_iae(m, loads, dt, horizon):
    """Summed IAE of df1 and df2 in a one-lane simulate run; NaN where it diverges."""
    try:
        traj = simulate(m, loads, dt=dt, horizon=horizon)
    except NonFiniteState:
        return math.nan
    return trapezoid_iae(traj)


def design_stable_pairs(rng, n):
    """n CDM pairs from uniform draws in the tuning box whose designs are stable
    in both areas (rejection-sampled: most draws are not)."""
    objective = TuningObjective()
    plants = [derive_design_plant(area, defaults.TIE) for area in (defaults.AREA1, defaults.AREA2)]
    bounds = np.array(defaults.OPT_BOUNDS)
    pairs = []
    while len(pairs) < n:
        x = bounds[:, 0] + rng.random(len(bounds)) * (bounds[:, 1] - bounds[:, 0])
        try:
            pair = tuple(synthesize(plant, gains) for plant, gains in zip(plants, objective.decode(x)))
        except (CdmlfcError, ValueError):
            continue
        if all(c.stable for c in pair):
            pairs.append(pair)
    return pairs


def lifted(pair, a=0.01):
    """pair at order 3: each area's Ac and Bc times (1 + a s), so the transfer
    function is unchanged and the design loop gains a stable pole at -1/a."""
    lift = Polynomial([1.0, a])
    return tuple(
        CdmController.from_polynomials(poly_mul(c.Ac, lift), poly_mul(c.Bc, lift), derive_design_plant(area, defaults.TIE))
        for c, area in zip(pair, (defaults.AREA1, defaults.AREA2))
    )


def model(nonlin=None, controllers=None):
    return SystemModel(
        (defaults.AREA1, defaults.AREA2),
        defaults.TIE,
        defaults.NONLIN_CASES if nonlin is None else nonlin,
        cdm_pair() if controllers is None else controllers,
    )


class TestDerivatives:
    def test_equilibrium(self):
        m = model()
        d = plant_rhs(m.areas, m.tie, m.nonlin)((0.0,) * 7, (0.0, 0.0), (0.0, 0.0))
        assert d == (0.0,) * 7

    def test_grc_clamp_value(self):
        # dPg - dPm = 1 pu with Tt = 0.4 would slew at 2.5 pu/s unclamped
        m = model(nonlin=NonlinearityConfig(grc_rate=0.1 / 60.0, gdb_width=0.0))
        d = plant_rhs(m.areas, m.tie, m.nonlin)((0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0), (0.0, 0.0), (0.0, 0.0))
        assert d[2] == pytest.approx(0.1 / 60.0)
        assert d[2] == pytest.approx(0.0016667, rel=1e-4)

    def test_dead_band_swallows_droop(self):
        m = model()  # gdb width 0.05, half width 0.025
        df1 = 0.06  # df/R = 0.02 < 0.025
        d = plant_rhs(m.areas, m.tie, m.nonlin)((df1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0), (0.0, 0.0), (0.0, 0.0))
        assert d[4] == 0.0

    def test_droop_outside_dead_band(self):
        m = model()
        df1 = 0.09  # df/R = 0.03 > 0.025
        d = plant_rhs(m.areas, m.tie, m.nonlin)((df1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0), (0.0, 0.0), (0.0, 0.0))
        assert d[4] == pytest.approx(-(0.03 - 0.025) / defaults.AREA1.Tg)

    def test_tie_line_antisymmetry_inputs(self):
        m = model()
        d = plant_rhs(m.areas, m.tie, m.nonlin)((0.001, -0.002, 0.0, 0.0, 0.0, 0.0, 0.0), (0.0, 0.0), (0.0, 0.0))
        assert d[6] == pytest.approx(2.0 * math.pi * 0.2 * 0.003)


class TestDiscretizeController:
    def test_integral_ramp(self):
        ctrl = DiscreteController(IntegralSpec(1.0), dt=0.01)
        us = [ctrl.step(1.0) for _ in range(501)]
        # trapezoidal integration of y=1: u(t_k) = -(t_k + dt/2) after the first sample
        assert us[0] == pytest.approx(-0.005)
        assert us[500] == pytest.approx(-(5.0 + 0.005), rel=1e-12)

    def test_pid_with_zero_kd_is_pi(self):
        pid = DiscreteController(PidSpec(2.0, 3.0, 0.0, tf=0.07), dt=0.01)
        pi = DiscreteController(PidSpec(2.0, 3.0, 0.0, tf=0.5), dt=0.01)
        y = np.sin(np.linspace(0, 3, 300))
        for yk in y:
            assert pid.step(float(yk)) == pytest.approx(pi.step(float(yk)), abs=1e-12)

    def test_cdm_integrator_equals_integral(self):
        ctrl = CdmController(
            Ac=Polynomial([0.0, 1.0]),
            Bc=Polynomial([0.7]),
            F=0.7,
            residual=0.0,
            target=Polynomial([1.0]),
            realized=Polynomial([1.0]),
            stable=True,
        )
        a = DiscreteController(ctrl, dt=0.01)
        b = DiscreteController(IntegralSpec(0.7), dt=0.01)
        rng = np.random.default_rng(1)
        for yk in rng.normal(size=200):
            assert a.step(float(yk)) == b.step(float(yk))

    def test_integral_action_unbounded(self):
        ctrl = DiscreteController(IntegralSpec(0.5), dt=0.01)
        us = [abs(ctrl.step(1.0)) for _ in range(2000)]
        assert us[-1] > us[100] > us[10]

    def test_improper_controller_rejected(self):
        bad = CdmController(
            Ac=Polynomial([0.0, 1.0]),
            Bc=Polynomial([1.0, 1.0, 1.0]),
            F=1.0,
            residual=0.0,
            target=Polynomial([1.0]),
            realized=Polynomial([1.0]),
            stable=True,
        )
        with pytest.raises(ImproperController):
            DiscreteController(bad, dt=0.01)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(("cdm", "pid", "integral")), dt=st.sampled_from((0.005, 0.01, 0.02)))
    def test_bilinear_map_keeps_the_frequency_response(self, data, kind, dt):
        # cd (zI - ad)^-1 bd + dd at z = exp(j w dt) equals the continuous
        # controller's transfer function at s = (2/dt)(z - 1)/(z + 1)
        gain = st.floats(0.01, 10.0)
        if kind == "cdm":
            x = data.draw(st.tuples(*(st.floats(lo, hi) for lo, hi in defaults.OPT_BOUNDS)))
            area = data.draw(st.sampled_from((defaults.AREA1, defaults.AREA2)))
            try:
                spec = synthesize(derive_design_plant(area, defaults.TIE), CdmGains(x[:5], x[5], x[6]))
            except (CdmlfcError, ValueError):
                reject()
            response = lambda s: spec.Bc(s) / spec.Ac(s)
        elif kind == "pid":
            spec = PidSpec(data.draw(gain), data.draw(gain), data.draw(gain), tf=data.draw(st.floats(0.005, 0.5)))
            response = lambda s: spec.kp + spec.ki / s + spec.kd * s / (spec.tf * s + 1.0)
        else:
            spec = IntegralSpec(data.draw(gain))
            response = lambda s: spec.ki / s
        rows = np.array(DiscreteController(spec, dt).rows)  # [[Cd, Dd], [Ad, Bd]]
        cd, dd, ad, bd = rows[0, :-1], rows[0, -1], rows[1:, :-1], rows[1:, -1]
        for w in (0.1, 1.0, 10.0, 100.0):
            z = np.exp(1j * w * dt)
            discrete = cd @ np.linalg.solve(z * np.eye(len(bd)) - ad, bd) + dd
            assert discrete == pytest.approx(response(2.0 / dt * (z - 1.0) / (z + 1.0)), rel=1e-9)

    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        kind=st.sampled_from(("integral", "pid", "cdm", "cdm3", "rows")),
        dt=st.sampled_from((0.005, 0.01, 0.02)),
    )
    def test_unrolled_steps_equal_the_row_loop(self, data, kind, dt):
        # the unrolled order-1 (pi) and order-2 (pid, CDM) steps and the
        # generic row loop (order 3: cdm3, and the order-3 raw rows) give the
        # bits of numpy's elementwise row sums (no BLAS), signed zeros
        # included. Raw rows of orders 1-3 fill the entries that the
        # realizations hold at zero (the Tustin Ad of an integrating
        # controller is triangular).
        gain = st.floats(0.01, 10.0)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if kind == "rows":
            order = data.draw(st.integers(1, 3))
            rows = rng.uniform(-1.0, 1.0, (order + 1, order + 1)).tolist()
            step = controller_step(rows)
        elif kind == "integral":
            spec, order = IntegralSpec(data.draw(gain)), 1
        elif kind == "pid":
            spec, order = PidSpec(data.draw(gain), data.draw(gain), data.draw(gain), tf=data.draw(st.floats(0.005, 0.5))), 2
        else:
            x = data.draw(st.tuples(*(st.floats(lo, hi) for lo, hi in defaults.OPT_BOUNDS)))
            try:
                pair = tuple(
                    synthesize(derive_design_plant(area, defaults.TIE), CdmGains(x[:5], x[5], x[6 + i]))
                    for i, area in enumerate((defaults.AREA1, defaults.AREA2))
                )
            except (CdmlfcError, ValueError):
                reject()
            if kind == "cdm3":
                pair = lifted(pair, data.draw(st.floats(0.001, 0.1)))
            spec = pair[data.draw(st.integers(0, 1))]
            order = spec.Ac.degree
            if order != (3 if kind == "cdm3" else 2) or spec.Bc.degree > order:
                reject()  # the polynomial product trimmed a leading coefficient
        if kind != "rows":
            ctrl = DiscreteController(spec, dt)
            rows, step = ctrl.rows, ctrl.step
            assert len(rows) == order + 1
        rows = np.array(rows)
        z = np.zeros(order + 1)
        ys = [-0.0, 0.0] + data.draw(st.lists(st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.0, -0.0])), max_size=20))
        ys += rng.uniform(-1.0, 1.0, 20).tolist()
        for y in ys:
            z[-1] = y
            w = rows[:, 0] * z[0]
            for j in range(1, order + 1):
                w = w + rows[:, j] * z[j]
            z[:-1] = w[1:]
            assert step(y).hex() == float(-w[0]).hex()


class TestSimulate:
    def test_zero_input_zero_trajectory(self):
        traj = simulate(model(), (ZERO, ZERO), dt=0.01, horizon=100.0)
        for ch in Trajectory.CHANNELS[1:]:
            assert np.all(getattr(traj, ch) == 0.0)

    def test_sample_count(self):
        traj = simulate(model(), (STEP1, ZERO), dt=0.01, horizon=60.0)
        assert len(traj.t) == 6001

    def test_linear_integral_zero_steady_state_ace(self):
        m = model(nonlin=LINEAR, controllers=(IntegralSpec(0.3), IntegralSpec(0.2)))
        traj = simulate(m, (STEP1, ZERO), dt=0.01, horizon=100.0)
        assert abs(traj.ace1[-1]) < 1e-5
        assert abs(traj.ace2[-1]) < 1e-5

    def test_linear_superposition(self):
        m = model(nonlin=LINEAR)
        one = simulate(m, (STEP1, ZERO), dt=0.01, horizon=30.0)
        two = simulate(m, (lambda t: 0.02 if t >= 1.0 else 0.0, ZERO), dt=0.01, horizon=30.0)
        scale = np.max(np.abs(two.df1))
        assert np.max(np.abs(two.df1 - 2.0 * one.df1)) < 1e-9 * scale

    def test_grc_bound_holds_at_every_sample(self):
        # the recorded mechanical power never slews faster than the GRC rate,
        # and the clamp does bind in this run
        grc = 0.1 / 60.0
        dt = 0.01
        m = model(nonlin=NonlinearityConfig(grc_rate=grc, gdb_width=0.05))
        traj = simulate(m, (STEP1, ZERO), dt=dt, horizon=30.0)
        rates = np.abs(np.diff(np.stack([traj.dpm1, traj.dpm2]), axis=1)) / dt
        assert rates.max() <= grc * (1.0 + 1e-9)
        assert rates.max() >= 0.99 * grc

    def test_tie_line_antisymmetry_of_ace(self):
        traj = simulate(model(), (STEP1, ZERO), dt=0.01, horizon=20.0)
        b1 = defaults.AREA1.D + 1.0 / defaults.AREA1.R
        b2 = defaults.AREA2.D + 1.0 / defaults.AREA2.R
        assert np.allclose(traj.ace1 - b1 * traj.df1, traj.dptie, atol=1e-12)
        assert np.allclose(traj.ace2 - b2 * traj.df2, -traj.dptie, atol=1e-12)

    def test_divergence_raises_nonfinite(self):
        # positive-feedback controller destabilizes the loop
        m = model(nonlin=LINEAR, controllers=(IntegralSpec(-80.0), IntegralSpec(-80.0)))
        with pytest.raises(NonFiniteState):
            simulate(m, (STEP1, ZERO), dt=0.01, horizon=60.0)

    def test_dt_validation(self):
        for dt in (0.06, 0.050000001):
            with pytest.raises(ValueError, match=r"^dt must be in \(0, 0\.05\]$"):
                simulate(model(), (ZERO, ZERO), dt=dt, horizon=1.0)
        assert len(simulate(model(), (ZERO, ZERO), dt=0.05, horizon=1.0).t) == 21
        with pytest.raises(ValueError):
            simulate(model(), (ZERO, ZERO), dt=0.01, horizon=0.015)
        for horizon in (math.inf, math.nan):
            with pytest.raises(ValueError, match=r"^horizon must be a positive multiple of dt$"):
                simulate(model(), (ZERO, ZERO), dt=0.01, horizon=horizon)

    def test_controller_dt_must_be_multiple(self):
        for controller_dt in (0.015, math.inf, math.nan):
            with pytest.raises(ValueError, match=r"^controller_dt must be a positive integer multiple of dt$"):
                simulate(model(), (ZERO, ZERO), dt=0.01, horizon=1.0, controller_dt=controller_dt)

    def test_grid_refinement_state_channels(self):
        m = model()
        a = simulate(m, (STEP1, ZERO), dt=0.01, horizon=30.0, controller_dt=0.01)
        b = simulate(m, (STEP1, ZERO), dt=0.005, horizon=30.0, controller_dt=0.01)
        for ch in ("df1", "df2", "dptie", "ace1", "ace2"):
            assert np.max(np.abs(getattr(a, ch) - getattr(b, ch)[::2])) < 1e-4


def reference_plant_rhs(areas, tie, nonlin):
    """plant_rhs as first written, with its clamp and governor as calls."""
    a1, a2 = areas
    grc = nonlin.grc_rate
    half = 0.5 * nonlin.gdb_width
    t12 = 2.0 * math.pi * tie.T12
    if half == 0.0:
        def governor(df, ddf, r):
            return df / r
    elif nonlin.gdb_mode == "backlash":
        def governor(df, ddf, r):
            return 0.8 * (df / r) - (0.2 / math.pi) * (ddf / r)
    else:
        def governor(df, ddf, r):
            x = df / r
            if x > half:
                return x - half
            if x < -half:
                return x + half
            return 0.0

    def clamp(x):
        if x > grc:
            return grc
        if x < -grc:
            return -grc
        return x

    def rhs(state, loads, u):
        df1, df2, dpm1, dpm2, dpg1, dpg2, dptie = state
        ddf1 = (dpm1 - loads[0] - a1.D * df1 - dptie) / a1.M
        ddf2 = (dpm2 - loads[1] - a2.D * df2 + dptie) / a2.M
        ddpm1 = clamp((dpg1 - dpm1) / a1.Tt)
        ddpm2 = clamp((dpg2 - dpm2) / a2.Tt)
        ddpg1 = (u[0] - governor(df1, ddf1, a1.R) - dpg1) / a1.Tg
        ddpg2 = (u[1] - governor(df2, ddf2, a2.R) - dpg2) / a2.Tg
        return (ddf1, ddf2, ddpm1, ddpm2, ddpg1, ddpg2, t12 * (df1 - df2))

    return rhs


def reference_rk4_step(rhs, state, loads, u, h):
    """rk4_step as first written, stage by stage over zipped tuples."""
    l0, lm, le = loads
    k1 = rhs(state, l0, u)
    k2 = rhs(tuple(x + 0.5 * h * d for x, d in zip(state, k1)), lm, u)
    k3 = rhs(tuple(x + 0.5 * h * d for x, d in zip(state, k2)), lm, u)
    k4 = rhs(tuple(x + h * d for x, d in zip(state, k3)), le, u)
    return tuple(
        x + h / 6.0 * (d1 + 2.0 * d2 + 2.0 * d3 + d4) for x, d1, d2, d3, d4 in zip(state, k1, k2, k3, k4)
    )


def reference_simulate(m, loads, dt, horizon, controller_dt):
    """simulate's loop as first written, returning Trajectory's twelve channels
    as the rows of one array."""
    n_steps = round(horizon / dt)
    decim = round(controller_dt / dt)
    b1, b2 = (frequency_bias(area) for area in m.areas)
    ctrl1, ctrl2 = (DiscreteController(spec, controller_dt) for spec in m.controllers)
    rhs = reference_plant_rhs(m.areas, m.tie, m.nonlin)
    table = load_samples(loads, dt, n_steps)
    rec = np.empty((n_steps + 1, 12))
    state = (0.0,) * 7
    u1 = u2 = 0.0
    for k in range(n_steps + 1):
        t = k * dt
        df1, df2, dpm1, dpm2, _, _, dptie = state
        ace1 = b1 * df1 + dptie
        ace2 = b2 * df2 - dptie
        if k % decim == 0:
            u1 = ctrl1.step(ace1)
            u2 = ctrl2.step(ace2)
        if k == n_steps:
            rec[k] = (t, df1, df2, dptie, ace1, ace2, u1, u2, loads[0](t), loads[1](t), dpm1, dpm2)
            break
        step_loads = table[k].tolist()
        rec[k] = (t, df1, df2, dptie, ace1, ace2, u1, u2, *step_loads[0], dpm1, dpm2)
        state = reference_rk4_step(rhs, state, step_loads, (u1, u2), dt)
        if not math.isfinite(sum(state)) or abs(state[0]) > 1e6 or abs(state[1]) > 1e6:
            raise NonFiniteState(t + dt, f"state={state}")
    return rec.T


class TestScalarEngine:
    CHANNELS = Trajectory.CHANNELS + ("dpm1", "dpm2")

    @pytest.mark.parametrize("nonlin", NONLINEARITIES)
    @pytest.mark.parametrize("name", ["cdm_opt", "cdm", "pid", "pi"])
    def test_channels_equal_the_reference_loop(self, nonlin, name):
        # every recorded channel bit for bit against the reference writing, with
        # the controllers sampled every other step, under loads that change
        # inside steps (a sine) and at sample times (steps in both areas); over
        # 15.01 s (1501 steps) the final sample falls between two controller
        # samples and holds the last u
        m = model(nonlin=nonlin, controllers=build_config().controller_pair(name))
        loads = (lambda t: STEP1(t) + 0.004 * math.sin(0.7 * t), lambda t: -0.006 if t >= 4.0 else 0.0)
        for horizon in (15.0, 15.01):
            want = reference_simulate(m, loads, 0.01, horizon, 0.02)
            traj = simulate(m, loads, dt=0.01, horizon=horizon, controller_dt=0.02)
            for channel, column in zip(self.CHANNELS, want):
                assert np.array_equal(getattr(traj, channel), column), (horizon, channel)

    def test_divergence_time_and_state_equal_the_reference_loop(self):
        m = model(nonlin=LINEAR, controllers=(IntegralSpec(-80.0), IntegralSpec(-80.0)))
        with pytest.raises(NonFiniteState) as want:
            reference_simulate(m, (STEP1, ZERO), 0.01, 60.0, 0.02)
        with pytest.raises(NonFiniteState) as got:
            simulate(m, (STEP1, ZERO), dt=0.01, horizon=60.0, controller_dt=0.02)
        assert (got.value.time, str(got.value)) == (want.value.time, str(want.value))

    def test_shared_load_table_gives_the_same_run(self):
        m = model()
        loads = (STEP1, lambda t: 0.002 * math.sin(t))
        table = LoadTable.sample(loads, 0.01, 10.0)
        for channel in self.CHANNELS:
            assert np.array_equal(
                getattr(simulate(m, table, dt=0.01, horizon=10.0), channel),
                getattr(simulate(m, loads, dt=0.01, horizon=10.0), channel),
            )
        for dt, horizon in ((0.005, 10.0), (0.01, 5.0)):
            with pytest.raises(ValueError):
                simulate(m, table, dt=dt, horizon=horizon)


class TestGrcRate:
    def test_mechanical_power_rate_bounded(self):
        # drive the full nonlinear model hard and track dPm step to step
        grc = 0.1 / 60.0
        m = model(nonlin=NonlinearityConfig(grc_rate=grc, gdb_width=0.05))
        dt, n_steps = 0.01, 2000
        ctrl1, ctrl2 = (DiscreteController(spec, dt) for spec in m.controllers)
        b1, b2 = (frequency_bias(area) for area in m.areas)
        rhs = plant_rhs(m.areas, m.tie, m.nonlin)
        state = (0.0,) * 7
        max_rate = 0.0
        for loads in load_samples((STEP1, ZERO), dt, n_steps).tolist():
            u = (ctrl1.step(b1 * state[0] + state[6]), ctrl2.step(b2 * state[1] - state[6]))
            nxt = rk4_step(rhs, state, loads, u, dt)
            max_rate = max(max_rate, abs(nxt[2] - state[2]) / dt, abs(nxt[3] - state[3]) / dt)
            state = nxt
        assert max_rate <= grc * (1.0 + 1e-9)
        assert max_rate >= 0.99 * grc


class TestBatchSimulator:
    def test_matches_scalar_simulation(self):
        ctrls = cdm_pair()
        loads = (STEP1, ZERO)
        batch = BatchCdmSimulator(
            (defaults.AREA1, defaults.AREA2),
            defaults.TIE,
            defaults.NONLIN_CASES,
            loads,
            dt=0.02,
            horizon=30.0,
        )
        iae_b = batch.run_iae([ctrls, ctrls])[0]
        assert iae_b == pytest.approx(one_lane_iae(model(), loads, dt=0.02, horizon=30.0), rel=1e-12)

    def test_divergent_candidate_yields_nan(self):
        plant1 = derive_design_plant(defaults.AREA1, defaults.TIE)
        plant2 = derive_design_plant(defaults.AREA2, defaults.TIE)
        # controller with a fast unstable internal pole: guaranteed blow-up
        bad1 = CdmController.from_polynomials(Polynomial([0.0, -0.5, 0.01]), Polynomial([1.0, 1.0, 1.0]), plant1)
        bad2 = CdmController.from_polynomials(Polynomial([0.0, -0.5, 0.01]), Polynomial([1.0, 1.0, 1.0]), plant2)
        good = cdm_pair()
        batch = BatchCdmSimulator(
            (defaults.AREA1, defaults.AREA2),
            defaults.TIE,
            defaults.NONLIN_OBJECTIVE,
            (STEP1, ZERO),
            dt=0.02,
            horizon=30.0,
        )
        out = batch.run_iae([(bad1, bad2), good])
        assert not math.isfinite(out[0])
        assert math.isfinite(out[1])

    def test_area2_divergence_alone_poisons_the_lane(self):
        # a fast unstable pole in the area-2 controller only: df2 leaves the
        # divergence cap a few steps before df1 does
        plant2 = derive_design_plant(defaults.AREA2, defaults.TIE)
        bad2 = CdmController.from_polynomials(Polynomial([0.0, -1.0, 1.0 / 90.0]), Polynomial([1.0, 1.0, 0.1]), plant2)
        good = cdm_pair()
        loads = (STEP1, STEP1)
        with pytest.raises(NonFiniteState):
            simulate(model(nonlin=LINEAR, controllers=(good[0], bad2)), loads, dt=0.02, horizon=1.24)
        batch = BatchCdmSimulator((defaults.AREA1, defaults.AREA2), defaults.TIE, LINEAR, loads, dt=0.02, horizon=1.24)
        out = batch.run_iae([(good[0], bad2), good])
        assert math.isnan(out[0])
        assert math.isfinite(out[1])

    def test_nan_exactly_when_simulate_raises_near_the_crossing(self):
        # run_iae checks divergence once, after the run, from a running peak of
        # |df| and the final state: around the step where the area-2 unstable
        # pair first leaves the cap, the lane must be NaN exactly at the
        # horizons where simulate raises, and a live lane must keep its bits
        plant2 = derive_design_plant(defaults.AREA2, defaults.TIE)
        bad2 = CdmController.from_polynomials(Polynomial([0.0, -1.0, 1.0 / 90.0]), Polynomial([1.0, 1.0, 0.1]), plant2)
        good = cdm_pair()
        loads, dt = (STEP1, STEP1), 0.02
        with pytest.raises(NonFiniteState) as raised:
            simulate(model(nonlin=LINEAR, controllers=(good[0], bad2)), loads, dt=dt, horizon=10.0)
        crossing = round(raised.value.time / dt)
        for n in range(crossing - 3, crossing + 4):
            batch = BatchCdmSimulator((defaults.AREA1, defaults.AREA2), defaults.TIE, LINEAR, loads, dt=dt, horizon=n * dt)
            out = batch.run_iae([(good[0], bad2), good])
            assert math.isnan(one_lane_iae(model(nonlin=LINEAR, controllers=(good[0], bad2)), loads, dt, n * dt)) == (n >= crossing)
            assert math.isnan(out[0]) == (n >= crossing)
            assert out[1] == running_trapezoid(simulate(model(nonlin=LINEAR, controllers=good), loads, dt=dt, horizon=n * dt), dt)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), dt=st.sampled_from((0.01, 0.02)), order=st.sampled_from((2, 3)))
    @example(seed=0, n=2, dt=0.01, order=3)
    def test_lanes_equal_one_lane_runs(self, seed, n, dt, order):
        # Design-stable candidates anywhere in the tuning box. Most are unstable
        # in the two-area loop, and where the GRC clamp bounds them in a limit
        # cycle any last-bit difference between the drivers' controller
        # products grows into the IAE, so the lanes must match bit for bit:
        # each lane is the running trapezoid over its one-lane simulate run
        # exactly, and NaN where simulate raises. At order 3 (the candidates
        # and the default cdm_classic pair lifted) simulate steps the
        # controllers by DiscreteController's row loop.
        pairs = design_stable_pairs(np.random.default_rng(seed), n)
        if order == 3:
            classic = build_config().controller_pair("cdm")
            pairs = [lifted(pair) for pair in pairs + [classic]]
        loads = (STEP1, ZERO)
        for nonlin in NONLINEARITIES:
            batch = BatchCdmSimulator((defaults.AREA1, defaults.AREA2), defaults.TIE, nonlin, loads, dt=dt, horizon=10.0)
            for iae_b, pair in zip(batch.run_iae(pairs), pairs):
                try:
                    traj = simulate(model(nonlin=nonlin, controllers=pair), loads, dt=dt, horizon=10.0)
                except NonFiniteState:
                    assert math.isnan(iae_b)
                    continue
                assert iae_b == running_trapezoid(traj, dt)
                assert iae_b == pytest.approx(trapezoid_iae(traj), rel=1e-12)

    @pytest.mark.parametrize("nonlin", NONLINEARITIES + [defaults.NONLIN_OBJECTIVE])
    def test_lane_value_does_not_depend_on_its_batch(self, nonlin):
        # a pair's IAE is the same bits alone and at every position of a mixed
        # batch of live and divergent lanes (NaN where it diverges)
        good = cdm_pair()
        plant2 = derive_design_plant(defaults.AREA2, defaults.TIE)
        bad2 = CdmController.from_polynomials(Polynomial([0.0, -1.0, 1.0 / 90.0]), Polynomial([1.0, 1.0, 0.1]), plant2)
        pairs = design_stable_pairs(np.random.default_rng(7), 4) + [(good[0], bad2), good]
        loads = (STEP1, STEP1)
        batch = BatchCdmSimulator((defaults.AREA1, defaults.AREA2), defaults.TIE, nonlin, loads, dt=0.02, horizon=10.0)
        alone = np.array([batch.run_iae([pair])[0] for pair in pairs])
        assert np.isnan(alone).any() and np.isfinite(alone).any()
        for shift in range(len(pairs)):
            order = np.roll(np.arange(len(pairs)), shift)
            np.testing.assert_array_equal(batch.run_iae([pairs[i] for i in order]), alone[order])

    def test_non_finite_horizon_is_refused(self):
        for horizon in (math.inf, math.nan):
            with pytest.raises(ValueError, match=r"^horizon must be a positive multiple of dt$"):
                BatchCdmSimulator((defaults.AREA1, defaults.AREA2), defaults.TIE, LINEAR, (STEP1, ZERO), 0.02, horizon)

    def test_no_lanes_give_no_costs(self):
        batch = BatchCdmSimulator(
            (defaults.AREA1, defaults.AREA2), defaults.TIE, defaults.NONLIN_OBJECTIVE, (STEP1, ZERO), dt=0.02, horizon=1.0
        )
        out = batch.run_iae([])
        assert out.dtype == float and out.shape == (0,)


def objective_pair(objective):
    """The objective's reference vector as a controller pair, synthesized on its design plants."""
    plants = [derive_design_plant(area, objective.tie) for area in objective.areas]
    return tuple(synthesize(plant, gains) for plant, gains in zip(plants, objective.decode(objective.reference_vector())))


class TestIaeFold:
    """run_iae records |df| into a block of _FOLD_ROWS history rows and folds
    each full block, and the last partial one, into the peak and the IAE."""

    @pytest.mark.parametrize("n", [1, _FOLD_ROWS - 1, _FOLD_ROWS, _FOLD_ROWS + 1, 2 * _FOLD_ROWS + 1])
    def test_iae_is_the_running_trapezoid_at_block_edges(self, n):
        # on the objective's model (case-1 load at 1 s, inside the first block
        # for n > 50), each lane's IAE is its one-lane running trapezoid bit for
        # bit, in a batch and alone (one lane: no inner axis for numpy to sum pairwise)
        objective = TuningObjective()
        pairs = [objective_pair(objective)] + design_stable_pairs(np.random.default_rng(3), 2)
        dt = objective.dt
        batch = BatchCdmSimulator(objective.eval_areas, objective.tie, objective.nonlin, objective.eval_loads, dt, n * dt)
        assert batch.n_steps == n
        costs = np.concatenate([batch.run_iae(pairs)] + [batch.run_iae([pair]) for pair in pairs])
        for iae, pair in zip(costs, pairs + pairs):
            m = SystemModel(objective.eval_areas, objective.tie, objective.nonlin, pair)
            try:
                traj = simulate(m, objective.eval_loads, dt=dt, horizon=n * dt)
            except NonFiniteState:
                assert math.isnan(iae)
                continue
            assert iae == running_trapezoid(traj, dt)

    @pytest.mark.parametrize("row", [_FOLD_ROWS // 2, _FOLD_ROWS - 1])
    def test_nan_exactly_when_simulate_raises_at_a_block_row(self, row):
        # On the linear model a load pulse on one step's midpoint sample, sized
        # between the cap over the response's largest and second largest |df|,
        # drives the default pair over the cap on exactly one record, which a
        # whole-step delay puts on the given row of a block: inside it, or its
        # last row. Past that record every state is finite and under the cap,
        # so only the fold's peak marks the lane.
        pairs = [cdm_pair(), build_config().controller_pair("cdm")]
        dt = 0.02

        def pulse(delay, size):
            start = (delay + 0.25) * dt
            return (lambda t: size if start <= t < start + 0.5 * dt else 0.0), ZERO

        unit = simulate(model(nonlin=LINEAR, controllers=pairs[0]), pulse(0, 1.0), dt=dt, horizon=4.0)
        mag = np.maximum(np.abs(unit.df1), np.abs(unit.df2))
        second, top = np.sort(mag)[-2:]
        assert second < 0.99 * top
        size = 2.0 * 1e6 / (top + second)
        loads = pulse((row - int(np.argmax(mag))) % _FOLD_ROWS, size)
        with pytest.raises(NonFiniteState) as raised:
            simulate(model(nonlin=LINEAR, controllers=pairs[0]), loads, dt=dt, horizon=8.0)
        first = round(raised.value.time / dt)
        assert first % _FOLD_ROWS == row
        for n in (first - 1, first, first + 1, first + _FOLD_ROWS):
            batch = BatchCdmSimulator((defaults.AREA1, defaults.AREA2), defaults.TIE, LINEAR, loads, dt=dt, horizon=n * dt)
            for iae, pair in zip(batch.run_iae(pairs), pairs):
                try:
                    traj = simulate(model(nonlin=LINEAR, controllers=pair), loads, dt=dt, horizon=n * dt)
                except NonFiniteState:
                    assert pair is not pairs[0] or n >= first
                    assert math.isnan(iae)
                    continue
                assert pair is not pairs[0] or n < first
                assert iae == running_trapezoid(traj, dt)

    def test_memory_does_not_grow_with_the_horizon(self):
        # 50 lanes over the objective's 3000 steps: a full-length |df| history
        # alone would take 2.4 MB
        objective = TuningObjective()
        batch = BatchCdmSimulator(
            objective.eval_areas, objective.tie, objective.nonlin, objective.eval_loads, objective.dt, objective.horizon
        )
        assert batch.n_steps == 3000
        pairs = [objective_pair(objective)] * 50
        tracemalloc.start()
        try:
            iae = batch.run_iae(pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(iae).all()
        assert peak < 512 * 1024


def _on_band_edge(area, half):
    """area with R nudged so that some df gives df / R == half exactly, and that df."""
    r = area.R
    while (half * r) / r != half:
        r = float(np.nextafter(r, np.inf))
    return replace(area, R=r), half * r


class TestLanesStep:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), nonlin=st.sampled_from(NONLINEARITIES), n=st.integers(1, 6))
    def test_one_step_equals_rk4_step_of_plant_rhs(self, data, nonlin, n):
        # the two writings of the plant, one per driver, take equal steps bit
        # for bit, at the dead band's edges and with the rate clamp active
        half = 0.025  # the dead band half width of NONLINEARITIES
        (a1, edge1), (a2, edge2) = (_on_band_edge(a, half) for a in (defaults.AREA1, defaults.AREA2))
        freq = [
            st.one_of(st.floats(-0.3, 0.3), st.sampled_from([edge, -edge, 0.0, 0.5 * edge, -2.0 * edge]))
            for edge in (edge1, edge2)
        ]
        power = st.floats(-0.2, 0.2)  # |dPg - dPm| / Tt mostly beyond both GRC rates
        lane = st.tuples(freq[0], freq[1], power, power, power, power, st.floats(-0.1, 0.1))
        states = data.draw(st.lists(lane, min_size=n, max_size=n))
        load = st.tuples(st.floats(-0.05, 0.05), st.floats(-0.05, 0.05))
        loads = data.draw(st.tuples(load, load, load))  # the step's start, midpoint and end
        us = data.draw(st.lists(st.tuples(power, power), min_size=n, max_size=n))
        areas, h = (a1, a2), 0.01
        rhs = plant_rhs(areas, defaults.TIE, nonlin)
        stacked = np.array(states).T.copy()
        lanes_step(areas, defaults.TIE, nonlin, stacked, h)(np.array(loads)[..., None], np.array(us).T.copy())
        for i, (state, u) in enumerate(zip(states, us)):
            assert tuple(float(x[i]) for x in stacked) == rk4_step(rhs, state, loads, u, h)


REFERENCE = json.loads((pathlib.Path(__file__).parent / "data" / "engine_reference.json").read_text())


class TestEngineReference:
    """Outputs recorded by scripts/engine_reference.py: the case indices before
    the one-lane and lane-batched simulators shared one plant model and one
    RK4 step, the objective costs once both drivers stepped each controller
    in plain float arithmetic (each product rounded on its own, each row
    summed left to right, no BLAS). That re-recording kept the case indices,
    which moved by at most 1.5e-15 relative, and moved one of the 17 live
    costs, a limit cycle held by the rate clamp that amplifies last-bit
    differences."""

    @pytest.mark.parametrize("case_id", sorted(REFERENCE["cases"]))
    def test_case_indices(self, case_id):
        recorded = REFERENCE["cases"][case_id]
        report = run_case(int(case_id), build_config(), tuple(recorded))
        for res in report.results:
            assert res.metrics.iae == pytest.approx(recorded[res.name]["iae"], rel=1e-12)
            assert res.metrics.ise == pytest.approx(recorded[res.name]["ise"], rel=1e-12)

    def test_objective_costs(self):
        rec = REFERENCE["objective"]
        costs = TuningObjective().batch(np.array(rec["candidates"]))
        assert costs.tolist() == rec["costs"]

    def test_objective_costs_equal_one_lane_runs(self):
        # independent oracle: each live cost is the IAE of a one-lane simulate
        # run of the objective's own model (drifted areas, case-1 load in both)
        rec = REFERENCE["objective"]
        objective = TuningObjective()
        plants = [derive_design_plant(area, objective.tie) for area in objective.areas]
        live = [(x, cost) for x, cost in zip(rec["candidates"], rec["costs"]) if cost < 1e6]
        assert live
        for x, cost in live:
            pair = tuple(synthesize(plant, gains) for plant, gains in zip(plants, objective.decode(x)))
            m = SystemModel(objective.eval_areas, objective.tie, objective.nonlin, pair)
            iae = one_lane_iae(m, objective.eval_loads, objective.dt, objective.horizon)
            assert cost == pytest.approx(iae, rel=1e-12)
