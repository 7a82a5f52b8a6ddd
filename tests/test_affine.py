"""The closed loop's affine step maps and simulate's closed-form path
(simulate(..., closed_form=True)) against the exact scalar engine."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cdmlfc import affine, defaults, sim
from cdmlfc.affine import block_table, sine_maps, step_maps
from cdmlfc.cdm import CdmController
from cdmlfc.config import build_config
from cdmlfc.errors import NonFiniteState
from cdmlfc.plant import AreaParams, NonlinearityConfig, derive_design_plant, frequency_bias
from cdmlfc.poly import Polynomial, poly_mul
from cdmlfc.scenarios import Composite, Sine, Step, case_definition, scenario_loads
from cdmlfc.sim import (
    DiscreteController,
    IntegralSpec,
    LoadTable,
    PidSpec,
    SystemModel,
    Trajectory,
    controller_step,
    plant_rhs,
    rk4_step,
    simulate,
)

CFG = build_config()
SETS = defaults.CONTROLLER_SET_NAMES
CHANNELS = Trajectory.CHANNELS + ("dpm1", "dpm2")
# a closed-form channel against simulate's: within TOLERANCE of the channel's peak magnitude
TOLERANCE = 1e-10
NONLINEARITIES = {
    "cases": defaults.NONLIN_CASES,  # dead zone, clamp idle in most runs
    "stated_grc": defaults.NONLIN_DEFAULT,  # dead zone, clamp binding for seconds after a step
    "backlash": replace(defaults.NONLIN_CASES, gdb_mode="backlash"),
    "linear": NonlinearityConfig(grc_rate=math.inf, gdb_width=0.0),
}
# the default areas, case 5's drifted Tg and Tt, and a slower area 1 (scripts/output_trees.py's custom_model)
AREAS = {
    "default": CFG.areas,
    "case5": tuple(replace(area, **o) for area, o in zip(CFG.areas, case_definition(5).area_overrides)),
    "custom_model": (AreaParams(D=0.015, M=0.1667, R=3.0, Tg=0.16, Tt=0.8), CFG.areas[1]),
}
ZERO = lambda t: 0.0


def case_run(case_id, name, nonlin=None):
    """(model, load table, horizon) of one bundled case and controller set, as run_case runs it."""
    definition = case_definition(case_id, seed=CFG.cases_seed)
    horizon = definition.horizon
    areas = tuple(replace(area, **o) for area, o in zip(CFG.areas, definition.area_overrides))
    nonlin = CFG.cases_nonlin if nonlin is None else nonlin
    model = SystemModel(areas, CFG.tie, nonlin, CFG.controller_pair(name))
    return model, scenario_loads(definition, CFG, horizon), horizon


def worst_error(got, want):
    """The largest |got - want| of any channel over that channel's peak |want|."""
    return max(
        float(np.max(np.abs(getattr(got, c) - getattr(want, c))) / max(np.max(np.abs(getattr(want, c))), 1e-300))
        for c in CHANNELS
    )


def identical(a, b, upto=None):
    return all(np.array_equal(getattr(a, c)[:upto], getattr(b, c)[:upto]) for c in CHANNELS)


def stacked_rows(pair, dt):
    return [np.array([DiscreteController(spec, dt).rows]) for spec in pair]


def lifted_cdm_pair():
    """The cdm_opt pair at order 3: Ac and Bc times (1 + 0.01 s), the same transfer functions."""
    lift = Polynomial([1.0, 0.01])
    return tuple(
        CdmController.from_polynomials(poly_mul(c.Ac, lift), poly_mul(c.Bc, lift), derive_design_plant(area, CFG.tie))
        for c, area in zip(CFG.controller_pair("cdm_opt"), CFG.areas)
    )


class TestStepMaps:
    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        nonlin=st.sampled_from(list(NONLINEARITIES.values())),
        name=st.sampled_from(SETS),
        dt=st.sampled_from((0.005, 0.01, 0.02)),
        areas=st.sampled_from(list(AREAS.values())),
    )
    def test_one_step_and_mode_arguments_equal_the_scalar_step(self, data, nonlin, name, dt, areas):
        # F z + G w is one step of rk4_step and the controllers' rows wherever
        # the mode arguments, read off the stage states rk4_step passes to
        # plant_rhs, stay within their limits
        pair = CFG.controller_pair(name)
        rows = [DiscreteController(spec, dt).rows for spec in pair]
        maps = step_maps(areas, CFG.tie, nonlin, *(np.array([r]) for r in rows), dt)
        small = st.floats(-0.02, 0.02)
        plant = data.draw(st.lists(small, min_size=7, max_size=7))
        # controller states a thousandth of that: the CDM sets' output rows weigh them by up to about 1e5
        xs = [[1e-3 * x for x in data.draw(st.lists(small, min_size=len(r) - 1, max_size=len(r) - 1))] for r in rows]
        loads = np.array(data.draw(st.lists(small, min_size=6, max_size=6))).reshape(3, 2)

        stages = []
        scalar_rhs = plant_rhs(areas, CFG.tie, nonlin)

        def recording_rhs(state, stage_loads, u):
            stages.append(state)
            return scalar_rhs(state, stage_loads, u)

        b1, b2 = (frequency_bias(area) for area in areas)
        df1, df2, dptie = plant[0], plant[1], plant[6]
        steps = [controller_step(r, x=x) for r, x in zip(rows, xs)]
        u = (steps[0](b1 * df1 + dptie), steps[1](b2 * df2 - dptie))
        want = list(rk4_step(recording_rhs, tuple(plant), loads.tolist(), u, dt)) + steps[0].state() + steps[1].state()

        z = np.array(plant + xs[0] + xs[1])
        zw = np.concatenate([z, loads.ravel()])
        args = []
        if math.isfinite(nonlin.grc_rate):
            args += [(s[4 + i] - s[2 + i]) / area.Tt for i, area in enumerate(areas) for s in stages]
        if nonlin.gdb_width and nonlin.gdb_mode == "deadzone":
            args += [s[i] / area.R for i, area in enumerate(areas) for s in stages]
        modes = maps.modes[0] @ zw
        assert maps.u[0] @ z == pytest.approx(u, rel=1e-11, abs=1e-15)
        # a stage's arguments are affine while the stages before it were linear: the first stage's always
        assert modes[::4] == pytest.approx(args[::4], rel=1e-11, abs=1e-14)
        if np.all(np.abs(modes) <= maps.limits):
            assert modes == pytest.approx(args, rel=1e-11, abs=1e-14)
            got = maps.f[0] @ z + maps.g[0] @ loads.ravel()
            assert got == pytest.approx(want, rel=1e-11, abs=1e-15)

    @pytest.mark.parametrize("areas", list(AREAS.values()), ids=list(AREAS))
    @pytest.mark.parametrize("dt", [0.005, 0.01, 0.02])
    @pytest.mark.parametrize("nonlin", list(NONLINEARITIES.values()), ids=list(NONLINEARITIES))
    def test_rk4_maps_are_the_scalar_step_at_unit_vectors(self, nonlin, dt, areas):
        # column j of the step map is rk4_step of plant_rhs in its linear mode
        # (no clamp; a dead zone wide enough to stay closed) at v's unit
        # vector j, and of each mode row the clamp argument (dpg - dpm) / Tt
        # or the droop input df / R of the stage states it passes, bit for bit
        phi, modes, limits = affine._rk4_maps(areas, CFG.tie, nonlin, dt)
        zone = nonlin.gdb_width != 0.0 and nonlin.gdb_mode == "deadzone"
        linear = replace(nonlin, grc_rate=math.inf, gdb_width=math.inf if zone else nonlin.gdb_width)
        scalar_rhs = plant_rhs(areas, CFG.tie, linear)
        for j, v in enumerate(np.eye(15).tolist()):
            stages = []

            def recording_rhs(state, stage_loads, u):
                stages.append(state)
                return scalar_rhs(state, stage_loads, u)

            step = rk4_step(recording_rhs, tuple(v[:7]), (v[9:11], v[11:13], v[13:]), tuple(v[7:9]), dt)
            assert phi[:, j].tolist() == list(step)
            args, want_limits = [], []
            if math.isfinite(nonlin.grc_rate):
                args += [(s[4 + i] - s[2 + i]) / area.Tt for i, area in enumerate(areas) for s in stages]
                want_limits += [nonlin.grc_rate] * 8
            if zone:
                args += [s[i] / area.R for i, area in enumerate(areas) for s in stages]
                want_limits += [0.5 * nonlin.gdb_width] * 8
            assert modes[:, j].tolist() == args
            assert limits.tolist() == want_limits

    @pytest.mark.parametrize("nonlin", list(NONLINEARITIES.values()), ids=list(NONLINEARITIES))
    def test_lanes_equal_one_lane_maps(self, nonlin):
        pairs = [CFG.controller_pair(name) for name in ("cdm_opt", "cdm", "pid")]
        rows = [np.concatenate(side) for side in zip(*(stacked_rows(pair, 0.02) for pair in pairs))]
        lanes = step_maps(CFG.areas, CFG.tie, nonlin, *rows, 0.02)
        for i, pair in enumerate(pairs):
            one = step_maps(CFG.areas, CFG.tie, nonlin, *stacked_rows(pair, 0.02), 0.02)
            for field in ("f", "g", "u", "modes"):
                assert np.array_equal(getattr(lanes, field)[i], getattr(one, field)[0]), field
            assert np.array_equal(lanes.ace, one.ace) and np.array_equal(lanes.limits, one.limits)

    @pytest.mark.parametrize("dt", [0.005, 0.01, 0.02])
    def test_sine_maps_carry_each_sine(self, dt):
        # one step of sine_maps' map from q = A (sin th, cos th) is step_maps'
        # step under the load row with each sine's samples added, the modes
        # likewise, and it leaves q at the next step's phase
        maps = step_maps(CFG.areas, CFG.tie, CFG.cases_nonlin, *stacked_rows(CFG.controller_pair("pid"), dt), dt)
        sines = [(0, 0.01, 0.3, 1.0), (1, -0.004, 2.0, 0.0), (0, 0.002, 5.0, 0.5)]
        carried = sine_maps(maps, sines, dt)
        n = maps.f.shape[1]
        rng = np.random.default_rng(1)
        z, w = rng.uniform(-0.01, 0.01, n), rng.uniform(-0.01, 0.01, 6)

        def q_at(t):
            return [a * f(omega * (t - start)) for _, a, omega, start in sines for f in (math.sin, math.cos)]

        t = 3.7
        loads = w.reshape(3, 2).copy()
        for area, a, omega, start in sines:
            for stage, at in enumerate((t, t + 0.5 * dt, t + dt)):
                loads[stage, area] += a * math.sin(omega * (at - start))
        x = np.concatenate([z, q_at(t)])
        got = carried.f[0] @ x + carried.g[0] @ w
        assert got[:n] == pytest.approx(maps.f[0] @ z + maps.g[0] @ loads.ravel(), rel=1e-11, abs=1e-15)
        assert got[n:] == pytest.approx(q_at(t + dt), rel=1e-12, abs=1e-16)
        want_modes = maps.modes[0] @ np.concatenate([z, loads.ravel()])
        assert carried.modes[0] @ np.concatenate([x, w]) == pytest.approx(want_modes, rel=1e-11, abs=1e-14)
        for field in ("ace", "u"):  # no part of q
            padded = getattr(carried, field)
            assert np.array_equal(padded[..., :n], getattr(maps, field)) and not padded[..., n:].any()

    @pytest.mark.parametrize("length", [1, 2, 7, 50])
    def test_block_table_rows_follow_the_step_map(self, length):
        maps = step_maps(CFG.areas, CFG.tie, CFG.cases_nonlin, *stacked_rows(CFG.controller_pair("pid"), 0.01), 0.01)
        f, g = maps.f[0], maps.g[0]
        n = len(f)
        observe = np.vstack([np.eye(n, n + 6), maps.modes[0]])
        table = block_table(maps, observe[None], length + 1)[:, 0]  # rows after 0..length steps
        assert table.shape == (n + 6, length + 1, len(observe))
        rng = np.random.default_rng(length)
        z, w = rng.uniform(-0.01, 0.01, n), rng.uniform(-0.01, 0.01, 6)
        zw = np.concatenate([z, w])
        for j in range(length + 1):
            want = observe @ np.concatenate([z, w])
            got = np.einsum("cr,c->r", table[:, j], zw)
            assert got == pytest.approx(want, rel=1e-11, abs=1e-14)
            z = f @ z + g @ w

    @pytest.mark.parametrize("rows", [1, 2, 3, 17, 33, 50])
    def test_a_short_table_is_a_long_tables_first_rows(self, rows):
        # doubling builds row r from the same products whatever the table's
        # length, so a table of k rows is the first k rows of a longer one bit
        # for bit, and squares passed in give the bits of squares built inside
        maps = step_maps(CFG.areas, CFG.tie, CFG.cases_nonlin, *stacked_rows(CFG.controller_pair("cdm_opt"), 0.01), 0.01)
        n = maps.f.shape[1]
        observe = np.vstack([np.eye(2, n + 6), maps.modes[0]])[None]
        longer = block_table(maps, observe, affine._BLOCK + 1)
        short = block_table(maps, observe, rows)
        assert short.shape[2] == rows
        assert short.tobytes() == np.ascontiguousarray(longer[:, :, :rows]).tobytes()
        squares = affine.step_squares(maps, rows.bit_length())
        assert block_table(maps, observe, rows, squares).tobytes() == short.tobytes()


class TestClosedForm:
    @pytest.mark.parametrize("name", SETS)
    @pytest.mark.parametrize("case_id", [2, 3, 4, 5])
    def test_case_channels_match_simulate(self, case_id, name):
        # every bundled case and set: the clamp binds for cdm_opt in cases 2
        # and 4 and for pid in case 4, the dead band opens for pi; case 3's
        # sine rides along as two exosystem states; worst case over the 16
        # runs 8.2e-13 (case 3, cdm_opt)
        m, loads, horizon = case_run(case_id, name)
        want = simulate(m, loads, dt=0.01, horizon=horizon)
        got = simulate(m, loads, dt=0.01, horizon=horizon, closed_form=True)
        assert worst_error(got, want) <= TOLERANCE
        assert np.array_equal(got.t, want.t)
        assert np.array_equal(got.dpl1, want.dpl1) and np.array_equal(got.dpl2, want.dpl2)

    @pytest.mark.parametrize("name", SETS)
    @pytest.mark.parametrize("nonlin", list(NONLINEARITIES.values()), ids=list(NONLINEARITIES))
    def test_nonlinearity_settings_match_simulate(self, nonlin, name):
        m, loads, horizon = case_run(4, name, nonlin)
        want = simulate(m, loads, dt=0.01, horizon=horizon)
        assert worst_error(simulate(m, loads, dt=0.01, horizon=horizon, closed_form=True), want) <= TOLERANCE

    def test_order_three_controllers_match_simulate(self):
        m = SystemModel(CFG.areas, CFG.tie, CFG.cases_nonlin, lifted_cdm_pair())
        loads = (case_definition(2).loads[0], ZERO)
        want = simulate(m, loads, dt=0.01, horizon=30.0)
        assert worst_error(simulate(m, loads, dt=0.01, horizon=30.0, closed_form=True), want) <= TOLERANCE

    def test_linear_stretches_skip_the_scalar_step(self, monkeypatch):
        # case 2's cdm run takes all but its one-step stretch (the row whose
        # end sample sees the load step) in closed form
        steps = []
        monkeypatch.setattr(sim, "rk4_step", lambda *args: steps.append(1) or rk4_step(*args))
        m, loads, horizon = case_run(2, "cdm")
        simulate(m, loads, dt=0.01, horizon=horizon, closed_form=True)
        assert len(steps) == 1

    @pytest.mark.parametrize("name", ["cdm_opt", "cdm", "pid"])
    def test_case3_sine_skips_the_scalar_step(self, monkeypatch, name):
        # case 3's sine from t = 0 leaves one stretch, whose blocks all stand
        # for these sets (pi's dead band opens, so some of its blocks fall back)
        m, loads, horizon = case_run(3, name)
        simulate(m, loads, dt=0.01, horizon=horizon, closed_form=True)  # affine imported before counting
        steps = []
        monkeypatch.setattr(sim, "rk4_step", lambda *args: steps.append(1) or rk4_step(*args))
        simulate(m, loads, dt=0.01, horizon=horizon, closed_form=True)
        assert steps == []

    @pytest.mark.parametrize(
        "area1",
        [Sine(0.01, 0.1, 2.5), Composite((Sine(0.008, 0.2, 1.0), Step(0.005, 4.0)))],
        ids=["sine_from_2.5s", "sine_and_step"],
    )
    @pytest.mark.parametrize("name", SETS)
    def test_shaped_sines_match_simulate(self, monkeypatch, area1, name):
        # the stretches split at the sine's start and at the step: only the
        # rows that see either change step exactly (one for the sine from
        # 2.5 s, two for the sine from 1 s and the step), and pi's blocks
        # where its dead band opens (800 steps under the sine from 2.5 s)
        m = SystemModel(CFG.areas, CFG.tie, CFG.cases_nonlin, CFG.controller_pair(name))
        loads = LoadTable.sample((area1, Sine(0.004, 0.3)), 0.01, 20.0)
        want = simulate(m, loads, dt=0.01, horizon=20.0)
        got = simulate(m, loads, dt=0.01, horizon=20.0, closed_form=True)
        assert worst_error(got, want) <= TOLERANCE
        steps = []
        monkeypatch.setattr(sim, "rk4_step", lambda *args: steps.append(1) or rk4_step(*args))
        simulate(m, loads, dt=0.01, horizon=20.0, closed_form=True)
        assert len(steps) <= (1000 if name == "pi" else 2)

    def test_unshaped_sine_runs_exactly(self):
        # a sine as a bare function lists no sine term: its load row changes
        # every step, so every step runs exactly, bit for bit
        m = SystemModel(CFG.areas, CFG.tie, CFG.cases_nonlin, CFG.controller_pair("cdm"))
        loads = (lambda t: 0.01 * math.sin(0.1 * math.pi * t), ZERO)
        want = simulate(m, loads, dt=0.01, horizon=20.0)
        assert identical(simulate(m, loads, dt=0.01, horizon=20.0, closed_form=True), want)

    def test_fallback_blocks_equal_simulates_steps(self):
        # a sine until 2 s runs exactly; the step load after it binds
        # cdm_opt's rate clamp, so the first block after 2 s falls back to the
        # exact steps from the state simulate reaches at 2 s and equals
        # simulate's block bit for bit; the closed form takes the next one
        m = SystemModel(CFG.areas, CFG.tie, CFG.cases_nonlin, CFG.controller_pair("cdm_opt"))
        loads = (lambda t: 0.005 * math.sin(6.0 * t) if t < 2.0 else 0.01, ZERO)
        want = simulate(m, loads, dt=0.01, horizon=30.0)
        got = simulate(m, loads, dt=0.01, horizon=30.0, closed_form=True)
        assert identical(got, want, upto=200 + affine._BLOCK)
        assert not identical(got, want)
        assert worst_error(got, want) <= TOLERANCE

    def test_divergent_run_raises_simulates_error(self):
        m = SystemModel(CFG.areas, CFG.tie, NONLINEARITIES["linear"], (IntegralSpec(-80.0), IntegralSpec(-80.0)))
        loads = LoadTable.sample((lambda t: 0.01 if t >= 1.0 else 0.0, ZERO), 0.01, 60.0)
        with pytest.raises(NonFiniteState) as want:
            simulate(m, loads, dt=0.01, horizon=60.0)
        with pytest.raises(NonFiniteState) as got:
            simulate(m, loads, dt=0.01, horizon=60.0, closed_form=True)
        assert (got.value.time, str(got.value)) == (want.value.time, str(want.value))

    def test_controllers_sampled_every_other_step_run_exactly(self):
        # the closed form needs controller_dt = dt; at 0.02 every step runs exactly
        m, loads, horizon = case_run(2, "pi")
        want = simulate(m, loads, dt=0.01, horizon=horizon, controller_dt=0.02)
        assert identical(simulate(m, loads, dt=0.01, horizon=horizon, controller_dt=0.02, closed_form=True), want)

    @settings(max_examples=25, deadline=None)
    @given(
        data=st.data(),
        nonlin=st.sampled_from(list(NONLINEARITIES.values())),
        gains=st.tuples(*[st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0), st.floats(0.0, 5.0))] * 2),
    )
    def test_stable_pid_loops_under_piecewise_constant_loads(self, data, nonlin, gains):
        # random PID gains whose closed loop is stable with the droop on and
        # off (rho < 1 of both linear maps), loads that hold 0-3 random levels
        # from random grid times in each area
        pair = tuple(PidSpec(kp, ki, kd) for kp, ki, kd in gains)
        rows = stacked_rows(pair, 0.01)
        for mode in (nonlin, NONLINEARITIES["linear"]):
            rho = np.max(np.abs(np.linalg.eigvals(step_maps(CFG.areas, CFG.tie, mode, *rows, 0.01).f[0])))
            assume(rho < 1.0)

        def piecewise():
            switches = data.draw(st.lists(st.tuples(st.integers(0, 999), st.floats(-0.02, 0.02)), max_size=3))
            levels = sorted((k * 0.01, level) for k, level in switches)
            return lambda t: ([0.0] + [level for at, level in levels if t >= at])[-1]

        m = SystemModel(CFG.areas, CFG.tie, nonlin, pair)
        loads = LoadTable.sample((piecewise(), piecewise()), 0.01, 10.0)
        try:
            want = simulate(m, loads, dt=0.01, horizon=10.0)
        except NonFiniteState as exc:
            with pytest.raises(NonFiniteState) as got:
                simulate(m, loads, dt=0.01, horizon=10.0, closed_form=True)
            assert (got.value.time, str(got.value)) == (exc.time, str(exc))
            return
        assert worst_error(simulate(m, loads, dt=0.01, horizon=10.0, closed_form=True), want) <= TOLERANCE
