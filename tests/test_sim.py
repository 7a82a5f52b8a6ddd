import math

import numpy as np
import pytest

from cdmlfc import defaults
from cdmlfc.cdm import CdmController, synthesize
from cdmlfc.errors import ImproperController, NonFiniteState
from cdmlfc.plant import NonlinearityConfig, derive_design_plant
from cdmlfc.poly import Polynomial
from cdmlfc.sim import (
    BatchCdmSimulator,
    CdmSpec,
    DiscreteController,
    IntegralSpec,
    PidSpec,
    SystemModel,
    Trajectory,
    derivatives,
    simulate,
)

ZERO = lambda t: 0.0
STEP1 = lambda t: 0.01 if t >= 1.0 else 0.0
LINEAR = NonlinearityConfig(grc_rate=math.inf, gdb_width=0.0)


def cdm_pair():
    return tuple(
        CdmSpec(synthesize(derive_design_plant(area, defaults.TIE), defaults.opt_gains(i)))
        for i, area in enumerate((defaults.AREA1, defaults.AREA2))
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
        d = derivatives((0.0,) * 7, m, (0.0, 0.0), (0.0, 0.0))
        assert d == (0.0,) * 7

    def test_grc_clamp_value(self):
        # dPg - dPm = 1 pu with Tt = 0.4 would slew at 2.5 pu/s unclamped
        m = model(nonlin=NonlinearityConfig(grc_rate=0.1 / 60.0, gdb_width=0.0))
        d = derivatives((0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0), m, (0.0, 0.0), (0.0, 0.0))
        assert d[1] == pytest.approx(0.1 / 60.0)
        assert d[1] == pytest.approx(0.0016667, rel=1e-4)

    def test_dead_band_swallows_droop(self):
        m = model()  # gdb width 0.05, half width 0.025
        df1 = 0.06  # df/R = 0.02 < 0.025
        d = derivatives((df1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0), m, (0.0, 0.0), (0.0, 0.0))
        assert d[2] == 0.0

    def test_droop_outside_dead_band(self):
        m = model()
        df1 = 0.09  # df/R = 0.03 > 0.025
        d = derivatives((df1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0), m, (0.0, 0.0), (0.0, 0.0))
        assert d[2] == pytest.approx(-(0.03 - 0.025) / defaults.AREA1.Tg)

    def test_tie_line_antisymmetry_inputs(self):
        m = model()
        d = derivatives((0.001, 0.0, 0.0, -0.002, 0.0, 0.0, 0.0), m, (0.0, 0.0), (0.0, 0.0))
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
        a = DiscreteController(CdmSpec(ctrl), dt=0.01)
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
            DiscreteController(CdmSpec(bad), dt=0.01)


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
        grc = 0.1 / 60.0
        m = model(nonlin=NonlinearityConfig(grc_rate=grc, gdb_width=0.05))
        traj = simulate(m, (STEP1, ZERO), dt=0.01, horizon=30.0)
        # reconstruct dPm rate from the recorded u? dPm is internal; re-run and track
        # via the trajectory's effect: integrate the model manually instead
        # simpler: simulate and inspect using a probe on successive mech power
        # values via a custom channel is unavailable; use df-based bound instead:
        # the mechanical power is not exported, so check the clamp directly.
        d = derivatives((0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0), m, (0.0, 0.0), (0.0, 0.0))
        assert abs(d[1]) <= grc * (1 + 1e-9)

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
        with pytest.raises(ValueError):
            simulate(model(), (ZERO, ZERO), dt=0.06, horizon=1.0)
        with pytest.raises(ValueError):
            simulate(model(), (ZERO, ZERO), dt=0.01, horizon=0.015)

    def test_controller_dt_must_be_multiple(self):
        with pytest.raises(ValueError):
            simulate(model(), (ZERO, ZERO), dt=0.01, horizon=1.0, controller_dt=0.015)

    def test_grid_refinement_state_channels(self):
        m = model()
        a = simulate(m, (STEP1, ZERO), dt=0.01, horizon=30.0, controller_dt=0.01)
        b = simulate(m, (STEP1, ZERO), dt=0.005, horizon=30.0, controller_dt=0.01)
        for ch in ("df1", "df2", "dptie", "ace1", "ace2"):
            assert np.max(np.abs(getattr(a, ch) - getattr(b, ch)[::2])) < 1e-4


class TestGrcRate:
    def test_mechanical_power_rate_bounded(self):
        # drive the full nonlinear model hard and track dPm sample to sample
        grc = 0.1 / 60.0
        m = model(nonlin=NonlinearityConfig(grc_rate=grc, gdb_width=0.05))
        # reimplement the recurrence with the public pieces to expose dPm
        from cdmlfc.sim import DiscreteController as dc
        from cdmlfc.plant import frequency_bias

        dt, horizon = 0.01, 20.0
        c1 = dc(m.controllers[0], dt)
        c2 = dc(m.controllers[1], dt)
        b1, b2 = frequency_bias(m.areas[0]), frequency_bias(m.areas[1])
        state = (0.0,) * 7
        max_rate = 0.0
        for k in range(round(horizon / dt)):
            t = k * dt
            ace1 = b1 * state[0] + state[6]
            ace2 = b2 * state[3] - state[6]
            u = (c1.step(ace1), c2.step(ace2))
            loads = lambda tt: (STEP1(tt), 0.0)
            k1 = derivatives(state, m, loads(t), u)
            s2 = tuple(x + 0.5 * dt * d for x, d in zip(state, k1))
            k2 = derivatives(s2, m, loads(t + 0.5 * dt), u)
            s3 = tuple(x + 0.5 * dt * d for x, d in zip(state, k2))
            k3 = derivatives(s3, m, loads(t + 0.5 * dt), u)
            s4 = tuple(x + dt * d for x, d in zip(state, k3))
            k4 = derivatives(s4, m, loads(t + dt), u)
            nxt = tuple(
                x + dt / 6.0 * (a + 2 * b + 2 * c + d)
                for x, a, b, c, d in zip(state, k1, k2, k3, k4)
            )
            max_rate = max(max_rate, abs(nxt[1] - state[1]) / dt, abs(nxt[4] - state[4]) / dt)
            state = nxt
        assert max_rate <= grc * (1.0 + 1e-9)


class TestBatchSimulator:
    def test_matches_scalar_simulation(self):
        pair = cdm_pair()
        ctrls = (pair[0].controller, pair[1].controller)
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
        m = model()
        traj = simulate(m, loads, dt=0.02, horizon=30.0)
        iae_s = float(np.trapezoid(np.abs(traj.df1), traj.t) + np.trapezoid(np.abs(traj.df2), traj.t))
        assert iae_b == pytest.approx(iae_s, rel=1e-12)

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
        out = batch.run_iae([(bad1, bad2), (good[0].controller, good[1].controller)])
        assert not math.isfinite(out[0])
        assert math.isfinite(out[1])
