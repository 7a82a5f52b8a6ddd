import math

import numpy as np
import pytest

from cdmlfc import scenarios
from cdmlfc.config import build_config
from cdmlfc.errors import ConfigError, NonFiniteState, UnstableDesign
from cdmlfc.scenarios import (
    Composite,
    TuningObjective,
    Metrics,
    Sine,
    Step,
    SweepSpec,
    UniformRandom,
    case1_load,
    evaluate,
    indices,
    profile_to_json,
    realize,
    run_case,
    sensitivity_sweep,
    table6_specs,
    transient_measures,
)
from cdmlfc.sim import Trajectory


def make_traj(t, df1, df2=None, dptie=None):
    n = len(t)
    z = np.zeros(n)
    return Trajectory(
        t=np.asarray(t, dtype=float),
        df1=np.asarray(df1, dtype=float),
        df2=z if df2 is None else np.asarray(df2, dtype=float),
        dptie=z if dptie is None else np.asarray(dptie, dtype=float),
        ace1=z.copy(),
        ace2=z.copy(),
        u1=z.copy(),
        u2=z.copy(),
        dpl1=z.copy(),
        dpl2=z.copy(),
    )


class TestLoadProfiles:
    def test_step(self):
        fn = realize(Step(0.01, 1.0), 10.0)
        assert fn(0.99) == 0.0
        assert fn(1.0) == 0.01

    def test_sine(self):
        fn = realize(Sine(0.01, 0.05, 0.0), 40.0)
        assert fn(5.0) == pytest.approx(0.01)  # quarter period of 20 s
        assert fn(10.0) == pytest.approx(0.0, abs=1e-15)

    def test_uniform_random_deterministic_and_bounded(self):
        a = realize(UniformRandom(0.01, 10.0, 7), 100.0)
        b = realize(UniformRandom(0.01, 10.0, 7), 100.0)
        ts = np.linspace(0, 100, 333)
        va = [a(float(t)) for t in ts]
        assert va == [b(float(t)) for t in ts]
        assert all(abs(v) <= 0.01 for v in va)
        assert a(0.0) == a(9.99) != a(10.01)

    def test_composite_case1(self):
        fn = realize(case1_load(), 60.0)
        assert fn(0.5) == 0.0
        assert fn(1.5) == pytest.approx(0.01)
        assert fn(30.5) == pytest.approx(0.02)

    def test_json_roundtrip(self):
        for p in (Step(0.01, 1.0), Sine(0.01, 0.05, 2.0), UniformRandom(0.02, 5.0, 3), case1_load(), None):
            assert build_config({"scenario": {"loads": [None, profile_to_json(p)]}}).scenario.loads == (None, p)


class TestIndices:
    def test_constant_df1(self):
        t = np.linspace(0.0, 10.0, 1001)
        traj = make_traj(t, np.full_like(t, 0.5))
        m = indices(traj)
        assert m.iae == pytest.approx(5.0, rel=1e-12)
        assert m.itae == pytest.approx(0.5 * 100.0 / 2.0, rel=1e-6)
        assert m.ise == pytest.approx(2.5, rel=1e-12)
        assert m.itse == pytest.approx(0.25 * 50.0, rel=1e-6)

    def test_both_areas_summed(self):
        t = np.linspace(0.0, 2.0, 201)
        traj = make_traj(t, np.full_like(t, 1.0), df2=np.full_like(t, -1.0))
        m = indices(traj)
        assert m.iae == pytest.approx(4.0, rel=1e-12)
        assert m.ise == pytest.approx(4.0, rel=1e-12)

    def test_exponential_against_rectangle_oracle(self):
        # independent oracle: left-rectangle rule on |e^-t|; IAE_exact = 1 - e^-T
        dt = 0.002
        t = np.arange(0.0, 8.0 + dt / 2, dt)
        sig = np.exp(-t)
        traj = make_traj(t, sig)
        exact = 1.0 - math.exp(-8.0)
        assert abs(indices(traj).iae - exact) < 2.0 * dt

    def test_nonnegative_and_monotone_in_horizon(self):
        rng = np.random.default_rng(3)
        t = np.linspace(0.0, 20.0, 2001)
        sig = rng.normal(size=t.size)
        short = indices(make_traj(t[:1001], sig[:1001]))
        full = indices(make_traj(t, sig))
        for name in ("iae", "ise", "itse", "itae"):
            assert 0.0 <= getattr(short, name) <= getattr(full, name)


class TestTransientMeasures:
    def test_zero_signal(self):
        t = np.linspace(0.0, 5.0, 501)
        t_s, os_, us, settled = transient_measures(np.zeros_like(t), t, band=1e-4)
        assert (t_s, os_, us, settled) == (0.0, 0.0, 0.0, True)

    def test_decaying_exponential_crossing(self):
        dt = 0.001
        t = np.arange(0.0, 10.0 + dt / 2, dt)
        sig = -5e-3 * np.exp(-t)
        t_s, os_, us, settled = transient_measures(sig, t, band=1e-4)
        assert settled
        assert t_s == pytest.approx(math.log(50.0), abs=2e-3)
        assert us == pytest.approx(-5e-3)

    def test_not_settled(self):
        t = np.linspace(0.0, 30.0, 3001)
        sig = np.full_like(t, 2e-4)
        t_s, _, _, settled = transient_measures(sig, t, band=1e-4)
        assert not settled
        assert t_s is None

    def test_disturbance_offset(self):
        t = np.linspace(0.0, 10.0, 1001)
        sig = np.where((t >= 1.0) & (t <= 4.0), 1.0, 0.0)
        t_s, _, _, settled = transient_measures(sig, t, band=1e-4, t0=1.0)
        assert settled
        assert t_s == pytest.approx(3.0, abs=0.02)


class TestTuningObjective:
    def test_reference_gains_finite_and_stable(self):
        obj = TuningObjective()
        j = obj.batch(obj.reference_vector())[0]
        assert math.isfinite(j)
        assert j < 1.0

    def test_totality_at_bounds(self):
        obj = TuningObjective()
        lows = np.array([b[0] for b in obj.bounds])
        highs = np.array([b[1] for b in obj.bounds])
        for x in (lows, highs):
            j = obj.batch(x)[0]
            assert math.isfinite(j)

    def test_penalty_for_hopeless_vectors(self):
        obj = TuningObjective()
        # gamma all at the tiny lower bound: unstable target
        x = np.array([0.01, 0.01, 0.01, 0.01, 0.01, 0.1, 1.0, 1.0])
        assert obj.batch(x)[0] >= 1e6

    def test_kb0_invariance(self):
        # the closed loop is invariant to K_B0 (it only scales Ac and Bc
        # together), so J must not depend on the last two coordinates
        obj = TuningObjective()
        ref = obj.reference_vector()
        alt = ref.copy()
        alt[6] *= 3.0
        alt[7] *= 0.25
        assert obj.batch(alt)[0] == pytest.approx(obj.batch(ref)[0], rel=1e-9)

    def test_synthesis_bug_propagates(self, monkeypatch):
        # only synthesis errors (CdmlfcError, ValueError) become penalties
        def broken(plant, gains):
            raise TypeError("bug in synthesis")

        obj = TuningObjective()
        monkeypatch.setattr(scenarios, "synthesize", broken)
        with pytest.raises(TypeError):
            obj.batch(obj.reference_vector())[0]

    def test_batch_matches_pointwise(self):
        obj = TuningObjective()
        rng = np.random.default_rng(5)
        lb = np.array([b[0] for b in obj.bounds])
        ub = np.array([b[1] for b in obj.bounds])
        xs = lb + rng.random((6, 8)) * (ub - lb)
        batch = obj.batch(xs)
        for i in range(6):
            assert batch[i] == pytest.approx(obj.batch(xs[i])[0], rel=1e-12)


class TestRunCase:
    def test_case2_ranking(self):
        report = run_case(2, build_config(), ("cdm_opt", "pid", "pi"))
        assert report.ranking == ["cdm_opt", "pid", "pi"]

    def test_case2_cdm_against_benchmark_row(self):
        report = run_case(2, build_config(), ("cdm_opt",))
        s = report.results[0].metrics.signals["df1"]
        assert s.undershoot == pytest.approx(-4.508e-3, rel=0.5)
        assert s.settled and s.t_s < 10.0

    def test_case2_pi_not_settled_at_30s(self):
        report = run_case(2, build_config(overrides={"solver.horizon": 30.0}), ("pi",))
        assert not report.results[0].metrics.signals["df1"].settled

    def test_case5_overrides_snapshot(self):
        report = run_case(5, build_config(), ("cdm_opt",))
        assert report.model_snapshot["area1"]["Tt"] == pytest.approx(0.785)
        assert report.model_snapshot["area1"]["Tg"] == pytest.approx(0.105)
        assert report.model_snapshot["area2"]["Tt"] == pytest.approx(0.6)

    def test_case4_deterministic(self):
        a = run_case(4, build_config(), ("cdm_opt",))
        b = run_case(4, build_config(), ("cdm_opt",))
        assert a.to_json() == b.to_json()
        assert np.array_equal(a.results[0].trajectory.df1, b.results[0].trajectory.df1)

    def test_case3_runs_and_reports(self):
        report = run_case(3, build_config(), ("cdm_opt", "pi"))
        assert report.ranking[0] == "cdm_opt"
        for res in report.results:
            assert math.isfinite(res.metrics.iae)

    def test_case2_ranking_stable_across_dt(self):
        for dt in (0.01, 0.005):
            cfg = build_config(overrides={"solver.dt": dt, "solver.horizon": 30.0})
            report = run_case(2, cfg, ("cdm_opt", "pid", "pi"))
            assert report.ranking == ["cdm_opt", "pid", "pi"]

    def test_case4_ranking_stable_across_seeds(self):
        for seed in (1, 2, 3, 4, 5):
            report = run_case(4, build_config(overrides={"cases.seed": seed}), ("cdm_opt", "pid", "pi"))
            assert report.ranking == ["cdm_opt", "pid", "pi"]

    def test_case4_horizon_off_the_dt_grid_names_solver_dt(self):
        cfg = build_config({"solver": {"dt": 0.03, "controller_dt": 0.03}})
        with pytest.raises(ConfigError) as exc:
            run_case(4, cfg, ["pi"])
        assert exc.value.path == "solver.dt" and "case 4" in str(exc.value)

    def test_unstable_cdm_set_refused_before_anything_runs(self, monkeypatch):
        # Ac = s^2 - s leaves neither area's design loop Hurwitz
        cfg = build_config({"controllers": {"cdm_classic": {"ac": [[0, -1, 1]] * 2, "bc": [[1, 1, 1]] * 2}}})

        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before every controller set was resolved")

        monkeypatch.setattr(scenarios, "simulate", no_simulation)
        with pytest.raises(UnstableDesign, match=r"'cdm' has an unstable design for area\(s\) \[1, 2\]"):
            run_case(2, cfg, ["pi", "cdm"])


class TestSensitivitySweep:
    def test_nominal_row_matches_case2(self):
        cfg = build_config(overrides={"solver.horizon": 30.0})
        sweep = sensitivity_sweep([SweepSpec("area1.Tt", (0.25,))], cfg, ("cdm_opt",))
        nominal = sweep.rows[0].metrics["cdm_opt"]
        case = run_case(2, cfg, ("cdm_opt",))
        assert nominal.iae == pytest.approx(case.results[0].metrics.iae, rel=1e-12)

    def test_table6_cardinality(self):
        sweep = sensitivity_sweep(table6_specs(), build_config(), ("cdm_opt",))
        assert len(sweep.rows) == 17
        assert sum(1 for r in sweep.rows if r.parameter == "nominal") == 1

    def test_tt1_monotone_ise(self):
        sweep = sensitivity_sweep([SweepSpec("area1.Tt")], build_config(), ("cdm_opt",))
        rows = sorted(sweep.rows, key=lambda r: r.delta)
        ises = [r.metrics["cdm_opt"].ise for r in rows]
        assert all(b > a for a, b in zip(ises, ises[1:]))

    def test_all_cells_stable_and_settled(self):
        sweep = sensitivity_sweep(table6_specs(), build_config(), ("cdm_opt",))
        for row in sweep.rows:
            m = row.metrics["cdm_opt"]
            assert m is not None
            assert m.signals["df1"].settled and m.signals["df2"].settled

    def test_unstable_set_refused_before_any_cell_runs(self, monkeypatch):
        unstable = {"gamma": [2.5, 2, 2, 2, 2], "tau": 0.9, "k_b0": [15, 30]}
        cfg = build_config({"controllers": {"cdm_opt": unstable}, "solver": {"horizon": 5.0}})
        calls = []
        simulate = scenarios.simulate

        def counted(*args, **kwargs):
            calls.append(args)
            return simulate(*args, **kwargs)

        monkeypatch.setattr(scenarios, "simulate", counted)
        with pytest.raises(UnstableDesign, match="'cdm_opt'"):
            sensitivity_sweep(table6_specs(), cfg, ["pi", "pid", "cdm_opt"])
        assert calls == []

    def test_divergent_pair_scores_none_alone(self, monkeypatch):
        cfg = build_config(overrides={"solver.horizon": 5.0})
        simulate = scenarios.simulate

        def diverge_pi_in_slow_cells(model, *args, **kwargs):
            if model.controllers == cfg.integral and model.areas[0].Tt > cfg.areas[0].Tt:
                raise NonFiniteState(1.0)
            return simulate(model, *args, **kwargs)

        monkeypatch.setattr(scenarios, "simulate", diverge_pi_in_slow_cells)
        sweep = sensitivity_sweep([SweepSpec("area1.Tt", (-0.25, 0.25))], cfg, ["pi", "pid"])
        assert [r.metrics["pi"] is None for r in sweep.rows] == [False, False, True]
        assert all(r.metrics["pid"] is not None for r in sweep.rows)

    def test_invalid_parameter_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec("area3.Tg")
        with pytest.raises(ValueError):
            SweepSpec("area1.Tg", (-1.0,))
