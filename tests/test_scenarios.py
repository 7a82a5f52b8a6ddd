import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdmlfc import scenarios
from cdmlfc.config import RunConfig, build_config
from cdmlfc.errors import ConfigError, NonFiniteState, SingularSystem, UnstableDesign
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
    run_case,
    sensitivity_sweep,
    table6_specs,
    transient_measures,
)
from cdmlfc.sim import LoadTable, SystemModel, Trajectory, horizon_steps, load_samples, simulate


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
        fn = Step(0.01, 1.0)
        assert fn(0.99) == 0.0
        assert fn(1.0) == 0.01

    def test_sine(self):
        fn = Sine(0.01, 0.05, 0.0)
        assert fn(5.0) == pytest.approx(0.01)  # quarter period of 20 s
        assert fn(10.0) == pytest.approx(0.0, abs=1e-15)

    def test_uniform_random_deterministic_and_bounded(self):
        a = UniformRandom(0.01, 10.0, 7)
        b = UniformRandom(0.01, 10.0, 7)
        ts = np.linspace(0, 100, 333)
        va = [a(float(t)) for t in ts]
        assert va == [b(float(t)) for t in ts]
        assert all(abs(v) <= 0.01 for v in va)
        assert a(0.0) == a(9.99) != a(10.01)

    def test_composite_case1(self):
        fn = case1_load()
        assert fn(0.5) == 0.0
        assert fn(1.5) == pytest.approx(0.01)
        assert fn(30.5) == pytest.approx(0.02)

    def test_uniform_random_hold_must_be_positive(self):
        for hold in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match=r"^hold must be > 0$"):
                UniformRandom(0.01, hold, 1)

    def test_json_roundtrip(self):
        for p in (Step(0.01, 1.0), Sine(0.01, 0.05, 2.0), UniformRandom(0.02, 5.0, 3), case1_load(), None):
            assert build_config({"scenario": {"loads": [None, profile_to_json(p)]}}).scenario.loads == (None, p)


def reference_load(profile, span):
    """A load profile as first written: one closure per profile, called per
    sample; a random load draws enough values for times up to span."""
    if profile is None:
        return lambda t: 0.0
    if isinstance(profile, Step):
        mag, t0 = profile.magnitude, profile.time
        return lambda t: mag if t >= t0 else 0.0
    if isinstance(profile, Sine):
        amp, w, t0 = profile.amplitude, 2.0 * math.pi * profile.frequency, profile.start
        return lambda t: amp * math.sin(w * (t - t0)) if t >= t0 else 0.0
    if isinstance(profile, UniformRandom):
        n_seg = int(span / profile.hold) + 2
        values = np.random.default_rng(profile.seed).uniform(-profile.amplitude, profile.amplitude, size=n_seg).tolist()
        return lambda t: values[int(t / profile.hold)]
    fns = [reference_load(p, span) for p in profile.parts]

    def total(t):
        acc = 0.0
        for fn in fns:
            acc += fn(t)
        return acc

    return total


def without_sines(profile):
    """profile with each sine replaced by no load."""
    if isinstance(profile, Sine):
        return None
    if isinstance(profile, Composite):
        return Composite(tuple(without_sines(p) for p in profile.parts))
    return profile


def sine_terms(profile):
    if isinstance(profile, Sine):
        return [(profile.amplitude, 2.0 * math.pi * profile.frequency, profile.start)]
    if isinstance(profile, Composite):
        return [term for p in profile.parts for term in sine_terms(p)]
    return []


def per_call_table(fns, dt, n_steps):
    """load_samples as first written: Python's own sample times, one call per sample."""
    times = ((t, t + 0.5 * dt, t + dt) for t in (k * dt for k in range(n_steps)))
    return np.fromiter((fn(s) for step in times for s in step for fn in fns), float, count=6 * n_steps).reshape(
        n_steps, 3, 2
    )


AT = st.floats(-1.0, 40.0)
LEAVES = st.one_of(
    st.none(),
    st.builds(Step, st.floats(-0.05, 0.05), AT),
    st.builds(Sine, st.floats(-0.05, 0.05), st.floats(0.0, 3.0), AT),
    st.builds(UniformRandom, st.floats(0.0, 0.05), st.floats(0.01, 20.0), st.integers(0, 2**32 - 1)),
)
PROFILES = st.recursive(LEAVES, lambda parts: st.builds(Composite, st.lists(parts, max_size=4).map(tuple)), max_leaves=6)


class TestLoadShapes:
    @settings(max_examples=150, deadline=None)
    @given(
        profiles=st.tuples(PROFILES, PROFILES),
        dt=st.floats(0.001, 0.05),
        n_steps=st.integers(1, 1500),
    )
    def test_bulk_samples_equal_per_call_samples(self, profiles, dt, n_steps):
        # composites add left to right from 0.0; a None load is the empty composite, as scenario_loads passes it
        span = n_steps * dt
        shapes = tuple(Composite(()) if p is None else p for p in profiles)
        want = per_call_table(tuple(reference_load(p, span) for p in profiles), dt, n_steps)
        assert load_samples(shapes, dt, n_steps).tobytes() == want.tobytes()
        assert per_call_table(shapes, dt, n_steps).tobytes() == want.tobytes()
        wrapped = tuple(lambda t, shape=shape: shape(t) for shape in shapes)  # plain functions: one call per sample
        assert load_samples(wrapped, dt, n_steps).tobytes() == want.tobytes()
        if horizon_steps(span, dt) == n_steps:
            table = LoadTable.sample(shapes, dt, span)
            assert table.samples.tobytes() == want.tobytes()
            base = per_call_table(tuple(reference_load(without_sines(p), span) for p in profiles), dt, n_steps)
            assert table.base.tobytes() == base.tobytes()
            assert [list(terms) for terms in table.sines] == [sine_terms(p) for p in profiles]

    @pytest.mark.parametrize(
        "profiles",
        [
            (Composite((Step(0.01, 1.0), UniformRandom(0.01, 2.0, 7))), Composite(())),
            (Composite((None, Step(0.01, 1.0))), Composite((None,))),
        ],
        ids=["random_part", "none_part"],
    )
    def test_composites_sample_their_parts(self, profiles):
        # a composite with a random part samples in bulk and per call, and a None part is no load
        want = per_call_table(tuple(reference_load(p, 1.0) for p in profiles), 0.01, 100)
        assert LoadTable.sample(profiles, 0.01, 1.0).samples.tobytes() == want.tobytes()
        assert per_call_table(profiles, 0.01, 100).tobytes() == want.tobytes()


class TestProfilesAreShapes:
    @pytest.mark.parametrize("closed_form", [True, False])
    def test_profiles_simulate_as_their_realized_shapes(self, closed_form):
        # a step, a random part and a None part, run as profiles and as per-call closures: the same bits
        cfg = build_config()
        model = SystemModel(cfg.areas, cfg.tie, cfg.cases_nonlin, cfg.controller_pair("cdm_opt"))
        profiles = (Composite((Step(0.01, 1.0), UniformRandom(0.005, 2.0, 7))), Composite((None, UniformRandom(0.01, 3.0, 1))))
        runs = [
            simulate(model, loads, 0.01, 10.0, closed_form=closed_form)
            for loads in (profiles, tuple(reference_load(p, 10.0) for p in profiles))
        ]
        for name in Trajectory.CHANNELS:
            assert getattr(runs[0], name).tobytes() == getattr(runs[1], name).tobytes(), name


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
        # only a singular synthesis (SingularSystem) becomes a penalty
        def broken(plant, gains):
            raise TypeError("bug in synthesis")

        obj = TuningObjective()
        monkeypatch.setattr(scenarios, "synthesize", broken)
        with pytest.raises(TypeError):
            obj.batch(obj.reference_vector())[0]

    def test_only_a_singular_synthesis_is_penalized(self, monkeypatch):
        # for positive gains synthesize raises only SingularSystem; a ValueError is a bug
        obj = TuningObjective()

        def raising(error):
            def broken(plant, gains):
                raise error("synthesis failed")

            return broken

        monkeypatch.setattr(scenarios, "synthesize", raising(SingularSystem))
        assert obj.batch(obj.reference_vector()).tolist() == [1e6]
        monkeypatch.setattr(scenarios, "synthesize", raising(ValueError))
        with pytest.raises(ValueError):
            obj.batch(obj.reference_vector())

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
        """The nominal cell is case 2's run: every index and signal statistic equal, for each set."""
        cfg = build_config(overrides={"solver.horizon": 30.0})
        sets = ("cdm_opt", "cdm", "pid", "pi")
        sweep = sensitivity_sweep([SweepSpec("area1.Tt", (0.25,))], cfg, sets)
        case = run_case(2, cfg, sets)
        assert {name: sweep.rows[0].metrics[name] for name in sets} == {r.name: r.metrics for r in case.results}

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

    def test_sets_and_horizon_resolved_once(self, monkeypatch):
        cfg = build_config(overrides={"solver.horizon": 5.0})
        calls = {"controller_pair": 0, "run_horizon": 0}
        for method in calls:
            original = getattr(RunConfig, method)

            def counted(self, *args, _method=method, _original=original):
                calls[_method] += 1
                return _original(self, *args)

            monkeypatch.setattr(RunConfig, method, counted)
        sweep = sensitivity_sweep(table6_specs(), cfg, ["cdm_opt", "cdm", "pid", "pi"])
        assert len(sweep.rows) == 17
        assert calls == {"controller_pair": 4, "run_horizon": 1}

    def test_invalid_parameter_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec("area3.Tg")
        with pytest.raises(ValueError):
            SweepSpec("area1.Tg", (-1.0,))
