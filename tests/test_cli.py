import inspect
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from cdmlfc import cli, defaults, wca
from cdmlfc.cli import main
from cdmlfc.config import build_config, default_config, load_config
from cdmlfc.errors import ConfigError
from cdmlfc.scenarios import OUTCOMES, PENALTY_FLOOR, TuningObjective
from cdmlfc.wca import WcaConfig


def _leaves(node, path=""):
    """(dotted path, parent, key) of every scalar leaf of a config tree."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        child = f"{path}[{key}]" if isinstance(node, list) else f"{path}.{key}" if path else key
        if isinstance(value, (dict, list)):
            yield from _leaves(value, child)
        else:
            yield child, node, key


def _wrong_kinds(value) -> list:
    """Values of a wrong kind for a leaf whose default is value (None stands for a number)."""
    if isinstance(value, bool):
        return ["false", 0, math.nan]
    if isinstance(value, str):
        return [5, math.nan]
    wrong = [str(value), True, math.nan]
    return wrong + [0.5] if isinstance(value, int) else wrong


def _csv_rows(path) -> list[dict]:
    header, *lines = path.read_text().splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


class TestConfig:
    def test_defaults_build(self):
        cfg = build_config()
        assert cfg.areas[0].Tg == 0.08
        assert cfg.cdm_gains[0].k_b0 == 20.5126
        assert cfg.wca.n_pop == 50
        assert len(cfg.opt_bounds) == 8

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ConfigError) as err:
            build_config({"model": {"area1": {"D": 1, "M": 1, "R": 1, "Tg": 1, "Tt": 1, "bogus": 2}}})
        assert "model.area1.bogus" in str(err.value)

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError) as err:
            build_config({"modell": {}})
        assert "modell" in str(err.value)

    def test_missing_tau_in_supplied_gains(self):
        with pytest.raises(ConfigError) as err:
            build_config({"controllers": {"cdm_opt": {"gamma": [2, 2, 2, 2, 2], "k_b0": [1, 1]}}})
        assert "controllers.cdm_opt.tau" in str(err.value)

    def test_partial_merge_keeps_defaults(self):
        cfg = build_config({"solver": {"dt": 0.02}})
        assert cfg.dt == 0.02
        assert cfg.controller_dt == 0.01
        assert cfg.areas[1].Tt == 0.44

    def test_flag_overrides(self):
        cfg = build_config(None, {"optimizer.seed": 42, "solver.dt": 0.005})
        assert cfg.wca.seed == 42
        assert cfg.dt == 0.005

    def test_evap_prob_key(self):
        assert build_config().wca.evap_prob == 0.1
        assert build_config({"optimizer": {"evap_prob": 0.0}}).wca.evap_prob == 0.0
        with pytest.raises(ConfigError) as err:
            build_config({"optimizer": {"evap_prob": 1.5}})
        assert "optimizer" in str(err.value)

    def test_defaults_come_from_the_defaults_module(self):
        cfg = build_config()
        assert cfg.areas == (defaults.AREA1, defaults.AREA2)
        assert cfg.tie == defaults.TIE
        assert cfg.nonlin == defaults.NONLIN_DEFAULT
        assert cfg.cases_nonlin == defaults.NONLIN_CASES
        assert cfg.wca == WcaConfig()
        assert cfg.opt_bounds == defaults.OPT_BOUNDS

    def test_solver_times_off_the_dt_grid_rejected(self):
        with pytest.raises(ConfigError) as err:
            build_config({"solver": {"horizon": 0.015}})
        assert "solver.horizon" in str(err.value)
        with pytest.raises(ConfigError) as err:
            build_config({"solver": {"controller_dt": 0.015}})
        assert "solver.controller_dt" in str(err.value)
        cfg = build_config({"solver": {"dt": 0.005, "controller_dt": 0.015, "horizon": 0.015}})
        assert (cfg.controller_dt, cfg.horizon) == (0.015, 0.015)

    def test_objective_times_checked(self):
        with pytest.raises(ConfigError) as err:
            build_config({"optimizer": {"objective": {"horizon": 1.01}}})
        assert "optimizer.objective.horizon" in str(err.value)
        for dt in (0.06, 0.050000001):
            with pytest.raises(ConfigError) as err:
                build_config({"optimizer": {"objective": {"dt": dt}}})
            assert "optimizer.objective.dt: must be in (0, 0.05]" in str(err.value)
        assert build_config({"optimizer": {"objective": {"dt": 0.05}}}).objective_settings["dt"] == 0.05
        cfg = build_config({"optimizer": {"objective": {"dt": 0.005, "horizon": 1.005}}})
        assert (cfg.objective_settings["dt"], cfg.objective_settings["horizon"]) == (0.005, 1.005)

    def test_every_leaf_reads_by_one_rule(self):
        tree = default_config()
        for path, parent, key in list(_leaves(tree)):
            value = parent[key]
            for wrong in _wrong_kinds(value):
                parent[key] = wrong
                with pytest.raises(ConfigError) as err:
                    build_config(tree)
                assert err.value.path == path, (path, wrong, str(err.value))
            parent[key] = value
        assert build_config(tree).raw == default_config()

    def test_whole_numbers_read_as_integers(self):
        cfg = build_config({"cases": {"seed": 2.0}, "optimizer": {"seed": 3.0, "n_pop": 20.0, "max_it": 4.0}})
        assert (cfg.cases_seed, cfg.wca.seed, cfg.wca.n_pop, cfg.wca.max_it) == (2, 3, 20, 4)
        random_load = {"kind": "uniform_random", "amplitude": 0.01, "hold": 10, "seed": 2.0}
        assert build_config({"scenario": {"loads": [random_load, None]}}).scenario.loads[0].seed == 2

    def test_times_must_be_finite_numbers(self):
        for user, key in (
            ({"solver": {"horizon": float("nan")}}, "solver.horizon"),
            ({"solver": {"dt": "fast"}}, "solver.dt"),
            ({"solver": {"controller_dt": float("inf")}}, "solver.controller_dt"),
            ({"scenario": {"horizon": -1.0}}, "scenario.horizon"),
            ({"controllers": {"integral": ["x", 0.2]}}, "controllers.integral[0]"),
            ({"controllers": {"integral": [0.3, float("nan")]}}, "controllers.integral[1]"),
            (
                {"controllers": {"cdm_opt": {"gamma": ["a", 1, 1, 1, 1], "tau": 1, "k_b0": [1, 1]}}},
                "controllers.cdm_opt.gamma[0]",
            ),
            (
                {"controllers": {"cdm_opt": {"gamma": [1, 1, 1, 1, 1], "tau": "fast", "k_b0": [1, 1]}}},
                "controllers.cdm_opt.tau",
            ),
            (
                {"controllers": {"cdm_classic": {"ac": [[0, 1, "z"], [0, 1]], "bc": [[1], [1]]}}},
                "controllers.cdm_classic.ac[0][2]",
            ),
            (
                {"controllers": {"cdm_classic": {"ac": [[0, 1], [0, 1]], "bc": [[1], [None]]}}},
                "controllers.cdm_classic.bc[1][0]",
            ),
            ({"cases": {"seed": "abc"}}, "cases.seed"),
            (
                {"controllers": {"cdm_opt": {"gamma": [2, 2], "tau": 1, "k_b0": [1, 1]}}},
                "controllers.cdm_opt.gamma",
            ),
            ({"scenario": {"loads": [{"kind": "step", "magnitude": 0.01}, None]}}, "scenario.loads"),
            ({"scenario": {"loads": [{"kind": "step", "magnitude": "x", "time": 1.0}, None]}}, "scenario.loads"),
            (
                {"scenario": {"loads": [None, {"kind": "uniform_random", "amplitude": 0.01, "hold": 10, "seed": 1.5}]}},
                "scenario.loads",
            ),
            ({"scenario": {"disturbance_time": "x"}}, "scenario.disturbance_time"),
            ({"cases": {"seed": -1}}, "cases.seed"),
            ({"cases": {"seed": 1.5}}, "cases.seed"),
            ({"optimizer": {"seed": -1}}, "optimizer.seed"),
            (
                {"scenario": {"loads": [None, {"kind": "uniform_random", "amplitude": 0.01, "hold": 10, "seed": -3}]}},
                "scenario.loads",
            ),
            ({"optimizer": {"objective": {"perturb": "x"}}}, "optimizer.objective.perturb"),
            ({"optimizer": {"objective": {"perturb": -1}}}, "optimizer.objective.perturb"),
            ({"optimizer": {"objective": {"perturb": float("nan")}}}, "optimizer.objective.perturb"),
            # only a grc_rate may be infinite, and only +inf (no clamp)
            ({"model": {"nonlinear": {"grc_rate": -math.inf}}}, "model.nonlinear.grc_rate"),
            ({"model": {"area1": dict(default_config()["model"]["area1"], D=math.inf)}}, "model.area1.D"),
        ):
            with pytest.raises(ConfigError) as err:
                build_config(user)
            assert key in str(err.value)

    def test_bad_bounds_rejected(self):
        for gamma, key in (
            ([5, 1], "optimizer.bounds.gamma"),
            ([1, "b"], "optimizer.bounds.gamma[1]"),
            (["a", "b"], "optimizer.bounds.gamma[0]"),
        ):
            with pytest.raises(ConfigError) as err:
                build_config({"optimizer": {"bounds": {"gamma": gamma, "tau": [0.1, 5], "k_b0": [1, 100]}}})
            assert key in str(err.value)


class TestCliCommands:
    def test_design_writes_controllers(self, tmp_path):
        rc = main(["design", "--out", str(tmp_path)])
        assert rc == 0
        a1 = json.loads((tmp_path / "controller_area1.json").read_text())
        a2 = json.loads((tmp_path / "controller_area2.json").read_text())
        assert a1["f"] == 20.5126
        assert a2["f"] == 39.9347
        assert a1["verdict"] == "stable"
        assert (tmp_path / "manifest.json").exists()

    def test_design_missing_tau_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"controllers": {"cdm_opt": {"gamma": [1, 1, 1, 1, 1], "k_b0": [1, 1]}}}))
        rc = main(["design", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_design_non_numeric_gain_exits_2(self, tmp_path, capsys):
        area1 = dict(default_config()["model"]["area1"])
        for user, path in (
            ({"controllers": {"integral": ["x", 0.2]}}, "controllers.integral[0]"),
            ({"controllers": {"integral": ["0.3", 0.2]}}, "controllers.integral[0]"),
            ({"optimizer": {"fitness_inverted": "false"}}, "optimizer.fitness_inverted"),
            ({"optimizer": {"n_pop": 50.7}}, "optimizer.n_pop"),
            ({"optimizer": {"max_it": 3.9}}, "optimizer.max_it"),
            ({"model": {"area1": dict(area1, D="0.015")}}, "model.area1.D"),
            ({"model": {"area1": dict(area1, M=True)}}, "model.area1.M"),
            ({"solver": {"dt": "0.01"}}, "solver.dt"),
            ({"model": {"nonlinear": {"gdb_width": float("nan")}}}, "model.nonlinear.gdb_width"),
            ({"optimizer": {"objective": {"perturb": -1}}}, "optimizer.objective.perturb"),
        ):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(user))
            rc = main(["design", "--config", str(cfg), "--out", str(tmp_path / "out")])
            assert rc == 2
            assert f"config error: {path}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_improper_classic_cdm_set_exits_2(self, tmp_path, capsys):
        ac, bc = (default_config()["controllers"]["cdm_classic"][k] for k in ("ac", "bc"))
        for user, path in (
            ({"ac": ac, "bc": [[40.0, 69.0, 100.0, 1.0], bc[1]]}, "controllers.cdm_classic.bc[0]"),
            ({"ac": [[0.0], ac[1]], "bc": [[1.0], bc[1]]}, "controllers.cdm_classic.ac[0]"),
            ({"ac": [ac[0], [5.0]], "bc": bc}, "controllers.cdm_classic.ac[1]"),
        ):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"controllers": {"cdm_classic": user}}))
            argv = ["compare", "--horizon", "2", "--controllers", "cdm", "--config", str(cfg)]
            assert main([*argv, "--out", str(tmp_path / "out")]) == 2
            assert f"config error: {path}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_optimize_non_positive_bound_exits_2(self, tmp_path, capsys):
        # a position clipped to a zero bound would give CdmGains a zero gain
        bounds = {"gamma": [0, 40], "tau": [0.1, 5], "k_b0": [1, 100]}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"optimizer": {"n_pop": 12, "max_it": 1, "bounds": bounds}}))
        rc = main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "config error: optimizer.bounds.gamma: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_case2_outputs(self, tmp_path):
        rc = main(["case", "2", "--out", str(tmp_path)])
        assert rc == 0
        traj = (tmp_path / "trajectory_cdm_opt.csv").read_text().splitlines()
        assert len(traj) == 6002  # header + 6001 samples at dt=0.01 over 60 s
        assert traj[0] == "t,df1,df2,dptie,ace1,ace2,u1,u2,dpl1,dpl2"
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["ranking"] == ["cdm_opt", "pid", "pi"]

    def test_case2_rerun_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["case", "2", "--out", str(out1)]) == 0
        assert main(["case", "2", "--out", str(out2)]) == 0
        for name in ("report.csv", "report.json", "trajectory_cdm_opt.csv", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_sweep_csv_has_17_rows(self, tmp_path):
        rc = main(["sweep", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 18  # header + nominal + 16 cells

    def test_case_6_routes_to_sweep(self, tmp_path):
        rc = main(["case", "6", "--out", str(tmp_path), "--controllers", "cdm_opt"])
        assert rc == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 18

    def test_optimize_tiny_run(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"optimizer": {"n_pop": 12, "max_it": 3}}))
        rc = main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "out"), "--repeats", "2"])
        assert rc == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert set(summary) >= {"min", "max", "mean", "std"}
        # every candidate scored, by outcome: two populations and the reference, then 3 x 2 x 11 moves
        assert set(summary["objective"]) == {*OUTCOMES, "fallback_blocks"}
        assert sum(summary["objective"][outcome] for outcome in OUTCOMES) == 2 * 12 + 1 + 3 * 2 * 11
        best = json.loads((tmp_path / "out" / "best_gains.json").read_text())
        assert len(best["gamma"]) == 5
        assert best["loop_stable"] == (best["rho"] < 1.0)
        conv = (tmp_path / "out" / "convergence_seed0.csv").read_text().splitlines()
        assert conv[0] == "iteration,best_cost"
        assert len(conv) == 5  # header + initial + 3 iterations

    def test_optimize_keeps_wca_settings_on_every_repeat(self, tmp_path, monkeypatch):
        seen = []

        def fake_minimize_lockstep(cost, bounds, configs):
            seen.extend(configs)
            x = np.array([*defaults.OPT_GAMMA, defaults.OPT_TAU, *defaults.OPT_KB0])
            cost(x[None, :])  # a real runner scores generation 0
            return [(x, 0.5, [0.5] * (config.max_it + 1)) for config in configs]

        monkeypatch.setattr(cli, "minimize_lockstep", fake_minimize_lockstep)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"optimizer": {"n_pop": 12, "max_it": 3, "evap_prob": 0.25, "c": 1.5}}))
        rc = main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "out"), "--repeats", "3"])
        assert rc == 0
        assert [c.seed for c in seen] == [0, 1, 2]
        assert all((c.n_pop, c.max_it, c.evap_prob, c.c) == (12, 3, 0.25, 1.5) for c in seen)

    def test_optimize_reports_a_loop_unstable_best_and_exits_0(self, tmp_path, monkeypatch, capsys):
        # a run whose best is a proxy (here index 37 of the engine reference, rho 2.09) reports it as its J
        reference = json.loads((pathlib.Path(__file__).parent / "data" / "engine_reference.json").read_text())
        x = np.array(reference["objective"]["candidates"][37])

        def fake_minimize_lockstep(cost, bounds, configs):
            (j,) = cost(x[None, :])
            return [(x, float(j), [float(j)] * (config.max_it + 1)) for config in configs]

        monkeypatch.setattr(cli, "minimize_lockstep", fake_minimize_lockstep)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"optimizer": {"n_pop": 12, "max_it": 1}}))
        assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        best = json.loads((tmp_path / "out" / "best_gains.json").read_text())
        assert best["loop_stable"] is False
        assert best["j"] == PENALTY_FLOOR * (1.0 - 0.5 / best["rho"]) == pytest.approx(760993, rel=1e-5)
        assert "the best design is loop-unstable" in capsys.readouterr().err

    def test_optimize_same_seed_identical_convergence(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"optimizer": {"n_pop": 12, "max_it": 3}}))
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["optimize", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["optimize", "--config", str(cfg), "--out", str(b)]) == 0
        assert (a / "convergence_seed0.csv").read_bytes() == (b / "convergence_seed0.csv").read_bytes()

    @pytest.mark.parametrize("algorithm", ["wca", "random-search"])
    def test_optimize_repeats_equal_their_one_repeat_runs(self, tmp_path, algorithm):
        # the repeats run in lockstep, each seed drawing as it would alone
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"optimizer": {"n_pop": 12, "max_it": 3, "seed": 5, "objective": {"horizon": 10.0}}}))
        common = ["optimize", "--config", str(cfg), "--algorithm", algorithm]
        assert main([*common, "--out", str(tmp_path / "all"), "--repeats", "3"]) == 0
        alone = {}
        for seed in (5, 6, 7):
            out = tmp_path / f"seed{seed}"
            assert main([*common, "--out", str(out), "--seed", str(seed)]) == 0
            name = f"convergence_seed{seed}.csv"
            assert (tmp_path / "all" / name).read_bytes() == (out / name).read_bytes()
            alone[seed] = json.loads((out / "best_gains.json").read_text())
        best = json.loads((tmp_path / "all" / "best_gains.json").read_text())
        first_best = min(alone.values(), key=lambda b: b["j"])  # min keeps the first seed on a tie
        assert (best["j"], best["seed"], best["vector"]) == (first_best["j"], first_best["seed"], first_best["vector"])
        objective = cli._tuning_objective(load_config(str(cfg)))
        assert best["reference_j"] == float(objective.batch([objective.reference_vector()])[0])
        summary = json.loads((tmp_path / "all" / "summary.json").read_text())
        assert (summary["min"], summary["max"]) == (first_best["j"], max(b["j"] for b in alone.values()))

    @pytest.mark.parametrize("repeats", [1, 3])
    def test_optimize_scores_each_generation_in_one_objective_call(self, tmp_path, monkeypatch, repeats):
        calls = {"batch": [], "initialize": [], "step": []}
        batch, initialize, step = TuningObjective.batch, wca.initialize, wca.step

        def counting(name, fn):
            signature = inspect.signature(fn)

            def wrapper(*args, **kwargs):
                calls[name].append(signature.bind(*args, **kwargs).arguments)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(TuningObjective, "batch", counting("batch", batch))
        monkeypatch.setattr(wca, "initialize", counting("initialize", initialize))
        monkeypatch.setattr(wca, "step", counting("step", step))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"optimizer": {"n_pop": 12, "max_it": 3, "objective": {"horizon": 2.0}}}))
        rc = main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "out"), "--repeats", str(repeats)])
        assert rc == 0
        # generation 0 holds every repeat's population and the reference vector
        assert [len(a["xs"]) for a in calls["batch"]] == [12 * repeats + 1] + [11 * repeats] * 3
        if repeats == 1:
            assert len(calls["initialize"]) == 1
            assert len(calls["step"]) == 3
            assert all(isinstance(a["state"], wca.WcaState) for a in calls["step"])

    def test_case1_makes_max_it_plus_two_objective_calls(self, tmp_path, monkeypatch):
        batch = TuningObjective.batch
        calls = []

        def counting(self, xs):
            calls.append(len(xs))
            return batch(self, xs)

        monkeypatch.setattr(TuningObjective, "batch", counting)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"optimizer": {"n_pop": 12, "max_it": 3, "objective": {"horizon": 2.0}}}))
        assert main(["case", "1", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        # WCA: generation 0 with the reference vector, then max_it generations;
        # random search: its whole (max_it + 1) x n_pop budget in one call
        assert calls == [12 + 1] + [11] * 3 + [4 * 12]

    @pytest.mark.parametrize("algorithm", ["wca", "random-search"])
    def test_optimize_non_finite_cost_in_a_later_repeat_exits_4(self, tmp_path, monkeypatch, algorithm):
        batch = TuningObjective.batch
        calls = []

        def nan_in_the_last_row(self, xs):
            calls.append(len(xs))
            costs = batch(self, xs)
            if len(calls) == 2:
                # WCA's call 2 is generation 1 of every repeat, random search's the
                # whole second repeat: the last row is that call's last repeat's
                costs[-1] = math.nan
            return costs

        monkeypatch.setattr(TuningObjective, "batch", nan_in_the_last_row)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"optimizer": {"n_pop": 12, "max_it": 3, "objective": {"horizon": 2.0}}}))
        argv = ["optimize", "--config", str(cfg), "--out", str(tmp_path / "out"), "--repeats", "3"]
        assert main([*argv, "--algorithm", algorithm]) == 4
        assert len(calls) == 2

    def test_simulate_and_compare(self, tmp_path):
        rc = main(["simulate", "--out", str(tmp_path / "sim"), "--controllers", "cdm_opt,pi"])
        assert rc == 0
        metrics = json.loads((tmp_path / "sim" / "metrics.json").read_text())
        assert set(metrics) == {"cdm_opt", "pi"}
        # compare defaults to the nominal-GRC model; pin the non-binding
        # rate when asserting the benchmark ordering
        rc = main(["compare", "--out", str(tmp_path / "cmp"), "--controllers", "cdm_opt,pid", "--grc", "0.1"])
        assert rc == 0
        report = json.loads((tmp_path / "cmp" / "report.json").read_text())
        assert report["ranking"][0] == "cdm_opt"

    def test_grc_flag_changes_case_behavior(self, tmp_path):
        # inf lifts the clamp: the one value that may be infinite
        for grc in (str(0.1 / 60.0), "inf"):
            rc = main(["case", "2", "--out", str(tmp_path / grc), "--grc", grc, "--horizon", "30"])
            assert rc == 0
            report = json.loads((tmp_path / grc / "report.json").read_text())
            assert report["model_snapshot"]["grc_rate"] == pytest.approx(float(grc))

    def test_horizon_off_the_dt_grid_exits_2(self, tmp_path, capsys):
        rc = main(["case", "2", "--horizon", "0.015", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "solver.horizon" in capsys.readouterr().err

    def test_controller_dt_off_the_dt_grid_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"solver": {"controller_dt": 0.015}}))
        rc = main(["case", "2", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "solver.controller_dt" in capsys.readouterr().err

    def test_case2_dt_coarser_than_controller_dt_exits_2(self, tmp_path, capsys):
        rc = main(["case", "2", "--dt", "0.02", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "solver.controller_dt" in capsys.readouterr().err

    def test_sweep_dt_coarser_than_controller_dt_exits_2(self, tmp_path, capsys):
        rc = main(["sweep", "--dt", "0.02", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "solver.controller_dt" in capsys.readouterr().err

    def test_case4_horizon_off_the_dt_grid_exits_2(self, tmp_path, capsys):
        rc = main(["case", "4", "--dt", "0.03", "--out", str(tmp_path / "a")])
        assert rc == 2
        assert "solver.controller_dt" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"solver": {"controller_dt": 0.03}}))
        rc = main(["case", "4", "--dt", "0.03", "--config", str(cfg), "--out", str(tmp_path / "b")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "solver.dt" in err and "case 4" in err
        cfg.write_text(json.dumps({"solver": {"controller_dt": 0.035}}))
        rc = main(["sweep", "--dt", "0.035", "--config", str(cfg), "--out", str(tmp_path / "c")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "solver.dt" in err and "the sweep" in err

    def test_scenario_horizon_off_the_dt_grid_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": {"horizon": 1.005}}))
        for command in ("simulate", "compare"):
            rc = main([command, "--config", str(cfg), "--out", str(tmp_path / command)])
            assert rc == 2
            assert "scenario.horizon" in capsys.readouterr().err

    def test_objective_horizon_off_its_dt_grid_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"optimizer": {"objective": {"horizon": 1.01}}}))
        rc = main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "optimizer.objective.horizon" in capsys.readouterr().err

    def test_unknown_controller_set_exits_2(self, tmp_path, capsys):
        for names, message in (
            ("cdm_opt,foo", "'foo'"),
            ("", "names no controller set"),
            (" , ", "names no controller set"),
            ("pi,pi", "'pi' is named twice"),
        ):
            for argv in (["case", "2"], ["sweep"], ["compare"]):
                rc = main(argv + ["--controllers", names, "--out", str(tmp_path / "out")])
                assert rc == 2
                assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        rc = main(["case", "4", "--seed", "-1", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_optimize_repeats_below_one_exits_2(self, tmp_path, capsys):
        rc = main(["optimize", "--repeats", "0", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "--repeats" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [["optimize"], ["case", "1"]])
    @pytest.mark.parametrize(
        "flag, value, key", [("--dt", "0.005", "dt"), ("--horizon", "10", "horizon"), ("--grc", "0.001", "grc_rate")]
    )
    def test_solver_flags_refused_where_only_the_objective_runs(self, tmp_path, capsys, command, flag, value, key):
        # these flags set model.*, cases.* and solver.*, which the objective's model never reads
        rc = main([*command, flag, value, "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert flag in err and f"optimizer.objective.{key}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, value", [("--seed", "3"), ("--dt", "0.005"), ("--horizon", "10"), ("--grc", "0.001")])
    def test_run_flags_refused_by_design(self, tmp_path, capsys, flag, value):
        # design synthesizes the controllers and runs nothing these flags reach
        rc = main(["design", flag, value, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_fitness_inverted_refused_by_random_search(self, tmp_path, capsys):
        # the flag weighs WCA's stream allocation; random search allocates no streams
        rc = main(["optimize", "--algorithm", "random-search", "--fitness-inverted", "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--fitness-inverted" in err and "random-search" in err and "no streams" in err
        assert not (tmp_path / "out").exists()

    def test_fitness_inverted_in_the_config_noted_by_random_search(self, tmp_path, capsys):
        # a config shared with WCA runs may carry the key: random search names
        # it on stderr, runs on and writes what it writes without the key
        settings = {"n_pop": 8, "n_sr": 2, "max_it": 1, "objective": {"horizon": 1.0}}
        outputs = []
        for inverted in (False, True):
            cfg = tmp_path / f"cfg{inverted}.json"
            cfg.write_text(json.dumps({"optimizer": {**settings, "fitness_inverted": inverted}}))
            out = tmp_path / f"out{inverted}"
            rc = main(["optimize", "--algorithm", "random-search", "--config", str(cfg), "--out", str(out)])
            assert rc == 0
            captured = capsys.readouterr()
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "manifest.json"}
            outputs.append((captured.out, files))
            notes = [line for line in captured.err.splitlines() if "optimizer.fitness_inverted" in line]
            assert len(notes) == (1 if inverted else 0)
        assert "random-search" in notes[0] and "ignored" in notes[0]
        assert outputs[0] == outputs[1]

    def test_disturbance_time_outside_the_horizon_exits_2(self, tmp_path, capsys):
        for when in (100.0, 10.0, -5.0):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"scenario": {"disturbance_time": when}}))
            argv = ["compare", "--config", str(cfg), "--controllers", "pi", "--horizon", "10"]
            rc = main(argv + ["--out", str(tmp_path / "out")])
            assert rc == 2
            assert "scenario.disturbance_time" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.csv").exists()

    def test_incomplete_load_profile_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": {"loads": [{"kind": "step", "magnitude": 0.01}, None]}}))
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "scenario.loads" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_compare_and_case2_share_one_runner(self, tmp_path):
        # the default scenario is case 2's definition; a configured model and
        # configured gains reach both commands, and the sweep's nominal row
        area1 = {"D": 0.015, "M": 0.1667, "R": 3.0, "Tg": 0.16, "Tt": 0.8}
        custom = {"model": {"area1": area1}, "controllers": {"integral": [0.9, 0.9]}}
        flags = ["--grc", "0.1", "--horizon", "20", "--controllers", "cdm_opt,cdm,pid,pi"]
        for label, user in (("default", None), ("custom", custom)):
            run = tmp_path / label
            run.mkdir()
            config = []
            if user is not None:
                (run / "cfg.json").write_text(json.dumps(user))
                config = ["--config", str(run / "cfg.json")]
            assert main(["compare", "--out", str(run / "cmp")] + flags + config) == 0
            assert main(["case", "2", "--out", str(run / "case")] + flags + config) == 0
            names = ["report.csv"] + [f"trajectory_{name}.csv" for name in defaults.CONTROLLER_SET_NAMES]
            for name in names:
                assert (run / "cmp" / name).read_bytes() == (run / "case" / name).read_bytes()
            cmp, case = (json.loads((run / d / "report.json").read_text()) for d in ("cmp", "case"))
            for report in (cmp, case):
                del report["case_id"], report["description"]
            assert cmp == case
            if user is not None:
                assert case["model_snapshot"]["area1"] == area1
                assert main(["sweep", "--out", str(run / "sweep")] + flags + config) == 0
                sweep = _csv_rows(run / "sweep" / "sweep.csv")[0]
                assert sweep["parameter"] == "nominal"
                for row in _csv_rows(run / "case" / "report.csv"):
                    name = row["controller"]
                    assert [sweep[f"{name}_{k}"] for k in ("iae", "ise", "itse", "itae")] == [
                        row[k] for k in ("iae", "ise", "itse", "itae")
                    ]

    def test_compare_snapshot_is_the_full_model(self, tmp_path):
        rc = main(["compare", "--out", str(tmp_path), "--controllers", "pi", "--horizon", "5"])
        assert rc == 0
        snapshot = json.loads((tmp_path / "report.json").read_text())["model_snapshot"]
        assert snapshot["area2"]["Tt"] == defaults.AREA2.Tt
        assert snapshot["T12"] == defaults.TIE.T12
        assert snapshot["gdb_mode"] == defaults.NONLIN_DEFAULT.gdb_mode

    def test_unstable_design_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        # tiny gamma everywhere gives a non-Hurwitz target, hence unstable design
        cfg.write_text(
            json.dumps(
                {"controllers": {"cdm_opt": {"gamma": [0.01] * 5, "tau": 0.5, "k_b0": [1.0, 1.0]}}}
            )
        )
        rc = main(["design", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 3
        rc = main(["design", "--config", str(cfg), "--out", str(tmp_path / "out2"), "--allow-unstable"])
        assert rc == 0
        verdict = json.loads((tmp_path / "out2" / "controller_area1.json").read_text())["verdict"]
        assert verdict == "unstable"
        # the commands that run a named CDM set refuse one whose design is unstable
        unstable = {"gamma": [2.5, 2, 2, 2, 2], "tau": 0.9, "k_b0": [15, 30]}
        cfg.write_text(json.dumps({"controllers": {"cdm_opt": unstable}}))
        for i, argv in enumerate((["case", "2", "--controllers", "cdm_opt"], ["sweep"], ["simulate"], ["compare"])):
            out = tmp_path / f"run{i}"
            rc = main(argv + ["--horizon", "10", "--config", str(cfg), "--out", str(out)])
            assert rc == 3, argv
            assert not (out / "report.csv").exists() and not (out / "sweep.csv").exists()


def test_case_outputs_do_not_depend_on_the_blas_kernel(tmp_path):
    # The controllers step in plain float arithmetic, not through numpy's
    # small matrix products, whose OpenBLAS kernels fuse a multiply-add on
    # some CPU types and not on others, and the closed form builds and applies
    # its step maps with elementwise products only. So the pid and pi outputs
    # of case 2 and of case 4, whose piecewise-constant loads run mostly in
    # closed form, are the same bytes under the default kernel and under
    # OPENBLAS_CORETYPE=Nehalem, which is set in the child process only. Where
    # numpy's BLAS ignores the variable, both runs take one kernel and this
    # passes trivially.
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    trees = []
    for coretype in (None, "Nehalem"):
        env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        out = tmp_path / (coretype or "default")
        for case in ("2", "4"):
            argv = ["case", case, "--controllers", "pid,pi", "--out", str(out / case)]
            run = subprocess.run([sys.executable, "-m", "cdmlfc.cli", *argv], env=env, capture_output=True, text=True)
            assert run.returncode == 0, run.stderr
        trees.append({path.relative_to(out): path.read_bytes() for path in sorted(out.rglob("*")) if path.is_file()})
    assert trees[0].keys() == trees[1].keys()
    assert [name for name in trees[0] if trees[0][name] != trees[1][name]] == []
