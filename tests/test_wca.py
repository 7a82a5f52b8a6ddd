import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdmlfc.errors import ObjectiveFailure
from cdmlfc.wca import (
    WcaConfig,
    assign_streams,
    initialize,
    minimize,
    minimize_lockstep,
    random_search,
    random_search_lockstep,
    step,
)

BOX2 = [(-5.12, 5.12), (-5.12, 5.12)]
ROSEN_BOX2 = [(-2.048, 2.048), (-2.048, 2.048)]

# final costs over seeds 0..9 under the distance-only evaporation rule
# (evap_prob = 0), as scripts/wca_pilot.py recorded them before the chance
# trigger existed
DISTANCE_ONLY_SPHERE_FINALS = [
    1.0109013729999273e-31,
    6.462089017957691e-31,
    2.6747692567257863e-31,
    4.860368240796583e-31,
    3.412425103880091e-30,
    1.1778508715285176e-30,
    4.10956161175358e-31,
    2.5525065147467544e-33,
    4.579155679833476e-30,
    1.0130030842325978e-29,
]
DISTANCE_ONLY_ROSENBROCK_FINALS = [
    2.5971572109372625e-07,
    0.0058596469169537755,
    0.000189057925939812,
    0.0005223047057847964,
    0.08269902969198702,
    3.273970603847876e-05,
    0.0017681548911771454,
    1.3868028561890267e-07,
    1.6177658608890014e-07,
    1.9063339387288754e-06,
]


def sphere(X):
    return np.sum(X * X, axis=1)


def rosenbrock(X):
    return 100.0 * (X[:, 1] - X[:, 0] ** 2) ** 2 + (1.0 - X[:, 0]) ** 2


class TestConfig:
    def test_defaults_match_reference(self):
        cfg = WcaConfig()
        assert (cfg.n_pop, cfg.max_it, cfg.n_sr, cfg.d_max0) == (50, 50, 4, 1e-16)

    def test_rejects_bad_c(self):
        with pytest.raises(ValueError):
            WcaConfig(c=0.5)
        with pytest.raises(ValueError):
            WcaConfig(c=2.5)

    def test_rejects_small_population(self):
        with pytest.raises(ValueError):
            WcaConfig(n_pop=5, n_sr=4)

    def test_evap_prob_default_and_range(self):
        assert WcaConfig().evap_prob == 0.1
        WcaConfig(evap_prob=0.0)
        WcaConfig(evap_prob=1.0)
        for bad in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError):
                WcaConfig(evap_prob=bad)


class TestAssignStreams:
    def test_equal_costs_default_split(self):
        assert assign_streams([1.0, 1.0, 1.0, 1.0], 46) == [12, 12, 11, 11]

    def test_two_parents_two_drops(self):
        assert assign_streams([1.0, 1.0], 2) == [1, 1]

    def test_postconditions_on_random_inputs(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n_sr = int(rng.integers(2, 7))
            drops = int(rng.integers(n_sr, 60))
            costs = rng.uniform(-5.0, 5.0, size=n_sr).tolist()
            for inverted in (False, True):
                counts = assign_streams(costs, drops, fitness_inverted=inverted)
                assert sum(counts) == drops
                assert min(counts) >= 1

    def test_all_zero_costs_fall_back_to_equal(self):
        assert assign_streams([0.0, 0.0, 0.0, 0.0], 46) == [12, 12, 11, 11]

    def test_inverted_gives_best_parent_most(self):
        counts = assign_streams([0.1, 5.0, 9.0], 30, fitness_inverted=True)
        assert counts[0] == max(counts)


class TestInitialize:
    def test_stream_count(self):
        state = initialize(sphere, BOX2, WcaConfig(seed=1))
        assert len(state.positions) - WcaConfig().n_sr == 46  # stream rows
        assert len(state.positions) - 1 - len(state.parents) == 3  # river rows
        assert len(state.parents) == 46

    def test_bounds_respected(self):
        state = initialize(sphere, [(0.0, 1.0)], WcaConfig(seed=9))
        for position in state.positions:
            assert 0.0 <= position[0] <= 1.0

    def test_identical_seeds_identical_states(self):
        s1 = initialize(sphere, BOX2, WcaConfig(seed=4))
        s2 = initialize(sphere, BOX2, WcaConfig(seed=4))
        assert np.array_equal(s1.positions[0], s2.positions[0])
        assert s1.costs.tolist() == s2.costs.tolist()
        assert s1.parents.tolist() == s2.parents.tolist()

    def test_sea_is_best(self):
        state = initialize(sphere, BOX2, WcaConfig(seed=5))
        assert state.costs[0] == min(state.costs)

    def test_objective_failure_after_retries(self):
        def bad(X):
            return np.full(len(X), np.nan)

        with pytest.raises(ObjectiveFailure):
            initialize(bad, BOX2, WcaConfig(seed=0))


class TestStep:
    def test_invariants_over_iterations(self):
        for seed in range(10):
            cfg = WcaConfig(seed=seed)
            state = initialize(sphere, BOX2, cfg)
            for _ in range(cfg.max_it):
                state = step(state, sphere, BOX2, cfg)
                costs = state.costs
                assert state.costs[0] == min(costs)
                assert len(state.positions) - cfg.n_sr == cfg.n_pop - cfg.n_sr
                for position in state.positions:
                    assert np.all(position >= -5.12) and np.all(position <= 5.12)
            hist = state.history
            assert all(hist[i + 1] <= hist[i] for i in range(len(hist) - 1))

    def test_stationary_stream_at_parent(self):
        cfg = WcaConfig(seed=2)
        state = initialize(sphere, BOX2, cfg)
        stream = cfg.n_sr  # the first stream's row
        state.positions[stream] = state.positions[0].copy()
        state.parents[0] = 0
        nxt = step(state, sphere, BOX2, cfg)
        # zero displacement vector: the move leaves the position fixed
        assert np.allclose(nxt.positions[stream], state.positions[0]) or nxt.costs[stream] <= state.costs[0]

    def test_full_evaporation_rains_every_river_in_one_call(self):
        calls = []

        def batch(X):
            calls.append(X.shape[0])
            return sphere(X)

        cfg = WcaConfig(seed=3, evap_prob=1.0)
        state = initialize(batch, BOX2, cfg)
        for _ in range(10):
            calls.clear()
            prev = state
            state = step(state, batch, BOX2, cfg)
            assert calls == [cfg.n_pop - 1]
            assert state.rain_events - prev.rain_events == cfg.n_sr - 1
            assert state.costs[0] == min(state.costs)
            assert state.costs[0] <= prev.costs[0]
            assert len(state.positions) - cfg.n_sr == cfg.n_pop - cfg.n_sr
            assert state.parents.tolist() == prev.parents.tolist()
            for position in state.positions:
                assert np.all(position >= -5.12) and np.all(position <= 5.12)

    def test_dmax_decays_to_floor(self):
        cfg = WcaConfig(seed=0, max_it=3)
        state = initialize(sphere, BOX2, cfg)
        d0 = state.d_max
        state = step(state, sphere, BOX2, cfg)
        assert state.d_max == pytest.approx(d0 * (1 - 1 / 3))
        for _ in range(10):
            state = step(state, sphere, BOX2, cfg)
        assert state.d_max >= 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        n_sr=st.integers(2, 6),
        extra=st.integers(0, 12),
        c=st.floats(1.0, 2.0, exclude_min=True),
        d_max0=st.sampled_from([1e-16, 0.5, 3.0]),
        evap_prob=st.floats(0.0, 1.0),
        fitness_inverted=st.booleans(),
        seed=st.integers(0, 2**16),
        dim=st.integers(1, 4),
    )
    def test_invariants_hold_for_any_config(self, n_sr, extra, c, d_max0, evap_prob, fitness_inverted, seed, dim):
        cfg = WcaConfig(
            n_pop=2 * n_sr + extra,
            n_sr=n_sr,
            max_it=6,
            c=c,
            d_max0=d_max0,
            evap_prob=evap_prob,
            fitness_inverted=fitness_inverted,
            seed=seed,
        )
        box = [(-3.0, 1.0)] * dim
        calls = []

        def batch(X):
            calls.append(X.shape[0])
            return np.sum(X * X - 10.0 * np.cos(2.0 * np.pi * X), axis=1)

        state = initialize(batch, box, cfg)
        parents = state.parents.copy()
        for _ in range(cfg.max_it):
            calls.clear()
            state = step(state, batch, box, cfg)
            assert calls == [cfg.n_pop - 1]
            assert state.costs[0] == min(state.costs)
            assert np.all(state.positions >= -3.0) and np.all(state.positions <= 1.0)
            assert np.array_equal(state.parents, parents)
        assert all(b <= a for a, b in zip(state.history, state.history[1:]))


class TestMinimize:
    def test_constant_objective(self):
        _, cost, hist = minimize(lambda X: np.full(len(X), 7.5), BOX2, WcaConfig(seed=0))
        assert cost == 7.5
        assert hist == [7.5] * 51

    def test_sphere_benchmark(self):
        finals = []
        for seed in range(10):
            finals.append(minimize(sphere, BOX2, WcaConfig(seed=seed))[1])
        assert float(np.median(finals)) < 1e-3

    def test_rosenbrock_benchmark(self):
        finals = []
        for seed in range(10):
            finals.append(minimize(rosenbrock, [(-2.048, 2.048)] * 2, WcaConfig(seed=seed))[1])
        assert float(np.median(finals)) < 1e-1

    def test_bit_exact_reproducibility(self):
        x1, j1, h1 = minimize(sphere, BOX2, WcaConfig(seed=11))
        x2, j2, h2 = minimize(sphere, BOX2, WcaConfig(seed=11))
        assert h1 == h2
        assert np.array_equal(x1, x2)
        assert j1 == j2

    def test_distance_only_rule_reproduces_recorded_finals(self):
        sphere_finals = [minimize(sphere, BOX2, WcaConfig(seed=k, evap_prob=0.0))[1] for k in range(10)]
        rosen_finals = [
            minimize(rosenbrock, ROSEN_BOX2, WcaConfig(seed=k, evap_prob=0.0))[1] for k in range(10)
        ]
        assert sphere_finals == DISTANCE_ONLY_SPHERE_FINALS
        assert rosen_finals == DISTANCE_ONLY_ROSENBROCK_FINALS

    def test_raining_liveness_on_sphere(self):
        cfg = WcaConfig(seed=0, max_it=200)
        state = initialize(sphere, BOX2, cfg)
        for _ in range(cfg.max_it):
            state = step(state, sphere, BOX2, cfg)
        assert state.rain_events >= 1

    def test_pilot_record_is_current(self):
        rec = json.loads(
            (pathlib.Path(__file__).parent / "data" / "wca_pilot.json").read_text()
        )
        assert rec["sphere_2d"]["threshold"] == 1e-3
        assert rec["rosenbrock_2d"]["threshold"] == 1e-1
        assert rec["sphere_2d"]["median_final_cost"] < 1e-3
        assert rec["rosenbrock_2d"]["median_final_cost"] < 1e-1
        for name, fn in (("sphere_2d", sphere), ("rosenbrock_2d", rosenbrock)):
            box = rec[name]["bounds"]
            finals = [minimize(fn, [box, box], WcaConfig(seed=k))[1] for k in rec[name]["seeds"]]
            assert finals == rec[name]["final_costs"]


class TestRandomSearch:
    def test_non_finite_cost_raises(self):
        # NaN on half the box: argmin would pick the NaN and drop the block's minimum
        def half_nan(X):
            return np.where(X[:, 0] > 0.0, np.nan, np.sum(X * X, axis=1))

        with pytest.raises(ObjectiveFailure):
            random_search(half_nan, BOX2, WcaConfig(seed=0, max_it=3))

    def test_ties_keep_the_first_row_block_by_block(self):
        cfg = WcaConfig(seed=2, n_pop=10, max_it=20)

        def floored(X):
            return np.floor(sphere(X) / 4.0)

        # a plain per-block loop: a later block's best replaces only a strictly lower cost
        rng = np.random.default_rng(cfg.seed)
        lb, ub = np.array(BOX2).T
        best_x, best_j, history, block_minima = None, math.inf, [], []
        for _ in range(cfg.max_it + 1):
            X = lb + rng.random((cfg.n_pop, 2)) * (ub - lb)
            costs = floored(X)
            i = int(np.argmin(costs))
            if costs[i] < best_j:
                best_x, best_j = X[i], float(costs[i])
            history.append(best_j)
            block_minima.append(costs.min())
        assert block_minima.count(min(block_minima)) >= 2  # the minimum is tied across blocks

        x, j, hist = random_search(floored, BOX2, cfg)
        assert np.array_equal(x, best_x) and j == best_j and hist == history

    @pytest.mark.parametrize("block", [0, 2, 4])
    def test_non_finite_cost_names_its_block(self, block):
        cfg = WcaConfig(seed=0, n_pop=10, max_it=4)
        scored = []  # rows scored so far, over every call

        def nan_in_block(X):
            costs = sphere(X)
            row = block * cfg.n_pop + 3 - len(scored)
            if 0 <= row < len(X):
                costs[row] = np.nan
            scored.extend(X)
            return costs

        with pytest.raises(ObjectiveFailure, match=f"block {block}$"):
            random_search(nan_in_block, BOX2, cfg)

    def test_history_tracks_block_minima(self):
        cfg = WcaConfig(seed=1, n_pop=10, max_it=4)
        x, cost, hist = random_search(sphere, BOX2, cfg)
        assert len(hist) == cfg.max_it + 1
        assert all(b <= a for a, b in zip(hist, hist[1:]))
        assert cost == hist[-1] == sphere(x[None])[0]


def rastrigin(X):
    return np.sum(X * X - 10.0 * np.cos(2.0 * np.pi * X), axis=1)


class TestLockstep:
    @pytest.mark.parametrize("fn", [sphere, rastrigin])
    @pytest.mark.parametrize(
        "lockstep, alone", [(minimize_lockstep, minimize), (random_search_lockstep, random_search)]
    )
    def test_runs_equal_their_one_config_runs(self, lockstep, alone, fn):
        # different seeds, population sizes and settings
        configs = [
            WcaConfig(seed=4, n_pop=12, max_it=8),
            WcaConfig(seed=5, n_pop=20, n_sr=3, max_it=8, evap_prob=0.5),
            WcaConfig(seed=4, n_pop=9, max_it=8, fitness_inverted=True, c=1.5),
        ]
        calls = []

        def batch(X):
            calls.append(len(X))
            return fn(X)

        runs = lockstep(batch, BOX2, configs)
        if lockstep is minimize_lockstep:
            # one call per generation; generation 0 holds every run's population
            assert len(calls) == 9
            assert calls[0] == sum(c.n_pop for c in configs)
        else:
            # one call per run, of its whole budget
            assert calls == [(c.max_it + 1) * c.n_pop for c in configs]
        for (x, j, hist), cfg in zip(runs, configs):
            x1, j1, hist1 = alone(fn, BOX2, cfg)
            assert np.array_equal(x, x1) and j == j1 and hist == hist1

    @pytest.mark.parametrize("lockstep", [minimize_lockstep, random_search_lockstep])
    def test_non_finite_cost_in_a_later_run_raises(self, lockstep):
        # WCA's second call is generation 1 of every run, its last row the
        # last run's; random search's second call is the whole second run
        calls = []

        def batch(X):
            calls.append(len(X))
            costs = sphere(X)
            if len(calls) == 2:
                costs[-1] = np.nan
            return costs

        with pytest.raises(ObjectiveFailure):
            lockstep(batch, BOX2, [WcaConfig(seed=k, n_pop=10, max_it=3) for k in range(3)])
        assert len(calls) == 2

    @pytest.mark.parametrize("lockstep", [minimize_lockstep, random_search_lockstep])
    def test_configs_must_share_max_it(self, lockstep):
        with pytest.raises(ValueError):
            lockstep(sphere, BOX2, [WcaConfig(seed=0, max_it=3), WcaConfig(seed=1, max_it=4)])
        with pytest.raises(ValueError):
            lockstep(sphere, BOX2, [])
