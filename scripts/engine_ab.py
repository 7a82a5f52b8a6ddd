"""A/B the engines of two checkouts in one process.

    python3 scripts/engine_ab.py PARENT CHANGE [--mode objective|cases|sweep] [--pairs N] [--seed S]

PARENT and CHANGE are checkout roots. Each one's `src/cdmlfc` is imported
under its own package name, so both run in this one interpreter on the same
numpy. Each measurement runs N pairs (default 20, at least 15), the two
sides interleaved and the side that goes first alternating pair by pair,
each timed in CPU seconds (`time.process_time`). Per row the script prints
each side's median CPU seconds, the median of the pairwise ratios
CHANGE / PARENT with their quartiles, and how many pairs CHANGE won.

- objective (the default): the tuning objective. The script draws
  design-stable candidates (uniform in the tuning box, kept when
  `synthesize` gives a stable design in both areas, so every one is
  simulated) and scores the same candidates with `TuningObjective.batch`
  at 1, 18 and 50 lanes. It exits non-zero unless both sides return the
  same costs byte for byte.
- cases: `run_case` for cases 2-5 with cdm_opt, cdm, pid and pi (S is the
  cases seed), one row per case and one for the four together. It also
  prints the largest difference between the two sides' trajectory
  channels, each over that channel's peak magnitude on the PARENT side, and
  exits non-zero above 1e-10.
- sweep: `sensitivity_sweep(table6_specs(), build_config(), sets)` at the
  sweep's default set (cdm_opt) and with all four sets, one row each (S is
  unused). It also prints the largest relative difference of any finite
  metric between the two sides' cells, and exits non-zero unless the same
  cells score None (diverged) on both sides.
"""

import argparse
import importlib
import importlib.util
import math
import pathlib
import statistics
import sys
import time

import numpy as np

LANES = (1, 18, 50)
CASES = (2, 3, 4, 5)
CONTROLLERS = ("cdm_opt", "cdm", "pid", "pi")
CHANNEL_TOLERANCE = 1e-10  # cases: the largest channel difference over the channel's peak
SWEEP_SETS = (("cdm_opt",), CONTROLLERS)  # the sweep's default set, then all four


def load(root: pathlib.Path, name: str):
    """The `cdmlfc.scenarios` module of the checkout at root, imported as package `name`."""
    package = root / "src" / "cdmlfc"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.scenarios")


def design_stable(scenarios, objective, rng, n: int) -> np.ndarray:
    bounds = np.array(objective.bounds)
    plants = [scenarios.derive_design_plant(area, objective.tie) for area in objective.areas]
    rows = []
    while len(rows) < n:
        x = bounds[:, 0] + rng.random(len(bounds)) * (bounds[:, 1] - bounds[:, 0])
        try:
            pair = [scenarios.synthesize(plant, gains) for plant, gains in zip(plants, objective.decode(x))]
        except scenarios.SingularSystem:
            continue
        if all(c.stable for c in pair):
            rows.append(x)
    return np.array(rows)


def timed(fn, *args):
    """(CPU seconds, result) of fn(*args)."""
    start = time.process_time()
    result = fn(*args)
    return time.process_time() - start, result


def interleave(runs: dict, pairs: int):
    """Each side's CPU seconds over `pairs` interleaved runs of runs[side](),
    and the results of the first pair."""
    for run in runs.values():
        run()  # warm-up
    seconds = {side: [] for side in runs}
    first = {}
    for i in range(pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            spent, result = timed(runs[side])
            seconds[side].append(spent)
            first.setdefault(side, result)
    return seconds, first


def row(label, seconds: dict) -> str:
    ratios = [c / p for p, c in zip(seconds["parent"], seconds["change"])]
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    won = sum(r < 1.0 for r in ratios)
    parent, change = statistics.median(seconds["parent"]), statistics.median(seconds["change"])
    return f"{label:>6} {parent:>9.4f} {change:>9.4f} {median:>7.3f} {q1:>7.3f} {q3:>7.3f} {won:>3}/{len(ratios)}"


def objective_mode(sides: dict, pairs: int, seed: int) -> int:
    objectives = {side: scenarios.TuningObjective() for side, scenarios in sides.items()}
    candidates = design_stable(sides["parent"], objectives["parent"], np.random.default_rng(seed), max(LANES))
    print(f"{'lanes':>6} {'parent_s':>9} {'change_s':>9} {'ratio':>7} {'q1':>7} {'q3':>7} {'won':>6}")
    equal = True
    for lanes in LANES:
        xs = candidates[:lanes]
        runs = {side: (lambda o=objective: o.batch(xs)) for side, objective in objectives.items()}
        seconds, costs = interleave(runs, pairs)
        equal &= costs["parent"].tobytes() == costs["change"].tobytes()
        print(row(str(lanes), seconds))
    print("costs byte-equal" if equal else "COSTS DIFFER")
    return 0 if equal else 1


def cases_mode(sides: dict, pairs: int, seed: int) -> int:
    configs = {
        side: importlib.import_module(f"{scenarios.__package__}.config").build_config(overrides={"cases.seed": seed})
        for side, scenarios in sides.items()
    }
    print(f"{'case':>6} {'parent_s':>9} {'change_s':>9} {'ratio':>7} {'q1':>7} {'q3':>7} {'won':>6}")
    totals = {"parent": np.zeros(pairs), "change": np.zeros(pairs)}
    worst, where = 0.0, None
    for case_id in CASES:
        runs = {
            side: (lambda s=scenarios, c=configs[side]: s.run_case(case_id, c, CONTROLLERS))
            for side, scenarios in sides.items()
        }
        seconds, reports = interleave(runs, pairs)
        for side in totals:
            totals[side] += seconds[side]
        print(row(str(case_id), seconds))
        for want, got in zip(reports["parent"].results, reports["change"].results):
            for channel in want.trajectory.CHANNELS + ("dpm1", "dpm2"):
                a, b = getattr(want.trajectory, channel), getattr(got.trajectory, channel)
                error = float(np.max(np.abs(b - a)) / max(np.max(np.abs(a)), 1e-300))
                if not error <= worst:  # NaN counts as the worst
                    worst, where = error, f"case {case_id} {want.name} {channel}"
    print(row("all", {side: list(v) for side, v in totals.items()}))
    print(f"largest channel difference over its peak: {worst:.3g}" + (f" ({where})" if where else ""))
    return 0 if worst <= CHANNEL_TOLERANCE else 1


def flat(metrics) -> dict:
    """A sweep cell's Metrics by name: the four indices, then each signal's statistics."""
    out = {key: value for key, value in vars(metrics).items() if key != "signals"}
    for signal, stats in metrics.signals.items():
        out.update({f"{signal}.{key}": value for key, value in vars(stats).items()})
    return out


def sweep_mode(sides: dict, pairs: int, seed: int) -> int:
    configs = {
        side: importlib.import_module(f"{scenarios.__package__}.config").build_config()
        for side, scenarios in sides.items()
    }
    print(f"{'sets':>6} {'parent_s':>9} {'change_s':>9} {'ratio':>7} {'q1':>7} {'q3':>7} {'won':>6}")
    worst, where, diverged_alike = 0.0, None, True
    for sets in SWEEP_SETS:
        runs = {
            side: (lambda s=scenarios, c=configs[side]: s.sensitivity_sweep(s.table6_specs(), c, sets))
            for side, scenarios in sides.items()
        }
        seconds, reports = interleave(runs, pairs)
        print(row(str(len(sets)), seconds))
        for want, got in zip(reports["parent"].rows, reports["change"].rows):
            for name in sets:
                a, b = want.metrics[name], got.metrics[name]
                if a is None or b is None:
                    diverged_alike &= a is b
                    continue
                b = flat(b)
                for key, x in flat(a).items():
                    y = b[key]  # settled flags and a None t_s are not finite metrics
                    if all(isinstance(v, float) and math.isfinite(v) for v in (x, y)):
                        error = abs(y - x) / max(abs(x), 1e-300)
                        if error > worst:
                            worst, where = error, f"{want.parameter} {want.delta:+g} {name} {key}"
    print(f"largest relative difference of a finite metric: {worst:.3g}" + (f" ({where})" if where else ""))
    print("None cells equal" if diverged_alike else "NONE CELLS DIFFER")
    return 0 if diverged_alike else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--mode", choices=("objective", "cases", "sweep"), default="objective")
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.pairs < 15:
        parser.error("--pairs must be at least 15")

    sides = {"parent": load(args.parent, "cdmlfc_parent"), "change": load(args.change, "cdmlfc_change")}
    mode = {"objective": objective_mode, "cases": cases_mode, "sweep": sweep_mode}[args.mode]
    return mode(sides, args.pairs, args.seed)


if __name__ == "__main__":
    sys.exit(main())
