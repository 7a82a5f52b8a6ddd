"""A/B the tuning objective's engine of two checkouts in one process.

    python3 scripts/engine_ab.py PARENT CHANGE [--pairs N] [--seed S]

PARENT and CHANGE are checkout roots. Each one's `src/cdmlfc` is imported
under its own package name, so both run in this one interpreter on the same
numpy. The script draws design-stable candidates (uniform in the tuning
box, kept when `synthesize` gives a stable design in both areas, so every
one is simulated) and scores the same candidates with
`TuningObjective.batch` at 1, 18 and 50 lanes. For each lane count it runs
N pairs (default 20, at least 15), the two sides interleaved and the side
that goes first alternating pair by pair, each timed in CPU seconds
(`time.process_time`). It exits non-zero unless both sides return the same
costs byte for byte, and prints per lane count each side's median CPU
seconds, the median of the pairwise ratios CHANGE / PARENT with their
quartiles, and how many pairs CHANGE won.
"""

import argparse
import importlib
import importlib.util
import pathlib
import statistics
import sys
import time

import numpy as np

LANES = (1, 18, 50)


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


def cpu_seconds(objective, xs: np.ndarray) -> tuple[float, np.ndarray]:
    start = time.process_time()
    costs = objective.batch(xs)
    return time.process_time() - start, costs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.pairs < 15:
        parser.error("--pairs must be at least 15")

    parent, change = load(args.parent, "cdmlfc_parent"), load(args.change, "cdmlfc_change")
    objectives = {"parent": parent.TuningObjective(), "change": change.TuningObjective()}
    candidates = design_stable(parent, objectives["parent"], np.random.default_rng(args.seed), max(LANES))

    print(f"{'lanes':>5} {'parent_s':>9} {'change_s':>9} {'ratio':>7} {'q1':>7} {'q3':>7} {'won':>6}")
    equal = True
    for lanes in LANES:
        xs = candidates[:lanes]
        for objective in objectives.values():
            objective.batch(xs)  # warm-up
        seconds = {"parent": [], "change": []}
        for i in range(args.pairs):
            costs = {}
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                spent, costs[side] = cpu_seconds(objectives[side], xs)
                seconds[side].append(spent)
            equal &= costs["parent"].tobytes() == costs["change"].tobytes()
        ratios = [c / p for p, c in zip(seconds["parent"], seconds["change"])]
        q1, median, q3 = statistics.quantiles(ratios, n=4)
        won = sum(r < 1.0 for r in ratios)
        print(
            f"{lanes:>5} {statistics.median(seconds['parent']):>9.4f} {statistics.median(seconds['change']):>9.4f}"
            f" {median:>7.3f} {q1:>7.3f} {q3:>7.3f} {won:>3}/{args.pairs}"
        )
    print("costs byte-equal" if equal else "COSTS DIFFER")
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
