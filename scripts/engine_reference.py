"""Regenerate the recorded simulator reference (tests/data/engine_reference.json).

The record pins the plant physics and both simulators: IAE and ISE
of cases 2-5 for the cdm_opt, cdm, pid and pi controller sets (the one-lane
`simulate` path); for one seeded 50-candidate generation drawn uniformly in
`OPT_BOUNDS`, the `TuningObjective().batch` costs (penalties, loop-unstable
proxies and closed-form IAEs) and, for its design-stable candidates
(`design_stable`, their indices), the IAEs of one
`BatchCdmSimulator.run_iae` call on the objective's model (`run_iae`, the
exact lanes engine). Before writing, every recorded `run_iae` value is
checked against the IAE of a one-lane `simulate` run of the objective's own
model, and the script refuses to write if any differs by more than rel
1e-12. `tests/test_sim.py` recomputes every value and requires agreement at
rel 1e-12. Run it again only when a change is meant to alter the simulated
physics or the objective's costing, and say so where the change is
described. With --objective-only it keeps the recorded case indices and
re-records only the objective, for a change that moves the objective while
the case indices stay within the tests' rel 1e-12.

    PYTHONPATH=src python3 scripts/engine_reference.py [--objective-only]
"""

import json
import math
import pathlib
import sys

import numpy as np

from cdmlfc import defaults
from cdmlfc.cdm import synthesize
from cdmlfc.config import build_config
from cdmlfc.errors import SingularSystem
from cdmlfc.plant import derive_design_plant
from cdmlfc.scenarios import TuningObjective, indices, run_case
from cdmlfc.sim import SystemModel, simulate

CASES = (2, 3, 4, 5)
CONTROLLERS = ("cdm_opt", "cdm", "pid", "pi")
OBJECTIVE_SEED = 2024
OBJECTIVE_CANDIDATES = 50


def objective_candidates() -> np.ndarray:
    bounds = np.array(defaults.OPT_BOUNDS)
    rng = np.random.default_rng(OBJECTIVE_SEED)
    return bounds[:, 0] + rng.random((OBJECTIVE_CANDIDATES, len(bounds))) * (bounds[:, 1] - bounds[:, 0])


def one_lane_iae(objective: TuningObjective, x: np.ndarray) -> float:
    """IAE of a one-lane `simulate` run of candidate x on the objective's model."""
    plants = [derive_design_plant(area, objective.tie) for area in objective.areas]
    pair = tuple(synthesize(plant, gains) for plant, gains in zip(plants, objective.decode(x)))
    model = SystemModel(objective.eval_areas, objective.tie, objective.nonlin, pair)
    return indices(simulate(model, objective.eval_loads, dt=objective.dt, horizon=objective.horizon)).iae


def main(objective_only: bool = False):
    out = pathlib.Path(__file__).resolve().parents[1] / "tests" / "data" / "engine_reference.json"
    if objective_only:
        cases = json.loads(out.read_text())["cases"]
    else:
        cases = {}
        for case_id in CASES:
            report = run_case(case_id, build_config(), CONTROLLERS)
            cases[str(case_id)] = {r.name: {"iae": r.metrics.iae, "ise": r.metrics.ise} for r in report.results}
    xs = objective_candidates()
    objective = TuningObjective()
    costs = objective.batch(xs)
    plants = [derive_design_plant(area, objective.tie) for area in objective.areas]
    design_stable, pairs = [], []
    for i, x in enumerate(xs):
        try:
            pair = tuple(synthesize(plant, gains) for plant, gains in zip(plants, objective.decode(x)))
        except SingularSystem:
            continue
        if all(c.stable for c in pair):
            design_stable.append(i)
            pairs.append(pair)
    run_iae = objective._sim.run_iae(pairs)
    for i, iae in zip(design_stable, run_iae):
        one_lane = one_lane_iae(objective, xs[i])
        if not math.isclose(iae, one_lane, rel_tol=1e-12):
            sys.exit(f"not written: run_iae of candidate {i} is {float(iae)!r}, its one-lane simulate IAE {one_lane!r}")
    record = {
        "cases": cases,
        "objective": {
            "seed": OBJECTIVE_SEED,
            "candidates": xs.tolist(),
            "costs": costs.tolist(),
            "design_stable": design_stable,
            "run_iae": run_iae.tolist(),
        },
    }
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    kept = "kept the recorded" if objective_only else "recorded"
    counts = ", ".join(f"{n} {outcome}" for outcome, n in objective.counts.items() if n)
    print(f"wrote {out}: {kept} {len(CASES) * len(CONTROLLERS)} case runs; objective {counts}")


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--objective-only"]):
        sys.exit("usage: engine_reference.py [--objective-only]")
    main(objective_only=bool(sys.argv[1:]))
