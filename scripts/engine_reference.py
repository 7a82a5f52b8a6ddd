"""Regenerate the recorded simulator reference (tests/data/engine_reference.json).

The record pins the plant physics and both simulators: IAE and ISE
of cases 2-5 for the cdm_opt, cdm, pid and pi controller sets (the one-lane
`simulate` path), and the `TuningObjective().batch` costs of one seeded
50-candidate generation drawn uniformly in `OPT_BOUNDS` (the lane-batched
`BatchCdmSimulator.run_iae` path). Before writing, every live objective
cost is checked against the IAE of a one-lane `simulate` run of the
objective's own model, and the script refuses to write if any differs by
more than rel 1e-12. `tests/test_sim.py` recomputes every value and requires
agreement at rel 1e-12. Run it again only when a change is meant to alter
the simulated physics, and say so where the change is described. With
--objective-only it keeps the recorded case indices and re-records only the
objective costs, for a change that moves the costs in their last bits while
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
    for i, (x, cost) in enumerate(zip(xs, costs)):
        if cost >= 1e6:
            continue
        iae = one_lane_iae(objective, x)
        if not math.isclose(cost, iae, rel_tol=1e-12):
            sys.exit(f"not written: objective cost {i} is {float(cost)!r}, its one-lane simulate IAE {iae!r}")
    record = {
        "cases": cases,
        "objective": {
            "seed": OBJECTIVE_SEED,
            "candidates": xs.tolist(),
            "costs": costs.tolist(),
        },
    }
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    live = int(np.sum(costs < 1e6))
    kept = "kept the recorded" if objective_only else "recorded"
    print(f"wrote {out}: {kept} {len(CASES) * len(CONTROLLERS)} case runs, {live}/{len(costs)} live candidates")


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--objective-only"]):
        sys.exit("usage: engine_reference.py [--objective-only]")
    main(objective_only=bool(sys.argv[1:]))
