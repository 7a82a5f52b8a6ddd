"""Regenerate the recorded optimizer benchmark pilot (tests/data/wca_pilot.json).

The acceptance thresholds (sphere 2-D median < 1e-3, Rosenbrock 2-D median
< 1e-1 over seeds 0..9 at default settings) were frozen from this run. The
record holds the default WcaConfig, chance evaporation (evap_prob = 0.1)
included; run it again whenever a WCA default changes.
"""

import json
import pathlib

import numpy as np

from cdmlfc.wca import WcaConfig, minimize


def sphere(X):
    return np.sum(X * X, axis=1)


def rosenbrock(X):
    return 100.0 * (X[:, 1] - X[:, 0] ** 2) ** 2 + (1.0 - X[:, 0]) ** 2


def main():
    seeds = list(range(10))
    record = {}
    for name, fn, box in [
        ("sphere_2d", sphere, (-5.12, 5.12)),
        ("rosenbrock_2d", rosenbrock, (-2.048, 2.048)),
    ]:
        finals = []
        for seed in seeds:
            finals.append(minimize(fn, [box, box], WcaConfig(seed=seed))[1])
        record[name] = {
            "bounds": list(box),
            "seeds": seeds,
            "final_costs": finals,
            "median_final_cost": float(np.median(finals)),
            "threshold": 1e-3 if name == "sphere_2d" else 1e-1,
        }
    out = pathlib.Path(__file__).resolve().parents[1] / "tests" / "data" / "wca_pilot.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    for name, rec in record.items():
        print(f"{name}: median {rec['median_final_cost']:.3g} (threshold {rec['threshold']:g})")


if __name__ == "__main__":
    main()
