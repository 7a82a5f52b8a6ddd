"""Write perfbench/baseline.json from the results files of finished runs.

    python3 perfbench/make_baseline.py --seeds 401-410 --traced-seed 21

Reads perfbench/out/results/<workload>-seed<N>-trace0.json for every
workload and seed in the range, and <workload>-seed<T>-trace1.json for the
traced seed, so run those first with --seconds set to BENCHMARK.json's
run_seconds. For each end-to-end metric it stores the median, quartiles and
spread ((q3 - q1) / median) over the seeds, in reference seconds as
reported and in wall seconds as the results files also record them.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "out" / "results"
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def summary(values: list[float], unit: str | None = None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    row = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}
    return {**row, "unit": unit} if unit else row


def load(workload: str, seed: int, trace: int) -> dict:
    return json.loads((RESULTS / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    parser.add_argument("--traced-seed", type=int, required=True)
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(first, last + 1))

    base: dict = {
        "about": (
            f"{len(seeds)} untraced runs per workload (seeds {first}-{last}, --seconds {BENCHMARK['run_seconds']}) and one "
            f"traced run per workload (seed {args.traced_seed}), measured before any optimization of the toolkit. "
            "end_to_end holds the metrics as reported, times in reference seconds; wall holds the same "
            "quantities in wall seconds (less the speed sampler's time). spread = (q3 - q1) / median."
        ),
        "seeds": seeds,
        "run_seconds": BENCHMARK["run_seconds"],
        "end_to_end": {},
        "wall": {},
        "per_layer": {},
        "layer_share_pct": {},
    }
    for w in (w["name"] for w in BENCHMARK["workloads"]):
        runs = [load(w, s, 0) for s in seeds]
        names = [m["name"] for m in BENCHMARK["end_to_end"]]
        base["end_to_end"][w] = {
            k: summary([r["metrics"][k]["value"] for r in runs], runs[0]["metrics"][k]["unit"]) for k in names
        }
        base["wall"][w] = {k: summary([r["extra"]["wall"][k] for r in runs]) for k in runs[0]["extra"]["wall"]}
        traced = load(w, args.traced_seed, 1)
        base["per_layer"][w] = {k: m["value"] for k, m in traced["metrics"].items()}
        base["layer_share_pct"][w] = traced["extra"]["layer_share_pct"]
        prov = runs[0]["provenance"]
        base["git_sha"] = prov["git_sha"]
        base["src_sha256"] = prov["src_sha256"]
        base["machine"] = {k: prov[k] for k in ("nproc", "cpus_usable", "cpu_model", "python", "numpy", "scipy", "blas_env")}
    (HERE / "baseline.json").write_text(json.dumps(base, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
