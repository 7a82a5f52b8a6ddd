"""Benchmark of the cdmlfc toolkit (see perfbench/README.md).

    python3 perfbench/run.py --workload {tune,cases} --seed N --seconds S --trace {0,1}

Run from the repository root. The run measures set-up in fresh interpreters,
then drives ``cdmlfc.cli.main`` in this process for S seconds of whole
rounds, checking every command's outputs. With --trace 0 it reports the
end-to-end metrics, whose times are in reference seconds: wall time scaled
by the host's speed, sampled with a fixed kernel while it runs (speed.py). With --trace 1 each round runs a second time, right
after its untraced run, with spans at every layer boundary; the run reports
the per-layer metrics and the tracing overhead (traced minus untraced time
of the same rounds). The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One process and no extra threads: the small linear solves gain nothing
# from BLAS threads, and a second busy thread would share two cores with
# the run being measured.
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_PROBES = 3

# Set-up as a user pays it: a fresh interpreter imports the CLI and loads
# the workload's config, then reports the parts on stdout. scipy.signal
# (with numpy) is imported first to show its share of the import.
PROBE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import scipy.signal
t1 = time.perf_counter()
import cdmlfc.cli
t2 = time.perf_counter()
cdmlfc.cli.load_config(sys.argv[2])
t3 = time.perf_counter()
print(json.dumps({"scipy_signal_s": t1 - t0, "import_s": t2 - t0, "config_s": t3 - t2}), flush=True)
"""

def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="cdmlfc benchmark")
    parser.add_argument("--workload", required=True, choices=("tune", "cases"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(cfg_path: str) -> list[dict]:
    """Spawn-to-ready time of SETUP_PROBES fresh interpreters, one at a time,
    each with the host's speed sampled while it started (its "scale")."""
    import speed

    sampler = speed.Sampler()
    probes = []
    for _ in range(SETUP_PROBES):
        with sampler:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-c", PROBE, str(SRC), cfg_path],
                cwd=ROOT,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            try:
                line = proc.stdout.readline()
            finally:
                t1 = time.perf_counter()
        try:
            _, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe failed with code {proc.returncode}: {err.strip()}")
        probe = json.loads(line)
        probe.update(setup_s=t1 - t0, start=t0, end=t1)
        probes.append(probe)
    # the sampler's own time is not subtracted: it ran beside the child, not in it
    sampler.annotate(probes)
    return probes


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git; None outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, rounds: int) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
    }


def run_rounds(workload, phases, seconds: float) -> tuple[list[list], int]:
    """Whole rounds until the first phase has spent `seconds` (and at least
    workload.min_rounds rounds), then the workload's end-of-run checks.

    `phases` is a list of (context, probes); each round runs once in every
    phase, in turn, so that phases see the same inputs close in time. The
    speed sampler runs during the first phase only; its spans get the
    sampler's annotations and their round's index.
    Returns each phase's entries and the number of rounds.
    """
    import spans
    import speed

    entries: list[list] = [[] for _ in phases]
    sampler = speed.Sampler()
    spent = 0.0
    done = 0
    while done < workload.min_rounds or spent < seconds:
        for k, (ctx, probes) in enumerate(phases):
            first = len(ctx.tracer.spans)
            t0 = time.perf_counter()
            with spans.Instrumentation(ctx.tracer, probes), sampler if k == 0 else contextlib.nullcontext():
                entries[k] += workload.round(ctx, done)
            if k == 0:
                spent += time.perf_counter() - t0
                for s in ctx.tracer.spans[first:]:
                    s["round"] = done
        done += 1
        if done == workload.min_rounds:
            for ctx, _ in phases:
                ctx.best_js = list(ctx.js)
    sampler.annotate(phases[0][0].tracer.spans)
    workload.finish()
    return entries, done


def busy_seconds(span_list, scaled: bool = False) -> float:
    """Time in CLI commands: wall seconds, less the speed sampler's time in
    untraced spans, or reference seconds if `scaled`."""
    import speed

    return sum(
        speed.net_s(s, scaled) if "sampler_s" in s else s["end"] - s["start"]
        for s in span_list
        if s["name"] == "cli.main"
    )


def work_done(workload, span_list) -> tuple[float, int]:
    """(plant-seconds simulated summed over lanes, evaluations scored)."""
    plant_s = sum(s["lanes"] * s["horizon"] for s in span_list if s["name"] == "sim.batch")
    plant_s += sum(s["horizon"] for s in span_list if s["name"] == "sim.scalar")
    if workload.name == "tune":
        evals = sum(s["candidates"] for s in span_list if s["name"] == "scenarios.objective")
    else:
        evals = sum(1 for s in span_list if s["name"] == "sim.scalar")
    return plant_s, evals


def tail_percentile(samples: list[float]) -> dict:
    """The highest of p90/p99 with at least ten samples beyond it, if any."""
    n = len(samples)
    for q in (99, 90):
        if n * (100 - q) / 100 >= 10:
            return {f"op_p{q}_s": statistics.quantiles(samples, n=100)[q - 1]}
    return {"op_p90_s": None, "op_p90_note": f"{n} samples: fewer than 10 beyond p90"}


def count(entries) -> tuple[int, int]:
    attempted = sum(max(1, e.ops) for e in entries)
    failed = sum(max(1, e.ops) for e in entries if e.errors)
    return attempted, failed


def run(args, workdir: Path) -> dict:
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    probes = measure_setup(workload.config(workdir, args.seed))

    import cdmlfc
    import cdmlfc.cli as cli

    if Path(cdmlfc.__file__).resolve().parent != SRC / "cdmlfc":
        raise RuntimeError(f"imported cdmlfc from {cdmlfc.__file__}, not from {SRC}")
    workload.warm_up(cli, workdir)

    ctx = workloads.Context(cli, spans.Tracer(), workdir, args.seed)
    phases = [(ctx, spans.OPERATION_PROBES)]
    if args.trace == 1:
        # every round again, right after its untraced run, with a span at
        # every layer boundary
        replay = workloads.Context(cli, spans.Tracer(), workdir, args.seed)
        phases.append((replay, spans.LAYER_PROBES))
    per_phase, rounds = run_rounds(workload, phases, args.seconds)
    entries = [e for phase in per_phase for e in phase]
    # no J at all when every round failed; the result is then incorrect anyway
    best_j = statistics.median(ctx.best_js or [0.0])
    groups = workloads.op_seconds(workload, ctx.tracer.spans)
    ref_groups = workloads.op_seconds(workload, ctx.tracer.spans, scaled=True)
    ops = [t for g in ref_groups.values() for t in g]
    busy = busy_seconds(ctx.tracer.spans)
    ref_busy = busy_seconds(ctx.tracer.spans, scaled=True)
    plant_s, evals = work_done(workload, ctx.tracer.spans)
    scales = [s["scale"] for s in ctx.tracer.spans if s["name"] == "cli.main"]
    by_round: dict[int, list] = {}
    for s in ctx.tracer.spans:
        by_round.setdefault(s["round"], []).append(s)
    # the median over rounds: a round whose speed the sampler misjudges moves it little
    round_rates = [work_done(workload, r)[1] / busy_seconds(r, scaled=True) for r in by_round.values()]
    extra = {
        "op_samples": len(ops),
        **tail_percentile(ops),
        "best_j": best_j,
        "rounds": rounds,
        "busy_s": busy,
        "ref_busy_s": ref_busy,
        "plant_s": plant_s,
        "evals": evals,
        # the same quantities in wall seconds (less the speed sampler's), unscaled
        "wall": {
            "setup_s": statistics.median(p["setup_s"] for p in probes),
            "op_p50_s": workloads.op_p50(groups),
            "evals_per_s": evals / busy,
        },
        "sampler_pct": 100.0 * sum(s["sampler_s"] for s in ctx.tracer.spans if s["name"] == "cli.main") / busy,
        "scale_min": min(scales + [p["scale"] for p in probes]),
        "scale_max": max(scales + [p["scale"] for p in probes]),
    }

    # everything measured untraced; BENCHMARK.json says which list each is in
    untraced = {
        "setup_s": statistics.median(p["setup_s"] * p["scale"] for p in probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_p50_s": workloads.op_p50(ref_groups),
        "plant_s_per_s": plant_s / busy,
        "evals_per_s": statistics.median(round_rates),
    }
    extra["untraced"] = untraced
    units = declared_units("end_to_end" if args.trace == 0 else "per_layer")
    metrics = {k: v for k, v in untraced.items() if k in units}
    traced = None
    if args.trace == 1:
        if replay.js != ctx.js:
            per_phase[1][0].fail(f"traced replay gave J values {replay.js} instead of {ctx.js}")
        traced = replay.tracer.spans
        traced_busy = busy_seconds(traced)
        metrics.update(spans.layer_metrics(traced))
        metrics["cli.import_s"] = statistics.median(p["import_s"] for p in probes)
        metrics["cli.import_scipy_signal_s"] = statistics.median(p["scipy_signal_s"] for p in probes)
        metrics["config.load_s"] = statistics.median(p["config_s"] for p in probes)
        metrics["best_j"] = best_j
        metrics["trace.spans"] = len(traced)
        metrics["trace.span_us"] = spans.span_cost_us()
        metrics["trace.overhead_s"] = traced_busy - busy
        metrics["trace.overhead_pct"] = 100.0 * (traced_busy / busy - 1.0)
        extra["layers"] = spans.layer_table(traced)
        extra["layer_share_pct"] = {k: 100.0 * v["self_s"] / traced_busy for k, v in extra["layers"].items()}

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    attempted, failed = count(entries)
    extra["failed_ratio"] = failed / attempted
    extra["failures"] = [f"{e.label}: {why}" for e in entries for why in e.errors]
    return {
        "provenance": provenance(args, rounds),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "extra": extra,
        "attempted": attempted,
        "failed": failed,
        "spans": traced,
    }


def declared_units(kind: str) -> dict:
    """{name: unit} of the metrics BENCHMARK.json declares under `kind`."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def write_outputs(args, result: dict) -> Path:
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / f"{stem}.json"
    body = {k: v for k, v in result.items() if k != "spans"}
    path.write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")
    if result["spans"] is not None:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        t0 = min((s["start"] for s in result["spans"]), default=0.0)
        span_list = [dict(s, start=s["start"] - t0, end=s["end"] - t0) for s in result["spans"]]
        (OUT / "traces" / f"{stem}.json").write_text(json.dumps({"spans": span_list}) + "\n")
    return path


def print_summary(result: dict, path: Path) -> None:
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']}")
    extra = result["extra"]
    for name, value in extra["wall"].items():
        print(f"  {'wall ' + name:44s} {value:>16.6g}")
    for key in ("sampler_pct", "scale_min", "scale_max", "op_samples", "op_p90_s", "op_p99_s", "op_p90_note", "best_j", "failed_ratio", "rounds"):
        if key in extra:
            print(f"  {key:44s} {extra[key]!s:>16}")
    for layer, row in extra.get("layers", {}).items():
        share = extra["layer_share_pct"][layer]
        print(f"  layer {layer:12s} self {row['self_s']:10.4f} s  {share:6.2f} %  spans {row['spans']}")
    for why in extra["failures"]:
        print(f"FAILED {why}", file=sys.stderr)
    print(f"results written to {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cdmlfc" / "cli.py").is_file():
        print(f"error: no cdmlfc sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print_summary(result, write_outputs(args, result))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
