"""The benchmark's workloads: tune and cases.

Each workload drives the real entry point, ``cdmlfc.cli.main``, with a JSON
config it writes from the benchmark seed, and checks every command's
outputs. A workload runs in rounds; the harness repeats rounds until the
run's time is spent.

- tune: one round is one ``cdmlfc optimize`` repeat (50-candidate
  generations, dt = 0.02 s, 60 s horizon, no dead band). An operation is
  one WCA generation. Only this workload runs the batched simulator, the
  tuning objective, WCA and per-candidate synthesis.
- cases: one round is ``cdmlfc case 2``, ``3``, ``4`` and ``5`` with all four
  controller sets. An operation is one command. This is the scalar engine
  at dt = 0.01 s with the dead-zone governor dead band and controller
  orders 1, 2 and q, writing about 1.4 MB of trajectory CSV per 100 s run.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import shutil
import statistics
import traceback
from pathlib import Path

import numpy as np

CONTROLLERS = "cdm_opt,cdm,pid,pi"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
REL_REFERENCE = 1e-9  # report values against the reference outputs
REL_RESCORE = 1e-12  # a fresh objective against the reported J
REL_CSV = 1e-7  # indices recomputed from 9-digit CSV samples

TUNE_GENERATIONS = 5  # WCA iterations per repeat, after the initial population
TUNE_MIN_ROUNDS = 3  # best_j is the median over exactly this many repeats


@functools.cache
def load_reference() -> dict:
    """Case 2 and case 3 results recorded by make_reference.py."""
    return json.loads(REFERENCE.read_text())


def wca_seed(seed: int, index: int) -> int:
    """The WCA seed of tune round `index`, derived from the benchmark seed."""
    digest = hashlib.sha256(f"tune:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def _write_config(path: Path, payload: dict) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return str(path)


def _close(a: float, b: float, rel: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= rel * max(abs(a), abs(b))


def compare_tree(got, want, rel: float, path: str = "") -> list[str]:
    """Paths where two JSON trees differ; floats compared to `rel` relative."""
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in compare_tree(got[k], want[k], rel, f"{path}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in compare_tree(g, w, rel, f"{path}[{i}]")]
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return [] if _close(float(got), want, rel) else [f"{path}: {got!r} != {want!r}"]
    return [] if got == want and type(got) is type(want) else [f"{path}: {got!r} != {want!r}"]


class Entry:
    """Operations of one command and whether they failed."""

    def __init__(self, label: str, ops: int = 1):
        self.label = label
        self.ops = ops
        self.errors: list[str] = []

    def fail(self, why: str) -> None:
        self.errors.append(why)


class Context:
    """What a round needs: the CLI, the span store and a scratch directory."""

    def __init__(self, cli, tracer, workdir: Path, seed: int):
        self.cli = cli
        self.tracer = tracer
        self.workdir = workdir
        self.seed = seed
        self.js: list[float] = []  # deterministic J values, in round order
        self.best_js: list[float] = []  # the J values of the first min_rounds rounds

    def run_cli(self, argv: list[str], tag: str, entry: Entry) -> bool:
        """One CLI command, timed as a `cli.main` span; False if it failed."""
        index = len(self.tracer.spans)
        try:
            rc = self.tracer.call("cli.main", self.cli.main, (argv,), {})
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            entry.fail(f"{' '.join(argv[:2])} raised:\n{traceback.format_exc()}")
            rc = None
        finally:
            self.tracer.spans[index]["tag"] = tag
        if rc is not None and rc != 0:
            entry.fail(f"{' '.join(argv[:2])} exited with {rc}")
        return rc == 0

    def check(self, entry: Entry, check, *args) -> None:
        """Run one output check; an exception (a missing or malformed
        output file) fails the entry instead of the run."""
        try:
            check(entry, *args)
        except Exception:
            entry.fail(f"check raised:\n{traceback.format_exc()}")


class Workload:
    """A workload runs in rounds of CLI commands; its operations are the
    spans named in `op_span_names`."""

    name = ""
    op_span_names = ("cli.main",)
    min_rounds = 1

    def config(self, workdir: Path, seed: int, index: int = 0) -> str:
        """Write the config of round `index` and return its path."""
        raise NotImplementedError

    def warm_up(self, cli, workdir: Path) -> None:
        """One tiny command through the same code, before anything is timed."""
        raise NotImplementedError

    def round(self, ctx: Context, index: int) -> list[Entry]:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that run once, after the last round."""


class Tune(Workload):
    name = "tune"
    op_span_names = ("wca.initialize", "wca.step")
    min_rounds = TUNE_MIN_ROUNDS

    def __init__(self):
        self._pending: list[tuple[Entry, str, list[float], float]] = []

    def config(self, workdir: Path, seed: int, index: int = 0) -> str:
        return _write_config(
            workdir / f"tune{index}.json",
            {
                "optimizer": {
                    "seed": wca_seed(seed, index),
                    "n_pop": 50,
                    "max_it": TUNE_GENERATIONS,
                    "objective": {"dt": 0.02, "horizon": 60.0, "gdb_width": 0.0},
                }
            },
        )

    def warm_up(self, cli, workdir: Path) -> None:
        cfg = _write_config(
            workdir / "warmup.json",
            {"optimizer": {"n_pop": 8, "n_sr": 2, "max_it": 1, "objective": {"horizon": 1.0}}},
        )
        cli.main(["optimize", "--config", cfg, "--out", str(workdir / "warmup")])

    def round(self, ctx: Context, index: int) -> list[Entry]:
        cfg = self.config(ctx.workdir, ctx.seed, index)
        out = ctx.workdir / f"tune-round{index}"
        entry = Entry(f"optimize seed {wca_seed(ctx.seed, index)}", ops=0)
        first = len(ctx.tracer.spans)
        ok = ctx.run_cli(["optimize", "--config", cfg, "--out", str(out), "--repeats", "1"], "optimize", entry)
        entry.ops = sum(1 for s in ctx.tracer.spans[first:] if s["name"] in self.op_span_names)
        if ok:
            ctx.check(entry, self._check, out, cfg, wca_seed(ctx.seed, index), ctx)
        shutil.rmtree(out, ignore_errors=True)
        return [entry]

    def _check(self, entry: Entry, out: Path, cfg: str, seed: int, ctx: Context) -> None:
        with open(out / f"convergence_seed{seed}.csv") as fh:
            history = [float(row["best_cost"]) for row in csv.DictReader(fh)]
        if len(history) != TUNE_GENERATIONS + 1:
            entry.fail(f"history has {len(history)} entries, expected {TUNE_GENERATIONS + 1}")
        if any(b > a for a, b in zip(history, history[1:])):
            entry.fail(f"best-cost history increases: {history}")
        best = json.loads((out / "best_gains.json").read_text())
        if not _close(best["j"], history[-1], 1e-8):
            entry.fail(f"best_gains j {best['j']!r} != final history {history[-1]!r}")
        ctx.js.append(best["j"])
        self._pending.append((entry, cfg, best["vector"], best["j"]))

    def finish(self) -> None:
        """Re-score every reported best vector with a fresh objective."""
        if not self._pending:
            return
        from cdmlfc.config import load_config
        from cdmlfc.plant import NonlinearityConfig
        from cdmlfc.scenarios import TuningObjective

        cfg = load_config(self._pending[0][1])
        s = cfg.objective_settings
        objective = TuningObjective(
            areas=cfg.areas,
            tie=cfg.tie,
            nonlin=NonlinearityConfig(
                grc_rate=float(s["grc_rate"]), gdb_width=float(s["gdb_width"]), gdb_mode=str(s["gdb_mode"])
            ),
            perturb=float(s["perturb"]),
            dt=float(s["dt"]),
            horizon=float(s["horizon"]),
            bounds=cfg.opt_bounds,
        )
        costs = objective.batch(np.array([vec for _, _, vec, _ in self._pending]))
        for (entry, _, _, j), cost in zip(self._pending, costs):
            if not _close(float(cost), j, REL_RESCORE):
                entry.fail(f"re-scored J {float(cost)!r} != reported {j!r}")
        self._pending.clear()


class Cases(Workload):
    name = "cases"
    case_ids = (2, 3, 4, 5)

    def config(self, workdir: Path, seed: int, index: int = 0) -> str:
        return _write_config(
            workdir / "cases.json",
            {"cases": {"seed": seed}, "solver": {"dt": 0.01, "controller_dt": 0.01}},
        )

    def warm_up(self, cli, workdir: Path) -> None:
        cli.main(["case", "2", "--horizon", "1", "--controllers", CONTROLLERS, "--out", str(workdir / "warmup")])

    def round(self, ctx: Context, index: int) -> list[Entry]:
        cfg = self.config(ctx.workdir, ctx.seed)
        entries = []
        for case_id in self.case_ids:
            out = ctx.workdir / f"case{case_id}"
            entry = Entry(f"case {case_id}")
            argv = ["case", str(case_id), "--config", cfg, "--controllers", CONTROLLERS, "--out", str(out)]
            if ctx.run_cli(argv, f"case{case_id}", entry):
                ctx.check(entry, self._check, case_id, out, ctx)
            entries.append(entry)
        return entries

    def _check(self, entry: Entry, case_id: int, out: Path, ctx: Context) -> None:
        report = json.loads((out / "report.json").read_text())
        ctx.js.append(min(r["iae"] for r in report["results"].values()))
        if case_id in (2, 3):
            want = load_reference()[f"case{case_id}"]
            for why in compare_tree(report["results"], want, REL_REFERENCE)[:5]:
                entry.fail(f"case {case_id} differs from the reference at results{why}")
            return
        with open(out / "report.csv") as fh:
            rows = list(csv.DictReader(fh))
        if [r["controller"] for r in rows] != CONTROLLERS.split(","):
            entry.fail(f"report.csv rows {[r['controller'] for r in rows]}")
        for row in rows:
            path = out / f"trajectory_{row['controller']}.csv"
            with open(path) as fh:
                header = fh.readline().strip().split(",")
            data = np.loadtxt(path, delimiter=",", skiprows=1)
            t, df1, df2 = (data[:, header.index(c)] for c in ("t", "df1", "df2"))
            iae = np.trapezoid(np.abs(df1), t) + np.trapezoid(np.abs(df2), t)
            ise = np.trapezoid(df1**2, t) + np.trapezoid(df2**2, t)
            for key, value in (("iae", iae), ("ise", ise)):
                if not _close(float(value), float(row[key]), REL_CSV):
                    entry.fail(f"case {case_id} {row['controller']} {key}: CSV gives {value!r}, report {row[key]}")


WORKLOADS = {w.name: w for w in (Tune, Cases)}


def op_seconds(workload, spans: list[dict], scaled: bool = False) -> dict[str, list[float]]:
    """Operation times of untraced spans, grouped by command (one group for
    tune): wall seconds less the speed sampler's, or reference seconds if
    `scaled`."""
    import speed

    groups: dict[str, list[float]] = {}
    for s in spans:
        if s["name"] in workload.op_span_names:
            groups.setdefault(s.get("tag", workload.name), []).append(speed.net_s(s, scaled))
    return groups


def op_p50(groups: dict[str, list[float]]) -> float:
    """Median operation time; with several command kinds (cases), the mean
    of the per-command medians, so that the statistic does not sit on the
    edge between two kinds of command of different length."""
    return statistics.fmean(statistics.median(v) for v in groups.values())
