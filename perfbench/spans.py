"""Spans at the module boundaries of cdmlfc, recorded from outside the package.

A probe rebinds one public function or method (in every cdmlfc module that
holds a reference to it) to a wrapper that records a span: name, start, end,
parent span and a few counts taken from the call's arguments and result.
Spans are held in memory and written once, when the run ends. The finest
boundary is one call of a public function; nothing is recorded per
integrator step.
"""

from __future__ import annotations

import importlib
import inspect
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional


class Tracer:
    """In-memory span store with a parent stack (one thread, one process)."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict, describe=None):
        rec: dict[str, Any] = {"name": name, "parent": self._stack[-1] if self._stack else None}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec["start"] = time.perf_counter()
        out = None
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            if describe is not None:
                rec.update(describe(args, kwargs, out, rec.get("error")))
        return out

    def clear(self) -> None:
        self.spans.clear()


@dataclass(frozen=True)
class Probe:
    """One boundary: `owner.attr` is wrapped and its spans are called `name`."""

    name: str
    owner: str  # dotted module path, optionally followed by ":Class"
    attr: str
    describe: Optional[Callable] = None


def _resolve(owner: str):
    mod_name, _, cls_name = owner.partition(":")
    mod = importlib.import_module(mod_name)
    return getattr(mod, cls_name) if cls_name else mod


def _bindings(owner, attr: str):
    """Every (namespace, name) that refers to owner.attr.

    Modules import public functions by name (``from .sim import simulate``),
    so a module function is rebound everywhere it is referenced.
    """
    target = getattr(owner, attr)
    if inspect.isclass(owner):
        return [(owner, attr)]
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "cdmlfc" or mod_name.startswith("cdmlfc.")):
            continue
        for name, value in list(vars(mod).items()):
            if value is target:
                found.append((mod, name))
    return found


class Instrumentation:
    """Installs wrappers for a set of probes; `with` restores the originals."""

    def __init__(self, tracer: Tracer, probes: list[Probe]):
        self.tracer = tracer
        self.probes = probes
        self._saved: list[tuple[Any, str, Any]] = []

    def wrap(self, probe: Probe, fn: Callable) -> Callable:
        """`fn` recording a span named after `probe` on every call."""
        tracer = self.tracer
        name = probe.name
        describe = None
        if probe.describe is not None:
            sig = inspect.signature(fn)

            def describe(args, kwargs, out, error):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                return probe.describe(bound.arguments, out, error)

        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, describe)

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self) -> "Instrumentation":
        for probe in self.probes:
            owner = _resolve(probe.owner)
            fn = getattr(owner, probe.attr)
            wrapped = self.wrap(probe, fn)
            for ns, name in _bindings(owner, probe.attr):
                self._saved.append((ns, name, getattr(ns, name)))
                setattr(ns, name, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            ns, name, original = self._saved.pop()
            setattr(ns, name, original)


# ---------------------------------------------------------------------------
# what each boundary records


def _scalar_run(a, out, error):
    return {
        "horizon": float(a["horizon"]),
        "steps": round(a["horizon"] / a["dt"]),
        "diverged": int(error == "NonFiniteState"),
    }


def _batch_run(a, out, error):
    sim = a["self"]
    lanes = len(a["controller_pairs"])
    diverged = 0 if out is None else int(sum(1 for v in out if not math.isfinite(v)))
    return {"lanes": lanes, "steps": sim.n_steps, "horizon": sim.n_steps * sim.dt, "diverged": diverged}


def _objective(a, out, error):
    xs = a["xs"]
    return {"candidates": int(len(xs)) if getattr(xs, "ndim", 2) > 1 else 1}


def _synthesis(a, out, error):
    return {"unstable": int(out is not None and not out.stable)}


def _wca_step(a, out, error):
    return {"rain_events": 0 if out is None else out.rain_events - a["state"].rain_events}


def _written(a, out, error):
    path = a["path"]
    return {"bytes": os.path.getsize(path) if os.path.exists(path) else 0}


# The boundaries that time operations and count simulated work. They are
# installed in every run, traced or not: a few spans per operation.
OPERATION_PROBES = [
    Probe("wca.initialize", "cdmlfc.wca", "initialize"),
    Probe("wca.step", "cdmlfc.wca", "step", _wca_step),
    Probe("scenarios.objective", "cdmlfc.scenarios:TuningObjective", "batch", _objective),
    Probe("sim.batch", "cdmlfc.sim:BatchCdmSimulator", "run_iae", _batch_run),
    Probe("sim.scalar", "cdmlfc.sim", "simulate", _scalar_run),
]

# Every layer boundary; installed only in the traced phase of a traced run.
LAYER_PROBES = OPERATION_PROBES + [
    Probe("wca.minimize", "cdmlfc.wca", "minimize"),
    Probe("config.load", "cdmlfc.config", "load_config"),
    Probe("plant.derive", "cdmlfc.plant", "derive_design_plant"),
    Probe("cdm.synthesize", "cdmlfc.cdm", "synthesize", _synthesis),
    Probe("poly.is_hurwitz", "cdmlfc.poly", "is_hurwitz"),
    Probe("sim.tustin", "cdmlfc.sim", "tustin_discretize"),
    Probe("scenarios.run_case", "cdmlfc.scenarios", "run_case"),
    Probe("scenarios.evaluate", "cdmlfc.scenarios", "evaluate"),
    Probe("cli.io", "cdmlfc.sim:Trajectory", "to_csv", _written),
    Probe("cli.io", "cdmlfc.cli", "_report_csv", _written),
    Probe("cli.io", "cdmlfc.cli", "_convergence_csv", _written),
    Probe("cli.io", "cdmlfc.cli", "_write_json", _written),
]


def span_cost_us(repeats: int = 2000) -> float:
    """Median cost of recording one span with counts, in microseconds,
    measured on a function that does nothing."""

    def noop(path):
        return path

    tracer = Tracer()
    wrapped = Instrumentation(tracer, []).wrap(Probe("noop", "", "", _written), noop)
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(repeats):
            wrapped(__file__)
        samples.append((time.perf_counter() - t0) / repeats)
        tracer.clear()
    t0 = time.perf_counter()
    for _ in range(repeats):
        noop(__file__)
    bare = (time.perf_counter() - t0) / repeats
    return 1e6 * (sorted(samples)[2] - bare)


# ---------------------------------------------------------------------------
# reductions


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_table(spans: list[dict]) -> dict:
    """{layer: {"self_s", "spans"}}, the layer being a span name's first part."""
    table: dict[str, dict] = {}
    for s, own in zip(spans, self_times(spans)):
        row = table.setdefault(s["name"].split(".")[0], {"self_s": 0.0, "spans": 0})
        row["self_s"] += own
        row["spans"] += 1
    return dict(sorted(table.items()))


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer counts and times named as in BENCHMARK.json's per_layer list."""
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s["name"], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def total(name, key):
        return sum(spans[i].get(key, 0) for i in idx(name))

    def dur(name):
        return sum(spans[i]["end"] - spans[i]["start"] for i in idx(name))

    def self_s(name):
        return sum(own[i] for i in idx(name))

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}

    batch_steps = total("sim.batch", "steps")
    batch_lane_steps = sum(spans[i]["lanes"] * spans[i]["steps"] for i in idx("sim.batch"))
    m["sim.batch.calls"] = len(idx("sim.batch"))
    m["sim.batch.lanes"] = total("sim.batch", "lanes")
    m["sim.batch.steps"] = batch_steps
    m["sim.batch.self_s"] = self_s("sim.batch")
    m["sim.batch.us_per_step"] = 1e6 * ratio(self_s("sim.batch"), batch_steps)
    m["sim.batch.lane_steps_per_s"] = ratio(batch_lane_steps, self_s("sim.batch"))
    m["sim.batch.diverged"] = total("sim.batch", "diverged")

    scalar_steps = total("sim.scalar", "steps")
    m["sim.scalar.calls"] = len(idx("sim.scalar"))
    m["sim.scalar.steps"] = scalar_steps
    m["sim.scalar.self_s"] = self_s("sim.scalar")
    m["sim.scalar.us_per_step"] = 1e6 * ratio(self_s("sim.scalar"), scalar_steps)
    m["sim.scalar.diverged"] = total("sim.scalar", "diverged")

    m["sim.tustin.calls"] = len(idx("sim.tustin"))
    m["sim.tustin.s"] = dur("sim.tustin")

    m["cdm.synthesize.calls"] = len(idx("cdm.synthesize"))
    m["cdm.synthesize.self_s"] = self_s("cdm.synthesize")
    m["cdm.synthesize.errors"] = sum(1 for i in idx("cdm.synthesize") if "error" in spans[i])
    m["cdm.synthesize.unstable"] = total("cdm.synthesize", "unstable")

    m["poly.is_hurwitz.calls"] = len(idx("poly.is_hurwitz"))
    m["poly.is_hurwitz.s"] = dur("poly.is_hurwitz")

    m["plant.derive.calls"] = len(idx("plant.derive"))
    m["plant.derive.s"] = dur("plant.derive")

    # Penalties by cause, per candidate: a synthesis error ends a candidate,
    # the candidates handed to the batch simulator are the live ones, and
    # the remainder synthesized without error but not both stable.
    objective = set(idx("scenarios.objective"))
    candidates = total("scenarios.objective", "candidates")
    synth_errors = sum(
        1 for i in idx("cdm.synthesize") if "error" in spans[i] and spans[i]["parent"] in objective
    )
    live = sum(spans[i]["lanes"] for i in idx("sim.batch") if spans[i]["parent"] in objective)
    divergent = sum(spans[i]["diverged"] for i in idx("sim.batch") if spans[i]["parent"] in objective)
    m["scenarios.objective.calls"] = len(objective)
    m["scenarios.objective.candidates"] = candidates
    m["scenarios.objective.live_ratio"] = ratio(live, candidates)
    m["scenarios.objective.penalized.synthesis"] = synth_errors
    m["scenarios.objective.penalized.unstable"] = candidates - synth_errors - live
    m["scenarios.objective.penalized.divergent"] = divergent
    m["scenarios.objective.self_s"] = self_s("scenarios.objective")

    m["scenarios.evaluate.calls"] = len(idx("scenarios.evaluate"))
    m["scenarios.evaluate.s"] = dur("scenarios.evaluate")

    m["wca.self_s"] = sum(self_s(n) for n in ("wca.minimize", "wca.initialize", "wca.step"))
    m["wca.rain_events"] = total("wca.step", "rain_events")

    m["cli.io.s"] = dur("cli.io")
    m["cli.io.bytes"] = total("cli.io", "bytes")
    m["cli.self_s"] = self_s("cli.main")
    return m
