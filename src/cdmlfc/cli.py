"""Command-line front end.

Subcommands: design, optimize, simulate, case, sweep, compare. One JSON
config (merged over bundled defaults) plus flag overrides; every run
writes a manifest (config hash, seed, version) that makes its outputs
byte-reproducible. Exit codes: 2 config, 3 synthesis, 4 optimization,
5 simulation divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, defaults
from .cdm import synthesize
from .config import RunConfig, load_config
from .errors import ConfigError, NonFiniteState, ObjectiveFailure, SingularSystem, UnstableDesign
from .plant import derive_design_plant
from .scenarios import (
    PENALTY_FLOOR, CaseReport, SweepReport, TuningObjective, run_case, run_scenario, sensitivity_sweep, table6_specs
)
from .wca import minimize_lockstep, random_search, random_search_lockstep


def _fmt(v) -> str:
    if v is None:
        return ""
    return f"{v:.9g}"


def _fmt_ts(stats, window: float) -> str:
    if stats.settled:
        return _fmt(stats.t_s)
    return f"{window:g}>"


def _fmt_shoot(v: float) -> str:
    return "N.O" if abs(v) < defaults.OVERSHOOT_FLOOR else _fmt(v)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_manifest(outdir: Path, command: str, cfg: RunConfig, overrides: dict) -> None:
    digest = hashlib.sha256(cfg.canonical_json().encode()).hexdigest()
    _write_json(
        outdir / "manifest.json",
        {
            "command": command,
            "version": __version__,
            "config_sha256": digest,
            "seed": cfg.wca.seed,
            "overrides": overrides,
        },
    )


def _controller_names(args) -> list[str]:
    """The sets named by --controllers (none for a command without it): at least one, each known and once."""
    if not hasattr(args, "controllers"):
        return []
    names = [c.strip() for c in args.controllers.split(",") if c.strip()]
    expected = ", ".join(defaults.CONTROLLER_SET_NAMES)
    if not names:
        raise ConfigError("--controllers", f"names no controller set; expected some of {expected}")
    for i, name in enumerate(names):
        if name not in defaults.CONTROLLER_SET_NAMES:
            raise ConfigError("--controllers", f"unknown controller set {name!r}; expected one of {expected}")
        if name in names[:i]:
            raise ConfigError("--controllers", f"controller set {name!r} is named twice")
    return names


def _refuse_solver_flags(args) -> None:
    """Refuse the run flags a command would ignore: design runs nothing, optimize and case 1
    simulate only the tuning objective's model, which --dt, --horizon and --grc do not reach,
    and random search allocates no streams for --fitness-inverted to weigh."""
    what = "case 1" if args.command == "case" and args.case_id == 1 else args.command
    if getattr(args, "fitness_inverted", False) and args.algorithm == "random-search":
        raise ConfigError("--fitness-inverted", "does not apply to random-search, which allocates no streams")
    for flag, key in (("--seed", None), ("--dt", "dt"), ("--horizon", "horizon"), ("--grc", "grc_rate")):
        if getattr(args, flag[2:]) is None:
            continue
        if what == "design":
            raise ConfigError(flag, "does not apply to design, which synthesizes the controllers and runs nothing")
        if key is not None and what in ("optimize", "case 1"):
            message = f"does not apply to {what}, whose runs use the objective's model"
            raise ConfigError(flag, f"{message}; set optimizer.objective.{key} in --config")


def _tuning_objective(cfg: RunConfig) -> TuningObjective:
    settings = cfg.objective_settings
    return TuningObjective(
        areas=cfg.areas,
        tie=cfg.tie,
        nonlin=cfg.objective_nonlin,
        perturb=settings["perturb"],
        dt=settings["dt"],
        horizon=settings["horizon"],
        bounds=cfg.opt_bounds,
    )


def _report_csv(path: Path, report: CaseReport) -> None:
    window = report.run_params["horizon"] - report.run_params["disturbance_time"]
    cols = ["controller"]
    for sig in ("df1", "df2", "dptie"):
        cols += [f"{sig}_ts", f"{sig}_os", f"{sig}_us", f"{sig}_iae"]
    cols += ["iae", "ise", "itse", "itae"]
    lines = [",".join(cols)]
    for res in report.results:
        row = [res.name]
        for sig in ("df1", "df2", "dptie"):
            s = res.metrics.signals[sig]
            row += [_fmt_ts(s, window), _fmt_shoot(s.overshoot), _fmt_shoot(s.undershoot), _fmt(s.iae)]
        m = res.metrics
        row += [_fmt(m.iae), _fmt(m.ise), _fmt(m.itse), _fmt(m.itae)]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def _sweep_csv(path: Path, report: SweepReport) -> None:
    cols = ["parameter", "delta_pct", "value"]
    for name in report.controllers:
        cols += [f"{name}_ise", f"{name}_itse", f"{name}_itae", f"{name}_iae", f"{name}_settled"]
    lines = [",".join(cols)]
    for row in report.rows:
        cells = [row.parameter, _fmt(row.delta * 100.0), "" if row.value != row.value else _fmt(row.value)]
        for name in report.controllers:
            m = row.metrics[name]
            if m is None:
                cells += ["diverged"] * 5
            else:
                settled = all(s.settled for s in m.signals.values())
                cells += [_fmt(m.ise), _fmt(m.itse), _fmt(m.itae), _fmt(m.iae), str(settled).lower()]
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def _convergence_csv(path: Path, history) -> None:
    lines = ["iteration,best_cost"]
    for i, cost in enumerate(history):
        lines.append(f"{i},{_fmt(cost)}")
    path.write_text("\n".join(lines) + "\n")


def cmd_design(cfg: RunConfig, outdir: Path, allow_unstable: bool) -> int:
    plants = tuple(derive_design_plant(a, cfg.tie) for a in cfg.areas)
    unstable = []
    for i in range(2):
        ctrl = synthesize(plants[i], cfg.cdm_gains[i])
        payload = ctrl.to_json()
        payload["plant"] = {"n": plants[i].N.as_json(), "dp": plants[i].Dp.as_json()}
        payload["verdict"] = "stable" if ctrl.stable else "unstable"
        _write_json(outdir / f"controller_area{i + 1}.json", payload)
        print(f"area {i + 1}: F = {ctrl.F:.6g}, residual = {ctrl.residual:.4g}, {payload['verdict']}")
        if not ctrl.stable:
            unstable.append(i + 1)
    if unstable and not allow_unstable:
        print(f"unstable design for area(s) {unstable}; rerun with --allow-unstable to keep", file=sys.stderr)
        return 3
    return 0


def cmd_optimize(cfg: RunConfig, outdir: Path, repeats: int, algorithm: str, objective: TuningObjective) -> int:
    runner = {"wca": minimize_lockstep, "random-search": random_search_lockstep}[algorithm]
    seeds = [cfg.wca.seed + k for k in range(repeats)]
    reference = objective.reference_vector()
    reference_j = []

    def score(xs: np.ndarray) -> np.ndarray:
        # the first call (generation 0) scores the reference vector as its last row
        if reference_j:
            return objective.batch(xs)
        costs = objective.batch(np.vstack([xs, reference]))
        reference_j.append(float(costs[-1]))
        return costs[:-1]

    runs = runner(score, objective.bounds, [dataclasses.replace(cfg.wca, seed=seed) for seed in seeds])

    finals = []
    best_cost = float("inf")
    best_vec = None
    best_seed = None
    for seed, (position, cost, history) in zip(seeds, runs):
        _convergence_csv(outdir / f"convergence_seed{seed}.csv", history)
        finals.append(cost)
        print(f"seed {seed}: final J = {cost:.6g}")
        if cost < best_cost:
            best_cost, best_vec, best_seed = cost, position.copy(), seed

    if best_cost >= PENALTY_FLOOR:
        print("optimization never found a stable design (all penalties)", file=sys.stderr)
        return 4
    rho = objective.loop_radius(best_vec)
    loop_stable = rho < 1.0
    if not loop_stable:
        print(
            f"note: the best design is loop-unstable (spectral radius estimate {rho:.9g} >= 1); "
            "its J is the proxy cost, not a simulated IAE",
            file=sys.stderr,
        )

    g1, g2 = objective.decode(best_vec)
    _write_json(
        outdir / "best_gains.json",
        {
            "j": best_cost,
            "seed": best_seed,
            "algorithm": algorithm,
            "vector": [float(v) for v in best_vec],
            "gamma": list(g1.gamma),
            "tau": g1.tau,
            "k_b0": [g1.k_b0, g2.k_b0],
            "reference_j": reference_j[0],
            "loop_stable": loop_stable,
            "rho": rho,
        },
    )
    arr = np.array(finals)
    stats = {
        "min": float(arr.min()),
        "max": float(arr.max()),
        "mean": float(arr.mean()),
        "std": float(arr.std(ddof=0)),
        "repeats": repeats,
        "objective": dict(objective.counts),
    }
    _write_json(outdir / "summary.json", stats)
    lines = ["statistic,value"] + [f"{k},{_fmt(stats[k])}" for k in ("min", "max", "mean", "std")]
    (outdir / "summary.csv").write_text("\n".join(lines) + "\n")
    print(f"best J = {best_cost:.6g} (seed {best_seed}); summary over {repeats} repeat(s) written")
    return 0


def _write_trajectories(outdir: Path, report: CaseReport) -> None:
    for res in report.results:
        res.trajectory.to_csv(outdir / f"trajectory_{res.name}.csv")


def _write_report(outdir: Path, report: CaseReport) -> None:
    _write_trajectories(outdir, report)
    _report_csv(outdir / "report.csv", report)
    _write_json(outdir / "report.json", report.to_json())


def cmd_simulate(cfg: RunConfig, outdir: Path, controllers: list[str]) -> int:
    report = run_scenario(0, cfg.scenario, cfg, cfg.nonlin, controllers)
    _write_trajectories(outdir, report)
    _write_json(outdir / "metrics.json", {res.name: res.metrics.to_json() for res in report.results})
    print(f"simulated {len(controllers)} controller set(s) over {report.run_params['horizon']:g} s")
    return 0


def cmd_case(cfg: RunConfig, outdir: Path, case_id: int, controllers: list[str]) -> int:
    if case_id == 1:
        return _cmd_case1(cfg, outdir)
    if case_id == 6:
        return cmd_sweep(cfg, outdir, controllers)
    report = run_case(case_id, cfg, controllers)
    _write_report(outdir, report)
    print(f"case {case_id}: ranking by (IAE, ISE): {' < '.join(report.ranking)}")
    return 0


def _cmd_case1(cfg: RunConfig, outdir: Path) -> int:
    # optimizer convergence study: WCA vs the seeded random-search baseline
    objective = _tuning_objective(cfg)
    rc = cmd_optimize(cfg, outdir, 1, "wca", objective)
    if rc != 0:
        return rc
    (outdir / "convergence_wca.csv").write_bytes(
        (outdir / f"convergence_seed{cfg.wca.seed}.csv").read_bytes()
    )
    _, cost, history = random_search(objective.batch, objective.bounds, cfg.wca)
    _convergence_csv(outdir / "convergence_random.csv", history)
    print(f"random-search baseline final J = {cost:.6g}")
    return 0


def cmd_sweep(cfg: RunConfig, outdir: Path, controllers: list[str]) -> int:
    report = sensitivity_sweep(table6_specs(), cfg, controllers)
    _sweep_csv(outdir / "sweep.csv", report)
    _write_json(outdir / "sweep.json", report.to_json())
    print(f"sweep: {len(report.rows)} rows ({len(report.controllers)} controller set(s))")
    return 0


def cmd_compare(cfg: RunConfig, outdir: Path, controllers: list[str]) -> int:
    report = run_scenario(0, cfg.scenario, cfg, cfg.nonlin, controllers)
    _write_report(outdir, report)
    print(f"compare: ranking by (IAE, ISE): {' < '.join(report.ranking)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdmlfc",
        description="CDM load-frequency controller design, WCA tuning, and two-area simulation",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_controllers=None):
        p.add_argument("--config", help="JSON config file merged over bundled defaults")
        p.add_argument("--out", default="out", help="output directory (default: ./out)")
        p.add_argument("--seed", type=int, help="override optimizer/case seed")
        p.add_argument("--dt", type=float, help="integrator step (s)")
        p.add_argument("--horizon", type=float, help="simulation horizon (s)")
        p.add_argument("--grc", type=float, help="override GRC rate (pu/s) for this run")
        if with_controllers:
            p.add_argument(
                "--controllers",
                default=with_controllers,
                help=f"comma-separated controller sets (default: {with_controllers})",
            )

    p = sub.add_parser("design", help="synthesize the CDM controllers and write them as JSON")
    common(p)
    p.add_argument("--allow-unstable", action="store_true")

    p = sub.add_parser("optimize", help="tune the gain triple with the water cycle algorithm")
    common(p)
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--fitness-inverted", action="store_true")
    p.add_argument("--algorithm", choices=("wca", "random-search"), default="wca")

    p = sub.add_parser("simulate", help="simulate the configured scenario")
    common(p, with_controllers="cdm_opt")

    p = sub.add_parser("case", help="run a bundled case study (1-6)")
    p.add_argument("case_id", type=int, choices=range(1, 7))
    common(p, with_controllers="cdm_opt,pid,pi")

    p = sub.add_parser("sweep", help="governor/turbine sensitivity sweep (16 cells + nominal)")
    common(p, with_controllers="cdm_opt")

    p = sub.add_parser("compare", help="compare controller sets on the configured scenario")
    common(p, with_controllers="cdm_opt,cdm,pid,pi")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {}
    if args.seed is not None:
        overrides["optimizer.seed"] = args.seed
        overrides["cases.seed"] = args.seed
    if args.dt is not None:
        overrides["solver.dt"] = args.dt
    if args.horizon is not None:
        overrides["solver.horizon"] = args.horizon
    if args.grc is not None:
        overrides["model.nonlinear.grc_rate"] = args.grc
        overrides["cases.nonlinear.grc_rate"] = args.grc
    if getattr(args, "fitness_inverted", False):
        overrides["optimizer.fitness_inverted"] = True

    try:
        _refuse_solver_flags(args)
        cfg = load_config(args.config, overrides)
        controllers = _controller_names(args)
        if getattr(args, "repeats", 1) < 1:
            raise ConfigError("--repeats", f"must be >= 1, got {args.repeats}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.command == "optimize" and args.algorithm == "random-search" and cfg.wca.fitness_inverted:
        # the flag is refused above, so the key came from --config, which WCA runs may share: run on
        note = "optimizer.fitness_inverted does not apply to random-search, which allocates no streams; ignored"
        print(f"note: {note}", file=sys.stderr)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    try:
        if args.command == "design":
            rc = cmd_design(cfg, outdir, args.allow_unstable)
        elif args.command == "optimize":
            rc = cmd_optimize(cfg, outdir, args.repeats, args.algorithm, _tuning_objective(cfg))
        elif args.command == "simulate":
            rc = cmd_simulate(cfg, outdir, controllers)
        elif args.command == "case":
            rc = cmd_case(cfg, outdir, args.case_id, controllers)
        elif args.command == "sweep":
            rc = cmd_sweep(cfg, outdir, controllers)
        elif args.command == "compare":
            rc = cmd_compare(cfg, outdir, controllers)
        else:  # pragma: no cover
            raise AssertionError(args.command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SingularSystem, UnstableDesign) as exc:
        print(f"synthesis error: {exc}", file=sys.stderr)
        return 3
    except ObjectiveFailure as exc:
        print(f"optimization failed: {exc}", file=sys.stderr)
        return 4
    except NonFiniteState as exc:
        print(f"simulation diverged: {exc}", file=sys.stderr)
        return 5

    if rc == 0:
        _write_manifest(outdir, args.command, cfg, overrides)
    return rc


if __name__ == "__main__":
    sys.exit(main())
