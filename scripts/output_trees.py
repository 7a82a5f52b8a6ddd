"""Write the output trees of a fixed list of CLI commands, for byte comparison.

    PYTHONPATH=src python3 scripts/output_trees.py OUT

Each command runs through `cdmlfc.cli.main` into OUT/<name>; its stdout,
stderr and exit code go to OUT/<name>/stdout.txt, OUT/<name>/stderr.txt and
OUT/<name>/exit_code.txt. Run it
on two checkouts and `diff -r` the two OUT directories: an empty diff means
the change kept every output, manifests included, byte for byte.
"""

import contextlib
import io
import json
import math
import pathlib
import sys

from cdmlfc import defaults
from cdmlfc.cli import main
from cdmlfc.poly import Polynomial, poly_mul

CONTROLLERS = ["--controllers", "cdm_opt,cdm,pid,pi"]
LIFT = Polynomial([1.0, 0.01])  # times (1 + 0.01 s): one more controller order, the same transfer function

CONFIGS = {
    "case1": {"optimizer": {"n_pop": 12, "max_it": 4}},
    "optimize": {"optimizer": {"n_pop": 20, "max_it": 6, "seed": 3}},
    # a sine without its optional start, a composite and seeded random loads
    "custom": {
        "scenario": {
            "loads": [
                {
                    "kind": "composite",
                    "parts": [
                        {"kind": "sine", "amplitude": 0.01, "frequency": 0.1},
                        {"kind": "step", "magnitude": 0.005, "time": 2.0},
                    ],
                },
                {"kind": "uniform_random", "amplitude": 0.01, "hold": 2.0, "seed": 7},
            ],
            "horizon": 20.0,
            "disturbance_time": 0.0,
        }
    },
    # a sine from 2.5 s on random loads in area 1 and a sine from 0 s in area 2: the stretches split at the sine's start
    "custom_sine_start": {
        "scenario": {
            "loads": [
                {
                    "kind": "composite",
                    "parts": [
                        {"kind": "sine", "amplitude": 0.01, "frequency": 0.1, "start": 2.5},
                        {"kind": "uniform_random", "amplitude": 0.01, "hold": 2.0, "seed": 7},
                    ],
                },
                {"kind": "sine", "amplitude": 0.005, "frequency": 0.2},
            ],
            "horizon": 20.0,
            "disturbance_time": 0.0,
        }
    },
    # a composite with null parts in both areas: a null part is no load
    "custom_null_part": {
        "scenario": {
            "loads": [
                {
                    "kind": "composite",
                    "parts": [
                        None,
                        {"kind": "uniform_random", "amplitude": 0.01, "hold": 2.0, "seed": 7},
                        {"kind": "step", "magnitude": 0.005, "time": 2.0},
                    ],
                },
                {"kind": "composite", "parts": [None]},
            ],
            "horizon": 20.0,
            "disturbance_time": 0.0,
        }
    },
    # slower governor and turbine in area 1, a CDM design with a longer tau
    "custom_model": {
        "model": {"area1": {"D": 0.015, "M": 0.1667, "R": 3.0, "Tg": 0.16, "Tt": 0.8}},
        "controllers": {"cdm_opt": {"gamma": [25.33, 0.01, 17.62, 9.88, 29.98], "tau": 1.0, "k_b0": [20.5126, 39.9347]}},
    },
    # a CDM design whose loop is not Hurwitz in either area: refused with exit 3
    "unstable_cdm_opt": {"controllers": {"cdm_opt": {"gamma": [2.5, 2, 2, 2, 2], "tau": 0.9, "k_b0": [15, 30]}}},
    # a CDM design stable in both areas whose two-area loop diverges without the GRC clamp: exit 5
    "divergent_cdm_opt": {"controllers": {"cdm_opt": {"gamma": [2.6, 5.3, 4.84, 3.96, 4.48], "tau": 2.17, "k_b0": [20, 40]}}},
    # a boolean written as a string: refused with exit 2 before anything runs
    "string_bool": {"optimizer": {"fitness_inverted": "false"}},
    # the classic CDM set at order 3, whose controllers step by DiscreteController's row loop
    "order3_cdm_classic": {
        "controllers": {
            "cdm_classic": {
                key: [list(poly_mul(p, LIFT).coeffs) for p in polys]
                for key, polys in (("ac", defaults.CLASSIC_AC), ("bc", defaults.CLASSIC_BC))
            }
        }
    },
    # the describing-function governor dead band in the case runs
    "backlash": {"cases": {"nonlinear": {"gdb_mode": "backlash"}}},
    # an objective with a governor dead zone, which the candidate lanes step
    "deadband": {"optimizer": {"n_pop": 12, "max_it": 3, "seed": 4, "objective": {"gdb_width": 0.05}}},
    # an objective with the describing-function governor, which the candidate lanes step
    "optimize_backlash": {
        "optimizer": {"n_pop": 12, "max_it": 3, "seed": 6, "objective": {"gdb_width": 0.05, "gdb_mode": "backlash"}}
    },
    # an objective without the GRC clamp: most candidate lanes diverge and are penalized
    "no_grc": {"optimizer": {"n_pop": 12, "max_it": 3, "seed": 5, "objective": {"grc_rate": math.inf}}},
}


def commands(configs: pathlib.Path) -> dict[str, list[str]]:
    def config(name: str) -> list[str]:
        return ["--config", str(configs / f"{name}.json")]

    return {
        "case1": ["case", "1", *config("case1"), *CONTROLLERS],
        **{f"case{i}": ["case", str(i), *CONTROLLERS] for i in range(2, 7)},
        "sweep": ["sweep", *CONTROLLERS],
        "design": ["design"],
        "simulate": ["simulate", "--horizon", "20", *CONTROLLERS],
        "compare": ["compare", "--horizon", "20", *CONTROLLERS],
        "case2_dt0.005": ["case", "2", "--dt", "0.005", "--horizon", "20", *CONTROLLERS],
        "optimize": ["optimize", *config("optimize"), "--repeats", "2"],
        "optimize_random": ["optimize", *config("optimize"), "--algorithm", "random-search"],
        "optimize_random_repeats": ["optimize", *config("optimize"), "--algorithm", "random-search", "--repeats", "2"],
        "custom_compare": ["compare", *config("custom"), *CONTROLLERS],
        "custom_sine_start": ["compare", *config("custom_sine_start"), *CONTROLLERS],
        "custom_null_part": ["compare", *config("custom_null_part"), *CONTROLLERS],
        "case2_custom_model": ["case", "2", *config("custom_model"), *CONTROLLERS],
        "sweep_custom_model": ["sweep", *config("custom_model"), *CONTROLLERS],
        "case2_unstable_cdm_opt": ["case", "2", *config("unstable_cdm_opt"), "--horizon", "10", "--controllers", "cdm_opt"],
        "case2_grc_inf": ["case", "2", "--grc", "inf", "--horizon", "20", "--controllers", "cdm_opt,pi"],
        # the paper's stated rate (10% per minute): the clamp binds and many closed-form blocks step exactly
        "case4_stated_grc": ["case", "4", "--grc", str(defaults.NONLIN_DEFAULT.grc_rate), *CONTROLLERS],
        # the sweep at the stated rate: every block after the load step falls back to exact steps
        "sweep_stated_grc": ["sweep", "--grc", str(defaults.NONLIN_DEFAULT.grc_rate), *CONTROLLERS],
        "case2_grc_inf_divergent": ["case", "2", *config("divergent_cdm_opt"), "--grc", "inf", "--horizon", "10", "--controllers", "cdm_opt"],
        "sweep_grc_inf_divergent": ["sweep", *config("divergent_cdm_opt"), "--grc", "inf", "--controllers", "cdm_opt,pi"],
        "design_solver_flags": ["design", "--dt", "0.005"],
        "optimize_string_bool": ["optimize", *config("string_bool")],
        "optimize_random_fitness_inverted": ["optimize", "--algorithm", "random-search", "--fitness-inverted"],
        "case2_order3_cdm_classic": ["case", "2", *config("order3_cdm_classic"), "--horizon", "20", "--controllers", "cdm,pi"],
        "case2_backlash": ["case", "2", *config("backlash"), "--horizon", "20", *CONTROLLERS],
        "optimize_deadband": ["optimize", *config("deadband")],
        "optimize_backlash": ["optimize", *config("optimize_backlash")],
        "optimize_no_grc": ["optimize", *config("no_grc")],
    }


def run(out: pathlib.Path) -> None:
    configs = out / "configs"
    configs.mkdir(parents=True, exist_ok=True)
    for name, cfg in CONFIGS.items():
        (configs / f"{name}.json").write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    for name, argv in commands(configs).items():
        target = out / name
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main(argv + ["--out", str(target)])
        target.mkdir(parents=True, exist_ok=True)
        (target / "stdout.txt").write_text(stdout.getvalue())
        (target / "stderr.txt").write_text(stderr.getvalue())
        (target / "exit_code.txt").write_text(f"{rc}\n")
        print(f"{name}: exit {rc}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: output_trees.py OUT")
    run(pathlib.Path(sys.argv[1]))
