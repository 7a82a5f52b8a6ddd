"""Write the output trees of a fixed list of CLI commands, for byte comparison.

    PYTHONPATH=src python3 scripts/output_trees.py OUT

Each command runs through `cdmlfc.cli.main` into OUT/<name>; its stdout and
exit code go to OUT/<name>/stdout.txt and OUT/<name>/exit_code.txt. Run it
on two checkouts and `diff -r` the two OUT directories: an empty diff means
the change kept every output, manifests included, byte for byte.
"""

import contextlib
import io
import json
import pathlib
import sys

from cdmlfc.cli import main

CONTROLLERS = ["--controllers", "cdm_opt,cdm,pid,pi"]

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
    # slower governor and turbine in area 1, a CDM design with a longer tau
    "custom_model": {
        "model": {"area1": {"D": 0.015, "M": 0.1667, "R": 3.0, "Tg": 0.16, "Tt": 0.8}},
        "controllers": {"cdm_opt": {"gamma": [25.33, 0.01, 17.62, 9.88, 29.98], "tau": 1.0, "k_b0": [20.5126, 39.9347]}},
    },
    # a CDM design whose loop is not Hurwitz in either area: refused with exit 3
    "unstable_cdm_opt": {"controllers": {"cdm_opt": {"gamma": [2.5, 2, 2, 2, 2], "tau": 0.9, "k_b0": [15, 30]}}},
    # a boolean written as a string: refused with exit 2 before anything runs
    "string_bool": {"optimizer": {"fitness_inverted": "false"}},
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
        "custom_compare": ["compare", *config("custom"), *CONTROLLERS],
        "case2_custom_model": ["case", "2", *config("custom_model"), *CONTROLLERS],
        "sweep_custom_model": ["sweep", *config("custom_model"), *CONTROLLERS],
        "case2_unstable_cdm_opt": ["case", "2", *config("unstable_cdm_opt"), "--horizon", "10", "--controllers", "cdm_opt"],
        "case2_grc_inf": ["case", "2", "--grc", "inf", "--horizon", "20", "--controllers", "cdm_opt,pi"],
        "optimize_string_bool": ["optimize", *config("string_bool")],
    }


def run(out: pathlib.Path) -> None:
    configs = out / "configs"
    configs.mkdir(parents=True, exist_ok=True)
    for name, cfg in CONFIGS.items():
        (configs / f"{name}.json").write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    for name, argv in commands(configs).items():
        target = out / name
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = main(argv + ["--out", str(target)])
        target.mkdir(parents=True, exist_ok=True)
        (target / "stdout.txt").write_text(stdout.getvalue())
        (target / "exit_code.txt").write_text(f"{rc}\n")
        print(f"{name}: exit {rc}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: output_trees.py OUT")
    run(pathlib.Path(sys.argv[1]))
