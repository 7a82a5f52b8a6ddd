"""Record the reference outputs that the case 2 and case 3 checks use.

    python3 perfbench/make_reference.py

Runs ``cdmlfc case 2`` and ``case 3`` with all four controller sets and the
cases workload's config, and writes their results to
perfbench/reference.json. The committed file was recorded before any
optimization of the toolkit; rerun this only for a change that is meant to
alter these outputs, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from cdmlfc import cli  # noqa: E402


def main() -> int:
    work = HERE / "out" / "reference-work"
    reference = {}
    try:
        cfg = workloads.Cases().config(work, 0)
        for case_id in (2, 3):
            out = work / f"case{case_id}"
            argv = ["case", str(case_id), "--config", cfg, "--controllers", workloads.CONTROLLERS, "--out", str(out)]
            rc = cli.main(argv)
            if rc != 0:
                print(f"case {case_id} exited with {rc}", file=sys.stderr)
                return 1
            reference[f"case{case_id}"] = json.loads((out / "report.json").read_text())["results"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    workloads.REFERENCE.write_text(json.dumps(reference, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
