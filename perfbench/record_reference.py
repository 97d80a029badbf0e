"""Record the reference verdicts of every ``verdict-sweep`` grid.

The sweep check compares each verdict the CLI writes with this table,
so a change that alters an existence verdict shows as a failed
operation.  The table was recorded at the commit that introduced the
benchmark; re-record it only when a verdict change is deliberate, and
say so where the change is described.  Run from the root of a checkout:

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    legend: dict[tuple[str, ...], str] = {}
    symbols = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    grids = {}
    for shift in range(workloads.SWEEP_SHIFT_STEPS):
        plan = {
            "config": None,
            "params": workloads.sweep_params(shift, "full"),
            "shift": shift,
        }
        keys = workloads.replay_sweep(plan, base=workloads.sweep_config())
        codes = "".join(legend.setdefault(key, symbols[len(legend)]) for key in keys)
        grids[str(shift)] = {"params": plan["params"], "verdicts": codes}
        print(f"shift {shift}: {len(keys)} points, {sum(k[3] == 'True' for k in keys)} inconclusive")
    table = {
        "columns": list(workloads.VERDICT_COLUMNS),
        "legend": {code: list(key) for key, code in legend.items()},
        "grids": grids,
    }
    workloads.REFERENCE_PATH.write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()
