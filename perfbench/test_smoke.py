"""Smoke test of the benchmark harness at tiny sizes.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--scale", "tiny",
        ],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = run_benchmark(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


@pytest.fixture
def cli_main(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from crossdiff import cli

    def main(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    return main


@pytest.mark.parametrize("corruption", ["drop-row", "change-value"])
def test_corrupted_field_csv_fails_the_operation(tmp_path, cli_main, corruption):
    plan = workloads.make_plan("pattern-1d", 0, "tiny", tmp_path)
    rc = cli_main(workloads.op_argv(plan, 0))
    assert workloads.check_solve(plan, rc).ok
    field = Path(plan["field"])
    lines = field.read_text().splitlines()
    if corruption == "drop-row":
        del lines[len(lines) // 2]
    else:
        cells = lines[len(lines) // 2].split(",")
        cells[-1] = repr(float(cells[-1]) * 1.01)
        lines[len(lines) // 2] = ",".join(cells)
    field.write_text("\n".join(lines) + "\n")
    assert not workloads.check_solve(plan, rc).ok


def _flip(key: tuple[str, ...]) -> tuple[str, ...]:
    case, total, predicts, inconclusive = key
    flipped = "False" if predicts == "True" else "True"
    return (case, str(-int(total)), flipped, inconclusive)


def test_flipped_sweep_verdict_fails_the_operation(tmp_path, cli_main):
    plan = workloads.make_plan("verdict-sweep", 0, "tiny", tmp_path)
    rc = cli_main(workloads.op_argv(plan, 0))
    replay = workloads.replay_sweep(plan)
    assert workloads.check_sweep(plan, rc, replay, None).ok
    conclusive = next(i for i, key in enumerate(replay) if key[3] == "False")

    # The CLI wrote a flipped verdict.
    with open(plan["output"], newline="") as fh:
        reader = csv.DictReader(fh)
        columns, rows = reader.fieldnames, list(reader)
    row = rows[conclusive]
    key = _flip(tuple(row[c] for c in workloads.VERDICT_COLUMNS))
    row.update(zip(workloads.VERDICT_COLUMNS, key))
    with open(plan["output"], "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
    assert not workloads.check_sweep(plan, rc, replay, None).ok

    # CLI and replay agree, but on a verdict the reference does not hold.
    replay[conclusive] = key
    reference = list(replay)
    reference[conclusive] = _flip(key)
    assert not workloads.check_sweep(plan, rc, replay, reference).ok

    # A point the reference left inconclusive may become conclusive.
    reference[conclusive] = (key[0], "", "", "True")
    assert workloads.check_sweep(plan, rc, replay, reference).ok
