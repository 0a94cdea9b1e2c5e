"""Smoke-scale self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload at smoke scale, untraced and traced, and checks that

- the last line of standard output follows the result contract;
- every metric BENCHMARK.json lists for the mode prints, with its unit,
  and so do the untraced run's ungated lines;
- every correctness gate of the workload ran and passed.

Then checks that the benchmark refuses to run (non-zero exit, no result
line) in a directory holding only BENCHMARK.json and the benchmark's own
files.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

GATES = {
    "steady": {"zero_violations", "repeats_identical", "tracked_fraction_band",
               "scalar_oracle_prefix"},
    "churn": {"zero_violations", "repeats_identical", "scalar_oracle_churn"},
    "sharded": {"zero_violations", "merged_equals_single_process"},
    "sim": {"zero_violations", "repeats_identical"},
}
#: Printed by the untraced run but not in BENCHMARK.json.
UNGATED = {"update_stall_ms_p50": "ms", "pcc_violation_share": "fraction"}
TRACED_GATES = {
    "steady": {"closure", "traced_matches_untraced"},
    "churn": {"closure", "traced_matches_untraced"},
    "sharded": {"closure"},
    "sim": {"closure", "traced_matches_untraced"},
}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check(ok: bool, message: str) -> None:
    if not ok:
        sys.exit(f"selftest FAILED: {message}")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [entry["name"] for entry in spec["workloads"]]
    check(set(workloads) == set(GATES), f"workloads {workloads} != {sorted(GATES)}")
    for workload in workloads:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            out = run(ROOT, workload, trace)
            where = f"{workload} --trace {trace}"
            check(out.returncode == 0, f"{where} exited {out.returncode}:\n{out.stderr}")
            lines = out.stdout.strip().splitlines()
            result, record = json.loads(lines[-1]), json.loads(lines[-2])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{where}: result keys {sorted(result)}")
            check(result["correct"] is True and result["attempted"] >= 1,
                  f"{where}: {result['correct']=} {result['attempted']=}")
            units = {metric["name"]: metric["unit"] for metric in listed}
            printed = {name: value["unit"] for name, value in result["metrics"].items()}
            check(printed == units, f"{where}: metrics/units {printed} != {units}")
            table = {line.split()[0]: line.split()[2] for line in lines[:-2] if line.strip()}
            for name, unit in {**units, **(UNGATED if trace == 0 else {})}.items():
                check(table.get(name) == unit, f"{where}: {name} [{unit}] not printed")
            expected = GATES[workload] | (TRACED_GATES[workload] if trace else set())
            check(set(record["gates"]) == expected and all(record["gates"].values()),
                  f"{where}: gates {record['gates']} != {sorted(expected)}")
            print(f"ok {where}: {len(printed)} metrics, gates {sorted(record['gates'])}")

    bare = HERE / "runs" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(
            HERE, bare / "perfbench", ignore=shutil.ignore_patterns("runs", "__pycache__")
        )
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        out = run(bare, workloads[0], 0)
        check(out.returncode != 0, "benchmark ran without the program's sources")
        check('"correct"' not in out.stdout, "bare directory printed a result line")
        print(f"ok bare directory: exit {out.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    main()
