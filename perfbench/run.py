"""JET dataplane benchmark: one workload per invocation.

    python3 perfbench/run.py --workload steady --seed 1 --seconds 10 --trace 0

Runs from the root of a checkout of the repository; the program is the
pure-Python package under ``src/``, so there is nothing to build.  With
``--trace 0`` it prints the end-to-end metrics of an untraced run, with
``--trace 1`` the per-layer metrics of a traced run.  The correctness
gates run either way; if one fails the run is reported failed, no
metric is printed, and the exit code is 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it is the run record (host, source version, seed, trace parameters,
``DEFAULT_CHUNK``, gates); the same record, with the spans of a traced
run, is written to ``perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def git_commit():
    """HEAD of the checkout, read from ``.git`` directly (None outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the program's sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def record(args, report) -> dict:
    import numpy

    from repro.traces.replay import DEFAULT_CHUNK

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "scale": args.scale,
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
        },
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "default_chunk": DEFAULT_CHUNK,
        "gates": report.gates,
        "gate_failures": report.failures,
        "spreads": {
            name: {"quartile_spread": spread, "samples": count}
            for name, (spread, count) in report.spreads.items()
        },
        **report.info,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS}")
    report = workloads.run_workload(
        args.workload, args.seed, args.seconds, workloads.SCALES[args.scale], bool(args.trace)
    )
    correct = all(report.gates.values())
    table = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    metrics = {name: report.metrics[name] for name in table} if correct else {}
    printed = dict(metrics)
    if correct and not args.trace:
        printed.update((name, report.metrics[name]) for name in workloads.UNGATED)
    for name, (value, unit) in printed.items():
        line = f"{name:28s} {value:>16.6g} {unit:9s}"
        if name in report.spreads:
            spread, count = report.spreads[name]
            line += f" median of {count}, quartile spread {spread:.3f}"
        print(line)
    if correct and report.attempted:
        print(f"{'pcc_violation_share':28s} {report.failed / report.attempted:>16.6g} fraction")
    for failure in report.failures:
        print(f"GATE FAILED {failure}")
    run_record = record(args, report)
    print(json.dumps(run_record, sort_keys=True))

    out = HERE / "runs"
    out.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out / name, "w") as handle:
        json.dump({"record": run_record, "spans": report.spans}, handle)

    print(json.dumps({
        "correct": correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
