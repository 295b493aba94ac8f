"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. The defining-sum oracle agrees with ``walsh_naive`` on a small field.
2. On small instances of random_tables and glued_bent, every operation
   passes its checks, and is counted as failed when the program returns a
   spectrum with one corrupted row or a wrong classification.
3. In a traced paper pass where criterion 4 raises, that criterion is
   counted as failed and no count without a value is recorded.
4. run.py prints every metric BENCHMARK.json names, with --trace 0 and 1.

Exits 0 when all of these hold.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import pbent  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SMALL_RANDOM = (("f3_5", 3, 5), ("f5_3", 5, 3))
SMALL_GLUED = (("g3_4", 3, 4, "plus", 2, 1), ("g3_5", 3, 5, "minus", 2, 1))


def corrupt_row(spec):
    counts = spec.counts.copy()
    counts[len(counts) // 2, 0] += 1
    return pbent.WalshSpectrum(spec.p, spec.dim, counts)


def wrong_class(report):
    folded = workloads.fold(report.classification)
    wrong = "NonWeaklyRegular" if folded == "WeaklyRegular" else "WeaklyRegular"
    return dataclasses.replace(report, classification=wrong)


def run_small(sabotage: str | None) -> dict:
    """Failed/attempted per workload with the program's output sabotaged."""
    saved = {name: getattr(workloads, name) for name in
             ("RANDOM_TABLES", "GLUED", "walsh_full", "analyze")}
    workloads.RANDOM_TABLES, workloads.GLUED = SMALL_RANDOM, SMALL_GLUED
    if sabotage == "row":
        workloads.walsh_full = lambda f: corrupt_row(saved["walsh_full"](f))
    elif sabotage == "class":
        workloads.analyze = lambda spec: wrong_class(saved["analyze"](spec))
    try:
        out = {}
        for name in ("random_tables", "glued_bent"):
            res = workloads.PASSES[name](7, workloads.NullTracer())
            out[name] = (res.failed, res.attempted)
        return out
    finally:
        for name, value in saved.items():
            setattr(workloads, name, value)


def stub_criterion(number: int):
    """A criterion result as run_criterion gives it; criterion 4 raised."""
    if number == 4:
        return pbent.CriterionResult(4, "stub", False, 0.0, 1.0, {}, "RuntimeError: sabotaged")
    details = {
        n: {key: want} for n, key, want in workloads.PAPER_COUNTS.values()
    }.get(number, {})
    return pbent.CriterionResult(number, "stub", True, 0.0, 1.0, details)


def run_sabotaged_paper() -> list[str]:
    saved = workloads.run_criterion
    workloads.run_criterion = stub_criterion
    try:
        tracer = Tracer("selftest", memory=False)
        res = workloads.run_paper(7, tracer)
    finally:
        workloads.run_criterion = saved
    problems = []
    if (res.failed, res.attempted) != (1, len(workloads.CRITERIA)):
        problems.append(f"paper with criterion 4 raising: {res.failed} of "
                        f"{res.attempted} failed, expected 1")
    names = sorted(c["name"] for c in tracer.counts)
    if names != ["verify.c5_cases", "verify.c8_specs"]:
        problems.append(f"paper with criterion 4 raising recorded counts {names}")
    return problems


def main() -> int:
    problems = []

    ctx = pbent.make_field(3, 4)
    table = workloads.random_table(3, 0, 3, ctx.size)
    f = pbent.PFunction.from_field_table(ctx, table)
    rows = workloads.defining_sum_rows(ctx, table, np.arange(ctx.size))
    for b in range(ctx.size):
        if not np.array_equal(rows[b], pbent.walsh_naive(f, b).counts):
            problems.append(f"defining-sum oracle differs from walsh_naive at b={b}")
            break

    for sabotage in (None, "row", "class"):
        for name, (failed, attempted) in run_small(sabotage).items():
            want = 0 if sabotage is None else attempted
            if attempted == 0 or failed != want:
                problems.append(
                    f"{name} with sabotage {sabotage}: {failed} of {attempted} "
                    f"failed, expected {want}"
                )

    problems += run_sabotaged_paper()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "glued_bent",
             "--seed", "1", "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, timeout=200,
        )
        if proc.returncode != 0:
            problems.append(f"run.py --trace {trace} exited {proc.returncode}: {proc.stderr}")
            continue
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        names = [m["name"] for m in spec[key]]
        missing = [n for n in names if n not in last["metrics"]]
        if missing or set(last) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"--trace {trace}: missing {missing}, keys {sorted(last)}")
        if not last["correct"]:
            problems.append(f"--trace {trace}: {last['failed']} operations failed")

    for msg in problems:
        print(f"FAIL {msg}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
