"""Benchmark of pbent, the exact bent-function engine in ``src/pbent``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the directory above this file. Every
pass of a workload runs in a fresh interpreter (perfbench/worker.py), because
every ``pbent`` CLI call starts with cold caches (make_field, the Frobenius
permutations, the verify-paper example artifacts). Load is a closed loop
with one client: one pass at a time, each started after the previous one
ends; the program keeps its defaults, including its own scan thread pool.

--trace 0 runs passes for about --seconds (at least three) and reports the
end-to-end metrics of BENCHMARK.json: median wall time of a pass, median
set-up time (``import pbent`` plus make_field for the workload's fields) and
median peak RSS of the worker.

--trace 1 reports the per-layer metrics. It covers every workload, so that
each traced run yields the whole per-layer table. Per workload it alternates
two untraced passes (process CPU, and the base of the tracing overhead) with
two passes with spans around each call into the program (layer times and
counts), and reports the median of each; where a metric needs it, one more
pass has tracemalloc on inside walsh_full (its peak memory). Then comes a
make_field sweep.

Every output of the program is checked outside the timed region. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it name each metric with
its unit, and the full record (machine, seed, samples, spans) is written to
.perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import uuid
from importlib import metadata

from instances import OPERATIONS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("paper", "random_tables", "glued_bent")
MIN_PASSES = 3
# Plain and traced passes per workload in a --trace 1 run.
OVERHEAD_PAIRS = 2
# Workloads with a peak-memory metric; paper has none, so it skips that pass.
MEMORY_TRACED = ("random_tables", "glued_bent")
# Every run ends within this many seconds, whatever --seconds asks for.
RUN_LIMIT_S = 170.0


class Runner:
    """Starts worker interpreters one at a time and tallies their operations."""

    def __init__(self, seed: int, run_id: str):
        self.seed = seed
        self.run_id = run_id
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        # pbent does only integer numpy work and never calls BLAS, so the
        # BLAS thread pool only starts threads at import. Their start-up
        # swung numpy's import between 0.09 s and 0.16 s with the idle state
        # of the other core, which made setup_s unsteady.
        self.env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")

    def worker(self, *args: str) -> dict | None:
        """Run one worker to completion; None if it did not report."""
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--run-id", self.run_id,
               *args]
        timeout = self.deadline - time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            self.errors.append(f"worker {' '.join(args)} timed out")
            return None
        if proc.returncode != 0 or not proc.stdout.strip():
            self.errors.append(f"worker {' '.join(args)} exited with {proc.returncode}")
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def run_pass(self, workload: str, trace: int = 0) -> dict | None:
        out = self.worker("--workload", workload, "--seed", str(self.seed),
                          "--trace", str(trace))
        if out is None:
            # A pass that never reported counts all its operations as failed.
            self.attempted += OPERATIONS[workload]
            self.failed += OPERATIONS[workload]
            return None
        self.attempted += out["attempted"]
        self.failed += out["failed"]
        self.errors.extend(out["errors"])
        return out

    def time_left(self) -> float:
        return self.deadline - time.monotonic()


# ---------------------------------------------------------------------------
# metrics


def end_to_end(runner: Runner, workload: str, seconds: float, record: dict) -> dict:
    passes, durations = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        out = runner.run_pass(workload)
        durations.append(time.monotonic() - t0)
        if out is not None:
            passes.append(out)
        elapsed = time.monotonic() - start
        expected = statistics.mean(durations)
        if runner.time_left() < 2 * expected:
            break
        if len(durations) >= MIN_PASSES and elapsed + expected > seconds:
            break
    record["passes"] = passes
    if not passes:
        return {}
    samples = {
        "wall_s": [p["timed_s"] for p in passes],
        "setup_s": [p["setup_s"] for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }
    record["samples"] = samples
    return {name: statistics.median(vals) for name, vals in samples.items()}


def _duration(spans: list[dict]) -> float:
    return sum(s["end"] - s["start"] for s in spans)


def span_times(traced: dict) -> dict:
    """Per-layer times from one pass with spans."""
    metrics = {"gfpn.make_field_s": _duration(
        [s for s in traced["spans"] if s["name"] == "gfpn.make_field"])}
    for s in traced["spans"]:
        if s["name"] == "gfpn.make_field":
            continue
        suffix = f".{s['instance']}" if s["instance"] else ""
        dur = s["end"] - s["start"]
        metrics[f"{s['name']}_s{suffix}"] = dur
        if "points" in s:
            metrics[f"{s['name']}_mpts_per_s{suffix}"] = s["points"] / dur / 1e6
    return metrics


def span_counts(traced: dict) -> dict:
    """Per-layer counts from one pass with spans."""
    metrics = {}
    for c in traced["counts"]:
        suffix = f".{c['instance']}" if c["instance"] else ""
        metrics[f"{c['name']}{suffix}"] = c["value"]
    for s in {c["instance"] for c in traced["counts"] if c["instance"]}:
        metrics[f"spectrum.distinct_row_ratio.{s}"] = (
            metrics[f"spectrum.distinct_rows.{s}"] / metrics[f"spectrum.nonzero_rows.{s}"]
        )
    return metrics


def per_layer(runner: Runner, workload: str, record: dict) -> dict:
    metrics: dict = {}
    order = (workload,) + tuple(w for w in WORKLOADS if w != workload)
    record["passes"] = []
    for w in order:
        # Plain and traced passes alternate, so that a drift of the host's
        # speed during the run weighs on both sides of the overhead ratio.
        plain, traced = [], []
        for _ in range(OVERHEAD_PAIRS):
            plain.append(runner.run_pass(w))
            traced.append(runner.run_pass(w, trace=1))
        memory = runner.run_pass(w, trace=2) if w in MEMORY_TRACED else {"spans": []}
        record["passes"] += plain + traced + [memory]
        if None in plain or None in traced or memory is None:
            continue
        metrics[f"process.cpu_s.{w}"] = statistics.median(p["cpu_s"] for p in plain)
        metrics[f"trace.overhead_ratio.{w}"] = (
            statistics.median(t["timed_s"] for t in traced)
            / statistics.median(p["timed_s"] for p in plain)
        )
        per_pass = [span_times(t) for t in traced]
        for name in per_pass[0]:
            values = [m.get(name) for m in per_pass]
            if None not in values:
                key = f"{name}.{w}" if name == "gfpn.make_field_s" else name
                metrics[key] = statistics.median(values)
        # Counts do not depend on speed; the first pass gives them exactly.
        metrics.update(span_counts(traced[0]))
        for s in memory["spans"]:
            if "table_bytes" in s:
                metrics[f"{s['name']}_peak_x_table.{s['instance']}"] = (
                    s["peak_bytes"] / s["table_bytes"]
                )

    sweep = runner.worker("--sweep")
    record["sweep"] = sweep
    if sweep is not None:
        metrics["gfpn.make_field_s"] = _duration(sweep["spans"])
        metrics["gfpn.make_field_failed"] = len(sweep["failures"])
    return metrics


# ---------------------------------------------------------------------------
# record


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "unknown"
    try:
        commit = subprocess.run(
            ["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "pbent", "__init__.py")):
        print(f"no pbent package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    run_id = uuid.uuid4().hex[:12]
    runner = Runner(args.seed, run_id)
    record = {
        "benchmark": "pbent",
        "run_id": run_id,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
    }
    if args.trace:
        measured = per_layer(runner, args.workload, record)
    else:
        measured = end_to_end(runner, args.workload, args.seconds, record)
    ratio = runner.failed / runner.attempted if runner.attempted else 1.0
    record.update(attempted=runner.attempted, failed=runner.failed, failed_ratio=ratio,
                  errors=runner.errors, measured=measured)

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}-{run_id}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    for err in runner.errors:
        print(f"FAILED {err}", file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"no value for {', '.join(missing)}; see {path}", file=sys.stderr)
        return 1

    m = record["machine"]
    print(f"pbent benchmark  workload={args.workload} seed={args.seed} trace={args.trace} "
          f"run_id={run_id}")
    print(f"machine  nproc={m['nproc']} cpu={m['cpu_model']!r} python={m['python']} "
          f"numpy={m['numpy']} commit={m['commit']}")
    if not args.trace:
        print(f"passes  {len(record['samples']['wall_s'])} (medians below)")
    metrics = {}
    for entry in wanted:
        value = measured[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']:<44} {value:>14.6g} {entry['unit']}")
    print(f"{'failed_ratio':<44} {ratio:>14.6g} ({runner.failed} of {runner.attempted})")
    print(f"record  {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
