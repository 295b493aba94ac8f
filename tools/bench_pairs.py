"""Alternating parent/change pairs of the pbent benchmark, written to one file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --tag NAME \
        [--pairs 10] [--seconds 40] [--seed-base 901]

DIR is a checkout of the repository. For every workload in BENCHMARK.json
and pair k, both checkouts run ``perfbench/run.py --trace 0`` with seed
seed-base + k; even pairs run the parent first, odd pairs the change first,
so a drift of the host's speed weighs on both sides. After the pairs, each
checkout makes two ``--trace 1`` runs, alternated parent, change, change,
parent (seeds seed-base + pairs and seed-base + pairs + 1), whose result
lines hold the per-layer metrics of every workload; the record lists each
per-layer metric's two values per side, so its spread shows beside the
difference. The file
BENCH_<NAME>.json in the current directory gets the result line of every
run, the seeds, the machine, both commits and, per workload and end-to-end
metric, each side's median and quartiles, the pairs the change won (ties
count for neither side) and whether that is a gain: at least nine tenths of
the pairs won and medians further apart than the parent's interquartile
range. The file is rewritten after every pair and every traced run, so an
interrupted run keeps the runs it finished.
The workers' stderr is a pipe (recorded as "worker_stderr": "pipe"); that
alone moves the glued_bent peak_rss_mb by about 1.5 MB against a run whose
stderr is inherited, so compare peak RSS only between runs made the same way.
Standard library only.
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


def git(path: str, *args: str) -> str:
    proc = subprocess.run(["git", "-C", path, *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def checkout(path: str) -> dict:
    """The commit and src/ tree a checkout runs, and whether its program or
    benchmark files differ from that commit."""
    return {
        "commit": git(path, "rev-parse", "HEAD"),
        "src_tree": git(path, "rev-parse", "HEAD:src"),
        "dirty": bool(git(path, "status", "--porcelain", "--", "src", "perfbench")),
    }


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def run_once(path: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; its last output line, or the failure."""
    cmd = [sys.executable, os.path.join(path, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    out = {"started": start, "returncode": proc.returncode}
    lines = proc.stdout.strip().splitlines()
    try:
        out["result"] = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        out["stderr"] = proc.stderr[-2000:]
    return out


def summary(pairs: list, metrics: list) -> dict:
    out = {}
    for m in metrics:
        name = m["name"]
        values = [(p["parent"]["result"]["metrics"][name]["value"],
                   p["change"]["result"]["metrics"][name]["value"])
                  for p in pairs if "result" in p["parent"] and "result" in p["change"]]
        if len(values) < 2:
            continue
        parent, change = [v[0] for v in values], [v[1] for v in values]
        sign = 1 if m["better"] == "lower" else -1
        wins = sum(sign * (a - b) > 0 for a, b in values)
        pq = statistics.quantiles(parent, n=4, method="inclusive")
        cq = statistics.quantiles(change, n=4, method="inclusive")
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "parent_median": statistics.median(parent),
            "parent_quartiles": [pq[0], pq[2]],
            "change_median": statistics.median(change),
            "change_quartiles": [cq[0], cq[2]],
            "pairs": len(values),
            "change_wins": wins,
            "gain": wins >= 0.9 * len(values)
            and sign * (statistics.median(parent) - statistics.median(change)) > pq[2] - pq[0],
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--tag", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--seed-base", type=int, default=901)
    args = ap.parse_args()

    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    record = {
        "tag": args.tag,
        "command": "perfbench/run.py --trace 0, then two --trace 1 runs per side",
        "worker_stderr": "pipe",
        "seconds": args.seconds,
        "machine": machine(),
        "parent": checkout(args.parent),
        "change": checkout(args.change),
        "workloads": {},
    }
    path = f"BENCH_{args.tag}.json"

    def write():
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")

    for workload in (w["name"] for w in bench["workloads"]):
        entry = record["workloads"][workload] = {"pairs": [], "summary": {}}
        for k in range(args.pairs):
            seed = args.seed_base + k
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(getattr(args, side), workload, seed, args.seconds, 0)
            entry["pairs"].append(pair)
            entry["summary"] = summary(entry["pairs"], bench["end_to_end"])
            write()
            got = {s: pair[s].get("result", {}).get("metrics", {}).get("wall_s", {})
                   .get("value") for s in order}
            print(f"{workload} pair {k + 1}/{args.pairs} seed {seed}: wall_s {got}", flush=True)
        for name, s in entry["summary"].items():
            print(f"{workload} {name}: parent {s['parent_median']:.4g} change "
                  f"{s['change_median']:.4g} {s['unit']}, change won {s['change_wins']} of "
                  f"{s['pairs']}, gain {s['gain']}", flush=True)
    # a --trace 1 run covers every workload; it starts from the first one
    first, seed = bench["workloads"][0]["name"], args.seed_base + args.pairs
    traced = record["traced"] = {"workload": first, "seeds": [seed, seed + 1],
                                 "parent": [], "change": [], "per_layer": {}}
    for k, side in enumerate(("parent", "change", "change", "parent")):
        traced[side].append(run_once(getattr(args, side), first, seed + k // 2, args.seconds, 1))
        traced["per_layer"] = {
            m["name"]: {s: [r["result"]["metrics"].get(m["name"], {}).get("value")
                            for r in traced[s] if "result" in r] for s in ("parent", "change")}
            for m in bench["per_layer"]}
        write()
        print(f"traced run {k + 1}/4 ({side}, seed {seed + k // 2}): returncode "
              f"{traced[side][-1]['returncode']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
