"""One pass of one workload in a fresh interpreter; prints one JSON line.

Started by run.py with PYTHONPATH set to the checkout's ``src``, so every
pass starts with the program's caches cold, as a ``pbent`` CLI call does.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1|2
    python3 perfbench/worker.py --sweep

--trace 1 records spans around each call into the program, --trace 2 also
their tracemalloc peaks.

Nothing but the standard library is imported before ``import pbent``, so
that the import is timed whole in setup_s.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import traceback
from time import perf_counter

from instances import FIELDS

# The package under test: src/ of the checkout this file lies in.
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# make_field sweep of the traced run: p = 3 with n = 1..13, p = 5, 7 with
# n = 1..8.
SWEEP = tuple((3, n) for n in range(1, 14)) + tuple(
    (p, n) for p in (5, 7) for n in range(1, 9)
)


def _import_pbent():
    import pbent

    if not os.path.abspath(pbent.__file__).startswith(SRC + os.sep):
        raise ImportError(f"pbent was imported from {pbent.__file__}, not from {SRC}")
    return pbent


def run_pass(workload: str, seed: int, trace: int, run_id: str) -> dict:
    start = perf_counter()
    pbent = _import_pbent()
    import_s = perf_counter() - start

    import workloads

    tracer = workloads.NullTracer()
    if trace:
        from spans import Tracer

        tracer = Tracer(run_id, memory=trace == 2)
    start = perf_counter()
    for p, n in FIELDS[workload]:
        with tracer.span("gfpn.make_field", f"{p}_{n}"):
            pbent.make_field(p, n)
    setup_s = import_s + perf_counter() - start

    res = workloads.PASSES[workload](seed, tracer)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "setup_s": setup_s,
        "timed_s": res.timed_s,
        "cpu_s": res.cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": res.attempted,
        "failed": res.failed,
        "errors": res.errors,
        "spans": tracer.spans if trace else [],
        "counts": tracer.counts if trace else [],
    }


def run_sweep(run_id: str) -> dict:
    pbent = _import_pbent()
    from spans import Tracer

    tracer = Tracer(run_id, memory=False)
    failures = []
    for p, n in SWEEP:
        with tracer.span("gfpn.make_field", f"{p}_{n}"):
            try:
                pbent.make_field(p, n)
            except Exception as exc:  # noqa: BLE001 - the sweep counts failures
                failures.append(f"make_field({p}, {n}): {type(exc).__name__}: {exc}")
    return {"failures": failures, "spans": tracer.spans}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1, 2), default=0)
    ap.add_argument("--sweep", action="store_true")
    ap.add_argument("--run-id", default="")
    args = ap.parse_args()
    try:
        if args.sweep:
            out = run_sweep(args.run_id)
        else:
            out = run_pass(args.workload, args.seed, args.trace, args.run_id)
    except Exception:  # noqa: BLE001 - reported to run.py, which counts the pass as failed
        traceback.print_exc()
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
