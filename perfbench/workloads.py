"""The benchmark's workloads: seeded inputs, the timed operations and the
checks of every output.

One pass of a workload runs its operations once, in order, in the calling
process. Only calls into the program are timed; inputs are generated before
the clock starts and outputs are checked after it stops. An operation that
raises or fails a check is counted as failed and the pass goes on.

Workloads:

paper          the nine ``verify-paper`` criteria. Mostly per-element field
               arithmetic, certificates, scans and glueings on at most 3^9
               points: ``gfpn``, ``quadratic`` and ``construct`` changes
               show here, large-transform changes barely do.
random_tables  full classification of uniform random tables on F_{3^13}
               and F_{7^7}. Almost all time is ``walsh_full``; ``analyze``
               stops early because the tables are not bent. Two primes, so
               a transform tuned for p = 3 that slows p = 7 shows.
glued_bent     the ``pbent construct`` path on three glued bent functions.
               The spectra are bent, so ``analyze`` and the b = 0 slice
               match every row: the same ``spectrum`` layer as
               random_tables, weighted towards classification.
"""

from __future__ import annotations

import random
import traceback
from contextlib import contextmanager, nullcontext
from time import perf_counter, process_time

import numpy as np

from pbent import (
    PFunction,
    analyze,
    anf,
    arrange,
    b_zero_slice_multiplicities,
    binomial_spec,
    glue,
    make_field,
    predict_regularity,
    run_criterion,
    walsh_full,
)

from instances import CRITERIA, GLUED, RANDOM_TABLES

# Counts from the criteria details. They do not depend on speed, so they
# must repeat exactly: a change that shrinks the work shows here.
PAPER_COUNTS = {
    "c4_cases": (4, "cases", 8914),
    "c5_cases": (5, "cases", 132),
    "c8_specs": (8, "specs_checked", 50),
}

# Coefficients of each random table compared with the defining sum.
CHECKED_COEFFICIENTS = 16


class NullTracer:
    """Stands in for spans.Tracer in untraced passes."""

    enabled = False

    def span(self, name, instance=None, **attrs):
        return nullcontext()

    def count(self, name, value, instance=None):
        pass


class PassResult:
    """Timed wall and CPU seconds and the operation tally of one pass."""

    def __init__(self):
        self.timed_s = 0.0
        self.cpu_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    @contextmanager
    def timed(self):
        """Adds the block's wall and process CPU time, unless it raises."""
        wall, cpu = perf_counter(), process_time()
        yield
        self.timed_s += perf_counter() - wall
        self.cpu_s += process_time() - cpu

    def record(self, instance: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.errors.extend(f"{instance}: {msg}" for msg in problems)

    def crashed(self, instance: str) -> None:
        self.record(instance, [traceback.format_exc()])


# ---------------------------------------------------------------------------
# seeded inputs


def random_table(seed: int, k: int, p: int, size: int) -> np.ndarray:
    return np.random.default_rng([seed, k]).integers(0, p, size, dtype=np.int64)


def checked_coefficients(seed: int, k: int, size: int) -> np.ndarray:
    rng = np.random.default_rng([seed, k, 1])
    return np.sort(rng.choice(size, CHECKED_COEFFICIENTS, replace=False))


def glue_scalars(seed: int, k: int, p: int) -> tuple:
    rng = random.Random(f"{seed}/{k}")
    return tuple(rng.randrange(1, p) for _ in range(p))


# ---------------------------------------------------------------------------
# output checks


def defining_sum_rows(ctx, table: np.ndarray, bs) -> np.ndarray:
    """Canonical count rows of W(b) = sum_x e^(f(x) - Tr(b x)) for each b.

    An oracle independent of the transform: the trace pairing comes from
    element multiplication and the trace, and the counts are a bincount of
    f(x) - <b, x>, taken over the field in chunks to keep memory flat.
    """
    p, n = ctx.p, ctx.n
    basis = [p ** i for i in range(n)]
    gram = np.array(
        [[ctx.trace(ctx.mul(u, v)) for v in basis] for u in basis], dtype=np.int64
    )
    bs = np.asarray(bs, dtype=np.int64)
    weights = np.array(basis, dtype=np.int64)
    # Float products are exact here (entries below n p^2) and use BLAS.
    cov = ((gram @ ((bs[:, None] // weights) % p).T) % p).astype(np.float64)
    # Key f(x) - <b, x> of coefficient k lands in bin k * p + key.
    offsets = p * np.arange(len(bs), dtype=np.int64)
    counts = np.zeros(len(bs) * p, dtype=np.int64)
    chunk = 1 << 16
    for lo in range(0, ctx.size, chunk):
        idx = np.arange(lo, min(lo + chunk, ctx.size), dtype=np.int64)
        pairing = (((idx[:, None] // weights) % p).astype(np.float64) @ cov).astype(np.int64)
        keys = (table[lo : lo + len(idx), None] - pairing) % p + offsets
        counts += np.bincount(keys.ravel(), minlength=len(counts))
    counts = counts.reshape(len(bs), p)
    return counts - counts[:, -1:]


def inverse_at_zero_ok(p: int, table: np.ndarray, spec) -> bool:
    """sum_b W(b) = p^dim e^(f(0)): a check over every row of the spectrum."""
    want = np.zeros(p, dtype=np.int64)
    want[int(table[0])] = len(table)
    return np.array_equal(spec.counts.sum(axis=0), want - want[-1])


def check_random(ctx, table, bs, spec, report, poly) -> list[str]:
    problems = []
    if not inverse_at_zero_ok(ctx.p, table, spec):
        problems.append("spectrum does not invert to f(0)")
    if report.classification != "NotApplicable":
        problems.append(f"classification {report.classification}, expected NotApplicable")
    expected = defining_sum_rows(ctx, table, bs)
    for b, row in zip(bs, expected):
        if not np.array_equal(spec.counts[b], row):
            problems.append(f"coefficient {int(b)} differs from the defining sum")
    if not np.array_equal(poly.value_table(), table):
        problems.append("ANF does not reproduce the table")
    return problems


def fold(classification: str) -> str:
    """The spectral classification folded to predict_regularity's labels."""
    if classification in ("Regular", "WeaklyRegular"):
        return "WeaklyRegular"
    return classification


def check_glued(f, spec, report, predicted, slice_mults, poly) -> list[str]:
    problems = []
    if not inverse_at_zero_ok(f.p, f.table, spec):
        problems.append("spectrum does not invert to f(0)")
    if not report.is_bent:
        problems.append(f"not bent ({report.classification})")
    if fold(report.classification) != predicted:
        problems.append(
            f"predicted {predicted}, spectrum says {report.classification}"
        )
    if sum(slice_mults.values()) != f.p ** (f.dim - 1):
        problems.append(
            f"slice multiplicities sum to {sum(slice_mults.values())}, "
            f"expected {f.p ** (f.dim - 1)}"
        )
    if not np.array_equal(poly.value_table(), f.table):
        problems.append("ANF does not reproduce the table")
    return problems


def check_paper(results) -> tuple[list[list[str]], dict]:
    """Problems per criterion, and the counts taken from the details."""
    problems = [[] for _ in results]
    for i, res in enumerate(results):
        if not res.passed:
            problems[i].append(f"criterion {res.number} failed: {res.error}")
    counts = {}
    for name, (number, key, want) in PAPER_COUNTS.items():
        got = results[number - 1].details.get(key)
        counts[name] = got
        if got != want:
            problems[number - 1].append(f"{name} = {got}, expected {want}")
    return problems, counts


# ---------------------------------------------------------------------------
# passes


def run_paper(seed: int, tracer) -> PassResult:
    """The nine criteria have fixed inputs; the seed is only recorded."""
    res = PassResult()
    results = []
    with res.timed():
        for number in CRITERIA:
            with tracer.span(f"verify.c{number}"):
                results.append(run_criterion(number))
    problems, counts = check_paper(results)
    for number, probs in enumerate(problems, 1):
        res.record(f"criterion {number}", probs)
    for name, value in counts.items():
        # A criterion that raised has no details, so no count to record;
        # its failure is already counted above.
        if value is not None:
            tracer.count(f"verify.{name}", value)
    return res


def run_random_tables(seed: int, tracer) -> PassResult:
    res = PassResult()
    for k, (inst, p, n) in enumerate(RANDOM_TABLES):
        ctx = make_field(p, n)
        table = random_table(seed, k, p, ctx.size)
        bs = checked_coefficients(seed, k, ctx.size)
        try:
            with res.timed():
                with tracer.span("spectrum.pfunction", inst):
                    f = PFunction.from_field_table(ctx, table)
                with tracer.span("spectrum.walsh_full", inst, points=f.size,
                                 table_bytes=f.table.nbytes):
                    spec = walsh_full(f)
                with tracer.span("spectrum.analyze", inst):
                    report = analyze(spec)
                with tracer.span("construct.anf", inst):
                    poly = anf(f)
            res.record(inst, check_random(ctx, table, bs, spec, report, poly))
        except Exception:  # noqa: BLE001 - a crash is a failed operation
            res.crashed(inst)
    return res


def run_glued_bent(seed: int, tracer) -> PassResult:
    res = PassResult()
    for k, (inst, p, n, variant, r, t) in enumerate(GLUED):
        ctx = make_field(p, n)
        components = (binomial_spec(ctx, r, t, variant),) * p
        scalars = glue_scalars(seed, k, p)
        try:
            with res.timed():
                with tracer.span("construct.arrange", inst):
                    gs = arrange(components, scalars)
                with tracer.span("construct.predict_regularity", inst):
                    predicted = predict_regularity(gs)
                with tracer.span("construct.glue", inst):
                    f = glue(gs)
                with tracer.span("spectrum.walsh_full", inst, points=f.size,
                                 table_bytes=f.table.nbytes):
                    spec = walsh_full(f)
                with tracer.span("spectrum.analyze", inst):
                    report = analyze(spec)
                with tracer.span("spectrum.slice", inst):
                    slice_mults = b_zero_slice_multiplicities(spec)
                with tracer.span("construct.anf", inst):
                    poly = anf(f)
            res.record(inst, check_glued(f, spec, report, predicted, slice_mults, poly))
        except Exception:  # noqa: BLE001 - a crash is a failed operation
            res.crashed(inst)
        else:
            if tracer.enabled:
                # Rows analyze matches, and how many of them are distinct.
                nonzero = spec.counts[np.any(spec.counts != 0, axis=1)]
                tracer.count("spectrum.nonzero_rows", len(nonzero), inst)
                tracer.count("spectrum.distinct_rows", len(np.unique(nonzero, axis=0)), inst)
    return res


PASSES = {
    "paper": run_paper,
    "random_tables": run_random_tables,
    "glued_bent": run_glued_bent,
}
