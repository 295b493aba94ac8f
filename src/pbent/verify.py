"""Built-in verification suite.

Each criterion re-derives one frozen reference result (spectra, class
multiplicities, closed-form criteria, identities) from scratch and compares
exactly; tolerances are all zero. The functions return structured results so
the CLI and the test suite share one implementation.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from .construct import (
    arrange,
    anf,
    build_example,
    glue,
    predict_regularity,
    scan_coefficients,
    spectral_regularity,
)
from .cyclotomic import CycInt, eta, gauss_sum
from .gfpn import make_field, rank
from .quadratic import (
    QuadraticSpec,
    binomial_near_bent,
    binomial_spec,
    certificates,
    circulant_delta,
    form_matrices,
)
from .spectrum import (
    PFunction,
    analyze,
    b_zero_slice_multiplicities,
    walsh_full,
    walsh_naive,
    walsh_naive_full,
)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    seconds: float
    limit_seconds: float
    details: dict
    error: str | None = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number} ({self.name}): {status} [{self.seconds:.2f}s]"

    def to_json(self) -> dict:
        return {
            "number": self.number,
            "name": self.name,
            "passed": self.passed,
            "seconds": round(self.seconds, 3),
            "limit_seconds": self.limit_seconds,
            "details": self.details,
            "error": self.error,
        }


# ---------------------------------------------------------------------------
# shared artifacts


@lru_cache(maxsize=None)
def _example_artifacts(eid: int):
    gs = build_example(eid)
    f = glue(gs)
    spec = walsh_full(f)
    report = analyze(spec)
    return gs, f, spec, report


_EXPECTED_2 = {("-i", 0): 2187, ("-i", 1): 2268, ("-i", 2): 2106}
_EXPECTED_3 = {
    ("i", 0): 729,
    ("i", 1): 702,
    ("i", 2): 756,
    ("-i", 0): 1458,
    ("-i", 1): 1512,
    ("-i", 2): 1404,
}


# ---------------------------------------------------------------------------
# criteria


def _criterion_1() -> tuple[bool, dict]:
    _, f, spec, report = _example_artifacts(2)
    degree = anf(f).degree
    slice_mults = b_zero_slice_multiplicities(spec)
    details = {
        "is_bent": report.is_bent,
        "degree": degree,
        "classification": report.classification,
        "zeta": report.zeta,
        "value_set": sorted(report.class_multiplicities),
        "slice_multiplicities": _fmt_mults(slice_mults),
        "full_multiplicities": _fmt_mults(report.class_multiplicities),
    }
    ok = (
        report.is_bent
        and degree == 4
        and report.classification == "WeaklyRegular"
        and report.zeta == "-i"
        and set(report.class_multiplicities) == set(_EXPECTED_2)
        and slice_mults == _EXPECTED_2
    )
    return ok, details


def _criterion_2() -> tuple[bool, dict]:
    _, _, spec, report = _example_artifacts(3)
    slice_mults = b_zero_slice_multiplicities(spec)
    details = {
        "classification": report.classification,
        "value_set": sorted(report.class_multiplicities),
        "slice_multiplicities": _fmt_mults(slice_mults),
        "full_multiplicities": _fmt_mults(report.class_multiplicities),
    }
    ok = report.classification == "NonWeaklyRegular" and slice_mults == _EXPECTED_3
    return ok, details


def _criterion_3() -> tuple[bool, dict]:
    _, _, _, rep4 = _example_artifacts(4)
    _, _, _, rep5 = _example_artifacts(5)
    gs6, f6, _, rep6 = _example_artifacts(6)
    deg6 = anf(f6).degree
    fig4 = {("-i", 0), ("-i", 1), ("-i", 2)}
    fig6 = {(z, j) for z in ("i", "-i") for j in range(3)}
    details = {
        "example_4": {
            "classification": rep4.classification,
            "zeta": rep4.zeta,
            "value_set": sorted(rep4.class_multiplicities),
            "full_multiplicities": _fmt_mults(rep4.class_multiplicities),
        },
        "example_5": {
            "classification": rep5.classification,
            "value_set": sorted(rep5.class_multiplicities),
            "full_multiplicities": _fmt_mults(rep5.class_multiplicities),
        },
        "example_6": {
            "is_bent": rep6.is_bent,
            "dim": rep6.dim,
            "classification": rep6.classification,
            "zeta": rep6.zeta,
            "degree": deg6,
        },
    }
    ok = (
        rep4.classification == "WeaklyRegular"
        and rep4.zeta == "-i"
        and set(rep4.class_multiplicities) == fig4
        and rep5.classification == "NonWeaklyRegular"
        and set(rep5.class_multiplicities) == fig6
        and rep6.is_bent
        and rep6.dim == 6
        and rep6.classification == "WeaklyRegular"
        and deg6 == 4
    )
    return ok, details


def _criterion_4() -> tuple[bool, dict]:
    cases = 0
    exceptions = []
    for p, nmax in ((3, 6), (5, 4)):
        for n in range(1, nmax + 1):
            ctx = make_field(p, n)
            a = np.arange(1, ctx.size)
            for r in range(n):
                # Tr(a x^(p^r + 1)) is the coefficient row with a at position r
                rows = np.zeros((a.size, n), dtype=np.int64)
                rows[:, r] = a
                s = n - rank(form_matrices(ctx, rows), p)
                cases += a.size
                exceptions += [{"p": p, "n": n, "r": r, "a": int(x)} for x in a[s == 1]]
    return not exceptions, {"cases": cases, "exceptions": exceptions}


def _criterion_5() -> tuple[bool, dict]:
    cases = [(p, n, r, t, variant) for p, nmax in ((3, 8), (5, 5)) for n in range(2, nmax + 1)
             for r in range(2, n) for t in range(1, r) for variant in ("minus", "plus")]
    certs = certificates([binomial_spec(make_field(p, n), r, t, v) for p, n, r, t, v in cases])
    disagreements = []
    for (p, n, r, t, variant), cert in zip(cases, certs):
        predicted = binomial_near_bent(p, n, r, t, variant)
        if predicted != (cert.s == 1):
            disagreements.append({"p": p, "n": n, "r": r, "t": t, "variant": variant,
                                  "predicted": predicted, "s": cert.s})
    return not disagreements, {"cases": len(cases), "disagreements": disagreements}


def _criterion_6() -> tuple[bool, dict]:
    ctx = make_field(3, 4)
    g = binomial_spec(ctx, 2, 1, "plus")
    report = scan_coefficients((g, g, g), confirm_spectrum=True)
    expected = (3 - 1) ** 3 // 2 ** (3 - 1)
    details = {
        "weakly_regular": report.weakly_regular,
        "non_weakly_regular": report.non_weakly_regular,
        "expected_weakly_regular": expected,
        "disagreements": report.disagreements,
    }
    ok = (
        report.weakly_regular == 2
        and report.weakly_regular == expected
        and report.non_weakly_regular == 6
        and report.disagreements == 0
    )
    return ok, details


def _criterion_7() -> tuple[bool, dict]:
    ctx = make_field(3, 5)
    g = binomial_spec(ctx, 2, 1, "minus")
    report = scan_coefficients((g, g, g), confirm_spectrum=True)
    details = {
        "weakly_regular": report.weakly_regular,
        "non_weakly_regular": report.non_weakly_regular,
        "disagreements": report.disagreements,
    }
    ok = (
        report.weakly_regular == 8
        and report.non_weakly_regular == 0
        and report.disagreements == 0
    )
    return ok, details


_VALID_PAIRS = {
    (4, "minus"): ((2, 1), (3, 2)),
    (4, "plus"): ((2, 1), (3, 2)),
    (5, "minus"): ((2, 1), (3, 1), (4, 2), (4, 3)),
}


def _criterion_8() -> tuple[bool, dict]:
    rng = random.Random(20250819)
    checked = 0
    disagreements = []
    while checked < 50:
        n = rng.choice((4, 5))
        variant = rng.choice(("minus", "plus")) if n == 4 else "minus"
        ctx = make_field(3, n)
        pool = _VALID_PAIRS[(n, variant)]
        comps = tuple(
            binomial_spec(ctx, *rng.choice(pool), variant) for _ in range(3)
        )
        scalars = tuple(rng.choice((1, 2)) for _ in range(3))
        gs = arrange(comps, scalars)
        pred = predict_regularity(gs)
        spect = spectral_regularity(gs)
        checked += 1
        if pred != spect:
            disagreements.append(
                {"n": n, "variant": variant, "scalars": scalars,
                 "predicted": pred, "spectral": spect}
            )
    return not disagreements, {"specs_checked": checked, "disagreements": disagreements}


# Draws per round of the scaling check; about 8% are near-bent, so one round suffices.
_SCALING_CHUNK = 1500


def _scaling_pairs(rng: random.Random) -> list:
    """100 (near-bent spec, scalar c) pairs for the discriminant scaling law. Each
    round ranks _SCALING_CHUNK draws (one or two nonzero terms on F_{3^4}, F_{3^5}
    or F_{5^3}) as one stack per field; its near-bent draws then draw c in order."""
    fields = [make_field(3, 4), make_field(3, 5), make_field(5, 3)]
    pairs = []
    while len(pairs) < 100:
        chunk = []
        for _ in range(_SCALING_CHUNK):
            ctx = rng.choice(fields)
            terms = tuple(
                (rng.randrange(1, ctx.size), rng.randrange(ctx.n))
                for _ in range(rng.choice((1, 2)))
            )
            chunk.append(QuadraticSpec(ctx, terms))
        near_bent = [q for q, c in zip(chunk, certificates(chunk)) if c.s == 1]
        pairs += [(q, rng.randrange(1, q.ctx.p)) for q in near_bent[: 100 - len(pairs)]]
    return pairs


def _criterion_9() -> tuple[bool, dict]:
    rng = random.Random(987654)
    details: dict = {}
    verdicts: dict = {}

    # exact Parseval on explicitly summed spectra
    parseval_ok = True
    ctx27 = make_field(3, 3)
    for _ in range(5):
        f = PFunction.from_field_table(ctx27, [rng.randrange(3) for _ in range(27)])
        spec = walsh_full(f)
        total = CycInt.zero(3)
        for b in range(27):
            total = total + spec.coefficient(b).norm_sq()
        if total != 3 ** (2 * 3):
            parseval_ok = False
    details["parseval_explicit"] = 5
    verdicts["parseval"] = parseval_ok

    # near-bent supports have size p^(n-1)
    supports_ok = True
    ctx35 = make_field(3, 5)
    near_bent_specs = [binomial_spec(ctx35, r, t, "minus") for r, t in _VALID_PAIRS[(5, "minus")]]
    ctx38 = make_field(3, 8)
    near_bent_specs += [binomial_spec(ctx38, 2, 1, "plus"), binomial_spec(ctx38, 6, 5, "plus")]
    for q in near_bent_specs:
        spec = walsh_full(q.to_table())
        n = q.ctx.n
        if spec.support_size != 3 ** (n - 1):
            supports_ok = False
    details["near_bent_supports"] = len(near_bent_specs)
    verdicts["near_bent_support"] = supports_ok

    # fast transform equals the direct-counting oracle, exhaustively
    fast_naive_ok = True
    for p, n in ((3, 2), (3, 3), (5, 2)):
        ctx = make_field(p, n)
        size = p ** n
        for _ in range(50):
            f = PFunction.from_field_table(ctx, [rng.randrange(p) for _ in range(size)])
            if not np.array_equal(walsh_full(f).counts, walsh_naive_full(f)):
                fast_naive_ok = False
        # and the scalar definition itself on sampled coefficients
        f = PFunction.from_field_table(ctx, [rng.randrange(p) for _ in range(size)])
        spec = walsh_full(f)
        for b in rng.sample(range(size), min(10, size)):
            if spec.coefficient(b) != walsh_naive(f, b):
                fast_naive_ok = False
    details["fast_vs_naive_functions"] = 150
    verdicts["fast_vs_naive"] = fast_naive_ok

    # Gauss-sum identity
    verdicts["gauss_sum"] = all(
        gauss_sum(p) * gauss_sum(p) == (-1) ** ((p - 1) // 2) * p
        for p in (3, 5, 7, 11, 13)
    )
    details["gauss_sum_primes"] = [3, 5, 7, 11, 13]

    # discriminant scaling law on random near-bent specs (rank n - 1)
    pairs = _scaling_pairs(rng)
    details["scaling_specs"] = len(pairs)
    certs = certificates([q for q, _ in pairs] + [q.scale(c) for q, c in pairs])
    etas = [cert.eta for cert in certs]
    verdicts["discriminant_scaling"] = all(
        scaled == eta(q.ctx.p, c) ** (q.ctx.n - 1) * base
        for (q, c), base, scaled in zip(pairs, etas, etas[len(pairs):])
    )

    # eigenvalue-product invariance across admissible exponent pairs
    invariance_ok = True
    for n in (5, 7):
        pairs = [
            (r, t)
            for r in range(2, n)
            for t in range(1, r)
            if gcd(n, r + t) == 1 and gcd(n, r - t) == 1
        ]
        deltas = {circulant_delta(3, n, r, t) for r, t in pairs}
        if len(deltas) != 1:
            invariance_ok = False
        details[f"circulant_pairs_n{n}"] = len(pairs)
        # cross-route: the discriminant class computed from the power basis
        ctx = make_field(3, n)
        d = deltas.pop()
        certs = certificates([binomial_spec(ctx, r, t, "minus") for r, t in pairs])
        if {cert.eta for cert in certs} != {eta(3, d)}:
            invariance_ok = False
    verdicts["circulant_invariance"] = invariance_ok

    details["subchecks"] = verdicts
    return all(verdicts.values()), details


_CRITERIA = [
    (1, "example-2 spectrum, degree and multiplicities", _criterion_1, 30.0),
    (2, "example-3 non-weakly-regular multiplicities", _criterion_2, 30.0),
    (3, "examples 4-6 value sets and classifications", _criterion_3, 10.0),
    (4, "monomial near-bent impossibility sweep", _criterion_4, 60.0),
    (5, "binomial criteria vs kernel oracle", _criterion_5, 60.0),
    (6, "even-n scalar scan weakly regular count", _criterion_6, 10.0),
    (7, "odd-n scalar scan always weakly regular", _criterion_7, 10.0),
    (8, "random glued specs predictor vs spectra", _criterion_8, 120.0),
    (9, "property suite", _criterion_9, 120.0),
]


def _fmt_mults(mults: dict) -> dict:
    return {f"{z} j={j}": c for (z, j), c in sorted(mults.items())}


def run_criterion(number: int) -> CriterionResult:
    entry = next(e for e in _CRITERIA if e[0] == number)
    num, name, fn, limit = entry
    start = time.perf_counter()
    try:
        passed, details = fn()
        error = None
    except Exception as exc:  # noqa: BLE001 - verdicts must not crash the suite
        passed, details, error = False, {}, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if seconds > limit:
        passed = False
        error = (error or "") + f" exceeded time limit {limit}s"
    return CriterionResult(num, name, passed, seconds, limit, details, error)


def run_all() -> list[CriterionResult]:
    return [run_criterion(num) for num, *_ in _CRITERIA]
