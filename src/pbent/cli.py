"""Command-line interface.

Subcommands: field, analyze, construct, scan, verify-paper. All structured
output is JSON on stdout; raw spectra can be dumped to CSV on request. Exit
codes: 0 success, 1 verification failure, 2 input error. Apart from the
timing block, payloads are deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from . import verify
from .construct import GluedSpec, anf, build_example, glue, scan_coefficients
from .gfpn import field_to_json, make_field
from .quadratic import QuadraticSpec
from .spectrum import PFunction, analyze, b_zero_slice_multiplicities, walsh_full


class ParseError(ValueError):
    """The input file is not syntactically valid JSON."""


class ValidationError(ValueError):
    """The input parsed but a field is missing or out of range."""


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _load_json(path: str) -> tuple[dict, str]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: top-level value must be an object")
    return obj, _digest(raw)


def _report(command: str, digest: str, timing_ms: dict, result: dict) -> dict:
    return {
        "command": command,
        "input_digest": digest,
        "timing_ms": timing_ms,
        "result": result,
    }


def _emit(obj: dict) -> None:
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _mults_json(mults: dict) -> list:
    return [
        {"zeta": z, "j": j, "count": c} for (z, j), c in sorted(mults.items())
    ]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_field(args) -> int:
    modulus = None
    if args.modulus:
        try:
            modulus = tuple(int(c) for c in args.modulus.split(","))
        except ValueError as exc:
            raise ValidationError(f"--modulus must be comma-separated integers: {exc}") from exc
    ctx = make_field(args.p, args.n, modulus)
    digest = _digest(f"{args.p},{args.n},{modulus}".encode())
    _emit(_report("field", digest, {}, field_to_json(ctx)))
    return 0


def _function_from_obj(obj: dict) -> PFunction:
    """Accepts a raw table, a quadratic spec, or a glued spec."""
    if "table" in obj:
        return PFunction.from_json(obj)
    if "components" in obj:
        return glue(GluedSpec.from_json(obj))
    if "quad_terms" in obj:
        return QuadraticSpec.from_json(obj).to_table()
    raise ValidationError(
        "object has none of the fields 'table', 'components', 'quad_terms'"
    )


def _cmd_analyze(args) -> int:
    obj, digest = _load_json(args.input)
    t0 = time.perf_counter()
    f = _function_from_obj(obj)
    t1 = time.perf_counter()
    spec = walsh_full(f)
    report = analyze(spec)
    t2 = time.perf_counter()
    result = report.to_json()
    result["algebraic_degree"] = anf(f).degree
    if f.kind == "product" and report.is_bent:
        result["b0_slice_multiplicities"] = _mults_json(
            b_zero_slice_multiplicities(spec)
        )
    t3 = time.perf_counter()
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("b_index," + ",".join(f"count_{k}" for k in range(f.p)) + "\n")
            for b in range(spec.counts.shape[0]):
                fh.write(str(b) + "," + ",".join(map(str, spec.counts[b])) + "\n")
        result["csv_path"] = args.csv
    timing = {
        "build_ms": int((t1 - t0) * 1000),
        "transform_ms": int((t2 - t1) * 1000),
        "classify_ms": int((t3 - t2) * 1000),
    }
    _emit(_report("analyze", digest, timing, result))
    return 0


def _cmd_construct(args) -> int:
    t0 = time.perf_counter()
    if args.source.isdigit():
        eid = int(args.source)
        if eid not in (2, 3, 4, 5, 6):
            raise ValidationError(f"example id must be 2..6, got {eid}")
        gs = build_example(eid)
        digest = _digest(args.source.encode())
    else:
        obj, digest = _load_json(args.source)
        if "components" not in obj:
            raise ValidationError("glued spec file must have a 'components' field")
        gs = GluedSpec.from_json(obj)
    f = glue(gs)
    report = analyze(walsh_full(f))
    degree = anf(f).degree
    t1 = time.perf_counter()
    result = {
        "spec": gs.to_json(),
        "is_bent": report.is_bent,
        "classification": report.classification,
        "zeta": report.zeta,
        "algebraic_degree": degree,
    }
    if args.out:
        payload = {"spec": gs.to_json(), "function": f.to_json()}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        result["out_path"] = args.out
    _emit(_report("construct", digest, {"total_ms": int((t1 - t0) * 1000)}, result))
    return 0


def _cmd_scan(args) -> int:
    obj, digest = _load_json(args.input)
    for key in ("p", "n", "components"):
        if key not in obj:
            raise ValidationError(f"scan template is missing the field {key!r}")
    ctx = make_field(int(obj["p"]), int(obj["n"]), obj.get("modulus"))
    comps = tuple(QuadraticSpec.from_json(c, ctx) for c in obj["components"])
    if len(comps) != ctx.p:
        raise ValidationError(
            f"components: need exactly {ctx.p} entries, got {len(comps)}"
        )
    t0 = time.perf_counter()
    report = scan_coefficients(comps, confirm_spectrum=args.confirm_spectrum)
    t1 = time.perf_counter()
    _emit(_report("scan", digest, {"total_ms": int((t1 - t0) * 1000)}, report.to_json()))
    return 1 if report.disagreements else 0


def _cmd_verify_paper(args) -> int:
    results = verify.run_all()
    for res in results:
        print(res.line())
    payload = _report(
        "verify-paper",
        _digest(b"verify-paper"),
        {"total_ms": int(sum(r.seconds for r in results) * 1000)},
        {"criteria": [r.to_json() for r in results],
         "all_passed": all(r.passed for r in results)},
    )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        _emit(payload)
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# argument wiring


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="pbent",
        description="Exact Walsh spectra, bent/near-bent classification and "
        "the near-bent glueing construction over odd-characteristic fields.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p_field = sub.add_parser("field", help="construct a field context, print its JSON")
    p_field.add_argument("--p", type=int, required=True, help="odd prime characteristic")
    p_field.add_argument("--n", type=int, required=True, help="extension degree")
    p_field.add_argument("--modulus", help="comma-separated coefficients, constant first")
    p_field.set_defaults(fn=_cmd_field)

    p_an = sub.add_parser("analyze", help="full spectrum and classification of a function")
    p_an.add_argument("input", help="JSON file: function table, quadratic spec or glued spec")
    p_an.add_argument("--csv", help="also dump the raw spectrum counts to this CSV file")
    p_an.set_defaults(fn=_cmd_analyze)

    p_co = sub.add_parser("construct", help="build a glued bent function")
    p_co.add_argument("source", help="worked example id (2..6) or glued-spec JSON file")
    p_co.add_argument("--out", help="write the function table and spec JSON here")
    p_co.set_defaults(fn=_cmd_construct)

    p_sc = sub.add_parser("scan", help="sweep scalar tuples for a component template")
    p_sc.add_argument("input", help="JSON template with p, n, optional modulus, components")
    p_sc.add_argument("--confirm-spectrum", action="store_true",
                      help="classify every glued spectrum and compare with the prediction")
    p_sc.set_defaults(fn=_cmd_scan)

    p_vp = sub.add_parser("verify-paper", help="run the built-in verification suite")
    p_vp.add_argument("--json", help="write the detailed JSON report to this file")
    p_vp.set_defaults(fn=_cmd_verify_paper)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, ValidationError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
