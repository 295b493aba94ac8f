"""Frozen `pbent analyze --csv` and `pbent construct` outputs.

The inputs are fixed here; the expected payloads (without `timing_ms`) and
the raw spectrum CSVs live in tests/data/golden/. test_golden_cli.py
compares the CLI against them, so every count, shape and ANF degree the
engine reports stays bit-identical across rewrites of the transform layer.

Regenerate only when a change of output is intended:

    PYTHONPATH=src python tests/golden_cli.py
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from pbent import cli
from pbent.construct import build_example
from pbent.gfpn import make_field
from pbent.spectrum import PFunction

GOLDEN = Path(__file__).parent / "data" / "golden"


def analyze_inputs() -> dict:
    """name -> input object of `pbent analyze`."""
    ctx = make_field(7, 3)
    table = np.random.default_rng(20101130).integers(7, size=ctx.size)
    return {
        # Tr(x^10 + x^4) on F_{3^8}: near-bent
        "quadratic_3_8": {
            "p": 3,
            "n": 8,
            "quad_terms": [{"a_index": 1, "i": 2}, {"a_index": 1, "i": 1}],
        },
        "glued_example_6": build_example(6).to_json(),
        "random_7_3": PFunction.from_field_table(ctx, table).to_json(),
    }


CONSTRUCT_SOURCES = ("2", "3", "4", "5", "6")


def run_cli(argv) -> tuple[int, dict]:
    """Exit code and the payload without its timing block."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    payload = json.loads(out.getvalue())
    del payload["timing_ms"]
    payload["result"].pop("csv_path", None)
    return rc, payload


def run_analyze(name: str, obj: dict, workdir: Path) -> tuple[int, dict, bytes]:
    src = workdir / f"{name}.json"
    src.write_text(json.dumps(obj))
    csv = workdir / f"{name}.csv"
    rc, payload = run_cli(["analyze", str(src), "--csv", str(csv)])
    return rc, payload, csv.read_bytes()


def main() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, obj in analyze_inputs().items():
            rc, payload, csv = run_analyze(name, obj, Path(tmp))
            assert rc == 0, name
            (GOLDEN / f"analyze_{name}.csv").write_bytes(csv)
            _write(GOLDEN / f"analyze_{name}.payload.json", payload)
    for source in CONSTRUCT_SOURCES:
        rc, payload = run_cli(["construct", source])
        assert rc == 0, source
        _write(GOLDEN / f"construct_{source}.payload.json", payload)


def _write(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
