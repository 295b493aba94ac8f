import json

import pytest

from golden_cli import CONSTRUCT_SOURCES, GOLDEN, analyze_inputs, run_analyze, run_cli


def _golden(name: str) -> dict:
    return json.loads((GOLDEN / f"{name}.payload.json").read_text())


@pytest.mark.parametrize("name", sorted(analyze_inputs()))
def test_analyze_payload_and_csv_match_golden(name, tmp_path):
    rc, payload, csv = run_analyze(name, analyze_inputs()[name], tmp_path)
    assert rc == 0
    assert payload == _golden(f"analyze_{name}")
    assert csv == (GOLDEN / f"analyze_{name}.csv").read_bytes()


@pytest.mark.parametrize("source", CONSTRUCT_SOURCES)
def test_construct_payload_matches_golden(source):
    rc, payload = run_cli(["construct", source])
    assert rc == 0
    assert payload == _golden(f"construct_{source}")
