import json

import pytest

from pbent import cli


def run(capsys, argv):
    rc = cli.main(argv)
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def payload(out: str) -> dict:
    return json.loads(out)


def strip_timing(obj: dict) -> dict:
    obj = dict(obj)
    obj.pop("timing_ms", None)
    return obj


def test_field_command(capsys):
    rc, out, err = run(capsys, ["field", "--p", "3", "--n", "2", "--modulus", "1,0,1"])
    assert rc == 0 and err == ""
    rep = payload(out)
    assert rep["command"] == "field"
    assert rep["result"] == {"p": 3, "n": 2, "modulus": [1, 0, 1]}


def test_field_rejects_composite_characteristic(capsys):
    rc, out, err = run(capsys, ["field", "--p", "4", "--n", "2"])
    assert rc == 2
    assert err.startswith("error:")
    assert out == ""


def test_field_rejects_reducible_modulus(capsys):
    rc, _, err = run(capsys, ["field", "--p", "3", "--n", "2", "--modulus", "2,0,1"])
    assert rc == 2 and "error:" in err


def test_analyze_quadratic_spec(tmp_path, capsys):
    src = tmp_path / "trace_square.json"
    src.write_text(json.dumps({"p": 3, "n": 2, "quad_terms": [{"a_index": 1, "i": 0}]}))
    rc, out, _ = run(capsys, ["analyze", str(src)])
    assert rc == 0
    res = payload(out)["result"]
    assert res["is_bent"] is True
    assert res["classification"] == "Regular"
    assert res["algebraic_degree"] == 2
    assert res["support_size"] == 9


def test_analyze_csv_dump(tmp_path, capsys):
    src = tmp_path / "f.json"
    src.write_text(json.dumps({"p": 3, "n": 2, "quad_terms": [{"a_index": 1, "i": 0}]}))
    csv = tmp_path / "spectrum.csv"
    rc, out, _ = run(capsys, ["analyze", str(src), "--csv", str(csv)])
    assert rc == 0
    assert payload(out)["result"]["csv_path"] == str(csv)
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "b_index,count_0,count_1,count_2"
    assert len(lines) == 1 + 9

    from pbent.gfpn import make_field
    from pbent.quadratic import QuadraticSpec
    from pbent.spectrum import walsh_full

    counts = walsh_full(QuadraticSpec(make_field(3, 2), ((1, 0),)).to_table()).counts
    for b, ln in enumerate(lines[1:]):
        cells = list(map(int, ln.split(",")))
        assert cells == [b] + counts[b].tolist()


def test_analyze_product_table_reports_slice(tmp_path, capsys):
    from pbent.construct import build_example, glue

    src = tmp_path / "glued.json"
    src.write_text(json.dumps(glue(build_example(6)).to_json()))
    rc, out, _ = run(capsys, ["analyze", str(src)])
    assert rc == 0
    res = payload(out)["result"]
    assert res["is_bent"] is True
    slice_counts = {(m["zeta"], m["j"]): m["count"] for m in res["b0_slice_multiplicities"]}
    assert sum(slice_counts.values()) == 3 ** 5


def test_analyze_rejects_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _, err = run(capsys, ["analyze", str(bad)])
    assert rc == 2 and "invalid JSON" in err

    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    rc, _, err = run(capsys, ["analyze", str(empty)])
    assert rc == 2 and "quad_terms" in err

    rc, _, err = run(capsys, ["analyze", str(tmp_path / "missing.json")])
    assert rc == 2 and "cannot read" in err


def test_construct_worked_example(tmp_path, capsys):
    out_file = tmp_path / "bent.json"
    rc, out, _ = run(capsys, ["construct", "2", "--out", str(out_file)])
    assert rc == 0
    res = payload(out)["result"]
    assert res["is_bent"] is True
    assert res["classification"] == "WeaklyRegular"
    assert res["zeta"] == "-i"
    assert res["algebraic_degree"] == 4

    saved = json.loads(out_file.read_text())
    assert set(saved) == {"spec", "function"}
    assert len(saved["function"]["table"]) == 3 ** 9

    # the saved spec rebuilds the same function
    from pbent.construct import GluedSpec, glue
    from pbent.spectrum import PFunction
    import numpy as np

    rebuilt = glue(GluedSpec.from_json(saved["spec"]))
    assert np.array_equal(rebuilt.table, PFunction.from_json(saved["function"]).table)


def test_construct_spec_file_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "bent.json"
    run(capsys, ["construct", "6", "--out", str(out_file)])
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(json.loads(out_file.read_text())["spec"]))
    rc, out, _ = run(capsys, ["construct", str(spec_file)])
    assert rc == 0
    res = payload(out)["result"]
    assert res["classification"] == "WeaklyRegular" and res["zeta"] == "-1"


def test_construct_rejects_bad_sources(tmp_path, capsys):
    rc, _, err = run(capsys, ["construct", "7"])
    assert rc == 2 and "example id" in err

    even = tmp_path / "even.json"
    even.write_text(json.dumps({"p": 2, "n": 3, "components": [], "scalars": []}))
    rc, _, err = run(capsys, ["construct", str(even)])
    assert rc == 2 and err.startswith("error:")

    noc = tmp_path / "noc.json"
    noc.write_text(json.dumps({"p": 3, "n": 4}))
    rc, _, err = run(capsys, ["construct", str(noc)])
    assert rc == 2 and "components" in err


SCAN_TEMPLATE = {
    "p": 3,
    "n": 4,
    "components": [{"quad_terms": [{"a_index": 1, "i": 2}, {"a_index": 1, "i": 1}]}] * 3,
}


def test_scan_counts(tmp_path, capsys):
    src = tmp_path / "template.json"
    src.write_text(json.dumps(SCAN_TEMPLATE))
    rc, out, _ = run(capsys, ["scan", str(src)])
    assert rc == 0
    res = payload(out)["result"]
    assert res["weakly_regular"] == 2
    assert res["non_weakly_regular"] == 6
    assert res["disagreements"] == 0
    assert res["spectra_checked"] is False
    assert len(res["rows"]) == 8

    runs = []
    for _ in range(2):
        rc, out, _ = run(capsys, ["scan", str(src), "--confirm-spectrum"])
        assert rc == 0
        runs.append(strip_timing(payload(out)))
    assert runs[0] == runs[1]
    res = runs[0]["result"]
    assert res["spectra_checked"] is True
    assert res["disagreements"] == 0
    assert all(r["spectral"] is not None for r in res["rows"])


def test_scan_rejects_bad_templates(tmp_path, capsys):
    src = tmp_path / "template.json"
    src.write_text(json.dumps({"p": 3, "n": 4}))
    rc, _, err = run(capsys, ["scan", str(src)])
    assert rc == 2 and "components" in err

    short = dict(SCAN_TEMPLATE, components=SCAN_TEMPLATE["components"][:2])
    src.write_text(json.dumps(short))
    rc, _, err = run(capsys, ["scan", str(src)])
    assert rc == 2 and "exactly 3" in err


def test_verify_paper_reports_every_criterion(tmp_path, capsys):
    report = tmp_path / "report.json"
    rc, out, _ = run(capsys, ["verify-paper", "--json", str(report)])
    assert rc == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("criterion ")]
    assert len(lines) == 9
    assert all(": PASS" in ln for ln in lines)

    saved = json.loads(report.read_text())
    assert saved["result"]["all_passed"] is True
    assert [c["number"] for c in saved["result"]["criteria"]] == list(range(1, 10))
