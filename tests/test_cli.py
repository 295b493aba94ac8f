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


def test_field_accepts_irreducible_modulus(capsys):
    # x^4 + x^2 + 2 is irreducible over F_3
    rc, out, err = run(capsys, ["field", "--p", "3", "--n", "4", "--modulus", "2,0,1,0,1"])
    assert rc == 0 and err == ""
    assert payload(out)["result"]["modulus"] == [2, 0, 1, 0, 1]


def test_field_outside_the_supported_range_exits_2(capsys):
    rc, out, err = run(capsys, ["field", "--p", "3", "--n", "40"])
    assert (rc, out) == (2, "")
    assert "outside the supported range" in err


def test_internal_fault_exits_3(tmp_path, capsys, monkeypatch):
    def broken(_f):
        raise RuntimeError("Parseval identity failed; transform is broken")

    monkeypatch.setattr(cli, "walsh_full", broken)
    src = tmp_path / "f.json"
    src.write_text(json.dumps({"p": 3, "n": 2, "quad_terms": [{"a_index": 1, "i": 0}]}))
    rc, out, err = run(capsys, ["analyze", str(src)])
    assert rc == 3
    assert out == ""
    assert err == "internal error: RuntimeError: Parseval identity failed; transform is broken\n"


def test_analyze_quadratic_spec(tmp_path, capsys):
    src = tmp_path / "trace_square.json"
    src.write_text(json.dumps({"p": 3, "n": 2, "quad_terms": [{"a_index": 1, "i": 0}]}))
    rc, out, _ = run(capsys, ["analyze", str(src)])
    assert rc == 0
    rep = payload(out)
    assert set(rep["timing_ms"]) == {"build_ms", "transform_ms", "classify_ms", "anf_ms"}
    res = rep["result"]
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


def test_construct_of_a_glueing_that_is_not_bent_exits_3(tmp_path, capsys, monkeypatch):
    # witness arithmetic broken to give b* = 0: arrange's own check on the
    # realized linear parts turns the spec into an internal fault, not exit 0
    from pbent import construct

    out_file = tmp_path / "bent.json"
    run(capsys, ["construct", "6", "--out", str(out_file)])
    spec = json.loads(out_file.read_text())["spec"]
    del spec["b_indices"]
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    monkeypatch.setattr(construct, "solve_trace_equation", lambda ctx, beta, t: 0)
    rc, out, err = run(capsys, ["construct", str(spec_file)])
    assert rc == 3 and out == ""
    assert err.startswith("internal error: RuntimeError:") and "do not partition" in err


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


def test_oversized_glued_spec_exits_2_before_building(tmp_path, capsys, monkeypatch):
    from pbent.construct import GluedSpec
    from pbent.quadratic import QuadraticSpec

    def no_build(*_args, **_kwargs):
        raise AssertionError("built an oversized input")

    monkeypatch.setattr(GluedSpec, "from_json", no_build)
    monkeypatch.setattr(QuadraticSpec, "to_table", no_build)
    component = {"quad_terms": [{"a_index": 1, "i": 2}, {"a_index": 1, "i": 1}]}
    spec = tmp_path / "big.json"
    spec.write_text(json.dumps({"p": 3, "n": 20, "components": [component] * 3,
                                "scalars": [1, 1, 1]}))
    for argv in (["construct", str(spec)], ["analyze", str(spec)]):
        rc, out, err = run(capsys, argv)
        assert (rc, out) == (2, "")
        assert err == "error: domain of 3^21 points too large for the exact int64 transform\n"

    quad = tmp_path / "quad.json"
    quad.write_text(json.dumps({"p": 3, "n": 20, **component}))
    rc, _, err = run(capsys, ["analyze", str(quad)])
    assert rc == 2 and "3^20 points too large" in err

    nop = tmp_path / "nop.json"
    nop.write_text(json.dumps({"n": 4, **component}))
    rc, _, err = run(capsys, ["analyze", str(nop)])
    assert rc == 2 and "'p'" in err


def test_transform_beyond_4_gib_exits_2_before_building(tmp_path, capsys, monkeypatch):
    # 3^17 passes the int64 bound but its transform would need about 7 GiB
    from pbent.quadratic import QuadraticSpec

    def no_build(*_args, **_kwargs):
        raise AssertionError("built an oversized input")

    monkeypatch.setattr(QuadraticSpec, "to_table", no_build)
    quad = tmp_path / "quad.json"
    quad.write_text(json.dumps({"p": 3, "n": 17, "quad_terms": [{"a_index": 1, "i": 1}]}))
    rc, out, err = run(capsys, ["analyze", str(quad)])
    assert (rc, out) == (2, "")
    assert err == "error: domain of 3^17 points needs more than the 4 GiB transform limit\n"


def test_oversized_confirmed_scan_exits_2_before_building(tmp_path, capsys, monkeypatch):
    from pbent.quadratic import QuadraticSpec

    def no_build(*_args, **_kwargs):
        raise AssertionError("built an oversized input")

    monkeypatch.setattr(cli, "make_field", no_build)
    monkeypatch.setattr(QuadraticSpec, "to_table", no_build)
    component = {"quad_terms": [{"a_index": 1, "i": 2}, {"a_index": 1, "i": 1}]}
    src = tmp_path / "big.json"
    src.write_text(json.dumps({"p": 3, "n": 20, "components": [component] * 3}))
    rc, out, err = run(capsys, ["scan", str(src), "--confirm-spectrum"])
    assert (rc, out) == (2, "")
    assert err == "error: domain of 3^21 points too large for the exact int64 transform\n"


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


GLUED = dict(SCAN_TEMPLATE, scalars=[1, 1, 1])


@pytest.mark.parametrize("obj, field, commands", [
    ({k: v for k, v in GLUED.items() if k != "scalars"}, "scalars", ("analyze", "construct")),
    (dict(GLUED, components=[{"quad_terms": [{"i": 2}]}] * 3), "a_index",
     ("analyze", "construct", "scan")),
    ({"p": 3, "n": 4, "quad_terms": [{"i": 2}]}, "a_index", ("analyze",)),
    (dict(GLUED, components=5), "components", ("analyze", "construct", "scan")),
    (dict(GLUED, components=[{"quad_terms": [[1, 2]]}] * 3), "quad_terms",
     ("analyze", "construct", "scan")),
    ({"p": 3, "n": 4, "quad_terms": [[1, 2], [1, 1]]}, "quad_terms", ("analyze",)),
    (dict(GLUED, modulus=5), "modulus", ("analyze", "construct", "scan")),
    ({"p": 3, "dim": 2, "table": [0] * 9, "domain_kind": "field", "n": [2]}, "'n'",
     ("analyze",)),
], ids=["no-scalars", "glued-term-without-a_index", "term-without-a_index", "components-int",
        "glued-quad_terms-lists", "quad_terms-lists", "modulus-int", "table-n-list"])
def test_malformed_fields_exit_2_and_name_the_field(tmp_path, capsys, obj, field, commands):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(obj))
    for command in commands:
        rc, out, err = run(capsys, [command, str(src)])
        assert (rc, out) == (2, ""), (command, err)
        assert err.startswith("error: ") and field in err, (command, err)


QUADRATIC = {"p": 3, "n": 2, "quad_terms": [{"a_index": 1, "i": 0}]}


@pytest.mark.parametrize("obj, field, commands", [
    (dict(QUADRATIC, p=3.7), "'p'", ("analyze",)),
    (dict(QUADRATIC, p="3"), "'p'", ("analyze",)),
    (dict(QUADRATIC, n=True), "'n'", ("analyze",)),
    (dict(QUADRATIC, quad_terms=[{"a_index": 1.9, "i": 0}]), "'quad_terms'", ("analyze",)),
    (dict(GLUED, scalars=[1, 1.5, 1]), "'scalars'", ("analyze", "construct")),
    (dict(GLUED, b_indices=[0, "1", 2]), "'b_indices'", ("analyze", "construct")),
    (dict(GLUED, modulus=[2, 0, 0, 1.0, 1]), "'modulus'", ("analyze", "construct", "scan")),
    ({"p": 3, "dim": 2, "table": [0.5, 1.9, "2", 0, 0, 0, 0, 0, True]}, "'table'",
     ("analyze",)),
    ({"p": 3, "dim": 2, "table": [0, 1, 2, 0, 0, 0, 0, 0, True]}, "'table'", ("analyze",)),
], ids=["p-float", "p-string", "n-bool", "a_index-float", "scalars-float",
        "b_indices-string", "modulus-float", "table-float-string-bool", "table-bool"])
def test_numbers_that_are_not_integers_exit_2(tmp_path, capsys, obj, field, commands):
    # a float is not truncated and a numeric string is not parsed
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(obj))
    for command in commands:
        rc, out, err = run(capsys, [command, str(src)])
        assert (rc, out) == (2, ""), (command, err)
        assert field in err and "expected an integer" in err, (command, err)


def test_type_error_after_reading_exits_3(tmp_path, capsys, monkeypatch):
    # only reading the input is input validation: a fault in certification
    # is internal, whatever its exception type
    from pbent import construct

    def broken(_specs):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(construct, "certificates", broken)
    src = tmp_path / "glued.json"
    src.write_text(json.dumps(GLUED))
    for command in ("analyze", "construct", "scan"):
        rc, out, err = run(capsys, [command, str(src)])
        assert (rc, out) == (3, "")
        assert err == "internal error: TypeError: unsupported operand\n"


def test_scan_with_too_many_scalar_tuples_exits_2_at_once(tmp_path, capsys, monkeypatch):
    # Tr(x^(11^2 + 1) - x^2) on F_{11^3} is near-bent, but its scan would
    # sweep 10^11 scalar tuples
    import time

    from pbent import construct

    def no_certify(_specs):
        raise AssertionError("certified an oversized scan")

    monkeypatch.setattr(construct, "certificates", no_certify)
    component = {"quad_terms": [{"a_index": 1, "i": 2}, {"a_index": 10, "i": 0}]}
    src = tmp_path / "p11.json"
    src.write_text(json.dumps({"p": 11, "n": 3, "components": [component] * 11}))
    start = time.perf_counter()
    rc, out, err = run(capsys, ["scan", str(src)])
    assert time.perf_counter() - start < 2
    assert (rc, out) == (2, "")
    assert err == ("error: a scan over F_11 has (p-1)^p = 100000000000 scalar tuples, "
                   "more than the limit of 1048576\n")


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
