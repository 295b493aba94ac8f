import json
from pathlib import Path

from pbent import verify


def test_slice_multiplicities_are_checked_exactly(monkeypatch):
    # one count off by one, with the same value set, must fail the criterion
    monkeypatch.setitem(verify._EXPECTED_2, ("-i", 0), 2188)
    assert verify.run_criterion(1).passed is False
    monkeypatch.setitem(verify._EXPECTED_3, ("i", 1), 703)
    assert verify.run_criterion(2).passed is False


def test_criterion_4_reports_an_injected_near_bent_case(monkeypatch):
    # one s = 1 case in the (3, 4, r = 1) stack: the sweep must report it,
    # and only it, without losing any other case
    target = {"p": 3, "n": 4, "r": 1, "a": 17}
    real_rank = verify.rank
    calls = []

    def rank_with_one_exception(mats, p):
        ranks = real_rank(mats, p)
        n = mats.shape[-1]
        calls.append((p, n))
        if (p, n) == (3, 4) and calls.count((3, 4)) == target["r"] + 1:
            ranks[target["a"] - 1] = n - 1
        return ranks

    monkeypatch.setattr(verify, "rank", rank_with_one_exception)
    result = verify.run_criterion(4)
    assert result.passed is False
    assert result.details["exceptions"] == [target]
    assert result.details["cases"] == 8914


def test_verify_paper_payload_matches_golden_file():
    # every criterion's payload except its timing is frozen in the file
    golden = json.loads((Path(__file__).parent / "data" / "verify_paper.json").read_text())
    payload = []
    for result in verify.run_all():
        obj = result.to_json()
        del obj["seconds"]
        payload.append(obj)
    assert json.loads(json.dumps(payload)) == golden
