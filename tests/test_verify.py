from pbent import verify


def test_slice_multiplicities_are_checked_exactly(monkeypatch):
    # one count off by one, with the same value set, must fail the criterion
    monkeypatch.setitem(verify._EXPECTED_2, ("-i", 0), 2188)
    assert verify.run_criterion(1).passed is False
    monkeypatch.setitem(verify._EXPECTED_3, ("i", 1), 703)
    assert verify.run_criterion(2).passed is False
