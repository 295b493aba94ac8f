import hashlib
import json
import random
from pathlib import Path

from pbent import verify
from pbent.cyclotomic import eta
from pbent.quadratic import delta_eta

from oracles import certificate_per_spec, scaling_pairs_per_draw

# sha256 of repr([(p, n, quad_terms, c), ...]) over the 100 pairs that the
# per-draw scaling loop of criterion 9 checked
PER_DRAW_SCALING_PAIRS = "c277e2116d0920d354b923467c4133a06ae56b4445e267b85f9fac692c5d05c0"


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


def test_scaling_law_draws_keep_their_coverage(monkeypatch):
    # criterion 9 ranks a whole chunk of draws before it draws any c, so it
    # checks other specs than the per-draw loop it replaced; from the same
    # rng state that loop still draws its frozen 100 pairs and the law holds
    # on them, and the kernel dimensions of the chunk's stacked certificates
    # agree with one certificate per spec up to the 100th near-bent draw
    states, checked, ranked = [], [], []

    def recording(rng):
        states.append(rng.getstate())
        checked.extend(real(rng))
        return checked

    def ranking(specs):
        certs = real_certs(specs)
        if len(specs) == verify._SCALING_CHUNK:
            ranked.extend((q, c.s) for q, c in zip(specs, certs))
        return certs

    real, real_certs = verify._scaling_pairs, verify.certificates
    monkeypatch.setattr(verify, "_scaling_pairs", recording)
    monkeypatch.setattr(verify, "certificates", ranking)
    passed, details = verify._criterion_9()
    assert passed and details["scaling_specs"] == len(checked) == 100

    rng = random.Random()
    rng.setstate(states[0])
    old = scaling_pairs_per_draw(rng)
    key = repr([(q.ctx.p, q.ctx.n, q.quad_terms, c) for q, c in old])
    assert hashlib.sha256(key.encode()).hexdigest() == PER_DRAW_SCALING_PAIRS
    for q, c in old:
        assert delta_eta(q.scale(c)) == eta(q.ctx.p, c) ** (q.ctx.n - 1) * delta_eta(q)

    assert len(ranked) % verify._SCALING_CHUNK == 0
    near_bent = []
    for q, s in ranked:
        assert s == certificate_per_spec(q).s
        if s == 1:
            near_bent.append(q)
        if len(near_bent) == 100:
            break
    assert [q for q, _ in checked] == near_bent
