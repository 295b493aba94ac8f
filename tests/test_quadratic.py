import random
import time
from types import SimpleNamespace

import numpy as np
import pytest

from pbent.cyclotomic import CycInt, eta, gauss_sum, match_shape
from pbent.gfpn import _rref_stack, make_field, rank
from pbent.quadratic import (
    DegenerateExponents,
    DegenerateForm,
    EmptyQuadraticPart,
    QuadraticSpec,
    RootOfUnityNotFound,
    _coefficient_rows,
    binomial_near_bent,
    binomial_spec,
    certificate,
    certificates,
    circulant_delta,
    delta_eta,
    form_matrices,
    near_bent_zeta_prediction,
    primitive_element,
)
from pbent.spectrum import analyze, walsh_full

from oracles import (
    certificate_per_spec,
    delta_eta_of_matrix,
    diagonalize,
    evaluate_per_term,
    form_matrix_per_term,
    linearized_per_element,
    monomial_bent_criterion,
    monomial_spec,
    polarization_kernel,
)

FIELDS = [(p, n) for p, max_n in ((3, 6), (5, 4), (7, 3), (11, 1), (13, 1))
          for n in range(1, max_n + 1)]


def test_spec_normalization_and_validation():
    ctx = make_field(3, 3)
    q = QuadraticSpec(ctx, ((5, 7),), constant=5)
    assert q.quad_terms == ((5, 7 % 3),)
    assert q.constant == 2
    with pytest.raises(ValueError):
        QuadraticSpec(ctx, ((27, 0),))
    with pytest.raises(ValueError):
        QuadraticSpec(ctx, (), linear=99)


def test_table_matches_scalar_evaluation():
    ctx = make_field(3, 3)
    rng = random.Random(31)
    for _ in range(10):
        q = QuadraticSpec(
            ctx,
            tuple(
                (rng.randrange(ctx.size), rng.randrange(ctx.n)) for _ in range(2)
            ),
            linear=rng.randrange(ctx.size),
            constant=rng.randrange(3),
        )
        table = q.to_table().table
        assert all(table[x] == evaluate_per_term(q, x) for x in range(ctx.size))


@pytest.mark.parametrize("p, n", FIELDS)
def test_evaluation_and_kernel_span_match_per_term_oracles(p, n):
    # n = 1 has no lower digits for the table's recursion; every spec has a
    # nonzero linear part and constant
    ctx = make_field(p, n)
    rng = random.Random(10 * p + n)
    for terms in (0, 1, 3):
        q = QuadraticSpec(
            ctx,
            tuple((rng.randrange(ctx.size), rng.randrange(n)) for _ in range(terms)),
            linear=rng.randrange(1, ctx.size),
            constant=rng.randrange(1, p),
        )
        expected = [evaluate_per_term(q, x) for x in range(ctx.size)]
        assert q.to_table().table.tolist() == expected
        assert [q.evaluate(x) for x in range(ctx.size)] == expected
        if not terms:
            continue
        # s and beta against the brute-force kernel of the polarization
        brute = polarization_kernel(ctx, expected)
        cert = certificate(q)
        assert len(brute) == p ** cert.s
        assert cert.beta == (min(brute - {0}) if cert.s == 1 else None)


def test_table_build_peak_stays_near_the_table():
    # the digit recursion holds the table in one byte per entry, its copy and
    # narrower rows: no (p^n, n) digit array, at most 24 bytes per point
    import tracemalloc

    ctx = make_field(3, 13)
    q = binomial_spec(ctx, 2, 1, "plus").with_linear(5)
    ctx.gram  # cached on the field outside the traced call
    tracemalloc.start()
    try:
        table = q.to_table().table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * table.size, peak / table.size


def test_scale_and_with_linear():
    ctx = make_field(5, 2)
    q = QuadraticSpec(ctx, ((7, 1),), linear=3, constant=2)
    doubled = q.scale(2)
    for x in range(ctx.size):
        assert doubled.evaluate(x) == (2 * q.evaluate(x)) % 5
    shifted = q.with_linear(9)
    for x in range(ctx.size):
        expected = (q.evaluate(x) + ctx.trace(ctx.mul(9, x))) % 5
        assert shifted.evaluate(x) == expected


def test_linearized_monomial_structure():
    # Tr(a x^(p^r + 1)) polarizes through a z + a^(p^r) z^(p^(2r)) in the
    # oracle the certificates are checked against
    ctx = make_field(3, 3)
    a = 10
    q = QuadraticSpec(ctx, ((a, 1),))
    assert linearized_per_element(q) == [a, 0, ctx.frobenius(a, 1)]
    # with no quadratic terms there is no kernel to certify
    empty = QuadraticSpec(ctx, (), linear=1)
    with pytest.raises(EmptyQuadraticPart):
        certificates([q, empty])
    with pytest.raises(EmptyQuadraticPart):
        certificate(empty)


def test_stacked_certificates_match_per_spec_oracle():
    # one batch across all fields: 1-3 terms, zero coefficients and repeated
    # exponents; certificates groups it by field and keeps the order
    rng = random.Random(67)
    specs = []
    for p, max_n in ((3, 8), (5, 4), (7, 3)):
        for n in range(1, max_n + 1):
            ctx = make_field(p, n)
            for _ in range(40):
                terms = [(rng.randrange(ctx.size), rng.randrange(n))
                         for _ in range(rng.choice((1, 2, 3)))]
                if rng.random() < 0.25:
                    terms.append((0, terms[0][1]))
                if rng.random() < 0.25:
                    terms.append((rng.randrange(ctx.size), terms[0][1] + n))
                specs.append(QuadraticSpec(ctx, tuple(terms)))
    rng.shuffle(specs)
    certs = certificates(specs)
    assert len(certs) == len(specs)
    assert [c.s for c in certs] == [
        q.ctx.n - rank(form_matrices(q.ctx, _coefficient_rows([q]))[0], q.ctx.p) for q in specs]
    assert {c.s for c in certs} >= {0, 1, 2}
    for q, cert in zip(specs, certs):
        assert cert == certificate_per_spec(q) == certificate(q), q
    assert certificates([]) == []
    # the oracle's eta comes from congruence diagonalization of the form
    # matrix built from polarized values; it is set exactly when s <= 1
    assert {c.eta for c in certs if c.s <= 1} == {-1, 1}
    assert {c.eta for c in certs if c.s > 1} == {None}


def test_kernel_at_the_largest_characteristic_is_fast():
    # the elimination inverts only the pivot values it meets, with no table
    # of all p inverses; x^2 + 2 is the modulus, so x^p = -x and
    # Tr(x z^(p+1)) polarizes to (x + x^p) z = 0, while Tr(z^(p+1)) gives 2z
    ctx = make_field(1518500213, 2)
    p = ctx.p
    assert ctx.modulus == (2, 0, 1)
    start = time.perf_counter()
    one, x = certificates([QuadraticSpec(ctx, ((1, 1),)), QuadraticSpec(ctx, ((p, 1),))])
    assert time.perf_counter() - start < 0.5
    assert (one.s, one.beta) == (0, None)
    assert (x.s, x.beta, x.eta) == (2, None, None)


def test_polarization_identity():
    """f(y+z) - f(y) - f(z) + const = Tr(y^(p^l) L(z)) for every y, z, with
    L from the oracle that certificate_per_spec eliminates."""
    ctx = make_field(3, 4)
    rng = random.Random(47)
    for _ in range(5):
        q = QuadraticSpec(
            ctx,
            tuple(
                (rng.randrange(1, ctx.size), rng.randrange(ctx.n)) for _ in range(2)
            ),
            linear=rng.randrange(ctx.size),
        )
        coeffs = linearized_per_element(q)
        l = max(i for _, i in q.quad_terms)
        for _ in range(20):
            y, z = rng.randrange(ctx.size), rng.randrange(ctx.size)
            lhs = (q.evaluate(ctx.add(y, z)) - q.evaluate(y) - q.evaluate(z)) % 3
            lz = 0
            for i, c in enumerate(coeffs):
                if c:
                    lz = ctx.add(lz, ctx.mul(c, ctx.frobenius(z, i)))
            rhs = (ctx.trace(ctx.mul(ctx.frobenius(y, l), lz)) + q.constant * 2) % 3
            # constants triple-cancel to -const = 2*const mod 3
            assert lhs == rhs


def test_minus_variant_kernel_is_prime_subfield():
    ctx = make_field(3, 5)
    spec = binomial_spec(ctx, 2, 1, "minus")
    cert = certificate(spec)
    assert cert.s == 1
    assert polarization_kernel(ctx, spec.to_table().table) == frozenset({0, 1, 2})
    assert cert.beta == 1


def test_plus_variant_kernel_is_z_cubed_plus_z_roots():
    ctx = make_field(3, 8)
    spec = binomial_spec(ctx, 2, 1, "plus")
    cert = certificate(spec)
    assert cert.s == 1
    beta = cert.beta
    assert ctx.mul(beta, beta) == ctx.element_from_int(-1)
    elems = polarization_kernel(ctx, spec.to_table().table)
    assert elems == frozenset({0, beta, ctx.neg(beta)})


def test_both_example_components_share_a_kernel():
    ctx = make_field(3, 8)
    g = certificate(binomial_spec(ctx, 2, 1, "plus"))
    h = certificate(binomial_spec(ctx, 6, 5, "plus"))
    assert g.s == h.s == 1
    assert g.beta == h.beta


def test_binomial_criteria_known_cases():
    assert binomial_near_bent(3, 8, 2, 1, "plus")
    assert binomial_near_bent(3, 8, 6, 5, "plus")
    assert binomial_near_bent(3, 5, 2, 1, "minus")
    assert not binomial_near_bent(3, 5, 2, 1, "plus")  # odd n never passes plus
    assert not binomial_near_bent(3, 6, 2, 1, "minus")  # 3 | 6
    assert not binomial_near_bent(3, 4, 3, 1, "minus")  # gcd(4, 4) = 4
    with pytest.raises(DegenerateExponents):
        binomial_near_bent(3, 4, 5, 1, "plus")
    with pytest.raises(ValueError):
        binomial_near_bent(3, 4, 2, 1, "times")


def test_binomial_criteria_match_kernel_oracle_small():
    for p, nmax in ((3, 5), (5, 4)):
        for n in range(2, nmax + 1):
            ctx = make_field(p, n)
            for r in range(2, n):
                for t in range(1, r):
                    for variant in ("minus", "plus"):
                        want = binomial_near_bent(p, n, r, t, variant)
                        got = certificate(binomial_spec(ctx, r, t, variant)).s == 1
                        assert want == got, (p, n, r, t, variant)


def test_binomial_spec_rejects_collapsed_exponents():
    ctx = make_field(3, 4)
    with pytest.raises(DegenerateExponents):
        binomial_spec(ctx, 5, 1, "plus")


def test_primitive_element():
    ctx = make_field(3, 2)
    g = primitive_element(ctx)
    seen = set()
    acc = 1
    for _ in range(ctx.size - 1):
        seen.add(acc)
        acc = ctx.mul(acc, g)
    assert len(seen) == ctx.size - 1


def test_monomial_criterion_matches_kernel_oracle():
    for n in (2, 3, 4):
        ctx = make_field(3, n)
        for r in range(n):
            for c_exp in range(ctx.size - 1):
                predicted_bent = monomial_bent_criterion(3, n, r, c_exp)
                s = certificate(monomial_spec(ctx, r, c_exp)).s
                assert predicted_bent == (s == 0), (n, r, c_exp)


def test_quadratic_form_matrix_reproduces_values():
    ctx = make_field(3, 4)
    rng = random.Random(53)
    for _ in range(5):
        q = QuadraticSpec(
            ctx,
            tuple(
                (rng.randrange(1, ctx.size), rng.randrange(ctx.n)) for _ in range(2)
            ),
        )
        a = form_matrices(ctx, _coefficient_rows([q]))[0]
        assert np.array_equal(a, a.T)
        assert np.array_equal(a, form_matrix_per_term(q))
        for x in range(ctx.size):
            v = np.array(ctx.decode(x), dtype=np.int64)
            assert int(v @ a @ v) % 3 == q.evaluate(x)


def test_form_rank_is_n_minus_s():
    ctx = make_field(3, 5)
    for spec in (
        binomial_spec(ctx, 2, 1, "minus"),
        QuadraticSpec(ctx, ((1, 0),)),
        QuadraticSpec(ctx, ((1, 1),)),
    ):
        s = certificate(spec).s
        assert rank(form_matrix_per_term(spec), 3) == ctx.n - s


def test_diagonalize_random_symmetric():
    rng = np.random.default_rng(59)
    for p in (3, 5, 7):
        for _ in range(70):
            n = int(rng.integers(1, 7))
            m = rng.integers(p, size=(n, n))
            a = (m + m.T) % p
            c, d = diagonalize(a, p)
            assert np.array_equal((c.T @ a @ c) % p, d)
            assert not np.any(d - np.diag(np.diag(d)))
            assert rank(c, p) == n  # congruence, not just any factorization
            assert rank(d, p) == rank(a, p)
    with pytest.raises(ValueError):
        diagonalize(np.array([[0, 1], [2, 0]]), 3)


def _symmetric_stack(rng, p: int, n: int, count: int) -> np.ndarray:
    """count symmetric n x n matrices over F_p, about half of rank n - 1:
    P^T D P for random invertible P and D diagonal with at most one zero."""
    out = []
    while len(out) < count:
        d = np.diag(rng.integers(1, p, size=n))
        if rng.random() < 0.5:
            d[rng.integers(n)] = 0
        pm = rng.integers(p, size=(n, n))
        if rank(pm, p) == n:
            out.append(pm.T @ d @ pm % p)
    return np.array(out, dtype=np.int64)


def test_stacked_discriminant_matches_congruence_oracle():
    rng = np.random.default_rng(71)
    singular = 0
    for p in (3, 5, 7, 11):
        for n in range(1, 8):
            mats = _symmetric_stack(rng, p, n, 40)
            want = [delta_eta_of_matrix(a, p) for a in mats]
            det = _rref_stack(mats.copy(), p)[2]
            assert [eta(p, int(d)) for d in det] == want, (p, n)
            singular += int(np.sum(rank(mats, p) == n - 1))
    assert singular > 400


def test_certificate_etas_keep_input_order_across_fields():
    fields = [make_field(3, 5), make_field(5, 3), make_field(3, 4), make_field(7, 2)]
    rng = random.Random(73)
    specs = []
    while len(specs) < 60:
        ctx = rng.choice(fields)
        q = QuadraticSpec(ctx, ((rng.randrange(1, ctx.size), rng.randrange(ctx.n)),
                                (rng.randrange(1, ctx.size), rng.randrange(ctx.n))))
        if certificate(q).s <= 1:
            specs.append(q)
    got = [cert.eta for cert in certificates(specs)]
    assert got == [delta_eta(q) for q in specs]
    assert got == [delta_eta_of_matrix(form_matrix_per_term(q), q.ctx.p) for q in specs]


def test_delta_eta_rejects_deep_degeneracy():
    with pytest.raises(DegenerateForm):
        delta_eta_of_matrix(np.zeros((3, 3), dtype=np.int64), 3)
    # Tr(x^2) - Tr(x^(p^2 + 1)) on F_{3^4} has a kernel of dimension 2
    ctx = make_field(3, 4)
    q = QuadraticSpec(ctx, ((1, 0), (2, 2)))
    assert certificate(q).s == 2
    with pytest.raises(DegenerateForm, match="rank deficit 2 > 1"):
        delta_eta(q)
    # in a batch the degenerate form has no class and the others keep theirs
    plus, deep = certificates([binomial_spec(ctx, 2, 1, "plus"), q])
    assert plus.eta == delta_eta(binomial_spec(ctx, 2, 1, "plus"))
    assert deep.eta is None


def test_delta_eta_is_congruence_invariant():
    # eta(det P)^2 = 1, so any change of basis keeps the class
    rng = np.random.default_rng(61)
    p = 5
    done = 0
    while done < 30:
        n = int(rng.integers(2, 6))
        m = rng.integers(p, size=(n, n))
        a = (m + m.T) % p
        if rank(a, p) < n - 1:
            continue
        pm = rng.integers(p, size=(n, n))
        if rank(pm, p) < n:
            continue
        b = (pm.T @ a @ pm) % p
        assert delta_eta_of_matrix(a, p) == delta_eta_of_matrix(b, p)
        done += 1


def test_delta_eta_scaling_law():
    # near-bent forms have n-1 nonzero eigenvalues, so c*f multiplies the
    # discriminant by c^(n-1)
    ctx = make_field(3, 5)
    q = binomial_spec(ctx, 2, 1, "minus")
    base = delta_eta(q)
    for c in (1, 2):
        assert delta_eta(q.scale(c)) == eta(3, c) ** (ctx.n - 1) * base


def test_zeta_prediction_matches_spectra():
    cases = []
    f34 = make_field(3, 4)
    cases += [binomial_spec(f34, 2, 1, "plus"), binomial_spec(f34, 2, 1, "plus", 2)]
    f35 = make_field(3, 5)
    cases += [binomial_spec(f35, 2, 1, "minus"), binomial_spec(f35, 4, 3, "minus", 2)]
    for q in cases:
        rep = analyze(walsh_full(q.to_table()))
        assert rep.classification == "WeaklyRegular"
        assert near_bent_zeta_prediction(q) == rep.zeta


def test_zeta_is_real_for_p_1_mod_4_odd_n():
    """For p = 1 mod 4 the Gauss sum is real, so near-bent coefficients carry
    a real unit even in odd dimension; pinned here because a two-case
    shortcut by parity of n alone gets this wrong."""
    ctx = make_field(5, 3)
    q = binomial_spec(ctx, 1, 0, "minus")
    assert certificate(q).s == 1
    rep = analyze(walsh_full(q.to_table()))
    assert rep.classification == "WeaklyRegular"
    assert rep.zeta in ("1", "-1")
    assert near_bent_zeta_prediction(q) == rep.zeta


def test_zeta_prediction_is_the_gauss_sum_identity(monkeypatch):
    """On its support a near-bent quadratic has W(b) = p e^(kappa - Q(w))
    eta(Delta) g^(n-1), g = gauss_sum(p): one factor eta(d_i) g per nonzero
    diagonal entry of the form, one factor p from the kernel line. Its zeta,
    computed exactly in Z[e], is the prediction's case split, for every
    p mod 4, every n - 1 mod 4 and both classes eta(Delta)."""
    from pbent import quadratic

    cases = 0
    for p in (3, 5, 7, 11, 13):
        g = gauss_sum(p)
        power = CycInt.from_integer(p, 1)
        for r in range(1, 9):
            power = power * g
            for sign in (1, -1):
                monkeypatch.setattr(quadratic, "delta_eta", lambda spec, sign=sign: sign)
                w = CycInt.root_power(p, r) * (p * sign) * power  # any e^(kappa - Q(w))
                spec = SimpleNamespace(ctx=SimpleNamespace(p=p, n=r + 1))
                assert match_shape(w, r + 2).zeta == near_bent_zeta_prediction(spec), (p, r, sign)
                cases += 1
    assert cases == 80


def test_circulant_delta_frozen_values():
    # hand-derived: the product telescopes to n mod p
    assert circulant_delta(3, 5, 2, 1) == 2
    assert circulant_delta(3, 7, 2, 1) == 1


def test_circulant_delta_invariance_and_cross_route():
    from math import gcd

    n = 5
    pairs = [
        (r, t)
        for r in range(2, n)
        for t in range(1, r)
        if gcd(n, r + t) == 1 and gcd(n, r - t) == 1
    ]
    deltas = {circulant_delta(3, n, r, t) for r, t in pairs}
    assert len(deltas) == 1
    d = deltas.pop()
    ctx = make_field(3, n)
    for r, t in pairs:
        assert delta_eta(binomial_spec(ctx, r, t, "minus")) == eta(3, d)


def test_circulant_delta_errors():
    with pytest.raises(RootOfUnityNotFound):
        circulant_delta(3, 9, 2, 1)
    with pytest.raises(ValueError):
        circulant_delta(3, 4, 2, 1)  # even n
    with pytest.raises(ValueError):
        circulant_delta(3, 5, 3, 2)  # r + t = 5


def test_quadratic_json_roundtrip():
    ctx = make_field(3, 4)
    q = QuadraticSpec(ctx, ((7, 2), (11, 1)), linear=5, constant=1)
    obj = q.to_json()
    assert obj["quad_terms"] == [{"a_index": 7, "i": 2}, {"a_index": 11, "i": 1}]
    restored = QuadraticSpec.from_json(obj)
    assert restored == q
    assert QuadraticSpec.from_json(obj, ctx) == q
