import itertools
import random

import numpy as np
import pytest

from pbent.construct import (
    AnfPoly,
    GluedSpec,
    KernelMismatch,
    NotNearBent,
    WitnessConditionError,
    _mod_p,
    _vandermonde,
    _vandermonde_inverse,
    anf,
    arrange,
    build_example,
    glue,
    predict_regularity,
    scan_coefficients,
    spectral_regularity,
)
from pbent.gfpn import make_field, solve_trace_equation
from pbent.quadratic import QuadraticSpec, binomial_spec, certificates
from pbent.spectrum import PFunction, analyze, walsh_full

from oracles import (
    anf_tensordot,
    arrange_per_tuple,
    glued_spectrum_from_components,
    lagrange_glue_reference,
    pairing_vector,
    support_partition_check,
    value_table_tensordot,
)


def test_arrange_computes_aligned_witnesses():
    # identical components: g_k(beta) all equal, so b_k = k * b*
    ctx = make_field(3, 5)
    g = binomial_spec(ctx, 2, 1, "minus")
    gs = arrange((g, g, g), (1, 1, 1))
    assert gs.beta == 1
    bstar = solve_trace_equation(ctx, gs.beta, 1)
    expected = tuple(ctx.mul(ctx.element_from_int(k), bstar) for k in range(3))
    assert gs.b_witnesses == expected
    for k, f in enumerate(gs.realized):
        got = (f.evaluate(gs.beta)) % 3
        want = (gs.realized[0].evaluate(gs.beta) + k) % 3
        assert got == want


def test_arrange_validates_supplied_witnesses():
    ctx = make_field(3, 5)
    g = binomial_spec(ctx, 2, 1, "minus")
    good = arrange((g, g, g), (1, 2, 1)).b_witnesses
    assert arrange((g, g, g), (1, 2, 1), good).b_witnesses == good
    bad = (good[0], good[2], good[1])
    with pytest.raises(WitnessConditionError):
        arrange((g, g, g), (1, 2, 1), bad)


def test_arrange_rejects_mismatched_kernels():
    # minus fixes the prime subfield, plus the square roots of -1
    ctx = make_field(3, 4)
    gm = binomial_spec(ctx, 2, 1, "minus")
    gp = binomial_spec(ctx, 2, 1, "plus")
    with pytest.raises(KernelMismatch):
        arrange((gm, gm, gp), (1, 1, 1))


def test_arrange_rejects_non_near_bent_component():
    ctx = make_field(3, 4)
    g = binomial_spec(ctx, 2, 1, "minus")
    bent = QuadraticSpec(ctx, ((1, 0),))  # s = 0
    with pytest.raises(NotNearBent) as exc:
        arrange((g, g, bent), (1, 1, 1))
    assert exc.value.k == 2 and exc.value.s == 0


def test_arrange_counts_and_scalars():
    ctx = make_field(3, 5)
    g = binomial_spec(ctx, 2, 1, "minus")
    with pytest.raises(ValueError):
        arrange((g, g), (1, 1))
    with pytest.raises(ValueError):
        arrange((g, g, g), (1, 0, 1))
    other = binomial_spec(make_field(3, 4), 2, 1, "minus")
    with pytest.raises(ValueError):
        arrange((g, g, other), (1, 1, 1))


def test_glue_stacks_realized_components():
    gs = build_example(6)
    f = glue(gs)
    assert f.kind == "product"
    size = gs.ctx.size
    for k in range(3):
        chunk = f.table[k * size : (k + 1) * size]
        assert np.array_equal(chunk, gs.realized[k].to_table().table)


def test_lagrange_indicator_form_agrees():
    gs = build_example(6)
    assert np.array_equal(glue(gs).table, lagrange_glue_reference(gs))
    ctx = make_field(3, 4)
    g = binomial_spec(ctx, 2, 1, "plus")
    gs4 = arrange((g, g, g.scale(2)), (1, 2, 1))
    assert np.array_equal(glue(gs4).table, lagrange_glue_reference(gs4))


def test_glued_spectrum_is_the_sum_of_rotated_component_spectra():
    # a check of glue plus walsh_full that never transforms the product
    # domain: the worked examples, then seeded scalar tuples on each
    # near-bent binomial template over F_{3^4}, F_{5^3} and F_{7^2}, its
    # components given seeded linear parts
    specs = [build_example(eid) for eid in range(2, 7)]
    rng = np.random.default_rng(61)
    for p, n in ((3, 4), (5, 3), (7, 2)):
        ctx = make_field(p, n)
        temps = [binomial_spec(ctx, r, t, v) for r in range(1, n) for t in range(r)
                 for v in ("minus", "plus")]
        for g in (g for g, cert in zip(temps, certificates(temps)) if cert.s == 1):
            for _ in range(2):
                comps = [g.with_linear(int(b)) for b in rng.integers(ctx.size, size=p)]
                specs.append(arrange(comps, rng.integers(1, p, size=p).tolist()))
    assert {gs.ctx.p for gs in specs} == {3, 5, 7}
    for gs in specs:
        counts = walsh_full(glue(gs)).counts
        assert np.array_equal(glued_spectrum_from_components(gs), counts), gs.scalars


def test_component_supports_partition_the_field():
    assert support_partition_check(build_example(6))
    ctx = make_field(3, 4)
    g = binomial_spec(ctx, 2, 1, "minus")
    assert support_partition_check(arrange((g, g, g), (1, 1, 2)))


def test_glued_function_is_bent():
    rep = analyze(walsh_full(glue(build_example(6))))
    assert rep.is_bent


def test_anf_roundtrip_and_degree():
    ctx = make_field(3, 3)
    rng = np.random.default_rng(67)
    f = PFunction.from_field_table(ctx, rng.integers(3, size=27))
    poly = anf(f)
    assert np.array_equal(poly.value_table(), f.table)

    # quadratics interpolate to digit degree 2, linear forms to 1
    assert anf(QuadraticSpec(ctx, ((1, 0),)).to_table()).degree == 2
    lin = PFunction.from_field_table(
        ctx, pairing_vector(PFunction.from_field_table(ctx, np.zeros(27, dtype=int)), 5)
    )
    assert anf(lin).degree == 1
    const = PFunction.from_field_table(ctx, np.full(27, 2))
    assert anf(const).degree == 0


def test_anf_coefficients_sparse_map():
    ctx = make_field(3, 2)
    # f(x) = x_0 * x_1 as a table over digit coordinates
    table = [(a % 3) * (a // 3) % 3 for a in range(9)]
    poly = anf(PFunction.from_field_table(ctx, table))
    assert poly.coefficients() == {(1, 1): 1}
    assert poly.degree == 2


def test_anf_product_domain_degree():
    assert anf(glue(build_example(6))).degree == 4


def _anf_cases():
    """Random tables, each with whether the float passes reduce mod p between
    passes. The passes take 3 digits at a time at p = 3 and 2 at p = 5 and 7,
    so 3^12, 5^7, 7^5, 11^4 and 13^3 reduce mid-loop; 5^5 and 11^3 only at
    the end. 3^4, 3^7, 5^3 and 7^3 end with a short group of digits. F_257
    takes float64 passes and the int64 reduction; the glued 3^7 x F_3 is a
    product domain."""
    rng = np.random.default_rng(59)
    for p, n, mid in ((3, 4, False), (3, 7, False), (3, 12, True), (5, 3, False),
                      (5, 5, False), (5, 7, True), (7, 3, False), (7, 5, True),
                      (11, 3, False), (11, 4, True), (13, 3, True), (257, 1, False)):
        ctx = make_field(p, n)
        yield f"{p}^{n}", PFunction.from_field_table(ctx, rng.integers(p, size=ctx.size)), mid
    g = binomial_spec(make_field(3, 7), 2, 1, "minus")
    yield "glued 3^7", glue(arrange((g, g, g), (1, 1, 2))), False


def test_anf_and_value_table_equal_the_tensordot_oracle(monkeypatch):
    from pbent import construct

    calls = []

    def counting_mod_p(arr, p, out):
        calls.append(arr.dtype)
        return _mod_p(arr, p, out)

    monkeypatch.setattr(construct, "_mod_p", counting_mod_p)
    for name, f, mid in _anf_cases():
        calls.clear()
        poly = anf(f)
        # one reduction at the end, and more only where the bound needs them
        assert (len(calls) > 1) == mid, (name, len(calls))
        assert set(calls) == {np.dtype(np.float64 if f.p == 257 else np.float32)}, name
        cube = anf_tensordot(f)
        assert poly.cube.dtype == np.min_scalar_type(f.p - 1), name
        assert np.array_equal(poly.cube, cube), name
        assert np.array_equal(poly.value_table(), f.table), name
        assert np.array_equal(poly.value_table(), value_table_tensordot(poly)), name
        nonzero = np.stack(np.nonzero(cube))
        assert poly.degree == nonzero.sum(axis=0).max(), name


def test_vandermonde_inverse_is_the_rref_inverse_for_every_odd_prime_to_257(monkeypatch):
    from pbent import construct, gfpn

    primes = [p for p in range(3, 258, 2) if all(p % d for d in range(3, p, 2))]
    assert len(primes) == 54 and primes[-1] == 257
    for p in primes:
        vinv = _vandermonde_inverse(p)
        assert vinv.dtype == np.int64, p
        assert np.array_equal(vinv, gfpn.invert_matrix(_vandermonde(p), p)), p
    # anf takes the closed form: no rref inverse, even at F_257
    f = PFunction.from_field_table(make_field(257, 1), np.random.default_rng(257).permutation(257))
    expected = anf_tensordot(f)

    def no_inverse(mat, p):
        raise AssertionError("inverted the Vandermonde matrix by rref")

    monkeypatch.setattr(gfpn, "invert_matrix", no_inverse)
    monkeypatch.setattr(construct, "invert_matrix", no_inverse, raising=False)
    assert np.array_equal(anf(f).cube, expected)


@pytest.mark.parametrize("size", [1, 2 ** 14 - 1, 2 ** 14, 2 ** 14 + 1])
@pytest.mark.parametrize("dtype, top", [(np.float32, 2 ** 24 - 1), (np.float64, 2 ** 53 - 1)])
@pytest.mark.parametrize("p", [3, 7, 13, 257])
def test_mod_p_equals_the_int64_remainder_at_its_edges(p, dtype, top, size):
    # every integer up to top is exact in dtype; the reduction runs in blocks
    # of 2^14 entries, in int32 for float32 and int64 for float64
    values = np.random.default_rng([p, size]).integers(0, top, size, endpoint=True)
    edges = [top, 0, top - 1, p - 1, p, top // p * p, top // p * p - 1, 1]
    values[: len(edges)] = edges[:size]
    values[-1] = top
    x = values.astype(dtype)
    assert np.array_equal(x.astype(np.int64), values)
    expected = values % p
    narrow = np.empty(size, np.min_scalar_type(p - 1))
    assert _mod_p(x, p, narrow) is narrow
    assert np.array_equal(narrow, expected)
    assert np.array_equal(x.astype(np.int64), values)  # the input is left as it was
    assert _mod_p(x, p, x) is x
    assert x.dtype == dtype and np.array_equal(x, expected)


def test_anf_peak_memory_is_the_input_array_and_one_pass_output():
    # float32 passes: the 4-byte input array and one pass output at 4 bytes per
    # point (2.0x measured); a full-size int32 temporary in the final reduction
    # would add 4 more
    import tracemalloc

    ctx = make_field(3, 13)
    f = PFunction.from_field_table(ctx, np.random.default_rng(61).integers(3, size=ctx.size))
    anf(f)
    tracemalloc.start()
    try:
        anf(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * 4 * f.size, peak / (4 * f.size)


def test_build_example_parameters():
    gs = build_example(2)
    assert gs.ctx.p == 3 and gs.ctx.n == 8
    assert [g.quad_terms for g in gs.components] == [
        ((1, 2), (1, 1)),
        ((1, 2), (1, 1)),
        ((1, 6), (1, 5)),
    ]
    assert gs.scalars == (1, 1, 1)
    assert build_example(3).scalars == (1, 2, 1)
    assert build_example(4).components[1] == build_example(4).components[2]

    gs6 = build_example(6)
    assert gs6.ctx.n == 5
    assert gs6.b_witnesses == (0, 2, 1)
    with pytest.raises(ValueError):
        build_example(7)


def test_example_witnesses_satisfy_alignment():
    gs = build_example(2)
    ctx = gs.ctx
    g0 = gs.realized[0]
    for k, fk in enumerate(gs.realized):
        assert fk.evaluate(gs.beta) == (g0.evaluate(gs.beta) + k) % 3


def test_predict_regularity_examples():
    assert predict_regularity(build_example(2)) == "WeaklyRegular"
    assert predict_regularity(build_example(3)) == "NonWeaklyRegular"
    assert spectral_regularity(build_example(6)) == "WeaklyRegular"


def test_arrange_and_predict_build_no_field_table(monkeypatch):
    """Glueing and predicting at 3^16 is n x n linear algebra: nothing may
    build a table of p^n = 43 million entries."""
    from pbent import gfpn, quadratic, spectrum

    real_digit_array = gfpn.digit_array

    def small_digit_array(p, dim):
        if dim > 1:
            raise AssertionError(f"built a table of {p}^{dim} digit rows")
        return real_digit_array(p, dim)

    def no_index_map(mat, p):
        raise AssertionError("built a field-sized index map")

    for module in (gfpn, quadratic, spectrum):
        monkeypatch.setattr(module, "digit_array", small_digit_array, raising=False)
        monkeypatch.setattr(module, "linear_index_map", no_index_map, raising=False)
    g = binomial_spec(make_field(3, 16), 2, 1, "plus")
    # n - 1 is odd, so the scalar 2 (a non-square) flips eta(Delta)
    assert predict_regularity(arrange((g, g, g), (1, 1, 1))) == "WeaklyRegular"
    assert predict_regularity(arrange((g, g, g), (1, 2, 1))) == "NonWeaklyRegular"


def test_spectral_regularity_rejects_non_bent():
    ctx = make_field(3, 4)
    g = binomial_spec(ctx, 2, 1, "minus")
    gs = arrange((g, g, g), (1, 1, 1))
    broken = GluedSpec(ctx, gs.components, gs.scalars, gs.beta, gs.b_witnesses,
                       (gs.realized[0],) * 3, gs.etas)  # same support thrice
    with pytest.raises(RuntimeError):
        spectral_regularity(broken)


def _glueing(fn, components, scalars, b_witnesses=None):
    """The glued spec and its prediction, or the error fn raises."""
    try:
        gs = fn(components, scalars, b_witnesses)
    except NotNearBent as exc:
        return "NotNearBent", str(exc), exc.k, exc.s
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return gs, predict_regularity(gs)


def _template_groups(p: int, n: int) -> list:
    """Same-template and mixed groups of p binomial templates on F_{p^n},
    among them groups with a kernel mismatch or a component with s != 1."""
    ctx = make_field(p, n)
    temps = [binomial_spec(ctx, r, t, v) for r in range(1, n) for t in range(r)
             for v in ("minus", "plus")]
    dims = [cert.s for cert in certificates(temps)]
    near = [g for g, s in zip(temps, dims) if s == 1][:4]
    other = [g for g, s in zip(temps, dims) if s != 1]
    groups = [(g,) * p for g in near]
    groups += [(g,) * (p - 1) + (h,) for g, h in zip(near, near[1:])]
    groups += [(h,) + (g,) * (p - 1) for g, h in zip(near, near[1:])]
    groups += [(near[0],) * (p - 1) + (b,) for b in other[:1]]
    groups += [(b,) + (near[0],) * (p - 1) for b in other[-1:]]
    groups.append(tuple(near[0].scale(1 + k % (p - 1)).with_linear(k) for k in range(p)))
    # a random near-bent quadratic part under p random linear parts and
    # constants: the templates are aligned on Tr(b_k beta), whatever c_k
    rng = random.Random(100 * p + n)
    drawn = [QuadraticSpec(ctx, tuple((rng.randrange(1, ctx.size), rng.randrange(n))
                                      for _ in range(2))) for _ in range(40)]
    g = next((q for q, c in zip(drawn, certificates(drawn)) if c.s == 1), near[0])
    groups.append(tuple(QuadraticSpec(ctx, g.quad_terms, rng.randrange(1, ctx.size),
                                      rng.randrange(1, p)) for _ in range(p)))
    return groups


def test_arrange_equals_the_per_tuple_oracle():
    # certifying the templates once and scaling by eta(c)^(n-1) gives the
    # spec, the prediction and the error that certifying every scaled tuple
    # and eliminating its realized components give; every field up to 3^8
    # and 5^4 with a near-bent binomial, every 41st tuple at p = 5
    seen = set()

    def check(comps, scalars, b_witnesses=None):
        got = _glueing(arrange, comps, scalars, b_witnesses)
        assert got == _glueing(arrange_per_tuple, comps, scalars, b_witnesses), scalars
        seen.add(got[1] if isinstance(got[0], GluedSpec) else got[0])
        return got[0]

    for p, n in ((3, 2), (3, 4), (3, 5), (3, 7), (3, 8), (5, 2), (5, 3), (5, 4)):
        tuples = list(itertools.product(range(1, p), repeat=p))[:: 1 if p == 3 else 41]
        for comps in _template_groups(p, n):
            for scalars in tuples:
                gs = check(comps, scalars)
            if isinstance(gs, GluedSpec):  # supplied witnesses, good and bad
                check(comps, scalars, gs.b_witnesses)
                check(comps, scalars, gs.b_witnesses[1:] + gs.b_witnesses[:1])
            check(comps, (0,) + (1,) * (p - 1))
            check(comps[1:], (1,) * (p - 1))
    assert seen == {"WeaklyRegular", "NonWeaklyRegular", "NotNearBent", "KernelMismatch",
                    "WitnessConditionError", "ValueError"}


@pytest.mark.parametrize("p, n", [(3, n) for n in range(2, 9)] + [(5, n) for n in range(2, 5)]
                         + [(7, n) for n in range(2, 5)])
def test_every_accepted_glueing_of_random_templates_is_bent(p, n):
    # templates with random near-bent quadratic parts under random scalars,
    # random linear parts and random constants: whatever arrange accepts
    # glues to a bent function of the predicted regularity
    ctx = make_field(p, n)
    rng = random.Random(1000 * p + n)
    drawn = [QuadraticSpec(ctx, tuple((rng.randrange(1, ctx.size), rng.randrange(n))
                                      for _ in range(2))) for _ in range(200)]
    near = [q for q, c in zip(drawn, certificates(drawn)) if c.s == 1][:3]
    accepted = 0
    for parts in [(q,) * p for q in near] + [tuple(rng.choices(near, k=p)) for _ in range(3)]:
        comps = tuple(QuadraticSpec(ctx, q.scale(rng.randrange(1, p)).quad_terms,
                                    rng.randrange(ctx.size), rng.randrange(p)) for q in parts)
        try:
            gs = arrange(comps, [rng.randrange(1, p) for _ in range(p)])
        except KernelMismatch:
            continue
        assert spectral_regularity(gs) == predict_regularity(gs), gs.to_json()
        accepted += 1
    assert accepted >= 3


@pytest.mark.parametrize("constants", [(1, 0, 0), (0, 1, 0), (0, 0, 2)])
def test_template_constants_leave_the_example_6_glueing_bent(constants):
    ctx = make_field(3, 5)
    g = binomial_spec(ctx, 2, 1, "minus")
    comps = tuple(QuadraticSpec(ctx, g.quad_terms, g.linear, c) for c in constants)
    gs = arrange(comps, (1, 2, 1))
    assert gs.b_witnesses == (0, 2, 1)
    assert analyze(walsh_full(glue(gs))).classification == "WeaklyRegular"


def test_arrange_certifies_bentness_apart_from_the_witness_arithmetic(monkeypatch):
    # with b* = 0 every witness is 0, so the example-6 components keep their
    # zero linear parts and share one Walsh support: the assembled glueing is
    # not bent, and arrange must say so from the realized linear parts alone
    from pbent import construct

    monkeypatch.setattr(construct, "solve_trace_equation", lambda ctx, beta, t: 0)
    g = binomial_spec(make_field(3, 5), 2, 1, "minus")
    broken = construct._assemble(construct._certify((g, g, g)), (1, 2, 1))
    assert broken.b_witnesses == (0, 0, 0)
    assert not analyze(walsh_full(glue(broken))).is_bent
    with pytest.raises(RuntimeError, match="do not partition"):
        arrange((g, g, g), (1, 2, 1))


def test_scan_eliminates_once_and_predict_never(monkeypatch):
    from pbent import gfpn, quadratic

    eliminations, evaluations = [], []
    real_rref, real_evaluate = gfpn._rref_stack, QuadraticSpec.evaluate

    def counting_rref(m, p):
        eliminations.append(m.shape[0])
        return real_rref(m, p)

    def counting_evaluate(spec, x):
        evaluations.append(x)
        return real_evaluate(spec, x)

    monkeypatch.setattr(gfpn, "_rref_stack", counting_rref)
    monkeypatch.setattr(quadratic, "_rref_stack", counting_rref)
    monkeypatch.setattr(QuadraticSpec, "evaluate", counting_evaluate)
    g = binomial_spec(make_field(5, 3), 2, 0, "minus")
    report = scan_coefficients((g,) * 5)
    assert len(report.rows) == 4 ** 5
    assert eliminations == [5] and evaluations == []
    gs = arrange((g,) * 5, (1, 2, 3, 4, 1))
    eliminations.clear()
    assert predict_regularity(gs) == "WeaklyRegular"
    assert eliminations == []


def test_scan_counts_on_even_n_template():
    ctx = make_field(3, 4)
    g = binomial_spec(ctx, 2, 1, "plus")
    report = scan_coefficients((g, g, g))
    assert len(report.rows) == 8
    assert report.weakly_regular == 2
    assert report.non_weakly_regular == 6
    assert not report.spectra_checked
    assert all(r["spectral"] is None for r in report.rows)
    # lexicographic tuple order
    assert [r["scalars"] for r in report.rows] == [
        (1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2),
        (2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 2, 2),
    ]


def test_glued_spec_json_roundtrip():
    gs = build_example(6)
    obj = gs.to_json()
    assert obj["scalars"] == [1, 2, 1]
    assert obj["b_indices"] == [0, 2, 1]
    restored = GluedSpec.from_json(obj)
    assert restored.b_witnesses == gs.b_witnesses
    assert restored.beta == gs.beta
    assert np.array_equal(glue(restored).table, glue(gs).table)

    # without stored witnesses they are recomputed, still aligned
    del obj["b_indices"]
    recomputed = GluedSpec.from_json(obj)
    g0 = recomputed.realized[0]
    for k, fk in enumerate(recomputed.realized):
        assert fk.evaluate(recomputed.beta) == (g0.evaluate(recomputed.beta) + k) % 3


def test_anf_poly_is_immutable_view():
    ctx = make_field(3, 2)
    poly = anf(PFunction.from_field_table(ctx, np.zeros(9, dtype=int)))
    assert isinstance(poly, AnfPoly)
    with pytest.raises(ValueError):
        poly.cube[0, 0] = 1
