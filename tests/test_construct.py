import numpy as np
import pytest

from pbent.construct import (
    AnfPoly,
    GluedSpec,
    KernelMismatch,
    NotNearBent,
    WitnessConditionError,
    anf,
    arrange,
    build_example,
    glue,
    predict_regularity,
    scan_coefficients,
    spectral_regularity,
)
from pbent.gfpn import make_field, solve_trace_equation
from pbent.quadratic import QuadraticSpec, binomial_spec
from pbent.spectrum import PFunction, analyze, walsh_full

from oracles import lagrange_glue_reference, support_partition_check


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
        ctx, PFunction.from_field_table(ctx, np.zeros(27, dtype=int)).pairing_vector(5)
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


def test_spectral_regularity_rejects_non_bent():
    ctx = make_field(3, 4)
    g = binomial_spec(ctx, 2, 1, "minus")
    gs = arrange((g, g, g), (1, 1, 1))
    broken = GluedSpec(ctx, gs.components, gs.scalars, gs.beta, gs.b_witnesses,
                       (gs.realized[0],) * 3)  # same support thrice
    with pytest.raises(RuntimeError):
        spectral_regularity(broken)


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
