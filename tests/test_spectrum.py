import numpy as np
import pytest

from pbent.cyclotomic import CycInt, match_shape
from pbent.gfpn import make_field
from pbent.quadratic import QuadraticSpec, binomial_spec
from pbent.spectrum import (
    PFunction,
    ShapeMismatch,
    WalshSpectrum,
    _check_parseval,
    analyze,
    b_zero_slice_multiplicities,
    walsh_full,
    walsh_naive,
    walsh_naive_full,
)

from oracles import shift_property_check


def _random_field_function(ctx, rng):
    return PFunction.from_field_table(ctx, rng.integers(ctx.p, size=ctx.size))


def test_table_validation():
    ctx = make_field(3, 2)
    with pytest.raises(ValueError):
        PFunction(ctx, [0] * 8, "field")  # wrong length
    with pytest.raises(ValueError):
        PFunction(ctx, [0] * 9, "ring")  # unknown kind
    with pytest.raises(ValueError):
        PFunction.from_product_tables(ctx, [[0] * 9, [0] * 9])  # needs p tables


def test_product_stacking_order():
    ctx = make_field(3, 2)
    tables = [np.full(9, k) for k in range(3)]
    f = PFunction.from_product_tables(ctx, tables)
    for y in range(3):
        for x in range(9):
            assert f.value(x + 9 * y) == y
            assert f.split_index(x + 9 * y) == (x, y)


def test_inner_product_against_scalar_definition():
    ctx = make_field(3, 2)
    f = PFunction.from_product_tables(ctx, [np.zeros(9, dtype=int)] * 3)
    for a in range(f.size):
        af, ay = f.split_index(a)
        for x in range(f.size):
            xf, xy = f.split_index(x)
            expected = (ctx.trace(ctx.mul(af, xf)) + ay * xy) % 3
            assert f.inner_product(a, x) == expected


def test_pairing_vector_matches_inner_product():
    ctx = make_field(3, 3)
    f = PFunction.from_field_table(ctx, np.zeros(27, dtype=int))
    for c in (0, 1, 5, 26):
        pv = f.pairing_vector(c)
        assert all(pv[x] == f.inner_product(c, x) for x in range(27))


def test_walsh_of_constant():
    ctx = make_field(3, 2)
    f = PFunction.from_field_table(ctx, np.full(9, 2))
    w0 = walsh_naive(f, 0)
    assert w0 == 9 * CycInt.root_power(3, 2)
    for b in range(1, 9):
        assert walsh_naive(f, b).is_zero()


def test_walsh_of_linear_form():
    # f(x) = <c, x> concentrates the whole mass at b = c
    ctx = make_field(3, 2)
    dummy = PFunction.from_field_table(ctx, np.zeros(9, dtype=int))
    c = 5
    f = PFunction.from_field_table(ctx, dummy.pairing_vector(c))
    spec = walsh_full(f)
    assert spec.coefficient(c) == 9
    assert spec.support_size == 1


def test_fast_equals_naive_full():
    rng = np.random.default_rng(101)
    for p, n in ((3, 2), (3, 3), (5, 2)):
        ctx = make_field(p, n)
        for _ in range(25):
            f = _random_field_function(ctx, rng)
            assert np.array_equal(walsh_full(f).counts, walsh_naive_full(f))


def test_fast_equals_naive_scalar_exhaustive_f9():
    ctx = make_field(3, 2)
    rng = np.random.default_rng(5)
    f = _random_field_function(ctx, rng)
    spec = walsh_full(f)
    for b in range(9):
        assert spec.coefficient(b) == walsh_naive(f, b)


def test_fast_equals_naive_on_product_domain():
    ctx = make_field(3, 2)
    rng = np.random.default_rng(17)
    for _ in range(10):
        f = PFunction.from_product_tables(
            ctx, [rng.integers(3, size=9) for _ in range(3)]
        )
        assert np.array_equal(walsh_full(f).counts, walsh_naive_full(f))
        for b in (0, 1, 13, 26):
            assert walsh_full(f).coefficient(b) == walsh_naive(f, b)


def test_naive_full_is_a_small_domain_oracle():
    ctx = make_field(3, 8)
    f = PFunction.from_field_table(ctx, np.zeros(ctx.size, dtype=int))
    with pytest.raises(ValueError):
        walsh_naive_full(f)


def test_shift_property():
    ctx = make_field(3, 3)
    rng = np.random.default_rng(3)
    f = _random_field_function(ctx, rng)
    for c in (1, 14, 26):
        assert shift_property_check(f, c)
    g = PFunction.from_product_tables(ctx, [rng.integers(3, size=27) for _ in range(3)])
    assert shift_property_check(g, 40)


def test_spectrum_container_validation():
    with pytest.raises(ValueError):
        WalshSpectrum(3, 2, np.zeros((9, 4), dtype=np.int64))


def test_parseval_check_sums_exactly():
    ctx = make_field(3, 2)
    f = PFunction.from_field_table(ctx, np.zeros(9, dtype=int))
    counts = walsh_full(f).counts.copy()
    # four rows with |W|^2 = 2^62 add 2^64: an int64 total wraps back to 3^4
    counts[1:5, 0] = 2 ** 31
    with pytest.raises(RuntimeError, match="Parseval"):
        _check_parseval(WalshSpectrum(3, 2, counts))


def test_analyze_zero_function():
    ctx = make_field(3, 2)
    f = PFunction.from_field_table(ctx, np.zeros(9, dtype=int))
    rep = analyze(walsh_full(f))
    assert not rep.is_bent and not rep.is_near_bent
    assert rep.classification == "NotApplicable"
    assert rep.support_size == 1
    assert rep.class_multiplicities == {}


def test_analyze_quadratic_bent_regular():
    """Tr(x^2) on F_9 is regular bent; multiplicities cross-checked by
    matching every naive coefficient independently."""
    ctx = make_field(3, 2)
    f = QuadraticSpec(ctx, ((1, 0),)).to_table()
    rep = analyze(walsh_full(f))
    assert rep.is_bent and not rep.is_near_bent
    assert rep.classification == "Regular"
    assert rep.zeta == "1"
    assert rep.support_size == 9

    mults = {}
    for b in range(9):
        s = match_shape(walsh_naive(f, b), 2)
        mults[(s.zeta, s.j)] = mults.get((s.zeta, s.j), 0) + 1
    assert rep.class_multiplicities == mults


def test_analyze_quadratic_near_bent():
    ctx = make_field(3, 8)
    f = binomial_spec(ctx, 2, 1, "plus").to_table()
    spec = walsh_full(f)
    rep = analyze(spec)
    assert rep.is_near_bent and not rep.is_bent
    assert rep.support_size == 3 ** 7
    norms = spec.norm_rows()
    nb = np.zeros(3, dtype=np.int64)
    nb[0] = 3 ** 9
    for row in norms:
        assert np.array_equal(row, nb) or not row.any()
    # spot-check the defining sum on a few coefficients
    for b in (0, 1, 777, 6560):
        assert spec.coefficient(b) == walsh_naive(f, b)


def test_analyze_weakly_regular_with_fixed_zeta():
    ctx = make_field(3, 8)
    rep = analyze(walsh_full(binomial_spec(ctx, 2, 1, "plus").to_table()))
    assert rep.classification == "WeaklyRegular"
    assert rep.zeta == "-i"
    assert set(rep.class_multiplicities) <= {("-i", j) for j in range(3)}


def test_dual_indices_line_up_with_multiplicities():
    ctx = make_field(3, 2)
    f = QuadraticSpec(ctx, ((1, 0),)).to_table()
    rep = analyze(walsh_full(f))
    assert rep.dual is not None
    from collections import Counter

    assert Counter(j for j in rep.dual if j is not None) == Counter(
        {j: c for (_, j), c in rep.class_multiplicities.items()}
    )


def test_slice_multiplicities_need_a_bent_product():
    ctx = make_field(3, 2)
    f = PFunction.from_product_tables(ctx, [np.zeros(9, dtype=int)] * 3)
    with pytest.raises(ShapeMismatch):
        b_zero_slice_multiplicities(walsh_full(f))


def test_report_json_shape():
    ctx = make_field(3, 2)
    rep = analyze(walsh_full(QuadraticSpec(ctx, ((1, 0),)).to_table()))
    obj = rep.to_json()
    assert obj["is_bent"] is True
    assert obj["classification"] == "Regular"
    assert sum(m["count"] for m in obj["class_multiplicities"]) == 9
    assert "dual" not in obj


def test_pfunction_json_roundtrip():
    ctx = make_field(3, 2)
    rng = np.random.default_rng(29)
    f = PFunction.from_product_tables(ctx, [rng.integers(3, size=9) for _ in range(3)])
    obj = f.to_json()
    g = PFunction.from_json(obj)
    assert g.kind == "product" and g.dim == 3
    assert np.array_equal(f.table, g.table)
    obj["n"] = 7
    with pytest.raises(ValueError):
        PFunction.from_json(obj)
