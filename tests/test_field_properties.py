"""Field axioms of FieldCtx as hypothesis properties.

Examples are derandomized and few, so the suite stays deterministic and fast;
every field the element-level tests use is covered: (3, n <= 6), (5, n <= 4)
and (7, n <= 3).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbent.gfpn import linmap_matrix, make_field

FIELDS = [(p, n) for p, max_n in ((3, 6), (5, 4), (7, 3)) for n in range(1, max_n + 1)]

prop = settings(derandomize=True, max_examples=20, deadline=None, database=None)


def _elements(data, ctx, count, nonzero=False):
    return [data.draw(st.integers(1 if nonzero else 0, ctx.size - 1)) for _ in range(count)]


@pytest.mark.parametrize("p, n", FIELDS)
@prop
@given(data=st.data())
def test_mul_is_a_commutative_ring_product(p, n, data):
    ctx = make_field(p, n)
    a, b, c = _elements(data, ctx, 3)
    assert ctx.mul(a, b) == ctx.mul(b, a)
    assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
    assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
    assert ctx.mul(a, 1) == a


@pytest.mark.parametrize("p, n", FIELDS)
@prop
@given(data=st.data())
def test_nonzero_elements_are_invertible(p, n, data):
    ctx = make_field(p, n)
    (a,) = _elements(data, ctx, 1, nonzero=True)
    assert ctx.mul(a, ctx.inv(a)) == 1


@pytest.mark.parametrize("p, n", FIELDS)
@prop
@given(data=st.data())
def test_frobenius_is_a_ring_automorphism(p, n, data):
    ctx = make_field(p, n)
    a, b = _elements(data, ctx, 2)
    i = data.draw(st.integers(0, 2 * n))
    fa, fb = ctx.frobenius(a, i), ctx.frobenius(b, i)
    assert ctx.frobenius(ctx.add(a, b), i) == ctx.add(fa, fb)
    assert ctx.frobenius(ctx.mul(a, b), i) == ctx.mul(fa, fb)
    assert fa == ctx.pow(a, p ** (i % n))


@pytest.mark.parametrize("p, n", FIELDS)
@prop
@given(data=st.data())
def test_trace_is_fp_linear(p, n, data):
    ctx = make_field(p, n)
    a, b = _elements(data, ctx, 2)
    c = data.draw(st.integers(0, p - 1))
    ca = ctx.mul(ctx.element_from_int(c), a)
    assert ctx.trace(ctx.add(ca, b)) == (c * ctx.trace(a) + ctx.trace(b)) % p


@pytest.mark.parametrize("p, n", FIELDS)
@prop
@given(data=st.data())
def test_linmap_matrix_applies_the_linearized_polynomial(p, n, data):
    ctx = make_field(p, n)
    coeffs = _elements(data, ctx, n)
    (z,) = _elements(data, ctx, 1)
    image = 0
    for i, c in enumerate(coeffs):
        image = ctx.add(image, ctx.mul(c, ctx.frobenius(z, i)))
    got = linmap_matrix(ctx, coeffs) @ np.array(ctx.decode(z)) % p
    assert got.tolist() == ctx.decode(image)
