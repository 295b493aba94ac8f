import re
from types import SimpleNamespace

import numpy as np
import pytest

from pbent.construct import anf
from pbent.cyclotomic import CycInt, match_shape
from pbent.gfpn import digit_array, make_field
from pbent.quadratic import QuadraticSpec, binomial_spec
from pbent.spectrum import (
    PFunction,
    NotBent,
    ShapeMismatch,
    WalshSpectrum,
    _CHUNK,
    _check_parseval,
    _classify_rows,
    _multiplicities,
    _pass_digits,
    _pass_dtype,
    _pass_matrix,
    _row_keys,
    _start,
    _transform,
    _transform_bytes,
    analyze,
    b_zero_slice_multiplicities,
    check_transform_size,
    walsh_full,
    walsh_naive,
    walsh_naive_full,
)

from oracles import (
    analyze_per_row,
    classify_rows_per_row,
    norm_rows,
    pairing_vector,
    shift_property_check,
    slice_per_row,
    walsh_full_rolls,
)


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


def test_table_is_reduced_mod_p_into_a_copy():
    ctx = make_field(3, 2)
    values = np.array([-4, -1, 0, 1, 2, 3, 5, 7, 300], dtype=np.int64)
    f = PFunction.from_field_table(ctx, values)
    assert f.table.tolist() == [2, 2, 0, 1, 2, 0, 2, 1, 0]
    assert not f.table.flags.writeable
    # the caller's array is neither reduced, nor frozen, nor aliased
    assert values.tolist() == [-4, -1, 0, 1, 2, 3, 5, 7, 300]
    assert values.flags.writeable
    in_range = np.array([0, 1, 2] * 3, dtype=np.int64)
    g = PFunction.from_field_table(ctx, in_range)
    assert g.table.tolist() == in_range.tolist() and not np.shares_memory(g.table, in_range)
    assert in_range.flags.writeable


@pytest.mark.parametrize("p, n, kind, dtype", [(251, 1, "field", np.uint8),
                                               (257, 1, "field", np.uint16),
                                               (5, 2, "product", np.uint8)])
def test_tables_at_the_narrow_dtype_boundary(p, n, kind, dtype):
    # values up to p - 1 = 250 fill uint8 at p = 251, and p = 257 needs
    # uint16 (and float64 ANF passes); input from -2p to 2p is reduced mod p
    ctx = make_field(p, n)
    size = p ** (n + (kind == "product"))
    values = np.random.default_rng(p).integers(-2 * p, 2 * p, size)
    values[:2] = p - 1, -1
    f = PFunction(ctx, values, kind)
    assert f.table.dtype == dtype and not f.table.flags.writeable
    assert np.array_equal(f.table, values % p) and not np.shares_memory(f.table, values)
    assert values.min() < 0 and values.max() >= p and values.flags.writeable
    g = PFunction.from_json(f.to_json())
    assert g.table.dtype == dtype and np.array_equal(g.table, f.table)
    poly = anf(f)
    assert poly.cube.dtype == dtype and np.array_equal(poly.value_table(), f.table)
    naive = walsh_naive_full(f)
    if p < 157:
        assert np.array_equal(walsh_full(f).counts, naive)
    else:  # the pass matrix of a one-digit domain exceeds the 4 GiB limit from p = 157
        with pytest.raises(ValueError, match="4 GiB"):
            check_transform_size(p, n)
        for b in (0, 1, p - 1):
            assert CycInt(p, naive[b]) == walsh_naive(f, b)


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
        pv = pairing_vector(f, c)
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
    f = PFunction.from_field_table(ctx, pairing_vector(dummy, c))
    spec = walsh_full(f)
    assert spec.coefficient(c) == 9
    assert spec.support_size == 1


EDGE_FIELDS = [(p, n) for p, max_n in ((3, 5), (5, 3), (7, 2)) for n in range(1, max_n + 1)]


def test_fast_equals_naive_full():
    for p, n in EDGE_FIELDS:
        ctx = make_field(p, n)
        rng = np.random.default_rng([101, p, n])
        for _ in range(25):
            f = _random_field_function(ctx, rng)
            assert np.array_equal(walsh_full(f).counts, walsh_naive_full(f)), (p, n)


def test_fast_equals_naive_scalar_exhaustive_f9():
    ctx = make_field(3, 2)
    rng = np.random.default_rng(5)
    f = _random_field_function(ctx, rng)
    spec = walsh_full(f)
    for b in range(9):
        assert spec.coefficient(b) == walsh_naive(f, b)


def test_fast_equals_naive_on_product_domain():
    for p, n in EDGE_FIELDS:
        ctx = make_field(p, n)
        rng = np.random.default_rng([17, p, n])
        for _ in range(10):
            f = PFunction.from_product_tables(
                ctx, [rng.integers(p, size=ctx.size) for _ in range(p)]
            )
            spec = walsh_full(f)
            assert np.array_equal(spec.counts, walsh_naive_full(f)), (p, n)
            for b in (0, 1, f.size // 2, f.size - 1):
                assert spec.coefficient(b) == walsh_naive(f, b), (p, n, b)


def test_fast_equals_roll_transform_on_larger_domains():
    from pbent.construct import arrange, glue

    rng = np.random.default_rng(23)
    funcs = [_random_field_function(make_field(p, n), rng) for p, n in ((3, 9), (5, 5), (7, 4))]
    g = binomial_spec(make_field(3, 7), 2, 1, "minus")
    funcs.append(glue(arrange((g, g, g), (1, 1, 2))))
    for f in funcs:
        assert np.array_equal(walsh_full(f).counts, walsh_full_rolls(f).counts)


# domains of several 2^15-row start blocks at p = 3 and 7, and of one block at p = 11 and 13
START_DOMAINS = [(3, 10, "field"), (3, 9, "product"), (7, 6, "field"), (7, 5, "product"),
                 (11, 3, "field"), (11, 3, "product"), (13, 3, "field"), (13, 3, "product")]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_both_pass_dtypes_equal_the_roll_transform(dtype):
    # float64 runs only above 2^23 points, so it is reached here directly
    funcs = []
    for p, n in EDGE_FIELDS:
        ctx = make_field(p, n)
        rng = np.random.default_rng([41, p, n])
        funcs.append(_random_field_function(ctx, rng))
        funcs.append(PFunction.from_product_tables(
            ctx, [rng.integers(p, size=ctx.size) for _ in range(p)]
        ))
    for p, n, kind in START_DOMAINS:
        rng = np.random.default_rng([61, p, n])
        size = p ** (n + (kind == "product"))
        funcs.append(PFunction(make_field(p, n), rng.integers(p, size=size), kind))
    for f in funcs:
        counts = _transform(f, dtype)
        assert np.array_equal(counts, walsh_full_rolls(f).counts), (f.p, f.dim)
        # int32 counts in their own block, shrunk in place from the pass block
        assert counts.dtype == np.int32 and counts.base.nbytes == counts.nbytes, (f.p, f.dim)


def _chunkings(p, dim):
    """How _passes cuts each pass on p^dim points: ("lo", partial) where one
    hi's lo rows span several chunks, ("hi", partial) where a chunk holds
    several whole hi, partial if the pass's last chunk is short. The first
    pass (lo = 1) takes contiguous runs of whole hi of p-wide rows, the later
    ones (hi, lo) slabs of packed (p - 1)-wide rows."""
    out = set()
    for low in range(0, dim, _pass_digits(p)):
        q, lo = p ** min(_pass_digits(p), dim - low), p ** low
        per = _CHUNK // (q * (p if low == 0 else p - 1))  # (hi, lo) pairs a chunk
        hi = p ** dim // (q * lo)
        if lo > per:
            out.add(("lo", lo % per != 0))
        elif hi > per // lo:
            out.add(("hi", hi % (per // lo) != 0))
    return out


# per p, field and product domains whose passes split one hi's rows over
# several chunks and put several whole hi in one chunk, each with a short
# last chunk
CHUNK_DOMAINS = [(3, 10, "field"), (3, 9, "product"), (7, 5, "field"), (7, 4, "product"),
                 (11, 4, "field"), (11, 3, "product"), (13, 4, "field"), (13, 3, "product")]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_both_pass_dtypes_equal_the_roll_transform_across_chunk_boundaries(dtype):
    for p in (3, 7, 11, 13):
        domains = [(n, kind) for q, n, kind in CHUNK_DOMAINS if q == p]
        assert {kind for _, kind in domains} == {"field", "product"}
        for kind in ("field", "product"):
            assert set().union(*(_chunkings(p, n + (kind == "product"))
                                 for n, k in domains if k == kind)) >= {
                ("lo", True), ("hi", True)}, (p, kind)
    for p, n, kind in CHUNK_DOMAINS:
        rng = np.random.default_rng([79, p, n])
        f = PFunction(make_field(p, n), rng.integers(p, size=p ** (n + (kind == "product"))), kind)
        assert np.array_equal(_transform(f, dtype), walsh_full_rolls(f).counts), (p, n, kind)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_packed_rows_equal_the_roll_transform_across_many_chunk_boundaries(dtype, monkeypatch):
    # with 2^9-entry chunks (q p <= 2^9 up to p = 19) every pass of these small
    # domains has three chunks or more: the first pass's compaction, both
    # through the product buffer and straight into the packed rows, each later
    # pass, and the widening to p-wide rows, back to front in float32 and front
    # to back in float64
    from pbent import spectrum

    monkeypatch.setattr(spectrum, "_CHUNK", 1 << 9)
    for p, n in ((3, 7), (5, 4), (7, 3), (11, 2), (13, 2), (17, 2), (19, 2)):
        ctx = make_field(p, n)
        for kind in ("field", "product"):
            size = p ** (n + (kind == "product"))
            dim = n + (kind == "product")
            assert p ** (min(_pass_digits(p), dim) + 1) <= spectrum._CHUNK < size * (p - 1) / 2
            f = PFunction(ctx, np.random.default_rng([101, p, n]).integers(p, size=size), kind)
            assert np.array_equal(_transform(f, dtype), walsh_full_rolls(f).counts), (p, n, kind)


def test_size_guard_fires_before_any_allocation():
    # only p and dim exist: touching the table, size or Gram matrix would
    # raise AttributeError instead
    with pytest.raises(ValueError, match="too large"):
        walsh_full(SimpleNamespace(p=3, dim=20))
    # the largest domains whose transform fits in 4 GiB pass; the next ones,
    # from 7^9 (about 4.5 GiB) to 13^7 (about 13 GiB), do not
    for p, dim in ((3, 16), (5, 10), (7, 8), (11, 7), (13, 6)):
        check_transform_size(p, dim)
        with pytest.raises(ValueError, match="4 GiB transform limit"):
            walsh_full(SimpleNamespace(p=p, dim=dim + 1))


def test_size_guard_counts_eight_bytes_per_float32_entry():
    # 53^4 = 7,890,481 points run in float32 inside the 4-byte int32 counts; the
    # guard counts twice that block, 53 * 8 + 8 = 432 bytes a point, 3.41 GB,
    # and 62 MB for the pass matrix
    check_transform_size(53, 4)


def test_pass_dtype_keeps_partial_sums_of_canonical_entries_exact():
    # a partial sum of canonical entries reaches 2 p^dim, so float32 runs up to
    # 2^23 points; the rule is tested on sizes alone, nothing is allocated
    for size in (3 ** 14, 53 ** 4, 2 ** 23):
        assert _pass_dtype(size) is np.float32, size
    for size in (2 ** 23 + 1, 5 ** 10, 3 ** 15):
        assert _pass_dtype(size) is np.float64, size


def test_size_guard_counts_the_pass_matrix():
    # at dim 1 the pass matrix has p^3 (p - 1) entries, far more than the
    # p^2 counts: at p = 181 its float32 entries alone take 4.27 GB
    for p in (181, 1009, 23159):
        with pytest.raises(ValueError, match="4 GiB transform limit"):
            check_transform_size(p, 1)


def test_size_guard_bytes_cover_the_traced_peak_on_f47():
    import tracemalloc

    f = _random_field_function(make_field(47, 1), np.random.default_rng(53))
    f.gram()
    tracemalloc.start()
    try:
        walsh_full(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 47^3 * 46 float32 pass matrix dominates the peak
    assert 47 ** 3 * 46 * 4 < peak <= _transform_bytes(47, 1)


@pytest.mark.parametrize("p, d", [(3, 1), (3, 3), (5, 1), (7, 1), (11, 1)])
def test_pass_matrix_is_the_count_matrix_in_canonical_columns(p, d):
    # [s = t + j.k mod p] with rows (k, s) and columns (j, t), each column
    # t < p - 1 minus the column t = p - 1 of its j, rows s < width only
    digits = digit_array(p, d)
    s_t = np.subtract.outer(np.arange(p), np.arange(p))
    full = (s_t[None, :, None, :] - (digits @ digits.T)[:, None, :, None]) % p == 0
    canon = full[..., :-1].astype(np.int64) - full[..., -1:]
    for dtype in (np.float32, np.float64):
        for width in (p, p - 1):
            mix = _pass_matrix(p, d, dtype, width)
            assert mix.dtype == dtype and not mix.flags.writeable
            assert np.array_equal(mix, canon[:, :width].reshape(p ** d * width, -1))


def test_pass_matrices_are_cached_up_to_81_rows():
    assert _pass_matrix(3, 3, np.float32, 3) is _pass_matrix(3, 3, np.float32, 3)
    assert _pass_matrix(7, 1, np.float64, 6) is _pass_matrix(7, 1, np.float64, 6)
    # 11 * 10 rows: built per call
    assert _pass_matrix(11, 1, np.float32, 10) is not _pass_matrix(11, 1, np.float32, 10)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("p, n", [(3, 5), (5, 3), (7, 2), (11, 2), (13, 2)])
def test_constant_functions_in_both_pass_dtypes(p, n, dtype):
    # f = c has W(0) = p^dim e^c and W(b) = 0 elsewhere. In canonical rows
    # e^(p-1) is -(1 + ... + e^(p-2)), so f = p - 1 starts every row of the
    # passes as all -1 and ends with row 0 at -p^dim in every column but the last
    ctx = make_field(p, n)
    for c in (0, p - 1):
        for f in (PFunction.from_field_table(ctx, np.full(ctx.size, c)),
                  PFunction.from_product_tables(ctx, [np.full(ctx.size, c)] * p)):
            expected = np.zeros((f.size, p), dtype=np.int64)
            if c == 0:
                expected[0, 0] = f.size
            else:
                expected[0, :-1] = -f.size
            assert np.array_equal(_transform(f, dtype), expected), (c, f.kind)
            assert CycInt(p, expected[0]) == f.size * CycInt.root_power(p, c)


@pytest.mark.parametrize("p, n", [(7, 7), (3, 13)])
def test_walsh_full_peak_memory_stays_near_the_counts(p, n):
    # the float32 passes run in place inside the int32 counts; beside them the
    # start's block-sized index arrays, the two chunk buffers and Parseval's
    # buffer are traced (about 1.029x the counts at 7^7 and 1.047x at 3^13)
    import tracemalloc

    f = _random_field_function(make_field(p, n), np.random.default_rng([47, p]))
    f.gram()  # the field's Gram matrix is cached outside the traced call
    tracemalloc.start()
    try:
        walsh_full(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    counts = 4 * p * f.size
    assert peak <= 1.10 * counts, peak / counts


def test_walsh_full_keeps_only_the_int32_counts():
    # after the call the block is shrunk to 4 bytes per count entry; nothing
    # else of the transform stays allocated
    import tracemalloc

    f = _random_field_function(make_field(7, 7), np.random.default_rng(73))
    f.gram()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        spec = walsh_full(f)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert spec.counts.dtype == np.int32
    assert kept <= 1.05 * 4 * 7 * f.size, kept / (4 * 7 * f.size)


@pytest.mark.parametrize("p, n", [(7, 7), (3, 13)])
def test_walsh_full_peak_is_the_counts_and_the_table_copy(p, n):
    # no index or digit planes of p^dim entries and no second half-block: the
    # int32 counts the passes run in and arrays of one start block or chunk,
    # at most 1.10x the counts (1.029x at 7^7 and 1.047x at 3^13 measured);
    # the start gathers from the table itself and makes no copy of it
    import tracemalloc

    f = _random_field_function(make_field(p, n), np.random.default_rng([59, p]))
    f.ctx.gram_inverse  # cached on the field outside the traced call
    tracemalloc.start()
    try:
        walsh_full(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    counts = 4 * p * f.size
    assert peak <= 1.10 * counts, peak / counts


@pytest.mark.parametrize("p, n, kind", [(3, 13, "field"), (7, 7, "field"), (3, 10, "product"),
                                        (5, 6, "product"), (7, 5, "product")])
def test_start_peak_memory_per_start_row(p, n, kind):
    # beside the cube, the start holds arrays of one block of p^k <= 2^15
    # rows: the row offsets, the digit planes and index of A y_lo, and each
    # block's index and carry mask (38-45 bytes a row measured)
    import tracemalloc

    size = p ** (n + (kind == "product"))
    f = PFunction(make_field(p, n), np.random.default_rng([89, p, n]).integers(p, size=size), kind)
    f.ctx.gram_inverse  # cached on the field outside the traced call
    cube = np.zeros(size * p, dtype=np.float32)
    rows = max(p ** k for k in range(1, f.dim) if p ** k <= 2 ** 15)
    tracemalloc.start()
    try:
        _start(f, cube)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cube.sum() == size
    assert peak <= 60 * rows, peak / rows


def test_float64_passes_peak_at_twice_the_counts():
    # above 2^23 points the passes run in place in a block of 8 bytes per count
    # entry, shrunk to the int32 counts at the end (2.08x measured at 3^13)
    import tracemalloc

    f = _random_field_function(make_field(3, 13), np.random.default_rng(83))
    f.ctx.gram_inverse
    tracemalloc.start()
    try:
        _transform(f, np.float64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    counts = 4 * 3 * f.size
    assert peak <= 2.15 * counts, peak / counts


@pytest.mark.parametrize("p, n, kind", [(3, 4, "product"), (5, 3, "field"), (131, 1, "product"),
                                        (257, 1, "field"), (3, 10, "field"), (5, 6, "product"),
                                        (7, 5, "product"), (3, 10, "product")])
def test_start_row_y_is_the_unit_vector_at_f_of_g_inverse_y(p, n, kind):
    # 3^10, 5^7, 7^6 and 3^11 points are 3, 5, 7 and 9 start blocks, whose
    # indices add digit-wise with carries; on a product whose only high digit
    # is the F_p coordinate nothing carries, so 3^10 x 3 has a field digit
    # there too. A shuffled table makes every digit of the index count; at
    # p = 257 its values reach 256, a two-byte gather
    size = p ** (n + (kind == "product"))
    f = PFunction(make_field(p, n), np.random.default_rng([97, p, n]).permutation(size) % p, kind)
    x = digit_array(p, f.dim) @ f.gram().T % p  # row b: the digits of G b
    h = np.empty(f.size, dtype=np.int64)
    h[x @ p ** np.arange(f.dim)] = f.table  # h(G b) = f(b)
    cube = np.zeros(f.size * p, dtype=np.float32)
    _start(f, cube)
    assert np.array_equal(cube.reshape(f.size, p), np.eye(p, dtype=np.float32)[h])


def test_walsh_full_builds_no_domain_sized_index(monkeypatch):
    """At 3^10 the start gathers 3^9 rows at a time: no linear_index_map,
    and no digit planes of more than 3^9 columns."""
    from pbent import spectrum

    f = _random_field_function(make_field(3, 10), np.random.default_rng(67))
    expected = walsh_full(f).counts
    real_planes = spectrum.digit_planes

    def block_planes(mat, p):
        if p ** mat.shape[1] > 3 ** 9:
            raise AssertionError(f"built digit planes of {p}^{mat.shape[1]} columns")
        return real_planes(mat, p)

    def no_index_map(mat, p):
        raise AssertionError("built a domain-sized index map")

    monkeypatch.setattr(spectrum, "digit_planes", block_planes)
    monkeypatch.setattr(spectrum, "linear_index_map", no_index_map, raising=False)
    assert np.array_equal(walsh_full(f).counts, expected)


def test_gram_inverse_is_cached_on_the_field(monkeypatch):
    from pbent import gfpn

    ctx = make_field(5, 4)
    inv = ctx.gram_inverse
    assert inv is ctx.gram_inverse and not inv.flags.writeable
    assert np.array_equal(ctx.gram @ inv % 5, np.eye(4, dtype=np.int64))

    def no_inverse(mat, p):
        raise AssertionError("inverted the Gram matrix again")

    monkeypatch.setattr(gfpn, "invert_matrix", no_inverse)
    rng = np.random.default_rng(71)
    for kind in ("field", "product"):
        f = PFunction(ctx, rng.integers(5, size=5 ** (4 + (kind == "product"))), kind)
        assert np.array_equal(walsh_full(f).counts, walsh_naive_full(f)), kind


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


def test_spectrum_container_rejects_counts_beyond_p_to_the_dim():
    counts = np.zeros((9, 3), dtype=np.int64)
    counts[0, 0], counts[1, 1] = 9, -9  # |entry| = p^dim is admissible
    spec = WalshSpectrum(3, 2, counts)
    assert spec.counts.dtype == np.int32 and np.array_equal(spec.counts, counts)
    # int32 counts, as walsh_full returns them, are taken as they are
    assert WalshSpectrum(3, 2, spec.counts).counts is spec.counts
    for bad in (10, -10, 2 ** 31):
        wide = counts.copy()
        wide[4, 1] = bad
        with pytest.raises(ValueError, match=r"exceeds p\^dim = 9"):
            WalshSpectrum(3, 2, wide)
    # Python ints past int64 are rejected too, not wrapped
    with pytest.raises(ValueError, match=r"exceeds p\^dim = 9"):
        WalshSpectrum(3, 2, [[2 ** 70, 0, 0]] + [[0, 0, 0]] * 8)


def test_parseval_check_sums_exactly():
    # at the largest admissible entry m = 3^13, rows (m, m, m) are zero in Z[e]
    # but lift the first chunk's Gram sums to 2^54, where float64 reads the
    # total 3^26 as 3^26 - 1: summed exactly the check passes, and fails once
    # one of those rows ends in m - 1, -e^2 with |W|^2 = 1
    m = 3 ** 13
    counts = np.zeros((m, 3), dtype=np.int32)
    counts[0, 0] = m
    counts[1 : 1 << 13] = m
    _check_parseval(WalshSpectrum(3, 13, counts))
    counts = counts.copy()
    counts[(1 << 13) - 1, 2] = m - 1
    with pytest.raises(RuntimeError, match="Parseval"):
        _check_parseval(WalshSpectrum(3, 13, counts))
    # entries of -2^31, past any admissible domain, are summed in int64 one row
    # at a time: four rows with |W|^2 = 2^62 add 2^64, which a wrapping int64
    # total would read as 3^4
    counts = np.zeros((9, 3), dtype=np.int32)
    counts[0, 0] = 9
    counts[1:5, 0] = -2 ** 31
    with pytest.raises(RuntimeError, match="Parseval"):
        _check_parseval(SimpleNamespace(p=3, dim=2, counts=counts))
    # a canonical row (3^17, 0, 0) has |W|^2 = 3^34, odd and above 2^53, which
    # float64 cannot hold: the check passes only if that chunk is summed in int64
    _check_parseval(SimpleNamespace(p=3, dim=17, counts=np.array([[3 ** 17, 0, 0]], np.int32)))
    # rows (k, k, k) are zero in Z[e] but not canonical: their last column is
    # summed too, where leaving it out would read each as -k e^2
    counts = np.zeros((9, 3), dtype=np.int32)
    counts[0, 0] = 9
    counts[1:] = np.arange(1, 9)[:, None]
    _check_parseval(WalshSpectrum(3, 2, counts))


class _SliceLengths(np.ndarray):
    """Counts that record the length of every row slice taken of them."""

    lengths: list = []

    def __getitem__(self, key):
        out = super().__getitem__(key)
        if isinstance(key, slice):
            _SliceLengths.lengths.append(len(out))
        return out


def test_parseval_check_keeps_8192_row_chunks_beside_a_big_row():
    # a constant table's spectrum at 3^14: W(0) = 3^14 and every other row 0.
    # A row step from the largest entry of all would be 2^53 // 3^28 = 393
    # rows; only the chunk holding row 0 needs more than float64
    m = 3 ** 14
    for corrupt in (False, True):
        counts = np.zeros((m, 3), dtype=np.int32)
        counts[0, 0] = m
        counts[1, 0] += corrupt
        spec = WalshSpectrum(3, 14, counts)
        spec.counts = counts.view(_SliceLengths)
        _SliceLengths.lengths = []
        if corrupt:
            with pytest.raises(RuntimeError, match="Parseval"):
                _check_parseval(spec)
        else:
            _check_parseval(spec)
        assert set(_SliceLengths.lengths) == {1 << 13, m % (1 << 13)}, corrupt


def test_parseval_check_covers_every_row_chunk():
    ctx = make_field(3, 11)  # 3^11 rows: the Gram is summed in 22 chunks
    spec = walsh_full(_random_field_function(ctx, np.random.default_rng(43)))
    counts = spec.counts.copy()
    counts[-1, 0] += 1
    with pytest.raises(RuntimeError, match="Parseval"):
        _check_parseval(WalshSpectrum(3, 11, counts))


def test_parseval_check_peak_memory_stays_below_four_bytes_per_point():
    # the float64 buffer of the p - 1 canonical columns of one 8192-row chunk
    # takes 0.74 bytes per point of g3_10 (3^11 points)
    import tracemalloc

    from pbent.construct import arrange, glue

    g = binomial_spec(make_field(3, 10), 2, 1, "plus")
    f = glue(arrange((g, g, g), (1, 2, 1)))
    spec = walsh_full(f)
    tracemalloc.start()
    try:
        _check_parseval(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * f.size, peak / f.size


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
    norms = norm_rows(spec)
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
    with pytest.raises(NotBent):
        b_zero_slice_multiplicities(walsh_full(f))


def _glued(p, scalars):
    """p copies of the near-bent Tr(x^2 + x^(p+1)) on F_{p^2}, glued."""
    from pbent.construct import arrange, glue

    return glue(arrange((binomial_spec(make_field(p, 2), 0, 1, "plus"),) * p, scalars))


def _example(eid):
    from pbent.construct import build_example, glue

    return glue(build_example(eid))


WR, NWR = {"Regular", "WeaklyRegular"}, {"NonWeaklyRegular"}

# (function builder, admissible classifications); None for near-bent inputs
CLASSIFY_CASES = {
    "bent-quadratic-3": (lambda: QuadraticSpec(make_field(3, 3), ((1, 0),)).to_table(), WR),
    "bent-quadratic-5": (lambda: QuadraticSpec(make_field(5, 2), ((1, 0),)).to_table(), WR),
    "bent-quadratic-7": (lambda: QuadraticSpec(make_field(7, 2), ((1, 0),)).to_table(), WR),
    "near-bent-3": (lambda: binomial_spec(make_field(3, 5), 2, 1, "minus").to_table(), None),
    "near-bent-5": (lambda: binomial_spec(make_field(5, 2), 0, 1, "plus").to_table(), None),
    "near-bent-7": (lambda: binomial_spec(make_field(7, 2), 0, 1, "plus").to_table(), None),
    "glued-wr-3": (lambda: _example(2), WR),
    "glued-nwr-3": (lambda: _example(3), NWR),
    "glued-wr-5": (lambda: _glued(5, (1, 1, 1, 1, 1)), WR),
    "glued-nwr-5": (lambda: _glued(5, (1, 1, 1, 1, 2)), NWR),
    "glued-wr-7": (lambda: _glued(7, (1,) * 7), WR),
    "glued-nwr-7": (lambda: _glued(7, (1,) * 6 + (3,)), NWR),
}


@pytest.mark.parametrize("case", sorted(CLASSIFY_CASES))
def test_classification_matches_per_row_oracle(case):
    build, expected = CLASSIFY_CASES[case]
    f = build()
    spec = walsh_full(f)
    rep = analyze(spec)
    assert rep.is_bent == (expected is not None)
    assert rep.is_near_bent == (expected is None)
    if expected is not None:
        assert rep.classification in expected
    mag = spec.dim if rep.is_bent else spec.dim + 1
    classification, zeta, dual, mults = analyze_per_row(spec, mag)
    assert (rep.classification, rep.zeta, rep.dual) == (classification, zeta, dual)
    assert list(rep.class_multiplicities.items()) == list(mults.items())
    if f.kind == "product":
        assert list(b_zero_slice_multiplicities(spec).items()) == list(
            slice_per_row(spec).items()
        )


def _same_partition(labels, values) -> bool:
    """labels[i] == labels[j] exactly where values[i] == values[j]."""
    pairs = set(zip(labels.tolist(), values))
    return len(pairs) == len(set(labels.tolist())) == len(set(values))


def _near_bent_and_glued(p, n, scalars):
    """The near-bent Tr(x^2 - x^(p+1)) on F_{p^n} and p copies of it, glued."""
    from pbent.construct import arrange, glue

    g = binomial_spec(make_field(p, n), 0, 1, "minus")
    return walsh_full(g.to_table()), walsh_full(glue(arrange((g,) * p, scalars)))


@pytest.mark.parametrize("p, n, scalars", [(3, 5, (1, 2, 1)), (5, 3, (1, 1, 2, 3, 4)),
                                           (7, 2, (1,) * 6 + (3,))])
def test_row_keys_classify_like_the_per_row_oracle(p, n, scalars):
    component, glued = _near_bent_and_glued(p, n, scalars)
    cases = [(component.counts, n, None), (component.counts[: p ** (n - 1)], n, n + 1),
             (glued.counts, n + 1, None), (glued.counts[: p ** n], n + 1, n + 1)]
    for rows, dim, mag in cases:
        mag, shapes, labels = _classify_rows(p, dim, rows, mag)
        assert labels.dtype == np.int8
        expected, _ = classify_rows_per_row(p, rows, mag)
        assert [shapes[k] for k in labels] == expected
        assert _same_partition(labels, expected)
        # labels number the distinct rows in order of first occurrence
        assert np.all(np.diff(np.unique(labels, return_index=True)[1]) > 0)
    assert None in _classify_rows(p, n, component.counts)[1]  # near-bent: zero rows


def test_row_keys_are_equal_exactly_where_rows_are():
    rng = np.random.default_rng(18)
    # at p = 11 one key packs the whole row up to R = 2h + 1 = 55, as
    # R^11 <= 2^64 < 57^11; the other h are random
    for p, h, count in ((3, 2417, 1), (5, 40, 1), (7, 1500, 2), (11, 27, 1), (11, 28, 2),
                        (13, 2999, 3)):
        rows = rng.integers(-h, h + 1, size=(400, p))
        rows[:50] = rows[50:100]  # repeated rows
        rows[100, 0], rows[101, -1] = h, -h  # entries at +-h
        # rows that would pack like row 0 under the radix of row 0 alone: R0
        # more at column j, one less at column j + 1; all within +-h
        rows[0] //= 4
        radix0 = 2 * int(np.abs(rows[0]).max()) + 1
        for j in range(p - 1):
            twin = rows[0].copy()
            twin[j] += radix0
            twin[j + 1] -= 1
            rows[200 + j] = twin
            # (.., h, x, ..) and (.., -h, x + 1, ..) pack R^j apart
            rows[300 + j, j : j + 2] = h, min(rows[300 + j, j + 1], h - 1)
            rows[350 + j] = rows[300 + j]
            rows[350 + j, j : j + 2] += -2 * h, 1
        assert np.abs(rows).max() == h
        keys = _row_keys(rows)
        assert keys.dtype == np.int64 and keys.shape == (count, len(rows))
        assert _same_partition(np.unique(keys.T, axis=0, return_inverse=True)[1].ravel(),
                               [tuple(r) for r in rows.tolist()])
    extreme = np.array([[-2 ** 63, 2 ** 63 - 1, 0], [2 ** 63 - 1, -2 ** 63, 0]], dtype=np.int64)
    assert np.array_equal(_row_keys(extreme), extreme.T[::-1])  # one entry per key


def test_a_row_that_packs_like_row_zero_is_classified_apart():
    """Row 1 differs from row 0 by R0 at one column and -1 at the next, R0 the
    radix row 0 alone would give: it gets its own pass and fails its norm."""
    spec = walsh_full(QuadraticSpec(make_field(3, 2), ((1, 0),)).to_table())
    row = spec.counts[0]
    twin = row.copy()
    twin[0] += 2 * int(np.abs(row).max()) + 1
    twin[1] -= 1
    with pytest.raises(NotBent, match=re.escape(f"coefficient {twin.tolist()} ")):
        _classify_rows(3, 2, np.stack([row, twin, row]))


def test_rows_that_differ_in_one_key_alone_are_classified_apart():
    """At p = 7, mag 41 the entries reach 7^20, so each key packs one column."""
    from pbent.cyclotomic import _shape_table

    table = _shape_table(7, 41)
    rows = np.array(list(table) * 2, dtype=np.int64)
    assert len(_row_keys(rows)) == 7
    mag, shapes, labels = _classify_rows(7, 41, rows, 41)
    assert shapes == list(table.values()) and np.array_equal(labels, np.arange(28) % 14)
    twin = rows[0].copy()
    twin[0] -= 1  # column 0 is packed in the last key only
    with pytest.raises(NotBent, match=re.escape(f"coefficient {twin.tolist()} ")):
        _classify_rows(7, 41, np.stack([rows[0], twin]), 41)


def test_non_canonical_rows_stay_distinct_beyond_the_int8_labels():
    """Rows w + k (1, 1, 1) are one element of Z[e] but 200 distinct rows."""
    w = np.array(CycInt.root_power(3, 1).counts) * 3
    rows = w + np.arange(200)[:, None] * np.ones(3, dtype=np.int64)
    mag, shapes, labels = _classify_rows(3, 2, np.concatenate([rows, rows[::-1]]))
    assert mag == 2 and len(shapes) == 200 and len(set(shapes)) == 1
    assert np.array_equal(labels, np.concatenate([np.arange(200), np.arange(200)[::-1]]))


def test_labels_past_int8_at_p_67():
    """Every admissible shape at p = 67, mag 3: 134 distinct rows, more than
    int8 holds, classified with no transform."""
    from pbent.cyclotomic import _shape_table

    table = _shape_table(67, 3)
    distinct = np.array(list(table), dtype=np.int64)
    reps = np.arange(len(distinct)) % 3 + 1
    order = np.random.default_rng(67).permutation(int(reps.sum()))
    rows = np.repeat(distinct, reps, axis=0)[order]
    mag, shapes, labels = _classify_rows(67, 3, rows, 3)
    assert labels.dtype == np.int16 and len(shapes) == 134 == labels.max() + 1
    assert [shapes[k] for k in labels] == [table[tuple(r)] for r in rows.tolist()]
    mults = {(s.zeta, s.j): count for s, count in zip(table.values(), reps.tolist())}
    assert _multiplicities(shapes, labels) == mults


def test_analyze_peak_memory_has_no_row_by_column_temporary():
    # an (N, p) int64 temporary alone would be 8 bytes per count entry
    import tracemalloc

    _, spec = _near_bent_and_glued(7, 4, (1, 2, 3, 4, 5, 6, 1))
    analyze(spec)
    tracemalloc.start()
    try:
        analyze(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    int64_bytes = 8 * spec.counts.size
    assert peak < 0.5 * int64_bytes, peak / int64_bytes


def _oracle_error(fn, *args) -> str:
    with pytest.raises(ShapeMismatch) as exc:
        fn(*args)
    return str(exc.value)


def _refuse_shape(monkeypatch, row):
    """A shape table that has lost the shape of row: the only way to make
    match_shape miss, since every element of Z[e] with |w|^2 = p^mag is a
    root of unity times an admissible magnitude."""
    import oracles
    import pbent.spectrum as spectrum

    def match_all_but(w, mag):
        return None if list(w.counts) == row.tolist() else match_shape(w, mag)

    monkeypatch.setattr(spectrum, "match_shape", match_all_but)
    monkeypatch.setattr(oracles, "match_shape", match_all_but)


def test_unmatched_row_raises_the_oracle_message(monkeypatch):
    from pbent.spectrum import _classify_rows

    spec = walsh_full(_glued(5, (1, 1, 1, 1, 2)))
    counts = spec.counts.copy()
    counts[20] += [1, 0, 0, 0, 0]  # the b = 0 slice is rows 0..24
    broken = WalshSpectrum(spec.p, spec.dim, counts)
    # a row of another magnitude is bad input, named in plain integers
    with pytest.raises(NotBent) as exc:
        b_zero_slice_multiplicities(broken)
    assert re.fullmatch(r"coefficient \[-?\d+(, -?\d+)*\] has \|W\|\^2 = \[.*\], not 5\^3",
                        str(exc.value))

    # a row of the bent magnitude that matches no shape is an internal fault
    _refuse_shape(monkeypatch, spec.counts[20])
    expected = _oracle_error(slice_per_row, spec)
    assert "no admissible shape" in expected
    # plain integers, not numpy scalar reprs such as np.int64(27)
    assert "np.int64" not in expected
    assert re.match(r"coefficient \[-?\d+(, -?\d+)*\] ", expected)
    assert _oracle_error(b_zero_slice_multiplicities, spec) == expected
    assert _oracle_error(_classify_rows, 5, spec.dim, spec.counts, spec.dim) == _oracle_error(
        classify_rows_per_row, 5, spec.counts, spec.dim
    )
    assert _oracle_error(analyze, spec) == expected


def _count_row_matches(monkeypatch) -> list:
    """Record every norm_sq and match_shape call the classifier makes, and
    fail any build of the row keys."""
    import pbent.spectrum as spectrum

    def no_keys(rows):
        raise AssertionError("row keys built")

    monkeypatch.setattr(spectrum, "_row_keys", no_keys)
    calls = []
    norm_sq = CycInt.norm_sq

    def counting_norm(w):
        calls.append("norm_sq")
        return norm_sq(w)

    def counting_match(w, mag):
        calls.append("match_shape")
        return match_shape(w, mag)

    monkeypatch.setattr(CycInt, "norm_sq", counting_norm)
    monkeypatch.setattr(spectrum, "match_shape", counting_match)
    return calls


def test_slice_of_a_random_table_stops_at_the_first_unmatched_row(monkeypatch):
    ctx = make_field(3, 4)
    rng = np.random.default_rng(3)
    f = PFunction.from_product_tables(ctx, [rng.integers(3, size=ctx.size) for _ in range(3)])
    spec = walsh_full(f)
    calls = _count_row_matches(monkeypatch)
    with pytest.raises(NotBent, match=r"not 3\^5"):
        b_zero_slice_multiplicities(spec)
    assert calls == ["norm_sq"]


def test_analyze_of_a_random_table_stops_at_row_zero(monkeypatch):
    ctx = make_field(3, 8)
    spec = walsh_full(_random_field_function(ctx, np.random.default_rng(31)))
    calls = _count_row_matches(monkeypatch)
    rep = analyze(spec)
    assert rep.classification == "NotApplicable"
    assert not rep.is_bent and not rep.is_near_bent
    assert rep.support_size == np.any(spec.counts != 0, axis=1).sum()
    assert calls == ["norm_sq"]


def test_zero_row_rules_out_bent():
    """A bent-magnitude row 0 and a zero row later: neither bent nor near-bent."""
    ctx = make_field(3, 2)
    spec = walsh_full(QuadraticSpec(ctx, ((1, 0),)).to_table())
    counts = spec.counts.copy()
    counts[5] = 0
    rep = analyze(WalshSpectrum(3, 2, counts))
    assert rep.classification == "NotApplicable"
    assert not rep.is_bent and not rep.is_near_bent
    from pbent.spectrum import _classify_rows

    with pytest.raises(NotBent, match=r"\[0, 0, 0\] has \|W\|\^2 = \[0, 0, 0\], not 3\^2"):
        _classify_rows(3, 2, counts, 2)


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


@pytest.mark.parametrize("p, n", [(3, 4), (3, 9), (7, 5)])
def test_support_size_counts_the_nonzero_rows_across_its_blocks(p, n):
    # 3^9 and 7^5 rows span a full block of 2^14 rows and a short one
    rng = np.random.default_rng([67, p, n])
    size = p ** n
    counts = rng.integers(-2, 3, (size, p)) * (rng.random((size, 1)) < 0.5)
    edge = min(size, 1 << 14)
    counts[[0, edge - 1, size - 1]] = 0
    counts[edge - 1, -1] = -1  # nonzero in its last column only
    counts[size - 1, 0] = 1
    spec = WalshSpectrum(p, n, counts)
    assert spec.support_size == np.count_nonzero(counts.any(axis=1))
    assert type(spec.support_size) is int  # it goes into the JSON payload
