import itertools
from math import prod

import numpy as np
import pytest

from pbent.gfpn import (
    DivisionByZero,
    EvenCharacteristic,
    NotPrime,
    Reducible,
    ZeroBeta,
    digit_array,
    exact_float,
    field_from_json,
    field_to_json,
    invert_matrix,
    linmap_matrix,
    make_field,
    rank,
    rref,
    solve_trace_equation,
)
from pbent.gfpn import _irreducible, _rref_stack

from oracles import (
    frobenius_table,
    kernel,
    kernel_elements_loop,
    linear_index_map,
    linmap_matrix_per_element,
    monic_polynomials,
    mul_polynomial,
    power_traces,
    reducible_monics,
    rref_per_row,
    solve_trace_equation_scan,
    trace_power_traces,
)

FIELDS = [(p, n) for p, max_n in ((3, 6), (5, 4), (7, 3)) for n in range(1, max_n + 1)]


def test_canonical_modulus_f9():
    # smallest-encoding irreducible quadratic over F_3 is x^2 + 1
    assert make_field(3, 2).modulus == (1, 0, 1)


def test_canonical_modulus_f27():
    # x^3 + 2x + 1 beats every cubic with smaller coefficient encoding
    assert make_field(3, 3).modulus == (1, 2, 0, 1)


def _irreducible_count(p, n):
    """Gauss's formula: (1/n) sum_{d | n} mu(d) p^(n/d)."""

    def mu(d):
        out, m, q = 1, d, 2
        while q * q <= m:
            if m % q == 0:
                m //= q
                if m % q == 0:
                    return 0
                out = -out
            q += 1
        return -out if m > 1 else out

    return sum(mu(d) * p ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


@pytest.mark.parametrize("p, max_n", [(3, 6), (5, 4), (7, 3)])
def test_rabin_matches_brute_force_factor_search(p, max_n):
    for n in range(1, max_n + 1):
        reducible = reducible_monics(p, n)
        irreducible = [f for f in monic_polynomials(p, n) if f not in reducible]
        assert len(irreducible) == _irreducible_count(p, n)
        monics = list(monic_polynomials(p, n))
        mask = _irreducible(np.array(monics), p)  # one stacked call per degree
        for f, hit in zip(monics, mask):
            assert hit == (f not in reducible), f
        if n >= 2:
            # the canonical modulus: smallest encoding with a nonzero constant
            assert make_field(p, n).modulus == next(f for f in irreducible if f[0])


def test_canonical_modulus_f3_12():
    # the smallest-encoding irreducible of degree 12 is x^12 + x^2 + 2;
    # x^12 + x^2 + 1 comes first but is reducible
    ctx = make_field(3, 12)
    assert ctx.modulus == (2, 0, 1) + (0,) * 9 + (1,)
    assert ctx.trace(ctx.element_from_int(1)) == 0  # Tr(1) = 12 mod 3
    assert any(ctx.trace(3 ** j) for j in range(12))  # x^j, j < 12


def test_explicit_irreducible_accepted():
    # x^4 + x^2 + 2 is irreducible over F_3
    assert make_field(3, 4, (2, 0, 1, 0, 1)).modulus == (2, 0, 1, 0, 1)
    assert (2, 0, 1, 0, 1) not in reducible_monics(3, 4)


def test_explicit_reducible_rejected():
    # x^2 + 2 has the root 1 over F_3
    with pytest.raises(Reducible):
        make_field(3, 2, (2, 0, 1))


def test_bad_parameters():
    with pytest.raises(NotPrime):
        make_field(4, 2)
    with pytest.raises(EvenCharacteristic):
        make_field(2, 3)
    with pytest.raises(ValueError):
        make_field(3, 0)
    with pytest.raises(ValueError):
        make_field(3, 2, (1, 0, 2))  # not monic
    with pytest.raises(ValueError):
        make_field(3, 2, (1, 1))  # wrong degree


def test_supported_range_is_checked_before_the_modulus_search():
    # p^n < 2^63 and n^2 (p-1)^2 < 2^63: the largest fields are 3^39, 5^27, 7^22
    for p, n in ((3, 40), (5, 28), (7, 23)):
        with pytest.raises(ValueError, match="supported range"):
            make_field(p, n)
    # at n = 2 the bound is (p-1) < 2^30.5; 1518500213 and 1518500279 are
    # the primes on either side of it
    with pytest.raises(ValueError, match="supported range"):
        make_field(1518500279, 2)
    ctx = make_field(1518500213, 2)
    rng = np.random.default_rng(5)
    elems = [ctx.size - 1, ctx.size - 2, *rng.integers(ctx.size, size=20).tolist()]
    for a in elems:
        assert ctx.trace(a) == trace_power_traces(ctx, a)
        assert ctx.frobenius(a, 1) == ctx.pow(a, ctx.p)
        for b in elems:
            assert ctx.mul(a, b) == mul_polynomial(ctx, a, b)


@pytest.mark.parametrize("p, n, modulus", [
    (3, 39, (2, 0, 1, 2, 0, 1) + (0,) * 33 + (1,)),  # x^39 + x^5 + 2x^3 + x^2 + 2
    (5, 27, (1, 1) + (0,) * 25 + (1,)),  # x^27 + x + 1
    (7, 22, (4, 0, 1) + (0,) * 19 + (1,)),  # x^22 + x^2 + 4
    (1518500213, 2, (2, 0, 1)),  # x^2 + 2: C^p squared 31 times at p near 2^30.5
])
def test_canonical_moduli_at_the_top_of_the_range(p, n, modulus):
    assert make_field(p, n).modulus == modulus


def test_largest_field_of_characteristic_3():
    # x^39 + x^5 + 2x^3 + x^2 + 2, the canonical modulus of F_{3^39}
    ctx = make_field(3, 39, (2, 0, 1, 2, 0, 1) + (0,) * 33 + (1,))
    top = ctx.size - 1
    assert ctx.mul(top, ctx.inv(top)) == 1
    assert ctx.frobenius(top, 39) == top
    assert ctx.frobenius(top, 1) == ctx.pow(top, 3)
    assert ctx.trace(ctx.frobenius(top, 7)) == ctx.trace(top)
    b = solve_trace_equation(ctx, top, 2)
    assert ctx.trace(ctx.mul(b, top)) == 2


def test_exact_float_edges():
    assert exact_float(1) is exact_float(2 ** 24) is np.float32
    assert exact_float(2 ** 24 + 1) is exact_float(2 ** 53) is np.float64
    assert exact_float(2 ** 53 + 1) is None


def test_make_field_is_cached():
    assert make_field(3, 4) is make_field(3, 4)


def test_encode_decode_roundtrip():
    ctx = make_field(3, 3)
    for a in range(ctx.size):
        assert ctx.encode(ctx.decode(a)) == a


def test_f9_square_of_x():
    # in F_3[x]/(x^2 + 1) the generator squares to -1
    ctx = make_field(3, 2)
    x = ctx.encode([0, 1])
    assert ctx.mul(x, x) == ctx.element_from_int(-1)


def test_additive_group():
    ctx = make_field(3, 3)
    rng = np.random.default_rng(7)
    for _ in range(50):
        a, b = int(rng.integers(ctx.size)), int(rng.integers(ctx.size))
        assert ctx.add(a, b) == ctx.add(b, a)
        assert ctx.sub(ctx.add(a, b), b) == a
        assert ctx.add(a, ctx.neg(a)) == 0


def test_multiplicative_inverses_exhaustive():
    ctx = make_field(3, 3)
    for a in range(1, ctx.size):
        assert ctx.mul(a, ctx.inv(a)) == 1
    with pytest.raises(DivisionByZero):
        ctx.inv(0)


def test_pow_matches_repeated_mul():
    ctx = make_field(5, 2)
    for a in (0, 1, 7, 13, 24):
        acc = 1
        for e in range(10):
            assert ctx.pow(a, e) == acc
            acc = ctx.mul(acc, a)
    assert ctx.pow(0, 0) == 1
    assert ctx.pow(3, ctx.size - 1) == 1
    with pytest.raises(ValueError):
        ctx.pow(3, -1)


def test_frobenius_is_pth_power_and_additive():
    ctx = make_field(3, 3)
    for a in range(ctx.size):
        assert ctx.frobenius(a, 1) == ctx.pow(a, 3)
        assert ctx.frobenius(a, ctx.n) == a
    rng = np.random.default_rng(11)
    for _ in range(30):
        a, b = int(rng.integers(ctx.size)), int(rng.integers(ctx.size))
        assert ctx.frobenius(ctx.add(a, b), 1) == ctx.add(
            ctx.frobenius(a, 1), ctx.frobenius(b, 1)
        )
    with pytest.raises(ValueError):
        ctx.frobenius(1, -1)


@pytest.mark.parametrize("p, n", FIELDS)
def test_frobenius_permutations_are_pth_powers(p, n):
    ctx = make_field(p, n)
    for a in range(ctx.size):
        x = a
        for i in range(n):
            assert ctx.frobenius(a, i) == x
            x = ctx.pow(x, p)
        assert x == a


@pytest.mark.parametrize("p, n", FIELDS)
def test_matrix_arithmetic_matches_table_and_polynomial_oracles(p, n):
    """mul, frobenius, trace and gram on every element against the
    polynomial product, the Frobenius index tables and the power traces."""
    ctx = make_field(p, n)
    rng = np.random.default_rng(100 * p + n)
    others = sorted({0, 1, p % ctx.size, ctx.size - 1, *rng.integers(ctx.size, size=12).tolist()})
    tables = [frobenius_table(ctx, i) for i in range(n)]
    for a in range(ctx.size):
        for b in others:
            assert ctx.mul(a, b) == mul_polynomial(ctx, a, b)
        for i in range(n + 1):
            assert ctx.frobenius(a, i) == tables[i % n][a]
        assert ctx.trace(a) == trace_power_traces(ctx, a)
    ptraces = power_traces(ctx)
    assert ctx.gram.tolist() == [[ptraces[i + j] for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("p, n", FIELDS)
def test_solve_trace_equation_matches_table_scan(p, n):
    ctx = make_field(p, n)
    for beta in range(1, ctx.size):
        for target in range(p):
            assert solve_trace_equation(ctx, beta, target) == solve_trace_equation_scan(
                ctx, beta, target
            )


@pytest.mark.parametrize("p, rows, cols", [(3, 4, 4), (5, 2, 3), (7, 3, 2), (131, 2, 2)])
def test_linear_index_map_matches_digit_product(p, rows, cols):
    # p = 131 needs planes wider than uint8: 2 * (p - 1) > 255
    rng = np.random.default_rng(p + rows + cols)
    for _ in range(5):
        mat = rng.integers(-p, 2 * p, size=(rows, cols))
        expected = (digit_array(p, cols) @ mat.T % p) @ p ** np.arange(rows)
        assert np.array_equal(linear_index_map(mat, p), expected)


def test_trace_values():
    # Tr(c) = n * c for subfield constants
    ctx = make_field(3, 8)
    assert ctx.trace(1) == 8 % 3
    assert ctx.trace(2) == 16 % 3
    ctx5 = make_field(5, 3)
    assert ctx5.trace(1) == 3
    assert ctx5.trace(0) == 0


def test_trace_is_linear_and_frobenius_invariant():
    ctx = make_field(3, 4)
    rng = np.random.default_rng(23)
    for _ in range(40):
        a, b = int(rng.integers(ctx.size)), int(rng.integers(ctx.size))
        assert ctx.trace(ctx.add(a, b)) == (ctx.trace(a) + ctx.trace(b)) % 3
        assert ctx.trace(ctx.frobenius(a, 1)) == ctx.trace(a)


def test_trace_is_balanced():
    ctx = make_field(3, 3)
    counts = [0, 0, 0]
    for a in range(ctx.size):
        counts[ctx.trace(a)] += 1
    assert counts == [9, 9, 9]


def test_trace_table_matches_scalar():
    ctx = make_field(5, 2)
    assert all(ctx.trace(a) == trace_power_traces(ctx, a) for a in range(ctx.size))


def test_square_root_of_minus_one_witnesses():
    """The canonical generator of the z^3 + z root set in F_{3^8}.

    beta must square to -1, and its traces pin the component alignment used
    by the glueing examples: Tr(beta) = 0, Tr(beta^2) = 1, Tr(2 beta^2) = 2.
    """
    ctx = make_field(3, 8)
    mat = linmap_matrix(ctx, [1, 1])  # z + z^3
    roots = sorted(ctx.encode(v) for v in kernel(mat, 3))
    beta = roots[0]
    assert beta != 0
    b2 = ctx.mul(beta, beta)
    assert b2 == ctx.element_from_int(-1)
    assert ctx.trace(beta) == 0
    assert ctx.trace(b2) == 1
    assert ctx.trace(ctx.mul(ctx.element_from_int(2), b2)) == 2


def test_rref_and_rank():
    m = np.array([[1, 2, 0], [2, 4, 0], [0, 0, 1]])
    r, pivots = rref(m, 3)
    assert pivots == [0, 2]
    assert rank(m, 3) == 2
    assert rank(np.zeros((3, 3), dtype=np.int64), 3) == 0
    assert rank(np.eye(4, dtype=np.int64), 5) == 4


def test_kernel_basis_is_deterministic_and_correct():
    m = np.array([[1, 2, 0], [2, 4, 0]])
    basis = kernel(m, 3)
    assert len(basis) == 2
    for v in basis:
        assert np.array_equal((m @ v) % 3, np.zeros(2, dtype=np.int64))
    # one vector per free column, free position carries the 1
    assert basis[0][1] == 1 and basis[1][2] == 1
    assert kernel(np.eye(3, dtype=np.int64), 3) == []


def test_invert_matrix():
    p = 7
    m = np.array([[2, 3], [1, 4]])
    inv = invert_matrix(m, p)
    assert np.array_equal((m @ inv) % p, np.eye(2, dtype=np.int64))
    with pytest.raises(ValueError):
        invert_matrix(np.array([[1, 2], [2, 4]]), p)


def test_linmap_matrix_frobenius():
    # the matrix of z -> z^p reproduces frobenius on every element
    ctx = make_field(3, 3)
    m = linmap_matrix(ctx, [0, 1])
    for a in range(ctx.size):
        img = ctx.encode((m @ np.array(ctx.decode(a))) % 3)
        assert img == ctx.frobenius(a, 1)


def test_linmap_kernel_of_artin_schreier_style_map():
    # z^p - z vanishes exactly on the prime subfield
    ctx = make_field(3, 3)
    mat = linmap_matrix(ctx, [ctx.element_from_int(-1), 1])
    elems = kernel_elements_loop(ctx, tuple(ctx.encode(v) for v in kernel(mat, 3)))
    assert elems == frozenset({0, 1, 2})


def test_solve_trace_equation():
    ctx = make_field(3, 5)
    for beta in (1, 7, 100, ctx.size - 1):
        for target in (0, 1, 2):
            b = solve_trace_equation(ctx, beta, target)
            assert ctx.trace(ctx.mul(b, beta)) == target
            # smallest solution
            for smaller in range(b):
                assert ctx.trace(ctx.mul(smaller, beta)) != target
    assert solve_trace_equation(ctx, 0, 0) == 0
    with pytest.raises(ZeroBeta):
        solve_trace_equation(ctx, 0, 1)


def test_json_roundtrip():
    ctx = make_field(3, 5)
    obj = field_to_json(ctx)
    assert obj == {"p": 3, "n": 5, "modulus": list(ctx.modulus)}
    restored = field_from_json(obj)
    assert restored == ctx
    assert hash(restored) == hash(ctx)


@pytest.mark.parametrize("p, n", FIELDS)
def test_linmap_matrix_matches_per_element_oracle(p, n):
    ctx = make_field(p, n)
    rng = np.random.default_rng(1000 * p + n)
    coeffs = rng.integers(0, ctx.size, size=(200, n))
    stacked = linmap_matrix(ctx, coeffs)
    assert stacked.shape == (200, n, n)
    for row, mat in zip(coeffs, stacked):
        expected = linmap_matrix_per_element(ctx, row.tolist())
        assert np.array_equal(linmap_matrix(ctx, row.tolist()), expected)
        assert np.array_equal(mat, expected)
    # shorter and longer coefficient rows: exponents are read mod n
    for k in (1, n + 2):
        row = rng.integers(0, ctx.size, size=k).tolist()
        assert np.array_equal(linmap_matrix(ctx, row), linmap_matrix_per_element(ctx, row))
    # a (2, 3, k) array of rows gives a (2, 3, n, n) stack
    nested = coeffs[:6].reshape(2, 3, n)
    assert np.array_equal(linmap_matrix(ctx, nested), stacked[:6].reshape(2, 3, n, n))


def _random_stacks(p, rng):
    """Random, all-zero, duplicated-row and rectangular stacks of matrices."""
    stacks = []
    for shape in ((6, 6), (3, 5), (5, 3), (1, 4), (4, 1)):
        stacks.append(rng.integers(0, p, size=(40,) + shape))
        stacks.append(np.zeros((3,) + shape, dtype=np.int64))
        dup = rng.integers(0, p, size=(40,) + shape)
        dup[:, -1] = dup[:, 0]  # rank deficient when rows > 1
        stacks.append(dup)
        sparse = rng.integers(0, p, size=(40,) + shape) * (rng.random((40,) + shape) < 0.3)
        stacks.append(sparse)
    return stacks


@pytest.mark.parametrize("p", [3, 5, 7])
def test_stacked_elimination_matches_per_row_oracle(p):
    rng = np.random.default_rng(p)
    for stack in _random_stacks(p, rng):
        ranks = rank(stack, p)
        assert ranks.shape == stack.shape[:1]
        for mat, got in zip(stack, ranks):
            expected, pivots = rref_per_row(mat, p)
            reduced, got_pivots = rref(mat, p)
            assert np.array_equal(reduced, expected)
            assert got_pivots == pivots
            assert got == len(pivots) == rank(mat, p)
        # one elimination gives every matrix its null space basis
        for mat, basis, got in zip(stack, kernel(stack, p), ranks):
            assert len(basis) == mat.shape[1] - got
            assert all(not np.any(mat @ v % p) for v in basis)
    # a (2, 3, rows, cols) stack gives a (2, 3) array of ranks
    stack = rng.integers(0, p, size=(6, 4, 4))
    assert np.array_equal(rank(stack.reshape(2, 3, 4, 4), p), rank(stack, p).reshape(2, 3))


def _det_by_permutations(mat: np.ndarray, p: int) -> int:
    """Leibniz expansion: the sum over permutations of signed diagonal products."""
    total = 0
    for perm in itertools.permutations(range(len(mat))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        total += (-1) ** inversions * prod(int(mat[i, j]) for i, j in enumerate(perm))
    return total % p


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_stacked_determinant_matches_leibniz_expansion(p):
    # the pivot rows are the rows independent of the rows above them; sparse
    # stacks need row exchanges and are often singular or rectangular
    rng = np.random.default_rng(100 + p)
    full = []
    for rows, cols in ((1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (3, 5), (5, 3)):
        stack = rng.integers(0, p, size=(60, rows, cols)) * (rng.random((60, rows, cols)) < 0.5)
        _, _, det = _rref_stack(stack.copy(), p)
        for mat, got in zip(stack, det.tolist()):
            cols_in = rref_per_row(mat, p)[1]
            rows_in = [j for j in range(rows)
                       if len(rref_per_row(mat[: j + 1], p)[1]) > len(rref_per_row(mat[:j], p)[1])]
            assert got == _det_by_permutations(mat[np.ix_(rows_in, cols_in)], p)
            if rows == cols == len(cols_in):
                full.append(got)
                assert got == _det_by_permutations(mat, p)
    assert len(set(full)) == p - 1


def test_stacked_determinant_of_a_symmetric_matrix_is_its_principal_minor():
    # the pivot rows are the pivot columns, so the determinant is the
    # principal minor on them even where the first nonzero entry of a column
    # lies below rows that only later become pivot rows
    rng = np.random.default_rng(107)
    for p in (3, 5, 7, 11):
        m = rng.integers(0, p, size=(400, 5, 5)) * (rng.random((400, 5, 5)) < 0.4)
        stack = (m + m.transpose(0, 2, 1)) % p
        _, pivots, det = _rref_stack(stack.copy(), p)
        for mat, piv, got in zip(stack, pivots, det.tolist()):
            cols_in = np.flatnonzero(piv)
            assert got == _det_by_permutations(mat[np.ix_(cols_in, cols_in)], p)
