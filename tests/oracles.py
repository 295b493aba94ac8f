"""Independent reference checks used only by the test suite."""

from functools import lru_cache
from itertools import product
from math import gcd

import numpy as np

from pbent.construct import (
    AnfPoly,
    GluedSpec,
    KernelMismatch,
    NotNearBent,
    WitnessConditionError,
    _vandermonde,
)
from pbent.cyclotomic import CycInt, eta, match_shape
from pbent.gfpn import (
    FieldCtx,
    _rref_stack,
    digit_array,
    digit_planes,
    invert_matrix,
    make_field,
    solve_trace_equation,
)
from pbent.quadratic import (
    DegenerateForm,
    NearBentCertificate,
    QuadraticSpec,
    certificates,
    primitive_element,
)
from pbent.spectrum import (
    PFunction,
    ShapeMismatch,
    WalshSpectrum,
    _check_parseval,
    walsh_full,
)


def linear_index_map(mat: np.ndarray, p: int) -> np.ndarray:
    """perm[d] = index of mat @ digits(d) mod p for every d < p^cols."""
    planes = digit_planes(mat, p)
    return p ** np.arange(len(planes)) @ planes


def monic_polynomials(p: int, n: int):
    """Every monic polynomial of degree n over F_p, constant term first, in
    order of the base-p encoding of (c_0, ..., c_{n-1})."""
    for digits in product(range(p), repeat=n):
        yield tuple(reversed(digits)) + (1,)


@lru_cache(maxsize=None)
def reducible_monics(p: int, n: int) -> frozenset:
    """Monic degree-n polynomials over F_p that factor, by brute force.

    Every product of a monic factor of degree d with one of degree n - d,
    1 <= d <= n/2, is collected; no division or gcd is involved.
    """
    out = set()
    for d in range(1, n // 2 + 1):
        for a in monic_polynomials(p, d):
            for b in monic_polynomials(p, n - d):
                prod = [0] * (n + 1)
                for i, ai in enumerate(a):
                    for j, bj in enumerate(b):
                        prod[i + j] = (prod[i + j] + ai * bj) % p
                out.add(tuple(prod))
    return frozenset(out)


def classify_rows_per_row(p: int, rows, mag_exponent: int):
    """One CycInt and one match_shape per row; returns (shapes, zeta set)."""
    shapes = []
    zetas = set()
    for row in rows:
        w = CycInt(p, row)
        if w.is_zero():
            shapes.append(None)
            continue
        shape = match_shape(w, mag_exponent)
        if shape is None:
            raise ShapeMismatch(
                f"coefficient {row.tolist()} has no admissible shape at "
                f"magnitude exponent {mag_exponent}"
            )
        shapes.append(shape)
        zetas.add(shape.zeta)
    return shapes, zetas


def analyze_per_row(spec, mag_exponent: int) -> tuple:
    """(classification, zeta, dual, class_multiplicities) row by row."""
    shapes, zetas = classify_rows_per_row(spec.p, spec.counts, mag_exponent)
    dual = [None if s is None else s.j for s in shapes]
    mults: dict = {}
    for s in shapes:
        if s is not None:
            key = (s.zeta, s.j)
            mults[key] = mults.get(key, 0) + 1
    if zetas == {"1"}:
        return "Regular", "1", dual, mults
    if len(zetas) == 1:
        return "WeaklyRegular", zetas.pop(), dual, mults
    return "NonWeaklyRegular", None, dual, mults


def slice_per_row(spec) -> dict:
    """b = 0 slice multiplicities row by row."""
    p = spec.p
    shapes, _ = classify_rows_per_row(p, spec.counts[: p ** (spec.dim - 1)], spec.dim)
    mults: dict = {}
    for s in shapes:
        if s is None:
            raise ShapeMismatch("b = 0 slice of a bent spectrum has a zero entry")
        key = (s.zeta, s.j)
        mults[key] = mults.get(key, 0) + 1
    return mults


def walsh_full_rolls(f: PFunction) -> WalshSpectrum:
    """Reference for walsh_full: int64 counts, p^2 take/roll temporaries
    per digit axis, and the Gram re-index through the (size, dim) digit
    array.

    The table is lifted to count vectors over the p-th roots of unity, a
    p-point twiddle pass runs along each of the dim digit axes, and the
    result is re-indexed through the Gram matrix of the pairing so that
    coefficients are addressed by b, not by raw digit covectors. Parseval is
    checked on every run.
    """
    p, m = f.p, f.dim
    if p ** (2 * m + 1) >= 2 ** 62:
        raise ValueError("domain too large for the exact int64 transform")
    size = f.size
    start = np.zeros((size, p), dtype=np.int64)
    start[np.arange(size), f.table] = 1
    cube = start.reshape((p,) * m + (p,))
    for axis in range(m):
        new = np.empty_like(cube)
        index = [slice(None)] * (m + 1)
        for j in range(p):
            acc = np.zeros(np.take(cube, 0, axis=axis).shape, dtype=np.int64)
            for k in range(p):
                acc += np.roll(np.take(cube, k, axis=axis), (-j * k) % p, axis=-1)
            index[axis] = j
            new[tuple(index)] = acc
        cube = new
    flat = cube.reshape(size, p)
    weights = p ** np.arange(m, dtype=np.int64)
    perm = ((digit_array(p, m) @ f.gram().T) % p) @ weights
    rows = flat[perm]
    counts = rows - rows[:, -1:]
    spec = WalshSpectrum(p, m, counts)
    _check_parseval(spec)
    return spec


def norm_rows(spec: WalshSpectrum) -> np.ndarray:
    """Canonical count rows of |W(b)|^2 for every b, by p^2 column products."""
    p = spec.p
    cols = spec.counts.T.astype(np.int64)
    out = np.zeros_like(cols)
    for t, j in np.ndindex(p, p):
        out[t] += cols[j] * cols[(j - t) % p]
    return (out - out[-1]).T


def _tensordot_passes(mat: np.ndarray, cube: np.ndarray) -> np.ndarray:
    """mat applied along every axis of cube in int64, reduced mod p each time."""
    p = mat.shape[0]
    for axis in range(cube.ndim):
        cube = np.moveaxis(np.tensordot(mat, cube, axes=(1, axis)) % p, 0, axis)
    return cube


def anf_tensordot(f: PFunction) -> np.ndarray:
    """ANF coefficient cube by int64 tensordot passes with the inverse
    Vandermonde matrix."""
    vinv = invert_matrix(_vandermonde(f.p), f.p)
    return _tensordot_passes(vinv, f.table.reshape((f.p,) * f.dim))


def value_table_tensordot(poly: AnfPoly) -> np.ndarray:
    """Flat value table of an ANF by int64 tensordot passes."""
    return _tensordot_passes(_vandermonde(poly.p), poly.cube).reshape(-1)


def pairing_vector(f: PFunction, c: int) -> np.ndarray:
    """<c, x> for every x, as one pass over the digit coordinates."""
    digits = digit_array(f.p, f.dim)
    u = (f.gram() @ digits[c]) % f.p
    return (digits @ u) % f.p


def lagrange_glue_reference(spec: GluedSpec) -> np.ndarray:
    """Pointwise indicator form of the glueing, kept as a cross-check oracle.

    F(x, y) = (p - 1) * sum_k (prod_{m != k} (y - m)) * f_k(x): the product
    vanishes unless y = k, and the surviving factor (p-1)! * (p-1) is 1 mod p.
    """
    ctx = spec.ctx
    p = ctx.p
    tables = [g.to_table().table.astype(np.int64) for g in spec.realized]
    out = np.empty(p ** (ctx.n + 1), dtype=np.int64)
    for y in range(p):
        acc = np.zeros(ctx.size, dtype=np.int64)
        for k in range(p):
            w = 1
            for m in range(p):
                if m != k:
                    w = (w * (y - m)) % p
            acc += w * tables[k]
        out[y * ctx.size : (y + 1) * ctx.size] = ((p - 1) * acc) % p
    return out


def glued_spectrum_from_components(spec: GluedSpec) -> np.ndarray:
    """Canonical count rows of the glueing's spectrum from its p component
    spectra: W_F(a, z) = sum_k e^(-zk) W_{f_k}(a), since F(x, k) = f_k(x).
    Multiplying a count row by e^m rotates it by m places; row a + p^n z
    holds W_F(a, z), as in the product domain's index order."""
    p = spec.ctx.p
    comps = [walsh_full(g.to_table()).counts for g in spec.realized]
    out = np.concatenate([sum(np.roll(c, -z * k % p, axis=1) for k, c in enumerate(comps))
                          for z in range(p)])
    return out - out[:, -1:]


def support_partition_check(spec: GluedSpec) -> bool:
    """The component Walsh supports must be pairwise disjoint and exhaustive."""
    masks = []
    for g in spec.realized:
        s = walsh_full(g.to_table())
        masks.append(np.any(s.counts != 0, axis=1))
    total = np.zeros_like(masks[0], dtype=np.int64)
    for m in masks:
        total += m
    return bool((total == 1).all())


def _domain_sub(f: PFunction, a: int, b: int) -> int:
    """a - b in the domain of f, as a table index."""
    af, ay = f.split_index(a)
    bf, by = f.split_index(b)
    d = f.ctx.sub(af, bf)
    if f.kind == "product":
        d += f.ctx.size * ((ay - by) % f.p)
    return d


def shift_property_check(f: PFunction, c: int) -> bool:
    """Spectrum of f + <c, .> must be the b -> b - c translate of f's."""
    base = walsh_full(f)
    shifted = PFunction(f.ctx, (f.table + pairing_vector(f, c)) % f.p, f.kind)
    moved = walsh_full(shifted)
    for b in range(f.size):
        if not np.array_equal(moved.counts[b], base.counts[_domain_sub(f, b, c)]):
            return False
    return True


def linmap_matrix_per_element(ctx: FieldCtx, coeffs) -> np.ndarray:
    """Matrix of z -> sum_i coeffs[i] * z^(p^i), one ctx.mul per entry.

    Columns are the images of the basis powers x^j.
    """
    n = ctx.n
    m = np.zeros((n, n), dtype=np.int64)
    for j in range(n):
        alpha = ctx.p ** j
        img = 0
        for i, c in enumerate(coeffs):
            if c:
                img = ctx.add(img, ctx.mul(c, ctx.frobenius(alpha, i)))
        m[:, j] = ctx.decode(img)
    return m


def kernel(mat: np.ndarray, p: int) -> list:
    """Deterministic basis of the null space of mat over F_p, or the list of
    bases of an (N, rows, cols) stack from one elimination over the stack.

    One basis vector per free column, in increasing column order, with a 1 in
    the free position.
    """
    m = np.array(mat, dtype=np.int64) % p
    bases = _null_bases(*_rref_stack(m.reshape((-1,) + m.shape[-2:]), p)[:2], p)
    return bases[0] if m.ndim == 2 else bases


def _null_bases(stack: np.ndarray, pivots: np.ndarray, p: int) -> list:
    """Kernel bases of a stack that _rref_stack reduced, from its pivot masks."""
    bases = []
    for red, piv in zip(stack, pivots):
        cols, free = np.flatnonzero(piv), np.flatnonzero(~piv)
        basis = np.zeros((free.size, piv.size), dtype=np.int64)
        basis[np.arange(free.size), free] = 1
        basis[:, cols] = -red[: cols.size, free].T % p
        bases.append(list(basis))
    return bases


def rref_per_row(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot columns of one matrix, row by row."""
    m = np.array(mat, dtype=np.int64) % p
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        k = r + int(nz[0])
        if k != r:
            m[[r, k]] = m[[k, r]]
        m[r] = (m[r] * pow(int(m[r, c]), p - 2, p)) % p
        for i in range(rows):
            if i != r and m[i, c]:
                m[i] = (m[i] - m[i, c] * m[r]) % p
        pivots.append(c)
        r += 1
    return m, pivots


# ---------------------------------------------------------------------------
# field arithmetic through polynomials and p^n-sized tables


def _trim(a: list[int]) -> list[int]:
    """a without its zero top coefficients; polynomials are coefficient
    lists, constant term first, and the zero polynomial is the empty list."""
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _pmod(a: list[int], m: list[int], p: int) -> list[int]:
    """a mod the monic polynomial m, by long division."""
    a = [v % p for v in a]
    dm = len(m) - 1
    for k in range(len(a) - 1, dm - 1, -1):
        c = a[k]
        if c:
            for i in range(dm + 1):
                a[k - dm + i] = (a[k - dm + i] - c * m[i]) % p
    return _trim(a[:dm])


def _ppowmod(base: list[int], e: int, m: list[int], p: int) -> list[int]:
    result = [1]
    base = _pmod(base, m, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), m, p)
        base = _pmod(_pmul(base, base, p), m, p)
        e >>= 1
    return result


def mul_polynomial(ctx: FieldCtx, a: int, b: int) -> int:
    """a * b as a polynomial product reduced by the modulus."""
    da, db = _trim(ctx.decode(a)), _trim(ctx.decode(b))
    return ctx.encode(_pmod(_pmul(da, db, ctx.p), list(ctx.modulus), ctx.p))


@lru_cache(maxsize=None)
def frobenius_table(ctx: FieldCtx, i: int) -> np.ndarray:
    """Index permutation a -> a^(p^i) of the whole field, through the i-th
    power of the matrix whose column j is x^(jp) reduced by polynomial
    powering."""
    p, n, f = ctx.p, ctx.n, list(ctx.modulus)
    frob = np.zeros((n, n), dtype=np.int64)
    xp = _ppowmod([0, 1], p, f, p)
    col = [1]
    for j in range(n):
        frob[: len(col), j] = col
        col = _pmod(_pmul(col, xp, p), f, p)
    return linear_index_map(np.linalg.matrix_power(frob, i), p)


@lru_cache(maxsize=None)
def power_traces(ctx: FieldCtx) -> tuple:
    """Tr(x^j) for j = 0 .. 2n-2, each as the sum of the n conjugates
    x^(j p^k) computed by polynomial powering."""
    p, n, f = ctx.p, ctx.n, list(ctx.modulus)
    out = []
    for j in range(max(1, 2 * n - 1)):
        t = _pmod([0] * j + [1], f, p)
        s = list(t)
        for _ in range(n - 1):
            t = _ppowmod(t, p, f, p)
            s = [
                ((s[i] if i < len(s) else 0) + (t[i] if i < len(t) else 0)) % p
                for i in range(max(len(s), len(t)))
            ]
        s = _trim(s)
        if len(s) > 1:
            raise RuntimeError("trace of a basis power is not in the prime field")
        out.append(s[0] if s else 0)
    return tuple(out)


def trace_power_traces(ctx: FieldCtx, a: int) -> int:
    """Tr(a) = sum_j c_j Tr(x^j) over the coefficients c_j of a."""
    tr = power_traces(ctx)
    return sum(c * tr[j] for j, c in enumerate(ctx.decode(a))) % ctx.p


def solve_trace_equation_scan(ctx: FieldCtx, beta: int, target: int) -> int:
    """Smallest b with Tr(b * beta) = target, by scanning the trace
    functional over the digits of every element."""
    lv = np.array(
        [trace_power_traces(ctx, mul_polynomial(ctx, ctx.p ** j, beta)) for j in range(ctx.n)],
        dtype=np.int64,
    )
    hits = np.nonzero(digit_array(ctx.p, ctx.n) @ lv % ctx.p == target % ctx.p)[0]
    return int(hits[0])


def evaluate_per_term(spec, x: int) -> int:
    """f(x) term by term: Tr(a x^(p^i) x) per quadratic term, Tr(bx), constant."""
    ctx = spec.ctx
    total = spec.constant
    for a, i in spec.quad_terms:
        xi = int(frobenius_table(ctx, i)[x])
        total += trace_power_traces(ctx, mul_polynomial(ctx, a, mul_polynomial(ctx, xi, x)))
    total += trace_power_traces(ctx, mul_polynomial(ctx, spec.linear, x))
    return total % ctx.p


def kernel_elements_loop(ctx: FieldCtx, basis) -> frozenset:
    """All p^s elements spanned by the basis, adding one multiple at a time."""
    elems = {0}
    for b in basis:
        new = set()
        for e in elems:
            acc = e
            for _ in range(ctx.p - 1):
                acc = ctx.add(acc, b)
                new.add(acc)
        elems |= new
    return frozenset(elems)


# ---------------------------------------------------------------------------
# quadratic certificates one spec and one element at a time


def linearized_per_element(spec) -> list[int]:
    """Coefficients of L term by term: a^(p^l) at l + i and a^(p^(l-i)) at
    l - i (mod n), one ctx.add and ctx.frobenius per term."""
    ctx = spec.ctx
    n = ctx.n
    l = max(i for _, i in spec.quad_terms)
    coeffs = [0] * n
    for a, i in spec.quad_terms:
        e1 = (l + i) % n
        e2 = (l - i) % n
        coeffs[e1] = ctx.add(coeffs[e1], ctx.frobenius(a, l))
        coeffs[e2] = ctx.add(coeffs[e2], ctx.frobenius(a, l - i))
    return coeffs


def certificate_per_spec(spec) -> NearBentCertificate:
    """Kernel of L from its per-element matrix and a row-by-row elimination;
    beta is the smallest nonzero multiple of the basis vector when s = 1,
    and when s <= 1 eta(Delta) comes from congruence diagonalization of the
    form matrix built from polarized values."""
    ctx, p = spec.ctx, spec.ctx.p
    m, pivots = rref_per_row(linmap_matrix_per_element(ctx, linearized_per_element(spec)), p)
    basis = []
    for f in (c for c in range(ctx.n) if c not in pivots):
        v = [0] * ctx.n
        v[f] = 1
        for row, c in enumerate(pivots):
            v[c] = int(-m[row, f] % p)
        basis.append(ctx.encode(v))
    beta = min(kernel_elements_loop(ctx, basis) - {0}) if len(basis) == 1 else None
    e = delta_eta_of_matrix(form_matrix_per_term(spec), p) if len(basis) <= 1 else None
    return NearBentCertificate(len(basis), beta, e)


def polarization_kernel(ctx: FieldCtx, f) -> frozenset:
    """Every z with f(y + z) - f(y) - f(z) + f(0) = 0 for all y, by brute force
    over the value table f; the polarization is bilinear, so the basis
    y = x^j suffice."""
    p, n = ctx.p, ctx.n
    f = np.asarray(f, dtype=np.int64)
    z, digits = np.arange(ctx.size), digit_array(p, n)
    polar = [f[np.where(digits[:, j] < p - 1, z + p ** j, z - (p - 1) * p ** j)]
             - f[p ** j] - f + f[0] for j in range(n)]
    return frozenset(np.flatnonzero(np.all(np.array(polar) % p == 0, axis=0)).tolist())


def monomial_bent_criterion(p: int, n: int, r: int, c_exponent: int) -> bool:
    """Divisibility test for bentness of Tr(a x^(p^r + 1)), a = gamma^c.

    gamma is the canonical primitive element of the canonical field model.
    Bent iff p^gcd(2r, n) - 1 does not divide (p^n - 1)/2 - c (p^r - 1).
    """
    d = p ** gcd(2 * r, n) - 1
    value = (p ** n - 1) // 2 - c_exponent * (p ** r - 1)
    return value % d != 0


def monomial_spec(ctx: FieldCtx, r: int, c_exponent: int) -> QuadraticSpec:
    """Tr(gamma^c x^(p^r + 1)) for the canonical primitive element gamma."""
    a = ctx.pow(primitive_element(ctx), c_exponent)
    return QuadraticSpec(ctx, ((a, r),))


# ---------------------------------------------------------------------------
# quadratic forms by polarization and congruence diagonalization


def form_matrix_per_term(spec) -> np.ndarray:
    """Symmetric A with x^T A x the quadratic part of spec, from polarization:
    A[j, k] = (f(x^j + x^k) - f(x^j) - f(x^k) + f(0)) / 2, every value from
    evaluate_per_term."""
    ctx, p = spec.ctx, spec.ctx.p
    f = [evaluate_per_term(spec, p ** j) for j in range(ctx.n)]
    f0 = evaluate_per_term(spec, 0)
    a = np.zeros((ctx.n, ctx.n), dtype=np.int64)
    for j in range(ctx.n):
        for k in range(ctx.n):
            both = evaluate_per_term(spec, ctx.add(p ** j, p ** k))
            a[j, k] = (both - f[j] - f[k] + f0) * pow(2, p - 2, p) % p
    return a


def diagonalize(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Congruence diagonalization: returns (C, D) with D = C^T A C diagonal.

    Zero pivots are repaired by swapping in a later nonzero diagonal entry,
    or, when the whole trailing diagonal vanishes, by folding in a row with a
    nonzero off-diagonal partner (valid since p is odd). Deterministic:
    always the smallest candidate index.
    """
    a = np.array(a, dtype=np.int64) % p
    n = a.shape[0]
    if not np.array_equal(a, a.T):
        raise ValueError("matrix is not symmetric")
    orig = a.copy()
    c = np.eye(n, dtype=np.int64)

    def col_op(dst, src, factor):
        # column dst += factor * column src, and same for rows (congruence)
        a[:, dst] = (a[:, dst] + factor * a[:, src]) % p
        a[dst, :] = (a[dst, :] + factor * a[src, :]) % p
        c[:, dst] = (c[:, dst] + factor * c[:, src]) % p

    def col_swap(i, j):
        a[:, [i, j]] = a[:, [j, i]]
        a[[i, j], :] = a[[j, i], :]
        c[:, [i, j]] = c[:, [j, i]]

    for i in range(n):
        if a[i, i] == 0:
            later_diag = [j for j in range(i + 1, n) if a[j, j]]
            if later_diag:
                col_swap(i, later_diag[0])
            else:
                partners = [j for j in range(i + 1, n) if a[i, j]]
                if partners:
                    col_op(i, partners[0], 1)
        if a[i, i] == 0:
            continue
        inv = pow(int(a[i, i]), p - 2, p)
        for j in range(i + 1, n):
            if a[i, j]:
                col_op(j, i, (-int(a[i, j]) * inv) % p)

    d = a
    if not np.array_equal((c.T @ orig @ c) % p, d) or np.any(d - np.diag(np.diag(d))):
        raise RuntimeError("congruence diagonalization failed; this is a bug")
    return c, d


def delta_eta_of_matrix(a: np.ndarray, p: int) -> int:
    """eta of the product of nonzero diagonal entries after diagonalization."""
    _, d = diagonalize(a, p)
    diag = [int(v) for v in np.diag(d) if v]
    if a.shape[0] - len(diag) > 1:
        raise DegenerateForm(
            f"rank deficit {a.shape[0] - len(diag)} > 1; discriminant undefined"
        )
    prod = 1
    for v in diag:
        prod = (prod * v) % p
    return eta(p, prod)


def scaling_pairs_per_draw(rng) -> list:
    """The discriminant-scaling draws of verify-paper criterion 9 as first
    written: draw specs one at a time, certify each on its own, and draw c
    right after every near-bent one, until there are 100 (spec, c) pairs."""
    fields = [make_field(3, 4), make_field(3, 5), make_field(5, 3)]
    pairs = []
    while len(pairs) < 100:
        ctx = rng.choice(fields)
        terms = tuple(
            (rng.randrange(1, ctx.size), rng.randrange(ctx.n))
            for _ in range(rng.choice((1, 2)))
        )
        q = QuadraticSpec(ctx, terms)
        if certificate_per_spec(q).s != 1:
            continue
        pairs.append((q, rng.randrange(1, ctx.p)))
    return pairs


# ---------------------------------------------------------------------------
# glueing one scalar tuple at a time


def arrange_per_tuple(components, scalars, b_witnesses=None) -> GluedSpec:
    """arrange as first written: certify the p scaled components c_k g_k,
    evaluate them on beta less their constants (g(x + beta) - g(x), as
    g(0) is the constant), and eliminate the realized components once more
    for their discriminant classes, all for this one scalar tuple."""
    components = tuple(components)
    ctx = components[0].ctx
    p = ctx.p
    if len(components) != p:
        raise ValueError(f"need exactly {p} components, got {len(components)}")
    if any(g.ctx != ctx for g in components):
        raise ValueError("components live in different field contexts")
    scalars = tuple(int(c) % p for c in scalars)
    if len(scalars) != p or any(c == 0 for c in scalars):
        raise ValueError("need exactly p nonzero scalars")

    scaled = tuple(g.scale(c) for g, c in zip(components, scalars))
    certs = certificates(scaled)
    for k, cert in enumerate(certs):
        if cert.s != 1:
            raise NotNearBent(k, cert.s)
    if len({cert.beta for cert in certs}) != 1:
        raise KernelMismatch("components have different polarization kernels")
    beta = certs[0].beta

    gvals = [(g.evaluate(beta) - g.constant) % p for g in scaled]
    if b_witnesses is None:
        bstar = solve_trace_equation(ctx, beta, 1)
        b_witnesses = tuple(
            ctx.mul(ctx.element_from_int(gvals[0] + k - gvals[k]), bstar)
            for k in range(p)
        )
    else:
        b_witnesses = tuple(int(b) for b in b_witnesses)
        for k, b in enumerate(b_witnesses):
            got = (gvals[k] + ctx.trace(ctx.mul(b, beta))) % p
            want = (gvals[0] + k) % p
            if got != want:
                raise WitnessConditionError(
                    f"witness {k}: component value {got} on beta, expected {want}"
                )

    realized = tuple(g.with_linear(b) for g, b in zip(scaled, b_witnesses))
    etas = tuple(cert.eta for cert in certificates(list(realized)))
    return GluedSpec(ctx, components, scalars, beta, b_witnesses, realized, etas)
