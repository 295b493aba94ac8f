"""Exact arithmetic in F_{p^n} over a fixed polynomial basis.

Field elements are plain integers in [0, p^n): the index encodes the
coefficient vector (c_0, ..., c_{n-1}) in base p, so the element is
c_0 + c_1*x + ... + c_{n-1}*x^(n-1) modulo the field modulus. Index 0 is
zero, index 1 is the multiplicative identity, and indices below p are the
prime-subfield constants.

Element arithmetic is digit vectors times n x n matrices over F_p: powers of
the companion matrix C of the modulus (multiplication by x^k) and of the
Frobenius matrix F (z -> z^(p^i)), built from C^p; the trace pairing is the
matrix trace of C^i C^j, and ranks of stacked C and F test candidate moduli
for irreducibility. No operation builds a table of p^n entries. Every int64
product-sum stays exact while p^n and n^2 (p-1)^2 are below 2^63, so
make_field accepts exactly those fields: up to 3^39, 5^27, 7^22.

A FieldCtx is immutable after construction and safe to share; every
operation is a pure function of its arguments. Moduli are stored constant
term first with the leading coefficient 1 included.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import isqrt, prod

import numpy as np


class NotPrime(ValueError):
    """Requested characteristic is not prime."""


class EvenCharacteristic(ValueError):
    """p = 2 is rejected; everything downstream assumes odd p."""


class Reducible(ValueError):
    """Proposed modulus is not irreducible over F_p."""


class DivisionByZero(ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


class ZeroBeta(ValueError):
    """Tr(b*beta) = target is unsolvable for beta = 0 and target != 0."""


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    for d in range(3, isqrt(m) + 1, 2):
        if m % d == 0:
            return False
    return True


def digit_array(p: int, dim: int) -> np.ndarray:
    """(p^dim, dim) array: row a holds the base-p digits of a, lowest first."""
    idx = np.arange(p ** dim, dtype=np.int64)
    out = np.empty((p ** dim, dim), dtype=np.int64)
    for i in range(dim):
        out[:, i] = idx % p
        idx //= p
    return out


def digit_planes(mat: np.ndarray, p: int) -> np.ndarray:
    """(rows, p^cols) planes: column d holds mat @ digits(d) mod p for every
    d < p^cols, built one digit at a time (digit k = t adds t * mat[:, k] to
    the columns of the lower digits), so no (p^cols, cols) digit array is made."""
    mat = np.asarray(mat, dtype=np.int64) % p
    dtype = np.min_scalar_type(2 * (p - 1))
    steps = (mat[:, :, None] * np.arange(p) % p).astype(dtype)
    planes = np.zeros((len(mat), 1), dtype=dtype)
    for k in range(mat.shape[1]):
        planes = (planes[:, None, :] + steps[:, k, :, None]).reshape(len(mat), -1)
        np.subtract(planes, p, out=planes, where=planes >= p)  # faster than % p
    return planes


def exact_float(bound: int):
    """The narrowest float dtype that holds every integer up to bound in
    magnitude exactly: float32 up to 2^24, float64 up to 2^53, None above
    (an int64 path)."""
    if bound <= 2 ** 24:
        return np.float32
    return np.float64 if bound <= 2 ** 53 else None


# ---------------------------------------------------------------------------


class FieldCtx:
    """Everything needed to compute in one concrete model of F_{p^n}.

    Do not mutate after construction. Instances built through make_field are
    cached and shared, so the lazy matrices below are computed at most once per
    (p, n, modulus).
    """

    def __init__(self, p: int, n: int, modulus: tuple[int, ...]):
        self.p = int(p)
        self.n = int(n)
        self.modulus = tuple(int(c) % self.p for c in modulus[:-1]) + (1,)
        self.size = self.p ** self.n

    def __repr__(self) -> str:
        return f"FieldCtx(p={self.p}, n={self.n}, modulus={list(self.modulus)})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldCtx)
            and (self.p, self.n, self.modulus) == (other.p, other.n, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.n, self.modulus))

    # -- encoding ----------------------------------------------------------

    def decode(self, a: int) -> list[int]:
        """Coefficient vector (c_0, ..., c_{n-1}) of element index a."""
        return self.vector(a).tolist()

    def encode(self, coeffs) -> int:
        """Inverse of decode; accepts any iterable of at most n residues."""
        idx = 0
        for c in reversed(list(coeffs)):
            idx = idx * self.p + (int(c) % self.p)
        return idx

    def element_from_int(self, c: int) -> int:
        """The prime-subfield constant c as an element index."""
        return c % self.p

    def _check(self, a: int) -> int:
        if not 0 <= a < self.size:
            raise ValueError(f"element index {a} out of range for size {self.size}")
        return a

    # -- ring operations ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._index(self.vector(a) + self.vector(b))

    def neg(self, a: int) -> int:
        return self._index(-self.vector(a))

    def sub(self, a: int, b: int) -> int:
        return self._index(self.vector(a) - self.vector(b))

    def mul(self, a: int, b: int) -> int:
        return self._index(self.vector(a) @ (self._companion_powers @ self.vector(b) % self.p))

    def inv(self, a: int) -> int:
        if self._check(a) == 0:
            raise DivisionByZero("0 has no multiplicative inverse")
        return self.pow(a, self.size - 2)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            raise ValueError("negative exponents are not supported; use inv")
        self._check(a)
        if a == 0:
            return 1 if e == 0 else 0
        e %= self.size - 1
        result, base = 1, a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def frobenius(self, a: int, i: int) -> int:
        """a^(p^i); i is reduced mod n, so frobenius(a, n) = a."""
        if i < 0:
            raise ValueError("frobenius exponent must be nonnegative")
        return self._index(self._frob_powers[i % self.n] @ self.vector(a))

    def trace(self, a: int) -> int:
        return int(self.gram[0] @ self.vector(a) % self.p)

    def vector(self, a: int) -> np.ndarray:
        """Coefficient vector of element index a as an int64 array."""
        return self._check(a) // self.index_weights % self.p

    def _index(self, v: np.ndarray) -> int:
        """Element index of the integer vector v reduced mod p."""
        return int(v % self.p @ self.index_weights)

    # -- matrices over F_p ---------------------------------------------------

    @cached_property
    def index_weights(self) -> np.ndarray:
        w = self.p ** np.arange(self.n, dtype=np.int64)
        w.setflags(write=False)
        return w

    @cached_property
    def _companion_powers(self) -> np.ndarray:
        """(n, n, n) stack: [k] is C^k mod p, the matrix of multiplication
        by x^k, with C the companion matrix of the modulus."""
        return _matrix_powers(_companions(np.array([self.modulus]), self.p)[0], self.p)

    @cached_property
    def _frob_powers(self) -> np.ndarray:
        """(n, n, n) stack: [i] is F^i mod p, the matrix of z -> z^(p^i);
        column j of F is the coefficient vector of (x^j)^p = (x^p)^j, built
        from C^p."""
        comp = _companions(np.array([self.modulus]), self.p)
        return _matrix_powers(_frobenius(comp, self.p)[0], self.p)

    @cached_property
    def gram(self) -> np.ndarray:
        """Matrix of the trace pairing: gram[i, j] = Tr(x^i * x^j), the
        matrix trace of C^i C^j (Lidl & Niederreiter, ch. 2)."""
        c = self._companion_powers
        g = np.einsum("iab,jba->ij", c, c) % self.p
        g.setflags(write=False)
        return g

    @cached_property
    def gram_inverse(self) -> np.ndarray:
        """Inverse of gram mod p: the digits of x with Tr(x^i x) = y_i are gram_inverse @ y."""
        g = invert_matrix(self.gram, self.p)
        g.setflags(write=False)
        return g

    @cached_property
    def _linmap_basis(self) -> np.ndarray:
        """(n^2, n^2) matrix: row i*n + k is the flattened matrix of
        z -> x^k * z^(p^i), that is C^k F^i mod p."""
        n = self.n
        out = np.einsum("kab,ibc->ikac", self._companion_powers, self._frob_powers) % self.p
        out = out.reshape(n * n, n * n)
        out.setflags(write=False)
        return out


def _matrix_powers(mat: np.ndarray, p: int) -> np.ndarray:
    """Read-only (n, n, n) stack of mat^0 .. mat^(n-1) mod p."""
    n = mat.shape[0]
    out = np.empty((n, n, n), dtype=np.int64)
    out[0] = np.eye(n, dtype=np.int64)
    for k in range(1, n):
        out[k] = mat @ out[k - 1] % p
    out.setflags(write=False)
    return out


def _companions(moduli: np.ndarray, p: int) -> np.ndarray:
    """(B, n, n) companion matrices of a (B, n + 1) stack of monic moduli,
    constant term first: column j of C is x^(j+1) mod f."""
    count, n = moduli.shape[0], moduli.shape[1] - 1
    comp = np.broadcast_to(np.eye(n, k=-1, dtype=np.int64), (count, n, n)).copy()
    comp[:, :, -1] = -moduli[:, :-1] % p
    return comp


def _krylov(mat: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    """(B, n, n) stack whose column j is mat^j v mod p, for a (B, n, n) stack
    mat and a (B, n) stack v; for a companion matrix it is the matrix of
    multiplication by v."""
    out = np.empty(mat.shape, dtype=np.int64)
    out[:, :, 0] = v % p
    for j in range(1, mat.shape[-1]):
        out[:, :, j] = (mat @ out[:, :, j - 1, None])[:, :, 0] % p
    return out


def _frobenius(comp: np.ndarray, p: int) -> np.ndarray:
    """(B, n, n) Frobenius matrices of a stack of companion matrices: C^p by
    repeated squaring, then the Krylov columns of e_0 under it, so column j
    is x^(jp) = (x^j)^p mod f."""
    count, n = comp.shape[:2]
    power, base, e = np.broadcast_to(np.eye(n, dtype=np.int64), comp.shape), comp, p
    while e:  # power = C^p, one squaring per bit
        power, base, e = (power @ base % p if e & 1 else power), base @ base % p, e >> 1
    e0 = np.zeros((count, n), dtype=np.int64)
    e0[:, 0] = 1
    return _krylov(power, e0, p)


def _irreducible(moduli: np.ndarray, p: int) -> np.ndarray:
    """(B,) mask of the irreducible members of a (B, n + 1) stack of monic
    moduli, by Berlekamp's criterion (Lidl & Niederreiter, ch. 4): f is
    irreducible iff the fixed points of z -> z^p mod f are F_p alone, rank
    (F - I) = n - 1, and f is squarefree, that is f' is a unit mod f and its
    multiplication matrix has rank n. One rank call covers every pair."""
    n = moduli.shape[1] - 1
    comp = _companions(moduli, p)
    deriv = moduli[:, 1:] * np.arange(1, n + 1) % p
    pairs = np.stack([_frobenius(comp, p) - np.eye(n, dtype=np.int64),
                      _krylov(comp, deriv, p)], axis=1)
    return np.all(rank(pairs, p) == (n - 1, n), axis=1)


# ---------------------------------------------------------------------------
# linear algebra over F_p (matrices are int64 numpy arrays with entries mod p)


def _rref_stack(m: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduce every matrix of an (N, rows, cols) stack in place; returns it,
    the (N, cols) mask of pivot columns and the (N,) determinants of the
    submatrices on the pivot rows and pivot columns.

    Per column, each matrix takes as pivot row the first row, in input order,
    that is not yet a pivot row and has a nonzero entry; it scales that row
    to 1 and clears the column in every other row. At the end the pivot rows
    move to the top in column order. Until it is taken, a row is reduced only
    by pivot rows above it, so the pivot rows are the rows independent of
    the rows above them: for a symmetric matrix, its pivot columns. The
    determinant is the product of the pivot values, negated for every earlier
    pivot row below the new one; for a square matrix of full rank it is the
    determinant of the matrix.
    """
    count, rows, cols = m.shape
    position = np.full((count, rows), rows)  # pivot rows: their place in column order
    pivots = np.zeros((count, cols), dtype=bool)
    det = np.ones(count, dtype=np.int64)
    for c in range(cols):
        cand = (m[:, :, c] != 0) & (position == rows)
        sel = np.nonzero(cand.any(axis=1))[0]
        if sel.size == 0:
            continue
        k = cand[sel].argmax(axis=1)
        top = m[sel, k]
        below = ((position[sel] < rows) & (np.arange(rows) > k[:, None])).sum(axis=1)
        det[sel] = det[sel] * top[:, c] % p * np.where(below % 2, -1, 1) % p
        inv, base, e = np.ones(sel.size, dtype=np.int64), top[:, c], p - 2
        while e:  # inv = base^(p-2), the inverse mod p, one squaring per bit
            inv, base, e = (inv * base % p if e & 1 else inv), base * base % p, e >> 1
        top = top * inv[:, None] % p
        m[sel, k] = top
        factor = m[sel, :, c]
        factor[np.arange(sel.size), k] = 0
        m[sel] = (m[sel] - factor[:, :, None] * top[:, None, :]) % p
        position[sel, k] = pivots[sel].sum(axis=1)
        pivots[sel, c] = True
    m[:] = np.take_along_axis(m, np.argsort(position, axis=1, kind="stable")[:, :, None], axis=1)
    return m, pivots, det


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and the list of pivot columns of one matrix:
    the N = 1 case of the stack elimination that rank runs on whole stacks."""
    m, pivots, _ = _rref_stack(np.array(mat, dtype=np.int64)[None] % p, p)
    return m[0], np.nonzero(pivots[0])[0].tolist()


def rank(mat: np.ndarray, p: int):
    """Rank over F_p of one (rows, cols) matrix, or the array of ranks of a
    (..., rows, cols) stack, from one elimination over the whole stack."""
    m = np.array(mat, dtype=np.int64) % p
    stack = m.reshape((prod(m.shape[:-2]),) + m.shape[-2:])
    ranks = _rref_stack(stack, p)[1].sum(axis=1)
    return int(ranks[0]) if m.ndim == 2 else ranks.reshape(m.shape[:-2])


def invert_matrix(mat: np.ndarray, p: int) -> np.ndarray:
    n = mat.shape[0]
    aug = np.concatenate([np.array(mat, dtype=np.int64) % p, np.eye(n, dtype=np.int64)], axis=1)
    r, pivots = rref(aug, p)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular over F_p")
    return r[:, n:]


def linmap_matrix(ctx: FieldCtx, coeffs) -> np.ndarray:
    """Matrix over F_p of the linearized map z -> sum_i coeffs[i] * z^(p^i).

    coeffs holds element indices, position i multiplying z^(p^i); columns
    are the images of the basis powers x^j. A (..., k) array of coefficient
    rows gives the (..., n, n) stack of their matrices. The map is linear in
    the base-p digits of the coefficients, so it is one product of the digits
    with ctx._linmap_basis.
    """
    n, p = ctx.n, ctx.p
    c = np.asarray(coeffs, dtype=np.int64)
    digits = (c[..., None] // ctx.index_weights % p).reshape(c.shape[:-1] + (-1,))
    basis = ctx._linmap_basis.reshape(n, n, n * n)[np.arange(c.shape[-1]) % n]
    return (digits @ basis.reshape(-1, n * n) % p).reshape(c.shape[:-1] + (n, n))


def solve_trace_equation(ctx: FieldCtx, beta: int, target: int) -> int:
    """Smallest element index b with Tr(b * beta) = target. Tr(b * beta) is
    b . lv on the digits of b, lv = gram . d(beta), so every b below p^j0 (j0
    the lowest j with lv[j] != 0) gives 0 and b = target / lv[j0] * p^j0."""
    p = ctx.p
    target %= p
    lv = ctx.gram @ ctx.vector(beta) % p
    if target == 0:
        return 0
    if beta == 0:
        raise ZeroBeta("Tr(b * 0) is identically 0")
    hits = np.flatnonzero(lv)
    if hits.size == 0:
        raise RuntimeError("trace form is degenerate; field construction is broken")
    j0 = int(hits[0])
    return target * pow(int(lv[j0]), p - 2, p) % p * p ** j0


# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _make_field_cached(p: int, n: int, modulus: tuple[int, ...] | None) -> FieldCtx:
    if modulus is not None:
        if not _irreducible(np.array([modulus]), p)[0]:
            raise Reducible(f"{list(modulus)} is reducible over F_{p}")
        return FieldCtx(p, n, modulus)
    # candidates in encoding order, 2n per stack; for n >= 2 a zero constant
    # term means the factor x
    weights = p ** np.arange(n, dtype=np.int64)
    for start in range(0, p ** n, 2 * n):
        codes = np.arange(start, min(start + 2 * n, p ** n), dtype=np.int64)
        if n >= 2:
            codes = codes[codes % p != 0]
        moduli = np.ones((len(codes), n + 1), dtype=np.int64)
        moduli[:, :-1] = codes[:, None] // weights % p
        hits = np.flatnonzero(_irreducible(moduli, p))
        if hits.size:
            return FieldCtx(p, n, tuple(moduli[hits[0]].tolist()))
    raise RuntimeError(f"no irreducible polynomial of degree {n} over F_{p}")


def make_field(p: int, n: int, modulus=None) -> FieldCtx:
    """Construct (and cache) F_{p^n}.

    When modulus is omitted, the canonical modulus is used: the monic
    irreducible of degree n whose coefficient vector (c_0, ..., c_{n-1}) has
    the smallest base-p encoding. A supplied modulus is given constant term
    first, length n+1, and must be monic and irreducible.
    """
    p, n = int(p), int(n)
    if n < 1:
        raise ValueError("n must be at least 1")
    # n >= 63 implies p^n >= 2^63 for p >= 2 and spares computing p^n
    if p > 1 and (n >= 63 or p ** n >= 2 ** 63 or n * n * (p - 1) ** 2 >= 2 ** 63):
        raise ValueError(f"F_{{{p}^{n}}} is outside the supported range: p^n, n^2 (p-1)^2 < 2^63")
    if not _is_prime(p):
        raise NotPrime(f"p = {p} is not prime")
    if p == 2:
        raise EvenCharacteristic("p = 2 is not supported")
    if modulus is not None:
        mod = tuple(int(c) % p for c in modulus)
        if len(mod) != n + 1 or mod[-1] != 1:
            raise ValueError("modulus must be monic of degree n, constant term first")
        return _make_field_cached(p, n, mod)
    return _make_field_cached(p, n, None)


def field_to_json(ctx: FieldCtx) -> dict:
    return {"p": ctx.p, "n": ctx.n, "modulus": list(ctx.modulus)}


def field_from_json(obj: dict) -> FieldCtx:
    """The field of a JSON object: its p, n and optional modulus."""
    return make_field(read_field(obj, "p"), read_field(obj, "n"),
                      read_field(obj, "modulus", exact_ints, None))


def exact_int(value) -> int:
    """value as an int if it is an integer; a float, bool or string is a
    TypeError, so 3.7 is not read as 3 nor "3" as 3."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def exact_ints(values) -> tuple:
    """Every entry of a JSON list through exact_int."""
    return tuple(exact_int(v) for v in values)


_REQUIRED = object()


def read_field(obj: dict, key: str, convert=exact_int, default=_REQUIRED):
    """convert(obj[key]), or default where the field is absent or null and a
    default is given: the one reader of JSON from outside the program. A
    missing or ill-typed field, or a missing or ill-typed entry within it, is
    a ValueError that names the field; by default the field must be an exact
    integer."""
    try:
        if default is not _REQUIRED and obj.get(key) is None:
            return default
        return convert(obj[key])
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"field {key!r} is missing or ill-typed "
                         f"({type(exc).__name__}: {exc})") from exc
