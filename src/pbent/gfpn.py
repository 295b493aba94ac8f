"""Exact arithmetic in F_{p^n} over a fixed polynomial basis.

Field elements are plain integers in [0, p^n): the index encodes the
coefficient vector (c_0, ..., c_{n-1}) in base p, so the element is
c_0 + c_1*x + ... + c_{n-1}*x^(n-1) modulo the field modulus. Index 0 is
zero, index 1 is the multiplicative identity, and indices below p are the
prime-subfield constants.

A FieldCtx is immutable after construction and safe to share; every
operation is a pure function of its arguments. Moduli are stored constant
term first with the leading coefficient 1 included.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import isqrt

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


# ---------------------------------------------------------------------------
# dense polynomial helpers over F_p, coefficient lists with constant term
# first; the zero polynomial is the empty list

def _trim(a: list[int]) -> list[int]:
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
    # m must be monic
    a = [v % p for v in a]
    dm = len(m) - 1
    for k in range(len(a) - 1, dm - 1, -1):
        c = a[k]
        if c:
            for i in range(dm + 1):
                a[k - dm + i] = (a[k - dm + i] - c * m[i]) % p
    return _trim(a[:dm])


def _psub(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, v in enumerate(a):
        out[i] = v
    for i, v in enumerate(b):
        out[i] = (out[i] - v) % p
    return _trim([v % p for v in out])


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    a = _trim([v % p for v in a])
    b = _trim([v % p for v in b])
    while b:
        a, b = b, _pmod(a, b, p)
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [(v * inv) % p for v in a]
    return a


def _ppowmod(base: list[int], e: int, m: list[int], p: int) -> list[int]:
    result = [1]
    base = _pmod(base, m, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), m, p)
        base = _pmod(_pmul(base, base, p), m, p)
        e >>= 1
    return result


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _is_irreducible(f: list[int], p: int) -> bool:
    """Rabin's criterion for a monic polynomial f over F_p.

    Requires x^(p^n) = x mod f together with gcd(x^(p^d) - x, f) = 1 for
    every proper divisor d of n; the gcd checks alone would wrongly accept
    e.g. a quintic splitting into degrees 2 + 3.
    """
    n = len(f) - 1
    if n == 1:
        return True
    x = [0, 1]
    t = x
    power = {}
    for d in range(1, n + 1):
        t = _ppowmod(t, p, f, p)
        power[d] = t
    if _psub(power[n], x, p):
        return False
    for d in _divisors(n):
        if d == n:
            continue
        if len(_pgcd(_psub(power[d], x, p), f, p)) != 1:
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


# ---------------------------------------------------------------------------


class FieldCtx:
    """Everything needed to compute in one concrete model of F_{p^n}.

    Do not mutate after construction. Instances built through make_field are
    cached and shared, so the lazy tables below are computed at most once per
    (p, n, modulus).
    """

    def __init__(self, p: int, n: int, modulus: tuple[int, ...]):
        self.p = int(p)
        self.n = int(n)
        self.modulus = tuple(int(c) % self.p for c in modulus[:-1]) + (1,)
        self.size = self.p ** self.n
        self._mod = list(self.modulus)
        self._ptraces = self._power_traces()

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
        p = self.p
        out = []
        for _ in range(self.n):
            out.append(a % p)
            a //= p
        return out

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
        p = self.p
        da, db = self.decode(self._check(a)), self.decode(self._check(b))
        return self.encode([(x + y) % p for x, y in zip(da, db)])

    def neg(self, a: int) -> int:
        p = self.p
        return self.encode([(-x) % p for x in self.decode(self._check(a))])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        da = _trim(self.decode(self._check(a)))
        db = _trim(self.decode(self._check(b)))
        return self.encode(_pmod(_pmul(da, db, self.p), self._mod, self.p))

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
        return int(self._frob_perm(i % self.n)[self._check(a)])

    def trace(self, a: int) -> int:
        tr = self._ptraces
        p = self.p
        return sum(c * tr[i] for i, c in enumerate(self.decode(self._check(a)))) % p

    # -- precomputed tables --------------------------------------------------

    def _power_traces(self) -> list[int]:
        """Traces Tr(x^j) for j = 0 .. 2n-2 (the Gram matrix needs j > n-1)."""
        p, n, f = self.p, self.n, self._mod
        out = []
        for j in range(max(1, 2 * self.n - 1)):
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
        return out

    @cached_property
    def digits(self) -> np.ndarray:
        """(size, n) array: row a is the coefficient vector of index a."""
        out = digit_array(self.p, self.n)
        out.setflags(write=False)
        return out

    @cached_property
    def index_weights(self) -> np.ndarray:
        w = self.p ** np.arange(self.n, dtype=np.int64)
        w.setflags(write=False)
        return w

    @cached_property
    def gram(self) -> np.ndarray:
        """Matrix of the trace pairing: gram[i, j] = Tr(x^i * x^j)."""
        n = self.n
        g = np.empty((n, n), dtype=np.int64)
        for i in range(n):
            for j in range(n):
                g[i, j] = self._ptraces[i + j]
        g.setflags(write=False)
        return g

    @cached_property
    def trace_vector(self) -> np.ndarray:
        v = np.array(self._ptraces[: self.n], dtype=np.int64)
        v.setflags(write=False)
        return v

    @cached_property
    def _frob_matrix(self) -> np.ndarray:
        """Matrix of z -> z^p acting on coefficient vectors (columns = images)."""
        p, n, f = self.p, self.n, self._mod
        m = np.zeros((n, n), dtype=np.int64)
        xp = _ppowmod([0, 1], p, f, p)
        col = [1]
        for j in range(n):
            for i, c in enumerate(col):
                m[i, j] = c
            col = _pmod(_pmul(col, xp, p), f, p)
        m.setflags(write=False)
        return m

    @lru_cache(maxsize=None)
    def _frob_perm(self, i: int) -> np.ndarray:
        """Index permutation a -> a^(p^i)."""
        if i == 0:
            perm = np.arange(self.size, dtype=np.int64)
        else:
            mat = np.linalg.matrix_power(self._frob_matrix, i) % self.p
            perm = ((self.digits @ mat.T) % self.p) @ self.index_weights
        perm.setflags(write=False)
        return perm

    @cached_property
    def trace_table(self) -> np.ndarray:
        """Tr(a) for every index a."""
        t = (self.digits @ self.trace_vector) % self.p
        t.setflags(write=False)
        return t


# ---------------------------------------------------------------------------
# linear algebra over F_p (matrices are int64 numpy arrays with entries mod p)


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
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


def rank(mat: np.ndarray, p: int) -> int:
    return len(rref(mat, p)[1])


def kernel(mat: np.ndarray, p: int) -> list[np.ndarray]:
    """Deterministic basis of the null space of mat over F_p.

    One basis vector per free column, in increasing column order, with a 1 in
    the free position.
    """
    m, pivots = rref(mat, p)
    cols = m.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = np.zeros(cols, dtype=np.int64)
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = (-m[r, f]) % p
        basis.append(v)
    return basis


def invert_matrix(mat: np.ndarray, p: int) -> np.ndarray:
    n = mat.shape[0]
    aug = np.concatenate([np.array(mat, dtype=np.int64) % p, np.eye(n, dtype=np.int64)], axis=1)
    r, pivots = rref(aug, p)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular over F_p")
    return r[:, n:]


def linmap_matrix(ctx: FieldCtx, coeffs) -> np.ndarray:
    """Matrix over F_p of the linearized map z -> sum_i coeffs[i] * z^(p^i).

    coeffs is a sequence of element indices, position i multiplying z^(p^i).
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


def solve_trace_equation(ctx: FieldCtx, beta: int, target: int) -> int:
    """Smallest element index b with Tr(b * beta) = target."""
    target %= ctx.p
    if beta == 0:
        if target == 0:
            return 0
        raise ZeroBeta("Tr(b * 0) is identically 0")
    lv = np.array(
        [ctx.trace(ctx.mul(ctx.p ** j, beta)) for j in range(ctx.n)], dtype=np.int64
    )
    vals = (ctx.digits @ lv) % ctx.p
    hits = np.nonzero(vals == target)[0]
    if hits.size == 0:
        raise RuntimeError("trace form is degenerate; field construction is broken")
    return int(hits[0])


# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _make_field_cached(p: int, n: int, modulus: tuple[int, ...] | None) -> FieldCtx:
    if modulus is None:
        for k in range(p ** n):
            coeffs = []
            kk = k
            for _ in range(n):
                coeffs.append(kk % p)
                kk //= p
            if n >= 2 and coeffs[0] == 0:
                continue
            cand = coeffs + [1]
            if _is_irreducible(cand, p):
                return FieldCtx(p, n, tuple(cand))
        raise RuntimeError(f"no irreducible polynomial of degree {n} over F_{p}")
    if not _is_irreducible(list(modulus), p):
        raise Reducible(f"{list(modulus)} is reducible over F_{p}")
    return FieldCtx(p, n, modulus)


def make_field(p: int, n: int, modulus=None) -> FieldCtx:
    """Construct (and cache) F_{p^n}.

    When modulus is omitted, the canonical modulus is used: the monic
    irreducible of degree n whose coefficient vector (c_0, ..., c_{n-1}) has
    the smallest base-p encoding. A supplied modulus is given constant term
    first, length n+1, and must be monic and irreducible.
    """
    p, n = int(p), int(n)
    if not _is_prime(p):
        raise NotPrime(f"p = {p} is not prime")
    if p == 2:
        raise EvenCharacteristic("p = 2 is not supported")
    if n < 1:
        raise ValueError("n must be at least 1")
    if modulus is not None:
        mod = tuple(int(c) % p for c in modulus)
        if len(mod) != n + 1 or mod[-1] != 1:
            raise ValueError("modulus must be monic of degree n, constant term first")
        return _make_field_cached(p, n, mod)
    return _make_field_cached(p, n, None)


def field_to_json(ctx: FieldCtx) -> dict:
    return {"p": ctx.p, "n": ctx.n, "modulus": list(ctx.modulus)}


def field_from_json(obj: dict) -> FieldCtx:
    return make_field(int(obj["p"]), int(obj["n"]), obj.get("modulus"))
