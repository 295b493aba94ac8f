"""Quadratic functions f(x) = Tr(sum_i a_i x^(p^i + 1)) + Tr(bx) + const.

On digit vectors the quadratic part is x^T A x for a symmetric form matrix A
over F_p. The dimension s of its kernel, the kernel of the polarization
f(y+z) - f(y) - f(z), controls the whole spectrum: s = 0 means bent, s = 1
means near-bent with support size p^(n-1). This module builds A for many
specs at once, and from one elimination of that stack certifies kernels and
computes the discriminant class eta(Delta), which fixes the sign of every
nonzero coefficient. It also decides the closed-form binomial criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from .cyclotomic import eta
from .gfpn import FieldCtx, _rref_stack, field_from_json, field_to_json, linmap_matrix, make_field
from .gfpn import exact_ints, read_field
from .spectrum import PFunction


class EmptyQuadraticPart(ValueError):
    """No quadratic terms; the polarization kernel is undefined."""


class DegenerateExponents(ValueError):
    """Binomial exponents coincide mod n, collapsing to a monomial."""


class DegenerateForm(ValueError):
    """Rank deficit above 1; no single discriminant class exists."""


class RootOfUnityNotFound(ValueError):
    """No primitive n-th root of unity in characteristic p (p divides n)."""


@dataclass(frozen=True)
class QuadraticSpec:
    """Symbolic quadratic function over a fixed field context.

    quad_terms is a tuple of (a_index, i) pairs for Tr(a * x^(p^i + 1));
    exponents are stored reduced mod n. linear is the element index b of an
    additive Tr(bx) part, constant an F_p constant.
    """

    ctx: FieldCtx
    quad_terms: tuple = ()
    linear: int = 0
    constant: int = 0

    def __post_init__(self):
        n, size = self.ctx.n, self.ctx.size
        terms = []
        for a, i in self.quad_terms:
            a = int(a)
            if not 0 <= a < size:
                raise ValueError(f"coefficient index {a} out of range")
            terms.append((a, int(i) % n))
        object.__setattr__(self, "quad_terms", tuple(terms))
        if not 0 <= self.linear < size:
            raise ValueError(f"linear index {self.linear} out of range")
        object.__setattr__(self, "constant", self.constant % self.ctx.p)

    # -- transforms -----------------------------------------------------------

    def scale(self, c: int) -> "QuadraticSpec":
        """The function c * f for a prime-subfield scalar c, which multiplies
        every digit of every coefficient."""
        ctx = self.ctx
        return QuadraticSpec(
            ctx,
            tuple((ctx._index(c * ctx.vector(a)), i) for a, i in self.quad_terms),
            ctx._index(c * ctx.vector(self.linear)),
            (c * self.constant) % ctx.p,
        )

    def with_linear(self, b: int) -> "QuadraticSpec":
        """f plus the additional linear part Tr(bx)."""
        return QuadraticSpec(
            self.ctx, self.quad_terms, self.ctx.add(self.linear, b), self.constant
        )

    # -- evaluation -------------------------------------------------------------

    def evaluate(self, x: int) -> int:
        """f(x) = d.A.d + lin.d + constant on the digits d of x (see _form)."""
        form, lin = _form(self)
        d = self.ctx.vector(x)
        return int(((d @ form + lin) % self.ctx.p @ d + self.constant) % self.ctx.p)

    def to_table(self) -> PFunction:
        """The values on the whole field, one digit at a time: with x = x' + p^i t
        for the digits x' below i, f(x) = f(x') + (r_i(x') + A[i, i] t) t, carrying
        r_j(x') = 2 A[j, :i].x' + lin[j] (see _form) for the digits j >= i to come.
        Entries stay below p^3 in the least dtype that holds that."""
        p = self.ctx.p
        form, lin = _form(self)
        dtype = np.min_scalar_type(p ** 3)
        form, t = form.astype(dtype), np.arange(p, dtype=dtype)[:, None]
        table, r = np.full(1, self.constant, dtype), lin.astype(dtype)[:, None]
        for i in range(self.ctx.n):
            table = (((r[0] + form[i, i] * t) * t + table) % p).reshape(-1)
            r = ((r[1:, None] + 2 * form[i + 1:, i, None, None] * t) % p).reshape(-1, table.size)
        return PFunction.from_field_table(self.ctx, table)

    def to_json(self) -> dict:
        obj = field_to_json(self.ctx)
        obj.update(
            {
                "quad_terms": [{"a_index": a, "i": i} for a, i in self.quad_terms],
                "linear_index": self.linear,
                "constant": self.constant,
            }
        )
        return obj

    @classmethod
    def from_json(cls, obj: dict, ctx: FieldCtx | None = None) -> "QuadraticSpec":
        ctx = field_from_json(obj) if ctx is None else ctx
        terms = read_field(obj, "quad_terms",
                           lambda ts: tuple(exact_ints((t["a_index"], t["i"])) for t in ts), ())
        return cls(ctx, terms, read_field(obj, "linear_index", default=0),
                   read_field(obj, "constant", default=0))


def form_matrices(ctx: FieldCtx, rows) -> np.ndarray:
    """Symmetric A over F_p with x^T A x = Tr(sum_i rows[i] x^(p^i + 1)) on
    digit vectors x, for each (n,) row of element indices (position i the
    coefficient of x^(p^i + 1)) of a (..., n) array.

    B = gram @ linmap_matrix(rows) has B[j, k] = Tr(alpha_j sum_i a_i
    alpha_k^(p^i)) over the power basis, and A = (B + B^T) / 2 (p is odd).
    ker A is the kernel of the polarization, so rank(A) = n - s.
    """
    p = ctx.p
    b = ctx.gram @ linmap_matrix(ctx, rows) % p
    return (b + np.swapaxes(b, -1, -2)) * ((p + 1) // 2) % p


def _coefficient_rows(specs: list) -> np.ndarray:
    """(K, n) element indices for K specs over one field: position i of row k
    is the digit-wise sum of the coefficients a of the terms (a, i) of spec k."""
    ctx = specs[0].ctx
    terms = [(k, a, i) for k, q in enumerate(specs) for a, i in q.quad_terms]
    k, a, i = np.array(terms, dtype=np.int64).reshape(-1, 3).T
    acc = np.zeros((len(specs), ctx.n, ctx.n), dtype=np.int64)
    np.add.at(acc, (k, i), a[:, None] // ctx.index_weights % ctx.p)
    return acc % ctx.p @ ctx.index_weights


def _form(spec: QuadraticSpec) -> tuple[np.ndarray, np.ndarray]:
    """(A, lin) with f(x) = d.A.d + lin.d + constant on the digit vector d of
    x: A the form matrix of spec, lin = gram.d(linear) mod p."""
    ctx = spec.ctx
    lin = ctx.gram @ ctx.vector(spec.linear) % ctx.p
    return form_matrices(ctx, _coefficient_rows([spec]))[0], lin


@dataclass(frozen=True)
class NearBentCertificate:
    """What the glueing needs of a quadratic form, all from one elimination:
    the kernel dimension s, the canonical kernel generator beta (the smallest
    nonzero kernel index, only set when s = 1) and the discriminant class
    eta(Delta) (only set when s <= 1). No kernel basis is kept."""

    s: int
    beta: int | None
    eta: int | None


def _field_stacks(specs: list):
    """Per field: the positions of its specs and their form-matrix stack."""
    if not all(q.quad_terms for q in specs):
        raise EmptyQuadraticPart("no quadratic terms")
    for ctx in {q.ctx for q in specs}:
        idx = [k for k, q in enumerate(specs) if q.ctx == ctx]
        yield ctx, idx, form_matrices(ctx, _coefficient_rows([specs[k] for k in idx]))


def certificates(specs: list) -> list[NearBentCertificate]:
    """Kernel dimension s, the canonical generator beta when s = 1 and the
    discriminant class when s <= 1, for every spec: one form-matrix stack
    and one elimination per field, and no kernel basis.

    s is the number of free columns. When s = 1 the kernel is spanned by the
    vector with a 1 at the free column and -red[row(c), free] at each pivot
    column c, row(c) the pivot row of c. Its highest nonzero digit is 1, so
    it is the smallest nonzero multiple of itself, since the highest digit
    dominates the index: beta. Delta is the principal minor on the pivot
    columns, nonsingular because the matrix is symmetric; the elimination
    takes the pivot columns as its pivot rows, so its determinant is that
    minor.
    """
    out = [None] * len(specs)
    for ctx, idx, mats in _field_stacks(specs):
        p, n = ctx.p, ctx.n
        red, pivots, det = _rref_stack(mats, p)
        dims = n - pivots.sum(axis=1)
        # the pivot rows sit on top in column order, so the n - 1 pivot
        # columns of an s = 1 row take its first n - 1 rows in order
        one = np.flatnonzero(dims == 1)
        free = (~pivots[one]).argmax(axis=1)
        vec = np.zeros((one.size, n), dtype=np.int64)
        vec[pivots[one]] = (-red[one, : n - 1, free] % p).ravel()
        vec[np.arange(one.size), free] = 1
        beta = np.zeros(len(idx), dtype=np.int64)
        beta[one] = vec @ ctx.index_weights
        for k, s, b, d in zip(idx, dims.tolist(), beta.tolist(), det.tolist()):
            out[k] = NearBentCertificate(s, b if s == 1 else None,
                                         eta(p, d) if s <= 1 else None)
    return out


def certificate(spec: QuadraticSpec) -> NearBentCertificate:
    """The certificate of one spec."""
    return certificates([spec])[0]


def delta_eta(spec: QuadraticSpec) -> int:
    """Discriminant class eta(Delta) of the quadratic part of spec."""
    cert = certificate(spec)
    if cert.eta is None:
        raise DegenerateForm(f"rank deficit {cert.s} > 1; discriminant undefined")
    return cert.eta


# ---------------------------------------------------------------------------
# closed-form criteria


def binomial_near_bent(p: int, n: int, r: int, t: int, variant: str) -> bool:
    """Near-bent test for Tr(c x^(p^r + 1) -+ c x^(p^t + 1)), any c != 0.

    variant "minus": kernel is the prime subfield when
        gcd(n, r + t) = gcd(n, r - t) = gcd(n, p) = 1.
    variant "plus": kernel is the root set of z^p + z when
        gcd(n, 2(r + t)) = gcd(n, 2(r - t)) = 2, r - t odd, gcd(n, p) = 1.
    """
    if (r - t) % n == 0:
        raise DegenerateExponents(f"r = t mod n collapses the binomial (r={r}, t={t})")
    if variant == "minus":
        return gcd(n, r + t) == 1 and gcd(n, r - t) == 1 and gcd(n, p) == 1
    if variant == "plus":
        return (
            gcd(n, 2 * (r + t)) == 2
            and gcd(n, 2 * (r - t)) == 2
            and (r - t) % 2 == 1
            and gcd(n, p) == 1
        )
    raise ValueError(f"variant must be 'minus' or 'plus', got {variant!r}")


def binomial_spec(ctx: FieldCtx, r: int, t: int, variant: str, c: int = 1) -> QuadraticSpec:
    """The function Tr(c x^(p^r + 1) -+ c x^(p^t + 1)) as a QuadraticSpec."""
    if variant not in ("minus", "plus"):
        raise ValueError(f"variant must be 'minus' or 'plus', got {variant!r}")
    if (r - t) % ctx.n == 0:
        raise DegenerateExponents(f"r = t mod n collapses the binomial (r={r}, t={t})")
    cc = ctx.element_from_int(c)
    second = cc if variant == "plus" else ctx.neg(cc)
    return QuadraticSpec(ctx, ((cc, r), (second, t)))


@lru_cache(maxsize=None)
def primitive_element(ctx: FieldCtx) -> int:
    """Smallest element index of multiplicative order p^n - 1."""
    order = ctx.size - 1
    primes = _prime_factors(order)
    for a in range(1, ctx.size):
        if all(ctx.pow(a, order // q) != 1 for q in primes):
            return a
    raise RuntimeError("no primitive element found; field construction is broken")


def _prime_factors(m: int) -> tuple:
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return tuple(out)


def near_bent_zeta_prediction(spec: QuadraticSpec) -> str:
    """Unimodular factor of the nonzero coefficients of a near-bent quadratic.

    W(b) = p e^(kappa - Q(w)) eta(Delta) g^(n-1) on the support, g = gauss_sum(p) being
    sqrt(p) for p = 1 mod 4 and i sqrt(p) for p = 3 mod 4, where zeta gains i^(n-1).
    """
    ctx = spec.ctx
    n, p = ctx.n, ctx.p
    sign = delta_eta(spec)
    if p % 4 == 3:
        sign *= (-1) ** ((n - 1) // 2)
        if n % 2 == 0:
            return "i" if sign == 1 else "-i"
    return "1" if sign == 1 else "-1"


def _multiplicative_order(p: int, n: int) -> int:
    o, v = 1, p % n
    while v != 1:
        v = (v * p) % n
        o += 1
    return o


def circulant_delta(p: int, n: int, r: int, t: int) -> int:
    """Product of the nonzero eigenvalues of the circulant form matrix of
    Tr(x^(p^r + 1) - x^(p^t + 1)), evaluated in a splitting field and
    returned as a prime-subfield constant.

    The eigenvalues are u^((n-r)j) - u^((n-t)j) for a primitive n-th root of
    unity u over F_p; j = 0 gives the single zero eigenvalue.
    """
    if gcd(n, p) != 1:
        raise RootOfUnityNotFound(f"p = {p} divides n = {n}")
    if n % 2 == 0:
        raise ValueError("n must be odd for the minus-variant circulant")
    if gcd(n, r + t) != 1 or gcd(n, r - t) != 1:
        raise ValueError(f"(r, t) = ({r}, {t}) is not admissible for n = {n}")
    m = _multiplicative_order(p, n)
    fld = make_field(p, m)
    # m is the order of p mod n, so n divides p^m - 1
    u = fld.pow(primitive_element(fld), (fld.size - 1) // n)
    delta = 1
    for j in range(1, n):
        term = fld.sub(fld.pow(u, ((n - r) * j) % n), fld.pow(u, ((n - t) * j) % n))
        delta = fld.mul(delta, term)
    if delta >= p:
        raise RuntimeError("eigenvalue product landed outside the prime subfield")
    return delta
