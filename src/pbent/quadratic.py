"""Quadratic functions f(x) = Tr(sum_i a_i x^(p^i + 1)) + Tr(bx) + const.

The bilinearization f(y+z) - f(y) - f(z) factors through a linearized
polynomial L; the dimension s of its kernel controls the whole spectrum:
s = 0 means bent, s = 1 means near-bent with support size p^(n-1). This
module builds L, certifies kernels, decides the closed-form monomial and
binomial criteria, and computes the discriminant class eta(Delta) of the
underlying quadratic form, which fixes the sign of every nonzero
coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from .cyclotomic import eta
from .gfpn import FieldCtx, digit_array, field_to_json, kernel, linmap_matrix, make_field, rank
from .spectrum import PFunction


class EmptyQuadraticPart(ValueError):
    """No quadratic terms; the linearized kernel is undefined."""


class DegenerateExponents(ValueError):
    """Binomial exponents coincide mod n, collapsing to a monomial."""


class NotSymmetric(ValueError):
    """diagonalize needs a symmetric matrix."""


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
        """The function c * f for a prime-subfield scalar c."""
        ctx = self.ctx
        cc = ctx.element_from_int(c)
        return QuadraticSpec(
            ctx,
            tuple((ctx.mul(cc, a), i) for a, i in self.quad_terms),
            ctx.mul(cc, self.linear),
            (c * self.constant) % ctx.p,
        )

    def with_linear(self, b: int) -> "QuadraticSpec":
        """f plus the additional linear part Tr(bx)."""
        return QuadraticSpec(
            self.ctx, self.quad_terms, self.ctx.add(self.linear, b), self.constant
        )

    # -- evaluation -------------------------------------------------------------

    def evaluate(self, x: int) -> int:
        return int(_values(self, self.ctx.vector(x)))

    def to_table(self) -> PFunction:
        """Vectorized evaluation over the whole field."""
        return PFunction.from_field_table(self.ctx, _values(self, self.ctx.digits))

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
        if ctx is None:
            ctx = make_field(int(obj["p"]), int(obj["n"]), obj.get("modulus"))
        terms = tuple(
            (int(t["a_index"]), int(t["i"])) for t in obj.get("quad_terms", [])
        )
        return cls(ctx, terms, int(obj.get("linear_index", 0)), int(obj.get("constant", 0)))


def _bilinear_matrix(spec: QuadraticSpec) -> np.ndarray:
    """B over F_p with x^T B x = Tr(sum_i a_i x^(p^i) x) on digit coordinates.

    B[j, k] = Tr(alpha_j * sum_i a_i alpha_k^(p^i)) over the power basis: the
    trace-pairing Gram matrix times the matrix of z -> sum_i a_i z^(p^i).
    """
    ctx = spec.ctx
    coeffs = [0] * ctx.n
    for a, i in spec.quad_terms:
        coeffs[i] = ctx.add(coeffs[i], a)
    return ctx.gram @ linmap_matrix(ctx, coeffs) % ctx.p


def _values(spec: QuadraticSpec, d: np.ndarray) -> np.ndarray:
    """f at the elements with coefficient vectors d (the last axis):
    d.B.d + d.(gram.d(linear)) + constant, with B = _bilinear_matrix(spec).
    Each product sums n terms below p^2 before it is reduced."""
    ctx = spec.ctx
    p = ctx.p
    lin = ctx.gram @ ctx.vector(spec.linear) % p
    form = (d @ _bilinear_matrix(spec) + lin) % p
    return ((d * form).sum(axis=-1) + spec.constant) % p


@dataclass(frozen=True)
class NearBentCertificate:
    """Kernel data of the bilinearization: s = dim, basis as element indices,
    and the canonical generator beta (smallest nonzero kernel index, only
    set when s = 1)."""

    s: int
    kernel_basis: tuple
    beta: int | None


def linearized(specs) -> np.ndarray:
    """Coefficients (by Frobenius power) of L with
    f(y+z) - f(y) - f(z) = Tr(y^(p^l) L(z)), l the largest stored exponent:
    an (n,) row of element indices for one spec, a (K, n) array for K specs
    over one field. On the digits d(a) of a, a term (a, i) adds F^l d(a) at
    position l + i and F^(l-i) d(a) at l - i (mod n), F the Frobenius matrix.
    """
    batch = [specs] if isinstance(specs, QuadraticSpec) else list(specs)
    ctx = batch[0].ctx
    levels = [polarization_level(q) for q in batch]
    terms = [(k, a, i, levels[k]) for k, q in enumerate(batch) for a, i in q.quad_terms]
    k, a, i, l = np.array(terms, dtype=np.int64).reshape(-1, 4).T
    digits = np.tile(a[:, None] // ctx.index_weights % ctx.p, (2, 1))
    frob = ctx._frob_powers[np.concatenate([l, l - i])]
    images = np.einsum("tab,tb->ta", frob, digits) % ctx.p
    acc = np.zeros((len(batch), ctx.n, ctx.n), dtype=np.int64)
    np.add.at(acc, (np.tile(k, 2), np.concatenate([l + i, l - i]) % ctx.n), images)
    rows = acc % ctx.p @ ctx.index_weights
    return rows[0] if isinstance(specs, QuadraticSpec) else rows


def polarization_level(spec: QuadraticSpec) -> int:
    """The exponent l in the pairing Tr(y^(p^l) L(z))."""
    if not spec.quad_terms:
        raise EmptyQuadraticPart("no quadratic terms")
    return max(i for _, i in spec.quad_terms)


def kernel_elements(ctx: FieldCtx, basis) -> frozenset:
    """All p^s elements spanned by kernel basis vectors (element indices)."""
    vecs = np.array([ctx.vector(b) for b in basis], dtype=np.int64).reshape(-1, ctx.n)
    elems = digit_array(ctx.p, len(vecs)) @ vecs % ctx.p @ ctx.index_weights
    return frozenset(elems.tolist())


def _field_stacks(specs: list):
    """Per field: the positions of its specs and their linmap_matrix stack."""
    for ctx in {q.ctx for q in specs}:
        idx = [k for k, q in enumerate(specs) if q.ctx == ctx]
        yield ctx, idx, linmap_matrix(ctx, linearized([specs[k] for k in idx]))


def kernel_dims(specs: list) -> np.ndarray:
    """Kernel dimension s of L for every spec, from one stacked rank per field."""
    dims = np.empty(len(specs), dtype=np.int64)
    for ctx, idx, mats in _field_stacks(specs):
        dims[idx] = ctx.n - rank(mats, ctx.p)
    return dims


def certificates(specs: list) -> list[NearBentCertificate]:
    """Kernel dimension s of L plus a canonical generator when s = 1, for
    every spec: one linmap_matrix stack and one elimination per field."""
    out = [None] * len(specs)
    for ctx, idx, mats in _field_stacks(specs):
        for k, vecs in zip(idx, kernel(mats, ctx.p)):
            basis = tuple(ctx.encode(v) for v in vecs)
            beta = min(kernel_elements(ctx, basis) - {0}) if len(basis) == 1 else None
            out[k] = NearBentCertificate(len(basis), basis, beta)
    return out


def certificate(spec: QuadraticSpec) -> NearBentCertificate:
    """The certificate of one spec."""
    return certificates([spec])[0]


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


def monomial_bent_criterion(p: int, n: int, r: int, c_exponent: int) -> bool:
    """Divisibility test for bentness of Tr(a x^(p^r + 1)), a = gamma^c.

    gamma is the canonical primitive element of the canonical field model.
    Bent iff p^gcd(2r, n) - 1 does not divide (p^n - 1)/2 - c (p^r - 1).
    """
    d = p ** gcd(2 * r, n) - 1
    value = (p ** n - 1) // 2 - c_exponent * (p ** r - 1)
    return value % d != 0


def monomial_spec(ctx: FieldCtx, r: int, c_exponent: int) -> QuadraticSpec:
    a = ctx.pow(primitive_element(ctx), c_exponent)
    return QuadraticSpec(ctx, ((a, r),))


# ---------------------------------------------------------------------------
# quadratic form machinery


def quadratic_form_matrix(spec: QuadraticSpec) -> np.ndarray:
    """Symmetric A over F_p with x^T A x = f(x) minus linear and constant parts.

    The bilinear matrix B symmetrized with the inverse of 2 (p is odd).
    rank(A) = n - s.
    """
    p = spec.ctx.p
    b = _bilinear_matrix(spec)
    inv2 = pow(2, p - 2, p)
    return ((b + b.T) * inv2) % p


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
        raise NotSymmetric("matrix is not symmetric")
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


def delta_eta(spec: QuadraticSpec) -> int:
    """Discriminant class eta(Delta) of the quadratic part of spec."""
    return delta_eta_of_matrix(quadratic_form_matrix(spec), spec.ctx.p)


def near_bent_zeta_prediction(spec: QuadraticSpec) -> str:
    """Unimodular factor of the nonzero coefficients of a near-bent quadratic.

    Case split on p mod 4 and the parity of n, with the sign carried by
    eta(Delta); validated empirically against analyze() in the test suite.
    """
    ctx = spec.ctx
    n, p = ctx.n, ctx.p
    e = delta_eta(spec)
    if p % 4 == 1:
        sign = e
        imaginary = False
    elif n % 2 == 0:
        sign = e * (-1) ** ((n - 2) // 2)
        imaginary = True
    else:
        sign = e * (-1) ** ((n - 1) // 2)
        imaginary = False
    if imaginary:
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
    lam0 = fld.sub(fld.pow(u, 0), fld.pow(u, 0))
    if lam0 != 0:
        raise RuntimeError("zero eigenvalue check failed")
    delta = 1
    for j in range(1, n):
        term = fld.sub(fld.pow(u, ((n - r) * j) % n), fld.pow(u, ((n - t) * j) % n))
        delta = fld.mul(delta, term)
    if delta >= p:
        raise RuntimeError("eigenvalue product landed outside the prime subfield")
    return delta
