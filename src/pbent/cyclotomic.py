"""Exact arithmetic in Z[e], e = exp(2*pi*i/p) for an odd prime p.

A value is a vector of integer counts over the powers e^0 .. e^(p-1),
reduced to a canonical form whose last entry is zero by subtracting a
multiple of 1 + e + ... + e^(p-1) = 0. Two values are equal in the ring
exactly when their canonical count vectors are equal, so equality, hashing
and zero tests are trivial. Counts are Python ints and never overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


class MixedP(ValueError):
    """Operands live in cyclotomic rings for different primes."""


class AmbiguousMatch(RuntimeError):
    """Two distinct candidate shapes produced the same ring element.

    This cannot happen for valid inputs; seeing it means a bug upstream.
    """


class CycInt:
    """An element of Z[e] in canonical count form."""

    __slots__ = ("p", "counts")

    def __init__(self, p: int, counts):
        counts = [int(c) for c in counts]
        if len(counts) != p:
            raise ValueError(f"need exactly {p} counts, got {len(counts)}")
        last = counts[-1]
        if last:
            counts = [c - last for c in counts]
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "counts", tuple(counts))

    def __setattr__(self, *_):
        raise AttributeError("CycInt is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "CycInt":
        return cls(p, [0] * p)

    @classmethod
    def from_integer(cls, p: int, m: int) -> "CycInt":
        return cls(p, [m] + [0] * (p - 1))

    @classmethod
    def root_power(cls, p: int, j: int) -> "CycInt":
        counts = [0] * p
        counts[j % p] = 1
        return cls(p, counts)

    # -- helpers --------------------------------------------------------------

    def _coerce(self, other) -> "CycInt":
        if isinstance(other, CycInt):
            if other.p != self.p:
                raise MixedP(f"cannot mix p={self.p} with p={other.p}")
            return other
        if isinstance(other, int):
            return CycInt.from_integer(self.p, other)
        return NotImplemented

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return CycInt(self.p, [a + b for a, b in zip(self.counts, o.counts)])

    __radd__ = __add__

    def __neg__(self):
        return CycInt(self.p, [-a for a in self.counts])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return CycInt(self.p, [a - b for a, b in zip(self.counts, o.counts)])

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        p = self.p
        out = [0] * p
        for i, a in enumerate(self.counts):
            if a:
                for j, b in enumerate(o.counts):
                    if b:
                        out[(i + j) % p] += a * b
        return CycInt(p, out)

    __rmul__ = __mul__

    def conj(self) -> "CycInt":
        """Complex conjugate: e^j -> e^(-j)."""
        p = self.p
        out = [0] * p
        for i, a in enumerate(self.counts):
            out[(-i) % p] = a
        return CycInt(p, out)

    def norm_sq(self) -> "CycInt":
        """self * conj(self); real, but not always a rational integer."""
        return self * self.conj()

    # -- queries ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.counts)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = CycInt.from_integer(self.p, other)
        if not isinstance(other, CycInt):
            return NotImplemented
        return self.p == other.p and self.counts == other.counts

    def __hash__(self) -> int:
        return hash((self.p, self.counts))

    def __repr__(self) -> str:
        return f"CycInt(p={self.p}, counts={list(self.counts)})"


def eta(p: int, c: int) -> int:
    """Quadratic character of F_p: +1 on squares, -1 on non-squares, 0 at 0."""
    c %= p
    if c == 0:
        return 0
    return 1 if pow(c, (p - 1) // 2, p) == 1 else -1


@lru_cache(maxsize=None)
def gauss_sum(p: int) -> CycInt:
    """The quadratic Gauss sum sum_{j=1}^{p-1} eta(j) e^j.

    Its square is (-1)^((p-1)/2) * p, so it is sqrt(p) for p = 1 mod 4 and
    i*sqrt(p) for p = 3 mod 4; it is the only non-rational magnitude factor
    ever needed for spectrum shapes.
    """
    counts = [0] * p
    for j in range(1, p):
        counts[j] = eta(p, j)
    return CycInt(p, counts)


@dataclass(frozen=True)
class ValueShape:
    """Normalized form of a nonzero spectrum coefficient.

    The represented value is sign * p^(mag_exponent // 2) * g^(mag_exponent % 2)
    * e^j with g the quadratic Gauss sum, so |value|^2 = p^mag_exponent. The
    displayed unimodular factor zeta absorbs the i hiding in g when
    p = 3 mod 4.
    """

    p: int
    sign: int
    j: int
    mag_exponent: int

    @property
    def uses_gauss_sum(self) -> bool:
        return self.mag_exponent % 2 == 1

    @property
    def zeta(self) -> str:
        if self.uses_gauss_sum and self.p % 4 == 3:
            return "i" if self.sign == 1 else "-i"
        return "1" if self.sign == 1 else "-1"

    def to_cyc_int(self) -> CycInt:
        v = CycInt.from_integer(self.p, self.sign * self.p ** (self.mag_exponent // 2))
        if self.uses_gauss_sum:
            v = v * gauss_sum(self.p)
        return v * CycInt.root_power(self.p, self.j)


@lru_cache(maxsize=None)
def _shape_table(p: int, mag_exponent: int) -> dict:
    table = {}
    for sign in (1, -1):
        for j in range(p):
            shape = ValueShape(p, sign, j, mag_exponent)
            key = shape.to_cyc_int().counts
            if key in table:
                raise AmbiguousMatch(
                    f"shape collision at p={p}, mag_exponent={mag_exponent}"
                )
            table[key] = shape
    return table


def match_shape(w: CycInt, mag_exponent: int) -> ValueShape | None:
    """Identify w among the 2p admissible values with |w|^2 = p^mag_exponent.

    The admissible set is sign * p^k * g^u * e^j with 2k + u = mag_exponent,
    u in {0, 1} fixed by parity. Returns None when w is zero or matches no
    candidate; matches are unique by construction.
    """
    if w.is_zero():
        return None
    return _shape_table(w.p, mag_exponent).get(w.counts)
