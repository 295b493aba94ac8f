"""Independent reference checks used only by the test suite."""

import numpy as np

from pbent.construct import GluedSpec
from pbent.spectrum import PFunction, walsh_full


def lagrange_glue_reference(spec: GluedSpec) -> np.ndarray:
    """Pointwise indicator form of the glueing, kept as a cross-check oracle.

    F(x, y) = (p - 1) * sum_k (prod_{m != k} (y - m)) * f_k(x): the product
    vanishes unless y = k, and the surviving factor (p-1)! * (p-1) is 1 mod p.
    """
    ctx = spec.ctx
    p = ctx.p
    tables = [g.to_table().table for g in spec.realized]
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
    shifted = PFunction(f.ctx, (f.table + f.pairing_vector(c)) % f.p, f.kind)
    moved = walsh_full(shifted)
    for b in range(f.size):
        if not np.array_equal(moved.counts[b], base.counts[_domain_sub(f, b, c)]):
            return False
    return True
