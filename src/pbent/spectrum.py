"""Value tables of functions into F_p, their exact Walsh transforms, and
classification of complete spectra.

Two domain kinds are supported: the field F_{p^n} itself (indices are
element indices) and the product F_{p^n} x F_p (index = field_index +
p^n * y). The Walsh coefficient at b is sum_x e^(f(x) - <b, x>) with
<.,.> the trace pairing on the field part plus the plain product on the
F_p coordinate; coefficients are exact elements of Z[e].
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .cyclotomic import CycInt, ValueShape, match_shape
from .gfpn import FieldCtx, digit_array, digit_planes, field_from_json, field_to_json
from .gfpn import exact_ints, read_field


class ShapeMismatch(RuntimeError):
    """A coefficient of the claimed magnitude matched no admissible shape.

    For genuinely bent or near-bent tables this is unreachable; it flags an
    internal bug, not bad input.
    """


class NotBent(ValueError):
    """The spectrum is not bent where the caller needs a bent one."""


class PFunction:
    """Immutable value table of f: V -> F_p.

    kind "field":   V = F_{p^n}, table index = element index, dim = n.
    kind "product": V = F_{p^n} x F_p, table index = field_index + p^n * y,
                    dim = n + 1.

    The table is a read-only copy in the least unsigned dtype that holds
    p - 1 (uint8 up to p = 251, uint16 from 257); input outside 0..p-1 is
    reduced mod p in int64 first. Widen it before doing arithmetic on it.
    """

    def __init__(self, ctx: FieldCtx, table, kind: str = "field"):
        if kind not in ("field", "product"):
            raise ValueError(f"unknown domain kind {kind!r}")
        self.ctx = ctx
        self.kind = kind
        self.p = ctx.p
        self.dim = ctx.n + (1 if kind == "product" else 0)
        arr = np.asarray(table)
        if arr.shape != (self.p ** self.dim,):
            raise ValueError(
                f"table must have length {self.p ** self.dim}, got {arr.shape}"
            )
        if arr.min() < 0 or arr.max() >= self.p:
            arr = arr.astype(np.int64)
            arr %= self.p
        arr = arr.astype(np.min_scalar_type(self.p - 1))  # a copy: the caller's array stays as it is
        arr.setflags(write=False)
        self.table = arr

    @classmethod
    def from_field_table(cls, ctx: FieldCtx, values) -> "PFunction":
        return cls(ctx, values, "field")

    @classmethod
    def from_product_tables(cls, ctx: FieldCtx, tables) -> "PFunction":
        """Stack p field tables f_0, ..., f_{p-1} into F(x, y) = f_y(x)."""
        if len(tables) != ctx.p:
            raise ValueError(f"need exactly {ctx.p} component tables")
        return cls(ctx, np.concatenate([np.asarray(t) for t in tables]), "product")

    @property
    def size(self) -> int:
        return self.p ** self.dim

    def value(self, x: int) -> int:
        return int(self.table[x])

    def split_index(self, a: int) -> tuple[int, int]:
        """(field part, F_p part); the F_p part is 0 on field domains."""
        if self.kind == "field":
            return a, 0
        return a % self.ctx.size, a // self.ctx.size

    def inner_product(self, a: int, x: int) -> int:
        """<a, x>: Tr(a x) on the field, plus a_y * x_y on a product."""
        af, ay = self.split_index(a)
        xf, xy = self.split_index(x)
        v = self.ctx.trace(self.ctx.mul(af, xf))
        if self.kind == "product":
            v += ay * xy
        return v % self.p

    def gram(self) -> np.ndarray:
        """Matrix of <.,.> over the base-p digit coordinates of indices."""
        return self._on_domain(self.ctx.gram)

    def _on_domain(self, g: np.ndarray) -> np.ndarray:
        """The field matrix g, with a 1 appended on its diagonal on a product."""
        if self.kind == "field":
            return g
        out = np.eye(self.dim, dtype=np.int64)
        out[:-1, :-1] = g
        return out

    def to_json(self) -> dict:
        obj = field_to_json(self.ctx)
        obj.update(
            {"dim": self.dim, "domain_kind": self.kind, "table": self.table.tolist()}
        )
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "PFunction":
        kind = read_field(obj, "domain_kind", str, "field")
        dim = read_field(obj, "dim")
        n = dim - 1 if kind == "product" else dim
        if read_field(obj, "n", default=n) != n:
            raise ValueError("n is inconsistent with dim and domain_kind")
        ctx = field_from_json(dict(obj, n=n))
        return read_field(obj, "table", lambda table: cls(ctx, exact_ints(table), kind))


# ---------------------------------------------------------------------------
# transforms


def walsh_naive(f: PFunction, b: int) -> CycInt:
    """Single coefficient, by the defining sum. Quadratic-time reference."""
    p = f.p
    counts = [0] * p
    table = f.table
    for x in range(f.size):
        counts[(int(table[x]) - f.inner_product(b, x)) % p] += 1
    return CycInt(p, counts)


def walsh_naive_full(f: PFunction) -> np.ndarray:
    """All coefficients by direct counting: canonical (size, p) count rows.

    Still the defining sum, just tallied with a precomputed pairing matrix;
    memory is quadratic in the domain, so this stays a small-domain oracle.
    """
    if f.size > 4096:
        raise ValueError("walsh_naive_full is a small-domain reference oracle")
    d = digit_array(f.p, f.dim)
    pairing = ((d @ f.gram() % f.p) @ d.T) % f.p
    keys = (f.table[None, :] - pairing) % f.p
    counts = np.empty((f.size, f.p), dtype=np.int64)
    for j in range(f.p):
        counts[:, j] = (keys == j).sum(axis=1)
    return counts - counts[:, -1:]


class WalshSpectrum:
    """Complete exact spectrum: one canonical count row per coefficient.

    The counts are int32: an entry of a spectrum is at most p^dim in
    magnitude, below 2^31 on every domain check_transform_size accepts.
    An int32 array, such as walsh_full's, is taken as it is; an array of any
    other dtype is converted only if every |entry| <= p^dim, and ValueError
    is raised otherwise.
    """

    def __init__(self, p: int, dim: int, counts: np.ndarray):
        self.p = p
        self.dim = dim
        counts = np.asarray(counts)
        if counts.shape != (p ** dim, p):
            raise ValueError("counts must be (p^dim, p)")
        if counts.dtype != np.int32:
            if max(int(counts.max()), -int(counts.min())) > p ** dim:
                raise ValueError(f"a count exceeds p^dim = {p ** dim} in magnitude")
            counts = counts.astype(np.int32)
        counts.setflags(write=False)
        self.counts = counts

    def coefficient(self, b: int) -> CycInt:
        return CycInt(self.p, self.counts[b])

    @property
    def support_size(self) -> int:
        """Rows with a nonzero entry, counted over blocks of 2^14 rows so that
        a block's p strided columns stay in cache."""
        total = 0
        for i in range(0, len(self.counts), 1 << 14):
            block = self.counts[i : i + (1 << 14)]
            mask = block[:, 0] != 0
            for column in block.T[1:]:
                mask |= column != 0
            total += int(np.count_nonzero(mask))
        return total


def _pass_dtype(size: int):
    """float32 while every partial sum of a pass is exact in it. A canonical
    entry is a difference of two counts, so a partial sum stays within
    2 p^dim in magnitude: float32 up to 2^23 points, float64 above."""
    return np.float32 if 2 * size <= 2 ** 24 else np.float64


def _pass_digits(p: int) -> int:
    """Digits per pass: as many as keep the first pass matrix within 81 rows, at least one."""
    return max(d for d in (1, 2, 3) if d == 1 or p ** (d + 1) <= 81)


def _transform_bytes(p: int, dim: int) -> int:
    """A bound, with room, on the bytes of the transform of p^dim points: 8 per
    point for the caller's int64 table, twice the block the passes run in (4
    bytes per count entry in float32, 8 in float64), which leaves room for
    the chunk buffers, and the largest pass matrix, counted twice to cover
    the index arrays of its build."""
    size, d = p ** dim, min(_pass_digits(p), dim)
    item = np.dtype(_pass_dtype(size)).itemsize
    return size * (2 * item * p + 8) + 2 * p ** (2 * d + 1) * (p - 1) * item


def check_transform_size(p: int, dim: int) -> None:
    """Reject p^dim points before any allocation: p^(2 dim + 1) < 2^62 keeps
    sums in int64 and gives p^dim < 2^31, so every count, at most p^dim in
    magnitude, is exact in int32; and the table, the transform's block and
    pass matrix (_transform_bytes) fit in 4 GiB."""
    if p ** (2 * dim + 1) >= 2 ** 62:
        raise ValueError(f"domain of {p}^{dim} points too large for the exact int64 transform")
    if _transform_bytes(p, dim) > 2 ** 32:
        raise ValueError(f"domain of {p}^{dim} points needs more than the 4 GiB transform limit")


def walsh_full(f: PFunction) -> WalshSpectrum:
    """Exact spectrum via the dimension-factorized character transform.

    The pairing is <b, x> = b . (G x) with G its symmetric Gram matrix, so
    W(b) = sum_y e^(h(y) - b . y) for h = f o G^-1: row y of a (p^dim, p)
    count array starts as the unit vector at h(y), gathered from the table a
    block of rows at a time (_start). Each pass takes a group of d digits,
    from the lowest upward, and multiplies (digits k, entry s) by the matrix
    of e^(-j.k) with rows (k, s) and columns (j, t), d as large as keeps it
    within 81 rows, writing j where k was; row b then counts the y with
    h(y) - b.y = t. The passes work on canonical rows, e^(p-1) written as
    -(1 + ... + e^(p-2)): the first one reads the p-wide start rows and
    writes packed (p^dim, p - 1) rows at the front of the same block, which
    the later ones carry. A partial sum is at most 2 p^dim in magnitude, so
    BLAS runs the passes exactly in float32 up to 2^23 points and in float64
    above. They run in place, chunk by chunk, inside the block that becomes
    the counts (4 bytes per entry in float32, 8 in float64), so at its peak
    the transform holds beside the table that block, two chunk buffers and
    its pass matrix; the start gathers from the table itself. The packed
    rows are then widened in place to int32 (p^dim, p) rows with a zero last
    column, back to front in float32 and front to back in float64 (_passes
    has the order of the writes); int32 is exact because
    check_transform_size keeps p^dim < 2^31, and the block is shrunk in
    place to the counts, so the spectrum keeps 4 bytes per entry.
    Checked against walsh_naive_full in the tests; Parseval runs on every
    call.
    """
    check_transform_size(f.p, f.dim)
    spec = WalshSpectrum(f.p, f.dim, _transform(f, _pass_dtype(f.size)))
    _check_parseval(spec)
    return spec


def _build_pass_matrix(p: int, d: int, dtype, width: int) -> np.ndarray:
    """Read-only pass matrix for input rows s < width and canonical output
    columns t < p - 1: row (k, s) has 1 at column (j, s - j.k) where that is
    below p - 1, else -1 at every (j, t). Built from the (p^d, width, p^d)
    hit columns, so no temporary is larger than the matrix itself."""
    digits = digit_array(p, d)
    hit = (np.arange(width)[None, :, None] - (digits @ digits.T)[:, None, :]) % p
    hit = hit.reshape(-1)
    mix = np.zeros((len(hit), p - 1), dtype=dtype)
    mix[hit == p - 1] = -1
    rows = np.flatnonzero(hit < p - 1)
    mix[rows, hit[rows]] = 1
    mix = mix.reshape(p ** d * width, p ** d * (p - 1))
    mix.setflags(write=False)
    return mix


_cached_pass_matrix = functools.lru_cache(maxsize=None)(_build_pass_matrix)


def _pass_matrix(p: int, d: int, dtype, width: int) -> np.ndarray:
    """The pass matrix, cached up to 81 rows; larger ones (p >= 11) are built per call."""
    if p ** d * width > 81:
        return _build_pass_matrix(p, d, dtype, width)
    return _cached_pass_matrix(p, d, dtype, width)


_CHUNK = 1 << 16  # entries a pass, or the widening, moves at a time


def _transform(f: PFunction, dtype) -> np.ndarray:
    """Canonical int32 count rows of walsh_full, with the passes in dtype.

    One block of size p entries of dtype is allocated (in float32, the int32
    counts already), and _start writes p-wide unit rows into it. The digit
    groups are taken from the lowest upward; rows stay in natural order. The
    first group's chunks of whole hi are contiguous runs of p-wide rows in
    ascending order: each is multiplied by the pass matrix straight from the
    block, and its p - 1 canonical columns land in packed (p^dim, p - 1) rows
    at the front. Packed row r starts at r (p - 1) <= r p, so a chunk
    overwrites only rows already read; the first p - 1 chunks, whose output
    overlaps their own input, go through a reused product buffer. A later
    group of d digits splits the packed rows into (hi, k, lo), and each chunk
    of at most _CHUNK entries of (hi, lo) slabs is gathered transposed into a
    second reused buffer (a row moved as one np.void), multiplied into the
    product buffer and scattered back into the same rows. At the end the
    packed rows are widened to int32 (p^dim, p) rows, _CHUNK // p rows at a
    time: cast into the gather buffer, copied to their own rows and the last
    column zeroed. Int32 row r lands at 4 r p bytes, at or above float32 row
    r at 4 r (p - 1) and at or below float64 row r at 8 r (p - 1), so the
    widening runs back to front in float32 and front to back in float64.
    The block is then shrunk in place to the counts (resize checks that no
    view of it is left; _passes, which holds them all, has returned).
    """
    block = np.zeros(f.size * f.p * np.dtype(dtype).itemsize // 4, dtype=np.int32)
    _passes(f, block, dtype)
    block.resize(f.size * f.p)
    return block.reshape(f.size, f.p)


def _passes(f: PFunction, block: np.ndarray, dtype) -> None:
    """The start, the passes and the widening of _transform, in the block."""
    p, m, size = f.p, f.dim, f.size
    cube = block.view(dtype)
    _start(f, cube)
    gather, product = np.empty((2, min(_CHUNK, size * p)), dtype)
    most, packed = _pass_digits(p), cube[: size * (p - 1)]
    q = p ** min(most, m)
    mix = _pass_matrix(p, min(most, m), dtype, p)
    src, dst = cube.reshape(-1, q * p), packed.reshape(-1, q * (p - 1))
    per = _CHUNK // (q * p)  # whole hi a chunk; q p <= 2^16 on every admitted domain
    for h in range(0, len(src), per):
        x, y = src[h : h + per], dst[h : h + per]
        z = product[: y.size].reshape(y.shape) if np.may_share_memory(x, y) else y
        np.matmul(x, mix, out=z)
        if z is not y:
            np.copyto(y, z)
    row = np.dtype((np.void, (p - 1) * cube.itemsize))
    for low in range(most, m, most):
        d = min(most, m - low)
        q, lo = p ** d, p ** low
        mix = _pass_matrix(p, d, dtype, p - 1)
        rows = packed.view(row).reshape(-1, q, lo)
        per = _CHUNK // (q * (p - 1))  # (hi, lo) pairs a chunk
        step_hi, step_lo = (1, per) if lo >= per else (per // lo, lo)
        for h, j in itertools.product(range(0, len(rows), step_hi), range(0, lo, step_lo)):
            slab = rows[h : h + step_hi, :, j : j + step_lo].transpose(0, 2, 1)
            x, y = gather[: slab.size * (p - 1)], product[: slab.size * (p - 1)]
            np.copyto(x.view(row).reshape(slab.shape), slab)
            np.matmul(x.reshape(-1, q * (p - 1)), mix, out=y.reshape(-1, q * (p - 1)))
            np.copyto(slab, y.view(row).reshape(slab.shape))
    counts, cast = block[: size * p].reshape(size, p), gather.view(np.int32)
    wide = counts[:, :-1].view(np.dtype((np.void, 4 * (p - 1))))[:, 0]
    per, starts = _CHUNK // p, range(0, size, _CHUNK // p)
    for a in reversed(starts) if dtype == np.float32 else starts:
        x = packed[a * (p - 1) : (a + per) * (p - 1)]
        np.copyto(cast[: x.size], x, casting="unsafe")
        np.copyto(wide[a : a + per], cast[: x.size].view(wide.dtype))
        counts[a : a + per, -1] = 0


def _start(f: PFunction, cube: np.ndarray) -> None:
    """Set row y of the zeroed flat (p^dim, p) cube to the unit vector at
    h(y) = f(G^-1 y), gathered p^k <= 2^15 rows at a time. G^-1 y = u + v for
    u = A y_lo (digit planes built once) and v = B y_hi (a digit vector per
    block) over the k low and m - k high digits of y, and digit-wise mod p
    idx(u + v) = idx(u) + idx(v) - sum_i p^(i+1) [u_i + v_i >= p]."""
    p, m = f.p, f.dim
    k = max(j for j in range(1, m + 1) if j == 1 or p ** j <= 2 ** 15)
    ginv = f._on_domain(f.ctx.gram_inverse)
    rows = p * np.arange(p ** k)
    if k == m:
        cube[rows + f.table[np.einsum("i,ij->j", p ** np.arange(m), digit_planes(ginv, p))]] = 1
        return
    lo, w = digit_planes(ginv[:, :k], p), p ** np.arange(m)
    base = np.einsum("i,ij->j", w, lo)
    for v, block in zip(digit_planes(ginv[:, k:], p).T, cube.reshape(-1, p ** (k + 1))):
        x = base + w @ v
        for i in np.flatnonzero(v):
            np.subtract(x, p * w[i], out=x, where=lo[i] >= p - v[i])
        block[np.add(rows, f.table[x], out=x)] = 1


def _check_parseval(spec: WalshSpectrum) -> None:
    """sum_b |W(b)|^2 = p^(2 dim): with gram = counts.T @ counts the total
    has count sum_j gram[j, j - t] at e^t. The Gram is summed exactly over
    chunks of 8192 rows, added as Python ints. A canonical chunk (last
    column zero) whose largest entry keeps its sums within 2^53 has its
    p - 1 other columns copied into the rows of one reused float64 buffer
    y, and BLAS takes y @ y.T (it runs the tall product chunk.T @ chunk
    more slowly). Any other chunk is summed in int64 over all p
    columns, as many rows at a time as keep the sums below 2^63."""
    p, c = spec.p, spec.counts
    gram = np.zeros((p, p), dtype=object)
    y = np.empty((p - 1, 1 << 13))
    for i in range(0, len(c), 1 << 13):
        chunk = c[i : i + (1 << 13)]
        big = max(int(chunk.max()), -int(chunk.min()), 1) ** 2
        if big << 13 <= 2 ** 53 and not chunk[:, -1].any():
            x = y[:, : len(chunk)]
            np.copyto(x, chunk[:, :-1].T)
            gram[:-1, :-1] += (x @ x.T).astype(np.int64).astype(object)
            continue
        step = (2 ** 63 - 1) // big
        for j in range(0, len(chunk), step):
            x = chunk[j : j + step].astype(np.int64)
            gram += (x.T @ x).astype(object)
    j = np.arange(p)
    total = [sum(gram[j, (j - t) % p]) for t in range(p)]
    expected = [p ** (2 * spec.dim)] + [0] * (p - 1)
    if [v - total[-1] for v in total] != expected:
        raise RuntimeError("Parseval identity failed; transform is broken")


# ---------------------------------------------------------------------------
# classification


@dataclass
class SpectrumReport:
    p: int
    dim: int
    is_bent: bool
    is_near_bent: bool
    support_size: int
    classification: str
    zeta: str | None
    labels: np.ndarray | None = field(repr=False, compare=False)  # row -> distinct shape
    js: tuple = field(repr=False, compare=False)  # the dual value j of each distinct shape
    class_multiplicities: dict

    @property
    def dual(self) -> list | None:
        """The dual value j of every row (None on a zero row), built when read."""
        return None if self.labels is None else np.array(self.js, dtype=object)[self.labels].tolist()

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "dim": self.dim,
            "is_bent": self.is_bent,
            "is_near_bent": self.is_near_bent,
            "support_size": self.support_size,
            "classification": self.classification,
            "zeta": self.zeta,
            "class_multiplicities": mults_json(self.class_multiplicities),
        }


def mults_json(mults: dict) -> list:
    """(zeta, j) -> count as a sorted list of JSON records."""
    return [{"zeta": z, "j": j, "count": c} for (z, j), c in sorted(mults.items())]


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Pack each of the N rows into ceil(p / per) int64 keys: rows i and j
    are equal exactly when keys[:, i] and keys[:, j] are.

    With h the largest |entry| and R = 2h + 1, a key packs per entries c_j
    as sum c_j R^j, per the largest count with R^per <= 2^64. Adding
    h (1 + R + ...) maps these sums one to one onto integers below 2^64, so
    they stay distinct in wrapping int64 arithmetic. Each key is built by
    Horner's rule in place from strided columns, with no (N,) temporary.
    """
    p = rows.shape[1]
    radix = 2 * max(int(rows.max()), -int(rows.min()), 1) + 1
    per = max((k for k in range(2, p + 1) if radix ** k <= 2 ** 64), default=1)
    keys = np.empty((-(-p // per), len(rows)), dtype=np.int64)
    for key, top in zip(keys, range(p, 0, -per)):
        key[:] = rows[:, top - 1]
        for column in range(top - 2, max(top - per, 0) - 1, -1):
            key *= radix
            key += rows[:, column]
    return keys


def _classify_rows(p: int, dim: int, rows: np.ndarray, mag: int | None = None):
    """Match each distinct count row once; returns (mag, shapes, labels).

    shapes[k] is the shape of the k-th distinct row in order of first
    occurrence (None for the zero row), and labels[i] = k for every row i
    equal to it. Each pass of the peel loop takes the first unlabelled row,
    computes its |w|^2 and labels every row equal to it, found by comparing
    one or two packed int64 keys per row (_row_keys), built only once row 0
    has passed its checks. Unless given, the first distinct row fixes the
    magnitude exponent mag: dim (bent) if its |w|^2 is p^dim, else dim + 1
    (near-bent, the only kind with zero rows).
    A zero row at mag = dim, or |w|^2 other than p^mag, raises NotBent; a
    row of norm p^mag that matches no shape raises ShapeMismatch. So on
    canonical rows the loop runs at most 2p + 2 times, and once on a random
    table. Labels are in the least signed dtype that holds 2p + 1 (int8 up to
    p = 61), widened to intp if non-canonical rows give more distinct rows.
    """
    labels = np.zeros(len(rows), dtype=np.min_scalar_type(-2 * p - 1))  # label + 1, 0 while unlabelled
    shapes: list[ValueShape | None] = []
    keys = None
    first = 0
    while first >= 0:
        row = rows[first]
        w = CycInt(p, row)
        norm = w.norm_sq()
        if mag is None:
            mag = dim if norm == p ** dim else dim + 1
        if norm != p ** mag and not (w.is_zero() and mag > dim):
            raise NotBent(f"coefficient {row.tolist()} has |W|^2 = "
                          f"{list(norm.counts)}, not {p}^{mag}")
        shape = match_shape(w, mag)
        if shape is None and not w.is_zero():
            raise ShapeMismatch(
                f"coefficient {row.tolist()} has no admissible shape at "
                f"magnitude exponent {mag}"
            )
        if keys is None:
            keys = _row_keys(rows)
        same = keys[0] == keys[0, first]
        for key in keys[1:]:
            same &= key == key[first]
        shapes.append(shape)
        if len(shapes) > 2 * p + 1:  # only non-canonical rows get here
            labels = labels.astype(np.intp, copy=False)
        # the rows equal to this one are all unlabelled (0) so far
        labels += same.astype(labels.dtype) * len(shapes)
        first = int(labels.argmin())
        first = first if labels[first] == 0 else -1
    labels -= 1
    return mag, shapes, labels


def _multiplicities(shapes, labels) -> dict:
    """(zeta, j) -> number of rows, keyed in order of first occurrence."""
    mults: dict = {}
    for s, count in zip(shapes, np.bincount(labels, minlength=len(shapes)).tolist()):
        if s is not None:
            key = (s.zeta, s.j)
            mults[key] = mults.get(key, 0) + count
    return mults


def analyze(spec: WalshSpectrum) -> SpectrumReport:
    """Flags, classification, dual values and per-shape multiplicities.

    Bent or near-bent is decided on the distinct rows, told apart by packed
    int64 row keys (_classify_rows); their shapes follow from the parity of
    the magnitude exponent (dim for bent, dim + 1 on a near-bent support),
    never from a hard-coded case table.
    """
    p, dim = spec.p, spec.dim
    support_size = spec.support_size
    try:
        mag, shapes, labels = _classify_rows(p, dim, spec.counts)
    except NotBent:
        return SpectrumReport(p, dim, False, False, support_size, "NotApplicable", None, None, (), {})
    js = tuple(None if s is None else s.j for s in shapes)
    mults = _multiplicities(shapes, labels)
    zetas = {s.zeta for s in shapes if s is not None}

    if zetas == {"1"}:
        classification, zeta = "Regular", "1"
    elif len(zetas) == 1:
        classification, zeta = "WeaklyRegular", zetas.pop()
    else:
        classification, zeta = "NonWeaklyRegular", None

    return SpectrumReport(
        p, dim, mag == dim, mag != dim, support_size, classification, zeta, labels, js, mults
    )


def b_zero_slice_multiplicities(spec: WalshSpectrum) -> dict:
    """Shape multiplicities over the b = (a, 0) slice of a product spectrum.

    Rows 0 .. p^(dim-1)-1 are the coefficients with vanishing F_p part of
    b, matched at the bent magnitude p^(dim/2); a zero or other row raises NotBent.
    """
    rows = spec.counts[: spec.p ** (spec.dim - 1)]
    _, shapes, labels = _classify_rows(spec.p, spec.dim, rows, spec.dim)
    return _multiplicities(shapes, labels)
