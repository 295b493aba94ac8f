"""Value tables of functions into F_p, their exact Walsh transforms, and
classification of complete spectra.

Two domain kinds are supported: the field F_{p^n} itself (indices are
element indices) and the product F_{p^n} x F_p (index = field_index +
p^n * y). The Walsh coefficient at b is sum_x e^(f(x) - <b, x>) with
<.,.> the trace pairing on the field part plus the plain product on the
F_p coordinate; coefficients are exact elements of Z[e].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cyclotomic import CycInt, ValueShape, match_shape
from .gfpn import FieldCtx, digit_array, field_to_json, linear_index_map, make_field


class ShapeMismatch(RuntimeError):
    """A coefficient of the claimed magnitude matched no admissible shape.

    For genuinely bent or near-bent tables this is unreachable; it flags an
    internal bug, not bad input.
    """


class PFunction:
    """Immutable value table of f: V -> F_p.

    kind "field":   V = F_{p^n}, table index = element index, dim = n.
    kind "product": V = F_{p^n} x F_p, table index = field_index + p^n * y,
                    dim = n + 1.
    """

    def __init__(self, ctx: FieldCtx, table, kind: str = "field"):
        if kind not in ("field", "product"):
            raise ValueError(f"unknown domain kind {kind!r}")
        self.ctx = ctx
        self.kind = kind
        self.p = ctx.p
        self.dim = ctx.n + (1 if kind == "product" else 0)
        arr = np.asarray(table, dtype=np.int64) % self.p
        if arr.shape != (self.p ** self.dim,):
            raise ValueError(
                f"table must have length {self.p ** self.dim}, got {arr.shape}"
            )
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
        g = self.ctx.gram
        if self.kind == "field":
            return g
        out = np.zeros((self.dim, self.dim), dtype=np.int64)
        out[: self.ctx.n, : self.ctx.n] = g
        out[-1, -1] = 1
        return out

    def digits(self) -> np.ndarray:
        """(size, dim) base-p digits of all indices; also domain coordinates."""
        return digit_array(self.p, self.dim)

    def to_json(self) -> dict:
        obj = field_to_json(self.ctx)
        obj.update(
            {"dim": self.dim, "domain_kind": self.kind, "table": self.table.tolist()}
        )
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "PFunction":
        kind = obj.get("domain_kind", "field")
        dim = int(obj["dim"])
        n = dim - 1 if kind == "product" else dim
        if int(obj.get("n", n)) != n:
            raise ValueError("n is inconsistent with dim and domain_kind")
        ctx = make_field(int(obj["p"]), n, obj.get("modulus"))
        return cls(ctx, obj["table"], kind)


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
    d = f.digits()
    pairing = ((d @ f.gram() % f.p) @ d.T) % f.p
    keys = (f.table[None, :] - pairing) % f.p
    counts = np.empty((f.size, f.p), dtype=np.int64)
    for j in range(f.p):
        counts[:, j] = (keys == j).sum(axis=1)
    return _canonicalize_rows(counts)


def _canonicalize_rows(counts: np.ndarray) -> np.ndarray:
    return counts - counts[:, -1:]


class WalshSpectrum:
    """Complete exact spectrum: one canonical count row per coefficient."""

    def __init__(self, p: int, dim: int, counts: np.ndarray):
        self.p = p
        self.dim = dim
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (p ** dim, p):
            raise ValueError("counts must be (p^dim, p)")
        counts.setflags(write=False)
        self.counts = counts
        self._norms = None

    @property
    def size(self) -> int:
        return self.p ** self.dim

    def coefficient(self, b: int) -> CycInt:
        return CycInt(self.p, self.counts[b])

    @property
    def support_size(self) -> int:
        return int(np.any(self.counts != 0, axis=1).sum())

    def norm_rows(self) -> np.ndarray:
        """Canonical count rows of |W(b)|^2 for every b, computed once."""
        if self._norms is None:
            # contiguous columns: the products run about twice as fast as on
            # strided column views
            cols = self.counts.T.copy()
            out = np.zeros_like(cols)
            for t, j in np.ndindex(self.p, self.p):
                out[t] += cols[j] * cols[(j - t) % self.p]
            out -= out[-1].copy()  # canonical rows; a view would copy all of out
            self._norms = out.T
            self._norms.setflags(write=False)
        return self._norms


def walsh_full(f: PFunction) -> WalshSpectrum:
    """Exact spectrum via the dimension-factorized character transform.

    Row x of a (p^dim, p) count array starts as the unit vector at f(x).
    Each of the dim passes multiplies (leading digit k, count s) by the
    p^2 x p^2 0/1 matrix mix[(k, s), (j, t)] = [s = t + j*k mod p] and
    appends j as the lowest digit (Stockham order); row u then counts the x
    with f(x) - u.x = t. Counts are float64 so BLAS runs the products, and
    exactly: under the size guard each is at most p^dim < 2^31, well inside
    2^53. Rows are re-indexed by u = G b (G the Gram matrix of the pairing,
    via gfpn.linear_index_map) and become int64. Checked against
    walsh_naive_full in the tests; Parseval runs on every call.
    """
    p, m = f.p, f.dim
    if p ** (2 * m + 1) >= 2 ** 62:
        raise ValueError("domain too large for the exact int64 transform")
    k, s, j, t = np.indices((p,) * 4)
    mix = ((s - t - j * k) % p == 0).reshape(p * p, p * p).astype(np.float64)
    cube = np.zeros((f.size, p))
    cube[np.arange(f.size), f.table] = 1
    buf = np.empty_like(cube)
    for _ in range(m):
        np.copyto(buf.reshape(-1, p, p), cube.reshape(p, -1, p).transpose(1, 0, 2))
        np.matmul(buf.reshape(-1, p * p), mix, out=cube.reshape(-1, p * p))
    np.take(cube, linear_index_map(f.gram(), p), axis=0, out=buf)
    counts = cube.view(np.int64)  # the canonical int64 rows reuse cube's memory
    np.subtract(buf, buf[:, -1:], out=counts, casting="unsafe")
    del buf  # the norm rows of the Parseval check need the room
    spec = WalshSpectrum(p, m, counts)
    _check_parseval(spec)
    return spec


def _check_parseval(spec: WalshSpectrum) -> None:
    # Each norm row fits in int64 under the transform's size guard. Partial
    # sums over `step` rows cannot overflow; they are added as Python ints.
    norms = spec.norm_rows()
    step = (2 ** 63 - 1) // max(int(norms.max()), -int(norms.min()), 1)
    total = sum(
        norms[i : i + step].sum(axis=0).astype(object)
        for i in range(0, len(norms), step)
    )
    expected = [spec.p ** (2 * spec.dim)] + [0] * (spec.p - 1)
    if total.tolist() != expected:
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
    dual: list | None
    class_multiplicities: dict

    def to_json(self) -> dict:
        mults = [
            {"zeta": z, "j": j, "count": c}
            for (z, j), c in sorted(self.class_multiplicities.items())
        ]
        return {
            "p": self.p,
            "dim": self.dim,
            "is_bent": self.is_bent,
            "is_near_bent": self.is_near_bent,
            "support_size": self.support_size,
            "classification": self.classification,
            "zeta": self.zeta,
            "class_multiplicities": mults,
        }


def _classify_rows(p: int, rows: np.ndarray, mag_exponent: int):
    """Match each distinct count row once; returns (shapes, labels).

    shapes[k] is the shape of the k-th distinct row in order of first
    occurrence (None for the zero row), and labels[i] = k for every row i
    equal to it. Each pass of the peel loop classifies the first unlabelled
    row and labels every row equal to it in one vectorised comparison. On
    canonical rows a row is zero, one of the 2p admissible shapes, or raises,
    so the loop runs at most 2p + 2 times whatever the number of rows.
    """
    labels = np.full(len(rows), -1, dtype=np.intp)
    shapes: list[ValueShape | None] = []
    first = 0
    while first >= 0:
        row = rows[first]
        w = CycInt(p, row)
        shape = match_shape(w, mag_exponent)
        if shape is None and not w.is_zero():
            raise ShapeMismatch(
                f"coefficient {row.tolist()} has no admissible shape at "
                f"magnitude exponent {mag_exponent}"
            )
        labels[(rows == row).all(axis=1)] = len(shapes)
        shapes.append(shape)
        first = int(labels.argmin()) if labels.min() < 0 else -1
    return shapes, labels


def _multiplicities(shapes, labels) -> dict:
    """(zeta, j) -> number of rows, keyed in order of first occurrence."""
    mults: dict = {}
    for s, count in zip(shapes, np.bincount(labels, minlength=len(shapes)).tolist()):
        if s is not None:
            key = (s.zeta, s.j)
            mults[key] = mults.get(key, 0) + count
    return mults


def analyze(spec: WalshSpectrum) -> SpectrumReport:
    """Flags, classification, dual table and per-shape multiplicities.

    The admissible coefficient shapes are derived from the parity of the
    magnitude exponent (dim for bent, dim + 1 on a near-bent support), never
    from a hard-coded case table.
    """
    p, dim = spec.p, spec.dim
    norms = spec.norm_rows()
    zero_row = np.zeros(p, dtype=np.int64)
    bent_row = np.zeros(p, dtype=np.int64)
    bent_row[0] = p ** dim
    nb_row = np.zeros(p, dtype=np.int64)
    nb_row[0] = p ** (dim + 1)

    is_bent = bool((norms == bent_row).all())
    is_zero_or_nb = np.logical_or(
        (norms == zero_row).all(axis=1), (norms == nb_row).all(axis=1)
    )
    is_near_bent = not is_bent and bool(is_zero_or_nb.all())
    support_size = spec.support_size

    if not (is_bent or is_near_bent):
        return SpectrumReport(
            p, dim, False, False, support_size, "NotApplicable", None, None, {}
        )

    mag = dim if is_bent else dim + 1
    shapes, labels = _classify_rows(p, spec.counts, mag)
    js = np.array([None if s is None else s.j for s in shapes], dtype=object)
    dual = js[labels].tolist()
    mults = _multiplicities(shapes, labels)
    zetas = {s.zeta for s in shapes if s is not None}

    if zetas == {"1"}:
        classification, zeta = "Regular", "1"
    elif len(zetas) == 1:
        classification, zeta = "WeaklyRegular", zetas.pop()
    else:
        classification, zeta = "NonWeaklyRegular", None

    return SpectrumReport(
        p,
        dim,
        is_bent,
        is_near_bent,
        support_size,
        classification,
        zeta,
        dual,
        mults,
    )


def b_zero_slice_multiplicities(spec: WalshSpectrum) -> dict:
    """Shape multiplicities over the b = (a, 0) slice of a product spectrum.

    Rows 0 .. p^(dim-1)-1 are exactly the coefficients with vanishing F_p
    part of b. Shapes are matched at the bent magnitude p^(dim/2).
    """
    p = spec.p
    slice_rows = spec.counts[: p ** (spec.dim - 1)]
    shapes, labels = _classify_rows(p, slice_rows, spec.dim)
    if None in shapes:
        raise ShapeMismatch("b = 0 slice of a bent spectrum has a zero entry")
    return _multiplicities(shapes, labels)
