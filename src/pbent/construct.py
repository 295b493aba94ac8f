"""Glueing p near-bent components into one bent function on F_{p^n} x F_p.

The components f_k = c_k * g_k + Tr(b_k x) must share a one-dimensional
polarization kernel {c * beta} and carry witnesses b_k aligning f_k(x + beta)
- f_k(x) = Tr(l_k beta), l_k the linear part, so that the k-th Walsh support
is shifted into its own coset; the supports then partition F_{p^n} and
F(x, y) = f_y(x) is bent. Regularity of F is decided by whether the
discriminant classes eta(Delta_k) of the components all agree. Scalars c in
F_p^* enter only through the scaling law (kernel and beta unchanged,
Tr(l beta) times c, eta(Delta) times eta(c)^(n-1) at rank n - 1), so the
templates g_k are certified once per glueing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cyclotomic import eta
from .gfpn import FieldCtx, exact_ints, field_from_json, field_to_json, make_field
from .gfpn import read_field, solve_trace_equation
from .quadratic import QuadraticSpec, binomial_spec, certificate, certificates
from .spectrum import PFunction, analyze, walsh_full


class KernelMismatch(ValueError):
    """Components do not share one common polarization kernel."""


class NotNearBent(ValueError):
    """A scaled component has kernel dimension different from 1."""

    def __init__(self, k: int, s: int):
        super().__init__(f"component {k} has kernel dimension {s}, expected 1")
        self.k = k
        self.s = s


class WitnessConditionError(ValueError):
    """Supplied witnesses b_k fail the value-alignment condition on beta."""


@dataclass(frozen=True)
class GluedSpec:
    """Validated input to the glueing construction.

    components holds the unscaled templates g_k, scalars the c_k in F_p^*,
    realized the full components c_k * g_k + Tr(b_k x). beta is the canonical
    kernel generator used by the witness condition, etas the discriminant
    classes eta(Delta_k) of the realized components.
    """

    ctx: FieldCtx
    components: tuple
    scalars: tuple
    beta: int
    b_witnesses: tuple
    realized: tuple
    etas: tuple

    def to_json(self) -> dict:
        obj = field_to_json(self.ctx)
        obj.update(
            {
                "components": [g.to_json() for g in self.components],
                "scalars": list(self.scalars),
                "b_indices": list(self.b_witnesses),
            }
        )
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "GluedSpec":
        comps = templates_from_json(obj)
        scalars = read_field(obj, "scalars", exact_ints)
        return arrange(comps, scalars, read_field(obj, "b_indices", exact_ints, None))


def templates_from_json(obj: dict) -> tuple:
    """The templates g_k of a glued spec or a scan template: one quadratic
    spec per entry of its components, over the field it names."""
    ctx = field_from_json(obj)
    return read_field(obj, "components",
                      lambda comps: tuple(QuadraticSpec.from_json(c, ctx) for c in comps))


def arrange(components, scalars, b_witnesses=None) -> GluedSpec:
    """Validate components and scalars, then compute or check the witnesses.

    With t_k = Tr(l_k beta) for the linear part l_k of g_k (no constant enters),
    b_k = (c_0 t_0 + k - c_k t_k) * b* when b_witnesses is omitted, with b* the
    smallest index solving Tr(b* beta) = 1; this always satisfies the alignment
    condition. Supplied witnesses are checked against it instead. Bentness is
    then certified on the realized linear parts l'_k: Tr(l'_k beta) = Tr(l'_0 beta) + k.
    """
    components = tuple(components)
    ctx = _common_field(components)
    scalars = tuple(int(c) % ctx.p for c in scalars)
    if len(scalars) != ctx.p or any(c == 0 for c in scalars):
        raise ValueError("need exactly p nonzero scalars")
    spec = _assemble(_certify(components), scalars, b_witnesses)
    lv = ctx.gram @ ctx.vector(spec.beta)
    s = [int(ctx.vector(f.linear) @ lv) for f in spec.realized]
    if any((s[k] - s[0] - k) % ctx.p for k in range(ctx.p)):
        raise RuntimeError("the realized components' Walsh supports do not partition the field")
    return spec


def _common_field(components: tuple) -> FieldCtx:
    """The field of exactly p components that all live in it."""
    ctx = components[0].ctx
    if len(components) != ctx.p:
        raise ValueError(f"need exactly {ctx.p} components, got {len(components)}")
    if any(g.ctx != ctx for g in components):
        raise ValueError("components live in different field contexts")
    return ctx


def _certify(components: tuple) -> tuple:
    """Certify the templates g_k with one elimination: each is near-bent and
    all share one kernel. Returns (field, components, beta, b*, Tr(b_k beta)
    for the linear parts b_k, the classes eta(Delta(g_k))). As A beta = 0 for
    the form matrix A, g_k(x + beta) - g_k(x) = Tr(b_k beta) sets the coset of
    g_k's Walsh support; the constant c_k in g_k(beta) does not."""
    certs = certificates(components)
    for k, cert in enumerate(certs):
        if cert.s != 1:
            raise NotNearBent(k, cert.s)
    # beta, the smallest nonzero kernel element, tells one-dimensional kernels apart
    if len({cert.beta for cert in certs}) != 1:
        raise KernelMismatch("components have different polarization kernels")
    beta, ctx = certs[0].beta, components[0].ctx
    return (ctx, components, beta, solve_trace_equation(ctx, beta, 1),
            [ctx.trace(ctx.mul(g.linear, beta)) for g in components],
            [c.eta for c in certs])


def _assemble(templates: tuple, scalars: tuple, b_witnesses=None) -> GluedSpec:
    """The glueing of certified templates with scalars c_k, by the scaling
    law: c_k Tr(l_k beta) and eta(c_k)^(n-1) eta(Delta(g_k)) in F_p arithmetic."""
    ctx, components, beta, bstar, gvals, etas = templates
    p = ctx.p
    gvals = [c * v % p for c, v in zip(scalars, gvals)]
    if b_witnesses is None:
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

    realized = tuple(g.scale(c).with_linear(b)
                     for g, c, b in zip(components, scalars, b_witnesses))
    etas = tuple(eta(p, c) ** (ctx.n - 1) * e for c, e in zip(scalars, etas))
    return GluedSpec(ctx, components, scalars, beta, b_witnesses, realized, etas)


def glue(spec: GluedSpec) -> PFunction:
    """The table of F(x, y) = f_y(x) on F_{p^n} x F_p."""
    return PFunction.from_product_tables(
        spec.ctx, [g.to_table().table for g in spec.realized]
    )


# ---------------------------------------------------------------------------
# algebraic normal form


@dataclass(frozen=True)
class AnfPoly:
    """Multivariate polynomial over F_p on dim base-p digit coordinates.

    cube[e_{dim-1}, ..., e_0] is the coefficient of prod_i x_i^(e_i); every
    individual exponent is below p. anf makes the cube read-only, in the
    least unsigned dtype that holds p - 1, as PFunction.table is.
    """

    p: int
    dim: int
    cube: np.ndarray

    @cached_property
    def degree(self) -> int:
        digit_sum = np.zeros((), dtype=np.int16)
        for _ in range(self.dim):
            digit_sum = digit_sum[..., None] + np.arange(self.p, dtype=np.int16)
        return int(np.max(digit_sum, where=self.cube != 0, initial=0))

    def coefficients(self) -> dict:
        """Sparse map from digit-ordered exponent tuples to coefficients."""
        out = {}
        for idx in zip(*np.nonzero(self.cube)):
            out[tuple(int(e) for e in reversed(idx))] = int(self.cube[idx])
        return out

    def value_table(self) -> np.ndarray:
        """Evaluate back onto the whole domain (inverse of interpolation), in
        the cube's dtype."""
        return _digit_passes(self.cube, _vandermonde(self.p), self.p, self.dim)


def _vandermonde(p: int) -> np.ndarray:
    return np.array([[pow(x, e, p) for e in range(p)] for x in range(p)], dtype=np.int64)


def _vandermonde_inverse(p: int) -> np.ndarray:
    """Lagrange: f(x) = sum_a f(a) (1 - (x - a)^(p-1)) and C(p-1, e) = (-1)^e
    mod p, so entry (e, a) is [e == 0] - a^(p-1-e) mod p, with 0^0 = 1."""
    return (np.eye(p, 1, dtype=np.int64) - _vandermonde(p)[:, ::-1].T) % p


def _digit_passes(values, mat: np.ndarray, p: int, dim: int) -> np.ndarray:
    """Flat table of mat (p x p over F_p) applied on every digit axis, in the
    least unsigned dtype that holds p - 1.

    Each pass applies the d-fold Kronecker power of mat (mod p) to the d
    leading digits at once: one BLAS product of the (leading digits, rest)
    transpose with its transpose, the d new digits appended lowest (Stockham
    order). d is the largest g with p^g <= 49 (3 at p = 3, 2 at p = 5 and 7,
    1 from p = 11), or what is left for the last pass; each distinct d's
    power is built once a call. Entries stay below a bound that grows
    p^d (p-1)-fold per d-digit pass; they are reduced mod p only where the
    next pass could pass the float type's exact range, and once at the end,
    straight into the narrow table."""
    g = max(d for d in (1, 2, 3) if d == 1 or p ** d <= 49)
    exact32 = p ** g * (p - 1) ** 2 <= 2 ** 24
    dtype, limit = (np.float32, 2 ** 24) if exact32 else (np.float64, 2 ** 53)
    arr = np.asarray(values, dtype=dtype).reshape(-1)
    powers = {}
    bound = p - 1
    for done in range(0, dim, g):
        d = min(g, dim - done)
        if d not in powers:
            power = mat
            for _ in range(d - 1):  # np.kron(power, mat) mod p, without its overhead
                power = (power[:, None, :, None] * mat[None, :, None, :] % p).reshape(
                    len(power) * p, -1)
            powers[d] = power.T.astype(dtype)
        if bound * p ** d * (p - 1) > limit:
            _mod_p(arr, p, arr)
            bound = p - 1
        arr = np.matmul(arr.reshape(p ** d, -1).T, powers[d]).reshape(-1)
        bound *= p ** d * (p - 1)
    return _mod_p(arr, p, np.empty(arr.size, np.min_scalar_type(p - 1)))


_MOD_CHUNK = 1 << 14  # entries _mod_p reduces at a time


def _mod_p(arr: np.ndarray, p: int, out: np.ndarray) -> np.ndarray:
    """arr mod p into out (arr itself or a narrow array), on the nonnegative
    integral floats arr, below 2^24 in float32 and 2^53 in float64.

    Takes x - p floor(x / p) with integer floor division, in int32 for
    float32 and int64 for float64, through one reused buffer of _MOD_CHUNK
    entries: numpy divides integers by a scalar about 3x faster than its
    int64 remainder, and no full-size integer copy is made."""
    quot = np.empty(min(_MOD_CHUNK, arr.size), np.int32 if arr.dtype == np.float32 else np.int64)
    for i in range(0, arr.size, _MOD_CHUNK):
        x = arr[i : i + _MOD_CHUNK]
        q = quot[: x.size]
        np.floor_divide(x, p, out=q, dtype=q.dtype, casting="unsafe")
        q *= -p
        np.add(q, x, out=out[i : i + _MOD_CHUNK], dtype=q.dtype, casting="unsafe")
    return out


def anf(f: PFunction) -> AnfPoly:
    """Coordinatewise Lagrange interpolation of the value table."""
    cube = _digit_passes(f.table, _vandermonde_inverse(f.p), f.p, f.dim).reshape((f.p,) * f.dim)
    cube.setflags(write=False)
    return AnfPoly(f.p, f.dim, cube)


# ---------------------------------------------------------------------------
# worked examples


def build_example(eid: int) -> GluedSpec:
    """Reference constructions 2 through 6 on F_{3^8} x F_3 and F_{3^5} x F_3.

    2: components (g, g, h), scalars (1, 1, 1)
    3: components (g, g, h), scalars (1, 2, 1)
    4: components (g, h, h), scalars (1, 1, 1)
    5: components (g, h, h), scalars (1, 2, 1)
    with g = Tr(x^10 + x^4), h = Tr(x^(3^6+1) + x^(3^5+1)) on F_{3^8} and
    witnesses (1, beta, 2 beta) for the canonical kernel generator beta.
    6: three copies of Tr(x^10 - x^4) on F_{3^5}, scalars (1, 2, 1),
    witnesses (0, 2, 1).
    """
    if eid in (2, 3, 4, 5):
        ctx = make_field(3, 8)
        g = binomial_spec(ctx, 2, 1, "plus")
        h = binomial_spec(ctx, 6, 5, "plus")
        comps = {2: (g, g, h), 3: (g, g, h), 4: (g, h, h), 5: (g, h, h)}[eid]
        scal = {2: (1, 1, 1), 3: (1, 2, 1), 4: (1, 1, 1), 5: (1, 2, 1)}[eid]
        beta = certificate(g).beta
        witnesses = (1, beta, ctx.mul(ctx.element_from_int(2), beta))
        return arrange(comps, scal, witnesses)
    if eid == 6:
        ctx = make_field(3, 5)
        g = binomial_spec(ctx, 2, 1, "minus")
        return arrange((g, g, g), (1, 2, 1), (0, 2, 1))
    raise ValueError(f"example id must be 2..6, got {eid}")


# ---------------------------------------------------------------------------
# regularity prediction and coefficient scans


def predict_regularity(spec: GluedSpec) -> str:
    """WeaklyRegular iff all component discriminant classes agree."""
    return "WeaklyRegular" if len(set(spec.etas)) == 1 else "NonWeaklyRegular"


def spectral_regularity(spec: GluedSpec) -> str:
    """Ground truth from the full spectrum, folded to the same two labels."""
    report = analyze(walsh_full(glue(spec)))
    if report.classification in ("Regular", "WeaklyRegular"):
        return "WeaklyRegular"
    if report.classification == "NonWeaklyRegular":
        return "NonWeaklyRegular"
    raise RuntimeError(f"glued function is not bent: {report.classification}")


@dataclass
class ScanReport:
    rows: list
    weakly_regular: int
    non_weakly_regular: int
    spectra_checked: bool
    disagreements: int

    def to_json(self) -> dict:
        return {
            "rows": [dict(r, scalars=list(r["scalars"])) for r in self.rows],
            "weakly_regular": self.weakly_regular,
            "non_weakly_regular": self.non_weakly_regular,
            "spectra_checked": self.spectra_checked,
            "disagreements": self.disagreements,
        }


def scan_coefficients(components, confirm_spectrum: bool = False) -> ScanReport:
    """Sweep all (p-1)^p scalar tuples, predicting regularity for each.

    The templates are certified once, before any tuple. Tuples are processed
    in lexicographic order. With confirm_spectrum the full spectrum of every
    glued function is also classified and compared. More than 2^20 tuples
    (p >= 11) is a ValueError.
    """
    components = tuple(components)
    p = _common_field(components).p
    if (p - 1) ** p > 2 ** 20:
        raise ValueError(f"a scan over F_{p} has (p-1)^p = {(p - 1) ** p} scalar tuples, "
                         f"more than the limit of {2 ** 20}")
    templates = _certify(components)
    rows = []
    for c in itertools.product(range(1, p), repeat=p):
        gs = _assemble(templates, c)
        pred = predict_regularity(gs)
        spect = spectral_regularity(gs) if confirm_spectrum else None
        rows.append({"scalars": c, "predicted": pred, "spectral": spect})

    weakly = sum(1 for r in rows if r["predicted"] == "WeaklyRegular")
    disagreements = sum(
        1 for r in rows if r["spectral"] is not None and r["spectral"] != r["predicted"]
    )
    return ScanReport(
        rows, weakly, len(rows) - weakly, confirm_spectrum, disagreements
    )
