"""Glueing p near-bent components into one bent function on F_{p^n} x F_p.

The components f_k = c_k * g_k + Tr(b_k x) must share a one-dimensional
polarization kernel {c * beta} and carry witnesses b_k aligning their values
on beta so that the k-th Walsh support is shifted into its own coset; the
supports then partition F_{p^n} and F(x, y) = f_y(x) is bent. Regularity of
F is decided by whether the discriminant classes eta(Delta_k) of the
components all agree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gfpn import FieldCtx, field_to_json, invert_matrix, make_field, solve_trace_equation
from .quadratic import (
    QuadraticSpec,
    binomial_spec,
    certificate,
    delta_eta,
    kernel_elements,
)
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
    kernel generator used by the witness condition.
    """

    ctx: FieldCtx
    components: tuple
    scalars: tuple
    beta: int
    b_witnesses: tuple
    realized: tuple

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
        ctx = make_field(int(obj["p"]), int(obj["n"]), obj.get("modulus"))
        comps = tuple(QuadraticSpec.from_json(c, ctx) for c in obj["components"])
        scalars = tuple(int(c) for c in obj["scalars"])
        b = obj.get("b_indices")
        return arrange(comps, scalars, None if b is None else tuple(int(v) for v in b))


def arrange(components, scalars, b_witnesses=None) -> GluedSpec:
    """Validate components and scalars, then compute or check the witnesses.

    When b_witnesses is omitted, b_k = (g'_0(beta) + k - g'_k(beta)) * b* with
    b* the smallest index solving Tr(b* beta) = 1; this always satisfies the
    alignment condition. Supplied witnesses are checked against it instead.
    """
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
    certs = [certificate(g) for g in scaled]
    for k, cert in enumerate(certs):
        if cert.s != 1:
            raise NotNearBent(k, cert.s)
    kernels = [kernel_elements(ctx, cert.kernel_basis) for cert in certs]
    if any(kern != kernels[0] for kern in kernels[1:]):
        raise KernelMismatch("components have different polarization kernels")
    beta = min(e for e in kernels[0] if e != 0)

    gvals = [g.evaluate(beta) for g in scaled]
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
    return GluedSpec(ctx, components, scalars, beta, b_witnesses, realized)


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
    individual exponent is below p.
    """

    p: int
    dim: int
    cube: np.ndarray

    @cached_property
    def degree(self) -> int:
        nz = np.nonzero(self.cube)
        if len(nz[0]) == 0:
            return 0
        return int(np.max(np.sum(np.stack(nz), axis=0)))

    def coefficients(self) -> dict:
        """Sparse map from digit-ordered exponent tuples to coefficients."""
        out = {}
        for idx in zip(*np.nonzero(self.cube)):
            out[tuple(int(e) for e in reversed(idx))] = int(self.cube[idx])
        return out

    def value_table(self) -> np.ndarray:
        """Evaluate back onto the whole domain (inverse of interpolation)."""
        v = _vandermonde(self.p)
        arr = self.cube
        for axis in range(self.dim):
            arr = np.moveaxis(np.tensordot(v, arr, axes=(1, axis)) % self.p, 0, axis)
        return arr.reshape(self.p ** self.dim)


def _vandermonde(p: int) -> np.ndarray:
    v = np.empty((p, p), dtype=np.int64)
    for x in range(p):
        for e in range(p):
            v[x, e] = pow(x, e, p) if e else 1
    return v


def anf(f: PFunction) -> AnfPoly:
    """Coordinatewise Lagrange interpolation of the value table."""
    p, m = f.p, f.dim
    vinv = invert_matrix(_vandermonde(p), p)
    arr = f.table.reshape((p,) * m)
    for axis in range(m):
        arr = np.moveaxis(np.tensordot(vinv, arr, axes=(1, axis)) % p, 0, axis)
    arr.setflags(write=False)
    return AnfPoly(p, m, arr)


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
    etas = [delta_eta(g) for g in spec.realized]
    return "WeaklyRegular" if len(set(etas)) == 1 else "NonWeaklyRegular"


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
            "rows": [
                {
                    "scalars": list(r["scalars"]),
                    "predicted": r["predicted"],
                    "spectral": r["spectral"],
                }
                for r in self.rows
            ],
            "weakly_regular": self.weakly_regular,
            "non_weakly_regular": self.non_weakly_regular,
            "spectra_checked": self.spectra_checked,
            "disagreements": self.disagreements,
        }


def scan_coefficients(components, confirm_spectrum: bool = False) -> ScanReport:
    """Sweep all (p-1)^p scalar tuples, predicting regularity for each.

    Tuples are processed in lexicographic order. With confirm_spectrum the
    full spectrum of every glued function is also classified and compared.
    """
    components = tuple(components)
    p = components[0].ctx.p
    rows = []
    for c in itertools.product(range(1, p), repeat=p):
        gs = arrange(components, c)
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
