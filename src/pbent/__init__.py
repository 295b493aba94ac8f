"""Exact spectral analysis of p-ary functions and a near-bent glueing toolkit.

Field arithmetic works on integer-encoded elements of F_{p^n}, Walsh
coefficients live in the cyclotomic integers Z[eps_p] with no floating
point anywhere, and the construct module assembles bent functions on
F_{p^n} x F_p from p quadratic near-bent components.
"""

from .cyclotomic import CycInt, ValueShape, eta, gauss_sum, match_shape
from .gfpn import (
    FieldCtx,
    field_from_json,
    field_to_json,
    make_field,
    solve_trace_equation,
)
from .quadratic import (
    NearBentCertificate,
    QuadraticSpec,
    binomial_near_bent,
    binomial_spec,
    certificate,
    circulant_delta,
    delta_eta,
    near_bent_zeta_prediction,
)
from .spectrum import (
    PFunction,
    SpectrumReport,
    WalshSpectrum,
    analyze,
    b_zero_slice_multiplicities,
    walsh_full,
    walsh_naive,
    walsh_naive_full,
)
from .construct import (
    AnfPoly,
    GluedSpec,
    ScanReport,
    anf,
    arrange,
    build_example,
    glue,
    predict_regularity,
    scan_coefficients,
    spectral_regularity,
)
from .verify import CriterionResult, run_all, run_criterion

__version__ = "0.1.0"

__all__ = [
    "AnfPoly",
    "CriterionResult",
    "CycInt",
    "FieldCtx",
    "GluedSpec",
    "NearBentCertificate",
    "PFunction",
    "QuadraticSpec",
    "ScanReport",
    "SpectrumReport",
    "ValueShape",
    "WalshSpectrum",
    "analyze",
    "anf",
    "arrange",
    "b_zero_slice_multiplicities",
    "binomial_near_bent",
    "binomial_spec",
    "build_example",
    "certificate",
    "circulant_delta",
    "delta_eta",
    "eta",
    "field_from_json",
    "field_to_json",
    "gauss_sum",
    "glue",
    "make_field",
    "match_shape",
    "near_bent_zeta_prediction",
    "predict_regularity",
    "run_all",
    "run_criterion",
    "scan_coefficients",
    "solve_trace_equation",
    "spectral_regularity",
    "walsh_full",
    "walsh_naive",
    "walsh_naive_full",
]
