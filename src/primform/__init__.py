"""Exact-arithmetic engine for primitive forms of weighted homogeneous
singularities and the Frobenius structures they induce."""

from .algebra import (
    LaurentBlock,
    Poly,
    SSeries,
    format_rational,
    parse_polynomial,
    parse_rational,
)
from .brieskorn import reduce_form, verify_exact_class
from .catalog import CatalogEntry, load_catalog
from .frobenius import (
    FrobeniusData,
    IntegrabilityError,
    euler_check,
    flat_coordinates,
    four_point_function,
    invert_coordinates,
    prepotential,
    wdvv_check,
)
from .milnor import (
    MilnorData,
    NonIsolatedSingularityError,
    WeightedPolynomial,
    central_charge,
    divide_by_jacobian,
    infer_weights,
    milnor_basis,
    residue_pairing,
)
from .mirror import (
    DiagonalSymmetryGroup,
    InvertiblePolynomial,
    diagonal_symmetries,
    transpose,
    weights_from_matrix,
)
from .primitive import (
    PrimitiveFormResult,
    UnfoldingState,
    build_unfolding,
    defect,
    defect_is_zero,
    grading_violations,
    solve_star,
)

__all__ = [
    "CatalogEntry",
    "DiagonalSymmetryGroup",
    "FrobeniusData",
    "IntegrabilityError",
    "InvertiblePolynomial",
    "LaurentBlock",
    "MilnorData",
    "NonIsolatedSingularityError",
    "Poly",
    "PrimitiveFormResult",
    "SSeries",
    "UnfoldingState",
    "WeightedPolynomial",
    "build_unfolding",
    "central_charge",
    "defect",
    "defect_is_zero",
    "diagonal_symmetries",
    "divide_by_jacobian",
    "euler_check",
    "flat_coordinates",
    "format_rational",
    "four_point_function",
    "grading_violations",
    "infer_weights",
    "invert_coordinates",
    "load_catalog",
    "milnor_basis",
    "parse_polynomial",
    "parse_rational",
    "prepotential",
    "reduce_form",
    "residue_pairing",
    "solve_star",
    "transpose",
    "verify_exact_class",
    "wdvv_check",
    "weights_from_matrix",
]

__version__ = "0.1.0"
