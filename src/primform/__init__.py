"""Exact-arithmetic engine for primitive forms of weighted homogeneous
singularities and the Frobenius structures they induce."""

from .algebra import (
    LaurentBlock,
    SSeries,
    format_rational,
    parse_polynomial,
    parse_rational,
)
from .catalog import CatalogEntry, load_catalog
from .frobenius import (
    FrobeniusData,
    IntegrabilityError,
    euler_check,
    flat_coordinates,
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
    "infer_weights",
    "invert_coordinates",
    "load_catalog",
    "milnor_basis",
    "parse_polynomial",
    "parse_rational",
    "prepotential",
    "residue_pairing",
    "solve_star",
    "transpose",
    "wdvv_check",
    "weights_from_matrix",
]

__version__ = "0.1.0"
