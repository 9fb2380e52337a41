"""Random sequential packings of unit cubes: exact enumeration and simulation."""

from .model import (
    CUBE,
    ONE,
    TORUS,
    ZERO,
    DimensionError,
    InvalidDiscretePackingError,
    Packing,
    Violation,
    add_cube,
    empty_packing,
    is_literal,
    is_tiling,
    literal,
    make_packing,
    opposite,
    param_of,
    phi_grid,
    shift_of,
    validate,
)

__all__ = [
    "CUBE",
    "ONE",
    "TORUS",
    "ZERO",
    "DimensionError",
    "InvalidDiscretePackingError",
    "Packing",
    "Violation",
    "add_cube",
    "empty_packing",
    "is_literal",
    "is_tiling",
    "literal",
    "make_packing",
    "opposite",
    "param_of",
    "phi_grid",
    "shift_of",
    "validate",
]

__version__ = "0.1.0"
