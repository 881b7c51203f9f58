"""fueterlab: numerical analysis of quaternionic function classes.

The package evaluates quaternion-valued functions that commute with their
argument (so f(p) = u + iota*v), applies left/right Fueter operators by
finite differences, classifies functions into nested regularity classes,
and expands them in slice-wise Laurent series with angle-dependent
coefficients.
"""

from .quaternion_core import (
    Quaternion,
    SphericalPoint,
    DomainError,
    ChartSingularityError,
    iota,
    to_spherical,
    from_spherical,
)
from .function_model import (
    QFunction,
    ComplexStem,
    SampleGrid,
    DEFAULT_GRID,
    FunctionKindError,
    cullen_extend,
    from_uv,
    power_function,
    restrict_to_slice,
    pointwise_product,
    pointwise_sum,
)
from .diffops import (
    DiffConfig,
    OperatorValue,
    fueter_left,
    fueter_right,
    fueter_spherical,
    class1_residual,
    spherical_cr_residuals,
    imaginary_derivative,
)
from .classify import (
    ClassificationReport,
    ClassStats,
    classify,
    jacobian_check,
)
from .generators import (
    WitnessEntry,
    CATALOG,
    get_witness,
    rinehart_L,
    ci_extend_rinehart,
    chiral_difference,
    mirror,
    resolve_function_spec,
)
from .laurent import (
    AnnulusRegion,
    LaurentSeries,
    laurent_coefficients,
    reconstruct,
    coefficient_class_check,
)
from .verification import CheckResult, run_all_checks

__all__ = [
    "Quaternion", "SphericalPoint", "DomainError", "ChartSingularityError",
    "iota", "to_spherical", "from_spherical",
    "QFunction", "ComplexStem", "SampleGrid", "DEFAULT_GRID",
    "FunctionKindError", "cullen_extend", "from_uv", "power_function",
    "restrict_to_slice", "pointwise_product", "pointwise_sum",
    "DiffConfig", "OperatorValue", "fueter_left", "fueter_right",
    "fueter_spherical", "class1_residual",
    "spherical_cr_residuals", "imaginary_derivative",
    "ClassificationReport", "ClassStats", "classify", "jacobian_check",
    "WitnessEntry", "CATALOG", "get_witness", "rinehart_L",
    "ci_extend_rinehart", "chiral_difference", "mirror",
    "resolve_function_spec",
    "AnnulusRegion", "LaurentSeries", "laurent_coefficients", "reconstruct",
    "coefficient_class_check",
    "CheckResult", "run_all_checks",
]

__version__ = "0.1.0"
