"""Forward and inverse spectral theory of Hill-type operators with frozen argument.

The operator is -y''(x) + q(x) y(a) = lambda y(x) on (0, 1) with the
quasi-periodic coupling y(0) = gamma y(1), y'(0) = gamma y'(1).  The package
computes spectra from sampled potentials, reconstructs potentials from one
spectrum or from the periodic/antiperiodic pair, generates iso-spectral
families, and numerically verifies the Riesz-basis property of the
associated sine system.
"""

from .core import (
    AlphaParam,
    AsymptoticResidues,
    FrozenConfig,
    Potential,
    Spectrum,
    compute_alpha,
    delta0,
    phi,
    reference_lambda,
    reference_rho,
    reflect_problem,
    rel_l2_error,
    shift_to_zero,
    simpson,
    unshift,
)
from .errors import (
    ConfigError,
    DegenerateCaseError,
    FileFormatError,
    FrozenHillError,
    GrowthConditionError,
    InconsistentSpectrumError,
    OperatorError,
    PoleInTailError,
    RootIsolationError,
)
from .forward import (
    FundamentalSolutions,
    SineSeries,
    build_w,
    compute_spectrum,
    eval_delta_det,
    eval_delta_fundrep,
    fundamental_solutions,
    verify_asymptotics,
)
from .inverse import (
    GrowthReport,
    OperatorSpec,
    TwoSpectra,
    algorithm1,
    algorithm2,
    algorithm3,
    algorithm4,
    check_degeneration,
    check_growth,
    delta_from_spectrum,
    isobispectral_family,
    isospectral_family,
    reconstruct,
    recover_w,
)
from .basis import GramTruncation, RieszReport, frame_bounds, gram_matrix, riesz_report

__version__ = "0.1.0"

__all__ = [
    "AlphaParam",
    "AsymptoticResidues",
    "ConfigError",
    "DegenerateCaseError",
    "FileFormatError",
    "FrozenConfig",
    "FrozenHillError",
    "FundamentalSolutions",
    "GramTruncation",
    "GrowthConditionError",
    "GrowthReport",
    "InconsistentSpectrumError",
    "OperatorError",
    "OperatorSpec",
    "PoleInTailError",
    "Potential",
    "RieszReport",
    "RootIsolationError",
    "SineSeries",
    "Spectrum",
    "TwoSpectra",
    "algorithm1",
    "algorithm2",
    "algorithm3",
    "algorithm4",
    "build_w",
    "check_degeneration",
    "check_growth",
    "compute_alpha",
    "compute_spectrum",
    "delta0",
    "delta_from_spectrum",
    "eval_delta_det",
    "eval_delta_fundrep",
    "frame_bounds",
    "fundamental_solutions",
    "gram_matrix",
    "isobispectral_family",
    "isospectral_family",
    "phi",
    "reconstruct",
    "recover_w",
    "reference_lambda",
    "reference_rho",
    "reflect_problem",
    "rel_l2_error",
    "riesz_report",
    "shift_to_zero",
    "simpson",
    "unshift",
    "verify_asymptotics",
]
