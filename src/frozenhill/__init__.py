"""Forward and inverse spectral theory of Hill-type operators with frozen argument.

The operator is -y''(x) + q(x) y(a) = lambda y(x) on (0, 1) with the
quasi-periodic coupling y(0) = gamma y(1), y'(0) = gamma y'(1).  The package
computes spectra from sampled potentials, reconstructs potentials from one
spectrum or from the periodic/antiperiodic pair, generates iso-spectral
families, and numerically verifies the Riesz-basis property of the
associated sine system.
"""

from .core import (
    FrozenConfig,
    Potential,
    Spectrum,
    compute_alpha,
    phi,
    rel_l2_error,
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
    SineSeries,
    build_w,
    compute_spectrum,
    eval_delta_det,
    eval_delta_fundrep,
    verify_asymptotics,
)
from .inverse import (
    OperatorSpec,
    TwoSpectra,
    algorithm1,
    algorithm2,
    algorithm3,
    algorithm4,
    check_growth,
    delta_from_spectrum,
    isobispectral_family,
    isospectral_family,
    reconstruct,
    recover_w,
)
from .basis import frame_bounds, gram_matrix, riesz_report

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DegenerateCaseError",
    "FileFormatError",
    "FrozenConfig",
    "FrozenHillError",
    "GrowthConditionError",
    "InconsistentSpectrumError",
    "OperatorError",
    "OperatorSpec",
    "PoleInTailError",
    "Potential",
    "RootIsolationError",
    "SineSeries",
    "Spectrum",
    "TwoSpectra",
    "algorithm1",
    "algorithm2",
    "algorithm3",
    "algorithm4",
    "build_w",
    "check_growth",
    "compute_alpha",
    "compute_spectrum",
    "delta_from_spectrum",
    "eval_delta_det",
    "eval_delta_fundrep",
    "frame_bounds",
    "gram_matrix",
    "isobispectral_family",
    "isospectral_family",
    "phi",
    "reconstruct",
    "recover_w",
    "rel_l2_error",
    "riesz_report",
    "verify_asymptotics",
]
