"""Exception hierarchy shared by all solver modules.

The CLI maps these onto process exit codes, so raising the most specific
class matters: configuration/precondition problems are distinct from
numerical failures, which are distinct from file-format problems.
"""


class FrozenHillError(Exception):
    """Base class for all library errors."""


class ConfigError(FrozenHillError):
    """Invalid problem parameters or violated preconditions (exit code 3)."""


class DegenerateCaseError(ConfigError):
    """gamma = +-1 passed to the non-degenerate one-spectrum reconstruction."""


class OperatorError(ConfigError):
    """The auxiliary operator makes I + gamma*K (or I + P) numerically singular."""


class InconsistentSpectrumError(ConfigError):
    """Input spectrum violates the structure required by the reconstruction."""


class GrowthConditionError(ConfigError):
    """The two input spectra are incompatible: w0 + w1 does not vanish on (1-a, 1)."""


class RootIsolationError(FrozenHillError):
    """No value with residual under tol was found inside an eigenvalue's window (exit 4)."""

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"root search failed for eigenvalue index n={index}")


class PoleInTailError(FrozenHillError):
    """Evaluation point hits a reference zero beyond the product truncation (exit 4)."""

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(
            message
            or f"evaluation point coincides with reference zero n={index} beyond the "
            "truncation; raise n_trunc"
        )


class FileFormatError(FrozenHillError):
    """Malformed data file (exit code 2)."""
