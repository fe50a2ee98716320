"""Exception and warning types shared across the package."""


class ElastowaveError(Exception):
    """Base class for all package-specific errors."""


class InvalidMaterialError(ElastowaveError, ValueError):
    """Elastic constants violate positivity/stability requirements."""


class SupersonicError(ElastowaveError, ValueError):
    """Source speed reaches or exceeds the relevant wave speed."""


class NoRetardationError(ElastowaveError):
    """No retarded time exists on the trajectory's domain of definition."""


class RetardedConvergenceError(ElastowaveError, RuntimeError):
    """Retarded-time iteration ran out of steps before meeting its stop rule."""


class SingularPointError(ElastowaveError):
    """Observer lies on (or numerically too close to) the source worldline."""


class ExtrapolationError(ElastowaveError, ValueError):
    """Query outside the domain of a tabulated trajectory or profile."""


class UnboundedHistoryError(ElastowaveError, ValueError):
    """2D history integral requires a finite switch-on time."""


class QuadratureError(ElastowaveError, RuntimeError):
    """Adaptive quadrature failed to converge; carries the achieved estimate."""

    def __init__(self, message, estimate=None, error=None):
        super().__init__(message)
        self.estimate = estimate
        self.error = error


class ConfigError(ElastowaveError, ValueError):
    """Run configuration is invalid; carries the full list of violations."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {v}" for v in self.violations))


class WavefrontProximityWarning(UserWarning):
    """Finite-difference step had to be floored close to a wavefront."""
