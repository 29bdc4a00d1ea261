"""Exception hierarchy shared across the package."""


class DqdError(Exception):
    """Base class for all package errors."""


class ConfigurationError(DqdError):
    """Invalid device geometry, grid, schedule or experiment configuration."""


class NumericalError(DqdError):
    """A solver failed to converge or lost required accuracy."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class NonConvergenceError(NumericalError):
    """Fixed-point (self-consistent) iteration hit its cap."""


class ModelValidityError(DqdError):
    """Inputs left the validity domain of a physical model."""


class RegimeError(DqdError):
    """Operation requested in the wrong interaction regime."""


class GeometryError(DqdError):
    """Potential landscape does not match the expected dot topology."""


class ScheduleError(DqdError):
    """Inconsistent pulse schedule (gaps, frame mismatch, bad durations)."""


def raise_first(results: list) -> list:
    """`results`, a list that lines up with a stack, unless a member holds
    a DqdError in its place: then the first one is raised."""
    for r in results:
        if isinstance(r, DqdError):
            raise r
    return results
