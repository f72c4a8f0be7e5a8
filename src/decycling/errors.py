"""Exception types shared across the package."""


class DecyclingError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(DecyclingError, ValueError):
    """A parameter is outside the range an operation is defined for."""


class UniverseMismatchError(DecyclingError, ValueError):
    """A vertex set and a graph disagree about the vertex universe."""


class NotCoveredError(DecyclingError, ValueError):
    """No closed-form value is known for the requested family."""


class CertificateFormatError(DecyclingError, ValueError):
    """A certificate document is malformed or structurally inconsistent."""


class ConstructionInvariantError(DecyclingError, RuntimeError):
    """A construction or the exact solver produced a set that fails its own
    invariant (for the solver: a witness that leaves a cycle).

    This signals a bug in the package, never bad user input.
    """


class GadgetNotFoundError(DecyclingError, RuntimeError):
    """Exhaustive search found no cylinder gadget compatible with the bases."""


class BudgetExceededError(DecyclingError, RuntimeError):
    """The exact solver ran out of its node or vertex budget; best_known is
    the size of the smallest decycling set found, proved the lower bound shown."""

    def __init__(self, message: str, best_known: int | None = None,
                 proved: int | None = None):
        super().__init__(message)
        self.best_known = best_known
        self.proved = proved
