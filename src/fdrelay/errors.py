"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConvergenceError(ArithmeticError):
    """A series or quadrature failed to reach the requested accuracy.

    Carries the best value obtained so far and the achieved error estimate.
    """

    def __init__(self, message, value=None, error_estimate=None):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


class ScenarioError(ValueError):
    """A scenario/config file is malformed or violates a parameter invariant."""
