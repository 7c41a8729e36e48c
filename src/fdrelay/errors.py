"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ScenarioError(ValueError):
    """A scenario/config file is malformed or violates a parameter invariant."""
