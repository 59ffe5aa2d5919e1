"""Exception types shared across the package."""


class InvalidInput(ValueError):
    """An argument violates a documented precondition."""


class ConditionNotMet(RuntimeError):
    """A closed-form bound was requested outside its validity condition."""


class DegenerateGap(RuntimeError):
    """An eigenvalue gap is too small for a spectral projector to be stable."""


class NotConverged(RuntimeError):
    """An iterative solver stopped at its iteration cap before converging."""
