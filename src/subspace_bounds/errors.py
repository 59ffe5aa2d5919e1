"""Exception types shared across the package."""


class InvalidInput(ValueError):
    """An argument violates a documented precondition."""


class ConditionNotMet(RuntimeError):
    """A closed-form bound was requested outside its validity condition."""


class DegenerateGap(RuntimeError):
    """An eigenvalue gap is too small for a spectral projector to be stable."""


class NotConverged(RuntimeError):
    """A numerical solver did not converge (LAPACK's symmetric eigensolver failed)."""


class CheckFailed(RuntimeError):
    """An internal check failed: a duality gap, a cap a flow breaks, a search
    certificate or a domination the mathematics guarantees (a bug, not bad input)."""
