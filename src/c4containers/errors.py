"""Shared exception types, mapped to CLI exit codes by the command line front end."""

__all__ = ["PreconditionError", "ScaleError", "NumericError", "HypothesisError"]


class PreconditionError(ValueError):
    """A stated precondition of the operation does not hold for these inputs."""


class ScaleError(RuntimeError):
    """Input exceeds the size this exhaustive, desk-scale routine accepts."""


class NumericError(ArithmeticError):
    """An iterative numeric routine failed to converge or left its valid regime."""


class HypothesisError(PreconditionError):
    """The container degree hypothesis fails for the supplied parameters.

    Carries ``min_k``, the smallest K that would make every degree pair pass,
    so callers can retry with a feasible constant.
    """

    def __init__(self, message: str, min_k=None):
        super().__init__(message)
        self.min_k = min_k
