"""Exception types shared across the package."""


class ParseError(ValueError):
    """Equation text could not be parsed; carries the character position."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class DegenerateEquationError(ValueError):
    """The operator collapsed to order zero or to the zero operator."""


class GammaPoleError(ValueError):
    """A falling power was requested at a pole of the gamma quotient."""


class EvaluationError(RuntimeError):
    """Numeric evaluation of a series failed."""


class NonConvergenceError(EvaluationError):
    """The partial sums did not settle within the available coefficients."""


class InsufficientDataError(ValueError):
    """Not enough coefficients (or terms) were supplied for the operation."""


class InconsistentSystemError(ValueError):
    """A linear system of coefficient constraints has no solution."""


class InvalidOrderError(ValueError):
    """A prescribed growth order is not a coprime rational in (0, 1)."""


class ConfigurationError(ValueError):
    """An environment setting such as DELTAORDER_PRECISION is malformed."""
