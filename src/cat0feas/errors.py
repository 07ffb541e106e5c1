"""Exception hierarchy shared by all cat0feas modules."""


class Cat0FeasError(Exception):
    """Base class for all library errors."""


class DomainError(Cat0FeasError):
    """An argument is outside the mathematical domain of an operation."""


class SpaceMismatchError(DomainError):
    """A point was used with a space it does not belong to."""


class GridSizeError(DomainError):
    """A grid would hold more points than sets.MAX_GRID_POINTS."""


class NotDiagonalError(Cat0FeasError):
    """A product point expected to be (numerically) diagonal is not."""


class NumericError(Cat0FeasError):
    """A non-finite value appeared during an iteration.

    Attributes:
        step: iteration index at which the value was produced.
    """

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class InconclusiveError(Cat0FeasError):
    """An estimation routine ran out of budget before reaching its tolerance.

    Attributes:
        bracket: best (lower, upper) bracket available at abort time, or None.
    """

    def __init__(self, message, bracket=None):
        super().__init__(message)
        self.bracket = bracket


class ConfigError(Cat0FeasError):
    """An experiment configuration document failed to parse or validate."""
