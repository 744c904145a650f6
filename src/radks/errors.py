"""Exception hierarchy shared by all radks modules."""


class RadksError(Exception):
    """Base class for all errors raised by this package.

    A check of several parameters raises it with `problems`, a map from
    each rejected parameter's name to its message; given no message, the
    error text is those messages joined by "; ".
    """

    def __init__(self, message: str = "", problems: dict | None = None):
        self.problems = dict(problems or {})
        super().__init__(message or "; ".join(self.problems.values()))


class ConfigurationError(RadksError):
    """Invalid parameters, config files, or precondition violations."""


class GridMismatchError(RadksError):
    """Fields from different grids were combined."""


class AdmissibilityError(RadksError):
    """Constructed initial data violates an admissibility condition."""


class SnapshotFormatError(RadksError):
    """A snapshot or diagnostics file does not follow the expected format."""
