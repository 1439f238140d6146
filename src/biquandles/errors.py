"""Exception types shared across the package."""


class BiquandleError(Exception):
    """Base class for all library-specific errors."""


class MatrixParseError(BiquandleError):
    """Malformed integer text (a matrix or module file, a switch matrix);
    carries the 1-based line and, for a bad token, its column."""

    def __init__(self, message, line, column=None):
        loc = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{loc}: {message}")
        self.line = line
        self.column = column


class GaussCodeError(BiquandleError):
    """Malformed or inconsistent Gauss code."""


class ModuleError(BiquandleError):
    """Invalid finite-module data (non-unit action, non-commuting actions)."""


class SwitchError(BiquandleError):
    """Switch data that does not define an invertible pair map."""


class WitnessError(BiquandleError):
    """A claimed isomorphism witness failed one of its defining conditions."""
