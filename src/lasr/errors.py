"""Exception taxonomy shared across the package.

The CLI maps these onto process exit codes: configuration / usage problems
exit with 2, malformed or inconsistent input data with 3, and numerical
failures (degenerate fits, zero residual variance, ...) with 4.
"""

__all__ = ["LasrError", "ConfigError", "DataError", "FormatError", "NumericError", "StageError"]


class LasrError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(LasrError):
    """A configuration value is out of range or inconsistent."""


class DataError(LasrError):
    """Input data violates a precondition (dimensions, tags, emptiness)."""


class FormatError(DataError):
    """A file does not conform to its declared grammar.

    ``line`` is the 1-based line number at which parsing failed, and
    ``path`` the file, when known; the message starts with them.
    """

    def __init__(self, message, line=None, path=None):
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.line = line
        self.path = path


class NumericError(LasrError):
    """A numerical procedure failed (rank deficiency, zero variance, ...)."""


class StageError(LasrError):
    """A pipeline stage failed; carries the stage name and the cause."""

    def __init__(self, stage, cause):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
