"""Exception types shared across the library.

The CLI maps these onto process exit codes: ConfigError and
DimensionError -> 2, DataError -> 3, NumericError -> 4.
"""


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ConfigError(ValueError):
    """Invalid experiment configuration or hyperparameter."""


class DataError(Exception):
    """Dataset file is malformed or internally inconsistent."""


class NumericError(Exception):
    """A computation produced a non-finite value.

    Carries optional diagnostic context so aborted runs can be inspected:
    the iteration index and one row of (layer index, gradient norm) pairs.
    """

    def __init__(self, message, iteration=None, layer_norms=None):
        super().__init__(message)
        self.iteration = iteration
        self.layer_norms = layer_norms


class UsageError(RuntimeError):
    """API called out of order (e.g. backward without a matching forward)."""
