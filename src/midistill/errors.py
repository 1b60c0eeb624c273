"""Exception hierarchy shared by all midistill modules.

Three families map onto the CLI exit codes: configuration problems (exit 1),
data problems (exit 2) and training failures (exit 3).  The CLI prints only
an error's message, never its class, so each message names its condition.
A leaf class is kept only where a caller reads its fields.
"""


class MidistillError(Exception):
    """Base class for all package errors."""


class ConfigError(MidistillError):
    """Invalid configuration or invalid call arguments."""


class DataError(MidistillError):
    """Problems with input data or dataset contracts."""


class TrainingError(MidistillError):
    """Model training failed (divergence, degenerate data, ...)."""


class NonBinaryLabel(DataError):
    def __init__(self, row, value):
        self.row = row
        self.value = value
        super().__init__(f"label value {value!r} at row {row} is not 0/1")


class NonNumericValue(DataError):
    def __init__(self, row, column):
        self.row = row
        self.column = column
        super().__init__(f"non-numeric value at row {row}, column {column!r}")


class DivergenceDetected(TrainingError):
    def __init__(self, epoch):
        self.epoch = epoch
        super().__init__(f"training diverged at epoch {epoch}: a non-finite value")
