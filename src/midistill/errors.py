"""Exception hierarchy shared by all midistill modules.

Three broad families map onto the CLI exit codes: configuration problems
(exit 1), data problems (exit 2) and training failures (exit 3).
"""


class MidistillError(Exception):
    """Base class for all package errors."""


class ConfigError(MidistillError):
    """Invalid configuration or invalid call arguments."""


class DataError(MidistillError):
    """Problems with input data or dataset contracts."""


class TrainingError(MidistillError):
    """Model training failed (divergence, degenerate data, ...)."""


# --- data errors -----------------------------------------------------------

class MalformedHeader(DataError):
    pass


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


class TooFewSamples(DataError):
    pass


class NameCollision(DataError):
    pass


class UnknownFeature(DataError):
    pass


class FeatureSetMismatch(DataError):
    pass


class LengthMismatch(DataError):
    pass


class EmptyColumn(DataError):
    pass


class EmptyInput(DataError):
    pass


class MissingWeight(DataError):
    def __init__(self, feature):
        self.feature = feature
        super().__init__(f"no weight for feature {feature!r}")


# --- training errors -------------------------------------------------------

class SingleClassData(TrainingError):
    pass


class DimensionMismatch(TrainingError):
    pass


class InvalidBottleneck(ConfigError):
    pass


class DivergenceDetected(TrainingError):
    def __init__(self, epoch):
        self.epoch = epoch
        super().__init__(f"loss became non-finite at epoch {epoch}")
