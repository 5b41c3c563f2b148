"""Exception types shared across the package."""


class ReadmitError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(ReadmitError):
    """Invalid or infeasible configuration value."""


class CorpusValidationError(ReadmitError):
    """A corpus file or object violates a structural invariant."""


class NoteParseError(ReadmitError):
    """A structured header line is present but malformed."""


class FieldRangeError(NoteParseError):
    """A structured field value falls outside its allowed range."""


class DataError(ReadmitError):
    """A dataset does not satisfy an operation's preconditions."""


class TrainingDivergedError(ReadmitError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch: int, loss: float):
        # args holds the constructor's arguments, so the error pickles and
        # crosses from an evaluation worker process to the caller intact
        super().__init__(epoch, loss)
        self.epoch = epoch
        self.loss = loss

    def __str__(self) -> str:
        return f"training diverged at epoch {self.epoch}: loss={self.loss!r}"


class MetricUndefinedError(ReadmitError):
    """Requested metric is undefined for the given inputs."""
