"""Exception types shared across the package, and the text-file opener
that raises them for input that is not UTF-8."""


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


class open_text:
    """``path`` open for reading as UTF-8 text; a byte that does not decode
    raises ``error`` naming the file. A class rather than a ``contextlib``
    generator: the bench counts a readmit function with ``__wrapped__`` as
    one its tracer wrapped."""

    def __init__(self, path, error: type[ReadmitError], newline=None):
        self.path, self.error = path, error
        self.fh = open(path, "r", encoding="utf-8", newline=newline)

    def __enter__(self):
        return self.fh

    def __exit__(self, kind, e, tb):
        self.fh.close()
        if isinstance(e, UnicodeDecodeError):
            raise self.error(f"{self.path}: not UTF-8 text ({e.reason})") from None
