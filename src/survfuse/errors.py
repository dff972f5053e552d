"""Exception types shared across the package.

Every error raised by survfuse derives from :class:`SurvfuseError` so callers
can catch one base class at the CLI boundary. Names mirror the failure, not
the module that raises it; several are reused across modules.
"""


class SurvfuseError(Exception):
    """Base class for all survfuse errors."""


# --- data ingestion / dataset construction -------------------------------

class MissingColumnError(SurvfuseError):
    """A required CSV column is absent from the header."""


class DuplicatePatientIdError(SurvfuseError):
    """The same patient id appears on more than one row."""


class MalformedRowError(SurvfuseError):
    """A row cannot be parsed into a record; carries row index and reason."""

    def __init__(self, row_index: int, reason: str):
        self.row_index = row_index
        self.reason = reason
        super().__init__(f"row {row_index}: {reason}")


class AllMissingColumnError(SurvfuseError):
    """Imputation is impossible because a column has no observed values."""


class UnimputedRecordError(SurvfuseError):
    """An operation that needs complete covariates met a missing value."""


class DatasetTooSmallError(SurvfuseError):
    """Too few records to split into train/val/test."""


class NonPositiveAgeError(SurvfuseError):
    """Age must be strictly positive."""


# --- model fitting --------------------------------------------------------

class DimensionMismatchError(SurvfuseError):
    """Covariate matrix/vector shapes disagree."""


class NonFiniteInputError(SurvfuseError):
    """An input array contains NaN or infinity."""


class NoEventsError(SurvfuseError):
    """At least one observed event is required."""


class SingularInformationError(SurvfuseError):
    """The information matrix is singular; a ridge penalty may help."""


class InvalidDimensionError(SurvfuseError):
    """A network layer specification is invalid."""


class DivergedLossError(SurvfuseError):
    """Training produced a non-finite loss."""


class DegenerateDataError(SurvfuseError):
    """Not enough usable data to grow a forest."""


# --- fusion ---------------------------------------------------------------

class MismatchedLengthsError(SurvfuseError):
    """Parallel vectors differ in length."""


class MissingModalityError(SurvfuseError):
    """A fused model was asked to predict without one of its inputs."""


class ExtraModalityError(SurvfuseError):
    """A fused model was handed an input it was not fitted with."""


# --- metrics --------------------------------------------------------------

class NoComparablePairsError(SurvfuseError):
    """No usable (event, later-time) pair exists for concordance."""


class TooFewResamplesError(SurvfuseError):
    """Bootstrap resample count below the supported minimum."""


class DegenerateResamplingError(SurvfuseError):
    """Bootstrap redraw budget exhausted without a valid resample."""


class EmptyGroupError(SurvfuseError):
    """A survival-curve or test group contains no subjects."""


class NoNoneventsError(SurvfuseError):
    """Reclassification requires at least one non-event subject."""


class TooFewPairsError(SurvfuseError):
    """Too few nonzero paired differences for a signed-rank test."""


class EmptyInputError(SurvfuseError):
    """An analysis step received no scores."""


# --- generation / configuration / CLI -------------------------------------

class InvalidSpecError(SurvfuseError):
    """A generator specification is out of range or inconsistent."""


class InvalidConfigError(SurvfuseError):
    """A study config value is invalid; carries the offending field path."""

    def __init__(self, field_path: str, reason: str):
        self.field_path = field_path
        self.reason = reason
        super().__init__(f"{field_path}: {reason}")


class IoError(SurvfuseError):
    """A file could not be read or written."""


class SchemaMismatchError(SurvfuseError):
    """Artifact and input data disagree on a column or dimension."""


class UnknownModelKindError(SurvfuseError):
    """The artifact's model kind is not supported."""


class StageError(SurvfuseError):
    """Wraps a failure with the pipeline stage that produced it."""

    def __init__(self, stage: str, cause: BaseException):
        self.stage = stage
        self.cause = cause
        super().__init__(f"[{stage}] {cause}")
