"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 1, DataError -> 2,
AnalysisError -> 3, WorkerError -> 4, OutputError -> 5.
"""


class ForumcastError(Exception):
    """Base class for all package errors."""


class ConfigError(ForumcastError):
    """Invalid or inconsistent pipeline configuration."""


class DataError(ForumcastError):
    """Malformed or unusable input data."""


class MissingScoreError(DataError):
    """Precomputed sentiment backend has no score for a message id."""


class AnalysisError(ForumcastError):
    """A statistical operation could not be carried out."""


class InsufficientDataError(AnalysisError):
    """Too few usable observations for the requested analysis."""


class RankDeficiencyError(AnalysisError):
    """Design matrix is rank deficient (collinear regressors)."""


class UndefinedCorrelationError(AnalysisError):
    """Correlation undefined because one series has zero variance."""


class WorkerError(ForumcastError):
    """A window worker process could not be started, or died before it
    returned its window."""


class OutputError(ForumcastError):
    """An output file or directory could not be written (a full disk, or an
    unwritable or read-only directory)."""
