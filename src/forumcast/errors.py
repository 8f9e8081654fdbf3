"""Exception hierarchy shared across the package.

Each class carries the exit code and the stderr label the CLI gives it; a
subclass inherits both from its base. README "Command line" lists the codes.
"""


class ForumcastError(Exception):
    """Base class for all package errors."""

    exit_code = 3
    label = "error"


class ConfigError(ForumcastError):
    """Invalid or inconsistent pipeline configuration."""

    exit_code = 1
    label = "config error"


class DataError(ForumcastError):
    """Malformed or unusable input data."""

    exit_code = 2
    label = "data error"


class MissingScoreError(DataError):
    """Precomputed sentiment backend has no score for a message id."""


class AnalysisError(ForumcastError):
    """A statistical operation could not be carried out."""

    exit_code = 3
    label = "analysis error"


class InsufficientDataError(AnalysisError):
    """Too few usable observations for the requested analysis."""


class RankDeficiencyError(AnalysisError):
    """Design matrix is rank deficient (collinear regressors)."""


class UndefinedCorrelationError(AnalysisError):
    """Correlation undefined because one series has zero variance."""


class WorkerError(ForumcastError):
    """A window worker process could not be started, or died before it
    returned its window."""

    exit_code = 4
    label = "worker error"


class OutputError(ForumcastError):
    """An output file or directory could not be written (a full disk, or an
    unwritable or read-only directory)."""

    exit_code = 5
    label = "output error"
