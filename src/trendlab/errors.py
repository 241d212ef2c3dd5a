"""Exception and warning types shared across the package."""


class TrendlabError(Exception):
    """Base class for all trendlab errors."""


class ParseError(TrendlabError):
    """A cell or header of an input file could not be parsed."""


class InvariantError(TrendlabError):
    """A domain invariant was violated (bad OHLC ordering, conflicting labels, ...)."""


class DuplicateDateError(InvariantError):
    """Two quote rows exist for the same (date, stockname)."""


class DefectFileError(TrendlabError):
    """A label file carries quotes that contradict each other or already-loaded quotes."""


class EmptyInputError(TrendlabError):
    """An operation received an empty input it cannot work with."""


class DegenerateSplitError(TrendlabError):
    """A date split left the train or the test side empty."""


class ZeroVolumeError(TrendlabError):
    """A zero volume where a ratio or log needs a positive one, in the stock ``stockname``."""

    def __init__(self, stockname: str, message: str) -> None:
        super().__init__(message)
        self.stockname = stockname


class TooShortError(TrendlabError):
    """A regression input has fewer than two points."""


class ShapeError(TrendlabError):
    """Model input does not match the expected shape or target domain."""


class ModelFormatError(TrendlabError):
    """A model document is not a well-formed model of a supported version."""


class SingleClassError(TrendlabError):
    """A metric that needs both classes was given only one."""


class FoldDegenerateError(TrendlabError):
    """Cross-validation folds cannot be formed as required."""


class SeriesTooShortError(TrendlabError):
    """A quote series is too short to produce a single changepoint row."""


class ConfigError(TrendlabError, ValueError):
    """A settings object was given a value outside its range."""


class SingleClassWarning(UserWarning):
    """Training targets contain a single class; the fit proceeds anyway."""
