"""Exception types shared across the package."""


class CrossAecError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ShapeError(CrossAecError):
    """Operand shapes do not admit the requested operation."""

    exit_code = 3


class DegenerateInputError(CrossAecError):
    """Input is structurally valid but carries no usable content."""

    exit_code = 3


class VocabularyError(CrossAecError):
    """Token id outside the vocabulary, or a malformed vocabulary."""

    exit_code = 3


class SequenceLengthError(CrossAecError):
    """Encoded sequence exceeds the model's maximum length."""

    exit_code = 3


class CorpusFormatError(CrossAecError):
    """Corpus file cannot be read or violates the line-delimited record schema."""

    exit_code = 3


class AlignmentError(CrossAecError):
    """Word spans are inconsistent with the frames."""

    exit_code = 3


class CoverageError(CrossAecError):
    """A word has no entry in the prototype table, or the table is empty."""

    exit_code = 3


class CalibrationError(CrossAecError):
    """Channel calibration cannot reach the requested target."""

    exit_code = 4


class ConfigurationError(CrossAecError):
    """Invalid or inconsistent configuration."""

    exit_code = 5


class StateError(CrossAecError):
    """Operation called out of order (e.g. backward before forward)."""

    exit_code = 5
