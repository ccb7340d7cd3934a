"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: problems with input files raise
``SchemaError`` (or its ``ParseError`` subclass) and exit with 2, bad
configuration raises ``ConfigError`` and exits with 3, and any other
``ToolkitError`` signals a violated operation contract and exits with 4.
Error messages name the violated invariant so failures are diagnosable
from logs alone.
"""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class SchemaError(ToolkitError):
    """An input file violates a documented invariant."""


class ParseError(SchemaError):
    """An input file is not syntactically valid JSON."""


class ConfigError(ToolkitError):
    """A configuration value is outside its documented range."""


class ConfigInfeasible(ConfigError):
    """A generator configuration cannot be satisfied."""


class CountsMismatch(SchemaError):
    """Run-length counts disagree with the declared mask geometry."""


class DimensionMismatch(ToolkitError):
    """Two operands disagree on embedding length, mask size, or matrix shape."""


class EmptyInput(ToolkitError):
    """An operation that needs at least one element received none."""


class DuplicateInstanceId(ToolkitError):
    """Ground-truth instances on one frame must have unique ids."""


class NonFiniteInput(ToolkitError):
    """An embedding entry is NaN or infinite."""


class ImageTooSmall(ToolkitError):
    """The source image is too small to crop."""


class VideoMismatch(ToolkitError):
    """Inputs disagree on a video: its length or its mask size."""


class UnknownVideoId(ToolkitError):
    """Predictions reference a video absent from the ground truth."""


class UnknownCategory(ToolkitError):
    """A track references a category absent from the ground-truth category set."""
