"""Exception types shared across the toolkit: one per exit code.

The CLI and the sweep script exit with each type's ``exit_code``: an
input that violates a documented invariant raises ``SchemaError`` and
exits with 2, whether the fault lies in one file (malformed JSON, a bad
field) or between files (results that name an unknown video or category,
or disagree with the ground truth or with each other on a video's length
or mask size). A bad configuration value raises ``ConfigError`` and
exits with 3. Any other ``ToolkitError`` is a library caller's operand
that breaks an operation's contract (embeddings of different lengths, an
empty side, a non-finite entry); no command reaches one, and it exits
with 4. Error messages name the violated invariant so failures are
diagnosable from logs alone.
"""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 4


class SchemaError(ToolkitError):
    """An input violates a documented invariant."""

    exit_code = 2


class ConfigError(ToolkitError):
    """A configuration value is outside its documented range."""

    exit_code = 3
