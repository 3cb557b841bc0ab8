"""Shared exception hierarchy.

Every fatal condition raised by the pipeline derives from SkillscopeError so
the CLI can map error classes to exit codes in one place: one class per exit
code, and the message tells the cases apart.
"""


class SkillscopeError(Exception):
    """Base class for all skillscope errors."""


class ConfigError(SkillscopeError):
    """Invalid configuration file or field, lexicon included."""


class DataError(SkillscopeError):
    """Input data cannot be processed under the declared contract."""


class MissingUpstreamError(SkillscopeError):
    """A pipeline stage was invoked before its inputs exist."""

    def __init__(self, artifact: str):
        super().__init__(f"missing upstream artifact: {artifact}")
        self.artifact = artifact


class TextTooShortError(DataError):
    """Text below the minimum length for language detection."""
