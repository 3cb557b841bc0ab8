"""Shared exception hierarchy.

Every fatal condition raised by the pipeline derives from SkillscopeError so
the CLI can map error classes to exit codes in one place.
"""


class SkillscopeError(Exception):
    """Base class for all skillscope errors."""


class ConfigError(SkillscopeError):
    """Invalid configuration file or field."""


class DataError(SkillscopeError):
    """Input data cannot be processed under the declared contract."""


class MissingUpstreamError(SkillscopeError):
    """A pipeline stage was invoked before its inputs exist."""

    def __init__(self, artifact: str):
        super().__init__(f"missing upstream artifact: {artifact}")
        self.artifact = artifact


# --- ingest ---------------------------------------------------------------

class FileUnreadableError(DataError):
    pass


class FormatMismatchError(DataError):
    """File does not parse at all in the declared format."""


class EndpointUnreachableError(DataError):
    """API endpoint still failing after retries."""


# --- cleanse --------------------------------------------------------------

class TextTooShortError(DataError):
    """Text below the minimum length for language detection."""


# --- taxonomy -------------------------------------------------------------

class SchemaError(ConfigError):
    """Lexicon file violates its documented schema."""


class DuplicatePatternError(SchemaError):
    """Same pattern string appears in two categories/groups."""


class EmptyCategoryError(SchemaError):
    pass


class PatternCompileError(ConfigError):
    def __init__(self, phrase: str, reason: str = ""):
        msg = f"cannot compile pattern {phrase!r}"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)
        self.phrase = phrase


# --- embed ----------------------------------------------------------------

class MissingEmbeddingError(DataError):
    """File provider has no vector for the requested id."""


class ServiceError(DataError):
    """HTTP embedding service failed after retries."""


class DimensionMismatchError(DataError):
    pass


class ZeroVectorError(DataError):
    pass


# --- topics ---------------------------------------------------------------

class EmptyVocabularyError(DataError):
    """Frequency thresholds eliminated every term."""


# --- trends ---------------------------------------------------------------

class SeriesTooShortError(DataError):
    pass
