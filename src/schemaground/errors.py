"""Exception taxonomy for the pipeline, plus the CLI exit-code mapping.

Every deliberate failure raises a distinct class so callers (and the CLI)
can react to the error kind rather than parse message text.
"""

from __future__ import annotations


class PipelineError(Exception):
    """Base class for all errors raised deliberately by this package."""


# ---------------------------------------------------------------- schema DSL


class SchemaError(PipelineError):
    """Base class for schema parse/validation failures."""


class SchemaSyntaxError(SchemaError):
    """Malformed token or structure in schema source."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class UnknownDependencyError(SchemaError):
    """A dependency names a component not declared earlier in the program."""


class DuplicateComponentError(SchemaError):
    """A component id is declared twice, or a dependency list repeats an id."""


class ConceptMismatchError(SchemaError):
    """A component's concept differs from the program header concept."""


class TooManyComponentsError(SchemaError):
    """Program exceeds the component cap."""


# ------------------------------------------------------------- model gateway


class GatewayError(PipelineError):
    """Base class for backend/gateway failures."""


class BackendUnavailableError(GatewayError):
    """Backend could not be reached or refused the request (retries exhausted)."""


class FixtureMissError(GatewayError):
    """Scripted backend has no rule matching the request."""


class MalformedReplyError(GatewayError):
    """Backend returned an empty or unusable reply."""


class BackendConfigError(GatewayError):
    """Backend configuration file is invalid."""


# ------------------------------------------------------------------ stages


class ExtractionFailedError(PipelineError):
    """Schema extraction exhausted its retries without a valid program."""

    def __init__(self, concept: str, reason: Exception | None = None):
        self.concept = concept
        self.reason = reason
        detail = f": {type(reason).__name__}: {reason}" if reason is not None else ""
        super().__init__(f"could not extract a valid schema for {concept!r}{detail}")


class UnknownConceptError(PipelineError):
    """Concept has no canonical schema fixture."""


# -------------------------------------------------------------- eval harness


class ManifestInvalidError(PipelineError):
    """Dataset manifest violates an instance or structural invariant."""


class MissingImageError(PipelineError):
    """An image referenced by the manifest cannot be read."""


class IncompletePredictionsError(PipelineError):
    """Prediction set does not cover the manifest exactly once per run."""


# Exit codes partition error classes 1:1. Code 1 is reserved for unexpected
# exceptions, 2 for argparse usage errors.
EXIT_CODES: dict[type[PipelineError], int] = {
    SchemaSyntaxError: 10,
    UnknownDependencyError: 11,
    DuplicateComponentError: 12,
    ConceptMismatchError: 13,
    TooManyComponentsError: 14,
    BackendUnavailableError: 20,
    FixtureMissError: 21,
    MalformedReplyError: 22,
    BackendConfigError: 23,
    ExtractionFailedError: 30,
    UnknownConceptError: 31,
    ManifestInvalidError: 50,
    MissingImageError: 51,
    IncompletePredictionsError: 52,
}


def exit_code_for(err: BaseException) -> int:
    return EXIT_CODES.get(type(err), 1)
