"""Exception types shared across the library."""

from __future__ import annotations


class UniconstructError(Exception):
    """Base class for all library errors."""


class BoundExceededError(UniconstructError):
    """An exhaustive search would exceed its configured size bound."""


class SignatureMismatchError(UniconstructError):
    """Two structures were expected to share a signature but do not."""


class StructureError(UniconstructError):
    """A structure violates a precondition (reported violations attached)."""

    def __init__(self, message: str, violations: list[str] | None = None):
        super().__init__(message)
        self.violations = violations or []


class GroupError(UniconstructError):
    """A Cayley table or homomorphism fails its defining laws."""


class VerificationError(UniconstructError):
    """An internally re-checked theorem failed on the given instance."""
