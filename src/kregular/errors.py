"""Exceptions shared across the package."""


class KregularError(Exception):
    """Base class for package errors."""


class InputError(KregularError, ValueError):
    """Outside input is malformed or out of range; the CLI exits 2."""


class SchemaError(InputError):
    """A JSON document does not match the expected schema."""


class ValidationFailure(InputError):
    """A loaded structure failed an exact invariant check."""

    def __init__(self, check: str, detail: str = ""):
        self.check = check
        self.detail = detail
        msg = check if not detail else f"{check}: {detail}"
        super().__init__(msg)


class CatalogError(InputError):
    """Unknown catalog family or size out of range."""


class GramSizeError(InputError):
    """A full-mode Gram matrix would exceed the fixed size limit."""


class SoundnessError(KregularError):
    """An internal consistency check failed: a bug, not an input error.

    Raised instead of an assert, so that the check also runs under
    python -O.
    """
