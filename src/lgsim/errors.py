"""Exception and warning types shared across the package."""

from numbers import Integral


class ValidationError(ValueError):
    """Input failed a structural precondition (bad matrix, bad config, bad count)."""


class DimensionMismatchError(ValidationError):
    """Operands live in Hilbert spaces of different dimension."""


class WeakRegimeWarning(UserWarning):
    """Pointer width is small against the spectral diameter; weak-limit formulas degrade."""


def require_same_dim(*dims: int) -> int:
    first = dims[0]
    for d in dims[1:]:
        if d != first:
            raise DimensionMismatchError(
                f"dimension mismatch: {dims[0]} vs {d}"
            )
    return first


def require_count(n, least: int, name: str) -> None:
    """Refuse ``n`` unless it is an integer (a bool is not) of at least ``least``."""
    if isinstance(n, bool) or not isinstance(n, Integral):
        raise ValidationError(f"{name} must be an integer, got {n!r}")
    if n < least:
        raise ValidationError(f"{name} must be >= {least}, got {n}")
