"""Exception and warning types shared across the package."""


class ValidationError(ValueError):
    """Input failed a structural precondition (bad matrix, bad config, bad count)."""


class DimensionMismatchError(ValidationError):
    """Operands live in Hilbert spaces of different dimension."""


class PureStateRequiredError(ValidationError):
    """A closed form stated only for pure initial states was asked for a mixed one."""


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
