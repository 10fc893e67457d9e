"""Exception types shared across the package."""


class TruncationError(ValueError):
    """Bosonic truncation is too small for the requested accuracy.

    Carries ``required_n_max`` where known: the smallest cutoff whose dropped
    tail is under the tolerance or, for a built state short of norm 1, its
    default cutoff (a stack's largest), with predicted residual <= 1e-12.
    """

    def __init__(self, message: str, required_n_max: int | None = None):
        super().__init__(message)
        self.required_n_max = required_n_max


class DegenerateProfileError(ValueError):
    """Coefficient profile cannot produce a normalizable state here."""


class NoRealSolutionError(ValueError):
    """The z-dependent coefficient rule has no real solution at this z."""


class FloatRangeError(ValueError):
    """A closed form left the float range: a term overflowed to inf or nan."""
