"""Exception types shared across the package."""


class TruncationError(ValueError):
    """Bosonic truncation is too small for the requested accuracy.

    Carries ``required_n_max``, the smallest truncation that satisfies the
    tail bound, when it is known.
    """

    def __init__(self, message: str, required_n_max: int | None = None):
        super().__init__(message)
        self.required_n_max = required_n_max


class DegenerateProfileError(ValueError):
    """Coefficient profile cannot produce a normalizable state here."""


class NoRealSolutionError(ValueError):
    """The z-dependent coefficient rule has no real solution at this z.

    Raised over a |z| array, it carries ``alphas``: the coefficient rows of
    every |z|, nan where the rule is undefined.  Otherwise ``alphas`` is None.
    """

    def __init__(self, message: str, alphas=None):
        super().__init__(message)
        self.alphas = alphas


class FloatRangeError(ValueError):
    """A closed form left the float range: a term overflowed to inf or nan."""
