"""Exception types shared across the runtime."""


class InvalidShape(ValueError):
    """An array argument has the wrong length or dimensionality."""


class NonFiniteInput(ValueError):
    """An input contains NaN or an infinity."""


class EmptyCache(ValueError):
    """An operation needs at least one cache entry."""


class InvalidConfig(ValueError):
    """A configuration value violates its documented constraints."""


class InvalidToken(ValueError):
    """A token id falls outside the model vocabulary."""


class InvalidParam(ValueError):
    """A parameter is outside its documented range."""


class TraceMismatch(ValueError):
    """Two runs that must align (model, seed, tokens) do not, or a saved trace is malformed."""


class InstanceTooLarge(ValueError):
    """The instance exceeds the brute-force enumeration bound."""


class InternalInvariantViolation(AssertionError):
    """A runtime invariant failed. Always a bug, never valid input."""
