"""Exception types shared across the package."""


class DimensionMismatchError(ValueError):
    """Vector or delay-line length does not match the configured layout."""


class InvalidTermError(ValueError):
    """Kernel term index outside the configured (order, memory) layout."""


class NumericInputError(ValueError):
    """Non-finite sample or desired value fed to a streaming filter."""


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the offending fields."""

