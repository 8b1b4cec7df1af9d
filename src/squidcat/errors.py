"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Operator or state dimensions are invalid or inconsistent."""


class HermiticityError(ValueError):
    """An operator tagged as a Hamiltonian failed the hermiticity check."""


class TruncationError(RuntimeError):
    """The Fock truncation is too small for the requested state.

    ``required_dim`` carries an estimate of the smallest adequate truncation,
    or None when no finite estimate is available.
    """

    def __init__(self, message: str, required_dim: int | None = None):
        super().__init__(message)
        self.required_dim = required_dim


class NonFiniteError(ValueError):
    """A computed value that must be finite is NaN or infinite."""


class NormalizationError(ValueError):
    """A state that must come out normalized does not, beyond its recorded leakage."""


class NullOutcomeError(ValueError):
    """A measurement outcome has (numerically) zero probability."""


class ConfigError(ValueError):
    """A run configuration is malformed or incomplete."""
