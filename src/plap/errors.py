"""Exception types shared across the solver modules."""


class ConfigurationError(ValueError):
    """Invalid dimension, resolution, exponent or constant in a config object."""


class DimensionMismatchError(ValueError):
    """A nodal field does not match the vertex count of the mesh it is used with."""


class SignError(ValueError):
    """A field violates the sign restriction required by the operation."""


class DegenerateInputError(ValueError):
    """An input field is identically zero where a nontrivial one is required."""


class NoRootError(RuntimeError):
    """The fibering map has no positive root within the solver's reach."""


class LostSignError(RuntimeError):
    """Retraction clipped away the entire positive or negative part."""


class DegenerateConstraintError(RuntimeError):
    """Constraint-gradient pairing too close to zero to project on."""

