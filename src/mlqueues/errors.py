"""Exception types shared across the package."""


class SchemaError(ValueError):
    """A document or CLI input failed validation."""


class ShapeError(ValueError):
    """An operation required a straight (partition-shaped) queue."""


class ChainError(RuntimeError):
    """A Markov chain violated a structural requirement (reducible, absorbing, empty)."""
