"""Exception types shared across the package.

Bad input raises ``ValueError`` (or ``IndexError`` for an index out of
range); the two types here mark model errors, which ``mlq`` maps to exit 3.
"""


class ShapeError(ValueError):
    """An operation required a straight (partition-shaped) queue."""


class ChainError(RuntimeError):
    """A Markov chain violated a structural requirement (reducible, absorbing, empty)."""
