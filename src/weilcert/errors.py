"""Exception types shared across the toolkit.

Plain argument errors raise ValueError; ResourceLimitError covers the one
case a caller may want to handle separately: a configured budget or bound
(the sieve budget, which bounds the time of a windowed pass and the memory
of a whole-array sieve, or a factoring bound) reached before an operation
could finish.
"""


class ResourceLimitError(RuntimeError):
    """An operation would exceed a configured sieve budget or factoring bound."""
