"""Exception types shared across the toolkit.

Plain argument errors raise ValueError; ResourceLimitError covers the one
case a caller may want to handle separately: a configured budget or bound
(sieve memory, factoring bound) reached before an operation could finish.
"""


class ResourceLimitError(RuntimeError):
    """An operation would exceed a configured memory budget or factoring bound."""
