"""Exception types shared across the toolkit.

Plain argument errors raise ValueError; ResourceLimitError covers the one
case a caller may want to handle separately: a fixed budget or bound (the
sieve budget, which bounds the time of a windowed pass, the discriminant
bound of the class-number enumeration, or `weil.DIGIT_BUDGET`, which bounds
the digits of p^g and p^k) reached before an operation could finish.
"""


class ResourceLimitError(RuntimeError):
    """An operation would exceed the sieve budget or a fixed bound."""
