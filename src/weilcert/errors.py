"""Exception types shared across the toolkit.

Plain argument errors raise ValueError; ResourceLimitError covers the one
case a caller may want to handle separately: a fixed budget or bound (the
sieve budget, which bounds the time of a windowed pass, the discriminant
bound of the class-number enumeration, `weil.DIGIT_BUDGET`, which bounds
the digits of p^g and p^k, or the primality bound psi_13 ~ 3.3e24 of
`arith.is_prime`) reached before an operation could finish.
"""


class ResourceLimitError(RuntimeError):
    """An operation would exceed the sieve budget or a fixed bound."""
