"""weilcert: Weil quadruple certificates over Sophie Germain dimensions.

Exact-arithmetic toolkit for the quadruples (g, p, a, s) solving
a^2 - 4p = -(2g+1)*s^2, the endomorphism-algebra certificates they induce,
quadratic-form class numbers, and the prime-density experiment with its
exact rational limit.

The package root re-exports nothing: import each name from the module
that defines it, e.g. `from weilcert.arith import DimensionParam`.
"""

__version__ = "0.1.0"
