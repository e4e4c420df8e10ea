"""weilcert: Weil quadruple certificates over Sophie Germain dimensions.

Exact-arithmetic toolkit for the quadruples (g, p, a, s) solving
a^2 - 4p = -(2g+1)*s^2, the endomorphism-algebra certificates they induce,
quadratic-form class numbers, and the prime-density experiment with its
exact rational limit.
"""

from .arith import (
    hensel_sqrt,
    integer_sqrt,
    is_perfect_square,
    is_prime,
    legendre_symbol,
    multiplicative_order,
    sieve_primes,
    sqrt_mod_prime,
    squarefree_kernel,
)
from .density import (
    DEFAULT_CHECKPOINTS,
    DensityRecord,
    DensitySeries,
    asymptotic_limit,
    density_series,
)
from .errors import CertificateError, ResourceLimitError, SearchExhausted
from .quadforms import (
    QuadForm,
    Representation,
    class_number,
    is_reduced,
    properly_representable,
    reduced_forms,
    represent_x2_ny2,
)
from .weil import (
    DimensionParam,
    EndAlgebraCertificate,
    PlaceInvariant,
    WeilPolynomial,
    WeilQuadruple,
    build_quadruple,
    certify,
    check_p1,
    check_p2,
    cm_field_discriminant,
    endomorphism_degree,
    find_smallest,
    is_sophie_germain,
    local_invariants,
    membership_Pg,
    run_certificate_checks,
    scan_quadruples,
    solve_general_p1m,
    sophie_germain_list,
    splitting_order,
    valuations_oracle,
    verify_weil_number,
    weil_polynomial,
)

__version__ = "0.1.0"
