"""Exact monomial-ideal engine for prime filtrations of ideal powers."""

__version__ = "0.1.0"

from .closure import (
    ClosureChain,
    NewtonPolyhedron,
    closure_powers_report,
    integral_closure_power,
    newton_polyhedron,
    noetherian_exponent,
    rees_cofinality_constant,
)
from .decomposition import (
    IrreducibleComponent,
    MonomialPrime,
    ass_witnesses,
    associated_primes,
    dimension,
    irreducible_decomposition,
    minh,
    minimal_primes,
    prime_avoidance_element,
)
from .epsilon import EpsilonEstimate, epsilon_estimate, filtration_bound_check, h0_length
from .errors import (
    CertificateError,
    DegenerateIdealError,
    DimensionLimitError,
    GluePreconditionError,
    IdealSyntaxError,
    InfeasibleError,
    InfiniteLengthError,
    MonofiltError,
)
from .filtration import (
    CmCertificate,
    PrimeFiltration,
    cm_certificate,
    glue,
    localize_factors,
    naive_prime_filtration,
    validate,
)
from .powers import (
    FiltrationEngine,
    PowersReport,
    ass_stability,
    bad_filtration_fixture,
    powers_report,
    theorem_filtration,
)
from .ring import (
    MonomialIdeal,
    RingContext,
    context,
    ideal,
    parse_ideal,
    parse_problem,
    unit_ideal,
    zero_ideal,
)
from .superficial import (
    CyclicFilteredModule,
    SpliceCertificate,
    SuperficialCertificate,
    cofinality_table,
    colon_threshold,
    find_superficial,
    verify_certificate,
)
