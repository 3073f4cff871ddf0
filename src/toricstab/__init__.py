"""toricstab: exact stability thresholds for polarized toric varieties.

Everything is computed in exact rational arithmetic: lattice polytopes and
their volumes, one-parameter volume curves and Zariski decompositions, the
radial functionals of test curves (energy, entropy, the J-type functionals),
Duistermaat-Heckman measures, and the threshold quotients they define.
"""

from .errors import (
    AlreadyARay,
    DegeneratePolytope,
    DimensionMismatch,
    InfeasibleTau,
    InvariantViolation,
    NonPrimitive,
    NotAmple,
    NotBig,
    NotBigOnUnitInterval,
    NotMonotone,
    NotNefAndNotDecomposable,
    NotPseudoEffective,
    OutOfRange,
    RangeTooShort,
    ToricStabError,
    UnboundedRegion,
    ZeroDivisor,
    ZeroVector,
)
from .geometry import (
    Halfspace,
    ParametricPolytope,
    Polytope,
    linear_stats,
    parametric_family,
    vertices_of,
    volume,
)
from .toric import (
    Fan,
    FanDiagnostics,
    ToricDivisor,
    ZariskiPair,
    anticanonical,
    divisor,
    intersection_number,
    is_ample,
    is_nef,
    log_discrepancy,
    polytope_of,
    ray_divisor,
    star_subdivision,
    validate_fan,
    zariski_decompose,
    zero_divisor,
)
from .volume_fn import (
    PiecewisePolynomial,
    Polynomial,
    big_volume,
    positive_pairing,
    stabilized_volume,
    volume_curve,
)
from .filtrations import (
    DHMeasure,
    MonomialIdealData,
    dh_measure,
    energy_from_dh,
    filtration_curve,
    flag_curve_value,
)
from .test_curves import (
    CurveSummary,
    TestCurve,
    alpha_energy,
    curve_summary,
    energy,
    entropy,
    extended_curve,
    g_pairing,
    jtilde,
    mass,
    ricci_energy,
    truncated_curve,
    twisted_mabuchi,
)
from .thresholds import (
    ThresholdReport,
    delta_pp_quotient,
    delta_prime_quotient,
    delta_quotient,
    delta_search,
    inequality_report,
    s_invariant,
)

__version__ = "0.1.0"
