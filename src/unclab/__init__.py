"""unclab: angle/angular-momentum uncertainty products of periodic states.

Library + CLI for states f_alpha(phi) = A sum_n C_n(alpha) e^{i n phi}
on [-pi, pi]: normalized truncated spectra, series and quadrature moment
engines, closed forms for the exponential/polynomial coefficient
families, and the dominance-condition machinery deciding whether the
uncertainty product sigma_phi sigma_Lz can be made arbitrarily small.
hbar = 1 throughout.
"""

from .analysis import (
    AdmissibilityReport,
    DominanceVerdict,
    SweepRow,
    check_admissibility,
    check_dominance,
    evaluate_family,
    find_alpha_star,
    find_bound_crossing,
    sweep,
)
from .closed_forms import (
    ExpFamilyEval,
    PolyFamilyEval,
    exp_closed,
    poly_closed,
)
from .errors import (
    DegenerateState,
    DivergentMoment,
    InvalidParameter,
    NoBracket,
    NonConvergent,
    NotAttainable,
    ToleranceNotMet,
    UncLabError,
)
from .families import (
    CoefficientFamily,
    exponential_family,
    family_from_dict,
    load_family,
    polynomial_family,
    single_mode_family,
    table_family,
    two_mode_family,
)
from .moments import (
    MomentReport,
    TrigReport,
    lz_moments,
    phi_moments,
    trig_report,
    uncertainty_report,
    xi_sum,
)
from .quadrature import (
    CompareReport,
    ComparisonRow,
    QuadratureResult,
    adaptive_simpson,
    compare_report,
    quad_lz_moment,
    quad_norm,
    quad_phi_moment,
    quad_trig_moment,
)
from .special import EvalResult, dilog, zeta
from .spectrum import (
    TruncatedSpectrum,
    boundary_density,
    build_spectrum,
    tail_second_moment,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport",
    "CoefficientFamily",
    "CompareReport",
    "ComparisonRow",
    "DegenerateState",
    "DivergentMoment",
    "DominanceVerdict",
    "EvalResult",
    "ExpFamilyEval",
    "InvalidParameter",
    "MomentReport",
    "NoBracket",
    "NonConvergent",
    "NotAttainable",
    "PolyFamilyEval",
    "QuadratureResult",
    "SweepRow",
    "ToleranceNotMet",
    "TrigReport",
    "TruncatedSpectrum",
    "UncLabError",
    "adaptive_simpson",
    "boundary_density",
    "build_spectrum",
    "check_admissibility",
    "check_dominance",
    "compare_report",
    "dilog",
    "evaluate_family",
    "exp_closed",
    "exponential_family",
    "family_from_dict",
    "find_alpha_star",
    "find_bound_crossing",
    "load_family",
    "lz_moments",
    "phi_moments",
    "poly_closed",
    "polynomial_family",
    "quad_lz_moment",
    "quad_norm",
    "quad_phi_moment",
    "quad_trig_moment",
    "single_mode_family",
    "sweep",
    "table_family",
    "tail_second_moment",
    "trig_report",
    "two_mode_family",
    "uncertainty_report",
    "xi_sum",
    "zeta",
]
