"""Average bit error rates for MIMO links over generalized fading.

Closed-form ABER of orthogonal space-time block codes over eta-mu
(lambda-mu) and kappa-mu shadowed channels under additive white
generalized Gaussian noise, validated against adaptive-quadrature
oracles.

Everything exported here needs only the standard library.  The
Levenberg-Marquardt refit of the noise model (``fit_q_approx``,
``levenberg_marquardt``) is imported from :mod:`gfaber.nlfit`, the one
module that needs numpy, so ``import gfaber`` does not load it.
"""

from gfaber.aber import (
    METHOD_CLOSED,
    METHOD_ORACLE_APPROX,
    METHOD_ORACLE_EXACT,
    AberCurve,
    AberScenario,
    aber_closed,
    aber_point,
    sweep,
)
from gfaber.errors import (
    ConvergenceError,
    FitConvergenceError,
    GfaberError,
    NonFiniteResidualError,
    NotTabulatedError,
    OverflowLogValue,
    QuadratureError,
    SeriesError,
)
from gfaber.fading import (
    FORMAT1,
    FORMAT2,
    CompactEtaMu,
    CompactKms,
    EtaMuParams,
    KappaMuShadowedParams,
    MimoConfig,
    compact_eta_mu,
    compact_kms,
    eta_mu_hH,
    parse_fading_json,
    special_case_params,
)
from gfaber.modulation import ModulationSpec, mod_constants, parse_modulation
from gfaber.noise import (
    TABULATED_A,
    NoiseModel,
    QApprox,
    builtin_fit,
    make_noise_model,
    q_approx,
    q_exact,
)
from gfaber.quadrature import aber_oracle, integrate_semi_infinite
from gfaber.specfun import (
    backend,
    gauss_2f1,
    ln_gamma,
    upper_incomplete_gamma,
)

__version__ = "0.1.0"

__all__ = [
    "METHOD_CLOSED",
    "METHOD_ORACLE_APPROX",
    "METHOD_ORACLE_EXACT",
    "AberCurve",
    "AberScenario",
    "CompactEtaMu",
    "CompactKms",
    "ConvergenceError",
    "EtaMuParams",
    "FORMAT1",
    "FORMAT2",
    "FitConvergenceError",
    "GfaberError",
    "KappaMuShadowedParams",
    "MimoConfig",
    "ModulationSpec",
    "NoiseModel",
    "NonFiniteResidualError",
    "NotTabulatedError",
    "OverflowLogValue",
    "QApprox",
    "QuadratureError",
    "SeriesError",
    "TABULATED_A",
    "aber_closed",
    "aber_oracle",
    "aber_point",
    "backend",
    "builtin_fit",
    "compact_eta_mu",
    "compact_kms",
    "eta_mu_hH",
    "gauss_2f1",
    "integrate_semi_infinite",
    "ln_gamma",
    "make_noise_model",
    "mod_constants",
    "parse_fading_json",
    "parse_modulation",
    "q_approx",
    "q_exact",
    "special_case_params",
    "sweep",
    "upper_incomplete_gamma",
    "__version__",
]
