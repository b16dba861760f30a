"""cuspforge: cusps of X_0(N)/X_1(N), genus formulas, Weierstrass verdicts."""

__version__ = "0.1.0"

from .arith import (
    DeltaSubgroup,
    delta_d,
    divisors,
    full_units,
    pm_one,
    projection_image_size,
    totient,
    units,
)
from .cusps import (
    GAMMA0,
    GAMMA1,
    CuspClass,
    atlas,
    atlas_delta,
    canonicalize_x0,
    canonicalize_x1,
    width,
)
from .criteria import (
    NOT_WEIERSTRASS,
    UNKNOWN,
    WEIERSTRASS,
    CertStep,
    GapSequence,
    SurveyReport,
    Verdict,
    certify_x1_20,
    gap_sequence_from_nongaps,
    schoeneberg,
    survey_x1,
    x0_verdict,
    x1_verdict,
)
from .etaq import (
    CuspDivisor,
    EtaQuotient,
    QSeries,
    divisor,
    eta_series,
    ord_at_cusp,
    order_over_12n,
    quotient_series,
)
from .genus import GenusProfile, g0, g1, genus_delta
from .symmetry import act_atkin_lehner, cusp_orbits_x1
