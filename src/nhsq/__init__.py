"""Non-homogeneous square functions.

Constructive objects from one family of counterexamples in non-doubling
harmonic analysis: a Cantor-type measure whose conical square function is
L2-bounded at aperture 1 but divergent at any wider aperture, a log-product
function whose vertical square function escapes every L^p for p > 2, random
shifted dyadic grids with stopping-time machinery, and a reproducible
experiment harness over all of it.
"""

from .dyadic import (
    Cube,
    GoodnessParams,
    ShiftedGrid,
    StoppingForest,
    build_stopping,
    carleson_packing,
    classify_good,
    estimate_pi_good,
    martingale_decompose,
)
from .errors import NhsqError
from .kernels import (
    CantorKernel,
    LogProductKernel,
    StepKernel,
    TildeKernel,
    check_holder_condition,
    check_size_condition,
)
from .logproduct import (
    LogProductFn,
    SpacedSetFamily,
    build_logproduct,
    carleson_log_bound,
    eval_f,
    log_moments,
    lp_divergence_witness,
)
from .measures import (
    CantorMeasure,
    CantorParams,
    LebesgueInterval,
    NodeGeometry,
    growth_constant,
)
from .sqfn import (
    CantorSquareContext,
    LeafFunction,
    NormSeries,
    QuadratureConfig,
    ci_profile,
    conical_norm_series,
    conical_value,
    direct_norm_series,
    l2_operator_ratio,
    testing_functional,
    validate_collapse,
    vertical_norm_series,
    vertical_value,
    weak11_functional,
)

__version__ = "0.1.0"
