"""Test-time adaptation of a frozen network through a learnable spectral
filter acting in a PCA basis of an intermediate feature map."""

from .errors import (
    ConfigError,
    ContractViolationError,
    EmptyBasisError,
    HelperProcessError,
    NumericalFailureError,
    RankDeficientError,
)
from .linalg import SvdResult, svd
from .pca import (
    PcaBasis,
    fit_incremental,
    inverse_transform,
    transform,
)
from .filters import (
    NEG_EXP,
    RELU_RIDGE,
    SpectralFilter,
    apply_filter,
    apply_filter_backward,
)
from .network import (
    Model,
    build_model,
    fit_pca_from_source,
    insert_adapter,
    load_model,
    remove_adapter,
    save_model,
    train_model,
)
from .adapt import (
    AdaptConfig,
    AdamState,
    RunRecord,
    adam_step,
    baseline_bn_stats,
    baseline_no_adapt,
    baseline_bn_modulators,
    entropy,
    entropy_grad,
    run_adaptation,
)
from .ridge import (
    RegressionProblem,
    ridge_closed_form,
    spectral_ridge,
    verify_equivalence,
)

__version__ = "0.1.0"
