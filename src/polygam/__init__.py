"""Additive models with piecewise cubic shape functions fit by boosting."""

import os as _os
import sys as _sys
import warnings as _warnings

# Thread cap must land before numpy initializes its BLAS backend, which is
# why it lives here rather than in the CLI module.
_threads = _os.environ.get("PB_THREADS")
if _threads:
    _unset = [
        _var
        for _var in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
        )
        if _var not in _os.environ
    ]
    for _var in _unset:
        _os.environ[_var] = _threads
    # A re-import finds every variable set already and stays quiet.
    if _unset and "numpy" in _sys.modules:
        _warnings.warn(
            "PB_THREADS has no effect: numpy was imported before polygam, and "
            "the BLAS thread count was fixed when numpy loaded",
            RuntimeWarning,
            stacklevel=2,
        )

from .booster import (
    LogRecord,
    TrainConfig,
    TrainResult,
    candidate_gain,
    leaf_value,
    replay,
    train,
    write_log,
)
from .data import (
    CATEGORICAL,
    NUMERIC,
    BinLayout,
    Dataset,
    FeatureBins,
    SplitScheme,
    build_bin_layout,
    build_bins,
    load_csv,
    load_feature_matrix,
    split_indices,
)
from .errors import ConfigError, DataError, NumericError
from .explain import ShapeGrid, elasticity, export_shapes, render_svg, shape_grid
from .losses import DerivativeBatch, derivatives, hessian_diag, link_apply, loss_eval
from .model import (
    ConstraintSpec,
    FeatureConstraint,
    ParameterStore,
    ShapeParams,
    accumulate_global,
    accumulate_update,
    evaluate_derivative,
    evaluate_shape,
    knot_gaps,
    load_model,
    predict,
    save_model,
    zero_init,
)
from .uncertainty import (
    UncertaintyTable,
    attach_se_accumulators,
    param_se,
    shape_ci,
    variance_pred,
)

__version__ = "0.1.0"

__all__ = [
    "BinLayout",
    "CATEGORICAL",
    "ConfigError",
    "ConstraintSpec",
    "DataError",
    "Dataset",
    "DerivativeBatch",
    "FeatureBins",
    "FeatureConstraint",
    "LogRecord",
    "NUMERIC",
    "NumericError",
    "ParameterStore",
    "ShapeGrid",
    "ShapeParams",
    "SplitScheme",
    "TrainConfig",
    "TrainResult",
    "UncertaintyTable",
    "accumulate_global",
    "accumulate_update",
    "attach_se_accumulators",
    "build_bin_layout",
    "build_bins",
    "candidate_gain",
    "derivatives",
    "elasticity",
    "evaluate_derivative",
    "evaluate_shape",
    "export_shapes",
    "hessian_diag",
    "knot_gaps",
    "leaf_value",
    "link_apply",
    "load_csv",
    "load_feature_matrix",
    "load_model",
    "loss_eval",
    "param_se",
    "predict",
    "render_svg",
    "replay",
    "save_model",
    "shape_ci",
    "shape_grid",
    "split_indices",
    "train",
    "variance_pred",
    "write_log",
    "zero_init",
]
