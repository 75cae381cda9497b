"""Desk-scale laboratory for separating hard-to-learn samples from
noisy-labeled samples in vector classification datasets."""

from .data import Dataset, GridSpec, allocate_cells, generate_base
from .errors import (
    ConfigurationError,
    DegenerateDataError,
    NoisesiftError,
    StageError,
    TrainingDivergedError,
    UnknownMethodError,
)
from .evaluation import EvalReport, anova_f, retrain_on_subset, score_partition, spearman_rho
from .gmm import GmmConfig, GmmModel, fit_gmm, log_likelihood, responsibilities
from .metrics import (
    ACD_VARIANT,
    SCD_VARIANT,
    CentroidVariant,
    MetricTable,
    compute_metric_table,
)
from .mlp import (
    Model,
    TraceStore,
    TrainConfig,
    evaluate,
    init_model,
    input_gradient,
    train,
    train_with_tracing,
)
from .partition import (
    MethodSpec,
    Partition,
    builtin_methods,
    lookup_method,
    partition_gmm,
    partition_threshold,
    run_method,
    run_methods,
)
from .pipeline import run_pipeline
from .transforms import (
    NoiseSpec,
    apply_boundary_shift,
    apply_diversification,
    apply_imbalance,
    inject_label_noise,
)

__version__ = "0.1.0"
