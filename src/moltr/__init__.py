"""moltr: multi-objective learning to rank via model distillation.

Per-objective teacher rankers are fused into soft labels, a student model
is trained against hard primary-objective labels plus the soft labels, and
later maintained by self-distillation. Includes a synthetic marketplace
data generator, ranking/reproducibility metrics, and a study pipeline.
"""

from .data import (
    Dataset,
    GeneratorConfig,
    ObjectiveSpec,
    QueryGroup,
    generate_dataset,
    load_dataset,
    save_dataset,
    split_by_time,
)
from .distill import (
    BoostRule,
    DistillConfig,
    Model,
    Run,
    SoftLabelSet,
    TeacherEnsemble,
    fuse_soft_labels,
    fusion_serve_scores,
    inject_boost,
    score_dataset,
    self_distill_step,
    train_hard_only,
    train_runs,
    train_scalarized_baseline,
    train_student,
    train_teacher,
    train_teachers,
)
from .errors import (
    CalibrationError,
    ConfigError,
    InputError,
    MoltrError,
    ParseError,
    TrainingError,
)
from .evaluation import (
    exposure_rate,
    ndcg_at_k,
    prediction_difference,
    ranking_metrics_report,
    serve_with_boost,
    sxs_change_rate,
)
from .nn import (
    MlpConfig,
    ParameterSet,
    cross_entropy,
    distill_loss,
    init_params,
    listwise_softmax,
    mlp_forward,
    sgd_step,
)

__version__ = "0.1.0"
