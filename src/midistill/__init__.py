"""midistill: mutual-information feature selection, RRw re-weighting and
autoencoder dimensional reduction for tabular malware-traffic datasets."""

from .dataset import (
    DataSplit,
    Dataset,
    apply_minmax,
    fit_minmax,
    inject_random_features,
    load_csv,
    split,
    write_csv,
)
from .infotheory import (
    BINNING_STRATEGIES,
    BinningConfig,
    DiscreteColumn,
    conditional_mutual_information,
    discretize,
    entropy,
    joint_entropy,
    mutual_information,
)
from .metrics import ClassifierMetrics, compute_metrics
from .neural import (
    NeuralModel,
    TrainingCurve,
    ae_encode,
    ae_new,
    ae_train,
    gate_train,
    mlp_new,
    mlp_predict,
    mlp_train,
)
from .pipeline import PipelineConfig, run, run_ae, run_evaluate, run_fs, run_rrw
from .ranking import ALGORITHMS, CountTable, FeatureRanking, rank
from .rrw import RRwWeights, apply_weights, avg_f1_cv, rrw_scores
from .selection import (
    EliminationTrace,
    LearnRows,
    TamperingAudit,
    average_fold_ranks,
    backward_eliminate,
    tampering_audit,
)

__version__ = "0.1.0"
