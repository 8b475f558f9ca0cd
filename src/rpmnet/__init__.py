"""Open-set network intrusion detection with reciprocal-point models.

Train a multi-class detector on known attack classes only, classify
known traffic, and flag unknown threats by thresholding the maximum
reciprocal-point distance.
"""

__version__ = "0.1.0"

from .config import TrainConfig
from .dataio import (
    Bundle,
    ClassRoles,
    FlowDataset,
    OpenSetSplit,
    Scaler,
    fit_scaler,
    load_bundle,
    load_csv,
    load_roles,
    make_split,
    preset_roles_path,
    save_bundle,
    save_csv,
)
from .losses import LossBreakdown, ce_loss, fisher_loss, margin_loss, total_loss
from .metrics import REJECTED, EvalReport, aupr, auroc, evaluate, macro_prf
from .model import ModelParams, class_distances, embed, init_params, logits, reciprocal_distance
from .openset import ScoredBatch, Threshold, calibrate, detect, msp_score, score
from .train import EpochStats, TrainingDivergedError, adam_step, format_history, train

__all__ = [
    "__version__",
    "TrainConfig",
    "Bundle",
    "ClassRoles",
    "FlowDataset",
    "OpenSetSplit",
    "Scaler",
    "fit_scaler",
    "load_bundle",
    "load_csv",
    "load_roles",
    "make_split",
    "preset_roles_path",
    "save_bundle",
    "save_csv",
    "LossBreakdown",
    "ce_loss",
    "fisher_loss",
    "margin_loss",
    "total_loss",
    "REJECTED",
    "EvalReport",
    "aupr",
    "auroc",
    "evaluate",
    "macro_prf",
    "ModelParams",
    "class_distances",
    "embed",
    "init_params",
    "logits",
    "reciprocal_distance",
    "ScoredBatch",
    "Threshold",
    "calibrate",
    "detect",
    "msp_score",
    "score",
    "EpochStats",
    "TrainingDivergedError",
    "adam_step",
    "format_history",
    "train",
]
