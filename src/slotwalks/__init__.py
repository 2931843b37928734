"""Object-centric representation learning without decoders.

A slot-attention encoder binds K latent slots to N feature vectors and is
trained purely by cycle-consistency of two-hop random walks between the
feature nodes ("parts") and the slot nodes ("whole"). The package bundles
the numerics, the encoder, the walk losses, a synthetic scene generator
with a binary feature-file format, a deterministic trainer, inference
helpers, and segmentation metrics.
"""

__version__ = "0.17.0"

from . import autodiff
from .data import Scene, SceneConfig, generate_scene, load_dataset, read_feature_file, write_feature_file
from .errors import (
    CompatibilityError,
    ConfigError,
    DataFormatError,
    DegenerateInputError,
    ShapeError,
    TrainingDivergenceError,
    UndefinedMetricError,
)
from .infer import (
    evaluate_discovery,
    evaluate_foreground,
    foreground_select,
    semantic_segment,
    slot_masks,
    write_mask_pgm,
)
from .metrics import EvalReport, ari_fg, assign_classes, dice, kmeans, miou
from .slots import SlotParams, SlotState, attention_step, encode, gru_update, init_slots
from .train import (
    Checkpoint,
    OptimState,
    TrainConfig,
    TrainResult,
    adamw_step,
    clip_grad_norm,
    format_config,
    load_checkpoint,
    lr_at,
    parse_config_text,
    save_checkpoint,
    train,
)
from .walks import WalkConfig, WalkProjection, adjacency, pwp_loss, pwp_target, total_loss, wpw_loss

__all__ = [
    "__version__",
    "autodiff",
    "Scene",
    "SceneConfig",
    "generate_scene",
    "load_dataset",
    "read_feature_file",
    "write_feature_file",
    "CompatibilityError",
    "ConfigError",
    "DataFormatError",
    "DegenerateInputError",
    "ShapeError",
    "TrainingDivergenceError",
    "UndefinedMetricError",
    "evaluate_discovery",
    "evaluate_foreground",
    "foreground_select",
    "semantic_segment",
    "slot_masks",
    "write_mask_pgm",
    "EvalReport",
    "ari_fg",
    "assign_classes",
    "dice",
    "kmeans",
    "miou",
    "SlotParams",
    "SlotState",
    "attention_step",
    "encode",
    "gru_update",
    "init_slots",
    "Checkpoint",
    "OptimState",
    "TrainConfig",
    "TrainResult",
    "adamw_step",
    "clip_grad_norm",
    "format_config",
    "load_checkpoint",
    "lr_at",
    "parse_config_text",
    "save_checkpoint",
    "train",
    "WalkConfig",
    "WalkProjection",
    "adjacency",
    "pwp_loss",
    "pwp_target",
    "total_loss",
    "wpw_loss",
]
