"""Gradient-alignment example weighting for long-tail training."""

__version__ = "0.1.0"

from .algorithm import (
    BatchWeighting,
    GradTailConfig,
    GradTailState,
    activation_f,
    step_arrays,
)
from .datasets import (
    Dataset2D,
    DenseGrid,
    GaussianSpec,
    gen_dense_task,
    gen_hard_variant,
    gen_two_gaussians,
)
from .engine import (
    TrainConfig,
    TrainingDiverged,
    TrainResult,
    dense_config,
    train,
    train_dense,
)
from .mlp import MlpModel, batch_gradients

__all__ = [
    "__version__",
    "BatchWeighting",
    "GradTailConfig",
    "GradTailState",
    "activation_f",
    "step_arrays",
    "Dataset2D",
    "DenseGrid",
    "GaussianSpec",
    "gen_dense_task",
    "gen_hard_variant",
    "gen_two_gaussians",
    "TrainConfig",
    "TrainingDiverged",
    "TrainResult",
    "dense_config",
    "train",
    "train_dense",
    "MlpModel",
    "batch_gradients",
]
