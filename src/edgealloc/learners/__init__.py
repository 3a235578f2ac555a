"""Tabular binary classifiers and the ensemble wrappers built on them."""

from .base import (
    BaseLearnerSpec,
    ConstantModel,
    GaussianNBModel,
    LabeledDataset,
    LogisticModel,
    TreeModel,
    train_base,
)
from .ensembles import (
    AdaBoostModel,
    BaggingModel,
    StackingModel,
    bootstrap_indices,
    train_adaboost,
    train_bagging,
    train_stacking,
)
from .serialize import load_bundle, model_from_dict, save_bundle

__all__ = [
    "BaseLearnerSpec",
    "LabeledDataset",
    "train_base",
    "ConstantModel",
    "TreeModel",
    "GaussianNBModel",
    "LogisticModel",
    "AdaBoostModel",
    "BaggingModel",
    "StackingModel",
    "train_adaboost",
    "train_bagging",
    "train_stacking",
    "bootstrap_indices",
    "save_bundle",
    "load_bundle",
    "model_from_dict",
]
