"""Versioned JSON (de)serialisation for trained models.

The format is self-describing: every record carries a ``type`` tag and the
top-level file pins a schema version, so model files written by ``train``
can be consumed by ``allocate`` across releases.  Loading builds each model
through its constructor, which compiles it (see ``learners.base``), so a
malformed record raises ``DataError`` at load, never at the first predict.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..errors import DataError
from .base import ConstantModel, GaussianNBModel, LogisticModel, TreeModel
from .ensembles import AdaBoostModel, BaggingModel, StackingModel

__all__ = ["model_from_dict", "save_bundle", "load_bundle"]

MODEL_SCHEMA_VERSION = 1


def _records(kind: str, d: dict, key: str) -> list:
    """The models of list ``d[key]``, rebuilt."""
    if not isinstance(d[key], list):
        raise DataError(f"{kind} model record's {key} must be a list, got {d[key]!r:.200}")
    return [model_from_dict(m) for m in d[key]]


def model_from_dict(d: dict):
    """Rebuild a model from its ``to_dict()`` form; a malformed one raises ``DataError``."""
    kind = d.get("type") if isinstance(d, dict) else None
    try:
        if kind in ("cart_tree", "random_tree"):
            return TreeModel.from_dict(d)
        if kind == "gaussian_nb":
            return GaussianNBModel.from_dict(d)
        if kind == "logistic":
            return LogisticModel.from_dict(d)
        if kind == "constant":
            return ConstantModel.from_dict(d)
        if kind == "adaboost":
            return AdaBoostModel(_records(kind, d, "members"), d["alphas"], d["n_features"])
        if kind == "bagging":
            return BaggingModel(_records(kind, d, "members"), d["n_features"])
        if kind == "stacking":
            return StackingModel(_records(kind, d, "bases"), model_from_dict(d["meta"]), d["n_features"])
    except KeyError as exc:
        raise DataError(f"{kind} model record is missing key {exc}") from None
    raise DataError(f"unknown model type {kind!r}")


def save_bundle(path, models: dict, metadata: dict | None = None) -> None:
    """Write named models to one JSON file (e.g. boost / bagging / stacking)."""
    payload = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "models": {name: m.to_dict() for name, m in models.items()},
        "metadata": metadata or {},
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def load_bundle(path) -> tuple:
    """Read a model file; returns ({name: model}, metadata)."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        raise DataError(f"cannot read model file {path}: {exc}") from exc
    if not isinstance(payload, dict) or not isinstance(payload.get("models"), dict):
        raise DataError(f"model file {path} must hold a JSON object with a 'models' mapping")
    version = payload.get("schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise DataError(
            f"model file {path} has schema version {version}, expected {MODEL_SCHEMA_VERSION}"
        )
    models = {name: model_from_dict(d) for name, d in payload["models"].items()}
    return models, payload.get("metadata", {})
