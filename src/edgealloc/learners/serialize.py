"""Versioned JSON (de)serialisation for trained models.

The format is self-describing: every record carries a ``type`` tag and the
top-level file pins a schema version, so model files written by ``train``
can be consumed by ``allocate`` across releases.  A record is its type plus
its constructor's arguments, the fields its class names in ``FIELDS`` (see
``learners.base._Model``): ``_Model.to_dict`` writes it and
``model_from_dict`` reads it.  Loading builds each model through its
constructor, which compiles it (see ``learners.base``), so a malformed
record, one with a key its class does not name included, raises
``DataError`` at load, never at the first predict.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..errors import DataError
from .base import ConstantModel, GaussianNBModel, LogisticModel, TreeModel
from .ensembles import AdaBoostModel, BaggingModel, StackingModel

__all__ = ["model_from_dict", "save_bundle", "load_bundle"]

MODEL_SCHEMA_VERSION = 1

# record type -> class; a tree's kind is set per instance, so both name TreeModel
_TYPES = {cls.kind: cls for cls in (ConstantModel, GaussianNBModel, LogisticModel, AdaBoostModel, BaggingModel,
                                    StackingModel)}
_TYPES.update(cart_tree=TreeModel, random_tree=TreeModel)


# a record whose n_features does not fit its place, by place; an ensemble's
# base and a meta learner are refused in the words their parents' constructors use
_ARITY_ERRORS = {
    "model": "{kind} model reads {arity} features where {n} are expected",
    "base": "ensemble bases must all read the model's {n} features, not {arity} ({kind} base)",
    "meta": "stacking meta learner reads {arity} features, not one per base ({n})",
}


def model_from_dict(d: dict, n_features: int | None = None):
    """Rebuild a model from its ``to_dict()`` form; a malformed one raises ``DataError``.

    ``members`` and ``bases`` are lists of records and ``meta`` is one, and
    ``n_features`` is a positive int for every kind.  It must also fit the
    record's place, checked before any constructor runs: the caller's
    ``n_features`` when given, the parent's for members and bases, and the
    number of bases for a meta learner."""
    return _read(d, n_features, "model")


def _read(d, n_features: int | None, place: str):
    kind = d.get("type") if isinstance(d, dict) else None
    cls = _TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise DataError(f"unknown model type {kind!r}")
    unknown = [key for key in d if key != "type" and key not in cls.FIELDS]
    if unknown:
        raise DataError(f"{kind} model record has unknown keys {unknown!r:.200}")
    try:
        fields = {f: d[f] for f in cls.FIELDS}
    except KeyError as exc:
        raise DataError(f"{kind} model record is missing key {exc}") from None
    arity = fields["n_features"]
    if isinstance(arity, bool) or not isinstance(arity, int) or arity < 1:
        raise DataError(f"{kind} model n_features must be a positive integer, got {arity!r:.200}")
    if n_features is not None and arity != n_features:
        raise DataError(_ARITY_ERRORS[place].format(kind=kind, arity=f"{arity!r:.200}", n=n_features))
    for key in ("members", "bases"):
        if key in fields:
            if not isinstance(fields[key], list):
                raise DataError(f"{kind} model record's {key} must be a list, got {fields[key]!r:.200}")
            fields[key] = [_read(m, arity, "base") for m in fields[key]]
    if "meta" in fields:
        fields["meta"] = _read(fields["meta"], len(fields["bases"]), "meta")
    if cls is TreeModel:
        fields["kind"] = kind
    return cls(**fields)


def save_bundle(path, models: dict, metadata: dict | None = None) -> None:
    """Write named models to one JSON file (e.g. boost / bagging / stacking)."""
    payload = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "models": {name: m.to_dict() for name, m in models.items()},
        "metadata": metadata or {},
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def load_bundle(path, n_features: int | None = None) -> tuple:
    """Read a model file; returns ({name: model}, metadata).  With
    ``n_features`` given, every top-level model must read that many."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise DataError(f"cannot read model file {path}: {exc}") from exc
    if not isinstance(payload, dict) or not isinstance(payload.get("models"), dict):
        raise DataError(f"model file {path} must hold a JSON object with a 'models' mapping")
    unknown = [key for key in payload if key not in ("schema_version", "models", "metadata")]
    if unknown:
        raise DataError(f"model file {path} has unknown keys {unknown!r:.200}")
    metadata = payload.get("metadata", {})
    if not isinstance(metadata, dict):
        raise DataError(f"model file {path} metadata must be a mapping, got {metadata!r:.200}")
    version = payload.get("schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise DataError(
            f"model file {path} has schema version {version}, expected {MODEL_SCHEMA_VERSION}"
        )
    try:
        models = {name: model_from_dict(d, n_features) for name, d in payload["models"].items()}
    except (DataError, RecursionError) as exc:  # RecursionError: records nested too deep
        raise DataError(f"model file {path}: {exc}") from None
    return models, metadata
