"""Shared domain types: queries, their constraints, node digests and states.

The decision engine sees each (query, node) pair as one context row of
features: the query's complexity scalar and deadline, the node's data
relevance for the query, and the node's load and speed.  The row's layout
lives here and only here: ``CONTEXT_FEATURES`` names the features in column
order and ``context_matrix`` fills a matrix from them, for the decisions
and the training set ``simulator`` builds and the training CSV ``cli``
writes.  ``complexity_scalar`` collapses a complexity vector into the first
feature.  ``read_config`` builds any of the frozen config dataclasses from
plain YAML/JSON data.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import typing
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .complexity import ComplexityVector
from .errors import ConfigError

__all__ = [
    "QueryConstraints",
    "Query",
    "DatasetDigest",
    "NodeState",
    "CONTEXT_FEATURES",
    "complexity_scalar",
    "context_matrix",
    "read_config",
]

CONTEXT_FEATURES = ("complexity", "deadline", "relevance", "load", "speed")

DEFAULT_QUEUE_CAPACITY = 100

# node ids, queue capacities and cardinalities are held in int64 node-table arrays
INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class QueryConstraints:
    """Per-attribute (min, max) bounds a query imposes on the data, one row
    per dimension."""

    intervals: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.intervals, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"expected constraint shape (L, 2), got {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("constraints need at least one dimension")
        if not np.isfinite(arr).all():
            raise ValueError("constraint bounds must be finite, not NaN or inf")
        if not (arr[:, 0] <= arr[:, 1]).all():
            raise ValueError("constraint minima must not exceed maxima")
        object.__setattr__(self, "intervals", arr)

    @property
    def dims(self) -> int:
        return self.intervals.shape[0]


@dataclass(frozen=True)
class Query:
    """An analytics query: statement text, data constraints and a deadline."""

    id: str
    statement: str
    constraints: QueryConstraints
    deadline: float

    def __post_init__(self) -> None:
        if not self.statement or not self.statement.strip():
            raise ValueError("query statement must be non-empty")
        if not 0 <= self.deadline < math.inf:
            raise ValueError(f"deadline must be finite and >= 0, got {self.deadline}")


@dataclass(frozen=True)
class DatasetDigest:
    """Statistical synopsis of one node's dataset: per-dimension means and
    spreads plus the dataset cardinality."""

    means: np.ndarray
    spreads: np.ndarray
    cardinality: int

    def __post_init__(self) -> None:
        means = np.asarray(self.means, dtype=float)
        spreads = np.asarray(self.spreads, dtype=float)
        if means.ndim != 1 or means.shape != spreads.shape:
            raise ValueError("means and spreads must be 1-D with equal length")
        if not (np.isfinite(means).all() and np.isfinite(spreads).all()):
            raise ValueError("means and spreads must be finite")
        if np.any(spreads < 0):
            raise ValueError("spreads must be non-negative")
        if not 1 <= self.cardinality <= INT64_MAX:
            raise ValueError(f"cardinality must be in [1, 2**63 - 1], got {self.cardinality!r:.200}")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "spreads", spreads)

    @property
    def dims(self) -> int:
        return self.means.shape[0]


@dataclass
class NodeState:
    """A node's load and speed plus its dataset digest.

    ``load`` is the snapshot ``ova_allocate`` decides on; a simulated run
    takes its loads from the load series or its own queue occupancy and
    leaves the node untouched.
    """

    node_id: int
    load: float
    speed: float
    digest: DatasetDigest
    queue_capacity: int = DEFAULT_QUEUE_CAPACITY

    def __post_init__(self) -> None:
        if not 0.0 <= self.load <= 1.0:
            raise ValueError(f"load must be in [0, 1], got {self.load}")
        if not 0.0 <= self.speed <= 1.0:
            raise ValueError(f"speed must be in [0, 1], got {self.speed}")
        if not -INT64_MAX - 1 <= self.node_id <= INT64_MAX:
            raise ValueError(f"node id must be in [-2**63, 2**63 - 1], got {self.node_id!r:.200}")
        if not 1 <= self.queue_capacity <= INT64_MAX:
            raise ValueError(f"queue capacity must be in [1, 2**63 - 1], got {self.queue_capacity!r:.200}")


def complexity_scalar(vector: ComplexityVector) -> float:
    """Collapse class memberships into one scalar in (0, 1].

    The winning class's membership is scaled by (class index + 1) / number of
    classes, so the scalar grows both with the class rank and with how
    confidently the class was matched.
    """
    k = len(vector.memberships)
    best = vector.argmax()
    return vector.memberships[best] * (best + 1) / k


def context_matrix(n: int, complexity, deadline, relevance, load, speed) -> np.ndarray:
    """The (n, 5) context matrix, one row per (query, node) pair, column j
    holding feature ``CONTEXT_FEATURES[j]``; each feature is a scalar or an
    (n,) array.  Filled column by column, without a loop, because every
    decision calls it."""
    out = np.empty((n, len(CONTEXT_FEATURES)))
    out[:, 0] = complexity
    out[:, 1] = deadline
    out[:, 2] = relevance
    out[:, 3] = load
    out[:, 4] = speed
    return out


_KINDS = {int: "an integer", float: "a finite number", str: "a string"}


def read_config(cls, data, key: str = ""):
    """Build the frozen dataclass ``cls`` from a plain YAML/JSON mapping.

    Each value is read by its field's annotation: a dataclass, ``tuple[X,
    ...]``, ``Optional[X]``, an enum, ``int``, ``float`` or ``str`` (the
    rules are in ``cli.load_config``).  Errors raise ``ConfigError`` naming
    the dotted key, of which ``key`` is the prefix.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{key or 'config'} must be a mapping, got {data!r}")
    types = typing.get_type_hints(cls)
    prefix = f"{key}." if key else ""
    unknown = [f"{prefix}{name}" for name in data if name not in types]
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}")
    kwargs = {name: _read_value(types[name], value, f"{prefix}{name}") for name, value in data.items()}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{key or 'config'}: {exc}") from None


def _read_value(tp, value, key: str):
    args = typing.get_args(tp)
    if typing.get_origin(tp) is typing.Union:  # Optional[X]
        return None if value is None else _read_value(args[0], value, key)
    if typing.get_origin(tp) is tuple:  # tuple[X, ...]
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        return tuple(_read_value(args[0], v, f"{key}[{i}]") for i, v in enumerate(value))
    if dataclasses.is_dataclass(tp):
        return read_config(tp, value, key)
    if issubclass(tp, Enum):
        allowed = [member.value for member in tp]
        if isinstance(value, str) and value.lower() in allowed:
            return tp(value.lower())
        raise ConfigError(f"{key} must be one of {allowed}, got {value!r}")
    if tp is float and type(value) in (int, float) and -sys.float_info.max <= value <= sys.float_info.max:
        return float(value)
    if tp is not float and type(value) is tp:
        return value
    raise ConfigError(f"{key} must be {_KINDS[tp]}, got {value!r}")
