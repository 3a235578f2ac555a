"""Shared domain types: queries, their constraints, node digests and states.

The decision engine sees each (query, node) pair as five features: the
query's complexity scalar and deadline, the node's data relevance for the
query, and the node's load and speed.  ``complexity_scalar`` collapses a
complexity vector into the first of them; ``simulator`` assembles the
feature matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexity import ComplexityVector

__all__ = [
    "QueryConstraints",
    "Query",
    "DatasetDigest",
    "NodeState",
    "complexity_scalar",
]

DEFAULT_QUEUE_CAPACITY = 100


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
        if np.any(arr[:, 0] > arr[:, 1]):
            raise ValueError("constraint minima must not exceed maxima")
        object.__setattr__(self, "intervals", arr)

    @property
    def dims(self) -> int:
        return self.intervals.shape[0]

    def __len__(self) -> int:
        return self.dims


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
        if self.deadline < 0:
            raise ValueError(f"deadline must be >= 0, got {self.deadline}")


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
        if np.any(spreads < 0):
            raise ValueError("spreads must be non-negative")
        if self.cardinality < 1:
            raise ValueError(f"cardinality must be >= 1, got {self.cardinality}")
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
        if self.queue_capacity < 1:
            raise ValueError("queue capacity must be >= 1")


def complexity_scalar(vector: ComplexityVector) -> float:
    """Collapse class memberships into one scalar in (0, 1].

    The winning class's membership is scaled by (class index + 1) / number of
    classes, so the scalar grows both with the class rank and with how
    confidently the class was matched.
    """
    k = len(vector.memberships)
    best = vector.argmax()
    return vector.memberships[best] * (best + 1) / k
