"""The decision engine: per-node ensemble fusion plus one-vs-all voting.

``decide_from_features`` takes the (N, 5) feature matrix of one query
against N nodes.  The three trained ensembles each label every row; the
labels fuse under either a conjunctive scheme (all three must agree) or a
majority scheme (at least two).  Voting then turns the per-node labels into
a ranking: a positive node votes for itself, a negative node votes for
everyone else.  Ties resolve by lowest load, then lowest node id, and the
first k nodes of that single ranking are the picks.  The feature matrix
itself is assembled in ``simulator``, which is also where ``ova_allocate``
lives.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "FusionScheme",
    "EnsembleBundle",
    "AllocationDecision",
    "fuse",
    "fuse_batch",
    "tally_votes",
    "rank_nodes",
    "decide_from_features",
]

# floor applied to measured decision times; protects throughput figures
# against clock resolution
MIN_DECISION_MS = 1e-3


class FusionScheme(str, Enum):
    CS = "cs"  # conjunctive: allocate only on unanimity
    MVS = "mvs"  # majority: allocate on >= 2 of 3

    @classmethod
    def parse(cls, value) -> "FusionScheme":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise ValueError(f"unknown fusion scheme {value!r}; expected 'cs' or 'mvs'") from None


@dataclass(frozen=True)
class EnsembleBundle:
    """The three trained ensembles consulted per node."""

    boost: object
    bagging: object
    stacking: object

    def models(self) -> tuple:
        return (self.boost, self.bagging, self.stacking)


def fuse(y1: int, y2: int, y3: int, scheme: FusionScheme) -> int:
    """Fuse three binary opinions into one label."""
    for y in (y1, y2, y3):
        if y not in (0, 1):
            raise ValueError(f"fusion inputs must be binary, got {y!r}")
    scheme = FusionScheme.parse(scheme)
    if scheme is FusionScheme.CS:
        return y1 * y2 * y3
    return 1 if (y1 + y2 + y3) >= 2 else 0


def fuse_batch(labels: np.ndarray, scheme: FusionScheme) -> np.ndarray:
    """Row-wise fusion of an (N, 3) binary label matrix."""
    scheme = FusionScheme.parse(scheme)
    if scheme is FusionScheme.CS:
        return labels.prod(axis=1)
    return (labels.sum(axis=1) >= 2).astype(labels.dtype)


def tally_votes(fused: np.ndarray) -> np.ndarray:
    """Vote counts under one-vs-all voting.

    A node labelled 1 gains one vote; a node labelled 0 gives one vote to
    every node except itself.  Equivalently votes_i = 2*b_i + zeros - 1.
    """
    fused = np.asarray(fused, dtype=int)
    zeros = int((fused == 0).sum())
    return 2 * fused + zeros - 1


def rank_nodes(votes: np.ndarray, loads: np.ndarray, node_ids: np.ndarray) -> np.ndarray:
    """Positions ordered by votes desc, then load asc, then node id asc."""
    return np.lexsort((node_ids, loads, -np.asarray(votes)))


@dataclass(frozen=True)
class AllocationDecision:
    """Outcome of one allocation: fused labels, tallies, the k picks in
    ranking order, and timing."""

    node_ids: np.ndarray
    fused_labels: np.ndarray
    votes: np.ndarray
    loads: np.ndarray
    speeds: np.ndarray
    selected: tuple
    decision_ms: float

    def __post_init__(self) -> None:
        if len(self.selected) == 0:
            raise ValueError("a decision must select at least one node")
        if self.decision_ms < 0:
            raise ValueError("decision time must be >= 0")
        if np.any(self.votes < 0):
            raise ValueError("vote tallies must be >= 0")


def decide_from_features(
    features: np.ndarray,
    node_ids: np.ndarray,
    loads: np.ndarray,
    speeds: np.ndarray,
    bundle: EnsembleBundle,
    scheme: FusionScheme,
    k: int = 1,
    started: float | None = None,
) -> AllocationDecision:
    """Label, fuse, vote and rank given a prebuilt (N, 5) feature matrix.

    The k picks are the first k positions of the one ranking; the decision
    time runs from ``started`` (default: now) to the end of the ranking.
    """
    if started is None:
        started = time.perf_counter()
    labels = np.stack([m.predict_batch(features) for m in bundle.models()], axis=1)
    fused = fuse_batch(labels, scheme)
    votes = tally_votes(fused)
    order = rank_nodes(votes, loads, node_ids)
    # the voting rule never leaves every tally at zero for N >= 2, but the
    # ordering above already falls back to lowest load if it ever did
    selected = tuple(int(node_ids[i]) for i in order[:k])
    elapsed_ms = max((time.perf_counter() - started) * 1000.0, MIN_DECISION_MS)
    return AllocationDecision(
        node_ids=np.asarray(node_ids, dtype=int),
        fused_labels=np.asarray(fused, dtype=int),
        votes=votes,
        loads=np.asarray(loads, dtype=float),
        speeds=np.asarray(speeds, dtype=float),
        selected=selected,
        decision_ms=elapsed_ms,
    )
