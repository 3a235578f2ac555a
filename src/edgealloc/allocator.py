"""The decision engine: per-node ensemble fusion plus one-vs-all voting.

``decide_from_features`` takes the (N, 5) feature matrix of one query
against N nodes.  Three trained ensembles label the rows and the labels
fuse under a ``FusionScheme``, CS (all three agree) or MVS (at least two).
Each scheme is written once, as the 8-entry truth table ``_TABLES[scheme]``
of the fused label at code ``b0 + 2*b1 + 4*b2`` of the boost, bagging and
stacking labels.  The ensembles run as a cascade, boost then bagging then
stacking, each on the rows still open: those whose fused label, by the
table, still differs over the labels not yet computed.  A closed row fuses
the same however it is completed, so its missing labels stay 0.  Each
model labels a row from that row alone, whether it reads the label from its
threshold-grid table or computes it, and boosting sums its members' votes
in member order whatever the batch; so the fused labels are those of
labelling every row.  Voting then turns the per-node labels into a
ranking: a positive node votes for itself, a negative node votes for
everyone else.  Ties resolve by lowest load, then lowest node id, and the
first k nodes of that single ranking are the picks.

The vote has a closed form, votes_i = 2*b_i + zeros - 1: every
fused-positive node holds zeros + 1 votes and every negative node zeros - 1.
So the ranking is the positive nodes by (load, node id), then the negative
nodes by (load, node id), and the first pick is the least-loaded positive
node, or the least-loaded node overall when none is positive.
``rank_nodes`` reads the picks off that form without tallying (the single
pick in O(N)); ``tally_votes`` remains for reading the votes off the fused
labels.  ``decide_from_features`` returns the fused labels and the picks as
positions into the node arrays it was given.  ``simulator`` assembles the
feature matrix, times the decision and indexes its node table by the picks;
only its ``ova_allocate`` builds an ``AllocationDecision`` of node ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "FusionScheme",
    "EnsembleBundle",
    "AllocationDecision",
    "fuse_batch",
    "tally_votes",
    "rank_nodes",
    "decide_from_features",
]

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
            expected = ", ".join(repr(s.value) for s in cls)
            raise ValueError(f"unknown fusion scheme {value!r}; expected one of {expected}") from None


# the fused label at code b0 + 2*b1 + 4*b2 of the (boost, bagging, stacking) labels
_TABLES = {
    FusionScheme.CS: np.array([0, 0, 0, 0, 0, 0, 0, 1]),
    FusionScheme.MVS: np.array([0, 0, 0, 1, 0, 1, 1, 1]),
}
# scheme -> for bagging (bit 1), then stacking (bit 2), which codes of the
# earlier labels leave the fused label open: those whose completions differ
_OPEN = {
    scheme: tuple(np.ptp(table.reshape(-1, 1 << bit), axis=0) > 0 for bit in (1, 2))
    for scheme, table in _TABLES.items()
}
_EVERY_ROW = slice(None)


@dataclass(frozen=True)
class EnsembleBundle:
    """The three trained ensembles consulted per node."""

    boost: object
    bagging: object
    stacking: object

    def models(self) -> tuple:
        return (self.boost, self.bagging, self.stacking)


def fuse_batch(codes: np.ndarray, scheme: FusionScheme) -> np.ndarray:
    """The (N,) fused labels, 0/1 as int64, of the (N,) label codes
    ``b0 + 2*b1 + 4*b2`` under a ``FusionScheme``; a scheme's name is parsed
    at the entry points."""
    return _TABLES[scheme].take(codes)


def tally_votes(fused: np.ndarray) -> np.ndarray:
    """Vote counts under one-vs-all voting.

    A node labelled 1 gains one vote; a node labelled 0 gives one vote to
    every node except itself.  Equivalently votes_i = 2*b_i + zeros - 1.
    """
    fused = np.asarray(fused, dtype=int)
    zeros = int((fused == 0).sum())
    return 2 * fused + zeros - 1


def rank_nodes(fused: np.ndarray, loads: np.ndarray, node_ids: np.ndarray, k: int) -> np.ndarray:
    """The first k positions of the one-vs-all ranking, in ranking order.

    The ranking orders nodes by votes desc, then load asc, then node id
    asc.  By the vote's closed form (see the module docstring) that is the
    fused-positive nodes by (load, node id), then the negative nodes by
    (load, node id), so no vote is tallied.  One pick is a masked ``argmin``
    in O(N) (loads lie in [0, 1], so ``inf`` masks), with the node ids
    consulted only on a tie.  More than one pick sorts on the closed form's
    two groups directly.
    """
    fused = np.asarray(fused)
    if k > 1:
        return np.lexsort((node_ids, loads, fused == 0))[:k]
    group_loads = np.where(fused, loads, np.inf) if np.count_nonzero(fused) else loads
    first = group_loads.argmin(keepdims=True)
    at_min = group_loads == group_loads[first]
    if np.count_nonzero(at_min) == 1:
        return first
    rows = at_min.nonzero()[0]
    return rows[node_ids[rows].argmin(keepdims=True)]


@dataclass(frozen=True)
class AllocationDecision:
    """Outcome of one allocation: fused labels, the ids of the k picks in
    ranking order, and timing.  The vote tallies and what settled the first
    pick are derived from the fused labels on request."""

    fused_labels: np.ndarray
    selected: tuple
    decision_ms: float

    @property
    def votes(self) -> np.ndarray:
        return tally_votes(self.fused_labels)

    @property
    def decided_by(self) -> str:
        """``single_positive`` when the vote alone picks the one positive
        node, ``load_among_positives`` when load and id break a tie among
        several, ``no_positive`` when every node is negative."""
        n_positive = int(np.count_nonzero(self.fused_labels))
        if n_positive == 1:
            return "single_positive"
        return "load_among_positives" if n_positive else "no_positive"


def decide_from_features(
    features: np.ndarray,
    node_ids: np.ndarray,
    loads: np.ndarray,
    bundle: EnsembleBundle,
    scheme: FusionScheme,
    k: int = 1,
) -> tuple:
    """Label (cascaded), fuse and pick given a prebuilt (N, 5) feature matrix
    and a ``FusionScheme``; a scheme's name is parsed at the entry points.

    Returns ``(fused, picks)``: the (N,) fused labels and the positions of
    the first k nodes of the one ranking, in ranking order.  One loop serves
    every scheme: boost's labels start each row's code, then bagging and
    stacking add theirs at their bit on the rows still open.  A decided row
    stays decided, so the features are gathered with ``take`` only when the
    open rows shrank.
    """
    codes = bundle.boost.predict_batch(features).astype(np.intp)  # written in place below
    open_codes = _OPEN[scheme]
    rows, pending, gathered = _EVERY_ROW, codes, features  # pending is codes[rows], gathered features[rows]
    for bit, model in ((1, bundle.bagging), (2, bundle.stacking)):
        still = open_codes[bit - 1].take(pending)
        n_open = np.count_nonzero(still)
        if not n_open:
            break
        if n_open < still.size:
            rows = still.nonzero()[0] if rows is _EVERY_ROW else rows[still]
            pending, gathered = codes.take(rows), features.take(rows, axis=0)
        pending += model.predict_batch(gathered) << bit
        codes[rows] = pending
    fused = fuse_batch(codes, scheme)
    return fused, rank_nodes(fused, loads, node_ids, k)
