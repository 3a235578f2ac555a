import itertools

import numpy as np
import pytest

from edgealloc.allocator import (
    EnsembleBundle,
    FusionScheme,
    decide_from_features,
    fuse,
    fuse_batch,
    rank_nodes,
    tally_votes,
)
from edgealloc.complexity import ComplexityVector
from edgealloc.core import DatasetDigest, NodeState, Query, QueryConstraints
from edgealloc.errors import ConfigError
from edgealloc.simulator import ova_allocate


class FixedLabelModel:
    """Predicts a fixed per-node label vector regardless of features."""

    def __init__(self, labels):
        self.labels = np.asarray(labels, dtype=int)
        self.n_features = 5

    def predict_batch(self, x):
        return self.labels[: np.asarray(x).shape[0]]


class StubClassifier:
    def classify_statement(self, statement):
        return ComplexityVector((0.2, 0.9, 0.1)), None


def bundle_for(labels):
    m = FixedLabelModel(labels)
    return EnsembleBundle(m, m, m)


def make_nodes(loads, speeds=None):
    speeds = speeds if speeds is not None else [0.5] * len(loads)
    digest = DatasetDigest(means=np.array([0.5]), spreads=np.array([0.1]), cardinality=1000)
    return [
        NodeState(node_id=i, load=l, speed=s, digest=digest)
        for i, (l, s) in enumerate(zip(loads, speeds))
    ]


def make_query():
    return Query(id="q", statement="select a from t", constraints=QueryConstraints(np.array([[0.0, 1.0]])), deadline=1.0)


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------


def test_fusion_truth_tables():
    for y in itertools.product((0, 1), repeat=3):
        assert fuse(*y, scheme=FusionScheme.CS) == y[0] * y[1] * y[2]
        assert fuse(*y, scheme=FusionScheme.MVS) == (1 if sum(y) >= 2 else 0)


def test_fusion_specific_cases():
    assert fuse(1, 1, 0, scheme=FusionScheme.CS) == 0
    assert fuse(1, 1, 0, scheme=FusionScheme.MVS) == 1
    for scheme in FusionScheme:
        assert fuse(1, 1, 1, scheme=scheme) == 1
        assert fuse(0, 0, 0, scheme=scheme) == 0


def test_conjunctive_never_exceeds_majority():
    for y in itertools.product((0, 1), repeat=3):
        assert fuse(*y, scheme=FusionScheme.CS) <= fuse(*y, scheme=FusionScheme.MVS)


def test_fuse_rejects_non_binary():
    with pytest.raises(ValueError):
        fuse(2, 0, 0, scheme=FusionScheme.CS)


def test_fuse_batch_matches_scalar():
    labels = np.array(list(itertools.product((0, 1), repeat=3)))
    for scheme in FusionScheme:
        got = fuse_batch(labels, scheme)
        want = [fuse(*row, scheme=scheme) for row in labels]
        assert got.tolist() == want


def test_scheme_parsing():
    assert FusionScheme.parse("CS") is FusionScheme.CS
    assert FusionScheme.parse("mvs") is FusionScheme.MVS
    with pytest.raises(ValueError):
        FusionScheme.parse("both")


# ---------------------------------------------------------------------------
# voting
# ---------------------------------------------------------------------------


def test_vote_tally_single_positive():
    assert tally_votes(np.array([1, 0, 0])).tolist() == [3, 1, 1]


def test_vote_tally_all_positive_and_all_negative():
    assert tally_votes(np.array([1, 1, 1])).tolist() == [1, 1, 1]
    assert tally_votes(np.array([0, 0])).tolist() == [1, 1]


def test_vote_bookkeeping_identity():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = rng.integers(1, 12)
        fused = rng.integers(0, 2, n)
        votes = tally_votes(fused)
        expected_total = int((fused * 1 + (1 - fused) * (n - 1)).sum())
        assert votes.sum() == expected_total


def test_single_positive_node_always_wins():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(2, 15))
        winner = int(rng.integers(0, n))
        fused = np.zeros(n, dtype=int)
        fused[winner] = 1
        votes = tally_votes(fused)
        loads = rng.uniform(0, 1, n)
        order = rank_nodes(votes, loads, np.arange(n))
        assert order[0] == winner


# ---------------------------------------------------------------------------
# allocation decisions
# ---------------------------------------------------------------------------


def test_single_positive_label_selects_that_node():
    nodes = make_nodes([0.9, 0.3, 0.5])
    decision = ova_allocate(
        make_query(), nodes, bundle_for([1, 0, 0]), FusionScheme.CS, StubClassifier()
    )
    assert decision.votes.tolist() == [3, 1, 1]
    assert decision.selected == (0,)


def test_all_positive_ties_break_by_load():
    nodes = make_nodes([0.9, 0.2, 0.5])
    decision = ova_allocate(
        make_query(), nodes, bundle_for([1, 1, 1]), FusionScheme.CS, StubClassifier()
    )
    assert decision.votes.tolist() == [1, 1, 1]
    assert decision.selected == (1,)


def test_all_negative_two_nodes_tie_breaks_by_load():
    nodes = make_nodes([0.8, 0.1])
    decision = ova_allocate(
        make_query(), nodes, bundle_for([0, 0]), FusionScheme.CS, StubClassifier()
    )
    assert decision.votes.tolist() == [1, 1]
    assert decision.selected == (1,)


def test_load_tie_breaks_by_node_id():
    nodes = make_nodes([0.4, 0.4, 0.4])
    decision = ova_allocate(
        make_query(), nodes, bundle_for([1, 1, 1]), FusionScheme.CS, StubClassifier()
    )
    assert decision.selected == (0,)


def test_decision_timing_floor_and_fields():
    nodes = make_nodes([0.5])
    decision = ova_allocate(
        make_query(), nodes, bundle_for([1]), FusionScheme.MVS, StubClassifier()
    )
    assert decision.decision_ms >= 1e-3
    assert decision.fused_labels.tolist() == [1]


def test_empty_node_list_rejected():
    with pytest.raises(ValueError):
        ova_allocate(make_query(), [], bundle_for([1]), FusionScheme.CS, StubClassifier())


def test_deterministic_given_snapshot():
    nodes = make_nodes([0.7, 0.2, 0.9, 0.4], speeds=[0.1, 0.9, 0.3, 0.6])
    d1 = ova_allocate(make_query(), nodes, bundle_for([0, 1, 1, 0]), FusionScheme.MVS, StubClassifier())
    d2 = ova_allocate(make_query(), nodes, bundle_for([0, 1, 1, 0]), FusionScheme.MVS, StubClassifier())
    assert d1.selected == d2.selected
    assert d1.votes.tolist() == d2.votes.tolist()


# ---------------------------------------------------------------------------
# top-k selection
# ---------------------------------------------------------------------------


def top_k(labels, loads, k):
    decision = ova_allocate(
        make_query(), make_nodes(loads), bundle_for(labels), FusionScheme.CS, StubClassifier(), k=k
    )
    return list(decision.selected)


def test_top_k_ordering_rule():
    # votes [3, 1, 1]: the positive node first, then the rest by load
    assert top_k([1, 0, 0], [0.9, 0.2, 0.4], 1) == [0]
    assert top_k([1, 0, 0], [0.9, 0.2, 0.4], 2) == [0, 1]
    assert top_k([1, 0, 0], [0.9, 0.2, 0.4], 3) == [0, 1, 2]


def test_top_k_equals_n_returns_all_ordered():
    assert top_k([1, 1, 1, 1], [0.4, 0.1, 0.3, 0.2], 4) == [1, 3, 2, 0]


def test_top_k_bounds_checked():
    with pytest.raises(ConfigError):
        top_k([1, 1], [0.1, 0.2], 0)
    with pytest.raises(ConfigError):
        top_k([1, 1], [0.1, 0.2], 3)


# ---------------------------------------------------------------------------
# vote oracle over every label combination
# ---------------------------------------------------------------------------


def brute_force_winner(fused, loads):
    """Independent tally enumerator used as the oracle."""
    n = len(fused)
    votes = []
    for i in range(n):
        v = 1 if fused[i] == 1 else 0
        v += sum(1 for j in range(n) if j != i and fused[j] == 0)
        votes.append(v)
    best = max(votes)
    candidates = [i for i, v in enumerate(votes) if v == best]
    return min(candidates, key=lambda i: (loads[i], i)), votes


def test_winner_matches_brute_force_for_all_combinations():
    rng = np.random.default_rng(11)
    for n in range(1, 6):
        for fused in itertools.product((0, 1), repeat=n):
            loads = rng.uniform(0, 1, n)
            speeds = rng.uniform(0, 1, n)
            features = np.column_stack(
                [np.full(n, 0.5), np.full(n, 1.0), np.full(n, 0.2), loads, speeds]
            )
            decision = decide_from_features(
                features, np.arange(n), loads, speeds, bundle_for(list(fused)), FusionScheme.CS
            )
            expected_winner, expected_votes = brute_force_winner(fused, loads)
            assert decision.votes.tolist() == expected_votes
            assert decision.selected[0] == expected_winner
