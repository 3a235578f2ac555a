import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgealloc.allocator import (
    EnsembleBundle,
    FusionScheme,
    decide_from_features,
    fuse_batch,
    rank_nodes,
    tally_votes,
)
from edgealloc.complexity import ComplexityVector
from edgealloc.core import DatasetDigest, NodeState, Query, QueryConstraints
from edgealloc.errors import ConfigError
from edgealloc.simulator import ova_allocate


class FixedLabelModel:
    """Labels each row by its own load (feature 3): the row whose load is
    ``loads[i]`` gets ``labels[i]``, whichever rows the model is shown."""

    def __init__(self, labels, loads):
        self.labels = np.asarray(labels, dtype=int)
        self.loads = np.asarray(loads, dtype=float)
        self.n_features = 5
        self.shown = []  # the loads of the rows of each call

    def predict_batch(self, x):
        self.shown.append(np.asarray(x)[:, 3].tolist())
        match = np.asarray(x)[:, 3][:, None] == self.loads[None, :]
        assert match.any(axis=1).all(), "row load not among the stub's loads"
        return self.labels[match.argmax(axis=1)]


class StubClassifier:
    def classify_statement(self, statement):
        return ComplexityVector((0.2, 0.9, 0.1)), None


def bundle_for(labels, loads):
    m = FixedLabelModel(labels, loads)
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


def fuse(y1: int, y2: int, y3: int, scheme: FusionScheme) -> int:
    """Scalar reference for ``fuse_batch``: three binary opinions, one label."""
    for y in (y1, y2, y3):
        if y not in (0, 1):
            raise ValueError(f"fusion inputs must be binary, got {y!r}")
    if FusionScheme.parse(scheme) is FusionScheme.CS:
        return y1 * y2 * y3
    return 1 if (y1 + y2 + y3) >= 2 else 0


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
        want = [fuse(*row, scheme=scheme) for row in labels]
        assert fuse_batch(labels, scheme).tolist() == want
        # decide_from_features hands it a column-major matrix
        assert fuse_batch(np.asfortranarray(labels), scheme).tolist() == want


def test_scheme_parsing():
    assert FusionScheme.parse("CS") is FusionScheme.CS
    assert FusionScheme.parse("mvs") is FusionScheme.MVS
    with pytest.raises(ValueError):
        FusionScheme.parse("both")


# ---------------------------------------------------------------------------
# voting
# ---------------------------------------------------------------------------


def reference_ranking(fused, loads, node_ids, k):
    """The full one-vs-all ranking, cut to k: votes desc, load asc, id asc."""
    return np.lexsort((node_ids, loads, -tally_votes(fused)))[:k]


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
        assert (votes >= 0).all()


def test_single_positive_node_always_wins():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(2, 15))
        winner = int(rng.integers(0, n))
        fused = np.zeros(n, dtype=int)
        fused[winner] = 1
        loads = rng.uniform(0, 1, n)
        assert rank_nodes(fused, loads, np.arange(n), 1).tolist() == [winner]


@st.composite
def ranking_cases(draw):
    """(fused, loads, node_ids, k) with loads on a coarse grid, so ties are
    common, and non-contiguous node ids in permuted order."""
    n = draw(st.one_of(st.integers(1, 40), st.just(1000)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["mixed", "sparse", "all_positive", "all_negative"]))
    if kind == "mixed":
        fused = rng.integers(0, 2, n)
    elif kind == "sparse":
        fused = (rng.random(n) < 0.05).astype(int)
    else:
        fused = np.full(n, int(kind == "all_positive"))
    loads = rng.integers(0, draw(st.integers(1, 6)), n) / 4.0
    node_ids = rng.permutation(3 * n)[:n] + 7
    k = draw(st.integers(1, n))
    return fused, loads, node_ids, k


@settings(max_examples=300, deadline=None)
@given(ranking_cases())
def test_rank_nodes_is_the_reference_ranking_cut_to_k(case):
    fused, loads, node_ids, k = case
    want = reference_ranking(fused, loads, node_ids, k)
    assert rank_nodes(fused, loads, node_ids, k).tolist() == want.tolist()


def test_rank_nodes_every_k_on_tied_loads():
    rng = np.random.default_rng(3)
    for n in (1, 2, 5, 17, 1000):
        loads = rng.integers(0, 3, n) / 2.0
        node_ids = rng.permutation(2 * n)[:n]
        for fused in (rng.integers(0, 2, n), np.ones(n, dtype=int), np.zeros(n, dtype=int)):
            for k in range(1, n + 1) if n < 1000 else (1, 2, 3, 50, 999, 1000):
                want = reference_ranking(fused, loads, node_ids, k)
                assert rank_nodes(fused, loads, node_ids, k).tolist() == want.tolist()


# ---------------------------------------------------------------------------
# allocation decisions
# ---------------------------------------------------------------------------


def test_single_positive_label_selects_that_node():
    loads = [0.9, 0.3, 0.5]
    decision = ova_allocate(
        make_query(), make_nodes(loads), bundle_for([1, 0, 0], loads), FusionScheme.CS, StubClassifier()
    )
    assert decision.votes.tolist() == [3, 1, 1]
    assert decision.selected == (0,)
    assert decision.decided_by == "single_positive"


def test_all_positive_ties_break_by_load():
    loads = [0.9, 0.2, 0.5]
    decision = ova_allocate(
        make_query(), make_nodes(loads), bundle_for([1, 1, 1], loads), FusionScheme.CS, StubClassifier()
    )
    assert decision.votes.tolist() == [1, 1, 1]
    assert decision.selected == (1,)
    assert decision.decided_by == "load_among_positives"


def test_all_negative_two_nodes_tie_breaks_by_load():
    loads = [0.8, 0.1]
    decision = ova_allocate(
        make_query(), make_nodes(loads), bundle_for([0, 0], loads), FusionScheme.CS, StubClassifier()
    )
    assert decision.votes.tolist() == [1, 1]
    assert decision.selected == (1,)
    assert decision.decided_by == "no_positive"


def test_load_tie_breaks_by_node_id():
    loads = [0.4, 0.4, 0.4]
    decision = ova_allocate(
        make_query(), make_nodes(loads), bundle_for([1, 1, 1], loads), FusionScheme.CS, StubClassifier()
    )
    assert decision.selected == (0,)


def test_decision_timing_floor_and_fields():
    decision = ova_allocate(
        make_query(), make_nodes([0.5]), bundle_for([1], [0.5]), FusionScheme.MVS, StubClassifier()
    )
    assert decision.decision_ms >= 1e-3
    assert decision.fused_labels.tolist() == [1]


def test_empty_node_list_rejected():
    with pytest.raises(ValueError):
        ova_allocate(make_query(), [], bundle_for([], []), FusionScheme.CS, StubClassifier())


def test_deterministic_given_snapshot():
    loads = [0.7, 0.2, 0.9, 0.4]
    nodes = make_nodes(loads, speeds=[0.1, 0.9, 0.3, 0.6])
    d1 = ova_allocate(make_query(), nodes, bundle_for([0, 1, 1, 0], loads), FusionScheme.MVS, StubClassifier())
    d2 = ova_allocate(make_query(), nodes, bundle_for([0, 1, 1, 0], loads), FusionScheme.MVS, StubClassifier())
    assert d1.selected == d2.selected
    assert d1.votes.tolist() == d2.votes.tolist()


# ---------------------------------------------------------------------------
# top-k selection
# ---------------------------------------------------------------------------


def top_k(labels, loads, k):
    decision = ova_allocate(
        make_query(), make_nodes(loads), bundle_for(labels, loads), FusionScheme.CS, StubClassifier(), k=k
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
            got, picks = decide_from_features(
                features, np.arange(n), loads, bundle_for(list(fused), loads), FusionScheme.CS
            )
            expected_winner, expected_votes = brute_force_winner(fused, loads)
            assert tally_votes(got).tolist() == expected_votes
            assert picks.tolist() == [expected_winner]


# ---------------------------------------------------------------------------
# cascade fusion: each ensemble sees only the rows that can change the label
# ---------------------------------------------------------------------------


def cascade(labels, scheme, seed=0):
    """Decide over len(labels) nodes whose (boost, bagging, stacking) labels
    are the rows of ``labels``; returns the fused labels, the picks, the
    three stubs and the loads."""
    labels = np.asarray(labels, dtype=int).reshape(-1, 3)
    n = labels.shape[0]
    loads = np.random.default_rng(seed).permutation(n) / n + 0.01
    features = np.column_stack([np.full(n, 0.5), np.full(n, 1.0), np.full(n, 0.2), loads, np.full(n, 0.5)])
    stubs = [FixedLabelModel(labels[:, j], loads) for j in range(3)]
    fused, picks = decide_from_features(features, np.arange(n), loads, EnsembleBundle(*stubs), scheme)
    return fused, picks, stubs, loads


def test_cs_cascade_shows_each_ensemble_only_the_rows_still_positive():
    labels = [[1, 1, 1], [0, 1, 1], [1, 0, 1], [1, 1, 0], [0, 0, 0], [1, 1, 1]]
    fused, _, (boost, bagging, stacking), loads = cascade(labels, FusionScheme.CS)
    assert boost.shown == [loads.tolist()]
    assert bagging.shown == [loads[[0, 2, 3, 5]].tolist()]
    assert stacking.shown == [loads[[0, 3, 5]].tolist()]
    assert fused.tolist() == [1, 0, 0, 0, 0, 1]


def test_mvs_cascade_shows_stacking_only_the_disagreements():
    labels = [[1, 1, 0], [0, 1, 1], [1, 0, 0], [0, 0, 1], [1, 1, 1]]
    fused, _, (boost, bagging, stacking), loads = cascade(labels, FusionScheme.MVS)
    assert boost.shown == [loads.tolist()]
    assert bagging.shown == [loads.tolist()]
    assert stacking.shown == [loads[[1, 2]].tolist()]
    assert fused.tolist() == [1, 1, 0, 0, 1]


@pytest.mark.parametrize(
    "scheme, labels, calls",
    [
        (FusionScheme.CS, [[0, 1, 1], [0, 1, 1]], [1, 0, 0]),
        (FusionScheme.CS, [[1, 0, 1], [0, 1, 1]], [1, 1, 0]),
        (FusionScheme.MVS, [[1, 1, 0], [0, 0, 1]], [1, 1, 0]),
    ],
)
def test_cascade_skips_a_call_with_no_rows_left(scheme, labels, calls):
    _, _, stubs, _ = cascade(labels, scheme)
    assert [len(stub.shown) for stub in stubs] == calls


@pytest.mark.parametrize("scheme", list(FusionScheme))
def test_cascade_matches_full_evaluation(scheme):
    rng = np.random.default_rng(17)
    for n in range(1, 7):
        for trial in range(60):
            labels = rng.integers(0, 2, (n, 3))
            got, picks, stubs, loads = cascade(labels, scheme, seed=trial)
            fused = fuse_batch(labels, scheme)
            assert got.tolist() == fused.tolist()
            assert picks.tolist() == reference_ranking(fused, loads, np.arange(n), 1).tolist()
            assert all(len(shown) > 0 for stub in stubs for shown in stub.shown)
