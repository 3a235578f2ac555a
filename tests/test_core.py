import numpy as np
import pytest

from edgealloc.allocator import EnsembleBundle, FusionScheme
from edgealloc.complexity import ComplexityVector
from edgealloc.core import DatasetDigest, NodeState, Query, QueryConstraints, complexity_scalar
from edgealloc.simulator import apply_allocation, ova_allocate


class StubClassifier:
    """Fixed-membership stand-in for a trained complexity model."""

    def __init__(self, memberships=(0.1, 0.2, 0.8)):
        self.memberships = memberships

    def classify_statement(self, statement):
        vector = ComplexityVector(memberships=tuple(self.memberships))
        return vector, None


def make_digest(means, spread=0.1, cardinality=1000):
    means = np.asarray(means, dtype=float)
    return DatasetDigest(means=means, spreads=np.full(means.shape, spread), cardinality=cardinality)


def make_node(node_id, means, load=0.1, speed=0.9, **kw):
    return NodeState(node_id=node_id, load=load, speed=speed, digest=make_digest(means, **kw), queue_capacity=100)


def make_query(intervals, deadline=5.0):
    return Query(
        id="q",
        statement="select a from t",
        constraints=QueryConstraints(np.asarray(intervals, dtype=float)),
        deadline=deadline,
    )


def test_complexity_scalar_scales_with_winning_class():
    # the winner's membership is scaled by (index + 1) / class count
    assert complexity_scalar(ComplexityVector((0.9, 0.1, 0.2))) == pytest.approx(0.3)
    assert complexity_scalar(ComplexityVector((0.1, 0.9, 0.2))) == pytest.approx(0.6)
    assert complexity_scalar(ComplexityVector((0.1, 0.2, 0.9))) == pytest.approx(0.9)


class RecordingModel:
    """Labels every node positive and keeps the feature matrix it was shown."""

    n_features = 5

    def __init__(self):
        self.seen = []

    def predict_batch(self, x):
        self.seen.append(np.array(x))
        return np.ones(x.shape[0], dtype=int)


def features_shown(query, nodes, classifier, alpha, z):
    """The (N, 5) matrix ova_allocate hands to the ensembles."""
    model = RecordingModel()
    ova_allocate(query, nodes, EnsembleBundle(model, model, model), FusionScheme.CS, classifier, alpha=alpha, z=z)
    assert len(model.seen) == 3
    assert all(np.array_equal(m, model.seen[0]) for m in model.seen)
    return model.seen[0]


def test_context_vector_field_assembly():
    # one dimension fully mismatched out of five gives relevance 0.2
    query = make_query([[0.0, 0.2]] * 4 + [[0.8, 0.9]], deadline=5.0)
    node = make_node(0, [0.1, 0.1, 0.1, 0.1, 0.1], load=0.1, speed=0.9, spread=0.0)
    (row,) = features_shown(query, [node], StubClassifier((0.8, 0.2, 0.1)), alpha=1.0, z=1.0)
    complexity, deadline, relevance, load, speed = row
    assert complexity == pytest.approx(0.8 / 3)
    assert deadline == 5.0
    assert relevance == pytest.approx(0.2)
    assert load == 0.1
    assert speed == 0.9


def test_one_vector_per_node_with_shared_query_fields():
    query = make_query([[0.0, 1.0], [0.0, 1.0]])
    nodes = [make_node(i, [0.5, 0.5], load=0.1 * i, speed=1.0 - 0.1 * i) for i in range(4)]
    x = features_shown(query, nodes, StubClassifier(), alpha=1.0, z=1.28)
    assert x.shape == (4, 5)
    assert len(set(x[:, 0])) == 1
    assert len(set(x[:, 1])) == 1
    assert x[:, 3] == pytest.approx([0.0, 0.1, 0.2, 0.3])


def test_identical_digests_give_identical_relevance():
    query = make_query([[0.2, 0.6], [0.1, 0.9]])
    nodes = [make_node(i, [0.4, 0.5], load=0.2 * i, speed=0.5) for i in range(3)]
    x = features_shown(query, nodes, StubClassifier(), alpha=1.0, z=1.28)
    assert len(set(x[:, 2])) == 1
    assert len({(row[3], row[4]) for row in x}) == 3


def test_empty_node_list_rejected():
    query = make_query([[0.0, 1.0]])
    with pytest.raises(ValueError):
        features_shown(query, [], StubClassifier(), alpha=1.0, z=1.0)


def test_dimension_mismatch_rejected():
    query = make_query([[0.0, 1.0], [0.0, 1.0]])
    node = make_node(0, [0.5])  # one-dimensional digest
    with pytest.raises(ValueError):
        features_shown(query, [node], StubClassifier(), alpha=1.0, z=1.0)


def test_query_validation():
    with pytest.raises(ValueError):
        make_query([[0.0, 1.0]], deadline=-1.0)
    with pytest.raises(ValueError):
        Query(id="q", statement="  ", constraints=QueryConstraints(np.array([[0.0, 1.0]])), deadline=1.0)
    with pytest.raises(ValueError):
        QueryConstraints(np.array([[1.0, 0.0]]))


def test_node_state_validation_and_queue_sync():
    # a run's loads mirror queue occupancy / capacity
    loads = apply_allocation(np.array([3, 0]), np.array([100, 10]), np.array([0, 0]), [])
    assert loads.tolist() == [3 / 100, 0.0]
    with pytest.raises(ValueError):
        NodeState(node_id=1, load=1.5, speed=0.5, digest=make_digest([0.5]))
