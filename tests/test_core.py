import dataclasses
import json
import string
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgealloc.allocator import EnsembleBundle, FusionScheme
from edgealloc.complexity import ComplexityVector
from edgealloc.core import (
    INT64_MAX, DatasetDigest, NodeState, Query, QueryConstraints, complexity_scalar, read_config, write_record,
)
from edgealloc.errors import DataError
from edgealloc.simulator import Scenario, ScenarioConfig, apply_allocation, ova_allocate


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


# a node table holds these in int64 arrays, which would cut 1.5 to 1 without a word
def test_a_node_id_must_be_an_integer():
    with pytest.raises(ValueError, match="node id must be an integer"):
        NodeState(node_id=1.5, load=0.5, speed=0.5, digest=make_digest([0.5]))


def test_a_queue_capacity_must_be_an_integer():
    with pytest.raises(ValueError, match="queue capacity must be an integer"):
        NodeState(node_id=1, load=0.5, speed=0.5, digest=make_digest([0.5]), queue_capacity=1.5)


def test_a_cardinality_must_be_an_integer():
    with pytest.raises(ValueError, match="cardinality must be an integer"):
        make_digest([0.5], cardinality=1.5)


# ---------------------------------------------------------------------------
# record layout
# ---------------------------------------------------------------------------

finite = st.floats(-sys.float_info.max, sys.float_info.max)
unit = st.floats(0.0, 1.0)


@st.composite
def node_states(draw, dims):
    digest = DatasetDigest(
        means=np.array(draw(st.lists(finite, min_size=dims, max_size=dims))),
        spreads=np.array(draw(st.lists(st.floats(0.0, sys.float_info.max), min_size=dims, max_size=dims))),
        cardinality=draw(st.integers(1, INT64_MAX)),
    )
    return NodeState(
        node_id=draw(st.integers(-INT64_MAX - 1, INT64_MAX)), load=draw(unit), speed=draw(unit), digest=digest,
        queue_capacity=draw(st.integers(1, INT64_MAX)),
    )


def queries(dims):
    """Queries over ``dims`` dimensions; a statement holds an ASCII letter or
    digit, since ``Query`` refuses one without a token."""
    return st.builds(
        Query,
        id=st.text(max_size=8),
        statement=st.builds(
            "{}{}{}".format, st.text(max_size=8), st.sampled_from(string.ascii_letters + string.digits),
            st.text(max_size=8),
        ),
        constraints=st.lists(st.lists(finite, min_size=2, max_size=2).map(sorted), min_size=dims, max_size=dims).map(
            lambda bounds: QueryConstraints(np.array(bounds))
        ),
        deadline=st.floats(0.0, sys.float_info.max),
    )


@st.composite
def scenarios(draw):
    """A small ``Scenario``: up to three nodes, queries and epochs."""
    dims = draw(st.integers(1, 3))
    nodes = draw(st.lists(node_states(dims), min_size=1, max_size=3))
    series = draw(st.lists(st.lists(unit, min_size=len(nodes), max_size=len(nodes)), min_size=1, max_size=3))
    config = ScenarioConfig(n_nodes=len(nodes), dims=dims, seed=draw(st.integers(0, 2**32)))
    stream = draw(st.lists(queries(dims), max_size=3))
    return Scenario(config=config, nodes=nodes, queries=stream, load_series=np.array(series))


def assert_same(read, written):
    """Equal field by field, with the same types and array dtypes."""
    assert type(read) is type(written)
    if dataclasses.is_dataclass(written):
        for f in dataclasses.fields(written):
            assert_same(getattr(read, f.name), getattr(written, f.name))
    elif isinstance(written, list):
        assert len(read) == len(written)
        for r, w in zip(read, written):
            assert_same(r, w)
    elif isinstance(written, np.ndarray):
        assert read.dtype == written.dtype and np.array_equal(read, written)
    else:
        assert read == written


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(node_states) | st.integers(1, 4).flatmap(queries) | scenarios())
def test_a_record_reads_back_through_json_as_the_value_written(value):
    record = json.loads(json.dumps(write_record(value)))
    assert_same(read_config(type(value), record, error=DataError), value)
