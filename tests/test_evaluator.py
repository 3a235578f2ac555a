"""The flat tree evaluator against a recursive walk, and the row contract.

``walk`` below is the reference: it follows one row down a tree's dict form
exactly as the split rule reads (``x <= threshold`` goes left, anything
else, NaN included, goes right).  Every tree in the program is evaluated by
``_CompiledForest``, which must match it bit for bit.
"""

import warnings

import numpy as np
import pytest

from edgealloc.bench import LearnerSetup, train_bundle
from edgealloc.errors import DataError
from edgealloc.learners import (
    BaseLearnerSpec,
    ConstantModel,
    LabeledDataset,
    TreeModel,
    model_from_dict,
    train_adaboost,
    train_bagging,
    train_base,
    train_stacking,
)
from edgealloc.learners.base import _CompiledForest


def walk(node, row):
    while "prob" not in node:
        node = node["left"] if row[node["feature"]] <= node["threshold"] else node["right"]
    return node["prob"]


def reference(roots, x):
    return np.array([[walk(root, row) for row in x] for root in roots])


def leaf(p):
    return {"prob": p}


def split(feature, threshold, left, right):
    return {"feature": feature, "threshold": threshold, "left": left, "right": right}


def chain(depth, feature=0):
    """Unbalanced tree: every right child splits again, every left child is
    a leaf, ``depth`` levels deep."""
    node = leaf(1.0)
    for level in reversed(range(depth)):
        node = split(feature, level / depth, leaf(level / depth), node)
    return node


def count_nodes(node):
    if "prob" in node:
        return 1
    return 1 + count_nodes(node["left"]) + count_nodes(node["right"])


def thresholds(node):
    if "prob" in node:
        return []
    return [(node["feature"], node["threshold"])] + thresholds(node["left"]) + thresholds(node["right"])


def probe_rows(roots, n_features, rng, n=200):
    """Random rows, plus rows that sit exactly on every threshold and rows
    with NaN in each feature."""
    x = rng.uniform(-0.2, 1.2, (n, n_features))
    on_threshold = []
    for root in roots:
        for feature, threshold in thresholds(root):
            row = rng.uniform(-0.2, 1.2, n_features)
            row[feature] = threshold
            on_threshold.append(row)
    nan_rows = np.tile(rng.uniform(0, 1, n_features), (n_features, 1))
    nan_rows[np.arange(n_features), np.arange(n_features)] = np.nan
    return np.vstack([x] + on_threshold + [nan_rows])


def training_data(n=400, n_features=5, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, (n, n_features))
    y = ((x[:, 2] < 0.5) & (x[:, 3] < 0.6)).astype(int)
    flip = rng.random(n) < 0.1
    return LabeledDataset(x, np.where(flip, 1 - y, y))


# ---------------------------------------------------------------------------
# evaluator vs the recursive walk
# ---------------------------------------------------------------------------


HAND_BUILT = {
    "depth0": [leaf(0.7)],
    "stump": [split(1, 0.5, leaf(0.0), leaf(1.0))],
    "chain": [chain(6, feature=2)],
    "left_heavy": [split(0, 0.6, split(1, 0.3, split(2, 0.2, leaf(0.1), leaf(0.9)), leaf(0.4)), leaf(0.8))],
    "mixed_depths": [leaf(0.2), chain(1), chain(5, feature=1), split(3, 0.5, chain(3, feature=4), leaf(0.6))],
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_forest_matches_walk_on_hand_built_trees(name):
    roots = HAND_BUILT[name]
    x = probe_rows(roots, 5, np.random.default_rng(1))
    got = _CompiledForest(roots, 5).leaf_probs(x)
    assert np.array_equal(got, reference(roots, x))
    for root in roots:
        assert np.array_equal(TreeModel(root, 5).predict_proba_batch(x), reference([root], x)[0])


def test_rows_on_the_threshold_go_left_and_nan_goes_right():
    tree = TreeModel(split(0, 0.5, leaf(0.0), leaf(1.0)), 2)
    x = np.array([[0.5, 0.0], [np.nextafter(0.5, 1.0), 0.0], [np.nan, 0.0], [-np.inf, 0.0]])
    assert tree.predict_proba_batch(x).tolist() == [0.0, 1.0, 1.0, 0.0]


def test_forest_matches_walk_on_trained_trees_and_forests():
    data = training_data()
    rng = np.random.default_rng(2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        trees = [
            train_base(BaseLearnerSpec(kind=kind, max_depth=depth, min_leaf=min_leaf), data, seed=s)
            for kind in ("cart_tree", "random_tree")
            for depth, min_leaf, s in ((1, 1, 0), (3, 5, 1), (6, 1, 2))
        ]
        bagged = train_bagging(data, 12, BaseLearnerSpec(kind="cart_tree", max_depth=5, min_leaf=3), seed=3)
        boosted = train_adaboost(data, 6, BaseLearnerSpec(kind="cart_tree", max_depth=2), seed=4)
    roots = [t.root for t in trees] + [m.root for m in bagged.members] + [m.root for m in boosted.members]
    x = probe_rows(roots, data.arity, rng)
    for tree in trees:
        assert np.array_equal(tree.predict_proba_batch(x), reference([tree.root], x)[0])
    for model in (bagged, boosted):
        want = reference([m.root for m in model.members], x)
        assert np.array_equal(model._forest.leaf_probs(x), want)
    # members of different depths share one forest
    assert len({count_nodes(m.root) for m in bagged.members}) > 1
    assert np.array_equal(_CompiledForest(roots, data.arity).leaf_probs(x), reference(roots, x))


def test_compiled_size_grows_with_node_count_not_depth():
    root = chain(12)
    forest = _CompiledForest([root], 1)
    assert forest.depth == 12
    nodes = count_nodes(root)
    assert nodes == 25
    for array in (forest.features, forest.thresholds, forest.first_child, forest.probs):
        assert array.shape == (nodes,)
    x = probe_rows([root], 1, np.random.default_rng(3))
    assert np.array_equal(forest.leaf_probs(x)[0], reference([root], x)[0])


@pytest.mark.parametrize(
    "node, message",
    [
        ({"feature": 0, "threshold": 0.5, "left": leaf(0.0)}, "needs 'prob' or feature/threshold/left/right"),
        ({"threshold": 0.5, "left": leaf(0.0), "right": leaf(1.0)}, "needs 'prob' or feature/threshold/left/right"),
        (split(5, 0.5, leaf(0.0), leaf(1.0)), "outside"),
        (split(-1, 0.5, leaf(0.0), leaf(1.0)), "outside"),
        (split(0.5, 0.5, leaf(0.0), leaf(1.0)), "outside"),
        (split(0, "high", leaf(0.0), leaf(1.0)), "not a number"),
        (split(0, 0.5, leaf(0.0), "leaf"), "needs 'prob' or feature/threshold/left/right"),
    ],
)
def test_malformed_trees_raise_data_error_when_loaded(node, message):
    record = {"type": "cart_tree", "root": split(1, 0.5, leaf(0.0), node), "n_features": 5}
    with pytest.raises(DataError, match=message):
        model_from_dict(record)
    constant = {"type": "constant", "label": 1, "n_features": 5}
    holders = [
        {"type": "bagging", "members": [record], "n_features": 5},
        # a mixed ensemble evaluates its trees one by one
        {"type": "adaboost", "members": [constant, record], "alphas": [1.0, 1.0], "n_features": 5},
        {"type": "stacking", "bases": [constant, record], "meta": constant, "n_features": 5},
    ]
    for holder in holders:
        with pytest.raises(DataError, match=message):
            model_from_dict(holder)


def test_train_bundle_compiles_each_tree_only_where_it_is_evaluated(monkeypatch):
    compiled = []
    init = _CompiledForest.__init__

    def counting_init(self, roots, n_features):
        compiled.append(len(roots))
        init(self, roots, n_features)

    monkeypatch.setattr(_CompiledForest, "__init__", counting_init)
    setup = LearnerSetup(boost_rounds=6, bagging_bags=12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bundle = train_bundle(training_data(), setup, seed=0)
    boost, bagging, stacking = bundle.models()
    tree_bases = [b for b in stacking.bases if isinstance(b, TreeModel)]
    # boosting evaluates each member while it trains, then all members as one
    # forest; bagging only as one forest; stacking each tree base alone
    assert compiled == [1] * len(boost.members) + [len(boost.members), setup.bagging_bags] + [1] * len(tree_bases)
    assert all(m._forest is None for m in bagging.members)
    assert len(tree_bases) == 2 and len(boost.members) > 1


@pytest.mark.parametrize(
    "record",
    [
        {"type": "cart_tree", "n_features": 5},
        {"type": "constant", "n_features": 5},
        {"type": "adaboost", "members": [], "n_features": 5},
        {"type": "bagging", "members": [{"type": "logistic", "weights": [0.0]}], "n_features": 1},
        {"type": "stacking", "bases": [], "n_features": 5},
    ],
)
def test_records_with_a_missing_key_raise_data_error(record):
    with pytest.raises(DataError, match="missing key"):
        model_from_dict(record)


# ---------------------------------------------------------------------------
# the row contract the cascade relies on
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def all_models():
    data = training_data(n=300)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        models = {
            "constant": ConstantModel(1, data.arity),
            "gaussian_nb": train_base(BaseLearnerSpec(kind="gaussian_nb"), data, seed=0),
            "logistic": train_base(BaseLearnerSpec(kind="logistic"), data, seed=0),
            "boost": train_adaboost(data, 8, BaseLearnerSpec(kind="cart_tree", max_depth=2), seed=1),
            "bagging": train_bagging(data, 8, BaseLearnerSpec(kind="cart_tree", max_depth=4), seed=2),
            "stacking": train_stacking(
                data,
                (
                    BaseLearnerSpec(kind="cart_tree", max_depth=3),
                    BaseLearnerSpec(kind="random_tree", max_depth=3, feature_subset_size=2),
                    BaseLearnerSpec(kind="gaussian_nb"),
                    BaseLearnerSpec(kind="logistic"),
                ),
                BaseLearnerSpec(kind="logistic"),
                seed=3,
            ),
        }
        for kind in ("cart_tree", "random_tree"):
            models[kind] = train_base(BaseLearnerSpec(kind=kind, max_depth=4), data, seed=4)
    return models


@pytest.mark.parametrize("name", ["constant", "cart_tree", "random_tree", "gaussian_nb", "logistic", "boost", "bagging", "stacking"])
def test_each_row_is_labelled_from_that_row_alone(all_models, name):
    model = all_models[name]
    rng = np.random.default_rng(5)
    x = rng.uniform(0, 1, (60, 5))
    full = model.predict_batch(x)
    for size in (1, 2, 7, 30, 60):
        rows = rng.choice(60, size=size, replace=False)
        assert np.array_equal(model.predict_batch(x[rows]), full[rows])
