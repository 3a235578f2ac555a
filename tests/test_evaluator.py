"""The flat tree evaluator against a recursive walk, the ensembles' member
evaluator against the per-model formulas, the threshold-grid tables against
the forest they cache, and the row contract.

``walk`` below is the reference: it follows one row down a tree's dict form
exactly as the split rule reads (``x <= threshold`` goes left, anything
else, NaN included, goes right).  Every tree in the program is evaluated by
``_CompiledForest``, which must match it bit for bit.  ``nb_reference`` and
``logistic_reference`` are the models' defining formulas (per-class Gaussian
log-likelihoods, a logistic unit on standardised inputs); the program
evaluates both as quadratic forms compiled once, which must match them to
1e-9.
"""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgealloc.bench import LearnerSetup, train_bundle
from edgealloc.errors import DataError
from edgealloc.learners import (
    AdaBoostModel,
    BaggingModel,
    BaseLearnerSpec,
    ConstantModel,
    GaussianNBModel,
    LabeledDataset,
    LogisticModel,
    StackingModel,
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


def test_forest_reads_a_non_contiguous_block_as_its_values():
    roots = HAND_BUILT["mixed_depths"]
    x = probe_rows(roots, 5, np.random.default_rng(4))
    wide = np.zeros((2 * len(x), 7))
    wide[::2, 1:6] = x
    view = wide[::2, 1:6]
    assert not view.flags.c_contiguous
    assert np.array_equal(_CompiledForest(roots, 5).leaf_probs(view), reference(roots, x))
    fortran = np.asfortranarray(x)
    assert np.array_equal(_CompiledForest(roots, 5).leaf_probs(fortran), reference(roots, x))


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
        assert np.array_equal(model._columns(x), want)
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
        # a tree compiles in its own constructor, inside any ensemble
        {"type": "adaboost", "members": [constant, record], "alphas": [1.0, 1.0], "n_features": 5},
        {"type": "stacking", "bases": [constant, record], "meta": constant, "n_features": 5},
    ]
    for holder in holders:
        with pytest.raises(DataError, match=message):
            model_from_dict(holder)


def test_train_bundle_compiles_each_tree_once_and_one_forest_per_ensemble(monkeypatch):
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
    # every tree compiles a forest of one when it is built and keeps it; each
    # ensemble then compiles its trees once more, together, in its own forest
    assert compiled == [
        *[1] * len(boost.members), len(boost.members),
        *[1] * setup.bagging_bags, setup.bagging_bags,
        *[1] * len(tree_bases), len(tree_bases),
    ]
    assert all(m._forest.n_trees == 1 for m in [*boost.members, *bagging.members, *tree_bases])
    assert len(tree_bases) == 2 and len(boost.members) > 1


@pytest.mark.parametrize(
    "inner",
    [
        {"type": "bagging", "members": [{"type": "constant", "label": 1, "n_features": 2}], "n_features": 2},
        {"type": "adaboost", "members": [{"type": "constant", "label": 1, "n_features": 2}], "alphas": [1.0],
         "n_features": 2},
    ],
)
def test_a_nested_ensemble_member_raises_data_error_when_loaded(inner):
    constant = {"type": "constant", "label": 0, "n_features": 2}
    holders = [
        {"type": "bagging", "members": [constant, inner], "n_features": 2},
        {"type": "adaboost", "members": [inner], "alphas": [1.0], "n_features": 2},
        {"type": "stacking", "bases": [constant, inner], "meta": constant, "n_features": 2},
    ]
    model_from_dict(inner)  # loads on its own
    for holder in holders:
        with pytest.raises(DataError, match="cannot be an ensemble's base model"):
            model_from_dict(holder)


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
# the ensembles' member evaluator against the per-model formulas
# ---------------------------------------------------------------------------


def nb_reference(model, x):
    ll = np.empty((x.shape[0], 2))
    for c in (0, 1):
        z = (x - model.means[c]) ** 2 / model.variances[c]
        ll[:, c] = model.log_priors[c] - 0.5 * (np.log(2 * np.pi * model.variances[c]).sum() + z.sum(axis=1))
    return 1.0 / (1.0 + np.exp(np.clip(ll[:, 0] - ll[:, 1], -500, 500)))


def logistic_reference(model, x):
    z = (x - model.mu) / model.sigma
    return 1.0 / (1.0 + np.exp(-np.clip(z @ model.weights + model.bias, -500, 500)))


def proba_reference(model, x):
    if isinstance(model, TreeModel):
        return reference([model.root], x)[0]
    if isinstance(model, ConstantModel):
        return np.full(x.shape[0], float(model.label))
    if isinstance(model, GaussianNBModel):
        return nb_reference(model, x)
    if isinstance(model, LogisticModel):
        return logistic_reference(model, x)
    if isinstance(model, StackingModel):
        return proba_reference(model.meta, np.column_stack([proba_reference(b, x) for b in model.bases]))
    raise TypeError(type(model))


def random_tree(rng, n_features, depth):
    if depth == 0 or rng.random() < 0.2:
        return leaf(float(rng.integers(0, 5)) / 4)
    return split(int(rng.integers(n_features)), float(rng.uniform(0, 1)),
                 random_tree(rng, n_features, depth - 1), random_tree(rng, n_features, depth - 1))


def floored_nb(rng, n_features):
    """Hand-built naive Bayes; one class has the floored variance in one feature."""
    variances = rng.uniform(0.01, 1.0, (2, n_features))
    variances[rng.integers(2), rng.integers(n_features)] = GaussianNBModel.VAR_FLOOR
    return GaussianNBModel(rng.uniform(0, 1, (2, n_features)), variances, np.log(rng.uniform(0.1, 1, 2)), n_features)


def hand_logistic(rng, n_features):
    return LogisticModel(rng.normal(0, 2, n_features), rng.normal(), rng.uniform(0, 1, n_features),
                         rng.uniform(0.05, 1, n_features), n_features)


BASE_KINDS = ("cart_tree", "random_tree", "gaussian_nb", "logistic", "constant", "floored_nb", "hand_logistic")


def make_base(kind, data, rng):
    n_features = data.arity
    if kind == "constant":
        return ConstantModel(int(rng.integers(2)), n_features)
    if kind == "floored_nb":
        return floored_nb(rng, n_features)
    if kind == "hand_logistic":
        return hand_logistic(rng, n_features)
    return train_base(BaseLearnerSpec(kind=kind, max_depth=3, feature_subset_size=1), data, seed=int(rng.integers(100)))


def make_meta(kind, k, rng):
    if kind == "constant":
        return ConstantModel(int(rng.integers(2)), k)
    if kind == "tree":
        return TreeModel(random_tree(rng, k, 3), k)
    if kind == "gaussian_nb":
        return GaussianNBModel(rng.uniform(0, 1, (2, k)), rng.uniform(0.05, 1, (2, k)), np.log(rng.uniform(0.1, 1, 2)), k)
    return hand_logistic(rng, k)


def probe_matrix(bases, n_features, rng):
    """Random rows, plus rows on the mean of each naive Bayes class, where a
    floored variance cancels most."""
    rows = [rng.uniform(-0.5, 1.5, (40, n_features))]
    for base in bases:
        if isinstance(base, GaussianNBModel):
            for c in (0, 1):
                on_mean = rng.uniform(-0.5, 1.5, (5, n_features))
                on_mean[:, base.variances[c].argmin()] = base.means[c, base.variances[c].argmin()]
                rows += [on_mean, base.means[c][None, :]]
    return np.vstack(rows)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_features=st.integers(1, 5),
    kinds=st.lists(st.sampled_from(BASE_KINDS), min_size=2, max_size=5),
    meta_kind=st.sampled_from(["constant", "tree", "gaussian_nb", "logistic"]),
)
# the trained and the first hand-built naive Bayes floor feature 0's variance about different means
@example(seed=5, n_features=5, kinds=["cart_tree", "gaussian_nb", "floored_nb", "floored_nb"], meta_kind="logistic")
def test_stacking_matches_meta_over_its_bases_on_the_reference(seed, n_features, kinds, meta_kind):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, (60, n_features))
    y = np.arange(60) % 2
    x[y == 1, 0] = rng.uniform(0, 1)  # class 1 is constant in feature 0: a floored variance once trained
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bases = [make_base(kind, LabeledDataset(x, y), rng) for kind in kinds]
    model = StackingModel(bases, make_meta(meta_kind, len(bases), rng), n_features)
    x = probe_matrix(bases, n_features, rng)
    want = proba_reference(model, x)
    assert np.abs(model.predict_proba_batch(x) - want).max() <= 1e-9
    clear = np.abs(want - 0.5) > 1e-9
    assert np.array_equal(model.predict_batch(x)[clear], (want >= 0.5)[clear])


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_features=st.integers(1, 5),
    kinds=st.lists(st.sampled_from(BASE_KINDS), min_size=1, max_size=6),
)
def test_voting_ensembles_match_their_members_on_the_reference(seed, n_features, kinds):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, (60, n_features))
    y = np.arange(60) % 2
    x[y == 1, 0] = rng.uniform(0, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        members = [make_base(kind, LabeledDataset(x, y), rng) for kind in kinds]
    alphas = rng.normal(0.5, 1.0, len(members))
    alphas[rng.random(len(members)) < 0.2] = 0.0
    x = probe_matrix(members, n_features, rng)
    probs = np.array([proba_reference(m, x) for m in members])  # (M, n)
    votes = (probs >= 0.5).astype(float)
    total = float(sum(abs(a) for a in alphas))
    want = {
        "adaboost": np.full(x.shape[0], 0.5) if total == 0.0 else 0.5 * (alphas @ (2.0 * votes - 1.0) / total + 1.0),
        "bagging": votes.mean(axis=0),
    }
    # each naive Bayes member is expanded about its own center; away from a
    # band of its threshold every member votes as the reference does
    tol = 1e-9
    clear = (np.abs(probs - 0.5) > tol).all(axis=0)
    for name, model in (("adaboost", AdaBoostModel(members, alphas, n_features)),
                        ("bagging", BaggingModel(members, n_features))):
        assert np.abs(model._columns(x) - probs).max() <= tol
        assert np.allclose(model.predict_proba_batch(x)[clear], want[name][clear], rtol=0, atol=1e-12)
        assert np.array_equal(model.predict_batch(x)[clear], (want[name] >= 0.5)[clear])


def test_stacking_meta_features_are_its_bases_probabilities():
    data = training_data()
    rng = np.random.default_rng(6)
    bases = [make_base(kind, data, rng) for kind in ("gaussian_nb", "cart_tree", "constant", "logistic", "random_tree")]
    model = StackingModel(bases, ConstantModel(1, len(bases)), data.arity)
    x = rng.uniform(0, 1, (50, data.arity))
    got = model._meta_features(x)
    assert got.flags.c_contiguous and got.shape == (50, len(bases))
    for j, base in enumerate(bases):
        assert np.allclose(got[:, j], proba_reference(base, x), rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# threshold-grid tables against the forest
# ---------------------------------------------------------------------------


# thresholds that trees drawn with shared=True pick from; inf, -inf and NaN
# also turn up among the distinct ones
SHARED_THRESHOLDS = (-np.inf, 0.25, 0.5, 0.75, np.inf, np.nan)


def grid_tree(rng, n_features, depth, shared):
    if depth == 0 or rng.random() < 0.2:
        return leaf(float(rng.integers(0, 5)) / 4)
    if shared or rng.random() < 0.2:
        threshold = float(rng.choice(SHARED_THRESHOLDS))
    else:
        threshold = float(rng.uniform(0, 1))
    return split(int(rng.integers(n_features)), threshold,
                 grid_tree(rng, n_features, depth - 1, shared), grid_tree(rng, n_features, depth - 1, shared))


def without_tables(build):
    """``build()`` with the grid cap at 0, so its forest answers every row."""
    with mock.patch("edgealloc.learners.base.GRID_CELLS_MAX", 0):
        model = build()
    assert model._table is None and model._columns._grid is None
    return model


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_features=st.integers(1, 4),
    n_members=st.integers(1, 8),
    shared=st.booleans(),
)
def test_table_labels_match_the_forest_path(seed, n_features, n_members, shared):
    rng = np.random.default_rng(seed)
    members = [ConstantModel(int(rng.integers(2)), n_features) if rng.random() < 0.2
               else TreeModel(grid_tree(rng, n_features, 3, shared), n_features) for _ in range(n_members)]
    alphas = rng.choice([0.5, 1.0, 1.5, -1.0], n_members)  # small multiples tie often
    roots = [m.root for m in members if isinstance(m, TreeModel)]
    x = probe_rows(roots, n_features, rng)
    x[rng.random(x.shape) < 0.05] = np.inf
    x[rng.random(x.shape) < 0.05] = -np.inf
    for build in (lambda: AdaBoostModel(members, alphas, n_features), lambda: BaggingModel(members, n_features)):
        model, forest_only = build(), without_tables(build)
        assert model._table is not None
        assert np.array_equal(model._columns(x), forest_only._columns(x))
        assert np.array_equal(model.predict_batch(x), forest_only.predict_batch(x))
        for i in range(0, x.shape[0], max(1, x.shape[0] // 20)):
            assert model.predict_batch(x[i:i + 1]) == forest_only.predict_batch(x[i:i + 1])


def test_ensembles_past_the_cap_or_with_a_naive_bayes_member_get_no_table():
    # five ten-cut chains, one per feature: 11**5 cells, past the cap
    chains = [TreeModel(chain(10, feature=f), 5) for f in range(5)]
    nb = train_base(BaseLearnerSpec(kind="gaussian_nb"), training_data(), seed=0)
    rng = np.random.default_rng(8)
    x = np.vstack([probe_rows([c.root for c in chains], 5, rng), probe_matrix([nb], 5, rng)])
    # with equal weights boosting votes as bagging does, a tie included
    for model, grid in ((BaggingModel(chains, 5), False), (AdaBoostModel(chains, np.ones(5), 5), False),
                        (BaggingModel(chains[:2] + [nb], 5), True)):
        assert model._table is None and (model._columns._grid is not None) == grid
        probs = np.array([proba_reference(m, x) for m in model.members])
        clear = (np.abs(probs - 0.5) > 1e-9).all(axis=0)
        want = (probs >= 0.5).mean(axis=0) >= 0.5
        assert np.array_equal(model.predict_batch(x)[clear], want[clear])


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
    # without a table, so the forest path that fills one labels the rows:
    # the margin sums to -8.9e-16 in member order, which the probability
    # rounds to 0.5 (label 1); a matrix product rounds it differently at
    # different batch sizes
    models["boost_ties"] = without_tables(lambda: AdaBoostModel(
        [ConstantModel(label, data.arity) for label in (1, 0, 1, 1)], [3.0, 11.760000000000002, 3.15, 5.61], data.arity
    ))
    return models


@pytest.mark.parametrize(
    "name", ["constant", "cart_tree", "random_tree", "gaussian_nb", "logistic", "boost", "bagging", "stacking", "boost_ties"]
)
def test_each_row_is_labelled_from_that_row_alone(all_models, name):
    model = all_models[name]
    rng = np.random.default_rng(5)
    x = rng.uniform(0, 1, (60, 5))
    full = model.predict_batch(x)
    for size in (1, 2, 7, 30, 60):
        rows = rng.choice(60, size=size, replace=False)
        assert np.array_equal(model.predict_batch(x[rows]), full[rows])
