import inspect
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgealloc.errors import DataError
from edgealloc.learners import (
    BaggingModel,
    BaseLearnerSpec,
    ConstantModel,
    LabeledDataset,
    StackingModel,
    bootstrap_indices,
    load_bundle,
    model_from_dict,
    save_bundle,
    train_adaboost,
    train_bagging,
    train_base,
    train_stacking,
)
from edgealloc.learners import serialize
from edgealloc.learners.ensembles import _child_seed, _stratified_split, model_shape
from edgealloc.learners.base import LEARNER_KINDS, TreeModel


def dataset(features, labels):
    return LabeledDataset(np.asarray(features, dtype=float), np.asarray(labels, dtype=int))


def separable_2d(n=20, seed=3):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, (n, 2))
    y = (x[:, 0] + x[:, 1] > 1.0).astype(int)
    # nudge points off the boundary so the set is cleanly separable
    x[y == 1] += 0.05
    return dataset(x, y)


def banded_1d():
    """Positive iff x in (0.3, 0.7): needs two threshold cuts."""
    x = np.linspace(0.01, 0.99, 30)[:, None]
    y = ((x[:, 0] > 0.3) & (x[:, 0] < 0.7)).astype(int)
    return dataset(x, y)


def best_stump_error(x, y):
    """Brute-force single-threshold oracle: lowest 0/1 error over all cuts
    and both polarities."""
    best = 1.0
    for f in range(x.shape[1]):
        values = np.unique(x[:, f])
        cuts = np.concatenate([[values[0] - 1], (values[:-1] + values[1:]) / 2, [values[-1] + 1]])
        for c in cuts:
            for polarity in (0, 1):
                pred = np.where(x[:, f] <= c, polarity, 1 - polarity)
                best = min(best, float((pred != y).mean()))
    return best


# ---------------------------------------------------------------------------
# base learners
# ---------------------------------------------------------------------------


def test_logistic_separates_toy_set():
    data = separable_2d()
    model = train_base(BaseLearnerSpec(kind="logistic", epochs=500), data, seed=0)
    assert (model.predict_batch(data.features) == data.labels).all()


def test_cart_depth_one_matches_stump_oracle():
    x = np.linspace(0, 1, 16)[:, None]
    y = (x[:, 0] > 0.5).astype(int)
    data = dataset(x, y)
    model = train_base(BaseLearnerSpec(kind="cart_tree", max_depth=1), data, seed=0)
    acc = (model.predict_batch(x) == y).mean()
    assert acc == 1.0
    assert best_stump_error(x, y) == 0.0


def test_single_class_data_degrades_to_constant_with_warning():
    data = dataset([[0.1, 0.2], [0.3, 0.4]], [1, 1])
    with pytest.warns(UserWarning, match="single class"):
        model = train_base(BaseLearnerSpec(kind="cart_tree"), data, seed=0)
    assert isinstance(model, ConstantModel)
    assert model.predict_batch(np.array([[9.0, 9.0]])).tolist() == [1]


def test_gaussian_nb_learns_shifted_clusters():
    rng = np.random.default_rng(5)
    x0 = rng.normal(0.2, 0.05, (40, 3))
    x1 = rng.normal(0.8, 0.05, (40, 3))
    data = dataset(np.vstack([x0, x1]), [0] * 40 + [1] * 40)
    model = train_base(BaseLearnerSpec(kind="gaussian_nb"), data, seed=0)
    assert (model.predict_batch(data.features) == data.labels).mean() == 1.0


def test_random_tree_deterministic_given_seed():
    data = separable_2d(n=60)
    spec = BaseLearnerSpec(kind="random_tree", max_depth=3, feature_subset_size=1)
    m1 = train_base(spec, data, seed=42)
    m2 = train_base(spec, data, seed=42)
    assert m1.to_dict() == m2.to_dict()


def test_predict_contract():
    data = separable_2d()
    model = train_base(BaseLearnerSpec(kind="logistic"), data, seed=0)
    labels = model.predict_batch(data.features)
    probas = model.predict_proba_batch(data.features)
    assert set(labels.tolist()) <= {0, 1}
    assert np.all((0.0 <= probas) & (probas <= 1.0))
    assert labels.tolist() == (probas >= 0.5).astype(int).tolist()


def test_probabilities_always_in_unit_interval():
    data = banded_1d()
    for kind in ("cart_tree", "gaussian_nb", "logistic"):
        model = train_base(BaseLearnerSpec(kind=kind), data, seed=0)
        probs = model.predict_proba_batch(data.features)
        assert np.all((0.0 <= probs) & (probs <= 1.0))


# ---------------------------------------------------------------------------
# boosting
# ---------------------------------------------------------------------------


def test_adaboost_single_round_equals_base_learner():
    data = separable_2d(n=40)
    spec = BaseLearnerSpec(kind="cart_tree", max_depth=1)
    boosted = train_adaboost(data, rounds=1, spec=spec, seed=0)
    base = boosted.members[0]
    assert (boosted.predict_batch(data.features) == base.predict_batch(data.features)).all()


def test_adaboost_stumps_beat_single_stump_on_banded_set():
    data = banded_1d()
    spec = BaseLearnerSpec(kind="cart_tree", max_depth=1)
    one = train_adaboost(data, rounds=1, spec=spec, seed=0)
    five = train_adaboost(data, rounds=5, spec=spec, seed=0)
    err_one = (one.predict_batch(data.features) != data.labels).mean()
    err_five = (five.predict_batch(data.features) != data.labels).mean()
    # the band needs two cuts: one stump cannot be perfect
    assert best_stump_error(data.features, data.labels) > 0.0
    assert err_five < err_one


def test_adaboost_training_error_non_increasing_in_rounds():
    data = banded_1d()
    spec = BaseLearnerSpec(kind="cart_tree", max_depth=1)
    errors = []
    for rounds in (1, 3, 5, 9):
        model = train_adaboost(data, rounds=rounds, spec=spec, seed=0)
        errors.append((model.predict_batch(data.features) != data.labels).mean())
    assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))


def test_adaboost_perfect_member_gets_capped_weight_and_stops():
    data = separable_2d(n=30)
    model = train_adaboost(data, rounds=10, spec=BaseLearnerSpec(kind="cart_tree", max_depth=4), seed=0)
    assert len(model.members) == 1
    assert model.alphas[0] == pytest.approx(0.5 * np.log((1 - 1e-10) / 1e-10))


def _no_signal(n=20):
    """One constant feature and balanced labels: no tree beats error 0.5."""
    return dataset(np.zeros((n, 1)), np.arange(n) % 2)


@pytest.mark.parametrize(
    "data, rounds, depth, reason, members",
    [
        (separable_2d(n=30), 10, 4, "zero_error", 1),
        (_no_signal(), 10, 2, "error_at_least_half", 1),
        (banded_1d(), 3, 1, "round_limit", 3),
    ],
)
def test_adaboost_records_why_it_stopped(data, rounds, depth, reason, members):
    model = train_adaboost(data, rounds=rounds, spec=BaseLearnerSpec(kind="cart_tree", max_depth=depth), seed=0)
    assert (model.stop_reason, len(model.members)) == (reason, members)
    assert model_shape(model)["stop_reason"] == reason
    assert "stop_reason" not in model.to_dict()  # the record, and so models.json, does not hold it
    assert model_from_dict(model.to_dict()).stop_reason is None


# ---------------------------------------------------------------------------
# tree fit against the per-node sort it replaces
# ---------------------------------------------------------------------------


def reference_best_split(x, y, w, feature_ids, min_leaf):
    """Best (impurity, feature, threshold) by weighted gini, sorting each
    feature of the node's rows anew; ties resolve to the first feature and
    the lowest threshold, and a later feature must win by more than 1e-15."""

    def gini(pos_w, tot_w):
        with np.errstate(invalid="ignore", divide="ignore"):
            p = np.divide(pos_w, tot_w, out=np.zeros_like(pos_w), where=tot_w > 0)
        return 2.0 * p * (1.0 - p)

    n = x.shape[0]
    total_w = w.sum()
    total_pos = float(w[y == 1].sum())
    best = None
    for f in feature_ids:
        order = np.argsort(x[:, f], kind="mergesort")
        xv = x[order, f]
        wv = w[order]
        cum_w = np.cumsum(wv)
        cum_pos = np.cumsum(wv * y[order])
        boundaries = np.nonzero(xv[1:] != xv[:-1])[0]
        left_n = boundaries + 1
        boundaries = boundaries[(left_n >= min_leaf) & (n - left_n >= min_leaf)]
        if boundaries.size == 0:
            continue
        wl, pl = cum_w[boundaries], cum_pos[boundaries]
        child = wl * gini(pl, wl) + (total_w - wl) * gini(total_pos - pl, total_w - wl)
        i = int(np.argmin(child))
        if best is None or float(child[i]) < best[0] - 1e-15:
            b = boundaries[i]
            best = (float(child[i]), int(f), float((xv[b] + xv[b + 1]) / 2.0))
    return best


def reference_tree(data, max_depth, min_leaf, feature_subset_size=None, rng=None, sample_weight=None):
    """The root of the tree ``TreeModel.fit`` grows, by a sort per node."""
    x, y = data.features, data.labels
    w = np.full(len(data), 1.0 / len(data)) if sample_weight is None else sample_weight / sample_weight.sum()

    def grow(idx, depth):
        yw = w[idx]
        total = yw.sum()
        prob = float(yw[y[idx] == 1].sum()) / total if total > 0 else 0.5
        if depth >= max_depth or prob in (0.0, 1.0) or idx.size < 2 * min_leaf:
            return {"prob": prob}
        if feature_subset_size is None:
            feats = np.arange(x.shape[1])
        else:
            feats = np.sort(rng.choice(x.shape[1], size=min(feature_subset_size, x.shape[1]), replace=False))
        split = reference_best_split(x[idx], y[idx], yw, feats, min_leaf)
        if split is None:
            return {"prob": prob}
        _, f, thr = split
        mask = x[idx, f] <= thr
        return {"feature": f, "threshold": thr, "left": grow(idx[mask], depth + 1), "right": grow(idx[~mask], depth + 1)}

    return grow(np.arange(len(data)), 0)


@st.composite
def tree_cases(draw):
    """A dataset with heavy ties (values from a small set, -0.0 and NaN
    among them), perhaps a bootstrap subset of it or a subset of that, and
    the weights and hyperparameters of one tree."""
    n_features = draw(st.integers(1, 4))
    n = draw(st.integers(1, 40))
    values = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 3.0, float("nan")])
    x = np.array(draw(st.lists(st.lists(values, min_size=n_features, max_size=n_features), min_size=n, max_size=n)))
    data = LabeledDataset(x.reshape(n, n_features), draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    for _ in range(draw(st.integers(0, 2))):  # a subset, then a subset of the subset
        data = data.subset(draw(st.lists(st.integers(0, len(data) - 1), min_size=1, max_size=40)))
    weights = None
    if draw(st.booleans()):  # boosting's: a positive weight per row, grown or shrunk per miss
        alpha = draw(st.sampled_from([0.1, 0.3, 1 / 3, 0.7, 1.5]))
        misses = draw(st.lists(st.integers(-3, 3), min_size=len(data), max_size=len(data)))
        weights = np.exp(alpha * np.array(misses, dtype=float))
    kind = draw(st.sampled_from(["cart_tree", "random_tree"]))
    subset_size = draw(st.integers(1, n_features)) if kind == "random_tree" else None
    return data, weights, kind, subset_size, draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(0, 99))


@settings(max_examples=400, deadline=None)
@given(tree_cases())
def test_tree_fit_matches_the_per_node_sort_reference(case):
    data, weights, kind, subset_size, depth, min_leaf, seed = case
    # the ranking is the order a stable sort of the dataset's own features gives
    assert (data.ranking() == np.argsort(data.features.T, axis=1, kind="stable")).all()
    rng = np.random.default_rng(seed) if subset_size else None
    tree = TreeModel.fit(data, depth, min_leaf, subset_size, rng, weights, kind=kind)
    rng = np.random.default_rng(seed) if subset_size else None
    expected = reference_tree(data, depth, min_leaf, subset_size, rng, weights)
    assert json.dumps(tree.root, sort_keys=True) == json.dumps(expected, sort_keys=True)


@pytest.mark.parametrize("kind", LEARNER_KINDS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_train_base_refuses_a_non_finite_sample_weight(kind, bad):
    data = dataset([[0.0, 0.0], [0.1, 0.2], [0.9, 1.0], [1.0, 0.8]], [0, 0, 1, 1])
    with pytest.raises(ValueError, match="sample weights must be finite") as caught:
        train_base(BaseLearnerSpec(kind=kind, max_depth=2), data, seed=0, sample_weight=[1.0, bad, 1.0, 1.0])
    assert caught.type is ValueError  # not the model-file error DataError


# ---------------------------------------------------------------------------
# bagging
# ---------------------------------------------------------------------------


def test_bagging_identity_bootstrap_equals_base():
    data = banded_1d()
    spec = BaseLearnerSpec(kind="cart_tree", max_depth=3)
    # a bag of one member fit on exactly the training data must reproduce a
    # tree fit on it
    bagged = BaggingModel([train_base(spec, data, seed=0)], data.arity)
    direct = train_base(spec, data, seed=0)
    assert (bagged.predict_batch(data.features) == direct.predict_batch(data.features)).all()


def test_bootstrap_distinct_fraction_near_limit():
    rng = np.random.default_rng(123)
    n = 2000
    fractions = [len(np.unique(bootstrap_indices(rng, n))) / n for _ in range(1000)]
    assert np.mean(fractions) == pytest.approx(1 - 1 / np.e, abs=0.01)


def test_bagging_majority_vote_and_tie_break():
    def bag(*labels):
        return BaggingModel([ConstantModel(label, 1) for label in labels], n_features=1)

    assert bag(1, 1, 0).predict_batch(np.array([[0.5]])).tolist() == [1]
    assert bag(0, 0, 1).predict_batch(np.array([[0.5]])).tolist() == [0]
    assert bag(1, 0).predict_batch(np.array([[0.5]])).tolist() == [1]  # ties resolve to the positive class


# ---------------------------------------------------------------------------
# stacking
# ---------------------------------------------------------------------------


def _stacking_specs():
    return (
        BaseLearnerSpec(kind="cart_tree", max_depth=3),
        BaseLearnerSpec(kind="logistic", epochs=200),
    )


def test_stacking_split_is_stratified_half_half():
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, (100, 2))
    y = np.array([1] * 60 + [0] * 40)
    idx_a, idx_b = _stratified_split(y, 0.5, np.random.default_rng(1))
    assert abs(len(idx_a) - 50) <= 1 and abs(len(idx_b) - 50) <= 1
    assert abs(y[idx_a].sum() - 30) <= 1
    assert set(idx_a) & set(idx_b) == set()


def test_stacking_bases_train_on_part_a_alone():
    # each base is its spec trained on part A of the same stratified split
    # alone, with the same child seed
    data = separable_2d(n=80)
    for seed in (0, 3):
        model = train_stacking(data, _stacking_specs(), BaseLearnerSpec(kind="logistic"), seed=seed)
        idx_a, _ = _stratified_split(data.labels, 0.5, np.random.default_rng([seed, 0x57AC]))
        want = [train_base(s, data.subset(idx_a), seed=_child_seed(seed, i)) for i, s in enumerate(_stacking_specs())]
        assert [b.to_dict() for b in model.bases] == [b.to_dict() for b in want]


def test_stacking_meta_features_have_base_arity():
    data = separable_2d(n=80)
    model = train_stacking(data, _stacking_specs(), BaseLearnerSpec(kind="logistic"), seed=0)
    meta_features = model._meta_features(data.features)
    assert meta_features.shape == (len(data), len(model.bases))


def test_stacking_over_duplicated_bases_matches_them():
    # two identical bases: the meta learner has one useful signal and must
    # follow it on held-out data
    rng = np.random.default_rng(7)
    x = rng.uniform(0, 1, (120, 2))
    y = (x[:, 0] > 0.5).astype(int)
    data = dataset(x, y)
    spec = BaseLearnerSpec(kind="cart_tree", max_depth=2)
    model = train_stacking(data, (spec, spec), BaseLearnerSpec(kind="logistic", epochs=400), seed=1)
    holdout = rng.uniform(0, 1, (50, 2))
    base_pred = model.bases[0].predict_batch(holdout)
    assert (model.predict_batch(holdout) == base_pred).mean() == 1.0


def test_stacking_needs_two_specs_and_valid_ratio():
    data = separable_2d()
    with pytest.raises(ValueError):
        train_stacking(data, (_stacking_specs()[0],), BaseLearnerSpec(kind="logistic"), seed=0)
    with pytest.raises(ValueError):
        train_stacking(data, _stacking_specs(), BaseLearnerSpec(kind="logistic"), split_ratio=1.0, seed=0)


def test_stacking_rejects_tiny_class():
    data = dataset([[0.1], [0.2], [0.9]], [0, 0, 1])
    with pytest.raises(DataError, match="stratified"):
        train_stacking(data, _stacking_specs(), BaseLearnerSpec(kind="logistic"), seed=0)


# ---------------------------------------------------------------------------
# determinism & serialisation
# ---------------------------------------------------------------------------


def test_ensembles_deterministic_given_seed():
    data = banded_1d()
    spec = BaseLearnerSpec(kind="cart_tree", max_depth=2)
    for train in (
        lambda s: train_adaboost(data, 5, spec, seed=s),
        lambda s: train_bagging(data, 5, spec, seed=s),
        lambda s: train_stacking(data, _stacking_specs(), BaseLearnerSpec(kind="logistic"), seed=s),
    ):
        assert json.dumps(train(9).to_dict(), sort_keys=True) == json.dumps(
            train(9).to_dict(), sort_keys=True
        )


def test_bundle_roundtrip_preserves_predictions(tmp_path):
    data = banded_1d()
    spec = BaseLearnerSpec(kind="cart_tree", max_depth=2)
    models = {
        "boost": train_adaboost(data, 4, spec, seed=0),
        "bagging": train_bagging(data, 4, spec, seed=1),
        "stacking": train_stacking(data, _stacking_specs(), BaseLearnerSpec(kind="logistic"), seed=2),
    }
    path = tmp_path / "models.json"
    save_bundle(path, models, metadata={"note": "test"})
    loaded, meta = load_bundle(path)
    assert meta["note"] == "test"
    grid = np.linspace(0, 1, 50)[:, None]
    for name, model in models.items():
        assert np.allclose(
            loaded[name].predict_proba_batch(grid), model.predict_proba_batch(grid)
        )


def test_bundle_rejects_unknown_schema(tmp_path):
    path = tmp_path / "models.json"
    path.write_text(json.dumps({"schema_version": 99, "models": {}}), encoding="utf-8")
    with pytest.raises(DataError, match="schema version"):
        load_bundle(path)


def test_a_model_file_nested_as_deep_as_json_parses_raises_data_error(tmp_path):
    constant = '{"type": "constant", "label": 1, "n_features": 2}'
    link = '{"type": "stacking", "bases": [%s, %s], "n_features": 2, "meta": ' % (constant, constant)

    def text(depth):  # a chain of stacking models, each the next one's meta learner
        return '{"schema_version": 1, "models": {"x": ' + link * depth + constant + "}" * depth + "}}"

    def parses(depth):  # called as deep in the stack as load_bundle calls json.loads
        try:
            return json.loads(text(depth)) is not None
        except RecursionError:
            return False

    lo, hi = 1, 10_000  # the deepest chain json.loads reads; rebuilding it needs a deeper stack
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if parses(mid) else (lo, mid - 1)
    path = tmp_path / "models.json"
    path.write_text(text(lo), encoding="utf-8")
    with pytest.raises(DataError, match="model file"):
        load_bundle(path)


def test_model_from_dict_rejects_unknown_type():
    with pytest.raises(DataError):
        model_from_dict({"type": "mystery"})


def test_every_kind_round_trips_through_its_one_field_list():
    data = separable_2d(n=40)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        models = [
            train_base(BaseLearnerSpec(kind="cart_tree"), dataset([[0.0, 0.0], [1.0, 1.0]], [1, 1]), seed=0),
            *(train_base(BaseLearnerSpec(kind=kind), data, seed=0) for kind in LEARNER_KINDS),
            train_adaboost(data, 3, BaseLearnerSpec(kind="cart_tree", max_depth=2), seed=0),
            train_bagging(data, 3, BaseLearnerSpec(kind="cart_tree", max_depth=2), seed=0),
            train_stacking(data, _stacking_specs(), BaseLearnerSpec(kind="logistic"), seed=0),
        ]
    assert sorted(m.to_dict()["type"] for m in models) == sorted(serialize._TYPES)
    for model in models:
        record = model.to_dict()
        assert model_from_dict(json.loads(json.dumps(record))).to_dict() == record
        # the record's fields are the constructor's arguments, bar the tree's
        # kind (its type) and boosting's stop reason (set at training time,
        # not stored)
        params = inspect.signature(type(model)).parameters
        assert list(type(model).FIELDS) == [p for p in params if p not in ("kind", "stop_reason")]


NB_RECORD = {"type": "gaussian_nb", "means": [[0.2, 0.4], [0.6, 0.8]], "variances": [[0.1, 0.2], [0.3, 0.4]],
             "log_priors": [-0.7, -0.7], "n_features": 2}
LOGISTIC_RECORD = {"type": "logistic", "weights": [1.0, -2.0], "bias": 0.5, "mu": [0.5, 0.5], "sigma": [0.2, 0.3],
                   "n_features": 2}


def _with(record, **changes):
    return dict(record, **changes)


@pytest.mark.parametrize(
    "record, message",
    [
        (_with(NB_RECORD, variances=[[0.1, 0.0], [0.3, 0.4]]), "variances must be positive"),
        (_with(NB_RECORD, variances=[[0.1, 0.2], [-1.0, 0.4]]), "variances must be positive"),
        (_with(NB_RECORD, means=[[0.2], [0.6]]), "means has shape"),
        (_with(NB_RECORD, log_priors=[0.0, float("nan")]), "log_priors must be finite"),
        (_with(NB_RECORD, variances=[[0.1, 1e-320], [0.3, 0.4]]), "overflow"),
        (_with(LOGISTIC_RECORD, sigma=[0.2, 0.0]), "sigma must be positive"),
        (_with(LOGISTIC_RECORD, bias=float("nan")), "bias must be finite"),
        (_with(LOGISTIC_RECORD, weights=[1.0]), "weights has shape"),
        (_with(LOGISTIC_RECORD, mu=["a", "b"]), "mu is not numeric"),
        (
            {"type": "stacking", "bases": [NB_RECORD, LOGISTIC_RECORD], "meta": _with(LOGISTIC_RECORD, n_features=3,
             weights=[1.0] * 3, mu=[0.0] * 3, sigma=[1.0] * 3), "n_features": 2},
            "meta learner reads 3 features",  # the reader's check, before the meta is built
        ),
        (
            {"type": "stacking", "bases": [NB_RECORD, _with(LOGISTIC_RECORD, n_features=3, weights=[1.0] * 3,
             mu=[0.0] * 3, sigma=[1.0] * 3)], "meta": LOGISTIC_RECORD, "n_features": 2},
            "bases must all read",  # the reader's check, before the base is built
        ),
        ({"type": "bagging", "members": [], "n_features": 2}, "at least one base model"),
        ({"type": "adaboost", "members": [], "alphas": [], "n_features": 2}, "at least one base model"),
        ({"type": "adaboost", "members": [NB_RECORD, LOGISTIC_RECORD], "alphas": [1.0], "n_features": 2},
         "alphas has shape"),
        ({"type": "adaboost", "members": [NB_RECORD], "alphas": [float("nan")], "n_features": 2}, "alphas must be finite"),
        ({"type": "adaboost", "members": [NB_RECORD], "alphas": ["x"], "n_features": 2}, "alphas is not numeric"),
        (
            # the logistic base alone is finite, but about the naive Bayes
            # center its log-odds constant is inf: a logistic form is checked
            # at the center of the group it joins
            {"type": "stacking", "bases": [
                {"type": "gaussian_nb", "means": [[1e155], [1e155]], "variances": [[1.0], [2.0]],
                 "log_priors": [0.0, 0.0], "n_features": 1},
                {"type": "logistic", "weights": [1e155], "bias": 0.0, "mu": [0.0], "sigma": [1.0], "n_features": 1},
            ], "meta": dict(LOGISTIC_RECORD, n_features=2), "n_features": 1},
            "overflow",
        ),
        ({"type": "constant", "label": "x", "n_features": 2}, "label must be 0 or 1"),
        ({"type": "constant", "label": 2, "n_features": 2}, "label must be 0 or 1"),
        ({"type": "constant", "label": 1, "n_features": "a"}, "n_features must be a positive integer"),
        ({"type": "bagging", "members": 5, "n_features": 2}, "members must be a list"),
        ({"type": "stacking", "bases": 3, "meta": LOGISTIC_RECORD, "n_features": 2}, "bases must be a list"),
    ],
)
def test_malformed_model_records_raise_data_error_when_loaded(tmp_path, record, message):
    with pytest.raises(DataError, match=message):
        model_from_dict(record)
    path = tmp_path / "models.json"
    path.write_text(json.dumps({"schema_version": 1, "models": {"stacking": record}}), encoding="utf-8")
    with pytest.raises(DataError, match=message):
        load_bundle(path)


def test_ensemble_constructors_refuse_bases_of_another_arity():
    # the reader refuses such records first; a model built directly is checked too
    nb, wide = model_from_dict(NB_RECORD), model_from_dict(_with(LOGISTIC_RECORD, n_features=3, weights=[1.0] * 3,
                                                                 mu=[0.0] * 3, sigma=[1.0] * 3))
    with pytest.raises(DataError, match="bases must all read"):
        BaggingModel([nb, wide], 2)
    with pytest.raises(DataError, match="meta learner reads 3 features"):
        StackingModel([nb, nb], wide, 2)


# ---------------------------------------------------------------------------
# bagging does not degrade the base learner (statistical check)
# ---------------------------------------------------------------------------


def test_bagging_not_worse_than_base_across_seeds():
    from edgealloc.bench import LearnerSetup
    from edgealloc.simulator import LabelingPolicy, ScenarioConfig, generate_scenario, synthesize_training_set

    policy = LabelingPolicy(max_relevance=0.5, max_load=0.5, min_speed=0.0)
    spec = BaseLearnerSpec(kind="cart_tree", max_depth=4, min_leaf=5)
    gaps = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seed in range(20):
            cfg = ScenarioConfig(n_nodes=1, n_queries=1, dims=1, seed=seed)
            data = synthesize_training_set(generate_scenario(cfg), policy, 700)
            train, hold = data.subset(np.arange(0, 500)), data.subset(np.arange(500, 700))
            base = train_base(spec, train, seed=seed)
            bag = train_bagging(train, bags=20, spec=spec, seed=seed)
            acc_base = (base.predict_batch(hold.features) == hold.labels).mean()
            acc_bag = (bag.predict_batch(hold.features) == hold.labels).mean()
            gaps.append(acc_bag - acc_base)
    assert np.mean(gaps) > -0.05
