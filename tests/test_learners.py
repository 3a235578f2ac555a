import json
import warnings

import numpy as np
import pytest

from edgealloc.errors import DataError
from edgealloc.learners import (
    BaseLearnerSpec,
    ConstantModel,
    LabeledDataset,
    bootstrap_indices,
    load_bundle,
    model_from_dict,
    save_bundle,
    train_adaboost,
    train_bagging,
    train_base,
    train_stacking,
)


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


def test_predict_rejects_arity_mismatch():
    data = separable_2d()
    model = train_base(BaseLearnerSpec(kind="cart_tree"), data, seed=0)
    with pytest.raises(ValueError, match="arity"):
        model.predict_batch(np.array([[0.1, 0.2, 0.3]]))


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


# ---------------------------------------------------------------------------
# bagging
# ---------------------------------------------------------------------------


def test_bagging_identity_bootstrap_equals_base():
    data = banded_1d()
    spec = BaseLearnerSpec(kind="cart_tree", max_depth=3)
    bagged = train_bagging(data, bags=1, spec=spec, seed=0, identity_bootstrap=True)
    # the single member saw exactly the training data, so the ensemble must
    # reproduce a tree fit on it
    direct = train_base(spec, data, seed=0)
    assert (bagged.predict_batch(data.features) == direct.predict_batch(data.features)).all()


def test_bootstrap_distinct_fraction_near_limit():
    rng = np.random.default_rng(123)
    n = 2000
    fractions = [len(np.unique(bootstrap_indices(rng, n))) / n for _ in range(1000)]
    assert np.mean(fractions) == pytest.approx(1 - 1 / np.e, abs=0.01)


def test_bagging_majority_vote_and_tie_break():
    class Fixed:
        def __init__(self, label):
            self.label = label
            self.n_features = 1

        def predict_batch(self, x):
            return np.full(np.asarray(x).shape[0], self.label, dtype=int)

    from edgealloc.learners import BaggingModel

    majority = BaggingModel([Fixed(1), Fixed(1), Fixed(0)], n_features=1)
    assert majority.predict_batch(np.array([[0.5]])).tolist() == [1]
    tie = BaggingModel([Fixed(1), Fixed(0)], n_features=1)
    assert tie.predict_batch(np.array([[0.5]])).tolist() == [1]  # ties resolve to the positive class


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
    from edgealloc.learners.ensembles import _stratified_split

    idx_a, idx_b = _stratified_split(y, 0.5, np.random.default_rng(1))
    assert abs(len(idx_a) - 50) <= 1 and abs(len(idx_b) - 50) <= 1
    assert abs(y[idx_a].sum() - 30) <= 1
    assert set(idx_a) & set(idx_b) == set()


def test_stacking_reports_zero_heldout_label_reads_during_base_fit():
    data = separable_2d(n=80)
    model = train_stacking(data, _stacking_specs(), BaseLearnerSpec(kind="logistic"), seed=0)
    assert model.heldout_label_reads_during_base_fit == 0


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


def test_model_from_dict_rejects_unknown_type():
    with pytest.raises(DataError):
        model_from_dict({"type": "mystery"})


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
