"""Boosting, bagging and stacking wrappers around the base learners.

The three trained ensembles feed the decision fusion stage, so they share
one prediction surface with the base learners (hard label from probability
>= 0.5) and are deterministic given (data, specs, seed).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from ..errors import DataError
from .base import BaseLearnerSpec, LabeledDataset, TreeModel, _Model, train_base

__all__ = [
    "AdaBoostModel",
    "BaggingModel",
    "StackingModel",
    "train_adaboost",
    "train_bagging",
    "train_stacking",
    "bootstrap_indices",
]

_ERR_CLAMP = 1e-10


class _CompiledForest:
    """Level-synchronous evaluator for a batch of trees.

    Flattens every member tree into parallel node arrays (leaves self-loop)
    so one fancy-indexing sweep per depth level replaces per-tree recursive
    traversal; the per-query constant cost stops scaling with the member
    count.
    """

    def __init__(self, trees):
        node_lists = []
        max_nodes = 0
        max_depth = 1
        for tree in trees:
            nodes = []

            def flatten(node, level):
                nonlocal max_depth
                idx = len(nodes)
                nodes.append(None)
                if "prob" in node:
                    nodes[idx] = (0, np.inf, idx, idx, node["prob"])
                    max_depth = max(max_depth, level)
                else:
                    left = flatten(node["left"], level + 1)
                    right = flatten(node["right"], level + 1)
                    nodes[idx] = (node["feature"], node["threshold"], left, right, 0.0)
                return idx

            flatten(tree.root, 0)
            node_lists.append(nodes)
            max_nodes = max(max_nodes, len(nodes))
        t = len(node_lists)
        self.features = np.zeros((t, max_nodes), dtype=np.intp)
        self.thresholds = np.full((t, max_nodes), np.inf)
        self.left = np.zeros((t, max_nodes), dtype=np.intp)
        self.right = np.zeros((t, max_nodes), dtype=np.intp)
        self.probs = np.zeros((t, max_nodes))
        for i, nodes in enumerate(node_lists):
            for j, (feat, thr, left, right, prob) in enumerate(nodes):
                self.features[i, j] = feat
                self.thresholds[i, j] = thr
                self.left[i, j] = left
                self.right[i, j] = right
                self.probs[i, j] = prob
        # leaves self-loop, so sweeping the deepest path length suffices
        self.depth = max(1, max_depth)
        self.tree_ids = np.arange(t)[:, None]

    def leaf_probs(self, x: np.ndarray) -> np.ndarray:
        """(T, n) leaf probabilities for the n rows of x."""
        n = x.shape[0]
        xt = x.T
        idx = np.zeros((len(self.features), n), dtype=np.intp)
        cols = np.arange(n)[None, :]
        for _ in range(self.depth):
            feat = self.features[self.tree_ids, idx]
            go_left = xt[feat, cols] <= self.thresholds[self.tree_ids, idx]
            idx = np.where(go_left, self.left[self.tree_ids, idx], self.right[self.tree_ids, idx])
        return self.probs[self.tree_ids, idx]


def _compile_members(members):
    if members and all(isinstance(m, TreeModel) for m in members):
        return _CompiledForest(members)
    return None


class AdaBoostModel(_Model):
    """Discrete boosting ensemble: weighted vote of reweighted base learners."""

    def __init__(self, members: Sequence, alphas: Sequence[float], n_features: int):
        self.members = list(members)
        self.alphas = [float(a) for a in alphas]
        self.n_features = n_features
        self._forest = _compile_members(self.members)

    def predict_proba_batch(self, x):
        x = self._check(x)
        total = float(sum(abs(a) for a in self.alphas))
        if total == 0.0:
            return np.full(x.shape[0], 0.5)
        if self._forest is not None:
            labels = self._forest.leaf_probs(x) >= 0.5
            margin = np.asarray(self.alphas) @ (2.0 * labels - 1.0)
        else:
            margin = np.zeros(x.shape[0])
            for model, alpha in zip(self.members, self.alphas):
                margin += alpha * (2.0 * model.predict_batch(x) - 1.0)
        return 0.5 * (margin / total + 1.0)

    def to_dict(self) -> dict:
        return {
            "type": "adaboost",
            "members": [m.to_dict() for m in self.members],
            "alphas": self.alphas,
            "n_features": self.n_features,
        }


class BaggingModel(_Model):
    """Majority vote over learners trained on bootstrap resamples.

    The vote share doubles as the probability, so an exact tie (share 0.5)
    resolves to the positive class.
    """

    def __init__(self, members: Sequence, n_features: int):
        self.members = list(members)
        self.n_features = n_features
        self._forest = _compile_members(self.members)

    def predict_proba_batch(self, x):
        x = self._check(x)
        if self._forest is not None:
            return (self._forest.leaf_probs(x) >= 0.5).mean(axis=0)
        votes = np.zeros(x.shape[0])
        for model in self.members:
            votes += model.predict_batch(x)
        return votes / len(self.members)

    def to_dict(self) -> dict:
        return {
            "type": "bagging",
            "members": [m.to_dict() for m in self.members],
            "n_features": self.n_features,
        }


class StackingModel(_Model):
    """Base learners plus a meta learner trained on held-out predictions."""

    def __init__(self, bases: Sequence, meta, n_features: int,
                 heldout_label_reads_during_base_fit: int = 0):
        self.bases = list(bases)
        self.meta = meta
        self.n_features = n_features
        # instrumentation: reads of the held-out label array observed while
        # the base learners were being fitted (must be 0)
        self.heldout_label_reads_during_base_fit = heldout_label_reads_during_base_fit

    def _meta_features(self, x: np.ndarray) -> np.ndarray:
        return np.column_stack([b.predict_proba_batch(x) for b in self.bases])

    def predict_proba_batch(self, x):
        x = self._check(x)
        return self.meta.predict_proba_batch(self._meta_features(x))

    def to_dict(self) -> dict:
        return {
            "type": "stacking",
            "bases": [b.to_dict() for b in self.bases],
            "meta": self.meta.to_dict(),
            "n_features": self.n_features,
        }


class _CountedLabels:
    """Wraps a label array and counts every read access."""

    def __init__(self, labels: np.ndarray):
        self._labels = labels
        self.reads = 0

    def get(self) -> np.ndarray:
        self.reads += 1
        return self._labels


def train_adaboost(
    data: LabeledDataset, rounds: int, spec: BaseLearnerSpec, seed: int
) -> AdaBoostModel:
    """Discrete boosting with per-round instance reweighting.

    Per round: train a weighted base learner, measure its weighted error,
    stop early once the error reaches 0.5 (the member is dropped unless it
    is the only one) or hits 0 (the member is kept with a capped weight).
    Misclassified rows gain weight; weights renormalise to 1 each round.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    x, y = data.features, data.labels
    n = len(data)
    w = np.full(n, 1.0 / n)
    members, alphas = [], []
    for t in range(rounds):
        model = train_base(spec, data, seed=_child_seed(seed, t), sample_weight=w)
        pred = model.predict_batch(x)
        miss = pred != y
        err = float(w[miss].sum())
        if err >= 0.5:
            if not members:
                clamped = min(max(err, _ERR_CLAMP), 1.0 - _ERR_CLAMP)
                members.append(model)
                alphas.append(0.5 * math.log((1.0 - clamped) / clamped))
            break
        clamped = min(max(err, _ERR_CLAMP), 1.0 - _ERR_CLAMP)
        alpha = 0.5 * math.log((1.0 - clamped) / clamped)
        members.append(model)
        alphas.append(alpha)
        if err == 0.0:
            break
        w = w * np.exp(np.where(miss, alpha, -alpha))
        w = w / w.sum()
    return AdaBoostModel(members, alphas, data.arity)


def bootstrap_indices(rng: np.random.Generator, n: int) -> np.ndarray:
    """One bootstrap resample: n row indices drawn with replacement."""
    return rng.integers(0, n, size=n)


def train_bagging(
    data: LabeledDataset,
    bags: int,
    spec: BaseLearnerSpec,
    seed: int,
    identity_bootstrap: bool = False,
) -> BaggingModel:
    """Majority-vote ensemble over ``bags`` bootstrap resamples of the data.

    ``identity_bootstrap`` replaces every resample with the untouched
    dataset; it exists so tests can pin a bag to the exact training data.
    """
    if bags < 1:
        raise ValueError("bags must be >= 1")
    n = len(data)
    members = []
    for b in range(bags):
        if identity_bootstrap:
            sample = data
        else:
            rng = np.random.default_rng([seed, 0xBA6, b])
            sample = data.subset(bootstrap_indices(rng, n))
        members.append(train_base(spec, sample, seed=_child_seed(seed, b)))
    return BaggingModel(members, data.arity)


def _stratified_split(labels: np.ndarray, ratio: float, rng: np.random.Generator):
    """Index split that preserves the class mix; every class lands in both
    parts, which requires at least two rows per class."""
    part_a, part_b = [], []
    for c in np.unique(labels):
        idx = np.nonzero(labels == c)[0]
        if idx.size < 2:
            raise DataError(
                f"class {int(c)} has {idx.size} row(s); stratified splitting needs at least 2"
            )
        idx = rng.permutation(idx)
        take = int(np.clip(round(ratio * idx.size), 1, idx.size - 1))
        part_a.append(idx[:take])
        part_b.append(idx[take:])
    return np.sort(np.concatenate(part_a)), np.sort(np.concatenate(part_b))


def train_stacking(
    data: LabeledDataset,
    base_specs: Sequence[BaseLearnerSpec],
    meta_spec: BaseLearnerSpec,
    split_ratio: float = 0.5,
    seed: int = 0,
) -> StackingModel:
    """Two-stage stacking on disjoint splits.

    Bases train on part A only; their predictions on part B become the meta
    features (arity = number of bases).  Part B labels sit behind a read
    counter while the bases fit, and the count observed at that point is
    recorded on the model as leakage instrumentation.
    """
    if len(base_specs) < 2:
        raise ValueError("stacking needs at least two base learner specs")
    if not 0.0 < split_ratio < 1.0:
        raise ValueError("split_ratio must be in (0, 1)")
    rng = np.random.default_rng([seed, 0x57AC])
    idx_a, idx_b = _stratified_split(data.labels, split_ratio, rng)
    part_a = data.subset(idx_a)
    heldout_labels = _CountedLabels(data.labels[idx_b])
    heldout_features = data.features[idx_b]

    bases = [
        train_base(s, part_a, seed=_child_seed(seed, i)) for i, s in enumerate(base_specs)
    ]
    reads_during_base_fit = heldout_labels.reads

    meta_features = np.column_stack([b.predict_proba_batch(heldout_features) for b in bases])
    meta_data = LabeledDataset(meta_features, heldout_labels.get())
    meta = train_base(meta_spec, meta_data, seed=_child_seed(seed, len(bases)))
    return StackingModel(
        bases, meta, data.arity,
        heldout_label_reads_during_base_fit=reads_during_base_fit,
    )


def _child_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])
