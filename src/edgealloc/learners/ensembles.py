"""Boosting, bagging and stacking wrappers around the base learners.

The three trained ensembles feed the decision fusion stage, so they share
one prediction surface with the base learners (hard label from probability
>= 0.5) and are deterministic given (data, specs, seed).  Each compiles its
members or bases, once, into one ``_BaseColumns`` evaluator in its
constructor; a stacking model's meta learner evaluates itself.  Boosting and
bagging over trees and constants also tabulate their labels on the members'
threshold grid there.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..errors import DataError
from .base import (
    BaseLearnerSpec,
    ConstantModel,
    LabeledDataset,
    TreeModel,
    _BaseColumns,
    _Model,
    _record_array,
    train_base,
)

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


class _Voting(_Model):
    """Members' hard labels, from one evaluator over all members.

    When every member is a tree or a constant, the ensemble's label is
    constant on each cell of its members' ``_ThresholdGrid``, so the
    constructor labels one representative row per cell and ``predict_batch``
    looks each row's cell up in that table.  With another kind of member, or
    a grid past ``GRID_CELLS_MAX`` cells, it labels the rows themselves.
    Either way a row's label comes from that row alone.
    """

    def __init__(self, members: Sequence, n_features: int):
        self.members = list(members)
        self.n_features = n_features
        self._columns = _BaseColumns(self.members, n_features)
        grid = self._columns._grid
        tabulate = grid is not None and not self._columns._groups
        self._table = self._labels(grid.rows) if tabulate else None  # flat, one label per cell

    def _member_labels(self, x: np.ndarray) -> np.ndarray:
        """(M, n) hard labels of the M members for the n rows of x."""
        return self._columns(x) >= 0.5

    _labels = _Model.predict_batch  # the vote's labels of the rows themselves, without the table

    def predict_batch(self, x):
        if self._table is None:
            return self._labels(x)
        return self._table.take(self._columns._grid.index(x))


class AdaBoostModel(_Voting):
    """Discrete boosting ensemble: weighted vote of reweighted base learners.

    ``alphas`` must hold one finite number per member, else ``DataError``.
    The margin adds the members' weighted votes in member order, so a row's
    sum, and its label at a tie, do not depend on the batch it came in.
    ``stop_reason`` says why training stopped (see ``train_adaboost``); it is
    set at training time and is not part of the record, so a loaded model's
    is None.
    """

    kind, FIELDS = "adaboost", ("members", "alphas", "n_features")

    def __init__(self, members: Sequence, alphas: Sequence[float], n_features: int,
                 stop_reason: str | None = None):
        members = list(members)
        self.alphas = _record_array("adaboost alphas", alphas, (len(members),))
        self._total = float(sum(abs(a) for a in self.alphas.tolist()))
        self.stop_reason = stop_reason
        super().__init__(members, n_features)  # tabulating votes, so alphas come first

    def predict_proba_batch(self, x):
        if self._total == 0.0:
            return np.full(x.shape[0], 0.5)
        margin = np.zeros(x.shape[0])
        for alpha, vote in zip(self.alphas.tolist(), 2.0 * self._member_labels(x) - 1.0):
            margin += alpha * vote
        return 0.5 * (margin / self._total + 1.0)


class BaggingModel(_Voting):
    """Majority vote over learners trained on bootstrap resamples.

    The vote share doubles as the probability, so an exact tie (share 0.5)
    resolves to the positive class.
    """

    kind, FIELDS = "bagging", ("members", "n_features")

    def predict_proba_batch(self, x):
        return self._member_labels(x).mean(axis=0)


class StackingModel(_Model):
    """Base learners plus a meta learner trained on held-out predictions.

    The bases compile into one ``_BaseColumns``, whose (k, n) output the meta
    learner reads as a C-ordered (n, k) matrix through its own
    ``predict_proba_batch``, or its ``predict_batch`` for labels.  A meta learner whose arity is not the number of
    bases raises ``DataError`` here, as do the bases ``_BaseColumns`` refuses.
    """

    kind, FIELDS = "stacking", ("bases", "meta", "n_features")

    def __init__(self, bases: Sequence, meta, n_features: int):
        self.bases = list(bases)
        self.meta = meta
        self.n_features = n_features
        self._columns = _BaseColumns(self.bases, n_features)
        if meta.n_features != len(self.bases):
            raise DataError(
                f"stacking meta learner reads {meta.n_features} features, not one per base ({len(self.bases)})"
            )

    def _meta_features(self, x: np.ndarray) -> np.ndarray:
        """C-ordered (n, k) base probabilities for the n rows of the (n, F) matrix x."""
        return np.ascontiguousarray(self._columns(x).T)

    def predict_proba_batch(self, x):
        return self.meta.predict_proba_batch(self._meta_features(x))

    def predict_batch(self, x):
        return self.meta.predict_batch(self._meta_features(x))


def model_shape(model) -> dict:
    """Member count, deepest tree and table size (``table_cells``, None when
    the forest answers) of an ensemble; for boosting also why training
    stopped (``stop_reason``), for stacking the kind of each base and the
    meta learner's stored record.  A voting ensemble's table holds its
    labels, stacking's its tree bases' leaf probabilities."""
    stacking = isinstance(model, StackingModel)
    members = model.bases if stacking else model.members
    depths = [m._forest.depth for m in members if isinstance(m, TreeModel)]
    table = model._columns._tree_table if stacking else model._table
    shape = {
        "members": len(members),
        "max_tree_depth": max(depths, default=None),
        "table_cells": None if table is None else len(model._columns._grid.rows),
    }
    if isinstance(model, AdaBoostModel):
        shape["stop_reason"] = model.stop_reason
    if stacking:
        shape["base_kinds"] = [b.kind for b in members]
        shape["meta"] = model.meta.to_dict()
    return shape


def train_adaboost(
    data: LabeledDataset, rounds: int, spec: BaseLearnerSpec, seed: int
) -> AdaBoostModel:
    """Discrete boosting with per-round instance reweighting.

    Per round: train a weighted base learner, measure its weighted error,
    stop early once the error reaches 0.5 (the member is dropped unless it
    is the only one) or hits 0 (the member is kept with a capped weight).
    Misclassified rows gain weight; weights renormalise to 1 each round.
    The model's ``stop_reason`` is "error_at_least_half", "zero_error" or,
    when every round ran, "round_limit".
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    x, y = data.features, data.labels
    n = len(data)
    w = np.full(n, 1.0 / n)
    members, alphas = [], []
    stop_reason = "round_limit"
    for t in range(rounds):
        model = train_base(spec, data, seed=_child_seed(seed, t), sample_weight=w)
        pred = model.predict_batch(x)
        miss = pred != y
        err = float(w[miss].sum())
        if err >= 0.5:
            stop_reason = "error_at_least_half"
        elif err == 0.0:
            stop_reason = "zero_error"
        if err >= 0.5 and members:
            break
        clamped = min(max(err, _ERR_CLAMP), 1.0 - _ERR_CLAMP)
        alpha = 0.5 * math.log((1.0 - clamped) / clamped)
        members.append(model)
        alphas.append(alpha)
        if stop_reason != "round_limit":
            break
        w = w * np.exp(np.where(miss, alpha, -alpha))
        w = w / w.sum()
    return AdaBoostModel(members, alphas, data.arity, stop_reason=stop_reason)


def bootstrap_indices(rng: np.random.Generator, n: int) -> np.ndarray:
    """One bootstrap resample: n row indices drawn with replacement."""
    return rng.integers(0, n, size=n)


def train_bagging(
    data: LabeledDataset,
    bags: int,
    spec: BaseLearnerSpec,
    seed: int,
) -> BaggingModel:
    """Majority-vote ensemble over ``bags`` bootstrap resamples of the data."""
    if bags < 1:
        raise ValueError("bags must be >= 1")
    n = len(data)
    members = []
    for b in range(bags):
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

    The bases see part A alone: each trains on ``data.subset(idx_a)`` and
    nothing else.  Their predictions on part B, with part B's labels, become
    the meta learner's training set (arity = number of bases).
    """
    if len(base_specs) < 2:
        raise ValueError("stacking needs at least two base learner specs")
    if not 0.0 < split_ratio < 1.0:
        raise ValueError("split_ratio must be in (0, 1)")
    rng = np.random.default_rng([seed, 0x57AC])
    idx_a, idx_b = _stratified_split(data.labels, split_ratio, rng)
    part_a = data.subset(idx_a)
    bases = [
        train_base(s, part_a, seed=_child_seed(seed, i)) for i, s in enumerate(base_specs)
    ]

    # the meta learner fits on the model's own meta features; a constant
    # holds its place until then
    model = StackingModel(bases, ConstantModel(0, len(bases)), data.arity)
    meta_data = LabeledDataset(model._meta_features(data.features[idx_b]), data.labels[idx_b])
    model.meta = train_base(meta_spec, meta_data, seed=_child_seed(seed, len(bases)))
    return model


def _child_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])
