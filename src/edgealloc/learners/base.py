"""From-scratch binary base learners over small tabular feature vectors.

Four learner families cover the diversity the ensembles need: a CART-style
tree (gini splits), a random tree (per-split feature subsampling), Gaussian
naive Bayes, and a logistic unit trained by full-batch gradient descent.
All of them accept per-row sample weights so they can sit under boosting,
and all are deterministic given their seed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..errors import DataError

__all__ = [
    "LabeledDataset",
    "BaseLearnerSpec",
    "train_base",
    "ConstantModel",
    "TreeModel",
    "GaussianNBModel",
    "LogisticModel",
]

LEARNER_KINDS = ("cart_tree", "random_tree", "gaussian_nb", "logistic")


class LabeledDataset:
    """Feature matrix plus binary labels; rows all share one arity."""

    def __init__(self, features, labels):
        x = np.asarray(features, dtype=float)
        y = np.asarray(labels, dtype=int)
        if x.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {x.shape}")
        if y.shape != (x.shape[0],):
            raise ValueError("labels must be 1-D and match the number of rows")
        if x.shape[0] == 0:
            raise ValueError("dataset must contain at least one row")
        if not np.isin(y, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")
        self.features = x
        self.labels = y

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def arity(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=int)
        return LabeledDataset(self.features[idx], self.labels[idx])

    def positive_fraction(self) -> float:
        return float(self.labels.mean())


@dataclass(frozen=True)
class BaseLearnerSpec:
    """Which base learner to train and with which hyperparameters."""

    kind: str = "cart_tree"
    max_depth: int = 3
    min_leaf: int = 1
    feature_subset_size: Optional[int] = None  # random_tree only
    learning_rate: float = 0.5  # logistic only
    epochs: int = 300  # logistic only

    def __post_init__(self) -> None:
        if self.kind not in LEARNER_KINDS:
            raise ValueError(f"unknown learner kind {self.kind!r}")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.min_leaf < 1:
            raise ValueError("min_leaf must be >= 1")
        if self.feature_subset_size is not None and self.feature_subset_size < 1:
            raise ValueError("feature_subset_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


class _Model:
    """Common prediction surface: hard labels from probability >= 0.5."""

    n_features: int

    def predict_proba_batch(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _check(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.shape[1] != self.n_features:
            raise ValueError(
                f"feature arity mismatch: model expects {self.n_features}, got {arr.shape[1]}"
            )
        return arr

    def predict_batch(self, x: np.ndarray) -> np.ndarray:
        return (self.predict_proba_batch(x) >= 0.5).astype(int)


class ConstantModel(_Model):
    """Degenerate classifier returned for single-class training data."""

    def __init__(self, label: int, n_features: int):
        self.label = int(label)
        self.n_features = n_features

    def predict_proba_batch(self, x):
        x = self._check(x)
        return np.full(x.shape[0], float(self.label))

    def to_dict(self) -> dict:
        return {"type": "constant", "label": self.label, "n_features": self.n_features}

    @classmethod
    def from_dict(cls, d: dict) -> "ConstantModel":
        return cls(d["label"], d["n_features"])


def _weighted_gini(pos_w: np.ndarray, tot_w: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore", divide="ignore"):
        p = np.divide(pos_w, tot_w, out=np.zeros_like(pos_w), where=tot_w > 0)
    return 2.0 * p * (1.0 - p)


def _best_split(x, y, w, feature_ids, min_leaf):
    """Best (feature, threshold) by weighted gini; ties resolve to the first
    feature in iteration order and the lowest threshold."""
    n = x.shape[0]
    total_w = w.sum()
    total_pos = float(w[y == 1].sum())
    best = None  # (impurity, feature, threshold)
    for f in feature_ids:
        order = np.argsort(x[:, f], kind="mergesort")
        xv = x[order, f]
        wv = w[order]
        pv = wv * y[order]
        cum_w = np.cumsum(wv)
        cum_pos = np.cumsum(pv)
        boundaries = np.nonzero(xv[1:] != xv[:-1])[0]
        if boundaries.size == 0:
            continue
        left_n = boundaries + 1
        valid = (left_n >= min_leaf) & (n - left_n >= min_leaf)
        boundaries = boundaries[valid]
        if boundaries.size == 0:
            continue
        wl = cum_w[boundaries]
        pl = cum_pos[boundaries]
        wr = total_w - wl
        pr = total_pos - pl
        child = wl * _weighted_gini(pl, wl) + wr * _weighted_gini(pr, wr)
        i = int(np.argmin(child))
        cand = float(child[i])
        if best is None or cand < best[0] - 1e-15:
            b = boundaries[i]
            thr = float((xv[b] + xv[b + 1]) / 2.0)
            best = (cand, int(f), thr)
    return best


class TreeModel(_Model):
    """Binary classification tree with gini splits.

    ``feature_subset_size`` turns it into a random tree: each split only
    considers a seeded random subset of features.  Leaf probability is the
    weighted positive fraction of the rows that reached the leaf.
    """

    def __init__(self, root: dict, n_features: int, kind: str = "cart_tree"):
        self.root = root
        self.n_features = n_features
        self.kind = kind

    @classmethod
    def fit(
        cls,
        data: LabeledDataset,
        max_depth: int,
        min_leaf: int,
        feature_subset_size: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        sample_weight: Optional[np.ndarray] = None,
        kind: str = "cart_tree",
    ) -> "TreeModel":
        x, y = data.features, data.labels
        w = _normalised_weights(sample_weight, len(data))
        if feature_subset_size is not None and rng is None:
            raise ValueError("feature subsampling requires a random generator")

        def grow(idx: np.ndarray, depth: int) -> dict:
            yw = w[idx]
            total = yw.sum()
            pos = float(yw[y[idx] == 1].sum())
            prob = pos / total if total > 0 else 0.5
            if depth >= max_depth or prob in (0.0, 1.0) or idx.size < 2 * min_leaf:
                return {"prob": prob}
            if feature_subset_size is not None:
                k = min(feature_subset_size, x.shape[1])
                feats = np.sort(rng.choice(x.shape[1], size=k, replace=False))
            else:
                feats = np.arange(x.shape[1])
            split = _best_split(x[idx], y[idx], yw, feats, min_leaf)
            if split is None:
                return {"prob": prob}
            _, f, thr = split
            mask = x[idx, f] <= thr
            return {
                "feature": f,
                "threshold": thr,
                "left": grow(idx[mask], depth + 1),
                "right": grow(idx[~mask], depth + 1),
            }

        root = grow(np.arange(len(data)), 0)
        return cls(root, data.arity, kind=kind)

    def predict_proba_batch(self, x):
        x = self._check(x)
        out = np.empty(x.shape[0], dtype=float)

        def walk(node: dict, idx: np.ndarray) -> None:
            if "prob" in node:
                out[idx] = node["prob"]
                return
            mask = x[idx, node["feature"]] <= node["threshold"]
            if mask.any():
                walk(node["left"], idx[mask])
            if not mask.all():
                walk(node["right"], idx[~mask])

        walk(self.root, np.arange(x.shape[0]))
        return out

    def to_dict(self) -> dict:
        return {"type": self.kind, "root": self.root, "n_features": self.n_features}

    @classmethod
    def from_dict(cls, d: dict) -> "TreeModel":
        return cls(d["root"], d["n_features"], kind=d["type"])


class GaussianNBModel(_Model):
    """Gaussian naive Bayes with weighted per-class feature statistics."""

    VAR_FLOOR = 1e-9

    def __init__(self, means, variances, log_priors, n_features):
        self.means = np.asarray(means, dtype=float)  # (2, F)
        self.variances = np.asarray(variances, dtype=float)
        self.log_priors = np.asarray(log_priors, dtype=float)  # (2,)
        self.n_features = n_features

    @classmethod
    def fit(cls, data: LabeledDataset, sample_weight=None) -> "GaussianNBModel":
        x, y = data.features, data.labels
        w = _normalised_weights(sample_weight, len(data))
        means = np.zeros((2, data.arity))
        variances = np.zeros((2, data.arity))
        log_priors = np.zeros(2)
        for c in (0, 1):
            mask = y == c
            wc = w[mask]
            total = wc.sum()
            if total <= 0:
                raise DataError("naive Bayes needs weight mass in both classes")
            mu = (wc[:, None] * x[mask]).sum(axis=0) / total
            var = (wc[:, None] * (x[mask] - mu) ** 2).sum(axis=0) / total
            means[c] = mu
            variances[c] = np.maximum(var, cls.VAR_FLOOR)
            log_priors[c] = np.log(total)
        return cls(means, variances, log_priors, data.arity)

    def predict_proba_batch(self, x):
        x = self._check(x)
        ll = np.empty((x.shape[0], 2))
        for c in (0, 1):
            z = (x - self.means[c]) ** 2 / self.variances[c]
            ll[:, c] = self.log_priors[c] - 0.5 * (
                np.log(2 * np.pi * self.variances[c]).sum() + z.sum(axis=1)
            )
        return 1.0 / (1.0 + np.exp(np.clip(ll[:, 0] - ll[:, 1], -500, 500)))

    def to_dict(self) -> dict:
        return {
            "type": "gaussian_nb",
            "means": self.means.tolist(),
            "variances": self.variances.tolist(),
            "log_priors": self.log_priors.tolist(),
            "n_features": self.n_features,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GaussianNBModel":
        return cls(d["means"], d["variances"], d["log_priors"], d["n_features"])


class LogisticModel(_Model):
    """Logistic unit trained by full-batch gradient descent on standardised
    inputs; weights start at zero, so training is deterministic."""

    def __init__(self, weights, bias, mu, sigma, n_features):
        self.weights = np.asarray(weights, dtype=float)
        self.bias = float(bias)
        self.mu = np.asarray(mu, dtype=float)
        self.sigma = np.asarray(sigma, dtype=float)
        self.n_features = n_features

    @classmethod
    def fit(cls, data: LabeledDataset, learning_rate: float, epochs: int, sample_weight=None):
        x, y = data.features, data.labels.astype(float)
        w = _normalised_weights(sample_weight, len(data))
        mu = x.mean(axis=0)
        sigma = np.maximum(x.std(axis=0), 1e-9)
        z = (x - mu) / sigma
        beta = np.zeros(data.arity)
        bias = 0.0
        for _ in range(epochs):
            p = 1.0 / (1.0 + np.exp(-(z @ beta + bias)))
            err = (p - y) * w
            beta -= learning_rate * (z.T @ err)
            bias -= learning_rate * err.sum()
        return cls(beta, bias, mu, sigma, data.arity)

    def predict_proba_batch(self, x):
        x = self._check(x)
        z = (x - self.mu) / self.sigma
        return 1.0 / (1.0 + np.exp(-np.clip(z @ self.weights + self.bias, -500, 500)))

    def to_dict(self) -> dict:
        return {
            "type": "logistic",
            "weights": self.weights.tolist(),
            "bias": self.bias,
            "mu": self.mu.tolist(),
            "sigma": self.sigma.tolist(),
            "n_features": self.n_features,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LogisticModel":
        return cls(d["weights"], d["bias"], d["mu"], d["sigma"], d["n_features"])


def _normalised_weights(sample_weight, n: int) -> np.ndarray:
    if sample_weight is None:
        return np.full(n, 1.0 / n)
    w = np.asarray(sample_weight, dtype=float)
    if w.shape != (n,):
        raise ValueError("sample_weight must match the number of rows")
    if np.any(w < 0) or w.sum() <= 0:
        raise ValueError("sample weights must be non-negative with positive sum")
    return w / w.sum()


def train_base(spec: BaseLearnerSpec, data: LabeledDataset, seed: int, sample_weight=None):
    """Train one base learner; deterministic given (spec, data, seed).

    Single-class data degrades to a constant classifier with a warning so
    callers (e.g. bootstrap ensembles) keep working on unlucky samples.
    """
    labels = np.unique(data.labels)
    if labels.size == 1:
        warnings.warn(
            f"training data contains a single class ({int(labels[0])}); "
            "fitting a constant classifier",
            stacklevel=2,
        )
        return ConstantModel(int(labels[0]), data.arity)
    if spec.kind == "cart_tree":
        return TreeModel.fit(
            data, spec.max_depth, spec.min_leaf, sample_weight=sample_weight, kind="cart_tree"
        )
    if spec.kind == "random_tree":
        rng = np.random.default_rng([seed, 0x52EE])
        size = spec.feature_subset_size or max(1, int(np.sqrt(data.arity)))
        return TreeModel.fit(
            data,
            spec.max_depth,
            spec.min_leaf,
            feature_subset_size=size,
            rng=rng,
            sample_weight=sample_weight,
            kind="random_tree",
        )
    if spec.kind == "gaussian_nb":
        return GaussianNBModel.fit(data, sample_weight=sample_weight)
    if spec.kind == "logistic":
        return LogisticModel.fit(data, spec.learning_rate, spec.epochs, sample_weight=sample_weight)
    raise ValueError(f"unknown learner kind {spec.kind!r}")
