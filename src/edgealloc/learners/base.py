"""From-scratch binary base learners over small tabular feature vectors.

Four learner families cover the diversity the ensembles need: a CART-style
tree (gini splits), a random tree (per-split feature subsampling), Gaussian
naive Bayes, and a logistic unit trained by full-batch gradient descent.
All of them accept per-row sample weights so they can sit under boosting,
and all are deterministic given their seed.

A tree is fit from one ranking of its dataset: per feature, the rows by
value, then by row.  A ``LabeledDataset`` sorts each feature once into
dense integer rank keys, and ``subset`` carries the rule by gathering the
keys, so a bootstrap sample ranks its rows by a stable sort of small
integers.  ``TreeModel.fit`` reads the ranking once and splits it by each
node's mask instead of sorting the node's rows again.  Filtering a ranking
keeps the order a stable sort of the node's rows gives, weights add up
along it in sequence, and a leaf still sums its rows' weights in row
order: every threshold and leaf probability is the one a sort per node
would give, bit for bit.

One compile rule holds for every model: it compiles in its constructor.  A
tree compiles into a ``_CompiledForest`` of one, a naive Bayes or logistic
model into its quadratic log-odds form, and an ensemble its members into one
``_BaseColumns``, so a malformed record raises ``DataError`` when it is
built, never at the first prediction.  An ensemble's trees also tabulate on
the ``_ThresholdGrid`` their thresholds form, when it has at most
``GRID_CELLS_MAX`` cells: the forest fills the table once, and a prediction
then looks its rows up.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..core import number_array, write_record
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

# the most cells a threshold grid may have; past it the forest answers
GRID_CELLS_MAX = 2**16


class LabeledDataset:
    """Feature matrix plus binary labels; rows all share one arity.

    A tree ranks the rows of each feature by value, then by row: that is
    the order a stable sort of the feature gives, and the one every split
    is scored in.  Each feature has dense rank keys, from one stable float
    sort the first time a ranking or a subset needs them: equal values (NaNs
    among themselves too) share a key and a larger value has a larger key,
    in the smallest unsigned type that holds them.  ``subset`` gathers the
    keys, so a subset ranks its rows with a stable sort of those small
    integers and gets the order a stable float sort of its own features
    would: by value, then by its own row.
    """

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
        self._keys = self._ranking = None  # (F, n) each, computed when first read

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def arity(self) -> int:
        return self.features.shape[1]

    def _rank_keys(self) -> np.ndarray:
        """(F, n) dense rank keys: row f orders the rows by feature f's value."""
        if self._keys is None:
            columns = self.features.T
            self._ranking = np.argsort(columns, axis=1, kind="stable")
            ranked = np.take_along_axis(columns, self._ranking, axis=1)
            rises = (ranked[:, 1:] != ranked[:, :-1]) & ~(np.isnan(ranked[:, 1:]) & np.isnan(ranked[:, :-1]))
            dense = np.zeros(ranked.shape, dtype=np.intp)
            np.cumsum(rises, axis=1, out=dense[:, 1:])
            self._keys = np.empty(dense.shape, dtype=np.min_scalar_type(dense.max(initial=0)))
            np.put_along_axis(self._keys, self._ranking, dense, axis=1)
        return self._keys

    def ranking(self) -> np.ndarray:
        """(F, n) rows ranked per feature, by value and then by row."""
        if self._ranking is None:
            self._ranking = np.argsort(self._rank_keys(), axis=1, kind="stable")
        return self._ranking

    def subset(self, indices) -> "LabeledDataset":
        """The rows at ``indices`` (repeats allowed).  It carries the
        ranking rule: its keys are gathered from this dataset's, so it ranks
        by value, then by its own row, without sorting a float.  Labels
        already checked are not checked again."""
        idx = np.asarray(indices, dtype=int)
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("a subset needs a non-empty 1-D index array")
        sub = object.__new__(LabeledDataset)
        sub.features, sub.labels = self.features[idx], self.labels[idx]
        sub._keys, sub._ranking = self._rank_keys()[:, idx], None
        return sub

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
    """Common prediction surface: hard labels from probability >= 0.5.

    A model's record is its type plus its constructor's arguments: ``kind``
    is the type and ``FIELDS`` names the arguments, so ``to_dict`` is the one
    writer and ``serialize.model_from_dict`` the one reader of every kind.

    A predict reads the (n, F) float matrix its caller builds, as it is:
    arity is refused where a model is read (``model_from_dict``,
    ``load_bundle``) or built (the ensemble constructors, training from a
    dataset's own arity), not on every prediction.
    """

    kind: str
    FIELDS: tuple
    n_features: int

    def predict_proba_batch(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def predict_batch(self, x: np.ndarray) -> np.ndarray:
        return (self.predict_proba_batch(x) >= 0.5).astype(int)

    def to_dict(self) -> dict:
        """The record, each field by ``core.write_record``: an array field as
        a list, a model as its own record."""
        return {"type": self.kind, **{f: write_record(getattr(self, f)) for f in self.FIELDS}}


class ConstantModel(_Model):
    """Degenerate classifier returned for single-class training data.

    A label other than the integer 0 or 1 (a bool too) raises ``DataError``
    here."""

    kind, FIELDS = "constant", ("label", "n_features")

    def __init__(self, label: int, n_features: int):
        if isinstance(label, bool) or not (isinstance(label, (int, np.integer)) and label in (0, 1)):
            raise DataError(f"constant model label must be 0 or 1, got {label!r}")
        self.label = int(label)
        self.n_features = int(n_features)

    def predict_proba_batch(self, x):
        return np.full(x.shape[0], float(self.label))


def _weighted_gini(pos_w: np.ndarray, tot_w: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore", divide="ignore"):
        p = np.divide(pos_w, tot_w, out=np.zeros_like(pos_w), where=tot_w > 0)
    return 2.0 * p * (1.0 - p)


def _best_split(x, ranked, w, wy, total_w, total_pos, feature_ids, min_leaf):
    """Best (feature, threshold) by weighted gini over one node's rows.

    ``ranked`` holds the node's rows per feature by value, then by row, and
    ``x`` the dataset's (F, n) feature columns.  Every candidate feature is
    scored in one (k, m) pass: weights add up along each ranked row in
    sequence, and boundaries between equal values or leaving a side with
    fewer than ``min_leaf`` rows score inf.  Ties resolve to the first
    feature in ``feature_ids`` and the lowest threshold, and a later
    feature must beat the best by more than 1e-15.
    """
    m = ranked.shape[1]
    order = ranked[feature_ids]
    values = x[feature_ids[:, None], order]
    lo, hi = min_leaf - 1, m - min_leaf  # boundary j leaves j + 1 rows on the left
    wl = np.cumsum(w[order[:, :hi]], axis=1)[:, lo:]
    pl = np.cumsum(wy[order[:, :hi]], axis=1)[:, lo:]
    wr = total_w - wl
    pr = total_pos - pl
    child = wl * _weighted_gini(pl, wl) + wr * _weighted_gini(pr, wr)
    child[values[:, lo + 1:hi + 1] == values[:, lo:hi]] = np.inf
    best = None  # (impurity, position in feature_ids, boundary)
    for k, i in enumerate(child.argmin(axis=1).tolist()):
        cand = float(child[k, i])
        if cand == np.inf:  # no boundary between distinct values
            continue
        if best is None or cand < best[0] - 1e-15:
            best = (cand, k, lo + i)
    if best is None:
        return None
    cand, k, b = best
    return cand, int(feature_ids[k]), float((values[k, b] + values[k, b + 1]) / 2.0)


class _CompiledForest:
    """Level-synchronous evaluator for a batch of trees: the only way a tree
    is evaluated (a ``TreeModel`` is a forest of one).

    The nodes of all member trees share flat 1-D arrays, tree t's root at
    position t, so memory grows with the node count, not with 2**depth.  A
    split's children sit side by side, and one step of a row is ``node =
    first_child[node] + (not x[feature[node]] <= threshold[node])``, so NaN
    goes right.  A leaf tests feature 0 against NaN, which no value is <=, and
    its first child sits one slot before it, so a row that reached it stays
    there while deeper trees finish.
    Malformed node dicts raise ``DataError`` here, once, when the model is
    built: a key beyond a leaf's or a split's, a feature that is not an
    integer in [0, n_features), a threshold that is not a number
    (``core.number_array``), a leaf prob that is not one in [0, 1].
    """

    def __init__(self, roots: Sequence[dict], n_features: int):
        nodes = [None] * len(roots)  # (feature, threshold, first_child, prob)
        stack = [(root, t, 0) for t, root in enumerate(roots)]
        self.n_trees, self.depth = len(roots), 0
        while stack:
            node, slot, level = stack.pop()
            if isinstance(node, dict) and node.keys() == {"prob"}:
                nodes[slot] = (0, np.nan, slot - 1, node["prob"])
                self.depth = max(self.depth, level)
                continue
            if not (isinstance(node, dict) and node.keys() == {"feature", "threshold", "left", "right"}):
                raise DataError(f"tree node needs 'prob' or feature/threshold/left/right, no other key: {node!r:.200}")
            feature = node["feature"]
            if isinstance(feature, bool) or not isinstance(feature, (int, np.integer)) or not 0 <= feature < n_features:
                raise DataError(f"tree node feature {feature!r:.200} outside [0, {n_features})")
            nodes[slot] = (feature, node["threshold"], len(nodes), 0.0)
            stack += [(node["left"], len(nodes), level + 1), (node["right"], len(nodes) + 1, level + 1)]
            nodes += [None, None]
        columns = list(zip(*nodes))
        self.thresholds, self.probs = (number_array(c) for c in columns[1::2])
        if self.thresholds is None:
            raise DataError(f"a tree node threshold is not a number: {columns[1]!r:.200}")
        # one prob per node (a split's is 0), each in [0, 1]: NaN fails both tests
        if self.probs is None or self.probs.shape != (len(nodes),) or not ((self.probs >= 0) & (self.probs <= 1)).all():
            raise DataError(f"tree leaf probs must be numbers in [0, 1], got {columns[3]!r:.200}")
        self.features, self.first_child = (np.array(c, dtype=np.intp) for c in columns[0::2])

    def leaf_probs(self, x: np.ndarray) -> np.ndarray:
        """(T, n) leaf probabilities for the n rows of the (n, F) matrix x."""
        n, f = x.shape
        flat = np.ascontiguousarray(x).ravel()
        offsets = np.arange(0, n * f, f)
        roots = slice(0, self.n_trees)  # every row starts at its tree's root
        le = x[:, self.features[roots]].T <= self.thresholds[roots, None]
        node = self.first_child[roots, None] + ~le
        for _ in range(self.depth - 1):
            value = flat.take(self.features.take(node) + offsets)
            node = self.first_child.take(node) + ~(value <= self.thresholds.take(node))
        return self.probs.take(node)


class _ThresholdGrid:
    """The cells of the grid a forest's split thresholds form.

    Per split feature, the sorted distinct non-NaN thresholds ``cuts`` cut
    the line into ``cuts.size + 1`` intervals: ``cuts.searchsorted(v)`` is
    v's interval, so interval i is ``(cuts[i-1], cuts[i]]`` and values past
    the last cut, NaN included, make the last.  Every test ``x <= t`` of the
    forest has one outcome in a cell, the product of one interval per split
    feature, so anything computed from the forest alone is constant on it.
    A table holds one value per cell, flat in C order over ``shape``, and
    ``table.take(index(x))`` reads each row's: one gather, where an N-d read
    would index once per axis.  ``rows`` holds one representative per cell
    in that order: its intervals' upper cuts and NaN for the last (not inf, so
    an inf cut stays exact), 0 for other features up to the last a node reads.
    A forest without splits has one cell.  ``of`` gives None past ``GRID_CELLS_MAX`` cells.
    """

    def __init__(self, features: list, cuts: list, width: int):
        self.features, self.cuts = features, cuts
        self.shape = tuple(c.size + 1 for c in cuts)
        self._inner_axes = list(zip(features[1:], cuts[1:], self.shape[1:]))  # what ``index`` folds in
        self.rows = np.zeros((math.prod(self.shape), width))
        axes = np.meshgrid(*(np.append(c, np.nan) for c in cuts), indexing="ij")
        for f, axis in zip(features, axes):
            self.rows[:, f] = axis.ravel()

    @classmethod
    def of(cls, forest: _CompiledForest) -> Optional["_ThresholdGrid"]:
        split = ~np.isnan(forest.thresholds)  # a leaf's threshold is NaN
        features, thresholds = forest.features[split], forest.thresholds[split]
        used = np.unique(features).tolist() or [0]
        cuts = [np.unique(thresholds[features == f]) for f in used]
        if math.prod(c.size + 1 for c in cuts) > GRID_CELLS_MAX:
            return None
        return cls(used, cuts, int(forest.features.max()) + 1)  # not a record's claimed arity

    def index(self, x: np.ndarray) -> np.ndarray:
        """The flat C-order cells of the rows of the (n, F) matrix x."""
        cell = self.cuts[0].searchsorted(x[:, self.features[0]])
        for f, cuts, size in self._inner_axes:
            cell *= size
            cell += cuts.searchsorted(x[:, f])
        return cell


class TreeModel(_Model):
    """Binary classification tree with gini splits.

    ``feature_subset_size`` turns it into a random tree: each split only
    considers a seeded random subset of features.  Leaf probability is the
    weighted positive fraction of the rows that reached the leaf.  ``kind``,
    "cart_tree" or "random_tree", is set per tree and is its record's type.
    """

    FIELDS = ("root", "n_features")

    def __init__(self, root: dict, n_features: int, kind: str = "cart_tree"):
        self.root = root
        self.n_features = n_features
        self.kind = kind
        self._forest = _CompiledForest([root], n_features)  # a forest of one

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
        """Grow a tree on ``data`` from the dataset's one ranking.

        ``data.ranking()`` ranks the rows of each feature by value, then by
        row, once per dataset, so boosting's rounds share one ranking and a
        subset sorts only its gathered rank keys.  A node keeps its rows in
        that order: a split filters each feature's ranked rows by the
        node's mask, which keeps the order a stable sort of the node's rows
        would give.  So the weights add up in the sequence a per-node sort
        adds them, and a leaf's probability still sums the node's weights
        in row order: every threshold and probability is the one that
        sorting each node's rows again would give.
        """
        y = data.labels
        w = _normalised_weights(sample_weight, len(data))
        if feature_subset_size is not None and rng is None:
            raise ValueError("feature subsampling requires a random generator")
        x = np.ascontiguousarray(data.features.T)  # (F, n)
        wy = w * y
        # nodes grow depth first, left before right, so a random tree draws
        # its feature subsets in one fixed order; a loop, not a recursive
        # closure, whose reference cycle would keep these arrays alive until
        # the garbage collector ran
        root: dict = {}
        stack = [(root, np.arange(len(data)), data.ranking(), 0)]
        while stack:
            node, idx, ranked, depth = stack.pop()
            yw = w[idx]
            total = yw.sum()
            pos = float(yw[y[idx] == 1].sum())
            prob = pos / total if total > 0 else 0.5
            split = None
            if not (depth >= max_depth or prob in (0.0, 1.0) or idx.size < 2 * min_leaf):
                if feature_subset_size is not None:
                    k = min(feature_subset_size, data.arity)
                    feats = np.sort(rng.choice(data.arity, size=k, replace=False))
                else:
                    feats = np.arange(data.arity)
                split = _best_split(x, ranked, w, wy, total, pos, feats, min_leaf)
            if split is None:
                node["prob"] = prob
                continue
            _, f, thr = split
            left = x[f] <= thr
            mask, goes_left = left[idx], left[ranked]
            n_left = int(mask.sum())
            node.update(feature=f, threshold=thr, left={}, right={})
            stack.append((node["right"], idx[~mask], ranked[~goes_left].reshape(data.arity, idx.size - n_left),
                          depth + 1))
            stack.append((node["left"], idx[mask], ranked[goes_left].reshape(data.arity, n_left), depth + 1))
        return cls(root, data.arity, kind=kind)

    def predict_proba_batch(self, x):
        return self._forest.leaf_probs(x)[0]


def _sigmoid(margin: np.ndarray) -> np.ndarray:
    """Probability of the positive class from log-odds, in place; margins are
    clipped to [-500, 500] so ``exp`` stays finite.  The clip is a
    ``maximum`` then a ``minimum`` ufunc, the bytes ``np.clip`` gives (NaN and
    -0.0 included) without its Python-level dispatch, which cost more than
    the arithmetic on a decision's few rows."""
    np.maximum(margin, -500.0, out=margin)
    np.minimum(margin, 500.0, out=margin)
    np.negative(margin, out=margin)
    np.exp(margin, out=margin)
    margin += 1.0
    return np.reciprocal(margin, out=margin)


def _least_positive_margin() -> float:
    """The least margin ``_sigmoid`` maps to >= 0.5, found by bisection
    between -1e-15, which it maps below 0.5, and 0; about -3.3e-16.  Each
    of its steps is monotone, so ``margin >= _least_positive_margin()`` is
    ``_sigmoid(margin) >= 0.5`` for every margin, NaN (False) included."""
    below, at = -1e-15, 0.0
    while True:
        mid = below + (at - below) / 2
        if mid in (below, at):
            return at
        if _sigmoid(np.array([mid]))[0] >= 0.5:
            at = mid
        else:
            below = mid


_LEAST_POSITIVE_MARGIN = _least_positive_margin()


def _record_array(name: str, value, shape: tuple) -> np.ndarray:
    """A model record's numeric field, a number or a list (of lists) of
    numbers by the rule ``core.read_config`` applies (``core.number_array``),
    as a finite float array of ``shape``."""
    arr = number_array(value)
    if arr is None:
        raise DataError(f"{name} is not numeric: {value!r:.200}")
    if arr.shape != shape:
        raise DataError(f"{name} has shape {arr.shape}, expected {shape}")
    if not np.isfinite(arr).all():
        raise DataError(f"{name} must be finite")
    return arr


def _checked_form(kind: str, model, center: np.ndarray) -> tuple:
    """``model.margin_form(center)``, refused with ``DataError`` if it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        lin, quad, const = model.margin_form(center)
    if not (np.isfinite(lin).all() and np.isfinite(quad).all() and np.isfinite(const)):
        raise DataError(f"{kind} log-odds coefficients overflow")
    return lin, quad, const


class GaussianNBModel(_Model):
    """Gaussian naive Bayes with weighted per-class feature statistics.

    The log-odds of class 1 over class 0 is a quadratic form in the features,
    so the constructor compiles the stored per-class statistics into it once:
    ``d @ lin + (d * d) @ quad + const`` with ``d = x - center``.  Expanding
    about ``center`` (per feature, the mean of the class with the smaller
    variance) rather than the origin keeps a floored variance from cancelling
    two terms of order ``mean**2 / VAR_FLOOR`` against each other.  A record
    whose statistics are not finite, have the wrong shape or a variance
    <= 0 raises ``DataError`` here.
    """

    kind, FIELDS = "gaussian_nb", ("means", "variances", "log_priors", "n_features")
    VAR_FLOOR = 1e-9

    def __init__(self, means, variances, log_priors, n_features):
        self.n_features = n_features
        self.means = _record_array("naive Bayes means", means, (2, n_features))
        self.variances = _record_array("naive Bayes variances", variances, (2, n_features))
        self.log_priors = _record_array("naive Bayes log_priors", log_priors, (2,))
        if not (self.variances > 0).all():
            raise DataError("naive Bayes variances must be positive")
        self.center = self.means[self.variances.argmin(axis=0), np.arange(n_features)]
        self.lin, self.quad, self.const = _checked_form("naive Bayes", self, self.center)

    def margin_form(self, center: np.ndarray) -> tuple:
        """(lin, quad, const) of the log-odds expanded about ``center``."""
        precision = 1.0 / self.variances
        offset = self.means - center  # (2, F)
        lin = offset[1] * precision[1] - offset[0] * precision[0]
        quad = 0.5 * (precision[0] - precision[1])
        log_norm = np.log(2 * np.pi * self.variances).sum(axis=1)
        dist = (offset * offset * precision).sum(axis=1)
        const = self.log_priors[1] - self.log_priors[0] - 0.5 * (log_norm[1] - log_norm[0] + dist[1] - dist[0])
        return lin, quad, float(const)

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
        d = x - self.center
        return _sigmoid(d @ self.lin + (d * d) @ self.quad + self.const)


class LogisticModel(_Model):
    """Logistic unit trained by full-batch gradient descent on standardised
    inputs; weights start at zero, so training is deterministic.

    The record stores the standardised weights with ``mu`` and ``sigma``; the
    constructor folds the standardisation into raw-feature weights and a bias
    once, so prediction is ``x @ lin + const``.  A record with non-finite
    values, the wrong shape or a ``sigma`` <= 0 raises ``DataError`` here.
    """

    kind, FIELDS = "logistic", ("weights", "bias", "mu", "sigma", "n_features")

    def __init__(self, weights, bias, mu, sigma, n_features):
        self.n_features = n_features
        self.weights = _record_array("logistic weights", weights, (n_features,))
        self.bias = float(_record_array("logistic bias", bias, ()))
        self.mu = _record_array("logistic mu", mu, (n_features,))
        self.sigma = _record_array("logistic sigma", sigma, (n_features,))
        if not (self.sigma > 0).all():
            raise DataError("logistic sigma must be positive")
        self.lin, _, self.const = _checked_form("logistic", self, np.zeros(n_features))

    def margin_form(self, center: np.ndarray) -> tuple:
        """(lin, quad, const) of the log-odds expanded about ``center``; quad is 0."""
        lin = self.weights / self.sigma
        return lin, np.zeros(self.n_features), float(self.bias + (center - self.mu) @ lin)

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
        return _sigmoid(x @ self.lin + self.const)

    def predict_batch(self, x):
        """The labels ``predict_proba_batch(x) >= 0.5`` gives, read off the
        margin without the sigmoid."""
        return (x @ self.lin + self.const >= _LEAST_POSITIVE_MARGIN).astype(int)


class _BaseColumns:
    """One evaluator for the k base models of an ensemble: called on an
    (n, F) matrix it gives the (k, n) probabilities, row j model j's.

    Trees and constants share one ``_CompiledForest``; a constant is a
    one-leaf root ``{"prob": label}``, which reads back exactly
    ``float(label)``.  The forest fills a table of the T leaf probabilities
    per cell of its ``_ThresholdGrid``, and a call reads the rows' cells from
    it; past ``GRID_CELLS_MAX`` cells the forest runs on the rows.  When
    every model is a tree or a constant, that (k, n) output is returned
    uncopied; otherwise the (k, n) result is the transpose of a C-ordered
    (n, k) matrix.  The naive Bayes and logistic models are quadratic forms
    in the features.  Each naive Bayes model is expanded about its own
    center, so a floored variance cancels no more than it does in the model
    itself; models with one center share a group, and the logistic models,
    which have no quadratic term, join the first group (center 0 when no
    model is naive Bayes).  A group's coefficients stack into two (F, m)
    matrices, so with ``d = x - center`` one ``d @ lin + (d*d) @ quad +
    const`` and one sigmoid give its m rows.  An empty model list, a model
    of another kind (an ensemble, say) or arity, and a form that overflows
    at its group's center raise ``DataError`` here.
    """

    def __init__(self, models: Sequence, n_features: int):
        if not models:
            raise DataError("an ensemble needs at least one base model")
        for m in models:
            if not isinstance(m, (TreeModel, ConstantModel, GaussianNBModel, LogisticModel)):
                raise DataError(f"{type(m).__name__} cannot be an ensemble's base model")
            if m.n_features != n_features:
                raise DataError(f"ensemble bases must all read the model's {n_features} features")
        self.k = len(models)
        leaves = [j for j, m in enumerate(models) if isinstance(m, (TreeModel, ConstantModel))]
        self._tree_rows = _rows(leaves) if leaves else None
        roots = [models[j].root if isinstance(models[j], TreeModel) else {"prob": models[j].label} for j in leaves]
        self._forest = _CompiledForest(roots, n_features) if roots else None
        self._grid = _ThresholdGrid.of(self._forest) if roots else None
        self._tree_table = None  # (T, cells) leaf probabilities
        if self._grid is not None:
            self._tree_table = self._forest.leaf_probs(self._grid.rows)
        centers = [m.center for m in models if isinstance(m, GaussianNBModel)]
        groups: dict = {}  # center bytes -> (center, positions of its models)
        for j, m in enumerate(models):
            if j not in leaves:  # a logistic model's weights bear out its arity
                center = m.center if isinstance(m, GaussianNBModel) else centers[0] if centers else np.zeros(n_features)
                groups.setdefault(center.tobytes(), (center, []))[1].append(j)
        self._groups = [self._group(models, rows, center) for center, rows in groups.values()]

    @staticmethod
    def _group(models: Sequence, rows: list, center: np.ndarray) -> tuple:
        """(rows, center, lin (F, m), quad (F, m), const (m,)) of the m forms at ``rows``."""
        kinds = ["naive Bayes" if isinstance(models[j], GaussianNBModel) else "logistic" for j in rows]
        lin, quad, const = zip(*(_checked_form(kind, models[j], center) for kind, j in zip(kinds, rows)))
        return (_rows(rows), center,
                np.ascontiguousarray(np.array(lin).T), np.ascontiguousarray(np.array(quad).T), np.array(const))

    def _trees(self, x: np.ndarray) -> np.ndarray:
        """(T, n) leaf probabilities of the trees and constants."""
        if self._grid is None:
            return self._forest.leaf_probs(x)
        return self._tree_table.take(self._grid.index(x), axis=1)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if not self._groups:
            return self._trees(x)
        out = np.empty((x.shape[0], self.k)).T  # rows of a C-ordered (n, k) matrix
        if self._forest is not None:
            out[self._tree_rows] = self._trees(x)
        for rows, center, lin, quad, const in self._groups:
            d = x - center
            margins = d @ lin
            margins += (d * d) @ quad
            margins += const
            out[rows] = _sigmoid(margins).T
        return out


def _rows(positions: list):
    """The output rows at ``positions`` (at least one): a slice when they are
    consecutive, which assigns without a gather, else an index array."""
    start, stop = positions[0], positions[0] + len(positions)
    if positions == list(range(start, stop)):
        return slice(start, stop)
    return np.array(positions, dtype=np.intp)


def _normalised_weights(sample_weight, n: int) -> np.ndarray:
    if sample_weight is None:
        return np.full(n, 1.0 / n)
    w = np.asarray(sample_weight, dtype=float)
    if w.shape != (n,):
        raise ValueError("sample_weight must match the number of rows")
    if np.any(w < 0) or not 0 < w.sum() < math.inf:  # a NaN or inf weight fails the sum
        raise ValueError("sample weights must be finite and non-negative with positive sum")
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
