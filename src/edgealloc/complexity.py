"""Complexity classification of query statements via fused token similarity.

A statement is compared against a labelled corpus of past statements.  For
every corpus entry, several token-level similarity metrics are computed,
ranked by a significance level (how many of the other metric values agree
with each one), and the top-n are folded with the Hamacher product.  The
per-entry scores are then aggregated per complexity class with a
quasi-arithmetic mean, yielding one membership degree per class.

Each step is one kernel that broadcasts along the last axis, so a 1-D list
gives one value and the classifier's (M, 3) matrix from ``similarities``
goes through the same code, one value per corpus entry.  The plain-Python
per-pair reference they are checked against is in ``tests/test_complexity.py``.

A statement's tokens are the maximal runs of ASCII letters and digits of its
case-folded text; everything else (punctuation, operators, quotes) separates
them.  The classifier reads a statement once, into the memo key that
scoring works from (``ComplexityClassifier._statistic``).
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DataError

__all__ = [
    "ComplexityClass",
    "DEFAULT_CLASSES",
    "ComplexityParams",
    "ComplexityVector",
    "TrainingQueryCorpus",
    "ComplexityClassifier",
    "MEMO_CAP",
    "SIMILARITY_METRICS",
    "distance_to_similarity",
    "significance_levels",
    "hamacher_fold",
    "quasi_arithmetic_mean",
    "fuse_similarities",
    "leave_one_out_accuracy",
    "load_corpus",
    "save_corpus",
]

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def _token_counts(statement: str) -> Counter:
    """Each token of ``statement`` with its count, in first-occurrence order;
    a statement without a token raises ``ValueError``."""
    counts = Counter(_TOKEN_RE.findall(statement.lower()))
    if not counts:
        raise ValueError(f"statement contains no tokens: {statement!r:.200}")
    return counts


# Most entries one classifier's statement memo holds; once full it stops
# inserting, so a stream of ever-new statements cannot grow memory.
MEMO_CAP = 4096

# Metric evaluation order; index is the last tie-break key when ranking.
SIMILARITY_METRICS = ("hamming", "jaccard", "cosine")


@dataclass(frozen=True)
class ComplexityClass:
    """One member of the fixed complexity class set.

    Ids must be unique and contiguous from 0; the class set is frozen before
    any classification happens.
    """

    id: int
    label: str


DEFAULT_CLASSES = (
    ComplexityClass(0, "O(n log n)"),
    ComplexityClass(1, "O(n)"),
    ComplexityClass(2, "O(n^2)"),
)


@dataclass(frozen=True)
class ComplexityParams:
    """Tuning knobs for the similarity fusion pipeline.

    gamma: neighbourhood radius used when counting how many metric values
        support each other.
    delta1, delta2: slope / offset of the sigmoid that turns a support count
        into a significance level.
    top_n: how many metric values (ranked by significance) survive into the
        Hamacher fold.
    hamacher_a: Hamacher product parameter; 1.0 reduces the fold to a plain
        product.
    alpha: exponent of the quasi-arithmetic mean aggregating per-entry scores
        into class memberships.
    threshold: minimum membership required to resolve a class.
    """

    gamma: float = 0.1
    delta1: float = 1.0
    delta2: float = 1.0
    top_n: int = 2
    hamacher_a: float = 1.0
    alpha: float = 1.0
    threshold: float = 0.8

    def __post_init__(self) -> None:
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.top_n < 1:
            raise ValueError(f"top_n must be >= 1, got {self.top_n}")
        if self.hamacher_a < 0:
            raise ValueError(f"hamacher_a must be >= 0, got {self.hamacher_a}")
        if self.alpha == 0:
            raise ValueError("alpha must be non-zero")
        if not 0 < self.threshold <= 1:
            raise ValueError(f"threshold must be in (0, 1], got {self.threshold}")


@dataclass(frozen=True)
class ComplexityVector:
    """One membership degree in [0, 1] per complexity class."""

    memberships: tuple

    def __post_init__(self) -> None:
        for m in self.memberships:
            if not (0.0 <= m <= 1.0):
                raise ValueError(f"membership {m} outside [0, 1]")

    def argmax(self) -> int:
        return self.memberships.index(max(self.memberships))

    def max(self) -> float:
        return max(self.memberships)


def distance_to_similarity(d):
    """Map non-negative distances to similarities in (0, 1] via 1 / (1 + d)."""
    d = np.asarray(d, dtype=float)
    if (d < 0).any():
        raise ValueError(f"distances must be non-negative, got {d}")
    return 1.0 / (1.0 + d)


def significance_levels(values, gamma: float, delta1: float, delta2: float) -> np.ndarray:
    """Significance level in (0, 1) of each value, among the values of its row.

    ``values`` is (..., K).  The support count c_i is the number of values
    of the same row (the value itself included) within absolute distance
    ``gamma``; the level is sigmoid(delta1 * c_i - delta2).  Isolated values
    are pushed towards the low end of the scale.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim == 0 or v.shape[-1] == 0:
        raise ValueError("values must be non-empty")
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    support = (np.abs(v[..., :, None] - v[..., None, :]) <= gamma).sum(axis=-1).astype(np.float64)
    with np.errstate(over="ignore"):  # exp past the float range gives level 0, the sigmoid's limit
        return 1.0 / (1.0 + np.exp(-(delta1 * support - delta2)))


def hamacher_fold(values, a: float):
    """Left-fold of the binary Hamacher product along the last axis.

    omega(x, y) = x*y / (a + (1 - a) * (x + y - x*y)).  A (..., n) input
    gives (...) values; a 1-D list gives one.  A single column returns its
    element.  The 0/0 case (a == 0 with both operands 0) returns 0 by
    convention.
    """
    if a < 0:
        raise ValueError(f"Hamacher parameter must be >= 0, got {a}")
    v = np.asarray(values, dtype=float)
    if v.ndim == 0 or v.shape[-1] == 0:
        raise ValueError("values must be non-empty")
    acc = v[..., 0].copy()
    for j in range(1, v.shape[-1]):
        x = v[..., j]
        num = acc * x
        den = a + (1.0 - a) * (acc + x - acc * x)
        acc = np.divide(num, den, out=np.zeros_like(num), where=den != 0)
    return acc[()]


def quasi_arithmetic_mean(values, alpha: float):
    """Power mean ((1/m) * sum(v ** alpha)) ** (1/alpha) along the last axis.

    Values must be non-negative.  A (..., m) input gives (...) means; a 1-D
    list gives one.  With a negative ``alpha`` a zero value, or one so small
    that its power overflows, drives the mean to 0, its limit.  The powers
    and sums run on a C-ordered copy of the values' transpose, so the bytes
    do not depend on the input's layout.
    """
    if alpha == 0:
        raise ValueError("alpha must be non-zero")
    # a copy (the core overwrites it) whose transpose is C-ordered, m rows
    arr = np.array(values, dtype=float, order="F").T
    if arr.ndim == 0 or arr.shape[0] == 0:
        raise ValueError("values must be non-empty")
    if arr.min() < 0:
        raise ValueError("values must be non-negative")
    return _power_mean_inplace(arr, alpha).T


def _power_mean_inplace(buf: np.ndarray, alpha: float):
    """``quasi_arithmetic_mean`` over the leading axis of a checked,
    C-ordered (m, ...) float array the caller owns; ``buf`` is overwritten
    with its powers.  One ``np.add.reduce`` over the leading axis sums
    them: with two or more values per row NumPy adds row after row from 0,
    as a scalar loop does, while one column or a 1-D buffer it sums as one
    1-D array, pairwise from 8 values on.  A single column is a single mean,
    never compared with another.  At alpha 1 no power is taken (x ** 1.0 ==
    x exactly), so nothing is silenced: only a sum past the float range
    could warn, and relevance and complexity average values in [0, 1]."""
    m = len(buf)
    if alpha == 1:
        mean = np.add.reduce(buf, axis=0)
        if m > 1:  # dividing by 1 is exact
            mean /= m
        return mean
    with np.errstate(divide="ignore", over="ignore"):
        np.power(buf, alpha, out=buf)
        mean = np.add.reduce(buf, axis=0)
        if m > 1:
            mean /= m
        return mean ** (1.0 / alpha)


def fuse_similarities(values, params: ComplexityParams):
    """Fuse each row of metric values into one score: rank, fold the top-n.

    ``values`` is (..., K) with columns in ``SIMILARITY_METRICS`` order; the
    result is (...), one score for a 1-D list.  Within a row, ranking is by
    significance descending, ties by value descending, then by column; the
    fold order follows the ranking (relevant when hamacher_a != 1).
    """
    v = np.asarray(values, dtype=float)
    sls = significance_levels(v, params.gamma, params.delta1, params.delta2)
    cols = np.broadcast_to(np.arange(v.shape[-1]), v.shape)
    order = np.lexsort((cols, -v, -sls), axis=-1)
    top = np.take_along_axis(v, order[..., : params.top_n], axis=-1)
    return hamacher_fold(top, params.hamacher_a)


class TrainingQueryCorpus:
    """Labelled statements used to score unseen queries.

    Every complexity class must be represented by at least one entry.
    Immutable after construction; safe to share between classifier instances.
    """

    def __init__(self, entries: Sequence, classes: Sequence[ComplexityClass] = DEFAULT_CLASSES):
        self.classes = tuple(classes)
        self.entries = tuple((str(s), int(c)) for s, c in entries)
        if not self.entries:
            raise DataError("corpus is empty")
        known = {c.id for c in self.classes}
        present = {c for _, c in self.entries}
        unknown = present - known
        if unknown:
            raise DataError(f"corpus references unknown class ids {sorted(unknown)}")
        missing = known - present
        if missing:
            raise DataError(f"no corpus entries for class ids {sorted(missing)}")

    def __len__(self) -> int:
        return len(self.entries)


def load_corpus(path) -> TrainingQueryCorpus:
    """Read a tab-separated ``statement<TAB>class_label`` corpus file; a
    malformed line or non-UTF-8 text raises ``DataError`` naming ``path``."""
    by_label = {c.label: c.id for c in DEFAULT_CLASSES}
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.read().split("\n")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: expected 'statement<TAB>label'")
        statement, label = parts
        if label not in by_label:
            raise DataError(f"{path}:{lineno}: unknown class label {label!r}")
        if _TOKEN_RE.search(statement.lower()) is None:  # the rule ``core.Query`` applies
            raise DataError(f"{path}:{lineno}: statement contains no tokens: {statement!r:.200}")
        entries.append((statement, by_label[label]))
    try:
        return TrainingQueryCorpus(entries, DEFAULT_CLASSES)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def save_corpus(path, corpus: TrainingQueryCorpus) -> None:
    labels = {c.id: c.label for c in corpus.classes}
    with open(path, "w", encoding="utf-8") as fh:
        for statement, cid in corpus.entries:
            fh.write(f"{statement}\t{labels[cid]}\n")


class ComplexityClassifier:
    """Reusable classifier over a fixed corpus.

    Counts the corpus tokens once, into a vocabulary in first-occurrence
    order and an (M, vocabulary) count matrix; per-statement scoring is
    vectorised so the classifier can sit on the allocation hot path.

    A statement is read once, by ``_statistic``, into its sufficient
    statistic: the sorted in-vocabulary (index, count) pairs, the number of
    distinct out-of-vocabulary tokens and the sum of their squared counts.
    Scoring reads nothing else of it.  ``classify_statement`` memoises its
    result per instance, keyed on that triple, so statements that differ
    only in token order or in which out-of-vocabulary tokens they hold share
    one entry, and a hit returns exactly what scoring would.  Corpus and
    params never change after construction; the memo holds at most
    ``MEMO_CAP`` entries and then stops inserting.  Scoring with ``exclude``
    (leave-one-out) bypasses it.
    """

    def __init__(self, corpus: TrainingQueryCorpus, params: ComplexityParams = ComplexityParams()):
        self.corpus = corpus
        self.params = params
        entries = [_token_counts(s) for s, _ in corpus.entries]
        self._vocab = {tok: j for j, tok in enumerate(dict.fromkeys(tok for entry in entries for tok in entry))}
        counts = np.zeros((len(entries), len(self._vocab)), dtype=np.float64)
        for i, entry in enumerate(entries):
            counts[i, [self._vocab[tok] for tok in entry]] = list(entry.values())
        self._counts = counts
        # 0/1 floats, not bools: matmul against bools collapses to logical any
        self._binary = (counts > 0).astype(np.float64)
        self._distinct = self._binary.sum(axis=1)
        self._norms = np.sqrt((counts**2).sum(axis=1))
        self._labels = np.array([c for _, c in corpus.entries], dtype=np.int64)
        self._class_masks = [self._labels == c.id for c in corpus.classes]
        self._memo = {}

    def _statistic(self, statement: str) -> tuple:
        """(in-vocab (index, count) pairs by index, oov_distinct, oov_sumsq)
        of ``statement``: the memo key, and all that ``similarities`` reads
        of it.  ``oov_sumsq`` sums integer squares, so it is exact in any
        order.  A statement without a token raises ``ValueError``."""
        vocab = self._vocab
        pairs = []
        oov_distinct = 0
        oov_sumsq = 0.0
        for tok, c in _token_counts(statement).items():
            j = vocab.get(tok)
            if j is None:
                oov_distinct += 1
                oov_sumsq += c * c
            else:
                pairs.append((j, c))
        return tuple(sorted(pairs)), oov_distinct, oov_sumsq

    def similarities(self, key: tuple) -> np.ndarray:
        """(M, 3) similarity with every corpus entry of the statement whose
        ``_statistic`` is ``key``.

        Columns follow ``SIMILARITY_METRICS``: ``hamming`` counts
        presence/absence mismatches over the vocabulary of the pair,
        normalised by its size and mapped through ``distance_to_similarity``;
        ``jaccard`` works on distinct-token sets and ``cosine`` on token
        count vectors.  Tokens outside the corpus vocabulary still count.
        """
        pairs, oov_distinct, oov_sumsq = key
        qv = np.zeros(len(self._vocab), dtype=np.float64)
        for j, c in pairs:
            qv[j] = c
        qbin = (qv > 0).astype(np.float64)
        q_distinct = int(qbin.sum()) + oov_distinct
        q_norm = math.sqrt(float((qv**2).sum()) + oov_sumsq)

        inter = self._binary @ qbin
        union = self._distinct + q_distinct - inter
        jaccard = np.divide(inter, union, out=np.ones_like(inter), where=union > 0)
        dot = self._counts @ qv
        denom = self._norms * q_norm
        cosine = np.divide(dot, denom, out=np.zeros_like(dot), where=denom > 0)
        mism = np.divide(union - inter, union, out=np.zeros_like(inter), where=union > 0)
        return np.stack([distance_to_similarity(mism), jaccard, cosine], axis=1)

    def pairwise_scores(self, key: tuple, exclude: Optional[int] = None) -> np.ndarray:
        """Fused similarity with every corpus entry of the statement whose
        ``_statistic`` is ``key``; entry ``exclude``, if given, scores NaN."""
        scores = fuse_similarities(self.similarities(key), self.params)
        if exclude is not None:
            scores[exclude] = np.nan
        return scores

    def memberships_from_scores(self, scores: np.ndarray) -> ComplexityVector:
        out = []
        for mask in self._class_masks:
            vals = scores[mask]
            vals = vals[~np.isnan(vals)]
            if vals.size == 0:
                raise DataError("a class has no corpus entries after exclusion")
            out.append(min(1.0, float(quasi_arithmetic_mean(vals, self.params.alpha))))
        return ComplexityVector(memberships=tuple(out))

    def classify_statement(self, statement: str):
        """Return (ComplexityVector, resolved class or None), memoised on the
        statement's ``_statistic``; a miss scores that key.  A statement
        without a token raises ``ValueError`` before the memo is read."""
        key = self._statistic(statement)
        result = self._memo.get(key)
        if result is None:
            vector = self.memberships_from_scores(self.pairwise_scores(key))
            result = (vector, self.resolve(vector))
            if len(self._memo) < MEMO_CAP:
                self._memo[key] = result
        return result

    def resolve(self, vector: ComplexityVector) -> Optional[ComplexityClass]:
        best = vector.argmax()  # ties by lowest class index
        if vector.memberships[best] >= self.params.threshold:
            return self.corpus.classes[best]
        return None


def leave_one_out_accuracy(
    corpus: TrainingQueryCorpus, params: ComplexityParams = ComplexityParams()
) -> float:
    """Fraction of corpus entries whose class is recovered when held out.

    An unresolved entry (best membership below the threshold) counts as
    incorrect.
    """
    clf = ComplexityClassifier(corpus, params)
    correct = 0
    for i, (statement, true_class) in enumerate(corpus.entries):
        scores = clf.pairwise_scores(clf._statistic(statement), exclude=i)
        vector = clf.memberships_from_scores(scores)
        resolved = clf.resolve(vector)
        if resolved is not None and resolved.id == true_class:
            correct += 1
    return correct / len(corpus)
