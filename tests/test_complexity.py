import itertools
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgealloc import complexity
from edgealloc.complexity import (
    MEMO_CAP,
    ComplexityClass,
    ComplexityParams,
    ComplexityClassifier,
    SIMILARITY_METRICS,
    distance_to_similarity,
    leave_one_out_accuracy,
    fuse_similarities,
    hamacher_fold,
    quasi_arithmetic_mean,
    significance_levels,
    TrainingQueryCorpus,
    load_corpus,
    save_corpus,
)
from edgealloc.errors import DataError
from edgealloc.simulator import ScenarioConfig, generate_query_corpus, generate_scenario, statement_for_class

unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def token_counts(statement: str) -> Counter:
    """The tokens of ``statement`` with their counts: runs of ASCII letters
    and digits of its case-folded text."""
    return Counter(re.findall(r"[a-z0-9]+", statement.lower()))


def check_rows(fn, rows, *args):
    """``fn`` on the 2-D stack of ``rows`` gives, row by row, what it gives
    on each row alone."""
    stacked = np.asarray(fn(np.array(rows, dtype=float), *args))
    each = np.array([fn(row, *args) for row in rows])
    assert stacked.shape == each.shape
    np.testing.assert_allclose(stacked, each, rtol=1e-12, atol=1e-15)


# ---------------------------------------------------------------------------
# plain-Python per-pair reference: the kernels and the classifier are checked
# against it
# ---------------------------------------------------------------------------


def reference_similarities(q: dict, c: dict) -> list:
    """hamming, jaccard, cosine of two token-count mappings."""
    inter = len(q.keys() & c.keys())
    union = len(q.keys() | c.keys())
    hamming = 1.0 / (1.0 + (union - inter) / union)
    jaccard = inter / union
    dot = sum(n * c[t] for t, n in q.items() if t in c)
    norm_q = math.sqrt(sum(n * n for n in q.values()))
    norm_c = math.sqrt(sum(n * n for n in c.values()))
    return [hamming, jaccard, dot / (norm_c * norm_q)]


def reference_fuse(values: list, p: ComplexityParams) -> float:
    levels = []
    for v in values:
        support = sum(1 for w in values if abs(v - w) <= p.gamma)
        levels.append(1.0 / (1.0 + math.exp(-(p.delta1 * support - p.delta2))))
    order = sorted(range(len(values)), key=lambda i: (-levels[i], -values[i], i))
    acc = values[order[0]]
    for i in order[1 : p.top_n]:
        v = values[i]
        den = p.hamacher_a + (1.0 - p.hamacher_a) * (acc + v - acc * v)
        acc = 0.0 if den == 0.0 else acc * v / den
    return acc


def reference_power_mean(values: list, alpha: float) -> float:
    if alpha < 0 and min(values) == 0.0:
        return 0.0  # 0 ** alpha is infinite, so the mean's limit is 0
    return (sum(v**alpha for v in values) / len(values)) ** (1.0 / alpha)


def reference_memberships(statement: str, corpus, p: ComplexityParams) -> list:
    q = token_counts(statement)
    scores = {c.id: [] for c in corpus.classes}
    for text, class_id in corpus.entries:
        c = token_counts(text)
        scores[class_id].append(reference_fuse(reference_similarities(q, c), p))
    return [min(1.0, reference_power_mean(scores[c.id], p.alpha)) for c in corpus.classes]


# ---------------------------------------------------------------------------
# tokenisation
# ---------------------------------------------------------------------------


def one_entry_classifier(statement: str) -> ComplexityClassifier:
    """A classifier whose corpus is ``statement`` alone."""
    return ComplexityClassifier(TrainingQueryCorpus([(statement, 0)], classes=(ComplexityClass(0, "any"),)))


def test_tokenize_basic_split():
    clf = one_entry_classifier("SELECT x FROM t, t")
    assert list(clf._vocab) == ["select", "x", "from", "t"]  # first-occurrence order
    # case-folded runs of letters and digits; 'y' lies outside the vocabulary
    assert clf._statistic("select X, 'Y' FROM T;") == (((0, 1), (1, 1), (2, 1), (3, 1)), 1, 1.0)


def test_tokenize_is_deterministic():
    clf = one_entry_classifier("select name from t where x >= 10")
    s = "SELECT name FROM t WHERE x >= 10"
    assert clf._statistic(s) == clf._statistic(s) == clf._statistic("10 x where t from name select")


def test_tokenize_counts_repeated_tokens():
    clf = one_entry_classifier("select price from stocks")
    pairs, oov_distinct, oov_sumsq = clf._statistic(
        "SELECT NAME, PRICE FROM STOCKS WHERE PRICE <= 100 AND PRICE >= 10")
    assert dict(pairs)[clf._vocab["price"]] == 3
    assert (oov_distinct, oov_sumsq) == (5, 5.0)  # name, where, 100, and, 10


def test_tokenize_rejects_empty():
    clf = one_entry_classifier("select a from t")
    for statement in ("", "   ", "<=>"):
        with pytest.raises(ValueError, match="no tokens"):
            clf._statistic(statement)


# ---------------------------------------------------------------------------
# similarity metrics
# ---------------------------------------------------------------------------


def metrics(x_tokens, y_tokens) -> dict:
    """The ``similarities`` row of statement x against a corpus holding only y."""
    clf = one_entry_classifier(" ".join(y_tokens))
    (row,) = clf.similarities(clf._statistic(" ".join(x_tokens)))
    return dict(zip(SIMILARITY_METRICS, row))


def test_jaccard_identical_and_disjoint():
    assert metrics(("a", "b"), ("a", "b"))["jaccard"] == 1.0
    assert metrics(("a", "b"), ("c", "d"))["jaccard"] == 0.0


def test_jaccard_partial_overlap():
    # |intersection| = 1, |union| = 3
    assert metrics(("a", "b"), ("b", "c"))["jaccard"] == pytest.approx(1 / 3)


def test_cosine_identical():
    assert metrics(("a", "b"), ("a", "b"))["cosine"] == pytest.approx(1.0)


def test_hamming_uses_pair_vocabulary():
    # vocabulary {a, b, c}: one shared, two mismatched -> distance 2/3; one
    # query token lies outside the corpus vocabulary and still counts
    value = metrics(("a", "b"), ("b", "c"))["hamming"]
    assert value == pytest.approx(1.0 / (1.0 + 2 / 3))
    assert metrics(("b", "c"), ("a", "b"))["hamming"] == value


def test_distance_to_similarity_values():
    assert distance_to_similarity(0.0) == 1.0
    assert distance_to_similarity(1.0) == 0.5
    assert distance_to_similarity(3.0) == 0.25
    assert distance_to_similarity([[0.0, 1.0], [3.0, 0.0]]).tolist() == [[1.0, 0.5], [0.25, 1.0]]
    with pytest.raises(ValueError):
        distance_to_similarity(-0.1)
    with pytest.raises(ValueError):
        distance_to_similarity([[0.0, 1.0], [-0.1, 0.0]])


@given(st.floats(min_value=0, max_value=1e6), st.floats(min_value=0, max_value=1e6))
def test_distance_to_similarity_decreasing(d1, d2):
    lo, hi = sorted((d1, d2))
    assert distance_to_similarity(hi) <= distance_to_similarity(lo)


# ---------------------------------------------------------------------------
# significance levels
# ---------------------------------------------------------------------------


def test_significance_sigmoid_midpoint():
    # delta1 * count == delta2 lands on the sigmoid midpoint
    assert significance_levels([0.3], gamma=0.1, delta1=2.0, delta2=2.0).tolist() == [0.5]


def test_significance_single_value():
    (sl,) = significance_levels([0.7], gamma=0.1, delta1=1.0, delta2=0.0)
    assert sl == pytest.approx(1.0 / (1.0 + math.exp(-1.0)))


def test_significance_isolated_value_scores_lowest():
    values = [0.1, 0.11, 0.9]
    sls = significance_levels(values, gamma=0.05, delta1=1.0, delta2=1.0)
    assert sls[2] < sls[0] and sls[2] < sls[1]


@pytest.mark.parametrize("params", [ComplexityParams(delta2=800), ComplexityParams(delta1=-400)])
def test_saturated_significance_is_zero_without_an_overflow_warning(params):
    # every value supports all three, exp overflows to inf and the level is
    # the sigmoid's exact limit, 0
    levels = significance_levels([0.5, 0.55, 0.58], params.gamma, params.delta1, params.delta2)
    assert levels.tolist() == [0.0, 0.0, 0.0]
    vector, _ = ComplexityClassifier(_single_corpus(), params).classify_statement("select a from t")
    assert vector.max() <= 1.0


@given(st.lists(unit_floats, min_size=1, max_size=8))
def test_significance_levels_strictly_inside_unit_interval(values):
    for sl in significance_levels(values, gamma=0.1, delta1=1.0, delta2=1.0):
        assert 0.0 < sl < 1.0
    check_rows(significance_levels, [values, values[::-1], [v / 2 for v in values]], 0.1, 1.0, 1.0)


# ---------------------------------------------------------------------------
# hamacher fold
# ---------------------------------------------------------------------------


def test_hamacher_singleton_identity():
    assert hamacher_fold([0.37], a=1.0) == 0.37


def test_hamacher_product_case():
    assert hamacher_fold([0.5, 0.5], a=1.0) == pytest.approx(0.25)


def test_hamacher_parameterised_case():
    # a=2: 0.25 / (2 + (-1) * 0.75) = 0.2
    assert hamacher_fold([0.5, 0.5], a=2.0) == pytest.approx(0.2)


def test_hamacher_degenerate_zero_case():
    assert hamacher_fold([0.0, 0.0], a=0.0) == 0.0


def test_hamacher_rejects_negative_parameter():
    with pytest.raises(ValueError):
        hamacher_fold([0.5], a=-1.0)


@given(st.lists(unit_floats, min_size=1, max_size=6), st.floats(min_value=0, max_value=5))
def test_hamacher_stays_in_unit_interval(values, a):
    assert 0.0 <= hamacher_fold(values, a) <= 1.0
    check_rows(hamacher_fold, [values, values[::-1], sorted(values)], a)


@given(st.lists(unit_floats, min_size=2, max_size=6))
def test_hamacher_at_one_equals_plain_product(values):
    expected = math.prod(values)
    assert hamacher_fold(values, a=1.0) == pytest.approx(expected, abs=1e-12)
    assert hamacher_fold([values, values], a=1.0) == pytest.approx([expected] * 2, abs=1e-12)


# ---------------------------------------------------------------------------
# quasi-arithmetic mean
# ---------------------------------------------------------------------------


def test_qam_arithmetic_case():
    assert quasi_arithmetic_mean([0.2, 0.4], alpha=1.0) == pytest.approx(0.3)


def test_qam_quadratic_case():
    assert quasi_arithmetic_mean([0.3, 0.4], alpha=2.0) == pytest.approx(math.sqrt(0.125))


@given(unit_floats, st.integers(min_value=1, max_value=6),
       st.floats(min_value=-3, max_value=3).filter(lambda a: abs(a) > 1e-3))
def test_qam_idempotent_on_constant_lists(c, n, alpha):
    assert quasi_arithmetic_mean([c] * n, alpha) == pytest.approx(c, abs=1e-9)


@given(st.lists(unit_floats, min_size=2, max_size=6), st.integers(min_value=0, max_value=5),
       st.floats(min_value=0.1, max_value=4))
def test_qam_monotone_in_each_argument(values, idx, alpha):
    idx = idx % len(values)
    bumped = list(values)
    bumped[idx] = min(1.0, bumped[idx] + 0.25)
    assert quasi_arithmetic_mean(bumped, alpha) >= quasi_arithmetic_mean(values, alpha) - 1e-12
    check_rows(quasi_arithmetic_mean, [values, bumped], alpha)
    check_rows(quasi_arithmetic_mean, [values, bumped], -alpha)


def test_qam_rejects_zero_alpha_and_empty():
    with pytest.raises(ValueError):
        quasi_arithmetic_mean([0.5], alpha=0.0)
    with pytest.raises(ValueError):
        quasi_arithmetic_mean([], alpha=1.0)
    with pytest.raises(ValueError):
        quasi_arithmetic_mean([[0.5, 0.2], [0.1, -0.1]], alpha=1.0)


# ---------------------------------------------------------------------------
# fusion of metric values
# ---------------------------------------------------------------------------


def test_fuse_product_of_all_three():
    params = ComplexityParams(top_n=3)
    assert fuse_similarities([0.2, 0.5, 0.3], params) == pytest.approx(0.03)


def test_fuse_top_one_keeps_highest_significance():
    params = ComplexityParams(top_n=1)
    # 0.1 and 0.15 support each other; 0.9 is isolated
    assert fuse_similarities([0.1, 0.9, 0.15], params) == pytest.approx(0.15)


def test_fuse_identical_statements_give_one():
    row = metrics(("select", "x", "from", "t"), ("select", "x", "from", "t"))
    assert fuse_similarities(list(row.values()), ComplexityParams()) == pytest.approx(1.0)


@given(st.lists(unit_floats, min_size=3, max_size=3), st.integers(min_value=1, max_value=3))
def test_fuse_more_factors_never_increases_product(values, n):
    small = fuse_similarities(values, ComplexityParams(top_n=n))
    if n < 3:
        bigger = fuse_similarities(values, ComplexityParams(top_n=n + 1))
        assert bigger <= small + 1e-12
    check_rows(fuse_similarities, [values, values[::-1], [1.0 - v for v in values]], ComplexityParams(top_n=n))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def _single_corpus():
    return TrainingQueryCorpus(
        [
            ("select a from t order by a", 0),
            ("select x from stocks where x >= 10", 1),
            ("select y from a join b on a.id = b.id", 2),
        ]
    )


def test_identical_statement_gives_full_membership():
    corpus = _single_corpus()
    vector, resolved = ComplexityClassifier(corpus).classify_statement("select x from stocks where x >= 10")
    assert vector.memberships[1] == pytest.approx(1.0)
    assert resolved is not None and resolved.id == 1


def test_below_threshold_is_unresolved():
    corpus = _single_corpus()
    vector, resolved = ComplexityClassifier(corpus).classify_statement("update prices set v = 0")
    assert vector.max() < 0.8
    assert resolved is None


def test_membership_ties_resolve_to_lowest_class_index():
    corpus = TrainingQueryCorpus(
        [("select a from t", 0), ("select a from t", 1), ("select a from t", 2)]
    )
    _, resolved = ComplexityClassifier(corpus).classify_statement("select a from t")
    assert resolved is not None and resolved.id == 0


def test_classification_is_deterministic():
    corpus = _single_corpus()
    v1, _ = ComplexityClassifier(corpus).classify_statement("select x from stocks where x >= 11")
    v2, _ = ComplexityClassifier(corpus).classify_statement("select x from stocks where x >= 11")
    assert v1.memberships == v2.memberships


def test_corpus_requires_every_class():
    with pytest.raises(DataError):
        TrainingQueryCorpus([("select a from t", 0), ("select b from t", 0)])


def test_vectorized_scores_match_scalar_path():
    corpus = _single_corpus()
    clf = ComplexityClassifier(corpus)
    statement = "select x, y from stocks join t where x >= 10"
    q = token_counts(statement)
    slow = [reference_fuse(reference_similarities(q, token_counts(s)), clf.params) for s, _ in corpus.entries]
    assert clf.pairwise_scores(clf._statistic(statement)).tolist() == slow


# corpus tokens come from VOCAB; queries may also use tokens outside it
VOCAB = ("select", "a", "b", "from", "t", "where", "x", "join", "10")
token_lists = st.lists(st.sampled_from(VOCAB), min_size=1, max_size=8)
query_token_lists = st.lists(st.sampled_from(VOCAB + ("zz", "oov", "99")), min_size=1, max_size=8)
classifier_params = st.builds(
    ComplexityParams,
    top_n=st.sampled_from([1, 2, 3]),
    hamacher_a=st.sampled_from([0.0, 1.0, 2.0]),
    alpha=st.sampled_from([1.0, 0.5, 3.0, -1.0, -2.5]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(token_lists, min_size=3, max_size=8), query_token_lists, classifier_params)
def test_classifier_matches_per_pair_reference(corpus_tokens, query_tokens, params):
    corpus = TrainingQueryCorpus([(" ".join(toks), i % 3) for i, toks in enumerate(corpus_tokens)])
    clf = ComplexityClassifier(corpus, params)
    statement = " ".join(query_tokens)
    q = Counter(query_tokens)
    expected_scores = [
        reference_fuse(reference_similarities(q, Counter(toks)), params) for toks in corpus_tokens
    ]
    assert clf.pairwise_scores(clf._statistic(statement)).tolist() == expected_scores

    expected = reference_memberships(statement, corpus, params)
    vector, resolved = clf.classify_statement(statement)
    assert vector.memberships == pytest.approx(expected, rel=1e-12, abs=1e-12)
    best = max(range(len(expected)), key=lambda i: (expected[i], -i))
    clear_winner = all(abs(m - expected[best]) > 1e-9 for i, m in enumerate(expected) if i != best)
    if clear_winner and abs(expected[best] - params.threshold) > 1e-9:
        want = best if expected[best] >= params.threshold else None
        assert (resolved.id if resolved is not None else None) == want


# ---------------------------------------------------------------------------
# the statement memo: a hit must return what scoring would
# ---------------------------------------------------------------------------


def fresh_result(statement, corpus, params=ComplexityParams()):
    """Scoring of ``statement`` by a new classifier, around its memo."""
    clf = ComplexityClassifier(corpus, params)
    vector = clf.memberships_from_scores(clf.pairwise_scores(clf._statistic(statement)))
    return vector, clf.resolve(vector)


def assert_same_result(got, want):
    (vector, resolved), (want_vector, want_resolved) = got, want
    bits = lambda v: np.array(v.memberships, dtype=np.float64).view(np.uint64).tolist()  # noqa: E731
    assert bits(vector) == bits(want_vector)
    assert resolved == want_resolved


GENERATED_CORPUS = generate_query_corpus()
CORPUS_VOCAB = sorted({t for s, _ in GENERATED_CORPUS.entries for t in token_counts(s)})
MEMOISED = ComplexityClassifier(GENERATED_CORPUS)  # shared, so its memo fills across examples
oov_names = st.text("qvwxyz", min_size=1, max_size=4).map(lambda t: "zz" + t)
counts = st.integers(min_value=1, max_value=4)


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(st.sampled_from(CORPUS_VOCAB), counts, max_size=10),
    st.lists(counts, max_size=4),
    st.randoms(use_true_random=False),
)
def test_memoised_classification_equals_fresh_scoring(in_vocab, oov_counts, rnd):
    """Two statements with one sufficient statistic: other token order, other
    out-of-vocabulary names with the same counts.  Whichever fills the memo,
    each gets the result a new classifier scores for it."""
    if not in_vocab and not oov_counts:
        in_vocab = {CORPUS_VOCAB[0]: 1}
    statements = []
    for prefix in ("zzq", "zzx"):
        tokens = [t for t, c in in_vocab.items() for _ in range(c)]
        tokens += [f"{prefix}{i}" for i, c in enumerate(oov_counts) for _ in range(c)]
        rnd.shuffle(tokens)
        statements.append(" ".join(tokens))
    for statement in statements:
        assert_same_result(MEMOISED.classify_statement(statement), fresh_result(statement, GENERATED_CORPUS))
    keys = {MEMOISED._statistic(s) for s in statements}
    assert len(keys) == 1


def test_memo_hit_returns_the_stored_result_without_scoring(monkeypatch):
    scored = []
    score = ComplexityClassifier.pairwise_scores
    monkeypatch.setattr(ComplexityClassifier, "pairwise_scores",
                        lambda self, *args, **kw: scored.append(1) or score(self, *args, **kw))
    clf = ComplexityClassifier(GENERATED_CORPUS)
    first = clf.classify_statement(statement_for_class(1, 1234))
    assert len(scored) == 1
    # another out-of-vocabulary literal, another case: the same key
    assert clf.classify_statement(statement_for_class(1, 5678).upper()) is first
    assert len(scored) == 1
    for empty in ("", "   ", "<=>"):
        with pytest.raises(ValueError):
            clf.classify_statement(empty)
    assert len(scored) == 1


def test_classify_statement_tokenizes_once_on_a_miss_and_on_a_hit(monkeypatch):
    texts = []

    class CountingPattern:
        def findall(self, text):
            texts.append(text)
            return re.findall(r"[a-z0-9]+", text)

    clf = ComplexityClassifier(GENERATED_CORPUS)
    monkeypatch.setattr(complexity, "_TOKEN_RE", CountingPattern())
    statement = statement_for_class(2, 1234)
    first = clf.classify_statement(statement)  # a miss
    assert len(texts) == 1
    assert clf.classify_statement(statement) is first  # a hit
    assert len(texts) == 2


def test_memo_is_exact_on_a_long_query_stream():
    queries = generate_scenario(ScenarioConfig(n_nodes=1, n_queries=5000, seed=3)).queries
    clf = ComplexityClassifier(GENERATED_CORPUS)
    reference = ComplexityClassifier(GENERATED_CORPUS)
    for q in queries:
        vector = reference.memberships_from_scores(reference.pairwise_scores(reference._statistic(q.statement)))
        assert_same_result(clf.classify_statement(q.statement), (vector, reference.resolve(vector)))
    # far fewer keys than statements: that is what makes the memo pay
    assert len(clf._memo) < len({q.statement for q in queries}) // 100


def test_memo_stops_inserting_at_its_cap():
    corpus = _single_corpus()
    clf = ComplexityClassifier(corpus)
    # each pair of counts is a distinct key: an adversarial stream
    pairs = itertools.islice(itertools.product(range(1, 100), repeat=2), MEMO_CAP + 50)
    statements = [f"select {'x ' * a}from {'t ' * b}" for a, b in pairs]
    for statement in statements:
        clf.classify_statement(statement)
    assert len(clf._memo) == MEMO_CAP
    for statement in statements[:5] + statements[-5:]:  # hits, then never inserted
        assert_same_result(clf.classify_statement(statement), fresh_result(statement, corpus))
    assert len(clf._memo) == MEMO_CAP


class RecordingDict(dict):
    """A memo that records every read and write made through it."""

    def __init__(self):
        super().__init__()
        self.accesses = []

    def get(self, key, default=None):
        self.accesses.append("get")
        return super().get(key, default)

    def __getitem__(self, key):
        self.accesses.append("getitem")
        return super().__getitem__(key)

    def __contains__(self, key):
        self.accesses.append("contains")
        return super().__contains__(key)

    def __setitem__(self, key, value):
        self.accesses.append("setitem")
        super().__setitem__(key, value)


def test_leave_one_out_neither_reads_nor_writes_the_memo(monkeypatch):
    memos = []
    init = ComplexityClassifier.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._memo = RecordingDict()
        memos.append(self._memo)

    monkeypatch.setattr(ComplexityClassifier, "__init__", recording_init)
    corpus = generate_query_corpus(per_class=5)
    assert leave_one_out_accuracy(corpus) > 0
    assert len(memos) == 1 and memos[0].accesses == [] and len(memos[0]) == 0
    # the same recording memo does see classify_statement
    ComplexityClassifier(corpus).classify_statement(corpus.entries[0][0])
    assert memos[1].accesses == ["get", "setitem"]


def test_corpus_roundtrip_through_file(tmp_path):
    corpus = _single_corpus()
    path = tmp_path / "corpus.tsv"
    save_corpus(path, corpus)
    loaded = load_corpus(path)
    assert loaded.entries == corpus.entries


def test_corpus_file_with_bad_label_reports_line(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text("select a from t\tO(n)\nselect b from t\tO(n!)\n", encoding="utf-8")
    with pytest.raises(DataError, match=":2"):
        load_corpus(path)


@pytest.mark.parametrize("statement", ["!!!", ""])
def test_corpus_file_with_a_tokenless_statement_reports_line(tmp_path, statement):
    path = tmp_path / "corpus.tsv"
    save_corpus(path, _single_corpus())
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(f"{statement}\tO(n)\n")
    with pytest.raises(DataError, match=r"corpus\.tsv:4: statement"):
        load_corpus(path)


@pytest.mark.parametrize("text, message", [
    ("", "corpus is empty"),
    ("\n\n", "corpus is empty"),
    ("select a from t\tO(n)\n", r"no corpus entries for class ids \[0, 2\]"),
])
def test_corpus_file_without_every_class_names_the_file(tmp_path, text, message):
    path = tmp_path / "corpus.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError, match=rf"corpus\.tsv: {message}"):
        load_corpus(path)
