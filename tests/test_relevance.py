import sys
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from edgealloc import simulator
from edgealloc.allocator import EnsembleBundle, decide_from_features
from edgealloc.complexity import ComplexityClassifier, quasi_arithmetic_mean
from edgealloc.core import Query, QueryConstraints, write_record
from edgealloc.learners import ConstantModel
from edgealloc.relevance import confidence_intervals, interval_bounds, relevance_batch
from edgealloc.simulator import ScenarioConfig, generate_query_corpus, generate_scenario, simulate_run


def interval(lo, hi):
    return np.array([lo, hi])


# ---------------------------------------------------------------------------
# references the kernels are checked against
# ---------------------------------------------------------------------------


def interval_intersection_length(a, b) -> float:
    """Length of the common sub-interval of two intervals, 0 if disjoint."""
    lo = max(a[0], b[0])
    hi = min(a[1], b[1])
    return hi - lo if lo < hi else 0.0


def overlap_mismatch(a, b) -> float:
    """Scalar mismatch in [0, 1]: 1 - intersection length over the shorter
    length, or with a zero-length shorter interval 0 if the intervals still
    touch as point sets, else 1."""
    la = a[1] - a[0]
    lb = b[1] - b[0]
    shorter = min(la, lb)
    if shorter <= 0.0:
        touches = max(a[0], b[0]) <= min(a[1], b[1])
        return 0.0 if touches else 1.0
    inter = interval_intersection_length(a, b)
    return float(np.clip(1.0 - inter / shorter, 0.0, 1.0))


def kernel_mismatch(a, b) -> float:
    """The vectorised kernel on one pair: one dimension, alpha 1."""
    return float(relevance_batch(np.array([a], dtype=float), np.array([b], dtype=float), alpha=1.0))


def formula_mismatch_matrix(w, f):
    """The out-of-place formula the in-place kernel reproduces byte for byte."""
    lo = np.maximum(w[..., 0], f[..., 0])
    hi = np.minimum(w[..., 1], f[..., 1])
    inter = np.maximum(hi - lo, 0.0)
    shorter = np.minimum(w[..., 1] - w[..., 0], f[..., 1] - f[..., 0])
    with np.errstate(invalid="ignore"):
        psi = np.clip(1.0 - np.divide(inter, shorter, out=np.ones_like(inter), where=shorter > 0), 0.0, 1.0)
    degenerate = shorter <= 0
    if np.any(degenerate):
        touches = lo <= hi
        psi = np.where(degenerate, np.where(touches, 0.0, 1.0), psi)
    return psi


def formula_power_mean(values, alpha):
    """The power mean over the last axis, its powers added one after another
    from 0 as ``scalar_relevance`` adds them; a single mean is summed by
    NumPy's 1-D reduction instead, as the kernel sums one column."""
    arr = np.array(values, dtype=float, order="C")  # powered in C order, as the kernel powers its copy
    with np.errstate(divide="ignore", over="ignore"):
        powers = np.power(arr, alpha)
        if powers.size == powers.shape[-1]:
            total = np.add.reduce(powers, axis=-1)
        else:
            total = np.zeros(powers.shape[:-1])
            for column in np.moveaxis(powers, -1, 0):
                total = total + column
        return (total / arr.shape[-1]) ** (1.0 / alpha)


def formula_relevance(constraints, intervals, alpha):
    w = np.asarray(constraints, dtype=float)
    f = np.asarray(intervals, dtype=float)
    return np.minimum(formula_power_mean(formula_mismatch_matrix(w, f), alpha), 1.0)


# ---------------------------------------------------------------------------
# confidence intervals
# ---------------------------------------------------------------------------


def test_confidence_interval_from_digest():
    civ = confidence_intervals(np.array([5.0]), np.array([10.0]), 10, z=1.0)
    assert civ.shape == (1, 2)
    assert civ[0] == pytest.approx([4.0, 6.0])


def test_confidence_intervals_broadcast_over_nodes():
    # one cardinality per node; rows match the per-node computation
    means = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    spreads = np.array([[4.0, 8.0], [2.0, 0.0], [1.0, 3.0]])
    cards = np.array([4, 2, 10])
    civ = confidence_intervals(means, spreads, cards, z=2.0)
    assert civ.shape == (3, 2, 2)
    for i in range(3):
        assert np.array_equal(civ[i], confidence_intervals(means[i], spreads[i], cards[i], z=2.0))
    assert civ[0, 1].tolist() == [-3.0, 5.0]


def test_zero_spread_gives_degenerate_interval():
    civ = confidence_intervals(np.array([2.5]), np.array([0.0]), 100, z=1.96)
    assert civ[0][0] == civ[0][1] == 2.5


def test_z_for_eighty_percent_mass():
    # the z value used as the default corresponds to ~80% central mass of
    # the standard normal
    import math

    mass = math.erf(1.28 / math.sqrt(2))
    assert mass == pytest.approx(0.80, abs=0.005)


# ---------------------------------------------------------------------------
# intersections and mismatch
# ---------------------------------------------------------------------------


def test_intersection_lengths():
    assert interval_intersection_length(interval(0, 2), interval(1, 3)) == pytest.approx(1.0)
    assert interval_intersection_length(interval(0, 1), interval(2, 3)) == 0.0
    assert interval_intersection_length(interval(0, 4), interval(1, 2)) == pytest.approx(1.0)


# each pair is checked on the scalar reference and on the kernel
BOTH = (overlap_mismatch, kernel_mismatch)


def test_mismatch_containment_is_zero():
    for mismatch in BOTH:
        assert mismatch(interval(1, 2), interval(0, 4)) == 0.0


def test_mismatch_disjoint_is_one():
    for mismatch in BOTH:
        assert mismatch(interval(0, 1), interval(2, 3)) == 1.0


def test_mismatch_partial_overlap():
    for mismatch in BOTH:
        assert mismatch(interval(0, 2), interval(1, 3)) == pytest.approx(0.5)


def test_mismatch_degenerate_pairs():
    for mismatch in BOTH:
        assert mismatch(interval(1, 1), interval(1, 1)) == 0.0
        assert mismatch(interval(1, 1), interval(2, 2)) == 1.0
        # a point interval inside / outside a proper interval follows the
        # containment / disjointness limits
        assert mismatch(interval(1, 1), interval(0, 2)) == 0.0
        assert mismatch(interval(3, 3), interval(0, 2)) == 1.0


bounds = st.floats(min_value=-10, max_value=10, allow_nan=False)


@given(bounds, bounds, bounds, bounds)
def test_mismatch_symmetric_and_bounded(a1, a2, b1, b2):
    a = interval(min(a1, a2), max(a1, a2))
    b = interval(min(b1, b2), max(b1, b2))
    m1 = overlap_mismatch(a, b)
    m2 = overlap_mismatch(b, a)
    assert m1 == pytest.approx(m2)
    assert 0.0 <= m1 <= 1.0
    assert kernel_mismatch(a, b) == pytest.approx(m1)


# ---------------------------------------------------------------------------
# relevance aggregation
# ---------------------------------------------------------------------------


def test_relevance_perfect_match_is_zero():
    w = QueryConstraints(np.array([[0.0, 1.0], [2.0, 3.0]]))
    f = np.array(np.array([[0.0, 1.0], [2.0, 3.0]]))
    assert relevance_batch(w, f, alpha=1.0) == 0.0


def test_relevance_total_mismatch_is_one():
    w = QueryConstraints(np.array([[0.0, 1.0], [0.0, 1.0]]))
    f = np.array(np.array([[2.0, 3.0], [5.0, 6.0]]))
    assert relevance_batch(w, f, alpha=1.0) == 1.0


def test_relevance_mixed_dimensions():
    # dimension mismatches 0.5, 0.0 and 1.0 average to 0.5
    w = QueryConstraints(np.array([[0.0, 2.0], [1.0, 2.0], [0.0, 1.0]]))
    f = np.array(np.array([[1.0, 3.0], [0.0, 4.0], [5.0, 6.0]]))
    assert relevance_batch(w, f, alpha=1.0) == pytest.approx(0.5)


def test_relevance_rejects_dimension_mismatch():
    w = QueryConstraints(np.array([[0.0, 1.0]]))
    f = np.array(np.array([[0.0, 1.0], [1.0, 2.0]]))
    with pytest.raises(ValueError):
        relevance_batch(w, f, alpha=1.0)


@given(st.lists(st.floats(min_value=0, max_value=1), min_size=2, max_size=5),
       st.integers(min_value=0, max_value=4), st.floats(min_value=0.25, max_value=4))
def test_relevance_monotone_in_each_mismatch(psis, idx, alpha):
    # build interval pairs realising the given mismatch values on [0, 1]:
    # query [0, 1] vs node [m, 1 + m] has mismatch exactly m
    idx = idx % len(psis)
    w = QueryConstraints(np.array([[0.0, 1.0]] * len(psis)))

    def intervals(values):
        return np.array(np.array([[m, 1.0 + m] for m in values]))

    bumped = list(psis)
    bumped[idx] = min(1.0, bumped[idx] + 0.3)
    assert relevance_batch(w, intervals(bumped), alpha) >= relevance_batch(w, intervals(psis), alpha) - 1e-12


def scalar_relevance(w, f, alpha):
    """Reference: per-dimension overlap_mismatch, then the power mean."""
    psis = [overlap_mismatch(a, b) for a, b in zip(w, f)]
    return min(1.0, (sum(p**alpha for p in psis) / len(psis)) ** (1.0 / alpha))


def test_relevance_batch_matches_scalar():
    rng = np.random.default_rng(0)
    w = QueryConstraints(np.sort(rng.uniform(0, 1, (4, 2)), axis=1))
    batch = np.sort(rng.uniform(0, 1, (8, 4, 2)), axis=2)
    got = relevance_batch(w, batch, alpha=1.5)
    assert got.shape == (8,)
    for i in range(8):
        assert got[i] == pytest.approx(scalar_relevance(w.intervals, batch[i], 1.5))


def test_relevance_batch_pairs_rows():
    # (N, L, 2) constraints against (N, L, 2) intervals pair row i with row i
    rng = np.random.default_rng(1)
    constraints = np.sort(rng.uniform(0, 1, (6, 3, 2)), axis=2)
    intervals = np.sort(rng.uniform(0, 1, (6, 3, 2)), axis=2)
    got = relevance_batch(constraints, intervals, alpha=0.5)
    assert got.shape == (6,)
    for i in range(6):
        assert got[i] == pytest.approx(scalar_relevance(constraints[i], intervals[i], 0.5))


# ---------------------------------------------------------------------------
# the in-place kernels against the out-of-place formula, byte for byte
# ---------------------------------------------------------------------------

ALPHAS = (1.0, 0.5, 3.0, -1.0, -2.5)


def random_intervals(rng, shape, grid_share):
    """Sorted (*shape, 2) intervals.  A share of the endpoints comes from a
    grid of four integers, so zero widths, shared endpoints, touching and
    disjoint pairs are common; the rest are uniform on [-1, 4]."""
    size = tuple(shape) + (2,)
    ends = np.where(rng.random(size) < grid_share, rng.integers(0, 4, size), rng.uniform(-1, 4, size))
    return np.sort(ends, axis=-1)


def assert_same_bytes(got, want):
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).dtype == np.asarray(want).dtype
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def operand_bytes(x):
    """The bytes of an interval array, or of each array of a bounds operand."""
    return x.tobytes() if isinstance(x, np.ndarray) else tuple(np.asarray(a).tobytes() for a in x)


def relevance_unchanged_inputs(w, f, alpha):
    """relevance_batch's result, after checking it left both inputs as they were."""
    w_before, f_before = operand_bytes(w), operand_bytes(f)
    got = relevance_batch(w, f, alpha)
    assert operand_bytes(w) == w_before and operand_bytes(f) == f_before
    return got


def checked_bounds(intervals):
    """interval_bounds of (..., L, 2) intervals, after checking it holds the
    two ends dimension-major, as transposed views of the intervals (no
    copy), their difference and the flag."""
    bounds = interval_bounds(intervals)
    widths = intervals[..., 1] - intervals[..., 0]
    for got, want in zip(bounds[:3], (intervals[..., 0], intervals[..., 1], widths)):
        assert_same_bytes(np.ascontiguousarray(got), np.ascontiguousarray(want.T))
    for got in bounds[:2]:
        assert got.base is not None and np.shares_memory(got, intervals)
    assert bounds.all_positive is bool((widths > 0).all())
    assert interval_bounds(bounds) is bounds
    return bounds


layouts = dict(
    n=st.integers(min_value=1, max_value=60),
    dims=st.integers(min_value=1, max_value=12),  # from L = 8 a single mean sums in another order
    alpha=st.sampled_from(ALPHAS),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    grid_share=st.sampled_from((0.0, 0.3, 1.0)),
)


@given(**layouts)
def test_relevance_bytes_one_query_against_a_fleet(n, dims, alpha, seed, grid_share):
    rng = np.random.default_rng(seed)
    w = random_intervals(rng, (dims,), grid_share)
    f = random_intervals(rng, (n, dims), grid_share)
    got = relevance_unchanged_inputs(w, f, alpha)
    assert got.shape == (n,)
    assert_same_bytes(got, formula_relevance(w, f, alpha))
    # a fleet against one query broadcasts the other way
    assert_same_bytes(relevance_unchanged_inputs(f, w, alpha), formula_relevance(f, w, alpha))


@given(**layouts)
def test_relevance_bytes_paired_rows(n, dims, alpha, seed, grid_share):
    rng = np.random.default_rng(seed)
    w = random_intervals(rng, (n, dims), grid_share)
    f = random_intervals(rng, (n, dims), grid_share)
    assert_same_bytes(relevance_unchanged_inputs(w, f, alpha), formula_relevance(w, f, alpha))
    # a stack of two such row sets pairs with the rows from the right
    stacked = random_intervals(rng, (2, n, dims), grid_share)
    assert_same_bytes(relevance_unchanged_inputs(w, stacked, alpha), formula_relevance(w, stacked, alpha))


@given(**layouts)
def test_relevance_bytes_single_pair_is_zero_d(n, dims, alpha, seed, grid_share):
    rng = np.random.default_rng(seed)
    w = random_intervals(rng, (dims,), grid_share)
    f = random_intervals(rng, (dims,), grid_share)
    got = relevance_unchanged_inputs(w, f, alpha)
    assert np.ndim(got) == 0
    assert_same_bytes(got, formula_relevance(w, f, alpha))


def test_relevance_bytes_zero_width_query_and_node_dimensions():
    # every kind of pair at once: zero-width query dims, zero-width node
    # intervals, touching, disjoint and nested intervals
    w = np.array([[1.0, 1.0], [0.0, 2.0], [2.0, 2.0], [0.0, 1.0], [0.0, 3.0], [1.0, 2.0], [0.5, 0.5], [0.0, 4.0]])
    f = np.array([
        [[1.0, 1.0], [2.0, 2.0], [2.0, 3.0], [1.0, 2.0], [4.0, 5.0], [0.0, 3.0], [0.0, 1.0], [1.0, 1.0]],
        [[0.0, 2.0], [0.0, 2.0], [3.0, 3.0], [1.0, 1.0], [1.0, 2.0], [1.0, 2.0], [0.6, 0.6], [4.0, 4.0]],
    ])
    for alpha in ALPHAS:
        assert_same_bytes(relevance_unchanged_inputs(w, f, alpha), formula_relevance(w, f, alpha))


@given(**layouts, prebuilt=st.sampled_from(("both", "constraints", "intervals")))
def test_relevance_bytes_on_prebuilt_bounds(n, dims, alpha, seed, grid_share, prebuilt):
    # bounds operands, on either side or both, give the formula's bytes (clip
    # included) one query against a fleet, a fleet against one query and
    # paired rows; grid endpoints make zero widths, touching and disjoint
    # pairs common
    rng = np.random.default_rng(seed)
    query = random_intervals(rng, (dims,), grid_share)
    fleet = random_intervals(rng, (n, dims), grid_share)
    rows = random_intervals(rng, (n, dims), grid_share)
    for w, f in ((query, fleet), (fleet, query), (rows, fleet)):
        w_op = checked_bounds(w) if prebuilt in ("both", "constraints") else w
        f_op = checked_bounds(f) if prebuilt in ("both", "intervals") else f
        assert_same_bytes(relevance_unchanged_inputs(w_op, f_op, alpha), formula_relevance(w, f, alpha))


def test_relevance_bytes_on_prebuilt_zero_width_bounds():
    w = np.array([[1.0, 1.0], [0.0, 2.0], [2.0, 2.0], [0.0, 1.0]])
    f = np.array([[[1.0, 1.0], [2.0, 2.0], [2.0, 3.0], [1.0, 2.0]], [[0.0, 2.0], [0.0, 2.0], [3.0, 3.0], [1.0, 1.0]]])
    proper = np.array([[[0.0, 1.0], [0.5, 2.0], [2.0, 3.0], [1.0, 2.0]]])
    assert not checked_bounds(w).all_positive and checked_bounds(proper).all_positive
    for alpha in ALPHAS:
        for a, b in ((w, f), (w, proper), (proper, w), (proper, proper)):
            got = relevance_unchanged_inputs(checked_bounds(a), checked_bounds(b), alpha)
            assert_same_bytes(got, formula_relevance(a, b, alpha))


def test_limit_rule_holds_on_zero_and_nan_widths_without_a_warning():
    # only the limit rule's path silences the divide: zero-width and NaN-width
    # intervals on either side take it, and no RuntimeWarning escapes
    query = np.array([[0.2, 0.6]])
    fleet = np.array([[[0.4, 0.4]], [[0.9, 0.9]], [[np.nan, 0.5]], [[0.0, 1.0]], [[0.7, 0.9]], [[0.6, 0.6]]])
    point = np.array([[0.3, 0.3]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in ALPHAS:
            for a, b in ((query, fleet), (fleet, query), (point, fleet), (point, point)):
                assert not (interval_bounds(a).all_positive and interval_bounds(b).all_positive)
                assert_same_bytes(relevance_batch(a, b, alpha), formula_relevance(a, b, alpha))
    assert relevance_batch(query, fleet, 1.0).tolist() == [0.0, 1.0, 0.0, 0.0, 1.0, 0.0]


TINY = 5e-324  # the least subnormal
BIG = sys.float_info.max


def rebuilt_bounds(x):
    """The operand a decision built from a query's (L, 2) intervals before
    ``QueryConstraints`` kept it: ``interval_bounds(x, 2)`` of the array."""
    with np.errstate(over="ignore"):  # ends more than the float range apart
        return interval_bounds(np.asarray(x, dtype=float), 2)


finite_ends = st.floats(-BIG, BIG)


@given(st.lists(st.lists(finite_ends, min_size=2, max_size=2).map(sorted), min_size=1, max_size=12))
@example([[1.0, 1.0], [0.0, 2.0]])  # a zero width: all_positive False
@example([[0.5, 0.5]])
@example([[-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]])  # signed zeros, each way round
@example([[0.0, TINY], [TINY, 2 * TINY], [-TINY, 0.0]])  # subnormal widths
@example([[-BIG, BIG], [0.0, 1.0]])  # the width overflows to inf
@example([[-BIG, -BIG / 2], [BIG / 2, BIG]])
def test_query_constraints_keep_the_operand_a_decision_built(ends):
    x = np.array(ends)
    query = QueryConstraints(x)
    want = rebuilt_bounds(x)
    got = query.operand
    for a, b in zip(got[:3], want[:3]):
        assert_same_bytes(a, b)
    assert type(got.all_positive) is bool and got.all_positive is want.all_positive
    assert np.shares_memory(got.lower, query.intervals) and np.shares_memory(got.upper, query.intervals)
    assert interval_bounds(query, 2) is got  # a decision reads it as it is
    with np.errstate(over="ignore"):  # against (L, 2) intervals the query reads as (L,) ends
        for a, b in zip(interval_bounds(query)[:3], interval_bounds(x)[:3]):
            assert_same_bytes(a, b)
    assert [f.name for f in fields(query)] == ["intervals"]
    statement = Query(statement="select a from t", constraints=query, id="q", deadline=0.5)
    assert write_record(statement) == {"statement": "select a from t", "constraints": ends, "id": "q", "deadline": 0.5}


def refused_before(x) -> bool:
    """Whether ``QueryConstraints`` refused (L, 2) ends before it built the
    operand: a NaN or infinite end, or a minimum above its maximum."""
    return not (np.isfinite(x).all() and (x[:, 0] <= x[:, 1]).all())


@given(st.lists(st.lists(st.floats(), min_size=2, max_size=2), min_size=1, max_size=6))
@example([[np.nextafter(1.0, 2.0), 1.0]])  # a minimum 1 ULP above its maximum
@example([[TINY, 0.0]])
@example([[0.0, -0.0]])
@example([[BIG, -BIG]])
@example([[-BIG, BIG], [np.nan, 0.0]])
@example([[-np.inf, 0.0]])
def test_query_constraints_refuse_what_they_refused(ends):
    x = np.array(ends)
    try:
        QueryConstraints(x)
    except ValueError:
        refused = True
    else:
        refused = False
    assert refused is refused_before(x)


def test_interval_bounds_rejects_a_shape_without_two_ends():
    with pytest.raises(ValueError):
        interval_bounds(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        relevance_batch(interval_bounds(np.zeros((2, 2))), np.zeros((4, 3, 2)), alpha=1.0)


def test_node_table_bounds_are_contiguous_and_match_the_interval_formula():
    scenario = generate_scenario(ScenarioConfig(n_nodes=7, dims=3, n_queries=1, seed=2))
    z = scenario.config.z
    bounds = simulator._node_table(scenario.nodes, z).bounds
    for i, node in enumerate(scenario.nodes):
        half = z * node.digest.spreads / node.digest.cardinality
        assert_same_bytes(bounds.lower[:, i], node.digest.means - half)
        assert_same_bytes(bounds.upper[:, i], node.digest.means + half)
    for arr in bounds[:3]:
        assert arr.flags.c_contiguous and arr.shape == (3, 7)
    assert_same_bytes(bounds.widths, bounds.upper - bounds.lower)
    assert bounds.all_positive


def test_a_zero_spread_node_gets_the_reference_relevance_in_a_run(monkeypatch):
    # one node's digest has no spread, so its intervals have zero width and
    # the run's node table takes the limit rule on every decision
    config = ScenarioConfig(n_nodes=6, dims=3, n_queries=40, seed=4)
    scenario = generate_scenario(config)
    flat = scenario.nodes[2]
    scenario.nodes[2] = replace(flat, digest=replace(flat.digest, spreads=np.zeros(config.dims)))
    features = []

    def recording(x, *args, **kwargs):
        features.append(x.copy())
        return decide_from_features(x, *args, **kwargs)

    monkeypatch.setattr(simulator, "decide_from_features", recording)
    bundle = EnsembleBundle(*(ConstantModel(1, 5) for _ in range(3)))
    simulate_run(scenario, bundle, "cs", ComplexityClassifier(generate_query_corpus()))
    civ = np.stack([
        confidence_intervals(node.digest.means, node.digest.spreads, node.digest.cardinality, config.z)
        for node in scenario.nodes
    ])
    assert (civ[2, :, 0] == civ[2, :, 1]).all()
    assert len(features) == len(scenario.queries)
    for x, query in zip(features, scenario.queries):
        assert_same_bytes(x[:, 2], formula_relevance(query.constraints.intervals, civ, config.alpha))


SUM_ROWS = (*range(1, 41), 50, 64, 127, 128, 129, 200, 1000)  # NumPy's 1-D sum: blocks of 8 from 8, halved past 128


@pytest.mark.parametrize("rows", SUM_ROWS)
def test_leading_sum_adds_in_numpys_row_order(rows):
    """The power mean's sum over its leading axis, byte for byte against
    the sequential reference: N >= 2 columns add row after row, and one
    column or a 1-D buffer takes NumPy's 1-D sum, which parts ways with the
    rows from 8 values on.  Powers and sum do not depend on the input's
    layout (C, Fortran or a reversed view, which NumPy may power 1 ULP
    apart), and the input is left as it was."""
    rng = np.random.default_rng(rows)
    for n in (1, 2, 3, 200):
        values = rng.random((n, rows)) * 10.0 ** rng.integers(-3, 4, size=(n, rows))
        values[rng.random((n, rows)) < 0.3] = 0.0
        for alpha in ALPHAS:
            want = formula_power_mean(values, alpha)
            for arr in (values, np.asfortranarray(values), np.ascontiguousarray(values[:, ::-1])[:, ::-1]):
                before = arr.copy(order="K")
                assert_same_bytes(quasi_arithmetic_mean(arr, alpha), want)
                assert arr.tobytes(order="A") == before.tobytes(order="A")
        row = values[0].tolist()
        assert_same_bytes(quasi_arithmetic_mean(row, 1.0), np.add.reduce(values[0]) / rows)
        assert_same_bytes(quasi_arithmetic_mean(values[:1], 1.0), np.add.reduce(values[:1], axis=-1) / rows)
        assert row == values[0].tolist()
        negative_zeros = np.full((n, rows), -0.0)  # they alone sum to +0.0
        assert_same_bytes(quasi_arithmetic_mean(negative_zeros, 1.0), np.zeros(n))
    # the reference tells the two orders apart: on 200 columns they differ from 8 rows on
    assert (formula_power_mean(values, 1.0) != np.add.reduce(values, axis=-1) / rows).any() == (rows >= 8)


@given(**layouts)
def test_power_is_layout_free_between_node_and_dimension_major(n, dims, alpha, seed, grid_share):
    # relevance powers an (L, N) buffer: the same values laid out (N, L) power to the same bytes
    rng = np.random.default_rng(seed)
    values = rng.random((n, dims))
    values[rng.random((n, dims)) < grid_share / 3] = 0.0
    with np.errstate(divide="ignore", over="ignore"):
        node_major = np.power(values, alpha)
        dimension_major = np.power(np.ascontiguousarray(values.T), alpha)
    assert_same_bytes(np.ascontiguousarray(dimension_major.T), node_major)
