import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from edgealloc.core import QueryConstraints
from edgealloc.relevance import (
    confidence_intervals,
    interval_intersection_length,
    overlap_mismatch,
    relevance_batch,
)


def interval(lo, hi):
    return np.array([lo, hi])


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


def test_mismatch_containment_is_zero():
    assert overlap_mismatch(interval(1, 2), interval(0, 4)) == 0.0


def test_mismatch_disjoint_is_one():
    assert overlap_mismatch(interval(0, 1), interval(2, 3)) == 1.0


def test_mismatch_partial_overlap():
    assert overlap_mismatch(interval(0, 2), interval(1, 3)) == pytest.approx(0.5)


def test_mismatch_degenerate_pairs():
    assert overlap_mismatch(interval(1, 1), interval(1, 1)) == 0.0
    assert overlap_mismatch(interval(1, 1), interval(2, 2)) == 1.0
    # a point interval inside / outside a proper interval follows the
    # containment / disjointness limits
    assert overlap_mismatch(interval(1, 1), interval(0, 2)) == 0.0
    assert overlap_mismatch(interval(3, 3), interval(0, 2)) == 1.0


bounds = st.floats(min_value=-10, max_value=10, allow_nan=False)


@given(bounds, bounds, bounds, bounds)
def test_mismatch_symmetric_and_bounded(a1, a2, b1, b2):
    a = interval(min(a1, a2), max(a1, a2))
    b = interval(min(b1, b2), max(b1, b2))
    m1 = overlap_mismatch(a, b)
    m2 = overlap_mismatch(b, a)
    assert m1 == pytest.approx(m2)
    assert 0.0 <= m1 <= 1.0


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
