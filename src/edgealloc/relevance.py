"""Query/dataset relevance from per-dimension interval overlap.

A node advertises its data through a digest (per-dimension mean, spread,
cardinality).  ``confidence_intervals`` expands digests into intervals and
``relevance_batch`` matches them against a query's constraint intervals
dimension by dimension; the per-dimension mismatch scores aggregate into a
single relevance value where LOWER means a better data match, through the
power-mean core behind ``complexity.quasi_arithmetic_mean``, the kernel that
aggregates complexity memberships.  The kernel reads ``IntervalBounds``
operands, dimension-major: row l of each (L, ...) array holds dimension l.
Each side's operand is built once, so a decision builds neither: a run's
node table holds C-contiguous (L, N) bounds, and ``QueryConstraints`` keeps
as ``operand`` the (L, 1) views of a query's ends it built while checking
them.  (..., L, 2) intervals passed as such are read as strided views
without a copy.  Against (L, N) bounds each ufunc broadcasts one value per
dimension over N contiguous nodes.  The kernel broadcasts over leading axes,
so one node, a whole fleet and a batch of paired training rows all go
through the same code, in one C-ordered buffer whatever the operands'
layout.  A fleet's and paired rows' dimensions add one after another, as
the scalar reference adds them; one node or one pair, a single column,
sums by NumPy's pairwise 1-D reduction (``complexity._power_mean_inplace``).
The scalar per-dimension reference lives in ``tests/test_relevance.py``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .complexity import _power_mean_inplace

__all__ = [
    "confidence_intervals",
    "interval_bounds",
    "relevance_batch",
]


def confidence_intervals(means, spreads, cardinality, z: float) -> np.ndarray:
    """Per-dimension intervals (mean - z*spread/n, mean + z*spread/n).

    ``means`` and ``spreads`` are (..., L); ``cardinality`` is a scalar or
    one value per leading index.  Returns a (..., L, 2) array.
    """
    if z <= 0:
        raise ValueError(f"z must be positive, got {z}")
    means = np.asarray(means, dtype=float)
    half = z * np.asarray(spreads, dtype=float) / np.asarray(cardinality)[..., None]
    return np.stack([means - half, means + half], axis=-1)


class IntervalBounds(NamedTuple):
    """A relevance operand, dimension-major: (L, ...) lower bounds, upper
    bounds and widths (upper - lower), the transposes of (..., L) arrays,
    and whether every width is > 0 (False if any is NaN)."""

    lower: np.ndarray
    upper: np.ndarray
    widths: np.ndarray
    all_positive: bool


def interval_bounds(intervals, ndim: int = 1) -> IntervalBounds:
    """The bounds operand of (..., L, 2) intervals or ``QueryConstraints``,
    its ends as transposed views of the intervals (no copy), with trailing
    unit axes up to ``ndim`` axes; an ``IntervalBounds`` gets the same unit
    axes.  Two operands' transposed leading axes line up from L on, as
    (..., L) arrays line up from the right, so a query's (L, 2) intervals
    read against (L, N) bounds become (L, 1) views.  For ``ndim`` >= 2 a
    ``QueryConstraints`` gives the (L, 1) operand it built when it checked
    its intervals, read by attribute (relevance does not import ``core``)."""
    if not isinstance(intervals, IntervalBounds):  # against a 1-D partner, a query reads as (L,) ends
        intervals = getattr(intervals, "operand" if ndim > 1 else "intervals", intervals)
    if isinstance(intervals, IntervalBounds):
        if intervals.lower.ndim >= ndim:
            return intervals
        lower, upper, widths, all_positive = intervals
    else:
        arr = np.asarray(intervals, dtype=float)
        if arr.ndim < 2 or arr.shape[-1] != 2:
            raise ValueError(f"expected (..., L, 2) intervals, got shape {arr.shape}")
        ends = arr.T  # (2, L, ...)
        lower, upper = ends[0], ends[1]
        widths = upper - lower
        all_positive = bool(widths.min(initial=np.inf) > 0)
    while lower.ndim < ndim:
        lower, upper, widths = lower[..., None], upper[..., None], widths[..., None]
    return IntervalBounds(lower, upper, widths, all_positive)


def _mismatch_matrix(w: IntervalBounds, f: IntervalBounds) -> np.ndarray:
    """Per-dimension mismatch in [0, 1] of broadcast operands: 1 -
    intersection length over the shorter width, built in one buffer.

    0 when one interval contains the other, 1 when they are disjoint.  With
    a zero-length shorter interval the limit applies: 0 if the intervals
    still touch as point sets, else 1.  Where the shorter width is > 0,
    monotone rounding keeps 0 <= intersection <= shorter, so the ratio
    needs no clipping.  With every width of both operands > 0 (and finite,
    as every bound the program builds is) the divide cannot warn, so only
    the limit rule's path enters ``np.errstate``.
    """
    psi = np.maximum(w.lower, f.lower, order="C")  # lo; C order fixes the power mean's sum order
    shorter = np.minimum(w.upper, f.upper)  # hi, until the widths overwrite it
    np.subtract(shorter, psi, out=psi)
    np.maximum(psi, 0.0, out=psi)  # intersection length
    np.minimum(w.widths, f.widths, out=shorter)
    if w.all_positive and f.all_positive:
        np.divide(psi, shorter, out=psi)
        return np.subtract(1.0, psi, out=psi)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(psi, shorter, out=psi)
    np.subtract(1.0, psi, out=psi)
    # the limit rule; a NaN width reads 0
    touches = np.maximum(w.lower, f.lower) <= np.minimum(w.upper, f.upper)
    psi[~(shorter > 0)] = 0.0
    degenerate = shorter <= 0
    psi[degenerate] = ~touches[degenerate]
    return psi


def relevance_batch(constraints, intervals, alpha: float) -> np.ndarray:
    """Relevance in [0, 1] of constraint intervals against data intervals.

    Each operand is an ``IntervalBounds``, (..., L, 2) intervals or
    ``QueryConstraints``, and the two broadcast against each other: one
    query against N nodes gives N values, N paired rows give one value per
    row, one pair a 0-d value.  The per-dimension mismatches are computed
    in one C-ordered (L, ...) buffer, which the power mean of exponent
    ``alpha`` (non-zero) then reduces in place over L; the inputs are never
    written.
    Lower is better, 0 meaning every constraint interval is matched by the
    data.
    """
    f = interval_bounds(intervals)
    w = interval_bounds(constraints, f.lower.ndim)
    if f.lower.ndim < w.lower.ndim:
        f = interval_bounds(f, w.lower.ndim)
    if len(w.lower) != len(f.lower):
        raise ValueError(f"dimensionality mismatch: {w.lower.shape} vs {f.lower.shape}")
    if alpha == 0 or len(w.lower) == 0:
        raise ValueError("relevance needs a non-zero alpha and at least one dimension")
    mean = _power_mean_inplace(_mismatch_matrix(w, f), alpha)
    # at alpha 1 a mean of values in [0, 1] cannot round past 1: each sum of
    # k of them rounds to at most k, and k / k is 1
    if alpha != 1:
        mean = np.minimum(mean, 1.0)
    return mean.T if mean.ndim > 1 else mean
