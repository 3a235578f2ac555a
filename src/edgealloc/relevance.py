"""Query/dataset relevance from per-dimension interval overlap.

A node advertises its data through a digest (per-dimension mean, spread,
cardinality).  ``confidence_intervals`` expands digests into intervals and
``relevance_batch`` matches them against a query's constraint intervals
dimension by dimension; the per-dimension mismatch scores aggregate into a
single relevance value where LOWER means a better data match.  Both kernels
broadcast over leading axes, so one node, a whole fleet and a batch of
paired training rows all go through the same code.  The scalar
``overlap_mismatch`` is the per-dimension reference the kernel reproduces.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "confidence_intervals",
    "interval_intersection_length",
    "overlap_mismatch",
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


def interval_intersection_length(a, b) -> float:
    """Length of the common sub-interval of two intervals, 0 if disjoint."""
    lo = max(a[0], b[0])
    hi = min(a[1], b[1])
    return hi - lo if lo < hi else 0.0


def overlap_mismatch(a, b) -> float:
    """Mismatch in [0, 1]: 1 - intersection length over the shorter length.

    0 when one interval contains the other, 1 when they are disjoint.  With
    a zero-length denominator the limit behaviour applies: 0 if the
    intervals still touch as point sets, else 1.
    """
    la = a[1] - a[0]
    lb = b[1] - b[0]
    shorter = min(la, lb)
    if shorter <= 0.0:
        touches = max(a[0], b[0]) <= min(a[1], b[1])
        return 0.0 if touches else 1.0
    inter = interval_intersection_length(a, b)
    return float(np.clip(1.0 - inter / shorter, 0.0, 1.0))


def _mismatch_matrix(w: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Vectorised overlap_mismatch over broadcast (..., L, 2) operands."""
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


def relevance_batch(constraints, intervals, alpha: float) -> np.ndarray:
    """Relevance in [0, 1] of constraint intervals against data intervals.

    Both operands are (..., L, 2) and broadcast against each other: one
    query against (N, L, 2) node intervals gives N values, (N, L, 2) paired
    rows give one value per row.  The per-dimension mismatches aggregate
    with the power mean of exponent ``alpha``; lower is better, 0 meaning
    every constraint interval is matched by the data.
    """
    if alpha == 0:
        raise ValueError("alpha must be non-zero")
    w = np.asarray(getattr(constraints, "intervals", constraints), dtype=float)
    f = np.asarray(intervals, dtype=float)
    if w.shape[-2:] != f.shape[-2:] or w.shape[-1] != 2:
        raise ValueError(f"dimensionality mismatch: {w.shape} vs {f.shape}")
    psis = _mismatch_matrix(w, f)
    with np.errstate(divide="ignore"):
        vals = np.mean(np.power(psis, alpha), axis=-1) ** (1.0 / alpha)
    return np.minimum(vals, 1.0)
