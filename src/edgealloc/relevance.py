"""Query/dataset relevance from per-dimension interval overlap.

A node advertises its data through a digest (per-dimension mean, spread,
cardinality).  ``confidence_intervals`` expands digests into intervals and
``relevance_batch`` matches them against a query's constraint intervals
dimension by dimension; the per-dimension mismatch scores aggregate into a
single relevance value where LOWER means a better data match, through the
power-mean core behind ``complexity.quasi_arithmetic_mean``, the kernel that
aggregates complexity memberships.  Both kernels broadcast over leading
axes, so one node, a whole fleet and a batch of paired training rows all go
through the same code.  The scalar per-dimension reference the kernel
reproduces lives in ``tests/test_relevance.py``.
"""

from __future__ import annotations

import numpy as np

from .complexity import _power_mean_inplace

__all__ = [
    "confidence_intervals",
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


def _mismatch_matrix(w: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Per-dimension mismatch in [0, 1] of broadcast (..., L, 2) operands:
    1 - intersection length over the shorter length, built in one buffer.

    0 when one interval contains the other, 1 when they are disjoint.  With
    a zero-length shorter interval the limit applies: 0 if the intervals
    still touch as point sets, else 1.
    """
    psi = np.maximum(w[..., 0], f[..., 0])  # lo
    shorter = np.minimum(w[..., 1], f[..., 1])  # hi, until the widths overwrite it
    np.subtract(shorter, psi, out=psi)
    np.maximum(psi, 0.0, out=psi)  # intersection length
    np.subtract(w[..., 1], w[..., 0], out=shorter)
    np.minimum(shorter, f[..., 1] - f[..., 0], out=shorter)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(psi, shorter, out=psi)
    np.subtract(1.0, psi, out=psi)
    np.clip(psi, 0.0, 1.0, out=psi)
    if not shorter.min() > 0:  # the limit rule; a NaN width reads 0
        touches = np.maximum(w[..., 0], f[..., 0]) <= np.minimum(w[..., 1], f[..., 1])
        psi[~(shorter > 0)] = 0.0
        degenerate = shorter <= 0
        psi[degenerate] = ~touches[degenerate]
    return psi


def relevance_batch(constraints, intervals, alpha: float) -> np.ndarray:
    """Relevance in [0, 1] of constraint intervals against data intervals.

    Both operands are (..., L, 2) and broadcast against each other: one
    query against (N, L, 2) node intervals gives N values, (N, L, 2) paired
    rows give one value per row, one (L, 2) pair a 0-d value.  The
    per-dimension mismatches are computed in one buffer, which the power
    mean of exponent ``alpha`` (non-zero) then reduces in place; the inputs
    are never written.  Lower is better, 0 meaning every constraint
    interval is matched by the data.
    """
    w = np.asarray(getattr(constraints, "intervals", constraints), dtype=float)
    f = np.asarray(intervals, dtype=float)
    if min(w.ndim, f.ndim) < 2 or w.shape[-2:] != f.shape[-2:] or w.shape[-1] != 2:
        raise ValueError(f"dimensionality mismatch: {w.shape} vs {f.shape}")
    if alpha == 0 or w.shape[-2] == 0:
        raise ValueError("relevance needs a non-zero alpha and at least one dimension")
    return np.minimum(_power_mean_inplace(_mismatch_matrix(w, f), alpha), 1.0)
