"""Evaluation metrics over simulation runs and delimited result emission.

Per decision we track how far the chosen node sat from the best available
one: ``load_gap`` against the lowest load in the snapshot and ``speed_gap``
against the highest speed.  Run-level aggregates add allocation throughput
(queries per millisecond of decision time) and histogram-based probability
densities.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError

__all__ = [
    "QueryRecord",
    "RunResult",
    "allocation_throughput",
    "optimality_gaps",
    "density_estimate",
    "emit_results",
    "summarise_runs",
]


@dataclass(frozen=True)
class QueryRecord:
    """Snapshot of one allocation decision."""

    query_index: int
    decision_ms: float
    selected_node: int
    load_selected: float
    speed_selected: float
    load_min: float
    speed_max: float

    def __post_init__(self) -> None:
        if self.load_min > self.load_selected + 1e-12:
            raise ValueError("load_min cannot exceed the selected node's load")
        if self.speed_selected > self.speed_max + 1e-12:
            raise ValueError("the selected node's speed cannot exceed speed_max")


@dataclass
class RunResult:
    """All per-query records of one simulated run plus its descriptor."""

    scheme: str
    distribution: str
    n_nodes: int
    seed: int
    records: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def load_gaps(self) -> np.ndarray:
        return np.array([r.load_selected - r.load_min for r in self.records])

    def speed_gaps(self) -> np.ndarray:
        return np.array([r.speed_max - r.speed_selected for r in self.records])

    def decision_times_ms(self) -> np.ndarray:
        return np.array([r.decision_ms for r in self.records])

    def selected_loads(self) -> np.ndarray:
        return np.array([r.load_selected for r in self.records])

    def throughput(self) -> float:
        return allocation_throughput(self.decision_times_ms())

    def label(self) -> str:
        return f"{self.scheme}_{self.distribution}_n{self.n_nodes}_seed{self.seed}"


def allocation_throughput(decision_times_ms: Sequence[float]) -> float:
    """Queries allocated per millisecond: count / total decision time."""
    times = np.asarray(decision_times_ms, dtype=float)
    if times.size == 0:
        raise ValueError("decision times must be non-empty")
    if np.any(times < 0):
        raise ValueError("decision times must be >= 0")
    total = float(times.sum())
    if total <= 0:
        raise ValueError("total decision time is zero; timings must be floored upstream")
    return times.size / total


def optimality_gaps(record: QueryRecord) -> tuple:
    """(load_gap, speed_gap): distance of the pick from the snapshot optimum."""
    return (
        record.load_selected - record.load_min,
        record.speed_max - record.speed_selected,
    )


def density_estimate(samples: Sequence[float], bins: int = 50) -> tuple:
    """Histogram density: (bin centers, densities) with unit integral.

    Bins cover [min, max] of the samples.  A constant sample collapses to a
    single unit-width bin of density 1.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.size < 2:
        raise ValueError("need at least two samples for a density estimate")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    lo, hi = float(arr.min()), float(arr.max())
    if lo == hi:
        return np.array([lo]), np.array([1.0])
    densities, edges = np.histogram(arr, bins=bins, range=(lo, hi), density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, densities


_RUN_COLUMNS = (
    "query_index",
    "selected_node",
    "load_selected",
    "load_min",
    "load_gap",
    "speed_selected",
    "speed_max",
    "speed_gap",
    "decision_ms",
)

_SUMMARY_METRICS = (
    "load_gap",
    "speed_gap",
    "load_selected",
    "decision_ms",
    "throughput",
)


def _mean_se(values: np.ndarray) -> tuple:
    mean = float(np.mean(values))
    if values.size < 2:
        return mean, 0.0
    return mean, float(np.std(values, ddof=1) / math.sqrt(values.size))


def summarise_runs(results: Sequence[RunResult]) -> list:
    """Per (scheme, distribution, N) means and standard errors over seeds."""
    groups: dict = {}
    for r in results:
        groups.setdefault((r.scheme, r.distribution, r.n_nodes), []).append(r)
    rows = []
    for (scheme, dist, n), runs in sorted(groups.items()):
        per_seed = {
            "load_gap": np.array([float(r.load_gaps().mean()) for r in runs]),
            "speed_gap": np.array([float(r.speed_gaps().mean()) for r in runs]),
            "load_selected": np.array([float(r.selected_loads().mean()) for r in runs]),
            "decision_ms": np.array([float(r.decision_times_ms().mean()) for r in runs]),
            "throughput": np.array([r.throughput() for r in runs]),
        }
        row = {
            "scheme": scheme,
            "distribution": dist,
            "n_nodes": n,
            "n_seeds": len(runs),
        }
        for name in _SUMMARY_METRICS:
            mean, se = _mean_se(per_seed[name])
            row[f"mean_{name}"] = mean
            row[f"se_{name}"] = se
        rows.append(row)
    return rows


def emit_results(results: Sequence[RunResult], out_dir) -> list:
    """Write one CSV per run plus a summary CSV; returns the written paths.

    Column order is stable so downstream plotting can rely on it; every
    column except the timing ones is reproducible for a fixed seed.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create output directory {out}: {exc}") from exc
    written = []
    for r in results:
        path = out / f"run_{r.label()}.csv"
        try:
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(("scheme", "distribution", "n_nodes", "seed") + _RUN_COLUMNS)
                for rec in r.records:
                    load_gap, speed_gap = optimality_gaps(rec)
                    writer.writerow(
                        (
                            r.scheme,
                            r.distribution,
                            r.n_nodes,
                            r.seed,
                            rec.query_index,
                            rec.selected_node,
                            f"{rec.load_selected:.9f}",
                            f"{rec.load_min:.9f}",
                            f"{load_gap:.9f}",
                            f"{rec.speed_selected:.9f}",
                            f"{rec.speed_max:.9f}",
                            f"{speed_gap:.9f}",
                            f"{rec.decision_ms:.6f}",
                        )
                    )
        except OSError as exc:
            raise DataError(f"cannot write {path}: {exc}") from exc
        written.append(path)

    summary_path = out / "summary.csv"
    rows = summarise_runs(results)
    header = ["scheme", "distribution", "n_nodes", "n_seeds"]
    for name in _SUMMARY_METRICS:
        header += [f"mean_{name}", f"se_{name}"]
    try:
        with open(summary_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=header)
            writer.writeheader()
            for row in rows:
                writer.writerow({k: _fmt(v) for k, v in row.items()})
    except OSError as exc:
        raise DataError(f"cannot write {summary_path}: {exc}") from exc
    written.append(summary_path)
    return written


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.9f}"
    return v
