"""Evaluation metrics over simulation runs and delimited result emission.

Per decision we track how far the chosen node sat from the best available
one: ``load_gap`` against the lowest load in the snapshot and ``speed_gap``
against the highest speed.  Run-level aggregates add allocation throughput
(queries per millisecond of decision time).
"""

from __future__ import annotations

import csv
import io
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
    "emit_run",
    "emit_summary",
    "load_run",
    "summarise_runs",
]


@dataclass(frozen=True)
class QueryRecord:
    """Snapshot of one allocation decision.  ``load_min`` <= ``load_selected``
    and ``speed_selected`` <= ``speed_max``; ``load_run`` checks both."""

    query_index: int
    decision_ms: float
    selected_node: int
    load_selected: float
    speed_selected: float
    load_min: float
    speed_max: float


@dataclass
class RunResult:
    """All per-query records of one simulated run plus its descriptor."""

    scheme: str
    distribution: str
    n_nodes: int
    seed: int
    records: list = field(default_factory=list)

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


def _out_dir(out_dir) -> Path:
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create output directory {out}: {exc}") from exc
    return out


def emit_run(result: RunResult, out_dir) -> Path:
    """Write one run's records to ``run_<label>.csv``; returns the path.

    Column order is stable so downstream plotting can rely on it; every
    column except ``decision_ms`` is reproducible for a fixed seed.
    """
    path = _out_dir(out_dir) / f"run_{result.label()}.csv"
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("scheme", "distribution", "n_nodes", "seed") + _RUN_COLUMNS)
            for rec in result.records:
                load_gap, speed_gap = optimality_gaps(rec)
                writer.writerow(
                    (
                        result.scheme,
                        result.distribution,
                        result.n_nodes,
                        result.seed,
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
    return path


def load_run(path, n_queries: int) -> RunResult:
    """Read back the file ``emit_run`` wrote for a run of ``n_queries`` queries.

    Raises ``DataError`` unless it holds queries 0..n_queries-1 in order, each
    on a whole, parsable row (an interrupted write leaves the last row cut
    off) of finite values whose ``load_min`` is at most ``load_selected``,
    ``speed_max`` at least ``speed_selected`` and ``decision_ms`` positive.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
        rows = list(csv.DictReader(io.StringIO(text)))
        first = rows[0]
        result = RunResult(first["scheme"], first["distribution"], int(first["n_nodes"]), int(first["seed"]))
        result.records = [
            QueryRecord(
                query_index=int(row["query_index"]),
                decision_ms=float(row["decision_ms"]),
                selected_node=int(row["selected_node"]),
                load_selected=float(row["load_selected"]),
                speed_selected=float(row["speed_selected"]),
                load_min=float(row["load_min"]),
                speed_max=float(row["speed_max"]),
            )
            for row in rows
        ]
    except (OSError, LookupError, TypeError, ValueError) as exc:
        raise DataError(f"cannot read run file {path}: {exc}") from exc
    if not text.endswith("\n") or [r.query_index for r in result.records] != list(range(n_queries)):
        raise DataError(f"run file {path} does not hold queries 0..{n_queries - 1} on whole rows")
    for r in result.records:
        values = (r.decision_ms, r.load_selected, r.load_min, r.speed_selected, r.speed_max)
        if not (all(map(math.isfinite, values)) and r.decision_ms > 0):
            raise DataError(f"run file {path}, query {r.query_index}: needs finite values and decision_ms > 0")
        if r.load_min > r.load_selected + 1e-12 or r.speed_selected > r.speed_max + 1e-12:
            raise DataError(f"run file {path}, query {r.query_index}: a load or speed exceeds its bound")
    return result


def emit_summary(results: Sequence[RunResult], out_dir) -> Path:
    """Write ``summary.csv`` (``summarise_runs`` of ``results``); returns the path."""
    summary_path = _out_dir(out_dir) / "summary.csv"
    header = ["scheme", "distribution", "n_nodes", "n_seeds"]
    for name in _SUMMARY_METRICS:
        header += [f"mean_{name}", f"se_{name}"]
    try:
        with open(summary_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=header)
            writer.writeheader()
            for row in summarise_runs(results):
                writer.writerow({k: _fmt(v) for k, v in row.items()})
    except OSError as exc:
        raise DataError(f"cannot write {summary_path}: {exc}") from exc
    return summary_path


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.9f}"
    return v
