"""Evaluation metrics over simulation runs and delimited result emission.

Per decision we track how far the chosen node sat from the best available
one: ``load_gap`` against the lowest load in the snapshot and ``speed_gap``
against the highest speed.  Run-level aggregates add allocation throughput
(queries per millisecond of decision time).

Each layout a run leaves lives here once.  ``RUN_COLUMNS`` lists the run
file's columns, each with its value read off a ``QueryRecord`` and its text
format: ``emit_run`` writes by it, ``load_run`` reads by it, and
``RunResult.column`` returns a column as the file holds it, which is what
``summarise_runs`` averages, so a summary does not depend on whether its
runs were simulated or read back.  ``RunResult.for_cell`` sets a run's
descriptor, and so its label, from its scenario config.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, fields
from operator import attrgetter
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .allocator import FusionScheme
from .errors import DataError

__all__ = [
    "QueryRecord",
    "RunResult",
    "allocation_throughput",
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


class RunColumn(NamedTuple):
    """One column of a run file: its name, its value read off a
    ``QueryRecord`` and that value's text format ("d" for an integer)."""

    name: str
    value: Callable
    fmt: str

    def text(self, record: QueryRecord) -> str:
        return format(self.value(record), self.fmt)

    def parse(self, text: str):
        return int(text) if self.fmt == "d" else float(text)


RUN_COLUMNS = (
    RunColumn("query_index", attrgetter("query_index"), "d"),
    RunColumn("selected_node", attrgetter("selected_node"), "d"),
    RunColumn("load_selected", attrgetter("load_selected"), ".9f"),
    RunColumn("load_min", attrgetter("load_min"), ".9f"),
    RunColumn("load_gap", lambda r: r.load_selected - r.load_min, ".9f"),
    RunColumn("speed_selected", attrgetter("speed_selected"), ".9f"),
    RunColumn("speed_max", attrgetter("speed_max"), ".9f"),
    RunColumn("speed_gap", lambda r: r.speed_max - r.speed_selected, ".9f"),
    RunColumn("decision_ms", attrgetter("decision_ms"), ".6f"),
)
# a run's descriptor, repeated ahead of the columns on every row
_RUN_KEYS = (("scheme", str), ("distribution", str), ("n_nodes", int), ("seed", int))


@dataclass
class RunResult:
    """All per-query records of one simulated run plus its descriptor."""

    scheme: str
    distribution: str
    n_nodes: int
    seed: int
    records: list = field(default_factory=list)
    # the columns of the file ``load_run`` read this run from, as numbers
    _held: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def load_gaps(self) -> np.ndarray:
        return np.array([r.load_selected - r.load_min for r in self.records])

    def throughput(self) -> float:
        return allocation_throughput([r.decision_ms for r in self.records])

    def label(self) -> str:
        return f"{self.scheme}_{self.distribution}_n{self.n_nodes}_seed{self.seed}"

    @classmethod
    def for_cell(cls, scheme, config) -> "RunResult":
        """An empty result for a run of the scenario ``config`` under
        ``scheme``; a run replaying a trace file has distribution "trace"."""
        distribution = config.distribution if config.trace_path is None else "trace"
        return cls(FusionScheme.parse(scheme).value, distribution, config.n_nodes, config.seed)

    def column(self, name: str) -> np.ndarray:
        """The run-file column ``name`` as the file holds it: each record's
        value through the column's text format, or the file's own values for
        a run ``load_run`` read."""
        if name in self._held:
            return self._held[name]
        col = next(c for c in RUN_COLUMNS if c.name == name)
        return np.array([col.parse(col.text(r)) for r in self.records], dtype=float)


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


_SUMMARY_KEYS = ("scheme", "distribution", "n_nodes", "n_seeds")
_SUMMARY_METRICS = ("load_gap", "speed_gap", "load_selected", "decision_ms", "throughput")


def _mean_se(values: np.ndarray) -> tuple:
    mean = float(np.mean(values))
    if values.size < 2:
        return mean, 0.0
    return mean, float(np.std(values, ddof=1) / math.sqrt(values.size))


def summarise_runs(results: Sequence[RunResult]) -> list:
    """Per (scheme, distribution, N) means and standard errors over seeds,
    each run's metrics taken from the values its run file holds."""
    groups: dict = {}
    for r in results:
        groups.setdefault((r.scheme, r.distribution, r.n_nodes), []).append(r)
    rows = []
    for (scheme, dist, n), runs in sorted(groups.items()):
        row = dict(zip(_SUMMARY_KEYS, (scheme, dist, n, len(runs))))
        for name in _SUMMARY_METRICS:
            if name == "throughput":
                per_seed = [allocation_throughput(r.column("decision_ms")) for r in runs]
            else:
                per_seed = [float(r.column(name).mean()) for r in runs]
            row[f"mean_{name}"], row[f"se_{name}"] = _mean_se(np.array(per_seed))
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
    descriptor = tuple(getattr(result, key) for key, _ in _RUN_KEYS)
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(tuple(key for key, _ in _RUN_KEYS) + tuple(c.name for c in RUN_COLUMNS))
            for rec in result.records:
                writer.writerow(descriptor + tuple(c.text(rec) for c in RUN_COLUMNS))
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
        result = RunResult(*(kind(rows[0][key]) for key, kind in _RUN_KEYS))
        held = {c.name: [c.parse(row[c.name]) for row in rows] for c in RUN_COLUMNS}
        record_columns = (held[f.name] for f in fields(QueryRecord))
        result.records = [QueryRecord(*values) for values in zip(*record_columns)]
        result._held = {name: np.array(values, dtype=float) for name, values in held.items()}
    except (OSError, LookupError, TypeError, ValueError) as exc:
        raise DataError(f"cannot read run file {path}: {exc}") from exc
    if not text.endswith("\n") or held["query_index"] != list(range(n_queries)):
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
    header = [*_SUMMARY_KEYS, *(f"{stat}_{name}" for name in _SUMMARY_METRICS for stat in ("mean", "se"))]
    try:
        with open(summary_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=header)
            writer.writeheader()
            for row in summarise_runs(results):
                writer.writerow({k: f"{v:.9f}" if isinstance(v, float) else v for k, v in row.items()})
    except OSError as exc:
        raise DataError(f"cannot write {summary_path}: {exc}") from exc
    return summary_path
