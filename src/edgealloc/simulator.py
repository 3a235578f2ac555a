"""Workload simulation: scenarios, traces, training data and the decision path.

A scenario bundles N simulated nodes (each with its own dataset digest and
speed), a stream of analytics queries, and one load value per node per
epoch.  Loads either replay a synthetic or ingested utilisation trace
(default) or evolve from queue arrivals and completions.  Everything is
reproducible from (config, seed): each component draws from its own child
stream, and query generation is independent of N so sweeps over the node
count face the same workload.

Every allocation goes through one path.  A node table (ids, speeds, the
dimension-major (L, N) bounds of the nodes' intervals, queue capacities) is
built once per run; ``_decide_query`` then classifies the statement, fills
the (N, 5) context matrix with ``core.context_matrix`` and hands it to
``decide_from_features``; the picks come back as positions into the table.
``synthesize_training_set`` fills its rows with the same kernel, so the
column layout is ``core.CONTEXT_FEATURES`` on both sides.  ``simulate_run``
calls ``_decide_query`` once per query and indexes the table, its
``QueryRecord`` and the queue update by the picks; the run's descriptor and
label come from ``RunResult.for_cell`` and its file layout from
``metrics.RUN_COLUMNS``.  ``ova_allocate`` calls it once over a one-off
table at the nodes' current loads and alone maps the picks to node ids.
"""

from __future__ import annotations

import csv
import gc
import itertools
import json
import logging
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .allocator import AllocationDecision, EnsembleBundle, FusionScheme, decide_from_features
from .complexity import ComplexityClassifier, TrainingQueryCorpus, DEFAULT_CLASSES
from .core import (
    INT64_MAX, DatasetDigest, NodeState, Query, QueryConstraints, complexity_scalar, context_matrix, read_config,
    write_record,
)
from .errors import ConfigError, DataError
from .learners import LabeledDataset
from .metrics import QueryRecord, RunResult
from .relevance import IntervalBounds, confidence_intervals, interval_bounds, relevance_batch

__all__ = [
    "ScenarioConfig",
    "LabelingPolicy",
    "Scenario",
    "generate_scenario",
    "generate_query_corpus",
    "statement_for_class",
    "generate_utilization_trace",
    "ingest_utilization_trace",
    "apply_allocation",
    "synthesize_training_set",
    "ova_allocate",
    "simulate_run",
    "save_scenario",
    "load_scenario",
]

SCENARIO_SCHEMA_VERSION = 1

log = logging.getLogger(__name__)

# child-stream tags so each scenario component has its own substream
_NODE_STREAM = 1
_QUERY_STREAM = 2
_TRAINING_STREAM = 3

_DISTRIBUTIONS = ("uniform", "gaussian")
_LOAD_MODES = ("trace_replay", "queue_dynamics")

# floor applied to measured decision times; protects throughput figures
# against clock resolution
MIN_DECISION_MS = 1e-3


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to regenerate a scenario deterministically."""

    n_nodes: int = 10
    dims: int = 5
    n_queries: int = 1000
    distribution: str = "uniform"
    deadline_max: float = 10.0
    z: float = 1.28
    alpha: float = 1.0
    seed: int = 0
    queue_capacity: int = 100
    digest_sample_size: int = 1000  # points sampled to estimate digest means/spreads
    digest_cardinality: int = 10_000_000  # reported dataset size (full stream count)
    data_window: float = 0.25  # half-width of each node's per-dimension data range
    gaussian_sd: float = 0.15
    load_speed_corr: float = 0.15  # capacity-proportional admission: fast nodes run hotter
    service_rate: float = 5.0
    load_mode: str = "trace_replay"
    trace_path: Optional[str] = None
    trace_column: Optional[str] = None

    def __post_init__(self) -> None:
        if min(self.n_nodes, self.dims, self.n_queries) < 1 or self.seed < 0:
            raise ConfigError("n_nodes, dims and n_queries must all be >= 1, and seed >= 0")
        if self.deadline_max <= 0:
            raise ConfigError("deadline_max must be positive")
        if self.distribution not in _DISTRIBUTIONS:
            raise ConfigError(f"distribution must be one of {_DISTRIBUTIONS}")
        if self.load_mode not in _LOAD_MODES:
            raise ConfigError(f"load_mode must be one of {_LOAD_MODES}")
        if not 0 < self.z < math.inf:
            raise ConfigError("z must be positive and finite")
        if self.alpha == 0:
            raise ConfigError("alpha must be non-zero")
        sizes = (self.queue_capacity, self.digest_sample_size, self.digest_cardinality)
        if not all(1 <= v <= INT64_MAX for v in sizes):
            raise ConfigError("queue_capacity, digest_sample_size and digest_cardinality must all be in [1, 2**63 - 1]")
        if not -1.0 < self.load_speed_corr < 1.0:
            raise ConfigError("load_speed_corr must be in (-1, 1)")
        if not (0 <= self.data_window < math.inf and 0 <= self.gaussian_sd < math.inf):
            raise ConfigError("data_window and gaussian_sd must be finite and >= 0")
        if not 0 <= self.service_rate < 2.0**63:  # a speed in [0, 1] times it floors to an int64 drain
            raise ConfigError("service_rate must be in [0, 2**63)")


@dataclass(frozen=True)
class LabelingPolicy:
    """Synthetic ground truth for training labels.

    A (query, node) context earns the allocate label when the node's data
    mismatch is at most ``max_relevance``, its load is at most ``max_load``
    and its speed is at least ``min_speed``.
    """

    max_relevance: float = 0.5
    max_load: float = 0.5
    min_speed: float = 0.5

    def __post_init__(self) -> None:
        for name in ("max_relevance", "max_load", "min_speed"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")

    def label(self, relevance, load, speed):
        return (
            (np.asarray(relevance) <= self.max_relevance)
            & (np.asarray(load) <= self.max_load)
            & (np.asarray(speed) >= self.min_speed)
        ).astype(int)


@dataclass
class Scenario:
    """Generated nodes, query stream and per-epoch load series.

    There is at least one node; every node digest and query constraint has
    the config's ``dims`` dimensions; the load series is an (epochs >= 1, N)
    array of values in [0, 1], one column per node, replayed cyclically.
    """

    config: ScenarioConfig
    nodes: list[NodeState]
    queries: list[Query]
    load_series: np.ndarray

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("a scenario needs at least one node")
        dims = {node.digest.dims for node in self.nodes} | {q.constraints.dims for q in self.queries}
        if dims != {self.config.dims}:
            raise ValueError(f"dimension counts {sorted(dims)} differ from config dims {self.config.dims}")
        series = self.load_series
        if series.ndim != 2 or series.shape[0] < 1 or series.shape[1] != len(self.nodes):
            raise ValueError(f"load_series has shape {series.shape}, expected (epochs >= 1, {len(self.nodes)})")
        if not ((series >= 0.0) & (series <= 1.0)).all():  # NaN fails both
            raise ValueError("load_series values must be finite and in [0, 1]")

    def loads_at(self, epoch: int) -> np.ndarray:
        return self.load_series[epoch % self.load_series.shape[0]]


# ---------------------------------------------------------------------------
# statement templates
#
# One skeleton per complexity class; statements within a class differ only in
# one numeric literal, so token similarity is high inside a class and low
# across classes.  Class rank grows with the work implied by the statement
# (sort < scan < join is deliberate: the sort skeleton touches one indexed
# column, the scan filters three, the join multiplies two tables).
# ---------------------------------------------------------------------------

_TEMPLATES = {
    0: (
        "SELECT account, balance FROM ledger WHERE balance <= {n} "
        "ORDER BY balance DESC LIMIT 50"
    ),
    1: (
        "SELECT name, price, volume FROM stocks WHERE price >= {n} "
        "AND volume >= 250 AND region = 'euro'"
    ),
    2: (
        "SELECT orders.id, users.name FROM orders JOIN users ON orders.uid = users.id "
        "WHERE orders.total >= {n} AND users.city = 'rome'"
    ),
}


def statement_for_class(class_id: int, literal: int) -> str:
    """Instantiate the statement skeleton of one complexity class."""
    try:
        template = _TEMPLATES[class_id]
    except KeyError:
        raise ValueError(f"no statement template for class id {class_id}") from None
    return template.format(n=literal)


def generate_query_corpus(per_class: int = 30) -> TrainingQueryCorpus:
    """Labelled statement corpus: ``per_class`` entries per class, each with a
    distinct numeric literal (101, 102, ...)."""
    if per_class < 1:
        raise ValueError("per_class must be >= 1")
    entries = []
    for class_id in sorted(_TEMPLATES):
        for j in range(per_class):
            entries.append((statement_for_class(class_id, 101 + j), class_id))
    return TrainingQueryCorpus(entries, DEFAULT_CLASSES)


# ---------------------------------------------------------------------------
# scenario generation
# ---------------------------------------------------------------------------


def _draw_centers(rng: np.random.Generator, cfg: ScenarioConfig, shape) -> np.ndarray:
    """Points on the unit interval: per-dimension data centers (nodes differ
    so relevance can discriminate) and query constraint bounds."""
    if cfg.distribution == "uniform":
        return rng.uniform(0.0, 1.0, size=shape)
    return np.clip(rng.normal(0.5, cfg.gaussian_sd, size=shape), 0.0, 1.0)


_SAMPLE_BLOCK_BYTES = 512 * 1024  # sample bytes drawn at once; the draws do not depend on it


def _sample_moments(
    rng: np.random.Generator, cfg: ScenarioConfig, centers: np.ndarray, sample_size: int
) -> tuple:
    """Mean and spread of ``sample_size`` points drawn around each of
    ``centers``: bit for bit what ``np.mean``/``np.std`` give on the full
    (*centers.shape, sample_size) sample, from the same draws, but drawn and
    reduced in place a block of leading rows at a time.  A block holds as
    many rows as fit in ``_SAMPLE_BLOCK_BYTES`` (at least one), so it stays
    in cache whatever a row's size: 65 rows of one 1,000-point dimension,
    6 of ten.  The stream fills the rows in order and each row reduces on
    its own, so the block size moves no byte."""
    means, spreads = np.empty(centers.shape), np.empty(centers.shape)
    row_bytes = math.prod(centers.shape[1:]) * sample_size * 8
    rows_per_block = max(1, _SAMPLE_BLOCK_BYTES // row_bytes)
    block = np.empty(centers[:rows_per_block].shape + (sample_size,))
    for start in range(0, len(centers), rows_per_block):
        rows = slice(start, start + rows_per_block)
        c = centers[rows, ..., None]
        s = block[: len(c)]
        if cfg.distribution == "uniform":
            lo = np.maximum(c - cfg.data_window, 0.0)
            hi = np.minimum(c + cfg.data_window, 1.0)
            rng.random(out=s)
            s *= hi - lo
            s += lo
        else:
            rng.standard_normal(out=s)
            s *= cfg.gaussian_sd
            s += c
            np.clip(s, 0.0, 1.0, out=s)
        mean = s.sum(axis=-1, keepdims=True) / sample_size
        s -= mean
        s *= s
        means[rows], spreads[rows] = mean[..., 0], np.sqrt(s.sum(axis=-1) / sample_size)
    return means, spreads


def _speed_from_latent(latent: np.ndarray, cfg: ScenarioConfig) -> np.ndarray:
    # raw speeds live on (0, 10]; normalising by the maximum keeps s in (0, 1]
    if cfg.distribution == "uniform":
        from scipy.special import ndtr  # imported here, so a process that only decides never loads SciPy

        raw = 10.0 * ndtr(latent)
    else:
        raw = np.clip(5.0 + 10.0 * cfg.gaussian_sd * latent, 0.0, 10.0)
    return np.clip(raw, 1e-9, 10.0) / 10.0


def _load_from_latent(latent: np.ndarray, cfg: ScenarioConfig) -> np.ndarray:
    if cfg.distribution == "uniform":
        from scipy.special import ndtr

        return ndtr(latent)
    return np.clip(0.5 + cfg.gaussian_sd * latent, 0.0, 1.0)


def _coupled_load_latent(
    rng: np.random.Generator, cfg: ScenarioConfig, speed_latent, size
) -> np.ndarray:
    """Latent load draws tied to the node's speed latent.

    The correlation models capacity-proportional admission (fast nodes are
    handed proportionally more work); marginals stay exactly as configured.
    """
    rho = cfg.load_speed_corr
    return rho * speed_latent + np.sqrt(1.0 - rho * rho) * rng.normal(size=size)


def _build_node(cfg: ScenarioConfig, index: int) -> tuple:
    """One node from its own child stream, so node i is identical for any N."""
    rng = np.random.default_rng([cfg.seed, _NODE_STREAM, index])
    centers = _draw_centers(rng, cfg, cfg.dims)
    means, spreads = _sample_moments(rng, cfg, centers, cfg.digest_sample_size)
    digest = DatasetDigest(means=means, spreads=spreads, cardinality=cfg.digest_cardinality)
    speed_latent = rng.normal()
    speed = float(_speed_from_latent(np.asarray(speed_latent), cfg))
    if cfg.trace_path is not None:  # the trace replaces the stream's last draw
        return digest, speed, None
    loads = _load_from_latent(_coupled_load_latent(rng, cfg, speed_latent, cfg.n_queries), cfg)
    return digest, speed, loads


def _generate_queries(cfg: ScenarioConfig) -> list:
    rng = np.random.default_rng([cfg.seed, _QUERY_STREAM])
    class_ids = rng.integers(0, len(_TEMPLATES), size=cfg.n_queries)
    literals = rng.integers(1000, 10000, size=cfg.n_queries)
    deadlines = rng.uniform(0.0, cfg.deadline_max, size=cfg.n_queries)
    bounds = np.sort(_draw_centers(rng, cfg, (cfg.n_queries, cfg.dims, 2)), axis=2)
    queries = []
    for t in range(cfg.n_queries):
        queries.append(
            Query(
                id=f"q{t:05d}",
                statement=statement_for_class(int(class_ids[t]), int(literals[t])),
                constraints=QueryConstraints(bounds[t]),
                deadline=float(deadlines[t]),
            )
        )
    return queries


def generate_scenario(cfg: ScenarioConfig) -> Scenario:
    """Build nodes, query stream and load series for one configuration.

    Queries draw from a stream keyed only by the seed, so configurations
    differing in N share the same workload.  With a trace configured the
    load series comes from the file (round-robin across nodes) instead of
    the synthetic distribution.
    """
    if cfg.trace_path is not None:
        load_series = ingest_utilization_trace(cfg.trace_path, cfg.n_nodes, cfg.trace_column)
    else:
        load_series = np.empty((cfg.n_queries, cfg.n_nodes))

    nodes = []
    for i in range(cfg.n_nodes):
        digest, speed, loads = _build_node(cfg, i)
        if cfg.trace_path is None:
            load_series[:, i] = loads
        nodes.append(
            NodeState(
                node_id=i,
                load=float(load_series[0, i]),
                speed=speed,
                digest=digest,
                queue_capacity=cfg.queue_capacity,
            )
        )
    return Scenario(config=cfg, nodes=nodes, queries=_generate_queries(cfg), load_series=load_series)


# ---------------------------------------------------------------------------
# scenario dump / reload
# ---------------------------------------------------------------------------


def save_scenario(path, scenario: Scenario) -> None:
    """Dump a scenario to versioned JSON; byte-identical for a fixed seed."""
    payload = {"schema_version": SCENARIO_SCHEMA_VERSION, **write_record(scenario)}
    Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def load_scenario(path) -> Scenario:
    """Read a scenario dumped by ``save_scenario``: a JSON object holding
    ``schema_version`` 1 and the ``Scenario`` fields, read whole by
    ``core.read_config`` (``Scenario``, ``NodeState`` and ``Query`` state
    their rules).  Anything that does not describe a valid scenario, such
    as one whose run could not build its node table, raises ``DataError``
    naming the file and, for a field, its dotted key."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise DataError(f"cannot read scenario {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataError(f"scenario {path} must be a JSON object, got {type(payload).__name__}")
    version = payload.pop("schema_version", None)
    if version != SCENARIO_SCHEMA_VERSION:
        raise DataError(f"scenario {path} has schema version {version}, expected {SCENARIO_SCHEMA_VERSION}")
    try:
        scenario = read_config(Scenario, payload, error=DataError)
        _node_table(scenario.nodes, scenario.config.z)
    except DataError as exc:
        raise DataError(f"scenario {path}: {exc}") from exc
    return scenario


# ---------------------------------------------------------------------------
# utilisation traces
# ---------------------------------------------------------------------------


def generate_utilization_trace(path, rows: int = 60000, seed: int = 0) -> Path:
    """Write a synthetic processor-utilisation trace (``step,cpu_util``, percent).

    The series drifts slowly (long sine period plus a tight AR(1) wiggle),
    mimicking how real utilisation evolves; consecutive samples stay close,
    so a round-robin split leaves nodes with similar loads at each epoch.
    """
    rng = np.random.default_rng([seed, 0x7ACE])
    t = np.arange(rows)
    base = 35.0 + 18.0 * np.sin(2.0 * np.pi * t / 45000.0)
    shocks = rng.normal(0.0, 0.3, size=rows).tolist()
    noise = np.fromiter(itertools.accumulate(shocks, lambda state, shock: 0.9 * state + shock), float, rows)
    values = np.clip(base + noise, 1.0, 99.0)
    path = Path(path)
    np.savetxt(
        path, np.stack([t, values], axis=1), fmt=["%d", "%.4f"], delimiter=",",
        header="step,cpu_util", comments="", newline="\r\n",
    )
    return path


def ingest_utilization_trace(path, n_nodes: int, column: Optional[str] = None) -> np.ndarray:
    """Read a delimited UTF-8 utilisation trace as an (epochs, n_nodes) load series.

    The file needs a header; ``column`` picks the utilisation column by name
    (default: the second column).  Every value must be a finite number.
    Values above 1 anywhere mark the column as percentages and the whole
    series is divided by 100 (the choice is logged); everything is clamped
    to [0, 1].  The values fill the series row by row, so node i gets
    values[i::n_nodes]; the last len(values) % n_nodes are dropped, and a
    run that outlasts the series replays it cyclically.
    """
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    values = []
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: trace file is empty") from None
            header = [h.strip() for h in header]
            if column is None:
                if len(header) < 2:
                    raise DataError(f"{path}: no utilisation column found in header {header}")
                col_idx = 1
            else:
                try:
                    col_idx = header.index(column)
                except ValueError:
                    raise DataError(f"{path}: missing column {column!r} in header {header}") from None
            for lineno, row in enumerate(reader, start=2):
                if not "".join(row).strip():
                    continue
                if col_idx >= len(row):
                    raise DataError(f"{path}:{lineno}: row has no column {col_idx + 1}")
                try:
                    value = float(row[col_idx])
                except ValueError:
                    value = math.nan  # reported below, with the non-finite values
                if not math.isfinite(value):
                    raise DataError(
                        f"{path}:{lineno}: utilisation value {row[col_idx]!r} is not a finite number"
                    )
                values.append(value)
    except OSError as exc:
        raise DataError(f"cannot open trace {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    if len(values) < n_nodes:
        raise DataError(f"{path}: trace has {len(values)} rows, need at least {n_nodes}")
    arr = np.asarray(values, dtype=float)
    if np.any(arr < 0):
        raise DataError(f"{path}: utilisation values must be non-negative")
    percent = arr.max() > 1.0
    log.info(
        "trace %s: column %d read as %s (max value %g)",
        path, col_idx + 1, "percent" if percent else "fractions", arr.max(),
    )
    if percent:
        arr = arr / 100.0
    epochs = len(arr) // n_nodes
    return np.clip(arr[: epochs * n_nodes], 0.0, 1.0).reshape(epochs, n_nodes)


# ---------------------------------------------------------------------------
# queue dynamics
# ---------------------------------------------------------------------------


def apply_allocation(occupancy, capacity, drain, selected) -> np.ndarray:
    """Advance one epoch of queue dynamics in place; returns the new loads.

    ``occupancy``, ``capacity`` and ``drain`` hold one integer per node.
    Each position in ``selected`` takes one arrival unless its queue is full
    (the arrival is dropped), then every node completes min(drain,
    occupancy) queued queries.  Loads are occupancy / capacity.
    """
    picked = np.asarray(selected, dtype=np.intp)
    occupancy[picked] += occupancy[picked] < capacity[picked]
    occupancy -= np.minimum(drain, occupancy)
    return occupancy / capacity


# ---------------------------------------------------------------------------
# training data synthesis
# ---------------------------------------------------------------------------

_TRAINING_CHUNK = 512  # rows per chunk of centers, then samples; fixed so draws are stable


def synthesize_training_set(
    scenario: Scenario, policy: LabelingPolicy, size: int
) -> LabeledDataset:
    """Labelled context vectors drawn from the scenario's generative law.

    Each row pairs a fresh query constraint vector with a fresh virtual
    node (digest, load, speed) drawn exactly the way the scenario draws
    them, so the feature distribution matches what the allocator sees at
    decision time.  Complexity and deadline carry no label signal and are
    sampled uniformly over their ranges.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    cfg = scenario.config
    rng = np.random.default_rng([cfg.seed, _TRAINING_STREAM])

    speed_latents = rng.normal(size=size)
    speeds = _speed_from_latent(speed_latents, cfg)
    if cfg.trace_path is not None:
        loads = rng.choice(scenario.load_series.ravel(), size=size)
    else:
        loads = _load_from_latent(_coupled_load_latent(rng, cfg, speed_latents, size), cfg)
    complexity = np.clip(rng.uniform(0.0, 1.0, size=size), 1e-9, 1.0)
    deadlines = rng.uniform(0.0, cfg.deadline_max, size=size)
    bounds = np.sort(_draw_centers(rng, cfg, (size, cfg.dims, 2)), axis=2)

    relevances = np.empty(size)
    for start in range(0, size, _TRAINING_CHUNK):
        stop = min(start + _TRAINING_CHUNK, size)
        count = stop - start
        centers = _draw_centers(rng, cfg, (count, cfg.dims))
        means, spreads = _sample_moments(rng, cfg, centers, cfg.digest_sample_size)
        ci = confidence_intervals(means, spreads, cfg.digest_cardinality, cfg.z)
        relevances[start:stop] = relevance_batch(bounds[start:stop], ci, cfg.alpha)

    labels = policy.label(relevances, loads, speeds)
    positives = int(labels.sum())
    if positives == 0 or positives == size:
        ratio = positives / size
        raise DataError(
            f"labeling policy {policy} produced a single-class training set "
            f"(positive ratio {ratio:.4f}); adjust the policy thresholds"
        )
    log.info(
        "training set: %d rows, %.1f%% positive (policy %s)",
        size,
        100.0 * positives / size,
        policy,
    )
    features = context_matrix(
        size, complexity=complexity, deadline=deadlines, relevance=relevances, load=loads, speed=speeds
    )
    return LabeledDataset(features, labels)


# ---------------------------------------------------------------------------
# the decision path and the simulation loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _NodeTable:
    """Per-node arrays a run reads on every decision, in node order.
    ``bounds`` holds the confidence intervals as C-contiguous (L, N) lower
    bounds, upper bounds and widths plus whether every width is > 0."""

    ids: np.ndarray
    speeds: np.ndarray
    bounds: IntervalBounds
    capacity: np.ndarray  # queue capacities, int64


def _node_table(nodes: Sequence[NodeState], z: float) -> _NodeTable:
    """The run's node table; ``DataError`` for a repeated node id or a
    confidence interval that is not finite."""
    if len(nodes) == 0:
        raise ValueError("node list must be non-empty")
    ids, counts = np.unique([node.node_id for node in nodes], return_counts=True)
    if counts.max() > 1:
        raise DataError(f"node id {ids[counts.argmax()]} repeats")
    with np.errstate(over="ignore"):
        intervals = confidence_intervals(
            np.stack([node.digest.means for node in nodes]),
            np.stack([node.digest.spreads for node in nodes]),
            np.array([node.digest.cardinality for node in nodes]),
            z,
        )
    if not np.isfinite(intervals).all():
        raise DataError(f"a node's confidence interval overflows at z={z}")
    bounds = interval_bounds(intervals)
    return _NodeTable(
        ids=np.array([node.node_id for node in nodes], dtype=int),
        speeds=np.array([node.speed for node in nodes], dtype=float),
        bounds=IntervalBounds(*(np.ascontiguousarray(a) for a in bounds[:3]), bounds.all_positive),
        capacity=np.array([node.queue_capacity for node in nodes], dtype=np.int64),
    )


def _check_k(k: int, n: int) -> None:
    if not 1 <= k <= n:
        raise ConfigError(f"k must be in [1, {n}], got {k}")


def _decide_query(
    query: Query,
    table: _NodeTable,
    loads: np.ndarray,
    bundle: EnsembleBundle,
    scheme: FusionScheme,
    classifier,
    alpha: float,
    k: int,
) -> tuple:
    """One decision: classify, fill the (N, 5) context matrix, vote.

    Relevance reads, against the table's (L, N) bounds, the operand
    ``QueryConstraints`` built when it checked the query's intervals;
    neither operand is built here.  Returns ``(fused, picks,
    decision_ms)``, the picks as positions into ``table``.  The decision
    time covers all of it, from classification to the vote, floored at
    ``MIN_DECISION_MS``.  The cyclic garbage collector waits meanwhile, as
    under ``timeit``: a collection owed to earlier allocations would land
    in this decision's time.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        vector, _ = classifier.classify_statement(query.statement)
        features = context_matrix(
            len(table.ids), complexity=complexity_scalar(vector), deadline=query.deadline,
            relevance=relevance_batch(query.constraints, table.bounds, alpha), load=loads, speed=table.speeds,
        )
        fused, picks = decide_from_features(features, table.ids, loads, bundle, scheme, k)
        return fused, picks, max((time.perf_counter() - started) * 1000.0, MIN_DECISION_MS)
    finally:
        if collecting:
            gc.enable()


def ova_allocate(
    query: Query,
    nodes: Sequence[NodeState],
    bundle: EnsembleBundle,
    scheme: FusionScheme,
    fcp,
    *,
    alpha: float = 1.0,
    z: float = 1.28,
    k: int = 1,
) -> AllocationDecision:
    """Allocate one query across a node snapshot at the nodes' current loads.

    Makes the same decision ``simulate_run`` makes for the same loads.
    ``scheme`` is a ``FusionScheme`` or its name.
    """
    table = _node_table(nodes, z)
    _check_k(k, len(nodes))
    loads = np.array([node.load for node in nodes], dtype=float)
    fused, picks, decision_ms = _decide_query(
        query, table, loads, bundle, FusionScheme.parse(scheme), fcp, alpha, k
    )
    return AllocationDecision(fused, tuple(table.ids[picks].tolist()), decision_ms)


def simulate_run(
    scenario: Scenario,
    bundle: EnsembleBundle,
    scheme: FusionScheme,
    classifier: ComplexityClassifier,
    k: int = 1,
) -> RunResult:
    """Allocate every query of the scenario in order and record the metrics.

    Under trace replay the per-epoch loads come from the load series; under
    queue dynamics they evolve from arrivals and completions in an occupancy
    array that starts empty, and the scenario's nodes are left untouched.
    Deterministic apart from the measured decision times.
    """
    cfg = scenario.config
    scheme = FusionScheme.parse(scheme)
    table = _node_table(scenario.nodes, cfg.z)
    _check_k(k, len(table.ids))
    replay = cfg.load_mode == "trace_replay"
    occupancy = np.zeros(len(table.ids), dtype=np.int64)
    drain = np.floor(table.speeds * cfg.service_rate).astype(np.int64)
    loads = occupancy / table.capacity
    speed_max = float(table.speeds.max())

    result = RunResult.for_cell(scheme, cfg)
    for t, query in enumerate(scenario.queries):
        if replay:
            loads = scenario.loads_at(t)
        _, picks, decision_ms = _decide_query(query, table, loads, bundle, scheme, classifier, cfg.alpha, k)
        chosen = picks[0]
        result.records.append(
            QueryRecord(
                query_index=t,
                decision_ms=decision_ms,
                selected_node=int(table.ids[chosen]),
                load_selected=float(loads[chosen]),
                speed_selected=float(table.speeds[chosen]),
                load_min=float(loads.min()),
                speed_max=speed_max,
            )
        )
        if not replay:
            loads = apply_allocation(occupancy, table.capacity, drain, picks)
    return result
