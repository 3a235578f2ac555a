"""The three workloads and the checks made on every round.

A round is one pass of a workload through the program: the sweep and the
large-N replay hand their cells to ``run_cells`` in one call, the way the
acceptance fixtures drive the program; queue feedback trains one bundle and
calls ``simulate_run`` once per query stream.  A run repeats identical
rounds until its time is up.  After each round, outside the timed section,
every decision is checked against the node state it saw, and a fixed sample
of decisions is recomputed by the scalar oracle.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from edgealloc import bench
from edgealloc.bench import LearnerSetup, grid_cells, run_cells
from edgealloc.complexity import ComplexityParams
from edgealloc.simulator import LabelingPolicy, Scenario, ScenarioConfig, generate_query_corpus

import oracle

# the acceptance grid's policy; speed carries no label signal
GRID_POLICY = LabelingPolicy(max_relevance=0.5, max_load=0.5, min_speed=0.0)
# the sensitivity grid's policy at alpha = 1
TRACE_POLICY = LabelingPolicy(max_relevance=0.6, max_load=0.5, min_speed=0.0)
# queue feedback keeps the default policy: only fast nodes are positive, so
# the picks concentrate and queues build on the nodes that drain slowly
QUEUE_POLICY = LabelingPolicy()

SIZES = {
    "full": {
        "sweep_queries": 250,
        "sweep_seeds": 2,
        "replay_nodes": 1000,
        "replay_queries": 1000,
        "queue_nodes": 100,
        "queue_queries": 1000,
        "queue_streams": 4,
        "trace_rows": 60000,
        "training_size": LearnerSetup().training_size,
        "oracle_per_run": 8,
    },
    "smoke": {
        "sweep_queries": 20,
        "sweep_seeds": 1,
        "replay_nodes": 40,
        "replay_queries": 20,
        "queue_nodes": 20,
        "queue_queries": 40,
        "queue_streams": 2,
        "trace_rows": 2000,
        "training_size": 600,
        "oracle_per_run": 4,
    },
}

WORKLOADS = ("sweep-small-n", "replay-large-n", "queue-feedback")

# every replay seed reads the same trace file, as the sensitivity fixture does;
# the seed draws the nodes, the queries and the training set
TRACE_SEED = 0

# queue-feedback serves every query stream from one fixed fleet: the load gap
# under queue dynamics hangs on which nodes drain, so a fleet drawn per seed
# would make the gap a property of the fleet rather than of the picks
FLEET_SEED = 0


class CellsWorkload:
    """Cells run through ``run_cells``, as the acceptance fixtures do."""

    def __init__(self, name, cells, policy, setup, oracle_per_run, info):
        self.name = name
        self.cells = cells
        self.policy = policy
        self.setup = setup
        self.oracle_per_run = oracle_per_run
        self.info = info
        self.planned = sum(c.config.n_queries for c in cells)

    def run_round(self):
        """One pass through the program; returns [(label, error)] of failed runs."""
        _results, failures = run_cells(self.cells, self.policy, setup=self.setup)
        return failures


class QueueWorkload:
    """Query streams served one after another by a fixed fleet under queue
    dynamics, with one bundle trained per pass."""

    name = "queue-feedback"

    def __init__(self, seed, s, setup):
        self.fleet_cfg = ScenarioConfig(
            n_nodes=s["queue_nodes"],
            n_queries=s["queue_queries"],
            dims=5,
            distribution="gaussian",
            seed=FLEET_SEED,
            load_mode="queue_dynamics",
            service_rate=1.5,
            queue_capacity=20,
        )
        self.seed = seed
        self.setup = setup
        self.stream_seeds = [s["queue_streams"] * seed + i for i in range(s["queue_streams"])]
        self.oracle_per_run = 2 * s["oracle_per_run"]
        self.planned = s["queue_queries"] * len(self.stream_seeds)
        self.info = {
            "fleet_seed": FLEET_SEED,
            "training_seed": seed,
            "stream_seeds": self.stream_seeds,
            "queries_per_stream": s["queue_queries"],
            "service_rate": self.fleet_cfg.service_rate,
            "queue_capacity": self.fleet_cfg.queue_capacity,
        }

    def run_round(self):
        # called through edgealloc.bench, where run_cells finds the same
        # functions, so one set of wrappers times every workload
        classifier = bench.ComplexityClassifier(generate_query_corpus())
        fleet = bench.generate_scenario(self.fleet_cfg)
        train_cfg = replace(self.fleet_cfg, seed=self.seed, n_nodes=1, n_queries=1)
        data = bench.synthesize_training_set(
            bench.generate_scenario(train_cfg), QUEUE_POLICY, self.setup.training_size
        )
        bundle = bench.train_bundle(data, self.setup, seed=self.seed)
        failures = []
        for qs in self.stream_seeds:
            cfg = replace(self.fleet_cfg, seed=qs)
            try:
                queries = bench.generate_scenario(replace(cfg, n_nodes=1)).queries
                scenario = Scenario(
                    config=cfg, nodes=fleet.nodes, queries=queries, load_series=fleet.load_series
                )
                bench.simulate_run(scenario, bundle, "mvs", classifier, k=1)
            except Exception as exc:  # record and keep going, as run_cells does
                failures.append((f"stream{qs}", f"{type(exc).__name__}: {exc}"))
        return failures


def make_workload(name: str, seed: int, size: str, trace_path=None):
    """Inputs of one workload, made from ``seed`` alone."""
    s = SIZES[size]
    setup = LearnerSetup(training_size=s["training_size"])
    if name == "sweep-small-n":
        seeds = [s["sweep_seeds"] * seed + i for i in range(s["sweep_seeds"])]
        base = ScenarioConfig(n_queries=s["sweep_queries"], dims=1)
        cells = grid_cells(base, ["cs", "mvs"], ["uniform", "gaussian"], (10, 50), seeds)
        info = {"cells": [c.label() for c in cells], "queries_per_cell": s["sweep_queries"]}
        return CellsWorkload(name, cells, GRID_POLICY, setup, s["oracle_per_run"], info)
    if name == "replay-large-n":
        base = ScenarioConfig(n_queries=s["replay_queries"], dims=10, alpha=1.0)
        cells = grid_cells(
            base, ["cs"], ["trace"], (s["replay_nodes"],), [seed], trace_path=str(trace_path)
        )
        info = {
            "cells": [c.label() for c in cells],
            "queries_per_cell": s["replay_queries"],
            "dims": 10,
            "trace_rows": s["trace_rows"],
            "trace_seed": TRACE_SEED,
        }
        return CellsWorkload(name, cells, TRACE_POLICY, setup, s["oracle_per_run"], info)
    if name == "queue-feedback":
        return QueueWorkload(seed, s, setup)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


class Checker:
    """Checks the runs of one round against properties and the oracle."""

    def __init__(self):
        corpus = generate_query_corpus()
        self.oracle = oracle.DecisionOracle(corpus.entries, ComplexityParams(), len(corpus.classes))

    def check_run(self, scenario, bundle, scheme, result, per_run: int):
        """Return (decisions checked, decisions failed, oracle samples) for one run."""
        cfg = scenario.config
        nodes = scenario.nodes
        speeds = [n.speed for n in nodes]
        pos_of = {n.node_id: i for i, n in enumerate(nodes)}
        records = result.records
        if cfg.load_mode == "queue_dynamics":
            series = oracle.queue_loads(
                nodes, [r.selected_node for r in records], cfg.queue_capacity, cfg.service_rate
            )
            loads_at = series.__getitem__
        else:
            loads_at = lambda t: oracle.replay_loads(scenario.load_series, t)  # noqa: E731
        bad = set()
        for t, rec in enumerate(records):
            if rec.query_index != t or not oracle.record_matches(rec, loads_at(t), speeds, pos_of):
                bad.add(t)
        stride = max(1, len(records) // per_run)
        sampled = range(0, len(records), stride)
        models = [m.to_dict() for m in bundle.models()]
        scheme = getattr(scheme, "value", scheme)
        for t in sampled:
            picked = self.oracle.decide(
                scenario.queries[t], nodes, loads_at(t), speeds, models, scheme, cfg.z, cfg.alpha
            )
            if picked != records[t].selected_node:
                bad.add(t)
        missing = len(scenario.queries) - len(records)
        return len(scenario.queries), len(bad) + missing, len(sampled)


def load_gap_trend(results) -> dict:
    """Mean uniform load gap at each N, per scheme (acceptance criterion 2)."""
    by_key = {}
    for r in results:
        if r.distribution == "uniform":
            by_key.setdefault((r.scheme, r.n_nodes), []).append(float(r.load_gaps().mean()))
    return {f"{scheme}_n{n}": float(np.mean(v)) for (scheme, n), v in sorted(by_key.items())}
