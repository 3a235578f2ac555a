"""Experiment sweep engine shared by the CLI and the verification suite.

A sweep is a list of cells (scenario config + fusion scheme).  Training
depends on neither the node count nor the query count, so each cell trains
from its config with both set to 1, and cells whose configs agree once both
are set to 1 share one synthesized training set and one trained ensemble
triple; this keeps N-sweeps comparable and cheap.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .allocator import EnsembleBundle, FusionScheme
from .complexity import ComplexityClassifier, ComplexityParams, TrainingQueryCorpus
from .errors import DataError
from .learners import (
    BaseLearnerSpec,
    LabeledDataset,
    train_adaboost,
    train_bagging,
    train_stacking,
)
from .learners.ensembles import _stratified_split
from .metrics import QueryRecord, RunResult, emit_results
from .simulator import (
    LabelingPolicy,
    Scenario,
    ScenarioConfig,
    generate_query_corpus,
    generate_scenario,
    simulate_run,
    synthesize_training_set,
)

__all__ = [
    "LearnerSetup",
    "BenchCell",
    "train_bundle",
    "train_bundle_with_report",
    "run_cells",
    "grid_cells",
]


@dataclass(frozen=True)
class LearnerSetup:
    """Hyperparameters of the three ensembles."""

    boost_rounds: int = 20
    boost_spec: BaseLearnerSpec = BaseLearnerSpec(kind="cart_tree", max_depth=2, min_leaf=5)
    bagging_bags: int = 20
    bagging_spec: BaseLearnerSpec = BaseLearnerSpec(kind="cart_tree", max_depth=4, min_leaf=5)
    stacking_bases: tuple = (
        BaseLearnerSpec(kind="cart_tree", max_depth=3, min_leaf=5),
        BaseLearnerSpec(kind="random_tree", max_depth=3, min_leaf=5, feature_subset_size=3),
        BaseLearnerSpec(kind="gaussian_nb"),
        BaseLearnerSpec(kind="logistic", learning_rate=0.5, epochs=300),
    )
    stacking_meta: BaseLearnerSpec = BaseLearnerSpec(kind="logistic", learning_rate=0.5, epochs=300)
    stacking_split: float = 0.5
    training_size: int = 4000


@dataclass(frozen=True)
class BenchCell:
    """One sweep cell: a scenario configuration under one fusion scheme."""

    config: ScenarioConfig
    scheme: FusionScheme

    def label(self) -> str:
        dist = self.config.distribution if self.config.trace_path is None else "trace"
        return (
            f"{FusionScheme.parse(self.scheme).value}_{dist}"
            f"_n{self.config.n_nodes}_seed{self.config.seed}"
        )


def train_bundle(data: LabeledDataset, setup: LearnerSetup, seed: int) -> EnsembleBundle:
    """Train the boosting / bagging / stacking triple on one training set."""
    return EnsembleBundle(
        boost=train_adaboost(data, setup.boost_rounds, setup.boost_spec, seed=seed * 3 + 1),
        bagging=train_bagging(data, setup.bagging_bags, setup.bagging_spec, seed=seed * 3 + 2),
        stacking=train_stacking(
            data,
            setup.stacking_bases,
            setup.stacking_meta,
            split_ratio=setup.stacking_split,
            seed=seed * 3 + 3,
        ),
    )


def train_bundle_with_report(
    data: LabeledDataset, setup: LearnerSetup, seed: int, holdout: float = 0.25
) -> tuple:
    """Train on a stratified subset and report held-out accuracy per ensemble.

    Returns (bundle, report); the bundle is the one evaluated in the report.
    """
    rng = np.random.default_rng([seed, 0x4E7D])
    train_idx, hold_idx = _stratified_split(data.labels, 1.0 - holdout, rng)
    train_part = data.subset(train_idx)
    hold_part = data.subset(hold_idx)
    bundle = train_bundle(train_part, setup, seed)
    majority = max(hold_part.positive_fraction(), 1.0 - hold_part.positive_fraction())
    report = {
        "rows_train": len(train_part),
        "rows_holdout": len(hold_part),
        "majority_baseline": majority,
    }
    for name, model in zip(("boost", "bagging", "stacking"), bundle.models()):
        pred = model.predict_batch(hold_part.features)
        report[f"accuracy_{name}"] = float((pred == hold_part.labels).mean())
    return bundle, report


def grid_cells(
    base: ScenarioConfig,
    schemes: Sequence,
    distributions: Sequence[str],
    n_values: Sequence[int],
    seeds: Sequence[int],
    trace_path: Optional[str] = None,
) -> list:
    """Cross product of schemes x distributions x node counts x seeds.

    The pseudo-distribution "trace" keeps the base distribution for
    everything except loads, which replay ``trace_path``.
    """
    cells = []
    for dist in distributions:
        for seed in seeds:
            for n in n_values:
                if dist == "trace":
                    if trace_path is None:
                        raise DataError("the 'trace' distribution needs a trace file")
                    cfg = replace(
                        base, distribution="uniform", trace_path=str(trace_path),
                        n_nodes=n, seed=seed,
                    )
                else:
                    cfg = replace(base, distribution=dist, trace_path=None, n_nodes=n, seed=seed)
                for scheme in schemes:
                    cells.append(BenchCell(config=cfg, scheme=FusionScheme.parse(scheme)))
    return cells


def run_cells(
    cells: Sequence[BenchCell],
    policy: LabelingPolicy,
    setup: LearnerSetup = LearnerSetup(),
    fcp_params: ComplexityParams = ComplexityParams(),
    corpus: Optional[TrainingQueryCorpus] = None,
    out_dir=None,
    resume: bool = False,
    progress: Optional[Callable[[str], None]] = None,
    k: int = 1,
) -> tuple:
    """Run every cell; returns (results, failures).

    Failures are recorded as (cell label, message) and do not stop the
    sweep.  With ``out_dir`` set, each finished cell is written immediately;
    with ``resume`` as well, cells whose file already exists are loaded back
    instead of re-run, which makes interrupted sweeps restartable.
    """
    corpus = corpus or generate_query_corpus()
    classifier = ComplexityClassifier(corpus, fcp_params)
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    bundles: dict = {}
    results: list = []
    failures: list = []

    def say(msg: str) -> None:
        if progress is not None:
            progress(msg)

    for cell in cells:
        label = cell.label()
        path = out / f"run_{label}.csv" if out is not None else None
        if resume and path is not None and path.exists():
            results.append(_load_run_csv(path))
            say(f"cell {label}: already complete, skipped")
            continue
        try:
            key = replace(cell.config, n_nodes=1, n_queries=1)
            if key not in bundles:
                data = synthesize_training_set(generate_scenario(key), policy, setup.training_size)
                bundles[key] = train_bundle(data, setup, seed=cell.config.seed)
            scenario = generate_scenario(cell.config)
            result = simulate_run(scenario, bundles[key], cell.scheme, classifier, k=k)
            result.meta["policy"] = (policy.max_relevance, policy.max_load, policy.min_speed)
            results.append(result)
            if out is not None:
                emit_results([result], out)
            say(
                f"cell {label}: mean load gap {result.load_gaps().mean():.4f}, "
                f"throughput {result.throughput():.4f}/ms"
            )
        except Exception as exc:  # record and keep sweeping
            failures.append((label, f"{type(exc).__name__}: {exc}"))
            say(f"cell {label}: FAILED ({exc})")
    if out is not None and results:
        emit_results(results, out)
    return results, failures


def _load_run_csv(path: Path) -> RunResult:
    """Rehydrate a RunResult from a previously written cell file."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    if not rows:
        raise DataError(f"{path}: empty run file")
    first = rows[0]
    result = RunResult(
        scheme=first["scheme"],
        distribution=first["distribution"],
        n_nodes=int(first["n_nodes"]),
        seed=int(first["seed"]),
    )
    for row in rows:
        result.records.append(
            QueryRecord(
                query_index=int(row["query_index"]),
                decision_ms=float(row["decision_ms"]),
                selected_node=int(row["selected_node"]),
                load_selected=float(row["load_selected"]),
                speed_selected=float(row["speed_selected"]),
                load_min=float(row["load_min"]),
                speed_max=float(row["speed_max"]),
            )
        )
    return result
