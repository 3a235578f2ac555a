"""Experiment sweep engine shared by the CLI and the verification suite.

A sweep is a list of cells (scenario config + fusion scheme).  Training
depends on neither the node count nor the query count, so each cell trains
from its config with both set to 1, and cells whose configs agree once both
are set to 1 share one synthesized training set and one trained ensemble
triple; this keeps N-sweeps comparable and cheap.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
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
from .learners.ensembles import _stratified_split, model_shape
from .metrics import RunResult, emit_run, emit_summary, load_run
from .simulator import (
    LabelingPolicy,
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
    stacking_bases: tuple[BaseLearnerSpec, ...] = (
        BaseLearnerSpec(kind="cart_tree", max_depth=3, min_leaf=5),
        BaseLearnerSpec(kind="random_tree", max_depth=3, min_leaf=5, feature_subset_size=3),
        BaseLearnerSpec(kind="gaussian_nb"),
        BaseLearnerSpec(kind="logistic", learning_rate=0.5, epochs=300),
    )
    stacking_meta: BaseLearnerSpec = BaseLearnerSpec(kind="logistic", learning_rate=0.5, epochs=300)
    stacking_split: float = 0.5
    training_size: int = 4000

    def __post_init__(self) -> None:
        if min(self.boost_rounds, self.bagging_bags, self.training_size) < 1:
            raise ValueError("boost_rounds, bagging_bags and training_size must all be >= 1")
        if len(self.stacking_bases) < 2 or not 0 < self.stacking_split < 1:
            raise ValueError("stacking needs at least two stacking_bases and a stacking_split in (0, 1)")


@dataclass(frozen=True)
class BenchCell:
    """One sweep cell: a scenario configuration under one fusion scheme."""

    config: ScenarioConfig
    scheme: FusionScheme

    def label(self) -> str:
        return RunResult.for_cell(self.scheme, self.config).label()


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
    """Train on a stratified subset and report held-out accuracy and model
    shape (``model_shape``) per ensemble.

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
        report[f"shape_{name}"] = model_shape(model)
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
) -> tuple:
    """Run every cell; returns (results, failures).

    Failures are recorded as (cell label, message) and do not stop the
    sweep.  With ``out_dir`` set, each finished cell writes its run file,
    then its config record (scenario config, scheme, policy, learner setup,
    complexity params, corpus entries and the sha256 of a trace cell's trace
    file), and ``summary.csv`` is written once at the end.  With ``resume``
    as well, a cell is loaded back instead of re-run when its record equals
    the current one and its file holds one row per query, which makes
    interrupted sweeps restartable.
    A cell whose config equals the previous run cell's (``grid_cells`` puts
    the schemes innermost) reuses that cell's scenario; ``simulate_run``
    leaves a scenario as it found it.
    """
    corpus = corpus or generate_query_corpus()
    classifier = ComplexityClassifier(corpus, fcp_params)
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    shared = dict(policy=asdict(policy), setup=asdict(setup), fcp=asdict(fcp_params), corpus=corpus.entries)
    bundles: dict = {}
    trace_digests: dict = {}  # trace path -> sha256 of its bytes, None if unreadable
    scenario = None  # the last cell's, reused while the config repeats
    results: list = []
    failures: list = []

    def say(msg: str) -> None:
        if progress is not None:
            progress(msg)

    for cell in cells:
        label = cell.label()
        if out is not None:
            path = out / f"run_{label}.csv"
            record_path = path.with_suffix(".json")
            record = dict(shared, config=asdict(cell.config), scheme=cell.scheme)
            trace = cell.config.trace_path
            if trace is not None:
                if trace not in trace_digests:
                    trace_digests[trace] = _file_digest(trace)
                record["trace_sha256"] = trace_digests[trace]
            record = json.dumps(record, sort_keys=True, indent=2)
            if resume and path.exists():
                try:
                    if not record_path.exists():
                        raise DataError(f"no config record {record_path.name}")
                    if record_path.read_text(encoding="utf-8") != record:
                        raise DataError(f"{record_path.name} records another config")
                    results.append(load_run(path, cell.config.n_queries))
                    say(f"cell {label}: already complete, skipped")
                    continue
                except (DataError, UnicodeDecodeError) as exc:  # an undecodable record is stale too
                    say(f"cell {label}: {exc}; running again")
        try:
            key = replace(cell.config, n_nodes=1, n_queries=1)
            if key not in bundles:
                data = synthesize_training_set(generate_scenario(key), policy, setup.training_size)
                bundles[key] = train_bundle(data, setup, seed=cell.config.seed)
            if scenario is None or scenario.config != cell.config:
                scenario = None  # only one scenario is ever alive
                scenario = generate_scenario(cell.config)
            result = simulate_run(scenario, bundles[key], cell.scheme, classifier)
            results.append(result)
            if out is not None:
                record_path.unlink(missing_ok=True)  # a run file is never paired with a stale record
                emit_run(result, out)
                record_path.write_text(record, encoding="utf-8")
            say(
                f"cell {label}: mean load gap {result.load_gaps().mean():.4f}, "
                f"throughput {result.throughput():.4f}/ms"
            )
        except Exception as exc:  # record and keep sweeping
            failures.append((label, f"{type(exc).__name__}: {exc}"))
            say(f"cell {label}: FAILED ({exc})")
    if out is not None and results:
        emit_summary(results, out)
    return results, failures


def _file_digest(path) -> Optional[str]:
    """sha256 of a file's bytes; None when it cannot be read, and the cell
    that needs it then fails where it reads the file."""
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError:
        return None
