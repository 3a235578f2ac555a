"""Command-line entry point: corpus/scenario/training generation, ensemble
training, single allocations and full benchmark sweeps.

Exit codes: 0 on success; 2 (``ConfigError``) for a config file or option
that cannot be read or parsed, has an unknown key or a value of the wrong
type or out of range; 3 (``DataError``) for a missing, unreadable or
malformed trace, training set, scenario, model file or query, a
single-class training set, or a file the system will not read or write
(``OSError``, such as an output path under a regular file); 4 for any other
failure, failed sweep cells too.
"""

from __future__ import annotations

import csv
import functools
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import click
import numpy as np
import yaml

from .allocator import EnsembleBundle, FusionScheme
from .bench import LearnerSetup, grid_cells, run_cells, train_bundle_with_report
from .complexity import ComplexityClassifier, ComplexityParams, load_corpus, save_corpus
from .core import CONTEXT_FEATURES, Query, read_config, write_record
from .errors import ConfigError, DataError
from .learners import LabeledDataset, load_bundle, save_bundle
from .simulator import (
    LabelingPolicy,
    ScenarioConfig,
    generate_query_corpus,
    generate_scenario,
    generate_utilization_trace,
    load_scenario,
    ova_allocate,
    save_scenario,
    synthesize_training_set,
)

CONFIG_SCHEMA_VERSION = 1


class _ConfigLoader(yaml.SafeLoader):
    """Safe YAML loading that also reads YAML 1.2 exponent floats
    (``1e-5``, ``1.0e5``), which YAML 1.1 leaves as strings."""


_ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)


@dataclass(frozen=True)
class BenchGrid:
    n_values: tuple[int, ...] = (10, 50, 100, 500)
    seeds: tuple[int, ...] = (0, 1, 2)
    distributions: tuple[str, ...] = ("uniform", "gaussian")
    trace_rows: int = 60000

    def __post_init__(self) -> None:
        for key in ("n_values", "seeds", "distributions"):
            values = getattr(self, key)
            if not values or len(set(values)) != len(values):
                raise ConfigError(f"{key} must be non-empty without repeats, got {list(values)}")
        for d in self.distributions:
            if d not in ("uniform", "gaussian", "trace"):
                raise ConfigError(f"unknown bench distribution {d!r}")
        if min(self.n_values) < 1 or min(self.seeds) < 0 or self.trace_rows < 1:
            raise ConfigError("n_values and trace_rows must be >= 1, and seeds >= 0")


@dataclass(frozen=True)
class AppConfig:
    scenario: ScenarioConfig = ScenarioConfig()
    policy: LabelingPolicy = LabelingPolicy(max_relevance=0.5, max_load=0.5, min_speed=0.0)
    fcp: ComplexityParams = ComplexityParams()
    learners: LearnerSetup = LearnerSetup()
    bench: BenchGrid = BenchGrid()
    fusion: FusionScheme = FusionScheme.CS
    corpus_per_class: int = 30
    training_holdout: float = 0.25
    output_dir: str = "out"

    def __post_init__(self) -> None:
        if self.corpus_per_class < 1:
            raise ConfigError(f"corpus_per_class must be >= 1, got {self.corpus_per_class}")
        if not 0 < self.training_holdout < 1:
            raise ConfigError(f"training_holdout must be in (0, 1), got {self.training_holdout}")


def load_config(path: Optional[str], overrides: Optional[dict] = None) -> AppConfig:
    """Read the config file, merge ``overrides`` over it and check it once.

    The file is YAML, or JSON if its name ends in ``.json``; no file, or an
    empty one, means all defaults.  Its root maps an optional
    ``schema_version`` (1) and ``AppConfig`` fields to values; ``overrides``
    has the same shape, and its values other than None replace the file's
    key by key.  The result is read by ``core.read_config``: a missing key
    takes the section class's default, and an unknown key, a wrong type or a
    value out of range raises ``ConfigError`` naming the dotted key.
    """
    raw = {}
    if path is not None:
        parse = json.loads if Path(path).suffix == ".json" else functools.partial(yaml.load, Loader=_ConfigLoader)
        try:
            raw = parse(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except (yaml.YAMLError, ValueError, RecursionError) as exc:  # RecursionError: nested too deep
            raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    raw = {} if raw is None else raw
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be a mapping, got {type(raw).__name__}")
    version = raw.pop("schema_version", CONFIG_SCHEMA_VERSION)
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"config schema version {version} unsupported (expected {CONFIG_SCHEMA_VERSION})")
    for key, value in (overrides or {}).items():
        if isinstance(value, dict):
            if isinstance(raw.setdefault(key, {}), dict):
                raw[key].update((k, v) for k, v in value.items() if v is not None)
        elif value is not None:
            raw[key] = value
    return read_config(AppConfig, raw)


_COMMON = [
    click.option("--config", "config_path", type=click.Path(), default=None, help="YAML config file."),
    click.option("--seed", type=int, default=None, help="Override the scenario seed."),
    click.option("--n", type=int, default=None, help="Override the node count."),
    click.option("--trace", type=click.Path(), default=None, help="Utilisation trace file."),
    click.option("--trace-column", type=str, default=None, help="Trace column name."),
    click.option("--out", type=click.Path(), default=None, help="Output directory."),
]


def _command(fn):
    """Add the common options to a command; ``fn`` takes the config they
    select and the command's own options.  ``ConfigError`` exits 2,
    ``DataError`` and ``OSError`` 3 and any other failure 4."""

    @functools.wraps(fn)
    def wrapper(config_path, seed, n, trace, trace_column, out, **options):
        scenario = {"seed": seed, "n_nodes": n, "trace_path": trace, "trace_column": trace_column}
        try:
            return fn(load_config(config_path, {"scenario": scenario, "output_dir": out}), **options)
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(2)
        except (DataError, OSError) as exc:  # an OSError's message names its path
            click.echo(f"data error: {exc}", err=True)
            sys.exit(3)
        except click.exceptions.Exit:
            raise
        except Exception as exc:
            click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
            sys.exit(4)

    for opt in reversed(_COMMON):
        wrapper = opt(wrapper)
    return wrapper


@click.group()
def main() -> None:
    """Allocate analytics queries to simulated edge nodes."""


_TRAINING_COLUMNS = CONTEXT_FEATURES + ("label",)


def _write_training_csv(path: Path, data: LabeledDataset) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_TRAINING_COLUMNS)
        for row, label in zip(data.features, data.labels):
            writer.writerow([f"{v:.12f}" for v in row] + [int(label)])


def _read_training_csv(path: Path) -> LabeledDataset:
    rows = []
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or tuple(header) != _TRAINING_COLUMNS:
                raise DataError(f"{path}: unexpected training set header {header}")
            for row in reader:
                if not row:
                    continue
                try:
                    values = [float(v) for v in row]
                except ValueError as exc:
                    raise DataError(f"{path}, line {reader.line_num}: {exc}") from None
                if len(values) != len(_TRAINING_COLUMNS) or not np.isfinite(values).all() or values[-1] not in (0.0, 1.0):
                    raise DataError(
                        f"{path}, line {reader.line_num}: need {len(CONTEXT_FEATURES)} finite features"
                        f" and a 0/1 label, got {row}"
                    )
                rows.append(values)
    except OSError as exc:
        raise DataError(f"cannot open training set {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    if not rows:
        raise DataError(f"{path}: training set is empty")
    table = np.asarray(rows)
    return LabeledDataset(table[:, :-1], table[:, -1])


def _write_default_trace(cfg: AppConfig) -> Path:
    """Write the trace ``gen`` and ``bench`` use when none is configured, from
    seed 0 whatever the scenario seed, so a sweep does not depend on which ran."""
    return generate_utilization_trace(Path(cfg.output_dir) / "trace.csv", rows=cfg.bench.trace_rows, seed=0)


@main.command("gen")
@_command
def cmd_gen(cfg: AppConfig) -> None:
    """Generate the corpus, a scenario dump and a labelled training set."""
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    corpus = generate_query_corpus(per_class=cfg.corpus_per_class)
    save_corpus(out_dir / "corpus.tsv", corpus)

    if cfg.scenario.trace_path is None:
        _write_default_trace(cfg)

    scenario = generate_scenario(cfg.scenario)
    save_scenario(out_dir / "scenario.json", scenario)

    data = synthesize_training_set(scenario, cfg.policy, cfg.learners.training_size)
    _write_training_csv(out_dir / "training.csv", data)

    share = data.positive_fraction()
    click.echo(f"corpus: {len(corpus)} statements -> {out_dir / 'corpus.tsv'}")
    click.echo(f"scenario: {cfg.scenario.n_nodes} nodes, {cfg.scenario.n_queries} queries -> {out_dir / 'scenario.json'}")
    click.echo(
        f"training set: {len(data)} rows, class balance {share:.1%} allocate / "
        f"{1 - share:.1%} reject -> {out_dir / 'training.csv'}"
    )


@main.command("train")
@_command
def cmd_train(cfg: AppConfig) -> None:
    """Train the three ensembles on the generated training set."""
    out_dir = Path(cfg.output_dir)
    data = _read_training_csv(out_dir / "training.csv")
    if np.unique(data.labels).size < 2:
        raise DataError(
            "training set contains a single class; regenerate it with different "
            "labeling policy thresholds (policy section of the config)"
        )
    bundle, report = train_bundle_with_report(
        data, cfg.learners, seed=cfg.scenario.seed, holdout=cfg.training_holdout
    )
    save_bundle(
        out_dir / "models.json",
        {"boost": bundle.boost, "bagging": bundle.bagging, "stacking": bundle.stacking},
        metadata={"seed": cfg.scenario.seed, "training_rows": len(data)},
    )
    (out_dir / "training_report.json").write_text(
        json.dumps(report, sort_keys=True, indent=2), encoding="utf-8"
    )
    click.echo(f"models -> {out_dir / 'models.json'}")
    for name in ("boost", "bagging", "stacking"):
        click.echo(
            f"  {name}: held-out accuracy {report[f'accuracy_{name}']:.4f} "
            f"(majority baseline {report['majority_baseline']:.4f})"
        )


def _parse_query_json(spec: str) -> Query:
    text = spec
    if not spec.lstrip().startswith("{"):
        try:
            text = Path(spec).read_text(encoding="utf-8")
        except (OSError, ValueError) as exc:
            raise DataError(f"cannot read query file {spec}: {exc}") from exc
    try:
        return read_config(Query, json.loads(text), "query", DataError)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise DataError(f"invalid query JSON: {exc}") from exc
    except DataError as exc:
        raise DataError(f"invalid query: {exc}") from None


@main.command("allocate")
@_command
@click.option("--scheme", type=click.Choice(["cs", "mvs"]), default=None, help="Fusion scheme.")
@click.option("--k", type=int, default=1, help="How many nodes to select.")
@click.option("--query-index", type=int, default=0, help="Index into the scenario's query stream.")
@click.option("--query-json", type=str, default=None, help="Inline JSON or a path to a query spec: an object with "
              "'statement', 'constraints' ([[min, max], ...]) and optionally an 'id' string and a 'deadline'; "
              "an unknown key is refused.")
@click.option(
    "--format", "fmt", type=click.Choice(["human", "machine"]), default="human",
    help="Output format.",
)
def cmd_allocate(cfg: AppConfig, scheme, k, query_index, query_json, fmt) -> None:
    """Allocate one query against the stored scenario using trained models."""
    out_dir = Path(cfg.output_dir)
    scenario_path = out_dir / "scenario.json"
    models_path = out_dir / "models.json"
    for path in (scenario_path, models_path):
        if not path.exists():
            raise DataError(f"missing {path}; run 'edgealloc gen' and 'edgealloc train' first")
    scenario = load_scenario(scenario_path)
    models, _meta = load_bundle(models_path, n_features=len(CONTEXT_FEATURES))
    try:
        bundle = EnsembleBundle(models["boost"], models["bagging"], models["stacking"])
    except KeyError as exc:
        raise DataError(f"model file {models_path} is missing ensemble {exc}") from exc
    corpus_path = out_dir / "corpus.tsv"
    corpus = load_corpus(corpus_path) if corpus_path.exists() else generate_query_corpus(cfg.corpus_per_class)
    classifier = ComplexityClassifier(corpus, cfg.fcp)

    if query_json is not None:
        query = _parse_query_json(query_json)
        if query.constraints.dims != scenario.config.dims:
            raise DataError(
                f"query has {query.constraints.dims} constraint dimensions, "
                f"the scenario has {scenario.config.dims}"
            )
    else:
        if not 0 <= query_index < len(scenario.queries):
            raise DataError(
                f"query index {query_index} out of range (scenario has {len(scenario.queries)} queries)"
            )
        query = scenario.queries[query_index]

    fusion = FusionScheme.parse(scheme) if scheme is not None else cfg.fusion
    decision = ova_allocate(
        query,
        scenario.nodes,
        bundle,
        fusion,
        classifier,
        alpha=cfg.scenario.alpha,
        z=cfg.scenario.z,
        k=k,
    )
    chosen = list(decision.selected)
    if fmt == "machine":
        click.echo(
            json.dumps(
                {
                    "query": query.id,
                    "scheme": fusion.value,
                    "selected": chosen,
                    "votes": decision.votes.tolist(),
                    "fused_labels": decision.fused_labels.tolist(),
                    "decided_by": decision.decided_by,
                    "decision_ms": decision.decision_ms,
                },
                sort_keys=True,
            )
        )
    else:
        click.echo(f"query {query.id} under scheme {fusion.value}")
        click.echo(f"selected node(s): {chosen}")
        click.echo(f"votes: {decision.votes.tolist()}")
        click.echo(f"fused labels: {decision.fused_labels.tolist()}")
        click.echo(f"decided by: {decision.decided_by}")
        click.echo(f"decision time: {decision.decision_ms:.3f} ms")


@main.command("bench")
@_command
@click.option("--resume/--no-resume", default=True, help="Skip cells whose output already exists.")
def cmd_bench(cfg: AppConfig, resume) -> None:
    """Run the full experiment sweep defined by the config's bench grid."""
    out_dir = Path(cfg.output_dir) / "bench"
    out_dir.mkdir(parents=True, exist_ok=True)

    trace_path = cfg.scenario.trace_path
    if "trace" in cfg.bench.distributions and trace_path is None:
        if cfg.bench.trace_rows < max(cfg.bench.n_values):
            raise ConfigError(
                f"bench.trace_rows is {cfg.bench.trace_rows}, but a trace cell with "
                f"{max(cfg.bench.n_values)} nodes needs at least that many rows"
            )
        trace_path = str(_write_default_trace(cfg))

    (out_dir / "config.json").write_text(json.dumps(write_record(cfg), sort_keys=True, indent=2), encoding="utf-8")
    cells = grid_cells(
        cfg.scenario,
        schemes=("cs", "mvs"),
        distributions=cfg.bench.distributions,
        n_values=cfg.bench.n_values,
        seeds=cfg.bench.seeds,
        trace_path=trace_path,
    )
    results, failures = run_cells(
        cells,
        cfg.policy,
        setup=cfg.learners,
        fcp_params=cfg.fcp,
        corpus=generate_query_corpus(cfg.corpus_per_class),
        out_dir=out_dir,
        resume=resume,
        progress=click.echo,
    )
    click.echo(f"{len(results)} cells complete -> {out_dir}")
    if failures:
        failure_path = out_dir / "failures.csv"
        with open(failure_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["cell", "error"])
            writer.writerows(failures)
        click.echo(f"{len(failures)} cells failed -> {failure_path}", err=True)
        sys.exit(4)


if __name__ == "__main__":
    main()
