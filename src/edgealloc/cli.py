"""Command-line entry point: corpus/scenario/training generation, ensemble
training, single allocations and full benchmark sweeps.

Exit codes: 0 on success, 2 for configuration problems, 3 for data problems
(unreadable traces, degenerate training sets), 4 for runtime failures.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

import click
import numpy as np
import yaml

from .allocator import EnsembleBundle, FusionScheme
from .bench import BenchCell, LearnerSetup, grid_cells, run_cells, train_bundle_with_report
from .complexity import ComplexityClassifier, ComplexityParams, load_corpus, save_corpus
from .core import Query, QueryConstraints
from .errors import ConfigError, DataError
from .learners import LabeledDataset, load_bundle, save_bundle
from .metrics import summarise_runs
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


@dataclass(frozen=True)
class BenchGrid:
    n_values: tuple = (10, 50, 100, 500)
    seeds: tuple = (0, 1, 2)
    distributions: tuple = ("uniform", "gaussian")
    trace_rows: int = 60000

    def __post_init__(self) -> None:
        if not self.n_values or not self.seeds or not self.distributions:
            raise ConfigError("bench grid needs n_values, seeds and distributions")
        for d in self.distributions:
            if d not in ("uniform", "gaussian", "trace"):
                raise ConfigError(f"unknown bench distribution {d!r}")


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


def _build_section(cls, data: dict, name: str):
    if not isinstance(data, dict):
        raise ConfigError(f"config section {name!r} must be a mapping")
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown keys in config section {name!r}: {sorted(unknown)}")
    try:
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in data.items()})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config section {name!r}: {exc}") from exc


def load_config(path: Optional[str]) -> AppConfig:
    """Read the YAML config file; missing sections fall back to defaults."""
    if path is None:
        return AppConfig()
    try:
        raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if raw is None:
        return AppConfig()
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be a mapping, got {type(raw).__name__}")
    version = raw.pop("schema_version", CONFIG_SCHEMA_VERSION)
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"config schema version {version} unsupported (expected {CONFIG_SCHEMA_VERSION})")
    known_sections = {
        "scenario", "policy", "fcp", "learners", "bench",
        "fusion", "corpus_per_class", "training_holdout", "output_dir",
    }
    unknown = set(raw) - known_sections
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    kwargs = {}
    if "scenario" in raw:
        kwargs["scenario"] = _build_section(ScenarioConfig, raw["scenario"], "scenario")
    if "policy" in raw:
        kwargs["policy"] = _build_section(LabelingPolicy, raw["policy"], "policy")
    if "fcp" in raw:
        kwargs["fcp"] = _build_section(ComplexityParams, raw["fcp"], "fcp")
    if "learners" in raw:
        data = dict(raw["learners"])
        for key in ("boost_spec", "bagging_spec", "stacking_meta"):
            if key in data:
                from .learners import BaseLearnerSpec

                data[key] = _build_section(BaseLearnerSpec, data[key], key)
        if "stacking_bases" in data:
            from .learners import BaseLearnerSpec

            data["stacking_bases"] = tuple(
                _build_section(BaseLearnerSpec, b, "stacking_bases") for b in data["stacking_bases"]
            )
        kwargs["learners"] = _build_section(LearnerSetup, data, "learners")
    if "bench" in raw:
        kwargs["bench"] = _build_section(BenchGrid, raw["bench"], "bench")
    if "fusion" in raw:
        kwargs["fusion"] = FusionScheme.parse(raw["fusion"])
    for key in ("corpus_per_class", "training_holdout", "output_dir"):
        if key in raw:
            kwargs[key] = raw[key]
    try:
        return AppConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


def _exit_codes(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(2)
        except DataError as exc:
            click.echo(f"data error: {exc}", err=True)
            sys.exit(3)
        except click.exceptions.Exit:
            raise
        except Exception as exc:
            click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
            sys.exit(4)

    return wrapper


def _apply_overrides(cfg: AppConfig, seed, n, trace, trace_column, out) -> AppConfig:
    scenario = cfg.scenario
    if seed is not None:
        scenario = replace(scenario, seed=seed)
    if n is not None:
        scenario = replace(scenario, n_nodes=n)
    if trace is not None:
        scenario = replace(scenario, trace_path=str(trace))
    if trace_column is not None:
        scenario = replace(scenario, trace_column=trace_column)
    cfg = replace(cfg, scenario=scenario)
    if out is not None:
        cfg = replace(cfg, output_dir=str(out))
    return cfg


_COMMON = [
    click.option("--config", "config_path", type=click.Path(), default=None, help="YAML config file."),
    click.option("--seed", type=int, default=None, help="Override the scenario seed."),
    click.option("--n", type=int, default=None, help="Override the node count."),
    click.option("--trace", type=click.Path(), default=None, help="Utilisation trace file."),
    click.option("--trace-column", type=str, default=None, help="Trace column name."),
    click.option("--out", type=click.Path(), default=None, help="Output directory."),
]


def _common(fn):
    for opt in reversed(_COMMON):
        fn = opt(fn)
    return fn


@click.group()
def main() -> None:
    """Allocate analytics queries to simulated edge nodes."""


_TRAINING_COLUMNS = ("complexity", "deadline", "relevance", "load", "speed", "label")


def _write_training_csv(path: Path, data: LabeledDataset) -> None:
    import csv as _csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = _csv.writer(fh)
        writer.writerow(_TRAINING_COLUMNS)
        for row, label in zip(data.features, data.labels):
            writer.writerow([f"{v:.12f}" for v in row] + [int(label)])


def _read_training_csv(path: Path) -> LabeledDataset:
    import csv as _csv

    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot open training set {path}: {exc}") from exc
    with fh:
        reader = _csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != _TRAINING_COLUMNS:
            raise DataError(f"{path}: unexpected training set header {header}")
        feats, labels = [], []
        for row in reader:
            if not row:
                continue
            feats.append([float(v) for v in row[:5]])
            labels.append(int(row[5]))
    if not feats:
        raise DataError(f"{path}: training set is empty")
    return LabeledDataset(np.asarray(feats), np.asarray(labels))


@main.command("gen")
@_common
@_exit_codes
def cmd_gen(config_path, seed, n, trace, trace_column, out) -> None:
    """Generate the corpus, a scenario dump and a labelled training set."""
    cfg = _apply_overrides(load_config(config_path), seed, n, trace, trace_column, out)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    corpus = generate_query_corpus(per_class=cfg.corpus_per_class)
    save_corpus(out_dir / "corpus.tsv", corpus)

    trace_path = out_dir / "trace.csv"
    if cfg.scenario.trace_path is None:
        generate_utilization_trace(trace_path, rows=cfg.bench.trace_rows, seed=cfg.scenario.seed)

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
@_common
@_exit_codes
def cmd_train(config_path, seed, n, trace, trace_column, out) -> None:
    """Train the three ensembles on the generated training set."""
    cfg = _apply_overrides(load_config(config_path), seed, n, trace, trace_column, out)
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


def _parse_query_json(spec: str, fallback_id: str = "adhoc") -> Query:
    text = spec
    if not spec.lstrip().startswith("{"):
        try:
            text = Path(spec).read_text(encoding="utf-8")
        except OSError as exc:
            raise DataError(f"cannot read query file {spec}: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"invalid query JSON: {exc}") from exc
    try:
        return Query(
            id=payload.get("id", fallback_id),
            statement=payload["statement"],
            constraints=QueryConstraints(np.asarray(payload["constraints"], dtype=float)),
            deadline=float(payload.get("deadline", 0.0)),
        )
    except KeyError as exc:
        raise DataError(f"query JSON is missing field {exc}") from exc


@main.command("allocate")
@_common
@click.option("--scheme", type=click.Choice(["cs", "mvs"]), default=None, help="Fusion scheme.")
@click.option("--k", type=int, default=1, help="How many nodes to select.")
@click.option("--query-index", type=int, default=0, help="Index into the scenario's query stream.")
@click.option("--query-json", type=str, default=None, help="Inline JSON or a path to a query spec.")
@click.option(
    "--format", "fmt", type=click.Choice(["human", "machine"]), default="human",
    help="Output format.",
)
@_exit_codes
def cmd_allocate(config_path, seed, n, trace, trace_column, out, scheme, k, query_index, query_json, fmt) -> None:
    """Allocate one query against the stored scenario using trained models."""
    cfg = _apply_overrides(load_config(config_path), seed, n, trace, trace_column, out)
    out_dir = Path(cfg.output_dir)
    scenario_path = out_dir / "scenario.json"
    models_path = out_dir / "models.json"
    for path in (scenario_path, models_path):
        if not path.exists():
            raise DataError(f"missing {path}; run 'edgealloc gen' and 'edgealloc train' first")
    scenario = load_scenario(scenario_path)
    models, _meta = load_bundle(models_path)
    try:
        bundle = EnsembleBundle(models["boost"], models["bagging"], models["stacking"])
    except KeyError as exc:
        raise DataError(f"model file {models_path} is missing ensemble {exc}") from exc
    corpus_path = out_dir / "corpus.tsv"
    corpus = load_corpus(corpus_path) if corpus_path.exists() else generate_query_corpus(cfg.corpus_per_class)
    classifier = ComplexityClassifier(corpus, cfg.fcp)

    if query_json is not None:
        query = _parse_query_json(query_json)
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
        click.echo(f"decision time: {decision.decision_ms:.3f} ms")


@main.command("bench")
@_common
@click.option("--resume/--no-resume", default=True, help="Skip cells whose output already exists.")
@_exit_codes
def cmd_bench(config_path, seed, n, trace, trace_column, out, resume) -> None:
    """Run the full experiment sweep defined by the config's bench grid."""
    cfg = _apply_overrides(load_config(config_path), seed, n, trace, trace_column, out)
    out_dir = Path(cfg.output_dir) / "bench"
    out_dir.mkdir(parents=True, exist_ok=True)

    trace_path = cfg.scenario.trace_path
    if "trace" in cfg.bench.distributions and trace_path is None:
        trace_path = str(Path(cfg.output_dir) / "trace.csv")
        if not Path(trace_path).exists():
            generate_utilization_trace(trace_path, rows=cfg.bench.trace_rows, seed=0)

    (out_dir / "config.json").write_text(
        json.dumps(
            {
                "scenario": asdict(cfg.scenario),
                "policy": asdict(cfg.policy),
                "fcp": asdict(cfg.fcp),
                "bench": asdict(cfg.bench),
            },
            sort_keys=True,
            indent=2,
        ),
        encoding="utf-8",
    )
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
        out_dir=out_dir,
        resume=resume,
        progress=click.echo,
    )
    click.echo(f"{len(results)} cells complete -> {out_dir}")
    if failures:
        failure_path = out_dir / "failures.csv"
        with open(failure_path, "w", newline="", encoding="utf-8") as fh:
            import csv as _csv

            writer = _csv.writer(fh)
            writer.writerow(["cell", "error"])
            writer.writerows(failures)
        click.echo(f"{len(failures)} cells failed -> {failure_path}", err=True)
        sys.exit(4)


if __name__ == "__main__":
    main()
