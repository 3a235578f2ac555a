import csv
import json
import math
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from edgealloc import bench
from edgealloc.allocator import FusionScheme
from edgealloc.cli import AppConfig, BenchGrid, _parse_query_json, load_config, main
from edgealloc.core import DatasetDigest, NodeState, Query, QueryConstraints
from edgealloc.errors import ConfigError, DataError
from edgealloc.learners import load_bundle, model_from_dict, save_bundle
from edgealloc.simulator import (
    Scenario,
    ScenarioConfig,
    generate_scenario,
    load_scenario,
    save_scenario,
    synthesize_training_set,
    _node_table,
)


@pytest.fixture
def runner():
    return CliRunner()


def config_mapping(out_dir: Path, **overrides) -> dict:
    config = {
        "schema_version": 1,
        "output_dir": str(out_dir),
        "scenario": {
            "n_nodes": 4,
            "dims": 1,
            "n_queries": 20,
            "seed": 5,
        },
        "policy": {"max_relevance": 0.5, "max_load": 0.5, "min_speed": 0.0},
        "learners": {
            "boost_rounds": 5,
            "bagging_bags": 5,
            "training_size": 400,
        },
        "bench": {"n_values": [3, 5], "seeds": [0], "distributions": ["uniform"], "trace_rows": 500},
    }
    config.update(overrides)
    return config


def write_config(path: Path, out_dir: Path, **overrides) -> Path:
    path.write_text(yaml.safe_dump(config_mapping(out_dir, **overrides)), encoding="utf-8")
    return path


def gen_and_train(runner, tmp_path, out_name="out"):
    out_dir = tmp_path / out_name
    config = write_config(tmp_path / "config.yaml", out_dir)
    assert runner.invoke(main, ["gen", "--config", str(config)]).exit_code == 0
    assert runner.invoke(main, ["train", "--config", str(config)]).exit_code == 0
    return config, out_dir


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def test_gen_creates_all_artifacts(runner, tmp_path):
    out_dir = tmp_path / "out"
    config = write_config(tmp_path / "config.yaml", out_dir)
    result = runner.invoke(main, ["gen", "--config", str(config)])
    assert result.exit_code == 0, result.output
    for name in ("corpus.tsv", "scenario.json", "training.csv", "trace.csv"):
        assert (out_dir / name).exists()
    assert "class balance" in result.output


def test_gen_is_byte_deterministic(runner, tmp_path):
    c1 = write_config(tmp_path / "c1.yaml", tmp_path / "a")
    c2 = write_config(tmp_path / "c2.yaml", tmp_path / "b")
    assert runner.invoke(main, ["gen", "--config", str(c1)]).exit_code == 0
    assert runner.invoke(main, ["gen", "--config", str(c2)]).exit_code == 0
    assert (tmp_path / "a" / "scenario.json").read_bytes() == (
        tmp_path / "b" / "scenario.json"
    ).read_bytes()
    assert (tmp_path / "a" / "training.csv").read_bytes() == (
        tmp_path / "b" / "training.csv"
    ).read_bytes()


def test_bench_runs_do_not_depend_on_whether_gen_ran_first(runner, tmp_path):
    def runs(out_name, gen_seed):
        out_dir = tmp_path / out_name
        config = write_config(
            tmp_path / f"{out_name}.yaml",
            out_dir,
            scenario={"n_nodes": 4, "dims": 1, "n_queries": 10, "seed": 5},
            learners={"boost_rounds": 2, "bagging_bags": 2, "training_size": 300},
            bench={"n_values": [3], "seeds": [0], "distributions": ["trace"], "trace_rows": 500},
        )
        if gen_seed is not None:
            assert runner.invoke(main, ["gen", "--config", str(config), "--seed", str(gen_seed)]).exit_code == 0
        result = runner.invoke(main, ["bench", "--config", str(config)])
        assert result.exit_code == 0, result.output
        tables = {}
        for path in sorted((out_dir / "bench").glob("run_*.csv")):
            with open(path, newline="", encoding="utf-8") as fh:
                tables[path.name] = [{k: v for k, v in row.items() if k != "decision_ms"} for row in csv.DictReader(fh)]
        return tables

    alone = runs("alone", None)
    assert len(alone) == 2 and alone == runs("after_gen", 4)


def test_gen_with_corrupt_config_exits_2_without_files(runner, tmp_path):
    out_dir = tmp_path / "out"
    config = write_config(tmp_path / "config.yaml", out_dir)
    config.write_text(config.read_text().replace("n_nodes: 4", "n_nodes: 0"), encoding="utf-8")
    result = runner.invoke(main, ["gen", "--config", str(config)])
    assert result.exit_code == 2
    assert not out_dir.exists()


# deeper than the interpreter's recursion limit
DEEP_JSON = "[" * 100_000


@pytest.mark.parametrize("name", ["config.json", "config.yaml"])
def test_a_config_nested_too_deep_exits_2(runner, tmp_path, name):
    config = tmp_path / name
    config.write_text(DEEP_JSON, encoding="utf-8")
    result = runner.invoke(main, ["gen", "--config", str(config)])
    assert result.exit_code == 2, result.output
    assert f"cannot parse config {config}" in result.output


def test_gen_with_unknown_key_exits_2(runner, tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text("scenario:\n  n_noodles: 4\n", encoding="utf-8")
    assert runner.invoke(main, ["gen", "--config", str(config)]).exit_code == 2


LEARNERS = config_mapping(Path("out"))["learners"]


@pytest.mark.parametrize(
    "command, overrides, key",
    [
        ("gen", {"fusion": "bogus"}, "fusion"),
        ("gen", {"corpus_per_class": 0}, "corpus_per_class"),
        ("gen", {"learners": [1, 2]}, "learners"),
        ("gen", {"output_dir": ["a"]}, "output_dir"),
        ("gen", {"scenario": {"n_nodes": 4, "dims": 1, "n_queries": 20, "seed": -1}}, "seed"),
        ("train", {"learners": dict(LEARNERS, boost_rounds=0)}, "boost_rounds"),
        ("train", {"learners": dict(LEARNERS, bagging_bags=0)}, "bagging_bags"),
        ("train", {"learners": dict(LEARNERS, stacking_bases=[{"kind": "logistic"}])}, "stacking_bases"),
        ("train", {"learners": dict(LEARNERS, stacking_split=1.0)}, "stacking_split"),
        ("train", {"training_holdout": 1.5}, "training_holdout"),
        ("bench", {"bench": {"n_values": 5}}, "bench.n_values"),
    ],
)
def test_an_ill_typed_or_out_of_range_config_value_exits_2_naming_the_key(runner, tmp_path, command, overrides, key):
    # gen and train run first on the good config, so a command that needs
    # their files fails on the bad value alone
    config, out_dir = gen_and_train(runner, tmp_path)
    write_config(config, out_dir, **overrides)
    result = runner.invoke(main, [command, "--config", str(config)])
    assert result.exit_code == 2, result.output
    assert "config error" in result.output and key in result.output


NUMERIC_FIELDS = [
    (section, f.name)
    for section, cls in (("scenario", ScenarioConfig), ("bench", BenchGrid))
    for f in fields(cls)
    if isinstance(f.default, (int, float)) or isinstance(f.default, tuple) and isinstance(f.default[0], int)
]
IN_RANGE = {("alpha", -1), ("seed", 0), ("load_speed_corr", 0), ("data_window", 0), ("gaussian_sd", 0),
            ("service_rate", 0), ("seeds", 0)}


@pytest.mark.parametrize("distribution", ["uniform", "gaussian"])
@pytest.mark.parametrize("value", [-1, 0])
@pytest.mark.parametrize("section, key", NUMERIC_FIELDS)
def test_gen_refuses_each_out_of_range_number_with_exit_2(runner, tmp_path, section, key, value, distribution):
    # every numeric scenario and bench field at -1 and at 0: a value in range
    # generates (or exits 3 on a single-class training set), any other exits 2
    # naming the key, never 4
    config = {"output_dir": str(tmp_path / "out"), "learners": {"training_size": 200}, "bench": {"trace_rows": 500},
              "scenario": {"n_nodes": 2, "n_queries": 2, "dims": 1, "distribution": distribution}}
    config[section][key] = [value] if isinstance(getattr(BenchGrid, key, None), tuple) else value
    (tmp_path / "config.yaml").write_text(yaml.safe_dump(config), encoding="utf-8")
    result = runner.invoke(main, ["gen", "--config", str(tmp_path / "config.yaml")])
    if (key, value) in IN_RANGE:
        assert result.exit_code in (0, 3), result.output
    else:
        assert result.exit_code == 2, result.output
        assert "config error" in result.output and key in result.output


@pytest.mark.parametrize("written, value", [("1e-5", 1e-5), ("1.0e5", 1.0e5), ("1.0e-5", 1.0e-5), ("2E+1", 20.0)])
def test_yaml_exponent_floats_read_as_floats(tmp_path, written, value):
    config = tmp_path / "config.yaml"
    config.write_text(f"fcp:\n  gamma: {written}\n", encoding="utf-8")
    assert load_config(str(config)).fcp.gamma == value


def test_a_quoted_exponent_float_stays_a_string_and_exits_2(runner, tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text('fcp:\n  gamma: "1e-5"\n', encoding="utf-8")
    result = runner.invoke(main, ["gen", "--config", str(config)])
    assert result.exit_code == 2, result.output
    assert "fcp.gamma" in result.output


def test_command_line_options_override_the_config_file(runner, tmp_path):
    config = write_config(tmp_path / "config.yaml", tmp_path / "out")
    other = tmp_path / "other"
    result = runner.invoke(main, ["gen", "--config", str(config), "--seed", "9", "--n", "3", "--out", str(other)])
    assert result.exit_code == 0, result.output
    saved = json.loads((other / "scenario.json").read_text(encoding="utf-8"))["config"]
    assert (saved["seed"], saved["n_nodes"], saved["dims"], saved["n_queries"]) == (9, 3, 1, 20)
    assert not (tmp_path / "out").exists()
    assert runner.invoke(main, ["gen", "--config", str(config), "--n", "0"]).exit_code == 2
    config.write_text("scenario: [1]\n", encoding="utf-8")  # an override does not hide a bad section
    result = runner.invoke(main, ["gen", "--config", str(config), "--seed", "1"])
    assert result.exit_code == 2 and "scenario must be a mapping" in result.output


def test_bench_records_the_whole_config_and_reads_it_back(runner, tmp_path):
    out_dir = tmp_path / "out"
    config = write_config(
        tmp_path / "config.yaml",
        out_dir,
        scenario={"n_nodes": 4, "dims": 1, "n_queries": 10, "seed": 5, "alpha": 3},  # an int for a float
        learners={"boost_rounds": 2, "bagging_bags": 2, "training_size": 300},
        bench={"n_values": [3], "seeds": [0], "distributions": ["uniform"], "trace_rows": 500},
        fcp={"gamma": 0.00001},  # JSON writes 1e-05
        fusion="MVS",
        corpus_per_class=5,
        training_holdout=0.3,
    )
    cfg = load_config(str(config))
    assert cfg.fusion is FusionScheme.MVS and cfg.scenario.alpha == 3.0 and cfg.corpus_per_class == 5
    result = runner.invoke(main, ["bench", "--config", str(config)])
    assert result.exit_code == 0, result.output
    assert load_config(str(out_dir / "bench" / "config.json")) == cfg
    assert load_config(None) == AppConfig()


def test_bench_scores_complexity_against_the_configured_corpus(runner, tmp_path, monkeypatch):
    sizes = []
    classifier = bench.ComplexityClassifier
    monkeypatch.setattr(bench, "ComplexityClassifier", lambda corpus, params: sizes.append(len(corpus)) or classifier(corpus, params))
    config = write_config(
        tmp_path / "config.yaml",
        tmp_path / "out",
        scenario={"n_nodes": 4, "dims": 1, "n_queries": 5, "seed": 5},
        bench={"n_values": [3], "seeds": [0], "distributions": ["uniform"], "trace_rows": 500},
        corpus_per_class=4,
    )
    result = runner.invoke(main, ["bench", "--config", str(config)])
    assert result.exit_code == 0, result.output
    assert sizes == [12]  # three classes of four statements


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_writes_models_and_report(runner, tmp_path):
    _, out_dir = gen_and_train(runner, tmp_path)
    assert (out_dir / "models.json").exists()
    report = json.loads((out_dir / "training_report.json").read_text())
    for name in ("boost", "bagging", "stacking"):
        assert report[f"accuracy_{name}"] >= report["majority_baseline"]


def test_training_report_records_model_shape(runner, tmp_path):
    _, out_dir = gen_and_train(runner, tmp_path)
    report = json.loads((out_dir / "training_report.json").read_text())
    models = json.loads((out_dir / "models.json").read_text())["models"]

    def depth(node):
        return 0 if "prob" in node else 1 + max(depth(node["left"]), depth(node["right"]))

    def cuts(node):
        return [] if "prob" in node else [(node["feature"], node["threshold"])] + cuts(node["left"]) + cuts(node["right"])

    for name, members in (("boost", "members"), ("bagging", "members"), ("stacking", "bases")):
        shape = report[f"shape_{name}"]
        records = models[name][members]
        assert shape["members"] == len(records) >= 1
        assert shape["max_tree_depth"] == max(depth(r["root"]) for r in records if "root" in r)
        # one cell per interval of every split feature's distinct thresholds
        distinct = {cut for r in records if "root" in r for cut in cuts(r["root"])}
        features = {f for f, _ in distinct}
        assert shape["table_cells"] == math.prod(1 + sum(g == f for g, _ in distinct) for f in features) > 1
    stacking = report["shape_stacking"]
    assert stacking["base_kinds"] == ["cart_tree", "random_tree", "gaussian_nb", "logistic"]
    meta = models["stacking"]["meta"]
    assert stacking["meta"]["type"] == "logistic"
    assert stacking["meta"]["weights"] == meta["weights"] and len(meta["weights"]) == 4
    assert stacking["meta"]["bias"] == meta["bias"]


def test_retrain_reproduces_model_file(runner, tmp_path):
    config, out_dir = gen_and_train(runner, tmp_path)
    first = (out_dir / "models.json").read_bytes()
    assert runner.invoke(main, ["train", "--config", str(config)]).exit_code == 0
    assert (out_dir / "models.json").read_bytes() == first


def test_train_single_class_data_exits_3_with_hint(runner, tmp_path):
    out_dir = tmp_path / "out"
    config = write_config(tmp_path / "config.yaml", out_dir)
    assert runner.invoke(main, ["gen", "--config", str(config)]).exit_code == 0
    rows = (out_dir / "training.csv").read_text().splitlines()
    header, body = rows[0], rows[1:]
    forced = [",".join(line.split(",")[:-1] + ["1"]) for line in body]
    (out_dir / "training.csv").write_text("\n".join([header] + forced) + "\n", encoding="utf-8")
    result = runner.invoke(main, ["train", "--config", str(config)])
    assert result.exit_code == 3
    assert "policy" in result.output


def test_train_without_gen_exits_3(runner, tmp_path):
    config = write_config(tmp_path / "config.yaml", tmp_path / "missing")
    assert runner.invoke(main, ["train", "--config", str(config)]).exit_code == 3


@pytest.mark.parametrize("command", ["gen", "bench"])
def test_an_output_dir_under_a_regular_file_exits_3_naming_it(runner, tmp_path, command):
    (tmp_path / "afile").write_text("not a directory", encoding="utf-8")
    config = write_config(tmp_path / "config.yaml", tmp_path / "out")
    out = tmp_path / "afile" / "sub"
    result = runner.invoke(main, [command, "--config", str(config), "--out", str(out)])
    assert result.exit_code == 3, result.output
    assert "data error" in result.output and str(out.parent) in result.output


def test_train_with_models_json_a_directory_exits_3_naming_it(runner, tmp_path):
    out_dir = tmp_path / "out"
    config = write_config(tmp_path / "config.yaml", out_dir)
    assert runner.invoke(main, ["gen", "--config", str(config)]).exit_code == 0
    (out_dir / "models.json").mkdir()
    result = runner.invoke(main, ["train", "--config", str(config)])
    assert result.exit_code == 3, result.output
    assert "data error" in result.output and "models.json" in result.output


@pytest.mark.parametrize(
    "bad_row, message",
    [
        ("0.1,0.2,0.3", "need 5 finite features and a 0/1 label"),
        ("0.1,0.2,0.3,0.4,0.5,1,7", "need 5 finite features and a 0/1 label"),
        ("0.1,abc,0.3,0.4,0.5,1", "could not convert"),
        ("0.1,0.2,nan,0.4,0.5,1", "need 5 finite features"),
        ("0.1,0.2,0.3,inf,0.5,0", "need 5 finite features"),
        ("0.1,0.2,0.3,0.4,0.5,2", "0/1 label"),
        ("0.1,0.2,0.3,0.4,0.5,yes", "could not convert"),
    ],
)
def test_train_on_a_malformed_training_row_exits_3_naming_the_line(runner, tmp_path, bad_row, message):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    config = write_config(tmp_path / "config.yaml", out_dir)
    rows = ["complexity,deadline,relevance,load,speed,label", "0.1,0.2,0.3,0.4,0.5,1", bad_row]
    (out_dir / "training.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    result = runner.invoke(main, ["train", "--config", str(config)])
    assert result.exit_code == 3, result.output
    assert "training.csv, line 3" in result.output
    assert message in result.output


@pytest.mark.parametrize(
    "command, name",
    [("gen", "trace.csv"), ("train", "training.csv"), ("allocate", "models.json"), ("allocate", "corpus.tsv")],
)
def test_an_input_file_that_is_not_utf8_exits_3_naming_it(runner, tmp_path, command, name):
    config, out_dir = gen_and_train(runner, tmp_path)
    path = out_dir / name
    path.write_bytes(path.read_bytes() + b"\xff\xfe\n")
    extra = ["--trace", str(path)] if name == "trace.csv" else []
    result = runner.invoke(main, [command, "--config", str(config), *extra])
    assert result.exit_code == 3, result.output
    assert "data error" in result.output and str(path) in result.output


# ---------------------------------------------------------------------------
# allocate
# ---------------------------------------------------------------------------


def test_allocate_selects_data_matching_node(runner, tmp_path):
    config, out_dir = gen_and_train(runner, tmp_path)
    # scenario: only node 3's data sit inside the query's constraint range
    cfg = ScenarioConfig(n_nodes=4, dims=1, n_queries=1, seed=5)
    nodes = []
    for i, center in enumerate((0.05, 0.2, 0.9, 0.5)):
        nodes.append(
            NodeState(
                node_id=i,
                load=0.2,
                speed=0.5,
                digest=DatasetDigest(
                    means=np.array([center]), spreads=np.array([0.05]), cardinality=1_000_000
                ),
            )
        )
    query = Query(
        id="probe",
        statement="SELECT name, price, volume FROM stocks WHERE price >= 42 AND volume >= 250 AND region = 'euro'",
        constraints=QueryConstraints(np.array([[0.45, 0.55]])),
        deadline=2.0,
    )
    scenario = Scenario(config=cfg, nodes=nodes, queries=[query], load_series=np.full((1, 4), 0.2))
    save_scenario(out_dir / "scenario.json", scenario)

    spec = json.dumps(
        {"statement": query.statement, "constraints": [[0.45, 0.55]], "deadline": 2.0}
    )
    for scheme in ("cs", "mvs"):
        result = runner.invoke(
            main,
            ["allocate", "--config", str(config), "--scheme", scheme,
             "--query-json", spec, "--format", "machine"],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["selected"] == [3]


def test_allocate_top_k_returns_ordered_ids(runner, tmp_path):
    config, out_dir = gen_and_train(runner, tmp_path)
    result = runner.invoke(
        main, ["allocate", "--config", str(config), "--k", "2", "--format", "machine"]
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert len(payload["selected"]) == 2
    assert len(set(payload["selected"])) == 2
    result = runner.invoke(main, ["allocate", "--config", str(config), "--k", "0"])
    assert result.exit_code == 2
    assert "k must be in" in result.output


def test_allocate_schemes_can_differ(runner, tmp_path):
    out_dir = tmp_path / "out"
    config = write_config(tmp_path / "config.yaml", out_dir, scenario={"n_nodes": 2, "dims": 1, "n_queries": 1, "seed": 5})
    out_dir.mkdir()

    cfg = ScenarioConfig(n_nodes=2, dims=1, n_queries=1, seed=5)
    digest = DatasetDigest(means=np.array([0.5]), spreads=np.array([0.1]), cardinality=1000)
    nodes = [
        NodeState(node_id=0, load=0.1, speed=0.5, digest=digest),
        NodeState(node_id=1, load=0.3, speed=0.5, digest=digest),
    ]
    query = Query(id="q0", statement="select a from t", constraints=QueryConstraints(np.array([[0.0, 1.0]])), deadline=1.0)
    save_scenario(out_dir / "scenario.json", Scenario(config=cfg, nodes=nodes, queries=[query], load_series=np.array([[0.1, 0.3]])))

    # hand-built ensembles: two vote for nodes with load above 0.2, the third
    # always votes no; node 1 fuses to (1,1,0) which splits the schemes
    load_tree = {
        "type": "cart_tree",
        "root": {"feature": 3, "threshold": 0.2, "left": {"prob": 0.0}, "right": {"prob": 1.0}},
        "n_features": 5,
    }
    always_no = {"type": "constant", "label": 0, "n_features": 5}
    save_bundle(
        out_dir / "models.json",
        {
            "boost": model_from_dict({"type": "adaboost", "members": [load_tree], "alphas": [1.0], "n_features": 5}),
            "bagging": model_from_dict({"type": "bagging", "members": [load_tree], "n_features": 5}),
            "stacking": model_from_dict({"type": "bagging", "members": [always_no], "n_features": 5}),
        },
    )

    winners, decided_by = {}, {}
    for scheme in ("cs", "mvs"):
        result = runner.invoke(
            main, ["allocate", "--config", str(config), "--scheme", scheme, "--query-index", "0", "--format", "machine"]
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        winners[scheme], decided_by[scheme] = payload["selected"], payload["decided_by"]
        human = runner.invoke(main, ["allocate", "--config", str(config), "--scheme", scheme, "--query-index", "0"])
        assert f"decided by: {decided_by[scheme]}" in human.output.splitlines()
    assert winners["cs"] == [0]  # all-negative fallback: lowest load wins
    assert winners["mvs"] == [1]  # majority keeps the (1,1,0) node
    assert decided_by == {"cs": "no_positive", "mvs": "single_positive"}


def test_allocate_without_models_exits_3(runner, tmp_path):
    out_dir = tmp_path / "out"
    config = write_config(tmp_path / "config.yaml", out_dir)
    assert runner.invoke(main, ["gen", "--config", str(config)]).exit_code == 0
    result = runner.invoke(main, ["allocate", "--config", str(config)])
    assert result.exit_code == 3
    assert "train" in result.output


LOAD_TREE = {
    "type": "cart_tree",
    "root": {"feature": 3, "threshold": 0.2, "left": {"prob": 0.0}, "right": {"prob": 1.0}},
    "n_features": 5,
}


@pytest.mark.parametrize(
    "boost",
    [
        {"type": "adaboost", "members": [LOAD_TREE], "n_features": 5},
        {"type": "adaboost", "members": [{"type": "cart_tree", "root": LOAD_TREE["root"]}], "alphas": [1.0], "n_features": 5},
        {"type": "bagging", "members": [{"type": "logistic", "weights": [0.0] * 5, "n_features": 5}], "n_features": 5},
        {"type": "bagging", "members": [dict(LOAD_TREE, root={"feature": 3, "threshold": 0.2, "left": {"prob": 0.0}})], "n_features": 5},
        {"type": "bagging", "members": [dict(LOAD_TREE, root={"prob": 1.0, "left": {}}), dict(LOAD_TREE, root={"feature": 3})], "n_features": 5},
        {"type": "bagging", "members": [dict(LOAD_TREE, root=dict(LOAD_TREE["root"], feature=5))], "n_features": 5},
        {"type": "bagging", "members": [dict(LOAD_TREE, root=dict(LOAD_TREE["root"], feature=-1))], "n_features": 5},
        {
            "type": "stacking",
            "bases": [
                LOAD_TREE,
                {"type": "gaussian_nb", "means": [[0.5] * 5] * 2, "variances": [[1.0] * 5, [1.0] * 4 + [0.0]],
                 "log_priors": [0.0, 0.0], "n_features": 5},
            ],
            "meta": {"type": "constant", "label": 1, "n_features": 2},
            "n_features": 5,
        },
        {"type": "bagging", "members": [], "n_features": 5},
        {"type": "adaboost", "members": [], "alphas": [], "n_features": 5},
        {"type": "adaboost", "members": [LOAD_TREE, LOAD_TREE], "alphas": [1.0], "n_features": 5},
        {"type": "adaboost", "members": [LOAD_TREE], "alphas": [float("nan")], "n_features": 5},
        {"type": "adaboost", "members": [LOAD_TREE], "alphas": ["x"], "n_features": 5},
        {"type": "constant", "label": "x", "n_features": 5},
        {"type": "constant", "label": 2, "n_features": 5},
        {"type": "constant", "label": 1, "n_features": "a"},
        {"type": "bagging", "members": 5, "n_features": 5},
        {"type": "stacking", "bases": 3, "meta": {"type": "constant", "label": 1, "n_features": 1}, "n_features": 5},
        {"type": "constant", "label": 1, "n_features": 4},
        {"type": "bagging", "members": [LOAD_TREE], "n_features": 5.0},
    ],
)
def test_allocate_with_a_malformed_model_file_exits_3(runner, tmp_path, boost):
    out_dir = tmp_path / "out"
    config = write_config(tmp_path / "config.yaml", out_dir, scenario={"n_nodes": 2, "dims": 1, "n_queries": 1, "seed": 5})
    out_dir.mkdir()
    digest = DatasetDigest(means=np.array([0.5]), spreads=np.array([0.1]), cardinality=1000)
    nodes = [NodeState(node_id=i, load=0.1, speed=0.5, digest=digest) for i in range(2)]
    query = Query(id="q0", statement="select a from t", constraints=QueryConstraints(np.array([[0.0, 1.0]])), deadline=1.0)
    cfg = ScenarioConfig(n_nodes=2, dims=1, n_queries=1, seed=5)
    save_scenario(out_dir / "scenario.json", Scenario(config=cfg, nodes=nodes, queries=[query], load_series=np.array([[0.1, 0.1]])))
    good = {"type": "bagging", "members": [LOAD_TREE], "n_features": 5}
    payload = {"schema_version": 1, "models": {"boost": boost, "bagging": good, "stacking": good}}
    (out_dir / "models.json").write_text(json.dumps(payload), encoding="utf-8")
    result = runner.invoke(main, ["allocate", "--config", str(config)])
    assert result.exit_code == 3, result.output
    assert "data error" in result.output


# ---------------------------------------------------------------------------
# scenario and query JSON boundaries
# ---------------------------------------------------------------------------


def two_node_setup(tmp_path):
    """A 1-D, two-node scenario and hand-built models; returns (config, scenario
    path, scenario payload)."""
    out_dir = tmp_path / "out"
    config = write_config(tmp_path / "config.yaml", out_dir, scenario={"n_nodes": 2, "dims": 1, "n_queries": 1, "seed": 5})
    out_dir.mkdir()
    digest = DatasetDigest(means=np.array([0.5]), spreads=np.array([0.1]), cardinality=1000)
    nodes = [NodeState(node_id=i, load=0.1 * (i + 1), speed=0.5, digest=digest) for i in range(2)]
    query = Query(id="q0", statement="select a from t", constraints=QueryConstraints(np.array([[0.0, 1.0]])), deadline=1.0)
    cfg = ScenarioConfig(n_nodes=2, dims=1, n_queries=1, seed=5)
    scenario_path = out_dir / "scenario.json"
    save_scenario(scenario_path, Scenario(config=cfg, nodes=nodes, queries=[query], load_series=np.array([[0.1, 0.2]])))
    good = {"type": "bagging", "members": [LOAD_TREE], "n_features": 5}
    payload = {"schema_version": 1, "models": {"boost": good, "bagging": good, "stacking": good}}
    (out_dir / "models.json").write_text(json.dumps(payload), encoding="utf-8")
    return config, scenario_path, json.loads(scenario_path.read_text(encoding="utf-8"))


def _set(payload, path, value):
    *parents, last = path
    for key in parents:
        payload = payload[key]
    payload[last] = value


@pytest.mark.parametrize(
    "path, value",
    [
        ((), [1, 2]),  # not an object
        (("queries",), None),  # removed below: a missing key
        (("config", "bogus"), 1),
        (("config",), "dims"),
        (("nodes", 0, "load"), 2.0),
        (("nodes", 0, "node_id"), "a"),
        (("nodes", 1, "digest", "means"), [0.5, 0.5]),
        (("nodes", 1, "digest", "means"), [float("nan")]),  # NaN intervals would match any query
        (("nodes",), []),
        (("queries", 0, "constraints"), [[0.9, 0.1]]),
        (("queries", 0, "statement"), 7),
        (("load_series",), [[0.1], [0.1, 0.2]]),
        (("nodes", 1, "digest", "spreads"), [1.7e308]),  # its interval overflows
        # integers the node table's int64 arrays cannot hold
        (("nodes", 0, "node_id"), 2**70),
        pytest.param(("nodes", 0, "digest", "cardinality"), 10**400, id="cardinality-10**400"),
        (("nodes", 0, "queue_capacity"), 2**70),
        (("queries", 0, "constraints"), [[math.inf, math.inf]]),  # JSON 1e400 reads as inf
        (("queries", 0, "deadline"), math.inf),
    ],
)
def test_allocate_with_a_malformed_scenario_exits_3_naming_the_file(runner, tmp_path, path, value):
    config, scenario_path, payload = two_node_setup(tmp_path)
    assert runner.invoke(main, ["allocate", "--config", str(config)]).exit_code == 0
    if path == ("queries",):
        del payload["queries"]
    elif path == ():
        payload = value
    else:
        _set(payload, path, value)
    scenario_path.write_text(json.dumps(payload), encoding="utf-8")
    result = runner.invoke(main, ["allocate", "--config", str(config)])
    assert result.exit_code == 3, result.output
    assert f"scenario {scenario_path}" in result.output


@pytest.mark.parametrize(
    "path, value, key",
    [
        (("nodes", 1, "node_id"), True, "nodes[1].node_id"),  # a hand-written reader read it as id 1
        (("nodes", 0, "digest", "cardinality"), True, "nodes[0].digest.cardinality"),  # ... as 1
        (("nodes", 0, "bogus"), 1, "nodes[0].bogus"),  # ... ignored it
        (("load_series",), [[0.1], [0.1, 0.2]], "load_series"),  # NumPy's own text named no key
        (("bogus",), 1, "bogus"),  # an unknown top-level key was ignored
    ],
)
def test_allocate_with_a_mistyped_or_unknown_node_field_exits_3_naming_file_and_key(runner, tmp_path, path, value, key):
    config, scenario_path, payload = two_node_setup(tmp_path)
    _set(payload, path, value)
    scenario_path.write_text(json.dumps(payload), encoding="utf-8")
    result = runner.invoke(main, ["allocate", "--config", str(config)])
    assert result.exit_code == 3, result.output
    assert f"scenario {scenario_path}: " in result.output and key in result.output


def test_allocate_with_repeated_node_ids_exits_3_naming_the_id(runner, tmp_path):
    config, scenario_path, payload = two_node_setup(tmp_path)
    for node in payload["nodes"]:
        node["node_id"] = 3
    scenario_path.write_text(json.dumps(payload), encoding="utf-8")
    result = runner.invoke(main, ["allocate", "--config", str(config)])
    assert result.exit_code == 3, result.output
    assert f"scenario {scenario_path}: node id 3 repeats" in result.output


@pytest.mark.parametrize(
    "query, message",
    [
        ({"statement": "select a from t", "constraints": [[0.9, 0.1]]}, "minima must not exceed maxima"),
        ({"statement": "select a from t", "constraints": [[float("nan"), 0.1]]}, "NaN"),
        ({"statement": "select a from t", "constraints": [["low", "high"]]}, "invalid query"),
        ({"statement": "select a from t", "constraints": [[0.1, 0.2, 0.3]]}, "shape"),
        ({"statement": "select a from t", "constraints": [0.1, 0.2]}, "shape"),
        ({"statement": "select a from t", "constraints": {"min": 0.1}}, "invalid query"),
        ({"statement": "select a from t", "constraints": [[0, 10**400]]}, "invalid query"),
        ({"statement": "select a from t"}, "missing field 'constraints'"),
        ({"statement": 5, "constraints": [[0.1, 0.2]]}, "statement must be a string"),
        ({"statement": "<=>", "constraints": [[0.1, 0.2]]}, "no tokens"),
        ({"statement": "select a from t", "constraints": [[0.1, 0.2]], "deadline": -1}, "deadline"),
        ({"statement": "select a from t", "constraints": [[0.1, 0.2]], "deadline": "soon"}, "invalid query"),
        ({"statement": "select a from t", "constraints": [[0.1, 0.2], [0.1, 0.2]]}, "2 constraint dimensions, the scenario has 1"),
        ([{"statement": "select a from t"}], "cannot read query file"),
        ({"statement": "select a from t", "constraints": [[math.inf, math.inf]]}, "finite"),
        ({"statement": "select a from t", "constraints": [[0.1, 0.2]], "deadline": math.inf}, "finite"),
        # what a hand-written reader let through
        ({"statement": "select a from t", "constraints": [[0.1, 0.2]], "deadline": True}, "query.deadline must be a finite number"),
        ({"statement": "select a from t", "constraints": [[0.1, 0.2]], "id": 5}, "query.id must be a string"),
        ({"statement": "select a from t", "constraints": [[0.1, 0.2]], "dedline": 5.0}, "unknown keys ['query.dedline']"),
        # what NumPy's float conversion took as numbers
        ({"statement": "select a from t", "constraints": [["0.1", "0.5"]]}, "query.constraints must be an array of numbers"),
        ({"statement": "select a from t", "constraints": [["nan", 0.5]]}, "query.constraints must be an array of numbers"),
        ({"statement": "select a from t", "constraints": [[0.1, "inf"]]}, "query.constraints must be an array of numbers"),
        ({"statement": "select a from t", "constraints": [[True, 1]]}, "query.constraints must be an array of numbers"),
    ],
)
def test_allocate_with_a_malformed_query_json_exits_3(runner, tmp_path, query, message):
    config, _, _ = two_node_setup(tmp_path)
    result = runner.invoke(main, ["allocate", "--config", str(config), "--query-json", json.dumps(query)])
    assert result.exit_code == 3, result.output
    assert message in result.output


@pytest.mark.parametrize("name", ["query.json", "scenario.json", "models.json"])
def test_an_input_file_nested_too_deep_exits_3_naming_it(runner, tmp_path, name):
    config, scenario_path, _ = two_node_setup(tmp_path)
    path = (tmp_path if name == "query.json" else scenario_path.parent) / name
    path.write_text(DEEP_JSON, encoding="utf-8")
    options = ["--query-json", str(path)] if name == "query.json" else []
    result = runner.invoke(main, ["allocate", "--config", str(config), *options])
    assert result.exit_code == 3, result.output
    assert ("invalid query JSON" if name == "query.json" else str(path)) in result.output


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
bounds = st.lists(st.lists(st.floats() | st.integers(), min_size=0, max_size=3), max_size=3)
query_records = st.fixed_dictionaries(
    {},
    optional={
        "id": json_values,
        "statement": st.sampled_from(["select a from t", "", " ", "<=>"]) | json_values,
        "constraints": bounds | json_values,
        "deadline": json_values,
    },
)


def _numbers_only(value) -> bool:
    """Whether every leaf of nested lists is a JSON number: an int or a
    float, never a bool or a string."""
    if isinstance(value, list):
        return all(_numbers_only(v) for v in value)
    return type(value) in (int, float)


@settings(max_examples=300, deadline=None)
@example({"statement": "select a from t", "constraints": [["0.1", "0.5"]]})
@example({"statement": "select a from t", "constraints": [[True, 1]]})
@given(query_records | json_values | st.text(max_size=40))
def test_query_json_parser_raises_only_data_error(spec):
    """A query either raises ``DataError`` or loads from JSON numbers."""
    text = spec if isinstance(spec, str) else json.dumps(spec)
    try:
        query = _parse_query_json(text)
    except DataError:
        return
    assert isinstance(query, Query)
    assert _numbers_only(json.loads(text)["constraints"])


SCENARIO_PATHS = [
    (), ("schema_version",), ("config",), ("config", "dims"), ("config", "n_nodes"),
    ("nodes",), ("nodes", 0), ("nodes", 0, "node_id"), ("nodes", 0, "load"), ("nodes", 0, "speed"),
    ("nodes", 0, "queue_capacity"), ("nodes", 0, "digest"), ("nodes", 0, "digest", "means"),
    ("nodes", 0, "digest", "spreads"), ("nodes", 0, "digest", "cardinality"),
    ("queries",), ("queries", 0), ("queries", 0, "statement"), ("queries", 0, "constraints"),
    ("queries", 0, "deadline"), ("load_series",),
]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(path=("nodes", 0, "node_id"), value=2**70, delete=False)
@example(path=("nodes", 0, "digest", "cardinality"), value=10**400, delete=False)
@example(path=("nodes", 0, "queue_capacity"), value=2**70, delete=False)
@example(path=("nodes", 0, "digest", "spreads"), value=[1.7e308], delete=False)
@example(path=("nodes", 0, "queue_capacity"), value=1.5, delete=False)
@example(path=("nodes", 0, "digest", "cardinality"), value=1.5, delete=False)
@example(path=("load_series",), value=[[0.1, 0.2, 0.3]], delete=False)
@example(path=("load_series",), value=[[7.0, 0.2]], delete=False)
@example(path=("load_series",), value=[], delete=False)
@example(path=("nodes", 0, "load"), value=True, delete=False)
@example(path=("nodes", 0, "speed"), value=True, delete=False)
@example(path=("queries", 0, "constraints"), value=[["0.1", "0.5"]], delete=False)
@example(path=("load_series",), value=[[True, False]], delete=False)
@example(path=("nodes", 0, "digest", "means"), value=[True], delete=False)
@example(path=("nodes", 0, "digest", "spreads"), value=["0.1"], delete=False)
@given(st.sampled_from(SCENARIO_PATHS), json_values | bounds, st.booleans())
def test_scenario_parser_raises_only_data_error(tmp_path, path, value, delete):
    """A scenario file either raises ``DataError`` naming it or loads into a
    scenario whose run can build its node table, with integer capacities and
    cardinalities, float loads and speeds, one load in [0, 1] per node and
    epoch, and every array read from JSON numbers."""
    scenario_path = tmp_path / "scenario.json"
    cfg = ScenarioConfig(n_nodes=2, dims=1, n_queries=1, seed=5)
    digest = DatasetDigest(means=np.array([0.5]), spreads=np.array([0.1]), cardinality=1000)
    nodes = [NodeState(node_id=i, load=0.1, speed=0.5, digest=digest) for i in range(2)]
    query = Query(id="q0", statement="select a from t", constraints=QueryConstraints(np.array([[0.0, 1.0]])), deadline=1.0)
    save_scenario(scenario_path, Scenario(config=cfg, nodes=nodes, queries=[query], load_series=np.array([[0.1, 0.2]])))
    payload = json.loads(scenario_path.read_text(encoding="utf-8"))
    if path == ():
        payload = value
    elif delete:
        *parents, last = path
        holder = payload
        for key in parents:
            holder = holder[key]
        del holder[last]
    else:
        _set(payload, path, value)
    scenario_path.write_text(json.dumps(payload), encoding="utf-8")
    try:
        scenario = load_scenario(scenario_path)
    except DataError as exc:
        assert str(scenario_path) in str(exc)
        return
    assert isinstance(scenario, Scenario)
    _node_table(scenario.nodes, scenario.config.z)
    for node in scenario.nodes:
        assert type(node.queue_capacity) is int and type(node.digest.cardinality) is int
        assert type(node.load) is float and type(node.speed) is float
    series = scenario.load_series
    assert series.shape[0] >= 1 and series.shape[1:] == (len(scenario.nodes),)
    assert ((series >= 0.0) & (series <= 1.0)).all()
    arrays = [payload["load_series"], *(q["constraints"] for q in payload["queries"])]
    arrays += [n["digest"][key] for n in payload["nodes"] for key in ("means", "spreads")]
    assert all(_numbers_only(a) for a in arrays)


def _paths(node, prefix=()):
    """Every path into nested dicts and lists, the root included."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


# the test config, and the full default config as ``edgealloc bench`` records it
CONFIGS = [config_mapping(Path("out")), json.loads(json.dumps(asdict(AppConfig())))]
CONFIG_PATHS = [(i, path) for i, config in enumerate(CONFIGS) for path in _paths(config)]


def _trained_models() -> dict:
    scenario = generate_scenario(ScenarioConfig(n_nodes=1, n_queries=1, dims=1, seed=5))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        data = synthesize_training_set(scenario, AppConfig().policy, 300)
        bundle = bench.train_bundle(data, bench.LearnerSetup(boost_rounds=3, bagging_bags=3), seed=5)
    return dict(zip(("boost", "bagging", "stacking"), bundle.models()))


TRAINED_MODELS = _trained_models()
# every path into the model file ``save_bundle`` writes for them
MODEL_PATHS = list(_paths({"schema_version": 1, "models": {n: m.to_dict() for n, m in TRAINED_MODELS.items()},
                           "metadata": {}}))
THRESHOLD_PATH, FEATURE_PATH, PROB_PATH = (next(p for p in MODEL_PATHS if p[-1:] == (key,))
                                           for key in ("threshold", "feature", "prob"))
# the fields of a model record that hold numbers
MODEL_NUMBER_FIELDS = {"n_features", "alphas", "label", "feature", "threshold", "prob", "weights", "bias", "mu",
                       "sigma", "means", "variances", "log_priors"}


def _model_numbers(node):
    """(field, value) of every numeric field in the model records ``node`` holds."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from [(key, child)] if key in MODEL_NUMBER_FIELDS else _model_numbers(child)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(path=("models", "bagging", "n_features"), value=5.0, delete=False)
@example(path=THRESHOLD_PATH, value=10**400, delete=False)
@example(path=THRESHOLD_PATH, value="0.5", delete=False)
@example(path=FEATURE_PATH, value=True, delete=False)
@example(path=PROB_PATH, value="1", delete=False)
@example(path=PROB_PATH, value=False, delete=False)
@example(path=PROB_PATH, value=7.0, delete=False)
@example(path=PROB_PATH, value=-1, delete=False)
@example(path=("models", "boost", "alphas", 0), value="0.3", delete=False)
@example(path=("models", "stacking", "meta", "weights", 0), value=True, delete=False)
@example(path=("models", "stacking", "meta", "weights", 1), value="0.5", delete=False)
@example(path=("models", "stacking", "meta", "bias"), value="1.0", delete=False)
@example(path=("models", "stacking", "bases", 3, "sigma", 1), value="1", delete=False)
@example(path=("models", "stacking", "meta"), value={"type": "constant", "label": True, "n_features": 4}, delete=False)
@given(st.sampled_from(MODEL_PATHS), json_values, st.booleans())
def test_model_file_reader_raises_only_data_error(tmp_path, path, value, delete):
    """A model file either raises ``DataError`` naming it or loads from
    records whose numeric fields hold JSON numbers only, and leaf
    probabilities in [0, 1]."""
    model_path = tmp_path / "models.json"
    save_bundle(model_path, TRAINED_MODELS)
    payload = json.loads(model_path.read_text(encoding="utf-8"))
    if path == ():
        payload = value
    elif delete:
        *parents, last = path
        holder = payload
        for key in parents:
            holder = holder[key]
        del holder[last]
    else:
        _set(payload, path, value)
    model_path.write_text(json.dumps(payload), encoding="utf-8")
    try:
        models, _ = load_bundle(model_path)
    except DataError as exc:
        assert str(model_path) in str(exc)
        return
    assert isinstance(models, dict)
    fields = list(_model_numbers(payload["models"]))
    assert all(_numbers_only(value) for _, value in fields)
    assert all(0 <= value <= 1 for field, value in fields if field == "prob")


@pytest.mark.parametrize("n_features", [2**70, 6])
def test_allocate_refuses_models_that_read_other_than_five_features(runner, tmp_path, n_features):
    # every record of every model reads n_features; the reader refuses the
    # first before any model is built, so no table of cells x n_features is made
    config, _, _ = two_node_setup(tmp_path)
    model_path = tmp_path / "out" / "models.json"
    save_bundle(model_path, TRAINED_MODELS)
    payload = json.loads(model_path.read_text(encoding="utf-8"))
    for path in MODEL_PATHS:
        if path[-1:] == ("n_features",):
            _set(payload, path, n_features)
    model_path.write_text(json.dumps(payload), encoding="utf-8")
    result = runner.invoke(main, ["allocate", "--config", str(config)])
    assert result.exit_code == 3, result.output
    assert str(model_path) in result.output
    assert f"reads {n_features} features where 5 are expected" in result.output


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(CONFIG_PATHS), json_values, st.booleans())
def test_config_reader_raises_only_config_error(tmp_path, where, value, delete):
    index, path = where
    config = json.loads(json.dumps(CONFIGS[index]))
    if path == ():
        config = None if delete else value
    else:
        *parents, last = path
        holder = config
        for key in parents:
            holder = holder[key]
        if delete:
            del holder[last]
        else:
            holder[last] = value
    config_path = tmp_path / "config.yaml"
    config_path.write_text(yaml.safe_dump(config), encoding="utf-8")
    try:
        cfg = load_config(str(config_path))
    except ConfigError:
        return
    assert isinstance(cfg, AppConfig)


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def test_bench_runs_grid_and_is_resumable(runner, tmp_path):
    out_dir = tmp_path / "out"
    config = write_config(
        tmp_path / "config.yaml",
        out_dir,
        scenario={"n_nodes": 4, "dims": 1, "n_queries": 25, "seed": 5},
        learners={"boost_rounds": 3, "bagging_bags": 3, "training_size": 300},
    )
    result = runner.invoke(main, ["bench", "--config", str(config)])
    assert result.exit_code == 0, result.output
    bench_dir = out_dir / "bench"
    assert (bench_dir / "summary.csv").exists()
    assert (bench_dir / "config.json").exists()
    cells = list(bench_dir.glob("run_*.csv"))
    assert len(cells) == 4  # 2 schemes x 1 distribution x 2 node counts x 1 seed

    again = runner.invoke(main, ["bench", "--config", str(config)])
    assert again.exit_code == 0
    assert again.output.count("skipped") == 4


def test_bench_resumed_after_it_finished_rewrites_the_same_summary(runner, tmp_path):
    config = write_config(tmp_path / "config.yaml", tmp_path / "out")
    assert runner.invoke(main, ["bench", "--config", str(config)]).exit_code == 0
    summary = tmp_path / "out" / "bench" / "summary.csv"
    fresh = summary.read_bytes()
    again = runner.invoke(main, ["bench", "--config", str(config)])
    assert again.exit_code == 0 and again.output.count("skipped") == 4, again.output
    assert summary.read_bytes() == fresh


@pytest.mark.parametrize(
    "key, values", [("n_values", [5, 3, 5]), ("seeds", [0, 0]), ("distributions", ["uniform", "uniform"])]
)
def test_bench_grid_with_a_repeated_value_exits_2_naming_the_key(runner, tmp_path, key, values):
    grid = dict(config_mapping(tmp_path)["bench"], **{key: values})
    config = write_config(tmp_path / "config.yaml", tmp_path / "out", bench=grid)
    result = runner.invoke(main, ["bench", "--config", str(config)])
    assert result.exit_code == 2, result.output
    assert key in result.output and "repeats" in result.output
    assert not (tmp_path / "out" / "bench").exists()


def test_bench_with_a_default_trace_shorter_than_a_cell_exits_2_before_any_cell(runner, tmp_path):
    out_dir = tmp_path / "out"
    bench_grid = {"n_values": [3, 5], "seeds": [0], "distributions": ["uniform", "trace"], "trace_rows": 4}
    config = write_config(tmp_path / "config.yaml", out_dir, bench=bench_grid)
    result = runner.invoke(main, ["bench", "--config", str(config)])
    assert result.exit_code == 2, result.output
    assert "bench.trace_rows" in result.output
    assert not list(out_dir.glob("bench/run_*"))
