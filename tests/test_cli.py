import json
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from edgealloc.cli import main
from edgealloc.core import DatasetDigest, NodeState, Query, QueryConstraints
from edgealloc.learners import model_from_dict, save_bundle
from edgealloc.simulator import Scenario, ScenarioConfig, save_scenario


@pytest.fixture
def runner():
    return CliRunner()


def write_config(path: Path, out_dir: Path, **overrides) -> Path:
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
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
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


def test_gen_with_corrupt_config_exits_2_without_files(runner, tmp_path):
    out_dir = tmp_path / "out"
    config = write_config(tmp_path / "config.yaml", out_dir)
    config.write_text(config.read_text().replace("n_nodes: 4", "n_nodes: 0"), encoding="utf-8")
    result = runner.invoke(main, ["gen", "--config", str(config)])
    assert result.exit_code == 2
    assert not out_dir.exists()


def test_gen_with_unknown_key_exits_2(runner, tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text("scenario:\n  n_noodles: 4\n", encoding="utf-8")
    assert runner.invoke(main, ["gen", "--config", str(config)]).exit_code == 2


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_writes_models_and_report(runner, tmp_path):
    _, out_dir = gen_and_train(runner, tmp_path)
    assert (out_dir / "models.json").exists()
    report = json.loads((out_dir / "training_report.json").read_text())
    for name in ("boost", "bagging", "stacking"):
        assert report[f"accuracy_{name}"] >= report["majority_baseline"]


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

    winners = {}
    for scheme in ("cs", "mvs"):
        result = runner.invoke(
            main, ["allocate", "--config", str(config), "--scheme", scheme, "--query-index", "0", "--format", "machine"]
        )
        assert result.exit_code == 0, result.output
        winners[scheme] = json.loads(result.output)["selected"]
    assert winners["cs"] == [0]  # all-negative fallback: lowest load wins
    assert winners["mvs"] == [1]  # majority keeps the (1,1,0) node


def test_allocate_without_models_exits_3(runner, tmp_path):
    out_dir = tmp_path / "out"
    config = write_config(tmp_path / "config.yaml", out_dir)
    assert runner.invoke(main, ["gen", "--config", str(config)]).exit_code == 0
    result = runner.invoke(main, ["allocate", "--config", str(config)])
    assert result.exit_code == 3
    assert "train" in result.output


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
