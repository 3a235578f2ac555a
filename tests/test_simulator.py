import logging
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgealloc import simulator
from edgealloc.allocator import decide_from_features
from edgealloc.bench import LearnerSetup, train_bundle
from edgealloc.complexity import ComplexityClassifier
from edgealloc.errors import ConfigError, DataError
from edgealloc.simulator import (
    LabelingPolicy,
    ScenarioConfig,
    apply_allocation,
    generate_query_corpus,
    generate_scenario,
    generate_utilization_trace,
    ingest_utilization_trace,
    load_scenario,
    ova_allocate,
    save_scenario,
    simulate_run,
    statement_for_class,
    synthesize_training_set,
)


def cfg(**kw):
    defaults = dict(n_nodes=5, dims=2, n_queries=50, seed=7)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


# ---------------------------------------------------------------------------
# scenario generation
# ---------------------------------------------------------------------------


def test_same_seed_reproduces_scenario_exactly():
    a = generate_scenario(cfg())
    b = generate_scenario(cfg())
    assert np.array_equal(a.load_series, b.load_series)
    for na, nb in zip(a.nodes, b.nodes):
        assert na.speed == nb.speed
        assert np.array_equal(na.digest.means, nb.digest.means)
    for qa, qb in zip(a.queries, b.queries):
        assert qa.statement == qb.statement
        assert np.array_equal(qa.constraints.intervals, qb.constraints.intervals)


def test_different_seeds_differ():
    a = generate_scenario(cfg(seed=1))
    b = generate_scenario(cfg(seed=2))
    assert not np.array_equal(a.load_series, b.load_series)


def test_queries_shared_across_node_counts():
    small = generate_scenario(cfg(n_nodes=2))
    large = generate_scenario(cfg(n_nodes=30))
    assert [q.statement for q in small.queries] == [q.statement for q in large.queries]
    # node populations nest: the first nodes coincide
    assert small.nodes[0].speed == large.nodes[0].speed


def test_uniform_loads_have_uniform_mean():
    scenario = generate_scenario(cfg(n_nodes=10, n_queries=1000, seed=3))
    assert scenario.load_series.mean() == pytest.approx(0.5, abs=0.02)


def test_gaussian_values_stay_in_unit_interval():
    scenario = generate_scenario(cfg(distribution="gaussian", n_nodes=20, n_queries=200))
    assert scenario.load_series.min() >= 0.0
    assert scenario.load_series.max() <= 1.0
    for node in scenario.nodes:
        assert 0.0 < node.speed <= 1.0


def test_deadlines_within_cap():
    scenario = generate_scenario(cfg(n_queries=300))
    deadlines = [q.deadline for q in scenario.queries]
    assert 0.0 <= min(deadlines) and max(deadlines) <= 10.0


def test_statement_templates_cover_every_class():
    for class_id in (0, 1, 2):
        s = statement_for_class(class_id, 123)
        assert "123" in s
    corpus = generate_query_corpus(per_class=30)
    assert len(corpus) == 90


def test_config_validation():
    with pytest.raises(ConfigError):
        ScenarioConfig(n_nodes=0)
    with pytest.raises(ConfigError):
        ScenarioConfig(distribution="poisson")
    with pytest.raises(ConfigError):
        ScenarioConfig(alpha=0.0)


def test_scenario_roundtrip(tmp_path):
    scenario = generate_scenario(cfg())
    path = tmp_path / "scenario.json"
    save_scenario(path, scenario)
    loaded = load_scenario(path)
    assert np.array_equal(loaded.load_series, scenario.load_series)
    assert loaded.queries[0].statement == scenario.queries[0].statement
    dump1 = path.read_bytes()
    save_scenario(path, generate_scenario(cfg()))
    assert path.read_bytes() == dump1  # byte-identical for a fixed seed


# ---------------------------------------------------------------------------
# utilisation traces
# ---------------------------------------------------------------------------


def test_percent_values_are_normalised(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("step,cpu\n0,50\n1,25\n2,100\n", encoding="utf-8")
    series = ingest_utilization_trace(path, n_nodes=1, column="cpu")
    assert series[0].tolist() == [0.5, 0.25, 1.0]


def test_round_robin_partition(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("step,cpu\n0,1\n1,2\n2,3\n3,4\n", encoding="utf-8")
    series = ingest_utilization_trace(path, n_nodes=2, column="cpu")
    assert series[0].tolist() == [0.01, 0.03]
    assert series[1].tolist() == [0.02, 0.04]


def test_trace_shorter_than_run_wraps_cyclically(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("step,cpu\n0,10\n1,20\n2,30\n3,40\n", encoding="utf-8")
    scenario = generate_scenario(cfg(n_nodes=2, n_queries=6, trace_path=str(path), trace_column="cpu"))
    assert scenario.loads_at(0).tolist() == [0.1, 0.2]
    assert scenario.loads_at(2).tolist() == [0.1, 0.2]  # wrapped


def test_missing_column_reported(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("step,cpu\n0,50\n", encoding="utf-8")
    with pytest.raises(DataError, match="util"):
        ingest_utilization_trace(path, 1, column="util")


def test_unparsable_row_reports_line_number(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("step,cpu\n0,50\n1,banana\n", encoding="utf-8")
    with pytest.raises(DataError, match=":3"):
        ingest_utilization_trace(path, 1, column="cpu")


@pytest.mark.parametrize("rows", [["nan", "0.4", "0.5"], ["0.3", "0.4", "nan", "0.5"], ["0.3", "inf"]])
def test_non_finite_value_reports_file_and_line(tmp_path, rows):
    path = tmp_path / "trace.csv"
    path.write_text("step,cpu\n" + "".join(f"{i},{v}\n" for i, v in enumerate(rows)), encoding="utf-8")
    bad = next(i for i, v in enumerate(rows) if v in ("nan", "inf"))
    with pytest.raises(DataError, match=f"trace.csv:{bad + 2}:"):
        ingest_utilization_trace(path, 1, column="cpu")


def test_trace_unit_is_logged(tmp_path, caplog):
    path = tmp_path / "trace.csv"
    path.write_text("step,cpu\n0,0.3\n1,0.4\n", encoding="utf-8")
    with caplog.at_level(logging.INFO, logger="edgealloc.simulator"):
        ingest_utilization_trace(path, 1, column="cpu")
        path.write_text("step,cpu\n0,30\n1,40\n", encoding="utf-8")
        ingest_utilization_trace(path, 1, column="cpu")
    messages = [r.getMessage() for r in caplog.records]
    assert "read as fractions" in messages[0]
    assert "read as percent" in messages[1]


def test_generated_trace_is_smooth_and_ingestible(tmp_path):
    path = tmp_path / "trace.csv"
    generate_utilization_trace(path, rows=3000, seed=1)
    series = ingest_utilization_trace(path, n_nodes=3)
    assert all(0.0 <= s.min() and s.max() <= 1.0 for s in series)
    (raw,) = ingest_utilization_trace(path, n_nodes=1)
    # utilisation evolves smoothly, so a round-robin split leaves nodes with
    # similar loads at each epoch
    assert np.abs(np.diff(raw)).max() < 0.05


# ---------------------------------------------------------------------------
# queue dynamics
# ---------------------------------------------------------------------------


def queues(occupancy, speeds, capacity=100, service_rate=5.0):
    """(occupancy, capacity, drain) arrays for apply_allocation."""
    occ = np.array(occupancy, dtype=np.int64)
    cap = np.full(occ.shape, capacity, dtype=np.int64)
    drain = np.floor(np.asarray(speeds) * service_rate).astype(np.int64)
    return occ, cap, drain


def test_saturated_queue_drops_arrivals():
    occ, cap, drain = queues([99], [0.0])
    assert apply_allocation(occ, cap, drain, [0]).tolist() == [1.0]
    assert apply_allocation(occ, cap, drain, [0]).tolist() == [1.0]  # arrival beyond capacity is dropped
    assert occ.tolist() == [100]


def test_zero_speed_never_completes():
    occ, cap, drain = queues([10], [0.0])
    apply_allocation(occ, cap, drain, [0])
    assert occ.tolist() == [11]  # one arrival, zero completions


def test_service_rate_completions():
    occ, cap, drain = queues([10, 0], [1.0, 0.5])
    loads = apply_allocation(occ, cap, drain, [1])
    assert loads[0] == pytest.approx(0.05)  # 10 - floor(1.0 * 5) = 5
    assert occ.tolist() == [5, 0]  # 0 + 1 arrival - min(floor(0.5 * 5), 1)


def test_every_selected_position_takes_one_arrival():
    occ, cap, drain = queues([0, 4, 10, 2], [0.0, 0.0, 0.0, 0.0], capacity=10)
    loads = apply_allocation(occ, cap, drain, [2, 0, 1])
    assert occ.tolist() == [1, 5, 10, 2]
    assert loads.tolist() == [0.1, 0.5, 1.0, 0.2]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.floats(min_value=0, max_value=1)), min_size=1, max_size=60))
def test_load_never_leaves_unit_interval(events):
    occ, cap, drain = queues([5, 0], [0.7, 0.3], capacity=10)
    for arrives, _ in events:
        loads = apply_allocation(occ, cap, drain, [0] if arrives else [1])
        assert np.all((0.0 <= loads) & (loads <= 1.0))


# ---------------------------------------------------------------------------
# training data synthesis
# ---------------------------------------------------------------------------


def test_policy_labels_conjunctively():
    policy = LabelingPolicy()
    assert policy.label(0.2, 0.3, 0.8) == 1
    assert policy.label(0.9, 0.1, 0.9) == 0  # relevance alone disqualifies
    assert policy.label(0.2, 0.9, 0.9) == 0
    assert policy.label(0.2, 0.3, 0.2) == 0


def test_synthesised_set_is_balanced_two_class():
    scenario = generate_scenario(cfg(dims=1))
    policy = LabelingPolicy(max_relevance=0.5, max_load=0.5, min_speed=0.0)
    data = synthesize_training_set(scenario, policy, 600)
    share = data.positive_fraction()
    assert len(data) == 600
    assert 0.0 < share < 1.0
    assert data.features.shape == (600, 5)


def test_degenerate_policy_raises_with_ratio():
    scenario = generate_scenario(cfg())
    with pytest.raises(DataError, match="positive ratio"):
        synthesize_training_set(scenario, LabelingPolicy(1.0, 1.0, 0.0), 200)


def test_training_set_reproducible():
    scenario = generate_scenario(cfg(dims=1))
    policy = LabelingPolicy(max_relevance=0.5, max_load=0.5, min_speed=0.0)
    a = synthesize_training_set(scenario, policy, 300)
    b = synthesize_training_set(scenario, policy, 300)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_trace_scenario_draws_training_loads_from_trace(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("step,cpu\n" + "\n".join(f"{i},{30 + (i % 5)}" for i in range(200)), encoding="utf-8")
    scenario = generate_scenario(cfg(n_nodes=4, dims=1, trace_path=str(path), trace_column="cpu"))
    policy = LabelingPolicy(max_relevance=0.5, max_load=0.5, min_speed=0.0)
    data = synthesize_training_set(scenario, policy, 400)
    loads = data.features[:, 3]
    assert set(np.round(loads, 2)) <= {0.30, 0.31, 0.32, 0.33, 0.34}


# ---------------------------------------------------------------------------
# the decision path
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trained():
    """A classifier and a bundle trained for the small replay scenario."""
    config = cfg(n_nodes=8, dims=3, n_queries=60)
    policy = LabelingPolicy(max_relevance=0.6, max_load=0.5, min_speed=0.0)
    data = synthesize_training_set(generate_scenario(replace(config, n_nodes=1)), policy, 800)
    bundle = train_bundle(data, LearnerSetup(training_size=800), seed=config.seed)
    return config, ComplexityClassifier(generate_query_corpus()), bundle


@pytest.mark.parametrize("scheme", ["cs", "mvs"])
@pytest.mark.parametrize("k", [1, 3])
def test_ova_allocate_replays_simulate_run(trained, scheme, k, monkeypatch):
    config, classifier, bundle = trained
    scenario = generate_scenario(config)
    decisions = []

    def recording(*args, **kwargs):
        decisions.append(decide_from_features(*args, **kwargs))
        return decisions[-1]

    monkeypatch.setattr(simulator, "decide_from_features", recording)
    result = simulate_run(scenario, bundle, scheme, classifier, k=k)
    monkeypatch.undo()
    assert [d.selected[0] for d in decisions] == [r.selected_node for r in result.records]

    replayed = []
    for t, query in enumerate(scenario.queries):
        for node, load in zip(scenario.nodes, scenario.loads_at(t)):
            node.load = float(load)
        decision = ova_allocate(
            query, scenario.nodes, bundle, scheme, classifier, alpha=config.alpha, z=config.z, k=k
        )
        replayed.append(decision)
    assert [d.selected for d in replayed] == [d.selected for d in decisions]
    assert all(len(d.selected) == k for d in replayed)
    # the vote, not only the load tie-break, decides some of these picks
    assert any(0 < d.fused_labels.sum() < len(d.node_ids) for d in replayed)


@pytest.mark.parametrize("load_mode", ["trace_replay", "queue_dynamics"])
def test_k_above_node_count_rejected_before_any_decision(trained, load_mode):
    config, classifier, bundle = trained
    scenario = generate_scenario(replace(config, n_nodes=5, load_mode=load_mode))

    class Counting:
        calls = 0

        def classify_statement(self, statement):
            Counting.calls += 1
            return classifier.classify_statement(statement)

    with pytest.raises(ConfigError, match="k must be in"):
        simulate_run(scenario, bundle, "cs", Counting(), k=9)
    assert Counting.calls == 0


def test_queue_run_leaves_nodes_untouched(trained):
    config, classifier, bundle = trained
    scenario = generate_scenario(replace(config, load_mode="queue_dynamics", service_rate=0.5))
    before = [node.load for node in scenario.nodes]
    result = simulate_run(scenario, bundle, "mvs", classifier, k=2)
    assert [node.load for node in scenario.nodes] == before
    assert result.records[0].load_min == 0.0  # queues start empty
    assert max(r.load_selected for r in result.records) > 0.0
