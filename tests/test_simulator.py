import csv
import io
import logging
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgealloc import allocator, simulator
from edgealloc.allocator import decide_from_features
from edgealloc.bench import LearnerSetup, train_bundle
from edgealloc.cli import _write_training_csv
from edgealloc.complexity import ComplexityClassifier
from edgealloc.core import CONTEXT_FEATURES, complexity_scalar
from edgealloc.errors import ConfigError, DataError
from edgealloc.relevance import confidence_intervals, relevance_batch
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

from test_allocator import reference_ranking


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


def _reference_moments(rng, config, centers, sample_size):
    """The full-array draw reduced by np.mean/np.std, which _sample_moments
    reproduces a block at a time."""
    c = centers[..., None]
    shape = centers.shape + (sample_size,)
    if config.distribution == "uniform":
        lo = np.maximum(c - config.data_window, 0.0)
        hi = np.minimum(c + config.data_window, 1.0)
        sample = rng.uniform(lo, hi, size=shape)
    else:
        sample = np.clip(rng.normal(c, config.gaussian_sd, size=shape), 0.0, 1.0)
    return sample.mean(axis=-1), sample.std(axis=-1)


@pytest.mark.parametrize("distribution", ["uniform", "gaussian"])
@pytest.mark.parametrize("dims", [1, 5, 10])
def test_sampled_moments_are_bitwise_the_full_sample_statistics(distribution, dims):
    config = cfg(dims=dims, distribution=distribution)
    for rows, sample_size in ((1, 1000), (63, 200), (64, 200), (65, 200), (513, 50), (513, 1)):
        centers = np.random.default_rng(rows).uniform(0.0, 1.0, (rows, dims))
        for shape in ((rows, dims), (rows * dims,)):  # training rows and one node's dimensions
            got_rng, want_rng = np.random.default_rng(11), np.random.default_rng(11)
            got = simulator._sample_moments(got_rng, config, centers.reshape(shape), sample_size)
            want = _reference_moments(want_rng, config, centers.reshape(shape), sample_size)
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.tobytes() == w.tobytes()
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_trace_replaces_only_the_loads_of_a_scenario(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("step,cpu\n" + "\n".join(f"{i},{30 + (i % 5)}" for i in range(40)), encoding="utf-8")
    for distribution in ("uniform", "gaussian"):
        plain = generate_scenario(cfg(distribution=distribution))
        traced = generate_scenario(cfg(distribution=distribution, trace_path=str(path), trace_column="cpu"))
        for a, b in zip(plain.nodes, traced.nodes):
            assert a.speed == b.speed
            assert a.digest.means.tobytes() == b.digest.means.tobytes()
            assert a.digest.spreads.tobytes() == b.digest.spreads.tobytes()
        assert not np.array_equal(plain.load_series[0], traced.load_series[0])


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
    # confidence intervals and the node table's int64 arrays need these
    with pytest.raises(ConfigError, match="finite"):
        ScenarioConfig(z=float("inf"))
    with pytest.raises(ConfigError, match="digest_cardinality"):
        ScenarioConfig(digest_cardinality=2**63)


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
    assert series[:, 0].tolist() == [0.5, 0.25, 1.0]


def test_round_robin_partition(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("step,cpu\n0,1\n1,2\n2,3\n3,4\n4,5\n", encoding="utf-8")
    series = ingest_utilization_trace(path, n_nodes=2, column="cpu")
    assert series.shape == (2, 2)  # every node gets as many epochs; the odd row is cut
    assert series[:, 0].tolist() == [0.01, 0.03]
    assert series[:, 1].tolist() == [0.02, 0.04]


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


def test_whitespace_rows_are_skipped_and_a_blank_value_is_reported(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("step,cpu\n0,10\n\n , \n\t\n1,20\n", encoding="utf-8")
    assert ingest_utilization_trace(path, 1, column="cpu")[:, 0].tolist() == [0.1, 0.2]
    path.write_text("step,cpu\n0,10\n , \n2, \n", encoding="utf-8")
    with pytest.raises(DataError, match="trace.csv:4: utilisation value ' '"):
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
    assert series.shape == (1000, 3) and 0.0 <= series.min() and series.max() <= 1.0
    raw = ingest_utilization_trace(path, n_nodes=1)[:, 0]
    # utilisation evolves smoothly, so a round-robin split leaves nodes with
    # similar loads at each epoch
    assert np.abs(np.diff(raw)).max() < 0.05


def _reference_trace(rows, seed):
    """The trace file's text, from the AR(1) loop written one CSV row at a time."""
    rng = np.random.default_rng([seed, 0x7ACE])
    t = np.arange(rows)
    base = 35.0 + 18.0 * np.sin(2.0 * np.pi * t / 45000.0)
    noise = np.empty(rows)
    state = 0.0
    shocks = rng.normal(0.0, 0.3, size=rows)
    for i in range(rows):
        state = 0.9 * state + shocks[i]
        noise[i] = state
    values = np.clip(base + noise, 1.0, 99.0)
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["step", "cpu_util"])
    for i, v in enumerate(values):
        writer.writerow([i, f"{v:.4f}"])
    return out.getvalue()


@pytest.mark.parametrize("seed, rows", [(0, 60000), (1, 5000), (7, 5000), (4, 1)])
def test_generated_trace_matches_the_reference_loop(tmp_path, seed, rows):
    path = generate_utilization_trace(tmp_path / "trace.csv", rows=rows, seed=seed)
    assert path.read_bytes() == _reference_trace(rows, seed).encode("utf-8")


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
    """ova_allocate replays simulate_run's picks; neither tallies votes,
    simulate_run builds no AllocationDecision, and every pick is the full
    one-vs-all ranking's, under both load modes."""
    config, classifier, bundle = trained
    made = []  # (fused, picks, node ids, loads) of every decision, in order

    def recording(features, node_ids, loads, *args, **kwargs):
        fused, picks = decide_from_features(features, node_ids, loads, *args, **kwargs)
        made.append((fused, picks, node_ids, loads.copy()))
        return fused, picks

    def no_tally(fused):
        raise AssertionError("the decision path tallied votes")

    def no_decision(*args, **kwargs):
        raise AssertionError("simulate_run built an AllocationDecision")

    monkeypatch.setattr(allocator, "tally_votes", no_tally)
    monkeypatch.setattr(simulator, "decide_from_features", recording)
    for load_mode in ("trace_replay", "queue_dynamics"):
        scenario = generate_scenario(replace(config, load_mode=load_mode))
        made.clear()
        with monkeypatch.context() as patch:
            for module in (allocator, simulator):
                patch.setattr(module, "AllocationDecision", no_decision)
            result = simulate_run(scenario, bundle, scheme, classifier, k=k)
        run = [tuple(node_ids[picks].tolist()) for _, picks, node_ids, _ in made]
        assert [selected[0] for selected in run] == [r.selected_node for r in result.records]
        for fused, picks, node_ids, loads in made:
            assert picks.tolist() == reference_ranking(fused, loads, node_ids, k).tolist()
        if load_mode != "trace_replay":
            continue
        replayed = []
        for t, query in enumerate(scenario.queries):
            for node, load in zip(scenario.nodes, scenario.loads_at(t)):
                node.load = float(load)
            replayed.append(
                ova_allocate(query, scenario.nodes, bundle, scheme, classifier, alpha=config.alpha, z=config.z, k=k)
            )
        assert [d.selected for d in replayed] == run
        assert all(len(d.selected) == k for d in replayed)
        # the vote, not only the load tie-break, decides some of these picks
        assert any(0 < d.fused_labels.sum() < len(d.fused_labels) for d in replayed)


def test_each_decision_column_holds_its_own_feature(trained, monkeypatch):
    """Column j of every matrix a run hands ``decide_from_features`` is
    feature ``CONTEXT_FEATURES[j]``, each computed here on its own."""
    config, classifier, bundle = trained
    seen = []

    def recording(features, *args, **kwargs):
        seen.append(features.copy())
        return decide_from_features(features, *args, **kwargs)

    monkeypatch.setattr(simulator, "decide_from_features", recording)
    scenario = generate_scenario(config)
    simulate_run(scenario, bundle, "mvs", classifier)
    nodes = scenario.nodes
    ci = confidence_intervals(
        np.stack([n.digest.means for n in nodes]),
        np.stack([n.digest.spreads for n in nodes]),
        np.array([n.digest.cardinality for n in nodes]),
        config.z,
    )
    assert len(seen) == len(scenario.queries)
    for t, (query, features) in enumerate(zip(scenario.queries, seen)):
        expected = {
            "complexity": complexity_scalar(classifier.classify_statement(query.statement)[0]),
            "deadline": query.deadline,
            "relevance": relevance_batch(query.constraints.intervals, ci, config.alpha),
            "load": scenario.loads_at(t),
            "speed": [n.speed for n in nodes],
        }
        assert features.shape == (len(nodes), len(CONTEXT_FEATURES))
        for j, name in enumerate(CONTEXT_FEATURES):
            np.testing.assert_array_equal(features[:, j], np.broadcast_to(expected[name], len(nodes)), err_msg=name)


def test_training_rows_and_their_csv_header_share_the_decision_layout(tmp_path):
    """The training CSV's header is ``CONTEXT_FEATURES`` plus the label, and
    each synthesized column is the feature its header names."""
    config = cfg(deadline_max=10.0)
    policy = LabelingPolicy(max_relevance=0.5, max_load=0.5, min_speed=0.4)
    data = synthesize_training_set(generate_scenario(config), policy, 600)
    _write_training_csv(tmp_path / "training.csv", data)
    with open(tmp_path / "training.csv", newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh))
    assert header == list(CONTEXT_FEATURES) + ["label"]
    column = {name: data.features[:, j] for j, name in enumerate(header[:-1])}
    # the labels are the policy on the relevance, load and speed columns, and not with load and speed swapped
    assert (policy.label(column["relevance"], column["load"], column["speed"]) == data.labels).all()
    assert (policy.label(column["relevance"], column["speed"], column["load"]) != data.labels).any()
    assert 0 < column["complexity"].min() and column["complexity"].max() <= 1
    assert column["deadline"].max() > 1  # drawn on [0, deadline_max)


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


@pytest.mark.parametrize("scheme", ["cs", "mvs"])
def test_a_warm_classifier_memo_leaves_every_pick_unchanged(trained, scheme):
    config, _, bundle = trained
    scenario = generate_scenario(config)
    cold = ComplexityClassifier(generate_query_corpus())
    warm = ComplexityClassifier(generate_query_corpus())
    for seed in (1, 2):  # other streams fill the memo with the same keys
        for query in generate_scenario(replace(config, seed=seed)).queries:
            warm.classify_statement(query.statement)
    assert len(warm._memo) > 0 and len(cold._memo) == 0
    picks = lambda clf: [r.selected_node for r in simulate_run(scenario, bundle, scheme, clf).records]  # noqa: E731
    assert picks(warm) == picks(cold)
