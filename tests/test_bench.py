import warnings
from dataclasses import replace


from edgealloc import bench
from edgealloc.bench import BenchCell, LearnerSetup, run_cells
from edgealloc.simulator import LabelingPolicy, ScenarioConfig

warnings.filterwarnings("ignore", message=".*single class.*")

POLICY = LabelingPolicy(max_relevance=0.5, max_load=0.5, min_speed=0.0)
BASE = ScenarioConfig(n_nodes=50, n_queries=300, dims=1, seed=0)


def picks(result):
    return [r.selected_node for r in result.records]


def test_cell_does_not_reuse_a_bundle_trained_on_other_digests():
    # the training set depends on digest_cardinality; a cell that follows one
    # with another cardinality must decide as if it ran alone
    big = BenchCell(replace(BASE, digest_cardinality=10_000_000), "cs")
    small = BenchCell(replace(BASE, digest_cardinality=100), "cs")
    (_, after), failures = run_cells([big, small], POLICY)
    assert not failures
    (alone,), failures = run_cells([small], POLICY)
    assert not failures
    assert picks(after) == picks(alone)


def test_training_is_keyed_on_every_field_but_size(monkeypatch):
    trained = []
    synthesize = bench.synthesize_training_set

    def recording(scenario, policy, size):
        trained.append(scenario.config)
        return synthesize(scenario, policy, size)

    monkeypatch.setattr(bench, "synthesize_training_set", recording)
    base = replace(BASE, n_queries=5)
    configs = [
        base,
        replace(base, n_nodes=7, n_queries=9),  # shares the first cell's bundle
        replace(base, load_speed_corr=0.9),
        replace(base, digest_cardinality=100),
    ]
    cells = [BenchCell(c, scheme) for c in configs for scheme in ("cs", "mvs")]
    _results, failures = run_cells(cells, POLICY, setup=LearnerSetup(training_size=600))
    assert not failures
    assert trained == [replace(c, n_nodes=1, n_queries=1) for c in configs if c is not configs[1]]
