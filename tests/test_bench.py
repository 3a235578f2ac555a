import csv
import hashlib
import json
import warnings
from dataclasses import replace

import pytest

from edgealloc import bench
from edgealloc.bench import BenchCell, LearnerSetup, grid_cells, run_cells
from edgealloc.simulator import (
    LabelingPolicy,
    ScenarioConfig,
    generate_scenario,
    generate_utilization_trace,
    save_scenario,
)

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


SMALL_SETUP = LearnerSetup(boost_rounds=3, bagging_bags=3, training_size=300)


@pytest.mark.parametrize("keep", ["whole_rows", "mid_row"])
def test_resume_reuses_a_complete_run_file_and_reruns_a_truncated_one(tmp_path, monkeypatch, keep):
    cells = [BenchCell(replace(BASE, n_nodes=4, n_queries=20), scheme) for scheme in ("cs", "mvs")]
    written = []
    emit_run = bench.emit_run
    monkeypatch.setattr(bench, "emit_run", lambda result, out: written.append(result.label()) or emit_run(result, out))
    first, failures = run_cells(cells, POLICY, setup=SMALL_SETUP, out_dir=tmp_path)
    assert not failures
    assert written == [c.label() for c in cells]  # each run file is written once
    assert (tmp_path / "summary.csv").exists()

    truncated = tmp_path / f"run_{cells[1].label()}.csv"
    text = truncated.read_text(encoding="utf-8")
    lines = text.splitlines(keepends=True)
    cut = {"whole_rows": "".join(lines[:11]), "mid_row": text[: len("".join(lines[:11])) + 9]}[keep]
    truncated.write_text(cut, encoding="utf-8")  # the header and 10 of 20 rows, or a bit more

    ran = []
    simulate = bench.simulate_run
    monkeypatch.setattr(bench, "simulate_run", lambda scenario, *a, **kw: ran.append(scenario.config) or simulate(scenario, *a, **kw))
    messages = []
    again, failures = run_cells(cells, POLICY, setup=SMALL_SETUP, out_dir=tmp_path, resume=True, progress=messages.append)
    assert not failures
    assert ran == [cells[1].config]
    assert "skipped" in messages[0] and "running again" in messages[1]
    assert [picks(r) for r in again] == [picks(r) for r in first]
    assert len(truncated.read_text(encoding="utf-8").splitlines()) == 21


@pytest.mark.parametrize("stale", ["record_not_utf8", "decision_ms_negative"])
def test_resume_reruns_a_cell_whose_files_cannot_be_taken_back(tmp_path, monkeypatch, stale):
    cells = [BenchCell(replace(BASE, n_nodes=4, n_queries=20), scheme) for scheme in ("cs", "mvs")]
    (_, first), failures = run_cells(cells, POLICY, setup=SMALL_SETUP, out_dir=tmp_path)
    assert not failures
    run_path = tmp_path / f"run_{cells[1].label()}.csv"
    if stale == "record_not_utf8":
        run_path.with_suffix(".json").write_bytes(b"\xff\xfe")
    else:
        with open(run_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        with open(run_path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([rows[0]] + [row[:-1] + ["-0.500000"] for row in rows[1:]])
    ran = []
    simulate = bench.simulate_run
    monkeypatch.setattr(bench, "simulate_run", lambda scenario, *a, **kw: ran.append(scenario.config) or simulate(scenario, *a, **kw))
    messages = []
    (_, again), failures = run_cells(cells, POLICY, setup=SMALL_SETUP, out_dir=tmp_path, resume=True,
                                     progress=messages.append)
    assert not failures
    assert ran == [cells[1].config]
    assert "skipped" in messages[0] and "running again" in messages[1]
    assert picks(again) == picks(first)
    assert again.column("decision_ms").min() > 0


def test_resume_runs_on_past_a_record_it_cannot_read(tmp_path):
    # a record that is a directory cannot be read or replaced: that cell
    # fails, and the sweep goes on to the next one
    cells = [BenchCell(replace(BASE, n_nodes=4, n_queries=20), scheme) for scheme in ("cs", "mvs")]
    (_, first), failures = run_cells(cells, POLICY, setup=SMALL_SETUP, out_dir=tmp_path)
    assert not failures
    record = tmp_path / f"run_{cells[0].label()}.json"
    record.unlink()
    record.mkdir()
    messages = []
    results, failures = run_cells(cells, POLICY, setup=SMALL_SETUP, out_dir=tmp_path, resume=True,
                                  progress=messages.append)
    assert [label for label, _ in failures] == [cells[0].label()]
    assert "running again" in messages[0] and "FAILED" in messages[1] and "skipped" in messages[2]
    assert picks(results[-1]) == picks(first)


def test_resume_reruns_a_run_file_written_under_another_config(tmp_path):
    narrow = BenchCell(replace(BASE, n_nodes=4, n_queries=20), "cs")
    wide = BenchCell(replace(narrow.config, dims=5, alpha=3.0), "cs")
    assert narrow.label() == wide.label()  # same run file name
    (first,), failures = run_cells([narrow], POLICY, setup=SMALL_SETUP, out_dir=tmp_path)
    assert not failures
    messages = []
    (resumed,), failures = run_cells([wide], POLICY, setup=SMALL_SETUP, out_dir=tmp_path, resume=True, progress=messages.append)
    assert not failures
    assert "records another config; running again" in messages[0]
    (fresh,), failures = run_cells([wide], POLICY, setup=SMALL_SETUP)
    assert not failures
    assert picks(resumed) == picks(fresh) != picks(first)

    (tmp_path / f"run_{wide.label()}.json").unlink()
    messages.clear()
    run_cells([wide], POLICY, setup=SMALL_SETUP, out_dir=tmp_path, resume=True, progress=messages.append)
    assert "no config record" in messages[0] and "running again" in messages[0]
    messages.clear()
    (again,), _ = run_cells([wide], POLICY, setup=SMALL_SETUP, out_dir=tmp_path, resume=True, progress=messages.append)
    assert "skipped" in messages[0]
    assert picks(again) == picks(fresh)


def test_resume_reruns_a_trace_cell_whose_trace_changed(tmp_path):
    trace = tmp_path / "trace.csv"
    generate_utilization_trace(trace, rows=500, seed=0)
    cell = BenchCell(replace(BASE, n_nodes=3, n_queries=20, trace_path=str(trace)), "cs")
    (first,), failures = run_cells([cell], POLICY, setup=SMALL_SETUP, out_dir=tmp_path / "out")
    assert not failures
    generate_utilization_trace(trace, rows=20, seed=0)  # same path, other contents
    messages = []
    (resumed,), failures = run_cells([cell], POLICY, setup=SMALL_SETUP, out_dir=tmp_path / "out",
                                     resume=True, progress=messages.append)
    assert not failures
    assert "records another config; running again" in messages[0]
    (fresh,), failures = run_cells([cell], POLICY, setup=SMALL_SETUP, out_dir=tmp_path / "fresh")
    assert not failures
    assert picks(resumed) == picks(fresh) != picks(first)
    name = f"run_{cell.label()}.csv"
    assert run_rows(tmp_path / "out" / name) == run_rows(tmp_path / "fresh" / name)


def run_rows(path):
    """A run file's rows without the measured ``decision_ms`` column."""
    with open(path, newline="", encoding="utf-8") as fh:
        return [row[:-1] for row in csv.reader(fh)]


def test_cells_of_one_config_share_one_scenario(tmp_path, monkeypatch):
    cells = [BenchCell(replace(BASE, n_nodes=6, n_queries=40), scheme) for scheme in ("cs", "mvs")]
    built = []

    def recording(cfg):
        built.append(generate_scenario(cfg))
        return built[-1]

    monkeypatch.setattr(bench, "generate_scenario", recording)
    _, failures = run_cells(cells, POLICY, setup=SMALL_SETUP, out_dir=tmp_path / "shared")
    assert not failures
    # one build for the training key and one for the config the two cells share
    assert [s.config for s in built] == [replace(cells[0].config, n_nodes=1, n_queries=1), cells[0].config]
    for cell in cells:  # one cell per sweep builds its scenario anew
        _, failures = run_cells([cell], POLICY, setup=SMALL_SETUP, out_dir=tmp_path / "alone")
        assert not failures
    assert len(built) == 6
    for cell in cells:
        name = f"run_{cell.label()}.csv"
        assert run_rows(tmp_path / "shared" / name) == run_rows(tmp_path / "alone" / name)
    # both runs left the shared scenario as it was built
    save_scenario(tmp_path / "after.json", built[1])
    save_scenario(tmp_path / "fresh.json", generate_scenario(cells[0].config))
    assert (tmp_path / "after.json").read_bytes() == (tmp_path / "fresh.json").read_bytes()


# sha256 of the picks below, one line of comma-separated node ids per run;
# a change that moves any pick changes it
PICKS_DIGEST = "c53932332466c99a5be828de978f14b7351daad74a9b45662fc01dedfe7c4b3f"


def test_picks_match_the_pinned_digest(tmp_path):
    # a small fixed grid through the default learner setup: CS and MVS on
    # uniform and gaussian nodes at N 10 and 50, one trace cell at dims 10,
    # and one queue-dynamics run under the default policy
    trace = generate_utilization_trace(tmp_path / "trace.csv", rows=2000, seed=0)
    cells = grid_cells(replace(BASE, n_queries=200), ["cs", "mvs"], ["uniform", "gaussian"], (10, 50), (0,))
    cells += grid_cells(replace(BASE, n_queries=200, dims=10), ["cs"], ["trace"], (50,), (0,), trace_path=str(trace))
    runs, failures = run_cells(cells, POLICY)
    assert not failures
    queue = ScenarioConfig(n_nodes=20, n_queries=200, dims=5, distribution="gaussian",
                           load_mode="queue_dynamics", service_rate=1.5, queue_capacity=20)
    queued, failures = run_cells([BenchCell(queue, "mvs")], LabelingPolicy())
    assert not failures
    digest = hashlib.sha256()
    for result in runs + queued:
        digest.update(",".join(map(str, picks(result))).encode() + b"\n")
    assert digest.hexdigest() == PICKS_DIGEST


# sha256 of the records ``train_bundle`` writes on each layerbench workload's
# training config (seed 0); a change that moves any threshold, leaf
# probability or weight changes it
RECORD_DIGESTS = {
    "sweep-small-n uniform": "1d8a1f4894fa5f0dfaec46e54f6accfc8b07e02bf157ab2948c4ee77412a82bc",
    "sweep-small-n gaussian": "bd74f61a3c4dd80b6f13c9024302c0c33cc207ad404cc17a2b1d21bac4a043d0",
    "replay-large-n": "ae8ced5b68fe2ad89041e35d4e3ba2092ebb6f5fa7d7bf9ad044afae3a9e1e1f",
    "queue-feedback": "f09c1e5199ec28076b2e61c547020a4496b5e9c5fe2e02e75442e37bc799ea4b",
}


def test_trained_records_match_the_pinned_digests(tmp_path):
    trace = generate_utilization_trace(tmp_path / "trace.csv", rows=60000, seed=0)
    sweep = ScenarioConfig(n_nodes=1, n_queries=1, dims=1)
    configs = {
        "sweep-small-n uniform": (sweep, POLICY),
        "sweep-small-n gaussian": (replace(sweep, distribution="gaussian"), POLICY),
        "replay-large-n": (
            ScenarioConfig(n_nodes=1, n_queries=1, dims=10, alpha=1.0, trace_path=str(trace)),
            LabelingPolicy(max_relevance=0.6, max_load=0.5, min_speed=0.0),
        ),
        "queue-feedback": (
            ScenarioConfig(n_nodes=1, n_queries=1, dims=5, distribution="gaussian",
                           load_mode="queue_dynamics", service_rate=1.5, queue_capacity=20),
            LabelingPolicy(),
        ),
    }
    setup = LearnerSetup()
    digests = {}
    for name, (cfg, policy) in configs.items():
        data = bench.synthesize_training_set(generate_scenario(cfg), policy, setup.training_size)
        bundle = bench.train_bundle(data, setup, seed=0)
        records = [json.dumps(m.to_dict(), sort_keys=True) for m in bundle.models()]
        digests[name] = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digests == RECORD_DIGESTS
