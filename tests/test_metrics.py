import csv

import numpy as np
import pytest

from edgealloc.errors import DataError
from edgealloc.metrics import (
    QueryRecord,
    RunResult,
    allocation_throughput,
    density_estimate,
    emit_results,
    optimality_gaps,
    summarise_runs,
)


def record(load_sel=0.3, load_min=0.1, speed_sel=0.6, speed_max=0.9, ms=1.0, idx=0, node=0):
    return QueryRecord(
        query_index=idx,
        decision_ms=ms,
        selected_node=node,
        load_selected=load_sel,
        speed_selected=speed_sel,
        load_min=load_min,
        speed_max=speed_max,
    )


def run_with(records, scheme="cs", dist="uniform", n=10, seed=0):
    r = RunResult(scheme=scheme, distribution=dist, n_nodes=n, seed=seed)
    r.records.extend(records)
    return r


# ---------------------------------------------------------------------------
# throughput
# ---------------------------------------------------------------------------


def test_throughput_simple_cases():
    assert allocation_throughput([1.0] * 10) == pytest.approx(1.0)
    assert allocation_throughput([4.0] * 1000) == pytest.approx(0.25)


def test_throughput_rejects_zero_total():
    with pytest.raises(ValueError):
        allocation_throughput([0.0, 0.0])


# ---------------------------------------------------------------------------
# optimality gaps
# ---------------------------------------------------------------------------


def test_gap_computation():
    load_gap, speed_gap = optimality_gaps(record(load_sel=0.3, load_min=0.1))
    assert load_gap == pytest.approx(0.2)


def test_fastest_node_selected_gives_zero_speed_gap():
    _, speed_gap = optimality_gaps(record(speed_sel=0.9, speed_max=0.9))
    assert speed_gap == 0.0


def test_optimal_decision_gives_zero_gaps():
    gaps = optimality_gaps(record(load_sel=0.1, load_min=0.1, speed_sel=0.9, speed_max=0.9))
    assert gaps == (0.0, 0.0)


def test_record_invariant_enforced():
    with pytest.raises(ValueError):
        record(load_sel=0.05, load_min=0.1)
    with pytest.raises(ValueError):
        record(speed_sel=0.95, speed_max=0.9)


# ---------------------------------------------------------------------------
# density estimation
# ---------------------------------------------------------------------------


def test_uniform_samples_give_flat_density():
    rng = np.random.default_rng(0)
    centers, dens = density_estimate(rng.uniform(0, 1, 10_000), bins=20)
    assert np.all(np.abs(dens - 1.0) < 0.15)


def test_density_integrates_to_one():
    rng = np.random.default_rng(1)
    samples = rng.normal(5, 2, 5000)
    centers, dens = density_estimate(samples, bins=50)
    width = centers[1] - centers[0]
    assert float((dens * width).sum()) == pytest.approx(1.0, abs=1e-9)


def test_two_point_sample_two_bins():
    centers, dens = density_estimate([0.0, 1.0], bins=2)
    assert dens.tolist() == [1.0, 1.0]


def test_constant_sample_collapses_to_unit_bin():
    centers, dens = density_estimate([2.5, 2.5, 2.5], bins=10)
    assert centers.tolist() == [2.5]
    assert dens.tolist() == [1.0]


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _grid_results():
    results = []
    for scheme in ("cs", "mvs"):
        for dist in ("uniform", "gaussian"):
            for n in (10, 50, 100, 500):
                for seed in (0, 1):
                    recs = [record(ms=0.5 + seed, idx=i, node=i % n) for i in range(5)]
                    results.append(run_with(recs, scheme, dist, n, seed))
    return results


def test_summary_has_one_row_per_cell_with_errors():
    rows = summarise_runs(_grid_results())
    assert len(rows) == 16  # 2 schemes x 2 distributions x 4 node counts
    for row in rows:
        assert row["n_seeds"] == 2
        for metric in ("load_gap", "speed_gap", "decision_ms", "throughput", "load_selected"):
            assert f"mean_{metric}" in row
            assert f"se_{metric}" in row


def test_emit_writes_run_files_and_summary(tmp_path):
    paths = emit_results(_grid_results(), tmp_path)
    assert (tmp_path / "summary.csv").exists()
    run_files = [p for p in paths if p.name.startswith("run_")]
    assert len(run_files) == 32
    with open(run_files[0]) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    assert rows[0]["scheme"] in ("cs", "mvs")


def test_rerun_reproduces_everything_but_timing(tmp_path):
    def run(ms):
        return run_with([record(ms=ms, idx=i) for i in range(4)], "cs", "uniform", 10, 0)

    emit_results([run(1.0)], tmp_path / "a")
    emit_results([run(2.0)], tmp_path / "b")  # same seed, different wall clock

    def read(path):
        with open(path) as fh:
            return list(csv.DictReader(fh))

    rows_a = read(tmp_path / "a" / "run_cs_uniform_n10_seed0.csv")
    rows_b = read(tmp_path / "b" / "run_cs_uniform_n10_seed0.csv")
    for a, b in zip(rows_a, rows_b):
        for key in a:
            if key != "decision_ms":
                assert a[key] == b[key]


def test_emit_to_unwritable_path_raises(tmp_path):
    target = tmp_path / "file"
    target.write_text("x", encoding="utf-8")
    with pytest.raises(DataError):
        emit_results(_grid_results(), target)  # a file, not a directory
