import csv
import math

import numpy as np
import pytest

from edgealloc.errors import DataError
from edgealloc.metrics import (
    QueryRecord,
    RunResult,
    allocation_throughput,
    emit_run,
    emit_summary,
    load_run,
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


def gaps(rec):
    """(load_gap, speed_gap) of one record, as its run file holds them."""
    run = run_with([rec])
    return (float(run.column("load_gap")[0]), float(run.column("speed_gap")[0]))


def test_gap_computation():
    load_gap, speed_gap = gaps(record(load_sel=0.3, load_min=0.1))
    assert load_gap == pytest.approx(0.2)


def test_fastest_node_selected_gives_zero_speed_gap():
    _, speed_gap = gaps(record(speed_sel=0.9, speed_max=0.9))
    assert speed_gap == 0.0


def test_optimal_decision_gives_zero_gaps():
    assert gaps(record(load_sel=0.1, load_min=0.1, speed_sel=0.9, speed_max=0.9)) == (0.0, 0.0)


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
    results = _grid_results()
    run_files = [emit_run(r, tmp_path) for r in results]
    assert emit_summary(results, tmp_path) == tmp_path / "summary.csv"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [p.name for p in run_files] + ["summary.csv"]
    )
    assert len(run_files) == 32
    with open(run_files[0]) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    assert rows[0]["scheme"] in ("cs", "mvs")


def test_rerun_reproduces_everything_but_timing(tmp_path):
    def run(ms):
        return run_with([record(ms=ms, idx=i) for i in range(4)], "cs", "uniform", 10, 0)

    emit_run(run(1.0), tmp_path / "a")
    emit_run(run(2.0), tmp_path / "b")  # same seed, different wall clock

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
        emit_run(_grid_results()[0], target)  # a file, not a directory
    with pytest.raises(DataError):
        emit_summary(_grid_results(), target)


def test_load_run_reads_back_what_emit_run_wrote(tmp_path):
    original = run_with([record(ms=0.5 + i, idx=i, node=i) for i in range(3)], "mvs", "trace", 7, 4)
    loaded = load_run(emit_run(original, tmp_path), 3)
    assert (loaded.scheme, loaded.distribution, loaded.n_nodes, loaded.seed) == ("mvs", "trace", 7, 4)
    assert loaded.records == original.records


def test_load_run_rejects_a_row_that_breaks_a_record_invariant(tmp_path):
    for bad in (
        record(load_sel=0.05, load_min=0.1, idx=1),
        record(speed_sel=0.95, speed_max=0.9, idx=1),
        record(ms=-0.5, idx=1),
        record(ms=0.0, idx=1),
        record(ms=math.inf, idx=1),
        record(load_min=math.nan, idx=1),
    ):
        path = emit_run(run_with([record(idx=0), bad, record(idx=2)]), tmp_path)
        with pytest.raises(DataError, match=r"run_cs_uniform_n10_seed0\.csv, query 1:"):
            load_run(path, 3)


@pytest.mark.parametrize("cut", ["", "header", "whole_rows", "mid_row", "mid_value"])
def test_load_run_rejects_empty_and_cut_files(tmp_path, cut):
    path = emit_run(run_with([record(ms=1.25, idx=i) for i in range(3)]), tmp_path)
    text = path.read_text(encoding="utf-8")
    header_end = text.index("\n") + 1
    keep = {
        "": 0,
        "header": header_end,
        "whole_rows": text.index("\n", header_end) + 1,  # one of three rows
        "mid_row": text.index(",", header_end + 20),  # a row cut after a few columns
        "mid_value": len(text) - 3,  # the last decision_ms loses its last digit
    }[cut]
    path.write_text(text[:keep], encoding="utf-8")
    with pytest.raises(DataError):
        load_run(path, 3)


def test_a_summary_reads_the_same_from_fresh_runs_and_their_files(tmp_path):
    # values past the ninth decimal, where the file's rounding of a gap and
    # the gap of the file's rounded loads differ
    rng = np.random.default_rng(0)
    results = []
    for seed in range(3):
        loads, speeds = np.sort(rng.uniform(0, 1, (2, 50, 2)), axis=-1)
        recs = [
            record(load_sel=load[1], load_min=load[0], speed_sel=speed[0], speed_max=speed[1], ms=ms, idx=i)
            for i, (load, speed, ms) in enumerate(zip(loads, speeds, rng.uniform(0.1, 2, 50)))
        ]
        results.append(run_with(recs, seed=seed))
    loaded = [load_run(emit_run(r, tmp_path / "runs"), 50) for r in results]
    assert (np.round(loaded[0].load_gaps(), 9) != loaded[0].column("load_gap")).any()  # the case is exercised
    fresh = emit_summary(results, tmp_path / "fresh").read_bytes()
    assert emit_summary(loaded, tmp_path / "loaded").read_bytes() == fresh
    for r, back in zip(results, loaded):
        for col in ("load_gap", "speed_gap", "load_selected", "decision_ms"):
            np.testing.assert_array_equal(r.column(col), back.column(col))
