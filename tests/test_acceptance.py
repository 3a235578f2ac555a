"""End-to-end verification suite.

Each test enforces one release criterion at its stated tolerance and prints a
single PASS line with the measured numbers (run pytest with -s to see them).
The two heavyweight fixtures (the benchmark grid and the sensitivity grid)
are shared module-wide and dominate the module's runtime.
"""

import itertools
import math
import time
import warnings

import numpy as np
import pytest

from edgealloc.allocator import FusionScheme, decide_from_features, fuse_batch, tally_votes
from edgealloc.bench import LearnerSetup, grid_cells, run_cells
from edgealloc.complexity import (
    ComplexityParams,
    hamacher_fold,
    leave_one_out_accuracy,
    quasi_arithmetic_mean,
)
from edgealloc.learners import BaseLearnerSpec, bootstrap_indices, train_adaboost, train_stacking
from edgealloc.learners.base import LabeledDataset
from edgealloc.metrics import summarise_runs
from edgealloc.relevance import relevance_batch
from edgealloc.simulator import (
    LabelingPolicy,
    ScenarioConfig,
    generate_query_corpus,
    generate_utilization_trace,
)

warnings.filterwarnings("ignore", message=".*single class.*")

SEEDS = tuple(range(10))
N_VALUES = (10, 50, 100, 500)
GRID_POLICY = LabelingPolicy(max_relevance=0.5, max_load=0.5, min_speed=0.0)


class _FixedLabels:
    """Labels each row by its own load (feature 3): the row whose load is
    ``loads[i]`` gets ``labels[i]``, whichever rows the model is shown."""

    def __init__(self, labels, loads):
        self.labels = np.asarray(labels, dtype=int)
        self.loads = np.asarray(loads, dtype=float)
        self.n_features = 5

    def predict_batch(self, x):
        match = np.asarray(x)[:, 3][:, None] == self.loads[None, :]
        assert match.any(axis=1).all(), "row load not among the stub's loads"
        return self.labels[match.argmax(axis=1)]


@pytest.fixture(scope="module")
def benchmark_grid():
    """{cs, mvs} x {uniform, gaussian} x N x 10 seeds at 1000 queries each."""
    base = ScenarioConfig(n_queries=1000, dims=1)
    cells = grid_cells(base, ["cs", "mvs"], ["uniform", "gaussian"], N_VALUES, SEEDS)
    started = time.perf_counter()
    results, failures = run_cells(cells, GRID_POLICY)
    elapsed = time.perf_counter() - started
    assert not failures, failures
    rows = {(r["scheme"], r["distribution"], r["n_nodes"]): r for r in summarise_runs(results)}
    return {"results": results, "rows": rows, "elapsed": elapsed}


@pytest.fixture(scope="module")
def sensitivity_grid(tmp_path_factory):
    """Trace-driven recipe swept over the dimension count and the
    aggregation exponent, 5 seeds."""
    trace = tmp_path_factory.mktemp("trace") / "trace.csv"
    generate_utilization_trace(trace, rows=60000, seed=0)
    started = time.perf_counter()
    rows = []
    for dims, alpha in ((10, 1.0), (50, 1.0), (10, 0.5), (10, 5.0)):
        # the exponent rescales relevance monotonically; the threshold moves
        # with it so the effective data-match policy stays fixed
        policy = LabelingPolicy(max_relevance=0.6 ** (1.0 / alpha), max_load=0.5, min_speed=0.0)
        base = ScenarioConfig(n_queries=1000, dims=dims, alpha=alpha)
        cells = grid_cells(base, ["cs", "mvs"], ["trace"], N_VALUES, range(5), trace_path=str(trace))
        results, failures = run_cells(cells, policy)
        assert not failures, failures
        for row in summarise_runs(results):
            row["dims"], row["alpha"] = dims, alpha
            rows.append(row)
    return {"rows": rows, "elapsed": time.perf_counter() - started}


def test_criterion_1_complexity_classification_self_consistency():
    started = time.perf_counter()
    corpus = generate_query_corpus(per_class=30)
    assert len(corpus) == 90
    accuracy = leave_one_out_accuracy(corpus, ComplexityParams(threshold=0.8))
    strict = leave_one_out_accuracy(corpus, ComplexityParams(threshold=0.9))
    elapsed = time.perf_counter() - started
    assert accuracy >= 0.9
    assert strict < accuracy
    assert elapsed < 10.0
    print(
        f"ACCEPTANCE 1 PASS: leave-one-out accuracy {accuracy:.3f} at threshold 0.8, "
        f"{strict:.3f} at 0.9 ({elapsed:.2f}s)"
    )


def test_criterion_2_load_gap_level_and_trend(benchmark_grid):
    rows = benchmark_grid["rows"]
    at_500 = rows[("cs", "uniform", 500)]["mean_load_gap"]
    assert at_500 <= 0.05
    for scheme in ("cs", "mvs"):
        big = rows[(scheme, "uniform", 500)]["mean_load_gap"]
        small = rows[(scheme, "uniform", 10)]["mean_load_gap"]
        assert big < small
    assert benchmark_grid["elapsed"] < 300.0
    print(
        f"ACCEPTANCE 2 PASS: cs/uniform load gap {at_500:.4f} at N=500 "
        f"(vs {rows[('cs', 'uniform', 10)]['mean_load_gap']:.4f} at N=10); "
        f"grid took {benchmark_grid['elapsed']:.0f}s"
    )


def test_criterion_3_conjunctive_beats_majority_on_load_gap(benchmark_grid):
    rows = benchmark_grid["rows"]
    checked = []
    for dist in ("uniform", "gaussian"):
        for n in (50, 100, 500):  # N=10 is the documented exception
            cs = rows[("cs", dist, n)]["mean_load_gap"]
            mvs = rows[("mvs", dist, n)]["mean_load_gap"]
            assert cs <= mvs, f"{dist} N={n}: cs {cs} > mvs {mvs}"
            checked.append(f"{dist}/N={n}: {cs:.5f}<={mvs:.5f}")
    print(f"ACCEPTANCE 3 PASS: conjunctive <= majority on mean load gap ({'; '.join(checked)})")


def test_criterion_4_speed_load_tradeoff(benchmark_grid):
    rows = benchmark_grid["rows"]
    for scheme in ("cs", "mvs"):
        speed_gaps = [rows[(scheme, "uniform", n)]["mean_speed_gap"] for n in N_VALUES]
        load_gaps = [rows[(scheme, "uniform", n)]["mean_load_gap"] for n in N_VALUES]
        assert all(b >= a for a, b in zip(speed_gaps, speed_gaps[1:])), speed_gaps
        assert all(b <= a for a, b in zip(load_gaps, load_gaps[1:])), load_gaps
    cs_speed = [rows[("cs", "uniform", n)]["mean_speed_gap"] for n in N_VALUES]
    cs_load = [rows[("cs", "uniform", n)]["mean_load_gap"] for n in N_VALUES]
    print(
        "ACCEPTANCE 4 PASS: speed gap non-decreasing "
        f"({', '.join(f'{v:.3f}' for v in cs_speed)}) while load gap non-increasing "
        f"({', '.join(f'{v:.4f}' for v in cs_load)}) over N={list(N_VALUES)}"
    )


def test_criterion_5_throughput_finite_and_decreasing(benchmark_grid):
    rows = benchmark_grid["rows"]
    for (scheme, dist, n), row in rows.items():
        assert math.isfinite(row["mean_throughput"]) and row["mean_throughput"] > 0
    reported = {}
    for scheme in ("cs", "mvs"):
        series = [rows[(scheme, "uniform", n)]["mean_throughput"] for n in N_VALUES]
        assert all(b < a for a, b in zip(series, series[1:])), series
        reported[scheme] = series
    print(
        "ACCEPTANCE 5 PASS: throughput decreases with N "
        f"(cs: {', '.join(f'{v:.3f}' for v in reported['cs'])} queries/ms; "
        f"mvs: {', '.join(f'{v:.3f}' for v in reported['mvs'])}); absolute values reported only"
    )


def test_criterion_6_fusion_truth_tables():
    started = time.perf_counter()
    triples = np.array(list(itertools.product((0, 1), repeat=3)))
    for y, cs, mvs in zip(triples, fuse_batch(triples, FusionScheme.CS), fuse_batch(triples, FusionScheme.MVS)):
        assert cs == y[0] * y[1] * y[2]
        assert mvs == (1 if sum(y) >= 2 else 0)
        assert cs <= mvs
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"ACCEPTANCE 6 PASS: both fusion schemes exact on all 8 triples ({elapsed:.3f}s)")


def test_criterion_7_vote_winner_matches_enumerator():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    combos = 0
    for n in range(1, 6):
        for fused in itertools.product((0, 1), repeat=n):
            loads = rng.uniform(0, 1, n)
            speeds = rng.uniform(0, 1, n)
            features = np.column_stack(
                [np.full(n, 0.4), np.full(n, 2.0), np.full(n, 0.1), loads, speeds]
            )
            model = _FixedLabels(list(fused), loads)
            from edgealloc.allocator import EnsembleBundle

            got, picks = decide_from_features(
                features, np.arange(n), loads,
                EnsembleBundle(model, model, model), FusionScheme.CS,
            )
            votes = [
                (1 if fused[i] else 0) + sum(1 for j in range(n) if j != i and not fused[j])
                for i in range(n)
            ]
            best = max(votes)
            winner = min(
                (i for i in range(n) if votes[i] == best), key=lambda i: (loads[i], i)
            )
            assert tally_votes(got).tolist() == votes
            assert picks.tolist() == [winner]
            combos += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"ACCEPTANCE 7 PASS: winner matches the brute-force enumerator on {combos} label combinations ({elapsed:.3f}s)")


def test_criterion_8_aggregator_properties():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    triples = rng.uniform(0, 1, (10_000, 3))
    for row in triples:
        assert abs(hamacher_fold(row, a=1.0) - row.prod()) <= 1e-12
        assert abs(quasi_arithmetic_mean(row, alpha=1.0) - row.mean()) <= 1e-12

    outer = np.sort(rng.uniform(0, 10, (10_000, 2)), axis=1)
    inner_lo = rng.uniform(outer[:, 0], outer[:, 1])
    inner_hi = rng.uniform(inner_lo, outer[:, 1])
    left = np.sort(rng.uniform(0, 4, (10_000, 2)), axis=1)
    right = np.sort(rng.uniform(5, 9, (10_000, 2)), axis=1)
    # one dimension and alpha 1: relevance is the per-dimension mismatch
    inner = np.stack([inner_lo, inner_hi], axis=1)
    assert (relevance_batch(inner[:, None], outer[:, None], alpha=1.0) == 0.0).all()
    assert (relevance_batch(left[:, None], right[:, None], alpha=1.0) == 1.0).all()
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"ACCEPTANCE 8 PASS: fold/mean/overlap identities hold on 10^4 random draws ({elapsed:.2f}s)")


def test_criterion_9_ensemble_sanity():
    # boosting: a band in one feature needs two cuts, so five stump rounds
    # must beat one
    x = np.linspace(0.01, 0.99, 30)[:, None]
    y = ((x[:, 0] > 0.3) & (x[:, 0] < 0.7)).astype(int)
    data = LabeledDataset(x, y)
    stump = BaseLearnerSpec(kind="cart_tree", max_depth=1)
    err_one = (train_adaboost(data, 1, stump, seed=0).predict_batch(x) != y).mean()
    err_five = (train_adaboost(data, 5, stump, seed=0).predict_batch(x) != y).mean()
    assert err_five < err_one

    rng = np.random.default_rng(99)
    n = 2000
    distinct = np.mean(
        [len(np.unique(bootstrap_indices(rng, n))) / n for _ in range(1000)]
    )
    assert abs(distinct - (1 - 1 / math.e)) <= 0.01

    wide = np.random.default_rng(3).uniform(0, 1, (200, 5))
    labels = (wide[:, 3] < 0.5).astype(int)
    stacked = train_stacking(
        LabeledDataset(wide, labels),
        (BaseLearnerSpec(kind="cart_tree", max_depth=2), BaseLearnerSpec(kind="logistic")),
        BaseLearnerSpec(kind="logistic"),
        seed=0,
    )
    assert stacked.heldout_label_reads_during_base_fit == 0
    print(
        f"ACCEPTANCE 9 PASS: boosted stumps {err_five:.3f} < single stump {err_one:.3f}; "
        f"bootstrap distinct fraction {distinct:.4f}; stacking held-out label reads 0"
    )


def test_criterion_10_sensitivity_to_dimensions_and_exponent(sensitivity_grid):
    worst = 0.0
    for row in sensitivity_grid["rows"]:
        assert row["mean_load_gap"] <= 0.05, row
        worst = max(worst, row["mean_load_gap"])
    assert sensitivity_grid["elapsed"] < 600.0
    print(
        f"ACCEPTANCE 10 PASS: load gap <= 0.05 in all {len(sensitivity_grid['rows'])} "
        f"trace-driven cells over L in (10, 50) and exponent in (0.5, 1, 5); "
        f"worst {worst:.4f} ({sensitivity_grid['elapsed']:.0f}s)"
    )


def test_trained_allocator_prefers_lightly_loaded_nodes(benchmark_grid):
    # at N=500 the selected nodes' mean load must sit strictly below the
    # population mean load, for both schemes, across all ten seeds
    for result in benchmark_grid["results"]:
        if result.n_nodes != 500 or result.distribution != "uniform":
            continue
        assert result.column("load_selected").mean() < 0.5
    print("ACCEPTANCE extra PASS: selected-node mean load below the population mean at N=500")
