"""Layered benchmark of edgealloc: end-to-end and per-layer figures.

Usage, from the root of a checkout:

    python3 layerbench/run.py --workload sweep-small-n --seed 0 --seconds 30 --trace 0

``--workload all`` runs the three workloads one after another in this one
process.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it holds the details behind them, the raw times among them, and
a record of the run goes to ``layerbench/out/``.  Times are reported at a
nominal machine speed measured by ``refclock`` around every ``simulate_run``
call.  README.md says what each figure means.
"""

from __future__ import annotations

import os

# one BLAS thread, set before NumPy is first imported: at these matrix sizes
# a pool sized to the machine adds noise and nothing else
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

END_TO_END = {
    "decisions_per_s": "1/s",
    "decision_ms_p50": "ms",
    "decision_ms_p99": "ms",
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "load_gap_mean": "load",
}

# per-decision layers: metric -> tracer spans whose self times make it up
DECISION_LAYERS = {
    "complexity.classify_us": ("complexity.classify", "complexity.pairwise"),
    "relevance.batch_us": ("relevance.batch",),
    "learners.boost.predict_us": ("learners.boost",),
    "learners.bagging.predict_us": ("learners.bagging",),
    "learners.stacking.predict_us": ("learners.stacking",),
    "allocator.fuse_us": ("allocator.fuse",),
    "allocator.rank_us": ("allocator.tally", "allocator.rank"),
    "simulator.apply_allocation_us": ("simulator.apply_allocation",),
    "simulator.loop_self_us": ("run.simulate",),
}
# set-up steps: tracer span -> metric, in seconds per round
SETUP_STEPS = {
    "setup.classifier": "complexity.classifier_s",
    "setup.scenario": "simulator.scenario_s",
    "setup.training_set": "simulator.training_set_s",
    "setup.train": "bench.train_s",
}
# per-decision counts: metric -> (tracer table, key)
DECISION_COUNTS = {
    "learners.boost.rows": ("counts", "boost.rows"),
    "learners.bagging.rows": ("counts", "bagging.rows"),
    "learners.stacking.rows": ("counts", "stacking.rows"),
    "allocator.rank_calls": ("calls", "allocator.rank"),
    "allocator.fused_positive": ("counts", "fused_positive"),
}
# per-round counts: metric -> call count of a tracer span
ROUND_COUNTS = {
    "complexity.statements_scored": "complexity.pairwise",
    "bench.bundles_trained": "setup.train",
}

PER_LAYER = {
    **{m: "us" for m in DECISION_LAYERS},
    "simulator.decision_us": "us",
    **{m: "count" for m in DECISION_COUNTS},
    **{m: "count" for m in ROUND_COUNTS},
    **{m: "s" for m in SETUP_STEPS.values()},
}


def _load_program() -> None:
    """Import edgealloc from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "edgealloc" / "__init__.py").is_file():
        sys.exit(f"layerbench: no program at {SRC / 'edgealloc'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import edgealloc

    if SRC.resolve() not in Path(edgealloc.__file__).resolve().parents:
        sys.exit(f"layerbench: imported edgealloc from {edgealloc.__file__}, not from {SRC}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    p.add_argument(
        "--plant-fault",
        choices=("pick",),
        default=None,
        help="move the first pick of every run to another node, to show the oracle catches it",
    )
    return p.parse_args(argv)


def _plant_pick_fault(scenario, result) -> None:
    """Move a run's first pick to the next node, with that node's figures.

    Under trace replay the load and speed columns stay consistent with the
    node state, so only the oracle can tell the pick is wrong.
    """
    rec = result.records[0]
    ids = [n.node_id for n in scenario.nodes]
    j = (ids.index(rec.selected_node) + 1) % len(ids)
    replay = scenario.config.load_mode == "trace_replay"
    result.records[0] = replace(
        rec,
        selected_node=ids[j],
        load_selected=float(scenario.load_series[0][j]) if replay else rec.load_selected,
        speed_selected=float(scenario.nodes[j].speed),
    )


class Round:
    """What one pass of the workload measured and what its checks found."""

    def __init__(self):
        self.wall_s = 0.0
        self.decision_ms = []  # in decision order, identical across rounds
        self.gaps = []
        self.attempted = 0
        self.failed = 0
        self.oracle_samples = 0
        self.failures = []
        self.trend = {}
        self.self_s = {}
        self.total_s = {}
        self.calls = {}
        self.counts = {}
        self.durations = {}
        self.probes = []  # reference kernel pass times (ms) taken in the round
        self.probe_s = 0.0  # time spent in those probes
        self.run_factors = []  # per simulate_run call: nominal / measured machine speed
        self.factor = 1.0  # the same for the whole round


def run_workload(name, args, out_dir):
    from edgealloc.simulator import generate_utilization_trace

    import workloads
    from refclock import NOMINAL_MS, ReferenceKernel
    from tracing import Tracer, install_coarse, install_fine

    trace_path = None
    if name == "replay-large-n":
        trace_path = out_dir / f"trace-{os.getpid()}.csv"
        rows = workloads.SIZES[args.size]["trace_rows"]
        generate_utilization_trace(trace_path, rows=rows, seed=workloads.TRACE_SEED)
    w = workloads.make_workload(name, args.seed, args.size, trace_path)
    checker = workloads.Checker()
    tracer = Tracer()
    kernel = ReferenceKernel()
    runs = []

    def probe():
        t0 = time.perf_counter()
        r.probes.append(kernel.measure_ms())
        r.probe_s += time.perf_counter() - t0

    def capture(counts, call_args, result):
        before = r.probes[-1]
        probe()
        if args.plant_fault == "pick":
            _plant_pick_fault(call_args[0], result)
        runs.append((call_args, result, NOMINAL_MS / ((before + r.probes[-1]) / 2.0)))

    rounds = []
    started = time.monotonic()
    try:
        install_coarse(tracer, before_run=probe, on_run=capture)
        if args.trace:
            install_fine(tracer)
        while not rounds or time.monotonic() - started < args.seconds:
            gc.collect()
            r = Round()
            tracer.reset()
            tracer.keep_spans = bool(args.trace) and not rounds
            runs.clear()
            t0 = time.perf_counter()
            r.failures = w.run_round()
            r.wall_s = time.perf_counter() - t0 - r.probe_s
            r.factor = NOMINAL_MS / statistics.fmean(r.probes) if r.probes else 1.0
            r.run_factors = [f for _, _, f in runs]
            r.self_s, r.total_s = dict(tracer.self_s), dict(tracer.total_s)
            r.calls, r.counts = dict(tracer.calls), dict(tracer.counts)
            r.durations = {k: list(v) for k, v in tracer.durations.items()}
            if tracer.keep_spans:
                _write_spans(out_dir / f"spans-{name}-seed{args.seed}.csv", tracer.spans)
            # checks, outside the timed section
            for (scenario, bundle, scheme, _clf), result, _factor in runs:
                attempted, failed, sampled = checker.check_run(
                    scenario, bundle, scheme, result, w.oracle_per_run
                )
                r.attempted += attempted
                r.failed += failed
                r.oracle_samples += sampled
                r.decision_ms.append([rec.decision_ms for rec in result.records])
                r.gaps.extend(rec.load_selected - rec.load_min for rec in result.records)
            if r.attempted != w.planned:  # a run raised before it returned
                r.failed += w.planned - r.attempted
                r.attempted = w.planned
            if name == "sweep-small-n":
                r.trend = workloads.load_gap_trend([result for _, result, _ in runs])
            rounds.append(r)
    finally:
        tracer.restore()
        if trace_path is not None:
            trace_path.unlink(missing_ok=True)

    metrics = per_layer(rounds) if args.trace else end_to_end(rounds)
    units = PER_LAYER if args.trace else END_TO_END
    failed = sum(r.failed for r in rounds)
    line = {
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in rounds),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    detail = {
        "workload": name,
        "seed": args.seed,
        "trace": args.trace,
        "size": args.size,
        "inputs": w.info,
        "rounds": len(rounds),
        "decisions_per_round": sum(len(d) for d in rounds[0].decision_ms),
        "oracle_samples": sum(r.oracle_samples for r in rounds),
        "run_failures": [f for r in rounds for f in r.failures],
        "load_gap_trend": rounds[0].trend,
        "raw": end_to_end(rounds, scaled=False) if not args.trace else {},
        "reference_ms": [r.probes for r in rounds],
        "per_round": {
            "wall_s": [r.wall_s for r in rounds],
            "simulate_s": [sum(r.durations.get("run.simulate", [])) for r in rounds],
            "setup_s": [sum(r.total_s.get(s, 0.0) for s in SETUP_STEPS) for r in rounds],
        },
        **metrics.pop("_detail", {}),
    }
    return line, detail


def _median_per_call(rounds, span, scaled=True) -> float:
    """Sum over one round's calls of each call's median time over rounds.

    Rounds repeat the same calls in the same order, so the median of one
    call across rounds drops whatever slowed the machine in a minority of
    rounds, while work the program does every time stays in.  A
    ``simulate_run`` call is scaled by the reference probes around it, a
    set-up call by its round's probes.
    """
    per_round = []
    for r in rounds:
        calls = r.durations.get(span, [])
        factors = r.run_factors if span == "run.simulate" else [r.factor] * len(calls)
        per_round.append([d * (f if scaled else 1.0) for d, f in zip(calls, factors)])
    return sum(statistics.median(calls) for calls in zip(*per_round))


def end_to_end(rounds, scaled=True) -> dict:
    """End-to-end figures, at nominal machine speed unless ``scaled`` is off."""
    import numpy as np

    def decisions(r):
        factors = r.run_factors if scaled else [1.0] * len(r.decision_ms)
        return np.concatenate([np.asarray(ms) * f for ms, f in zip(r.decision_ms, factors)])

    # one sample per decision: its median decision_ms over the rounds
    per_decision = np.median(np.array([decisions(r) for r in rounds]), axis=0)
    return {
        "decisions_per_s": len(per_decision) / _median_per_call(rounds, "run.simulate", scaled),
        "decision_ms_p50": float(np.percentile(per_decision, 50)),
        "decision_ms_p99": float(np.percentile(per_decision, 99)),
        "setup_s": sum(_median_per_call(rounds, s, scaled) for s in SETUP_STEPS),
        "wall_s": statistics.median(r.wall_s * (r.factor if scaled else 1.0) for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "load_gap_mean": float(np.mean(rounds[0].gaps)),
    }


def per_layer(rounds) -> dict:
    """Per-layer figures of a traced run, each a median over rounds."""
    decisions = sum(len(d) for d in rounds[0].decision_ms)

    def median(value):
        return statistics.median(value(r) for r in rounds)

    out = {}
    for metric, spans in DECISION_LAYERS.items():
        out[metric] = median(
            lambda r: 1e6 * r.factor * sum(r.self_s.get(s, 0.0) for s in spans) / decisions
        )
    for metric, (table, key) in DECISION_COUNTS.items():
        out[metric] = median(lambda r: getattr(r, table).get(key, 0) / decisions)
    for metric, span in ROUND_COUNTS.items():
        out[metric] = median(lambda r: r.calls.get(span, 0))
    for span, metric in SETUP_STEPS.items():
        out[metric] = median(lambda r: r.factor * r.total_s.get(span, 0.0))
    out["simulator.decision_us"] = 1000.0 * median(
        lambda r: statistics.fmean(ms * f for run, f in zip(r.decision_ms, r.run_factors) for ms in run)
    )
    inside = sum(out[m] for m in DECISION_LAYERS)
    simulate_s = _median_per_call(rounds, "run.simulate")
    out["_detail"] = {
        "traced": {
            "decisions_per_s": decisions / simulate_s,
            "simulate_run_us": 1e6 * simulate_s / decisions,
            "layers_plus_loop_us": inside,
            "decision_path_us": inside - out["simulator.apply_allocation_us"],
        }
    }
    return out


def _write_spans(path, spans) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,name,start_us,end_us,parent,decision\n")
        t0 = spans[0][1] if spans else 0.0
        for i, (name, start, end, parent, decision) in enumerate(spans):
            fh.write(f"{i},{name},{(start - t0) * 1e6:.3f},{(end - t0) * 1e6:.3f},{parent},{decision}\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    _load_program()
    from workloads import WORKLOADS

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        if name not in WORKLOADS:
            sys.exit(f"layerbench: unknown workload {name!r}; expected one of {WORKLOADS} or 'all'")
    warnings.filterwarnings("ignore", message=".*single class.*")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)

    lines = []
    for name in names:
        line, detail = run_workload(name, args, out_dir)
        record = out_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
        record.write_text(json.dumps({"result": line, "detail": detail}, indent=1), encoding="utf-8")
        lines.append((name, line))
        print(json.dumps({"detail": detail}))
        if len(names) > 1:
            print(json.dumps({"workload": name, **line}))
    if len(names) > 1:
        # one line for the whole set; each metric is named <workload>/<metric>
        final = {
            "correct": all(line["correct"] for _, line in lines),
            "attempted": sum(line["attempted"] for _, line in lines),
            "failed": sum(line["failed"] for _, line in lines),
            "metrics": {f"{n}/{k}": v for n, line in lines for k, v in line["metrics"].items()},
        }
    else:
        final = lines[0][1]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
