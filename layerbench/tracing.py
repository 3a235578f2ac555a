"""Layer timing from outside the program.

The benchmark wraps the public callables each layer goes through and
records a span per call: name, start, end, parent span and the decision it
belongs to.  Self time is a span's duration minus its child spans.  Spans
stay in memory; counters ride on the same wrappers.

Two sets of wrappers exist.  ``install_coarse`` wraps the per-run calls
(set-up steps and ``simulate_run``) where ``edgealloc.bench`` looks them up;
it is always on, costs a few microseconds per call, and is how set-up time
and the time inside ``simulate_run`` are measured.  ``install_fine`` wraps
the per-decision calls and is installed only for a traced run.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

from edgealloc import allocator, bench, simulator
from edgealloc.complexity import ComplexityClassifier
from edgealloc.learners import AdaBoostModel, BaggingModel, StackingModel

_MISSING = object()


class Tracer:
    """Collects spans and counters from the wrappers it installs."""

    def __init__(self):
        self.keep_spans = False
        self._patches = []
        self._open = []  # stack of [span index, child seconds]
        self.reset()

    def reset(self) -> None:
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.durations = defaultdict(list)
        self.spans = []
        self.decision = -1

    # -- recording ----------------------------------------------------------

    def wrap(self, name, fn, count=None, opens_decision=False, per_call=False, before=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``before()`` runs ahead of the span and ``count(counts, args, result)``
        after it, both outside its time.  A span with ``opens_decision``
        starts a new decision id for the spans that follow.  With
        ``per_call`` every call's duration is kept, in call order.
        """
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before()
            if opens_decision:
                tracer.decision += 1
            parent = tracer._open[-1][0] if tracer._open else -1
            index = len(tracer.spans)
            if tracer.keep_spans:
                tracer.spans.append(None)
            tracer._open.append([index, 0.0])
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = time.perf_counter()
                _, child_s = tracer._open.pop()
                duration = ended - started
                tracer.self_s[name] += duration - child_s
                tracer.total_s[name] += duration
                tracer.calls[name] += 1
                if per_call:
                    tracer.durations[name].append(duration)
                if tracer._open:
                    tracer._open[-1][1] += duration
                if tracer.keep_spans:
                    tracer.spans[index] = (name, started, ended, parent, tracer.decision)
            if count is not None:
                count(tracer.counts, args, result)
            return result

        return traced

    def patch(self, owner, attr, name, **kw) -> None:
        original = owner.__dict__.get(attr, _MISSING)
        fn = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, fn, **kw))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def _rows(counter_name):
    def count(counts, args, result):
        counts[counter_name] += args[1].shape[0]

    return count


def _fused_positive(counts, args, result):
    counts["fused_positive"] += int(result.sum())


def install_coarse(tracer: Tracer, before_run=None, on_run=None) -> None:
    """Per-cell set-up and run calls, as ``run_cells`` makes them.

    ``before_run()`` runs ahead of every ``simulate_run`` call and
    ``on_run(counts, args, result)`` after it, outside its time.
    """
    tracer.patch(bench, "ComplexityClassifier", "setup.classifier", per_call=True)
    tracer.patch(bench, "generate_scenario", "setup.scenario", per_call=True)
    tracer.patch(bench, "synthesize_training_set", "setup.training_set", per_call=True)
    tracer.patch(bench, "train_bundle", "setup.train", per_call=True)
    tracer.patch(
        bench, "simulate_run", "run.simulate", count=on_run, per_call=True, before=before_run
    )
    tracer.patch(simulator, "ingest_utilization_trace", "setup.trace_ingest")


def install_fine(tracer: Tracer) -> None:
    """Per-decision calls of every layer."""
    tracer.patch(ComplexityClassifier, "classify_statement", "complexity.classify", opens_decision=True)
    tracer.patch(ComplexityClassifier, "pairwise_scores", "complexity.pairwise")
    tracer.patch(simulator, "relevance_batch", "relevance.batch")
    tracer.patch(AdaBoostModel, "predict_batch", "learners.boost", count=_rows("boost.rows"))
    tracer.patch(BaggingModel, "predict_batch", "learners.bagging", count=_rows("bagging.rows"))
    tracer.patch(StackingModel, "predict_batch", "learners.stacking", count=_rows("stacking.rows"))
    tracer.patch(allocator, "fuse_batch", "allocator.fuse", count=_fused_positive)
    tracer.patch(allocator, "tally_votes", "allocator.tally")
    tracer.patch(allocator, "rank_nodes", "allocator.rank")
    tracer.patch(simulator, "apply_allocation", "simulator.apply_allocation")
