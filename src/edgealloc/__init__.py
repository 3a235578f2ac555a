"""Query-to-edge-node allocation: decision engine, simulator and benchmarks.

The pipeline matches incoming analytics queries with simulated edge nodes:
a complexity score and per-node data relevance feed three trained ensembles
whose fused opinions drive a one-vs-all vote over the nodes.
"""

from .allocator import AllocationDecision, EnsembleBundle, FusionScheme
from .complexity import (
    ComplexityClass,
    ComplexityClassifier,
    ComplexityParams,
    ComplexityVector,
    TrainingQueryCorpus,
)
from .core import DatasetDigest, NodeState, Query, QueryConstraints
from .relevance import confidence_intervals, relevance_batch
from .simulator import (
    LabelingPolicy,
    Scenario,
    ScenarioConfig,
    generate_scenario,
    ova_allocate,
    simulate_run,
    synthesize_training_set,
)

__version__ = "0.1.0"

__all__ = [
    "AllocationDecision",
    "EnsembleBundle",
    "FusionScheme",
    "ova_allocate",
    "ComplexityClass",
    "ComplexityClassifier",
    "ComplexityParams",
    "ComplexityVector",
    "TrainingQueryCorpus",
    "DatasetDigest",
    "NodeState",
    "Query",
    "QueryConstraints",
    "confidence_intervals",
    "relevance_batch",
    "LabelingPolicy",
    "Scenario",
    "ScenarioConfig",
    "generate_scenario",
    "simulate_run",
    "synthesize_training_set",
]
