"""Shared domain types: queries, their constraints, node digests and states.

The decision engine sees each (query, node) pair as one context row of
features: the query's complexity scalar and deadline, the node's data
relevance for the query, and the node's load and speed.  The row's layout
lives here and only here: ``CONTEXT_FEATURES`` names the features in column
order and ``context_matrix`` fills a matrix from them, for the decisions
and the training set ``simulator`` builds and the training CSV ``cli``
writes.  ``complexity_scalar`` collapses a complexity vector into the first
feature.  The file layout of every record lives here too: ``read_config``
reads a config section, a whole scenario file or a query record by its
dataclass's field annotations, and ``write_record`` writes what it reads.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
import sys
import typing
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .complexity import _TOKEN_RE, ComplexityVector
from .errors import ConfigError
from .relevance import IntervalBounds

__all__ = [
    "QueryConstraints",
    "Query",
    "DatasetDigest",
    "NodeState",
    "CONTEXT_FEATURES",
    "complexity_scalar",
    "context_matrix",
    "read_config",
    "write_record",
]

CONTEXT_FEATURES = ("complexity", "deadline", "relevance", "load", "speed")

DEFAULT_QUEUE_CAPACITY = 100

# node ids, queue capacities and cardinalities are held in int64 node-table arrays
INT64_MAX = 2**63 - 1


def _check_integer(name: str, value, low: int, bounds: str) -> None:
    """``ValueError`` unless ``value`` is an integer in [``low``, 2**63 - 1]
    (``bounds`` spells the range); a float such as 1.5 is refused, not cut."""
    try:
        in_range = low <= operator.index(value) <= INT64_MAX
    except TypeError:
        in_range = False
    if not in_range:
        raise ValueError(f"{name} must be an integer in {bounds}, got {value!r:.200}")


@dataclass(frozen=True)
class QueryConstraints:
    """Per-attribute (min, max) bounds a query imposes on the data, one row
    per dimension.

    The checks build the query's relevance operand, kept as ``operand``
    outside the dataclass fields, so records and equality read only
    ``intervals``: an ``IntervalBounds`` of (L, 1) views of the two ends,
    their widths and whether every width is > 0.  Every decision reads it
    as it is against the node table's (L, N) bounds.
    """

    intervals: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.intervals, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"expected constraint shape (L, 2), got {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("constraints need at least one dimension")
        largest = np.abs(arr).max()
        if not largest <= sys.float_info.max:  # NaN compares false
            raise ValueError("constraint bounds must be finite, not NaN or inf")
        lower, upper = arr[:, :1], arr[:, 1:]
        if largest <= sys.float_info.max / 2:
            widths = upper - lower
        else:
            with np.errstate(over="ignore"):  # ends more than the float range apart: an inf width
                widths = upper - lower
        # of two finite floats, the rounded difference is >= 0 exactly when lo <= hi
        least = widths.min()
        if not least >= 0:
            raise ValueError("constraint minima must not exceed maxima")
        object.__setattr__(self, "intervals", arr)
        object.__setattr__(self, "operand", IntervalBounds(lower, upper, widths, bool(least > 0)))

    @property
    def dims(self) -> int:
        return self.intervals.shape[0]


@dataclass(frozen=True)
class Query:
    """An analytics query: statement text, data constraints and a deadline.

    The statement must hold at least one token (a run of ASCII letters or
    digits, what the complexity classifier compares); the deadline must be
    finite and >= 0.  A record leaves out ``id`` and ``deadline`` to take
    their defaults.
    """

    statement: str
    constraints: QueryConstraints
    id: str = "adhoc"
    deadline: float = 0.0

    def __post_init__(self) -> None:
        if _TOKEN_RE.search(self.statement.lower()) is None:
            raise ValueError(f"statement contains no tokens: {self.statement!r:.200}")
        if not 0 <= self.deadline < math.inf:
            raise ValueError(f"deadline must be finite and >= 0, got {self.deadline}")


@dataclass(frozen=True)
class DatasetDigest:
    """Statistical synopsis of one node's dataset: per-dimension means and
    spreads plus the dataset cardinality."""

    means: np.ndarray
    spreads: np.ndarray
    cardinality: int

    def __post_init__(self) -> None:
        means = np.asarray(self.means, dtype=float)
        spreads = np.asarray(self.spreads, dtype=float)
        if means.ndim != 1 or means.shape != spreads.shape:
            raise ValueError("means and spreads must be 1-D with equal length")
        if not (np.isfinite(means).all() and np.isfinite(spreads).all()):
            raise ValueError("means and spreads must be finite")
        if np.any(spreads < 0):
            raise ValueError("spreads must be non-negative")
        _check_integer("cardinality", self.cardinality, 1, "[1, 2**63 - 1]")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "spreads", spreads)

    @property
    def dims(self) -> int:
        return self.means.shape[0]


@dataclass
class NodeState:
    """A node's load and speed plus its dataset digest.

    ``load`` is the snapshot ``ova_allocate`` decides on; a simulated run
    takes its loads from the load series or its own queue occupancy and
    leaves the node untouched.
    """

    node_id: int
    load: float
    speed: float
    digest: DatasetDigest
    queue_capacity: int = DEFAULT_QUEUE_CAPACITY

    def __post_init__(self) -> None:
        if not 0.0 <= self.load <= 1.0:
            raise ValueError(f"load must be in [0, 1], got {self.load}")
        if not 0.0 <= self.speed <= 1.0:
            raise ValueError(f"speed must be in [0, 1], got {self.speed}")
        _check_integer("node id", self.node_id, -INT64_MAX - 1, "[-2**63, 2**63 - 1]")
        _check_integer("queue capacity", self.queue_capacity, 1, "[1, 2**63 - 1]")


def complexity_scalar(vector: ComplexityVector) -> float:
    """Collapse class memberships into one scalar in (0, 1].

    The winning class's membership is scaled by (class index + 1) / number of
    classes, so the scalar grows both with the class rank and with how
    confidently the class was matched.
    """
    k = len(vector.memberships)
    best = vector.argmax()
    return vector.memberships[best] * (best + 1) / k


def context_matrix(n: int, complexity, deadline, relevance, load, speed) -> np.ndarray:
    """The (n, 5) context matrix, one row per (query, node) pair, column j
    holding feature ``CONTEXT_FEATURES[j]``; each feature is a scalar or an
    (n,) array.  Filled column by column, without a loop, because every
    decision calls it."""
    out = np.empty((n, len(CONTEXT_FEATURES)))
    out[:, 0] = complexity
    out[:, 1] = deadline
    out[:, 2] = relevance
    out[:, 3] = load
    out[:, 4] = speed
    return out


_KINDS = {int: "an integer", float: "a finite number", str: "a string", np.ndarray: "an array of numbers"}
_field_types = functools.cache(typing.get_type_hints)  # resolving the annotations dominates reading a record


def read_config(cls, data, key: str = "", error=ConfigError):
    """Build the dataclass ``cls`` from plain YAML/JSON data: a config
    section (``error`` is ``ConfigError``) or a data file or record
    (``DataError``).

    A record maps field names to values; an unknown key is refused, and a
    field without a default must be present.  A dataclass with exactly one
    field is recorded as that field's bare value.  Each value is read by its
    field's annotation: a dataclass, ``tuple[X, ...]`` or ``list[X]`` from a
    list, ``Optional[X]``, an enum from its name in any case, ``np.ndarray``
    from a list (of lists) of numbers, ``int``, ``str``, or ``float``, which
    may be given as an int but must be finite; a bool is never a number.
    Errors, the dataclass's own checks included, raise ``error`` naming the
    dotted key, of which ``key`` is the prefix (none for a file's root).
    """
    types = _field_types(cls)
    where = key or "root"
    if len(types) == 1:
        ((name, tp),) = types.items()
        kwargs = {name: _read_value(tp, data, key, error)}
    else:
        if not isinstance(data, dict):
            raise error(f"{where} must be a mapping, got {data!r:.200}")
        prefix = f"{key}." if key else ""
        unknown = [f"{prefix}{name}" for name in data if name not in types]
        if unknown:
            raise error(f"unknown keys {unknown}")
        for f in dataclasses.fields(cls):
            if f.name not in data and f.default is f.default_factory is dataclasses.MISSING:
                raise error(f"{where} is missing field {f.name!r}")
        kwargs = {name: _read_value(types[name], value, f"{prefix}{name}", error) for name, value in data.items()}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise error(f"{key}: {exc}" if key else str(exc)) from None


def _read_value(tp, value, key: str, error):
    args = typing.get_args(tp)
    if typing.get_origin(tp) is typing.Union:  # Optional[X]
        return None if value is None else _read_value(args[0], value, key, error)
    if typing.get_origin(tp) in (tuple, list):  # tuple[X, ...] or list[X]
        if not isinstance(value, list):
            raise error(f"{key} must be a list, got {value!r:.200}")
        return typing.get_origin(tp)(_read_value(args[0], v, f"{key}[{i}]", error) for i, v in enumerate(value))
    if dataclasses.is_dataclass(tp):
        return read_config(tp, value, key, error)
    if tp is np.ndarray and isinstance(value, list) and (array := number_array(value)) is not None:
        return array
    if issubclass(tp, Enum):
        allowed = [member.value for member in tp]
        if isinstance(value, str) and value.lower() in allowed:
            return tp(value.lower())
        raise error(f"{key} must be one of {allowed}, got {value!r:.200}")
    if tp is float and type(value) in (int, float) and -sys.float_info.max <= value <= sys.float_info.max:
        return float(value)
    if tp in (int, str) and type(value) is tp:
        return value
    raise error(f"{key} must be {_KINDS[tp]}, got {value!r:.200}")


def number_array(value):
    """The number, or sequence (of sequences) of numbers, ``value`` as a
    float array; None if an element is not an int or a float (NumPy's
    included) or fits no float.  A bool is never a number: NumPy alone would
    read true as 1.0, "0.1" as 0.1 and null as NaN."""
    try:
        types = set(map(type, np.array(value, dtype=object).flat))  # checked once per type, not per element
        if all(issubclass(t, (int, float, np.integer, np.floating)) and t is not bool for t in types):
            return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        pass
    return None


def write_record(value):
    """The plain JSON data ``read_config`` reads back into ``value``: a
    dataclass becomes the mapping of its fields (a one-field dataclass its
    field's value), a value with a ``to_dict`` (a model) what that returns,
    a list, tuple or array a list, anything else stays."""
    if dataclasses.is_dataclass(value):
        record = {f.name: write_record(getattr(value, f.name)) for f in dataclasses.fields(value)}
        return next(iter(record.values())) if len(record) == 1 else record
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if isinstance(value, (list, tuple)):
        return [write_record(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value
