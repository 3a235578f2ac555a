"""Scalar decision oracle and property checks.

The oracle recomputes a decision node by node in plain Python floats, from
the paper's rules and the trained models' ``to_dict()`` form.  It shares no
code with the program's kernels: complexity, relevance, the ensembles,
fusion and the pick are all written out here.

- Complexity: hamming, jaccard and cosine similarity of the statement's
  tokens with every corpus entry, ranked by significance level, the top-n
  folded with the Hamacher product, a power mean per class, and the winning
  membership scaled by (class rank + 1) / number of classes.
- Relevance: each node's confidence interval mean +- z*spread/cardinality,
  the overlap mismatch per dimension, and a power mean over dimensions.
- Ensembles: tree walks, Gaussian naive Bayes, the logistic unit, the
  boosting vote, the bagging vote share and the stacking meta learner.
- Fusion: CS when all three ensembles say yes, MVS when at least two do.
- Pick: fused-positive nodes first, then lowest load, then lowest id.
"""

from __future__ import annotations

import math
import re

_TOKEN = re.compile(r"[a-z0-9]+")


def token_counts(statement: str) -> dict:
    counts: dict = {}
    for tok in _TOKEN.findall(statement.lower()):
        counts[tok] = counts.get(tok, 0) + 1
    return counts


def _power_mean(values, alpha: float) -> float:
    total = 0.0
    for v in values:
        total += v**alpha
    mean = total / len(values)
    return mean ** (1.0 / alpha)


class ComplexityOracle:
    """Complexity scalar of a statement against a labelled corpus."""

    def __init__(self, entries, params, n_classes: int):
        self.params = params
        self.n_classes = n_classes
        self.entries = []
        for statement, class_id in entries:
            counts = token_counts(statement)
            norm = math.sqrt(sum(c * c for c in counts.values()))
            self.entries.append((counts, norm, int(class_id)))

    def _fused(self, q: dict, q_norm: float, c: dict, c_norm: float) -> float:
        p = self.params
        inter = sum(1 for t in q if t in c)
        union = len(q) + len(c) - inter
        jaccard = inter / union
        hamming = 1.0 / (1.0 + (union - inter) / union)
        dot = sum(n * c[t] for t, n in q.items() if t in c)
        denom = c_norm * q_norm
        cosine = dot / denom if denom > 0 else 0.0
        values = (hamming, jaccard, cosine)
        levels = []
        for v in values:
            support = sum(1 for w in values if abs(v - w) <= p.gamma)
            levels.append(1.0 / (1.0 + math.exp(-(p.delta1 * support - p.delta2))))
        order = sorted(range(3), key=lambda i: (-levels[i], -values[i], i))
        kept = [values[i] for i in order[: min(p.top_n, 3)]]
        acc = kept[0]
        a = p.hamacher_a
        for v in kept[1:]:
            den = a + (1.0 - a) * (acc + v - acc * v)
            acc = 0.0 if den == 0.0 else acc * v / den
        return acc

    def scalar(self, statement: str) -> float:
        q = token_counts(statement)
        q_norm = math.sqrt(sum(c * c for c in q.values()))
        per_class = [[] for _ in range(self.n_classes)]
        for counts, norm, class_id in self.entries:
            per_class[class_id].append(self._fused(q, q_norm, counts, norm))
        memberships = [min(1.0, _power_mean(v, self.params.alpha)) for v in per_class]
        best = 0
        for i, m in enumerate(memberships):
            if m > memberships[best]:
                best = i
        return memberships[best] * (best + 1) / self.n_classes


def relevance(constraints, means, spreads, cardinality: int, z: float, alpha: float) -> float:
    """Mismatch between a query's constraint intervals and one node's data."""
    psis = []
    for (w_lo, w_hi), mean, spread in zip(constraints, means, spreads):
        half = z * spread / cardinality
        f_lo, f_hi = mean - half, mean + half
        lo, hi = max(w_lo, f_lo), min(w_hi, f_hi)
        shorter = min(w_hi - w_lo, f_hi - f_lo)
        if shorter <= 0.0:
            psis.append(0.0 if lo <= hi else 1.0)
        else:
            inter = max(hi - lo, 0.0)
            psis.append(min(max(1.0 - inter / shorter, 0.0), 1.0))
    return min(1.0, _power_mean(psis, alpha))


# ---------------------------------------------------------------------------
# models, evaluated from their to_dict() form
# ---------------------------------------------------------------------------


def _sigmoid_of_margin(s: float) -> float:
    return 1.0 / (1.0 + math.exp(-min(max(s, -500.0), 500.0)))


def proba(model: dict, x) -> float:
    kind = model["type"]
    if kind in ("cart_tree", "random_tree"):
        node = model["root"]
        while "prob" not in node:
            node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
        return node["prob"]
    if kind == "constant":
        return float(model["label"])
    if kind == "gaussian_nb":
        ll = []
        for c in (0, 1):
            log_norm = 0.0
            dist = 0.0
            for xf, mu, var in zip(x, model["means"][c], model["variances"][c]):
                log_norm += math.log(2 * math.pi * var)
                dist += (xf - mu) ** 2 / var
            ll.append(model["log_priors"][c] - 0.5 * (log_norm + dist))
        return 1.0 / (1.0 + math.exp(min(max(ll[0] - ll[1], -500.0), 500.0)))
    if kind == "logistic":
        s = model["bias"]
        dot = 0.0
        for xf, mu, sigma, w in zip(x, model["mu"], model["sigma"], model["weights"]):
            dot += (xf - mu) / sigma * w
        return _sigmoid_of_margin(dot + s)
    if kind == "adaboost":
        total = sum(abs(a) for a in model["alphas"])
        if total == 0.0:
            return 0.5
        margin = 0.0
        for member, a in zip(model["members"], model["alphas"]):
            margin += a * (1.0 if proba(member, x) >= 0.5 else -1.0)
        return 0.5 * (margin / total + 1.0)
    if kind == "bagging":
        yes = sum(1 for m in model["members"] if proba(m, x) >= 0.5)
        return yes / len(model["members"])
    if kind == "stacking":
        meta_x = [proba(b, x) for b in model["bases"]]
        return proba(model["meta"], meta_x)
    raise ValueError(f"oracle has no rule for model type {kind!r}")


def fuse(labels, scheme: str) -> bool:
    yes = sum(labels)
    return yes == len(labels) if scheme == "cs" else yes >= 2


def pick(fused, loads, node_ids) -> int:
    """Fused-positive nodes first, then lowest load, then lowest id."""
    best = min(range(len(node_ids)), key=lambda i: (0 if fused[i] else 1, loads[i], node_ids[i]))
    return int(node_ids[best])


class DecisionOracle:
    """Recomputes the node one decision should pick."""

    def __init__(self, corpus_entries, complexity_params, n_classes: int):
        self.complexity = ComplexityOracle(corpus_entries, complexity_params, n_classes)

    def decide(self, query, nodes, loads, speeds, models, scheme: str, z: float, alpha: float) -> int:
        """Return the node id one decision should pick.

        ``nodes`` are the scenario's NodeState objects (only their ids and
        digests are read); ``models`` are the three ensembles' dicts.
        """
        o = self.complexity.scalar(query.statement)
        constraints = [tuple(row) for row in query.constraints.intervals.tolist()]
        fused = []
        for node, load, speed in zip(nodes, loads, speeds):
            d = node.digest
            rel = relevance(
                constraints, d.means.tolist(), d.spreads.tolist(), d.cardinality, z, alpha
            )
            x = (o, query.deadline, rel, float(load), float(speed))
            fused.append(fuse([proba(m, x) >= 0.5 for m in models], scheme))
        ids = [n.node_id for n in nodes]
        return pick(fused, [float(v) for v in loads], ids)


# ---------------------------------------------------------------------------
# properties of a whole run
# ---------------------------------------------------------------------------


def replay_loads(load_series, t: int):
    return load_series[t % load_series.shape[0]]


def queue_loads(nodes, picks, capacity: int, service_rate: float):
    """Per-epoch node loads replayed from the recorded picks.

    Before epoch 0 every queue is empty.  After each decision the picked
    node takes one arrival if it has room, then every node completes
    floor(speed * service_rate) queued queries.
    """
    occupancy = [0] * len(nodes)
    drain = [math.floor(n.speed * service_rate) for n in nodes]
    pos = {n.node_id: i for i, n in enumerate(nodes)}
    series = []
    for picked in picks:
        series.append([c / capacity for c in occupancy])
        i = pos[picked]
        if occupancy[i] < capacity:
            occupancy[i] += 1
        occupancy = [c - min(d, c) for c, d in zip(occupancy, drain)]
    return series


def record_matches(record, loads, speeds, pos_of) -> bool:
    """The record's load/speed figures agree with the node state it saw."""
    i = pos_of[record.selected_node]
    return (
        record.load_selected == float(loads[i])
        and record.load_min == float(min(loads))
        and record.speed_selected == float(speeds[i])
    )
