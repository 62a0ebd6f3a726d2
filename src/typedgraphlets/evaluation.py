"""Experiment harness: cluster scoring, link prediction, compression proxy.

Everything here is seeded and deterministic: the same (graph, signature,
dimension, seed, operator) tuple always reproduces the same report.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .graph import HeteroGraph, _check_bijection, _conductance, _csr, _validate_cut, permute_graph
from .graphlets import TypedGraphletSignature
from .spectral import spectral_embedding

_EDGE_OPERATOR_FUNCTIONS = {
    "mean": lambda zi, zj: (zi + zj) / 2.0,
    "hadamard": np.multiply,
    "absdiff": lambda zi, zj: np.abs(zi - zj),
    "sqdiff": lambda zi, zj: (zi - zj) ** 2,
    "max": np.maximum,
    "sum": np.add,
}
EDGE_OPERATORS = tuple(_EDGE_OPERATOR_FUNCTIONS)

# Cap on exhaustive non-edge enumeration; beyond it sampling falls back to
# seeded rejection with a retry budget.
_ENUMERATE_PAIR_LIMIT = 2_000_000
# Rows of the candidate mask listed at once, which bounds the key scratch.
_ROW_BLOCK = 64


def external_conductance(g: HeteroGraph, s: Iterable[int]) -> Fraction:
    """Plain edge conductance of a cluster in the original graph.

    This is the clustering quality score: it ignores motifs and types
    entirely and measures how well the cluster separates in raw edges.
    """
    side = _validate_cut(g.node_count, s)
    ends = side[g.edge_array]
    return _conductance(int(np.count_nonzero(ends[:, 0] != ends[:, 1])),
                        int(g.degrees[side].sum()), int(g.degrees.sum()), "has zero volume")


@dataclass
class EdgeDataset:
    """Held-out edge split for link prediction."""

    train: HeteroGraph
    positives: list[tuple[int, int]]
    negatives: list[tuple[int, int]]
    seed: int
    edge_type: int | None


def _type_patterns(g: HeteroGraph, ends: np.ndarray) -> set[tuple[int, int]]:
    """The (min, max) endpoint-type pairs of the edge rows ``ends``."""
    t = g.node_type_count
    types = np.sort(np.asarray(g.node_types, dtype=np.int64)[ends], axis=1)
    # np.unique of one integer key a * t + b per row is far faster than on rows.
    lo, hi = np.divmod(np.unique(types[:, 0] * t + types[:, 1]), t)
    return set(zip(lo.tolist(), hi.tolist()))


def _pattern_table(patterns: set[tuple[int, int]], type_count: int) -> np.ndarray:
    """``table[a, b]``: endpoint types a and b match a pattern ``(min, max)``."""
    table = np.zeros((type_count, type_count), dtype=bool)
    for a, b in patterns:
        if 0 <= a <= b < type_count:
            table[a, b] = table[b, a] = True
    return table


def _sample_nonedges(
    g: HeteroGraph,
    patterns: set[tuple[int, int]],
    count: int,
    rng: random.Random,
    exclude: set[tuple[int, int]],
) -> list[tuple[int, int]]:
    """Seeded sample of non-edges whose endpoint types match a pattern.

    Up to ``_ENUMERATE_PAIR_LIMIT`` node pairs, ``count`` positions in the
    lexicographic list of every candidate (u, v), u < v, are drawn with
    ``rng.sample``; beyond it pairs are drawn by rejection. ``exclude`` pairs
    are matched exactly as given, so only (u, v) with u < v can exclude.
    """
    n = g.node_count
    table = _pattern_table(patterns, g.node_type_count)
    if n * (n - 1) // 2 <= _ENUMERATE_PAIR_LIMIT:
        types = np.asarray(g.node_types, dtype=np.int64)
        ok = table[types][:, types]
        for i in range(n):
            ok[i, : i + 1] = False
        drop = np.array([*exclude], dtype=np.int64).reshape(-1, 2)
        drop = drop[(0 <= drop[:, 0]) & (drop[:, 0] < drop[:, 1]) & (drop[:, 1] < n)]
        for u, v in (g.edge_array.T, drop.T):
            ok[u, v] = False
        # before[i] candidates lie above row i. Random.sample draws from the
        # population's length alone, so drawing positions gives the pairs that
        # drawing from the list would; a block of rows lists its keys u * n + v.
        before = np.concatenate([[0], np.cumsum(np.count_nonzero(ok, axis=1))])
        found = before[-1]
        if found < count:
            raise ValueError(
                f"not enough type-compatible non-edges: need {count}, found {found}"
            )
        picks = np.array(rng.sample(range(found), count), dtype=np.int64)
        keys = np.empty_like(picks)
        for lo in range(0, n, _ROW_BLOCK):
            hit = (before[lo] <= picks) & (picks < before[min(lo + _ROW_BLOCK, n)])
            keys[hit] = np.flatnonzero(ok[lo : lo + _ROW_BLOCK])[picks[hit] - before[lo]] + lo * n
        us, vs = np.divmod(keys, n)
        return list(zip(us.tolist(), vs.tolist()))
    edge_keys = set(g.sorted_edge_keys[0].tolist())
    picked: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    budget = 200 * count + 10_000
    while len(picked) < count and budget > 0:
        budget -= 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or not table[g.node_types[u], g.node_types[v]]:
            continue
        pair = (u, v) if u < v else (v, u)
        if pair[0] * n + pair[1] in edge_keys or pair in exclude or pair in seen:
            continue
        seen.add(pair)
        picked.append(pair)
    if len(picked) < count:
        raise ValueError("not enough type-compatible non-edges within sampling budget")
    return picked


def split_edges(
    g: HeteroGraph,
    fraction: float,
    seed: int,
    edge_type: int | None = None,
) -> EdgeDataset:
    """Remove a seeded uniform fraction of (optionally one type of) edges.

    Removed edges become the positive test pairs; an equal number of
    non-edges whose endpoint-type pattern matches the predicted edge type
    become the negatives. Uniform node pairs would make the task trivially
    easy on typed graphs, hence the pattern restriction. The remaining graph
    is returned for embedding.
    """
    if not 0 < fraction < 1:
        raise ValueError("fraction must lie strictly between 0 and 1")
    rng = random.Random(seed)
    types = np.asarray(g.edge_types, dtype=np.int64)
    eligible = np.arange(g.edge_count)
    if edge_type is not None:
        eligible = np.flatnonzero(types == edge_type)
    if not len(eligible):
        raise ValueError(
            "graph has no edges to hold out" if edge_type is None
            else "edge type filter matches no edges"
        )
    k = math.ceil(fraction * len(eligible))
    # As in _sample_nonedges, sampling positions draws what sampling the list would.
    removed = np.sort(eligible[rng.sample(range(len(eligible)), k)])
    keep = np.ones(g.edge_count, dtype=bool)
    keep[removed] = False
    train = HeteroGraph(
        g.node_names,
        g.node_types,
        g.edge_array[keep],
        types[keep],
        g.node_type_names,
        g.edge_type_names,
    )
    positives = list(zip(*g.edge_array[removed].T.tolist()))
    patterns = _type_patterns(g, g.edge_array[eligible])
    negatives = _sample_nonedges(g, patterns, k, rng, exclude=set())
    return EdgeDataset(train, positives, negatives, seed, edge_type)


def edge_embed(zi: np.ndarray, zj: np.ndarray, op: str) -> np.ndarray:
    """Combine two node embeddings into one edge embedding, element-wise.

    All six operators are symmetric in their arguments, so undirected edges
    get a well-defined feature vector.
    """
    zi = np.asarray(zi, dtype=np.float64)
    zj = np.asarray(zj, dtype=np.float64)
    if zi.shape != zj.shape:
        raise ValueError("embedding dimensions differ")
    if op not in EDGE_OPERATORS:
        raise ValueError(f"unknown edge operator '{op}'")
    return _EDGE_OPERATOR_FUNCTIONS[op](zi, zj)


# The fit calls these thousands of times on small arrays, so they call the
# ufuncs directly: np.minimum(np.maximum(.)) clips to exactly np.clip's values
# and np.add.reduce(.) / n is exactly np.mean, without their wrapper layers.

def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``1 / (1 + exp(-clip(z, -35, 35)))``, into ``out`` when given (it may be ``z``)."""
    out = np.maximum(z, -35.0, out=out)
    np.minimum(out, 35.0, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.add(out, 1.0, out=out)
    return np.divide(1.0, out, out=out)


def _loss_into(
    Xb: np.ndarray, flip: np.ndarray, w: np.ndarray, l2: float, p: np.ndarray, work: np.ndarray
) -> float:
    """Penalised logistic loss at ``w``; leaves the probabilities in ``p``.

    ``flip`` is 1 - y for labels y of 0 or 1, and ``work`` is a spare
    buffer of the same length. Per row, y * log(p + eps) + (1 - y) *
    log(1 - p + eps) is log(|flip - p| + eps) exactly: the term a 0 label
    multiplies is finite, so it adds 0, and |flip - p| is p or 1 - p.
    """
    _sigmoid(np.matmul(Xb, w, out=p), out=p)
    np.subtract(flip, p, out=work)
    np.abs(work, out=work)
    np.add(work, 1e-12, out=work)
    np.log(work, out=work)
    data = -(np.add.reduce(work) / len(work))
    return float(data + 0.5 * l2 * np.dot(w[:-1], w[:-1]))


def train_linear_classifier(
    X: np.ndarray,
    y: np.ndarray,
    l2: float = 1e-4,
    iters: int = 500,
    seed: int = 0,
    step: float = 0.1,
) -> np.ndarray:
    """Full-batch gradient-descent logistic regression with L2 penalty.

    Labels must be 0 or 1. The step halves whenever a move would increase
    the loss, so training loss is monotone non-increasing. The intercept
    sits in the last weight slot and is not penalised. Returns the weight
    vector of length d+1.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError("X and y shapes are inconsistent")
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("training labels must be 0 or 1")
    if len(np.unique(y)) < 2:
        raise ValueError("training labels contain a single class")
    n, d = X.shape
    Xb = np.hstack([X, np.ones((n, 1))])
    rng = np.random.default_rng(seed)
    w = 0.01 * rng.standard_normal(d + 1)
    flip = 1 - y
    # p holds the probabilities at the current w and q a candidate's; an
    # accepted candidate swaps them, so none is computed twice.
    p, q, work = np.empty(n), np.empty(n), np.empty(n)
    loss = _loss_into(Xb, flip, w, l2, p, work)
    for _ in range(iters):
        grad = Xb.T @ np.subtract(p, y, out=work) / n
        grad[:-1] += l2 * w[:-1]
        cand = w - step * grad
        cand_loss = _loss_into(Xb, flip, cand, l2, q, work)
        while cand_loss > loss and step > 1e-12:
            step *= 0.5
            cand = w - step * grad
            cand_loss = _loss_into(Xb, flip, cand, l2, q, work)
        if cand_loss <= loss:
            w, loss = cand, cand_loss
            p, q = q, p
    return w


def predict_scores(X: np.ndarray, w: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    return _sigmoid(X @ w[:-1] + w[-1])


@dataclass
class MetricsReport:
    f1: float
    precision: float
    recall: float
    auc: float | None
    threshold: float


def compute_metrics(scores: Sequence[float], labels: Sequence[int]) -> MetricsReport:
    """Metrics at the 0.5 score threshold plus rank AUC (ties counted half).

    With a single label class AUC is undefined and comes back as None while
    the threshold metrics are still produced.
    """
    threshold = 0.5
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if len(s) != len(y):
        raise ValueError("scores and labels lengths differ")
    pred = s >= threshold
    tp = int(np.sum(pred & (y == 1)))
    fp = int(np.sum(pred & (y == 0)))
    fn = int(np.sum(~pred & (y == 1)))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        auc = None
    else:
        ranks = _average_ranks(s)
        auc = float((ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))
    return MetricsReport(f1, precision, recall, auc, threshold)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank."""
    values = np.asarray(values)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    if not len(values):
        return ranks
    ordered = values[order]
    # A group starts where the sorted value changes; NaN != NaN, so each NaN
    # is a group of its own.
    starts = np.flatnonzero(np.concatenate([[True], ordered[1:] != ordered[:-1]]))
    ends = np.append(starts[1:], len(values)) - 1
    ranks[order] = np.repeat((starts + ends) / 2.0 + 1.0, ends - starts + 1)
    return ranks


@dataclass
class LinkPredResult:
    """Per-operator test metrics for one seeded run."""

    per_operator: dict[str, MetricsReport]
    best_operator: str
    seed: int
    dim: int
    n_train_examples: int
    n_test_examples: int


def link_prediction_eval(
    g: HeteroGraph,
    sig: TypedGraphletSignature,
    dim: int,
    fraction: float = 0.5,
    seed: int = 0,
    edge_type: int | None = None,
    operators: Sequence[str] = EDGE_OPERATORS,
    drop_trivial: bool = False,
) -> LinkPredResult:
    """End-to-end seeded link-prediction run for one motif signature.

    Embeds the post-split train graph, fits the logistic model on train
    edges against freshly sampled type-compatible non-edges, and scores the
    held-out positives and negatives under every requested operator. The
    best operator is picked by AUC (F1 breaks ties).
    """
    ds = split_edges(g, fraction, seed, edge_type)
    Z = spectral_embedding(ds.train, sig, dim, drop_trivial=drop_trivial)

    pos = ds.train.edge_array
    if edge_type is not None:
        pos = pos[np.asarray(ds.train.edge_types) == edge_type]
        if not len(pos):
            name = g.edge_type_names[edge_type]
            raise ValueError(f"edge type '{name}': the split left none of its edges for training")
    rng = random.Random(seed + 10_000_019)
    neg = _sample_nonedges(
        g, _type_patterns(ds.train, pos), len(pos), rng, exclude=set(ds.negatives)
    )
    train_ends = np.vstack([pos, np.array(neg, dtype=np.int64).reshape(-1, 2)])
    y_train = np.repeat([1, 0], [len(pos), len(neg)])
    test_ends = np.array(ds.positives + ds.negatives, dtype=np.int64)
    y_test = np.repeat([1, 0], [len(ds.positives), len(ds.negatives)])
    reports: dict[str, MetricsReport] = {}
    for op in operators:
        # The operators act element by element, so one call over all rows
        # gives the same values as one call per pair.
        X_train = edge_embed(Z[train_ends[:, 0]], Z[train_ends[:, 1]], op)
        X_test = edge_embed(Z[test_ends[:, 0]], Z[test_ends[:, 1]], op)
        w = train_linear_classifier(X_train, y_train, seed=seed)
        reports[op] = compute_metrics(predict_scores(X_test, w), y_test)
    best = max(
        operators,
        key=lambda op: (
            -1.0 if reports[op].auc is None else reports[op].auc,
            reports[op].f1,
        ),
    )
    return LinkPredResult(
        per_operator=reports,
        best_operator=best,
        seed=seed,
        dim=dim,
        n_train_examples=len(train_ends),
        n_test_examples=len(test_ends),
    )


def summarize_trials(results: Sequence[LinkPredResult]) -> dict[str, dict[str, float]]:
    """Mean and standard deviation of each metric over seeded trials."""
    out: dict[str, dict[str, float]] = {}
    for op in results[0].per_operator:
        stats: dict[str, float] = {}
        for metric in ("f1", "precision", "recall", "auc"):
            vals = [getattr(r.per_operator[op], metric) for r in results]
            vals = [v for v in vals if v is not None]
            if not vals:
                continue
            arr = np.array(vals, dtype=np.float64)
            stats[f"{metric}_mean"] = float(arr.mean())
            stats[f"{metric}_std"] = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
        out[op] = stats
    return out


def compressed_size_estimate(g: HeteroGraph, order: Sequence[int]) -> int:
    """Byte size of the gap-encoded adjacency lists under an ordering.

    Codec, fixed byte-exactly: relabel nodes by ``order``, sort each
    adjacency list ascending, write a varint list length per node, then the
    first neighbour as a zig-zag gap from the node's own id (2x for positive
    x, 2|x|+1 for negative) and every following neighbour as the plain gap
    from its predecessor, each as a 7-bit-per-byte varint. An empty list
    still costs its one-byte length marker.
    """
    n = g.node_count
    _check_bijection(order, n)
    new_id = np.empty(n, dtype=np.int64)
    new_id[np.asarray(order, dtype=np.int64)] = np.arange(n)
    indptr, nbr = _csr(n, new_id[g.edge_array])
    deg = np.diff(indptr)
    first = np.zeros(len(nbr), dtype=bool)
    first[indptr[:-1][deg > 0]] = True
    first_gap = nbr[first] - np.flatnonzero(deg)
    values = np.concatenate([
        deg,
        np.where(first_gap > 0, 2 * first_gap, -2 * first_gap + 1),
        np.diff(nbr)[~first[1:]],
    ])
    # A varint of x takes one byte plus one per 7-bit threshold 128**k <= x.
    total = len(values)
    threshold = 128
    while values.size and threshold <= values.max():
        total += int(np.count_nonzero(values >= threshold))
        threshold *= 128
    return total


def planted_partition(
    block_sizes: Sequence[int],
    p_in: float,
    p_out: float,
    type_count: int = 2,
    seed: int = 0,
    types_follow_blocks: bool = False,
    shuffle: bool = False,
) -> tuple[HeteroGraph, np.ndarray]:
    """Seeded planted-partition graph with typed nodes.

    Node types are drawn uniformly unless ``types_follow_blocks`` ties each
    type to its block. ``shuffle`` relabels node ids by a seeded permutation
    so the native order carries no block information. Returns the graph and
    the per-node block labels.
    """
    rng = random.Random(seed)
    n = sum(block_sizes)
    blocks = np.repeat(np.arange(len(block_sizes)), block_sizes)
    if types_follow_blocks:
        type_count = len(block_sizes)
        types = [int(b) for b in blocks]
    else:
        types = [rng.randrange(type_count) for _ in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            p = p_in if blocks[i] == blocks[j] else p_out
            if rng.random() < p:
                edges.append((i, j))
    g = HeteroGraph(
        [f"n{i}" for i in range(n)],
        types,
        edges,
        [0] * len(edges),
        [f"t{t}" for t in range(type_count)],
        ["link"],
    )
    if shuffle:
        perm = list(range(n))
        rng.shuffle(perm)
        g = permute_graph(g, perm)
        blocks = blocks[perm]
    return g, blocks
