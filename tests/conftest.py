import random

import numpy as np
import pytest

from typedgraphlets import (
    HeteroGraph,
    WeightedGraph,
    census,
    connected_components,
    planted_partition,
)


def make_graph(n, edges, node_types=None, edge_types=None,
               node_type_names=("U",), edge_type_names=("e",)):
    """Small-graph builder with single-type defaults."""
    node_types = node_types if node_types is not None else [0] * n
    edge_types = edge_types if edge_types is not None else [0] * len(edges)
    return HeteroGraph(
        [f"n{i}" for i in range(n)],
        node_types,
        edges,
        edge_types,
        node_type_names,
        edge_type_names,
    )


def random_graph(seed, n, p, n_type_count=1, e_type_count=1):
    """Seeded G(n, p) with uniformly random node and edge types."""
    rng = random.Random(seed)
    node_types = [rng.randrange(n_type_count) for _ in range(n)]
    edges = []
    edge_types = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((i, j))
                edge_types.append(rng.randrange(e_type_count))
    return HeteroGraph(
        [f"n{i}" for i in range(n)],
        node_types,
        edges,
        edge_types,
        [f"T{t}" for t in range(n_type_count)],
        [f"r{t}" for t in range(e_type_count)],
    )


def barbell():
    """Two triangles {0,1,2} and {3,4,5} joined by the bridge (2,3)."""
    return make_graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])


@pytest.fixture
def barbell_graph():
    return barbell()


def top_signature(g, skeleton_name, mode="multiset", edge_type=None):
    """Most frequent typed signature of one skeleton, or None.

    With ``edge_type`` set, only signatures whose edges all have that type
    are considered.
    """
    table = census(g, skels=[skeleton_name], typing_mode=mode)
    if edge_type is not None:
        table = {
            sig: count for sig, count in table.items()
            if set(sig.edge_types) == {edge_type}
        }
    if not table:
        return None
    ranked = sorted(
        table.items(), key=lambda kv: (-kv[1], kv[0].node_types, kv[0].edge_types)
    )
    return ranked[0][0]


def two_relation_planted_partition(block_sizes, p_in, p_out, type_count, seed):
    """``planted_partition`` edges as relation 0 plus a block-free relation 1.

    Relation 1 has as many edges as relation 0, drawn uniformly over node
    pairs not yet joined from ``random.Random(seed + 1)``, so it carries no
    block information. Returns the graph and the per-node block labels.
    """
    g, blocks = planted_partition(
        block_sizes, p_in, p_out, type_count=type_count, seed=seed
    )
    rng = random.Random(seed + 1)
    n = g.node_count
    joined = set(g.edges)
    extra = []
    while len(extra) < g.edge_count:
        u, v = rng.randrange(n), rng.randrange(n)
        pair = (min(u, v), max(u, v))
        if u != v and pair not in joined:
            joined.add(pair)
            extra.append(pair)
    return HeteroGraph(
        g.node_names,
        g.node_types,
        g.edges + tuple(extra),
        g.edge_types + (1,) * len(extra),
        g.node_type_names,
        g.edge_type_names + ("noise",),
    ), blocks


def random_integer_weights(seed, n, blocks, p):
    """Seeded integer weights on pairs inside randomly assigned blocks.

    Pairs across blocks get no weight, so the support splits into several
    components and some nodes stay isolated. About one weight in ten is an
    explicit 0, and keys come in either orientation.
    """
    rng = random.Random(seed)
    block = [rng.randrange(blocks) for _ in range(n)]
    weights = {}
    for i in range(n):
        for j in range(i + 1, n):
            if block[i] == block[j] and rng.random() < p:
                key = (i, j) if rng.random() < 0.5 else (j, i)
                weights[key] = 0 if rng.random() < 0.1 else rng.randint(1, 9)
    return weights


def connected_random_graph(seed, n, p, n_type_count=1):
    """Seeded G(n, p) resampled until connected."""
    while True:
        g = random_graph(seed, n, p, n_type_count=n_type_count)
        wg = WeightedGraph(n, {e: 1 for e in g.edges})
        _, count = connected_components(wg)
        if count == 1:
            return g
        seed += 100_003


def reference_edge_sweep(g):
    """Independent classical normalized-Laplacian sweep, all from scratch.

    Dense eigendecomposition, direct cut sums per prefix, no incremental
    updates; follows the same documented tie and sign conventions.
    """
    n = g.node_count
    A = np.zeros((n, n))
    for u, v in g.edges:
        A[u, v] = A[v, u] = 1.0
    deg = A.sum(axis=1)
    dinv = 1.0 / np.sqrt(deg)
    L = np.eye(n) - dinv[:, None] * A * dinv[None, :]
    vals, vecs = np.linalg.eigh(L)
    v2 = vecs[:, 1]
    imax = int(np.argmax(np.abs(v2)))
    if v2[imax] < 0:
        v2 = -v2
    order = list(np.argsort(v2, kind="stable"))
    total = deg.sum()
    best_phi, best_k = None, None
    for k in range(1, n):
        s = order[:k]
        rest = order[k:]
        cut = A[np.ix_(s, rest)].sum()
        phi = cut / min(deg[s].sum(), total - deg[s].sum())
        if best_phi is None or phi < best_phi:
            best_phi, best_k = phi, k
    s = order[:best_k]
    rest = order[best_k:]
    side = s if len(s) < len(rest) else rest
    return sorted(int(v) for v in side), best_phi


def graph_to_edge_list_text(g):
    """Serialise a HeteroGraph back into the typed edge-list format."""
    lines = []
    touched = set()
    for (u, v), t in zip(g.edges, g.edge_types):
        touched.update((u, v))
        lines.append(
            f"{g.node_names[u]} {g.node_names[v]} "
            f"{g.node_type_names[g.node_types[u]]} {g.node_type_names[g.node_types[v]]} "
            f"{g.edge_type_names[t]}"
        )
    for v in range(g.node_count):
        if v not in touched:
            lines.append(f"%node {g.node_names[v]} {g.node_type_names[g.node_types[v]]}")
    return "\n".join(lines) + "\n"
