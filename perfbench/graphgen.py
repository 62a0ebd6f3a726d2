"""O(m) seeded typed planted-partition generator for the benchmark.

The package's ``planted_partition`` tests every node pair, which is O(n^2)
in Python and too slow for the benchmark's graph sizes. This generator draws
``round(n * avg_degree / 2)`` distinct edges directly: each draw lands inside
one block with probability ``in_share`` and between two different blocks
otherwise. Node types are uniform at random and there is one edge type.

Everything derives from one ``random.Random`` seeded with a string, so the
same arguments give byte-identical files on every Python 3 interpreter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

EDGE_TYPE = "link"


@dataclass(frozen=True)
class GraphSpec:
    """Parameters of one generated graph."""

    n: int
    avg_degree: float
    blocks: int
    node_types: int
    in_share: float = 0.9

    @property
    def m(self) -> int:
        return round(self.n * self.avg_degree / 2)


@dataclass
class TypedGraph:
    """Generated graph: node types, block labels and sorted edges (u < v)."""

    node_types: list[int]
    blocks: list[int]
    edges: list[tuple[int, int]]

    def to_text(self) -> str:
        """Typed edge-list text: one ``%node`` line per node, then edges.

        The ``%node`` header makes every node (isolated ones too) exist and
        fixes node ids to ``n0..n{n-1}`` in order.
        """
        t = self.node_types
        lines = [f"%node n{v} t{t[v]}" for v in range(len(t))]
        lines.extend(f"n{u} n{v} t{t[u]} t{t[v]} {EDGE_TYPE}" for u, v in self.edges)
        return "\n".join(lines) + "\n"


def generate(spec: GraphSpec, seed: str) -> TypedGraph:
    """Draw a typed planted-partition graph in O(n + m) expected time."""
    n, m, k = spec.n, spec.m, spec.blocks
    if not 2 <= k <= n // 2:
        raise ValueError("need 2 <= blocks <= n/2 so every block holds an edge")
    if m > n * (n // k - 1) // 4:
        raise ValueError("too many edges for rejection sampling to stay O(m)")
    rng = random.Random(seed)
    # Equal-size blocks over a shuffled node order, so ids carry no block.
    perm = list(range(n))
    rng.shuffle(perm)
    members: list[list[int]] = [perm[b::k] for b in range(k)]
    blocks = [0] * n
    for b, nodes in enumerate(members):
        for v in nodes:
            blocks[v] = b
    node_types = [rng.randrange(spec.node_types) for _ in range(n)]
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        if rng.random() < spec.in_share:
            nodes = members[rng.randrange(k)]
            u, v = rng.sample(nodes, 2)
        else:
            u, v = rng.randrange(n), rng.randrange(n)
            if blocks[u] == blocks[v]:
                continue
        edges.add((u, v) if u < v else (v, u))
    return TypedGraph(node_types, blocks, sorted(edges))
