"""Independent oracles for occurrence enumeration and typing.

The fast paths in ``graphlets`` read the graph's CSR form and sorted edge
keys. These routes read it one node pair at a time through ``has_edge``
and ``edge_type_of`` instead, and no query calls them; the tests,
``cluster --oracle-check`` and ``motifmatrix``'s W rebuild do.

| fast path                                   | oracle                     |
|---------------------------------------------|----------------------------|
| ``graphlets`` occurrence tables, every shape | ``brute_force_instances`` |
| ``graphlets._signature_column`` typing      | ``signature_of``           |
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Iterable, Sequence

from .graph import HeteroGraph
from .graphlets import (
    SKELETON_ORDER,
    SKELETONS,
    Skeleton,
    TypedGraphletSignature,
    resolve_skeleton,
)

BRUTE_FORCE_MAX_NODES = 64

# Degree sequence plus edge count identifies every connected graph on at
# most 4 nodes, so induced subgraphs classify by table lookup.
_CLASSIFY = {
    (s.node_count, s.edge_count, s.degree_sequence): s.name for s in SKELETONS.values()
}


def _induced_edges(g: HeteroGraph, nodes: Sequence[int]) -> list[tuple[int, int]]:
    return [(u, v) for u, v in combinations(sorted(nodes), 2) if g.has_edge(u, v)]


def signature_of(
    g: HeteroGraph,
    nodes: Sequence[int],
    skel: Skeleton,
    typing_mode: str = "multiset",
) -> TypedGraphletSignature:
    """Signature of the induced occurrence of ``skel`` on ``nodes``.

    One occurrence at a time, from ``has_edge`` and ``edge_type_of``:
    the oracle for the vectorised typing of ``_signature_column``.
    """
    nodes = tuple(sorted(nodes))
    edges = _induced_edges(g, nodes)
    ntypes = [g.node_types[v] for v in nodes]
    etypes = [g.edge_type_of(u, v) for u, v in edges]
    if typing_mode == "multiset":
        return TypedGraphletSignature(skel, tuple(sorted(ntypes)), tuple(sorted(etypes)), "multiset")
    if typing_mode == "set":
        return TypedGraphletSignature(
            skel, tuple(sorted(set(ntypes))), tuple(sorted(set(etypes))), "set"
        )
    # strict: canonical positional typing, minimised over all isomorphisms
    # onto the canonical skeleton labelling.
    best: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    k = skel.node_count
    for p in permutations(range(k)):
        if not all(g.has_edge(nodes[p[u]], nodes[p[v]]) for u, v in skel.edges):
            continue
        nk = tuple(g.node_types[nodes[p[i]]] for i in range(k))
        ek = tuple(g.edge_type_of(nodes[p[u]], nodes[p[v]]) for u, v in skel.edges)
        if best is None or (nk, ek) < best:
            best = (nk, ek)
    if best is None:
        raise ValueError("nodes do not induce the given skeleton")
    return TypedGraphletSignature(skel, best[0], best[1], "strict")


def classify_induced(g: HeteroGraph, nodes: Sequence[int]) -> str | None:
    """Name of the connected shape induced on ``nodes``, or None."""
    nodes = tuple(sorted(nodes))
    edges = _induced_edges(g, nodes)
    degrees = tuple(sorted(sum(v in e for e in edges) for v in nodes))
    return _CLASSIFY.get((len(nodes), len(edges), degrees))


def _brute_force(g: HeteroGraph, sizes: Iterable[int]) -> dict[str, list[tuple[int, ...]]]:
    """Scan every subset of V of each size and keep the connected shapes.

    Independent of the fast expansion path; guarded to 64 nodes because the
    scan is O(n^4).
    """
    if g.node_count > BRUTE_FORCE_MAX_NODES:
        raise ValueError(
            f"brute force limited to {BRUTE_FORCE_MAX_NODES} nodes, got {g.node_count}"
        )
    out: dict[str, list[tuple[int, ...]]] = {name: [] for name in SKELETON_ORDER}
    for k in sizes:
        for nodes in combinations(range(g.node_count), k):
            name = classify_induced(g, nodes)
            if name is not None:
                out[name].append(nodes)
    return out


def brute_force_instances(g: HeteroGraph, skel) -> list[tuple[int, ...]]:
    """Oracle occurrence node sets of one skeleton, lexicographic order."""
    skel = resolve_skeleton(skel)
    return _brute_force(g, [skel.node_count])[skel.name]


def brute_force_all_instances(g: HeteroGraph) -> dict[str, list[tuple[int, ...]]]:
    """Oracle occurrence node sets for every catalog skeleton."""
    return _brute_force(g, (2, 3, 4))
