"""Motif-weighted adjacency, normalized Laplacian, and typed cut measures.

The motif matrix W counts, per graph edge, the induced occurrences of one
typed graphlet containing that edge. W induces a weighted graph whose
volumes coincide exactly with the typed-graphlet volumes, while weighted
cut weight only bounds the typed cut count (it counts how many times an
occurrence is severed, not whether). All counts here are exact integers;
only conductances are ratios, returned as Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import GraphletAbsentError, ZeroVolumeError
from .graph import (
    HeteroGraph,
    WeightedGraph,
    _check_cut_search_size,
    _check_node_ids,
    _min_conductance_cut,
    _validate_cut,
)
from .graphlets import TypedGraphletSignature, instances_matching, _row_pair_keys


@dataclass
class MotifMatrix:
    """W as a weighted graph, and the occurrence rows it was built from."""

    graph: HeteroGraph
    signature: TypedGraphletSignature
    motif_graph: WeightedGraph
    instances: np.ndarray

    @property
    def weights(self) -> dict[tuple[int, int], int]:
        return self.motif_graph.weights

    @property
    def degrees(self) -> np.ndarray:
        return self.motif_graph.degrees

    def induced_graph(self) -> WeightedGraph:
        return self.motif_graph

    def covered_nodes(self) -> list[int]:
        return np.flatnonzero(self.degrees > 0).tolist()

    def uncovered_nodes(self) -> list[int]:
        return np.flatnonzero(self.degrees == 0).tolist()

    def dump(self) -> str:
        """Coordinate-triple dump: header ``n nnz`` then ``i j w`` lines."""
        lines = [f"{self.graph.node_count} {len(self.weights)}"]
        for (u, v), w in sorted(self.weights.items()):
            lines.append(f"{u} {v} {w}")
        return "\n".join(lines) + "\n"


@dataclass
class NormalizedLaplacian:
    """I - D^{-1/2} W D^{-1/2} restricted to positive-degree nodes.

    ``nodes[i]`` maps restricted row i back to the original node id.
    """

    matrix: sp.csr_matrix
    nodes: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def build_motif_matrix(g: HeteroGraph, sig: TypedGraphletSignature) -> MotifMatrix:
    """W entry (i, j), i < j: matching occurrences that contain edge (i, j)."""
    return _motif_matrix(g, sig, instances_matching(g, sig))


def _motif_matrix(g: HeteroGraph, sig: TypedGraphletSignature, rows: np.ndarray) -> MotifMatrix:
    """W of the given occurrence rows of ``sig`` in ``g``.

    Every node pair of an occurrence row that is a graph edge is an edge of
    the induced occurrence; W counts those pairs by their ``i * n + j`` key.
    """
    n = g.node_count
    keys = _row_pair_keys(g, rows).ravel()
    keys, counts = np.unique(keys[g.pair_edge_types(keys) >= 0], return_counts=True)
    pairs = np.column_stack(np.divmod(keys, n))
    return MotifMatrix(g, sig, WeightedGraph.from_pairs(n, pairs, counts.astype(np.int64)), rows)


def typed_degree(mm: MotifMatrix, v: int) -> int:
    """Incident-edge count of ``v`` summed over occurrences.

    Computed from the occurrence rows and ``has_edge``, not from W, so
    volume identities against W stay a genuine cross-check. Ids outside the
    graph raise ValueError.
    """
    g = mm.graph
    _check_node_ids(g.node_count, [v])
    rows = mm.instances[(mm.instances == v).any(axis=1)]
    return sum(g.has_edge(v, u) for u in rows.ravel().tolist())


def typed_volume(mm: MotifMatrix, s: Iterable[int]) -> int:
    side = set(s)
    return sum(typed_degree(mm, v) for v in side)


def _instance_cut(rows: np.ndarray, side: frozenset) -> int:
    """Occurrence rows with nodes on both sides of the cut."""
    inside = np.isin(rows, list(side)).sum(axis=1)
    return int(np.count_nonzero((inside > 0) & (inside < rows.shape[1])))


def typed_cut(g: HeteroGraph, sig: TypedGraphletSignature, s: Iterable[int]) -> int:
    """Number of occurrences with nodes on both sides of the cut."""
    side = _validate_cut(g.node_count, s)
    return _instance_cut(instances_matching(g, sig), side)


def typed_conductance(
    g: HeteroGraph, sig: TypedGraphletSignature, s: Iterable[int]
) -> Fraction:
    """Typed cut count over the smaller side's typed volume, exact.

    A side whose typed volume is zero (no occurrence touches it) makes the
    measure undefined and raises ZeroVolumeError.
    """
    return _typed_conductance(build_motif_matrix(g, sig), _validate_cut(g.node_count, s))


def _typed_conductance(mm: MotifMatrix, side: frozenset) -> Fraction:
    """Typed conductance of a validated cut, from W's degrees and the rows."""
    vol_s = int(mm.degrees[sorted(side)].sum())
    vol_rest = int(mm.degrees.sum()) - vol_s
    denom = min(vol_s, vol_rest)
    if denom == 0:
        raise ZeroVolumeError("one side of the cut has zero typed-graphlet volume")
    return Fraction(_instance_cut(mm.instances, side), denom)


def edge_expansion_measure(
    g: HeteroGraph, sig: TypedGraphletSignature, s: Iterable[int]
) -> Fraction:
    """Contrast measure: typed cut over node-membership cluster size.

    Cluster size counts, over all occurrences, how many of their nodes fall
    in the side; degrees play no role. Kept for comparison only, the sweep
    never optimises it.
    """
    side = _validate_cut(g.node_count, s)
    rows = instances_matching(g, sig)
    size_s = int(np.isin(rows, list(side)).sum())
    denom = min(size_s, rows.size - size_s)
    if denom == 0:
        raise ZeroVolumeError("one side of the cut touches no occurrence")
    return Fraction(_instance_cut(rows, side), denom)


def brute_force_min_conductance(
    g: HeteroGraph, sig: TypedGraphletSignature
) -> tuple[frozenset, Fraction]:
    """Exact minimum typed-graphlet conductance over all cuts.

    Exhausts 2^(n-1) bipartitions, skipping cuts where a side has zero typed
    volume (nodes outside every occurrence make such cuts degenerate, and
    the minimum is taken over well-defined cuts only). Ties break toward the
    smaller side, then lexicographic membership. Guarded to
    ``BRUTE_FORCE_MAX_CUT_NODES`` nodes.
    """
    n = g.node_count
    _check_cut_search_size(n)
    mm = build_motif_matrix(g, sig)
    if not len(mm.instances):
        raise GraphletAbsentError("typed graphlet has no instance in the graph")
    masks = np.bitwise_or.reduce(np.uint64(1) << mm.instances.astype(np.uint64), axis=1)
    full = np.uint64((1 << n) - 1)

    def cut_of(bits: int) -> int:
        sb = np.uint64(bits)
        return int(np.count_nonzero(((masks & sb) != 0) & ((masks & ~sb & full) != 0)))

    return _min_conductance_cut(mm.degrees, cut_of)


def build_normalized_laplacian(
    wg: WeightedGraph, nodes: Sequence[int] | None = None
) -> NormalizedLaplacian:
    """Normalized Laplacian of ``wg`` restricted to ``nodes`` (default: all).

    Rows with zero degree inside the restriction are excluded; D^{-1/2} is
    undefined there. Ids outside the graph have no degree and are excluded
    the same way.
    """
    n = wg.node_count
    keep = np.arange(n) if nodes is None else np.unique(np.asarray(nodes, dtype=np.int64))
    keep = keep[(keep >= 0) & (keep < n)]
    inside = np.zeros(n, dtype=bool)
    inside[keep] = True
    sel = inside[wg.pairs[:, 0]] & inside[wg.pairs[:, 1]]
    pairs, w = wg.pairs[sel], wg.pair_weights[sel]
    deg = np.bincount(pairs.ravel(), np.repeat(w, 2), minlength=n)
    kept = keep[deg[keep] > 0]
    if not len(kept):
        raise GraphletAbsentError("graphlet absent from graph: empty matrix support")
    dim = len(kept)
    index = np.zeros(n, dtype=np.int64)
    index[kept] = np.arange(dim)
    inv_sqrt = np.zeros(n)
    inv_sqrt[kept] = 1.0 / np.sqrt(deg[kept])
    u, v = pairs.T
    # One value per pair, u < v, for both triangles keeps the matrix
    # bitwise symmetric.
    val = -w * inv_sqrt[u] * inv_sqrt[v]
    diag = np.arange(dim)
    rows = np.concatenate([diag, np.column_stack([index[u], index[v]]).ravel()])
    cols = np.concatenate([diag, np.column_stack([index[v], index[u]]).ravel()])
    data = np.concatenate([np.ones(dim), np.repeat(val, 2)])
    mat = sp.csr_matrix((data, (rows, cols)), shape=(dim, dim))
    return NormalizedLaplacian(mat, kept)


def normalized_laplacian(mm: MotifMatrix) -> NormalizedLaplacian:
    """Laplacian of the motif-induced weighted graph on covered nodes."""
    if not len(mm.instances):
        raise GraphletAbsentError("graphlet absent from graph")
    return build_normalized_laplacian(mm.induced_graph())
