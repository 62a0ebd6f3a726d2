"""Motif-weighted adjacency, normalized Laplacian, and typed cut measures.

The motif matrix W counts, per graph edge, the induced occurrences of one
typed graphlet containing that edge. W induces a weighted graph whose
volumes coincide exactly with the typed-graphlet volumes, while weighted
cut weight only bounds the typed cut count (it counts how many times an
occurrence is severed, not whether). All counts here are exact integers;
only conductances are ratios, returned as Fractions.

Two routes fill a motif matrix: the untyped wedge has a closed form over
edge keys, degrees and triangles; every other signature counts its
occurrence rows, and one pass of that count fills the Ws of several
signatures of one skeleton at once. ``_motif_matrices`` is the one place
that chooses between them, for the whole graph and for the parts of a
partition alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import GraphletAbsentError
from .graph import HeteroGraph, WeightedGraph, _conductance, _node_ids, _validate_cut
from .graphlets import (
    SKELETONS,
    TypedGraphletSignature,
    _row_pair_keys,
    _rows_matching,
    instances_matching,
)


@dataclass
class MotifMatrix:
    """W as a weighted graph, with the cut count and occurrence rows behind it.

    ``_cut(side)`` is the number of occurrences with nodes on both sides of
    a boolean node mask. ``instances``, the occurrence rows, is computed on
    first read.
    """

    graph: HeteroGraph
    signature: TypedGraphletSignature
    motif_graph: WeightedGraph
    _rows: Callable[[], np.ndarray] = field(repr=False)
    _cut: Callable[[np.ndarray], int] = field(repr=False)

    @cached_property
    def instances(self) -> np.ndarray:
        return self._rows()

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
    ``build_normalized_laplacian`` gives a CSR ``matrix``; the spectral
    layer's per-component builder gives a dense ``ndarray`` block below the
    dense-solver threshold, with the same entries, and CSR at or above it.
    """

    matrix: np.ndarray | sp.csr_matrix
    nodes: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _dense(lap: NormalizedLaplacian) -> np.ndarray:
    """``lap.matrix`` as a dense array; a dense block is returned as it is."""
    return lap.matrix.toarray() if sp.issparse(lap.matrix) else lap.matrix


def build_motif_matrix(g: HeteroGraph, sig: TypedGraphletSignature) -> MotifMatrix:
    """W entry (i, j), i < j: matching occurrences that contain edge (i, j)."""
    return _motif_matrices(g, [sig], np.ones(g.node_count, dtype=bool))[0]


def _motif_matrices(g: HeteroGraph, sigs: Sequence[TypedGraphletSignature],
                    inside: np.ndarray) -> list[MotifMatrix]:
    """W of each signature over its occurrences that lie wholly inside a node mask.

    They are exactly the occurrences of the subgraph the mask induces. A
    wildcard wedge takes its closed form. The other signatures are grouped
    by (skeleton, typing mode), and one ``_row_graphs`` call fills the Ws of
    a group's signatures, a signature listed twice getting a run of its own.
    A mask that keeps every node restricts nothing, so a lone wildcard's
    rows stay the occurrence table itself.
    """
    out: list = [None] * len(sigs)
    groups: dict[tuple, list[int]] = {}
    for i, sig in enumerate(sigs):
        if sig.is_wildcard and sig.skeleton.name == "wedge":
            out[i] = _wedge_matrix(g, sig, inside)
        else:
            groups.setdefault((sig.skeleton, sig.typing_mode), []).append(i)
    whole = inside.all()
    for at in groups.values():
        rows, owner = _rows_matching(g, [sigs[i] for i in at])
        if not whole:
            held = np.logical_and.reduce([inside[column] for column in rows.T])
            rows, owner = rows[held], owner[held]
        bounds = np.searchsorted(owner, np.arange(len(at) + 1))
        graphs = _row_graphs(g, rows, bounds)
        for i, gH, lo, hi in zip(at, graphs, bounds, bounds[1:]):
            out[i] = _row_matrix(g, sigs[i], gH, rows[lo:hi])
    return out


def _row_matrix(g: HeteroGraph, sig: TypedGraphletSignature, motif_graph: WeightedGraph,
                rows: np.ndarray) -> MotifMatrix:
    """The motif matrix of ``motif_graph``, whose occurrences are ``rows``."""
    return MotifMatrix(g, sig, motif_graph, lambda: rows, lambda side: _instance_cut(rows, side))


def _row_graphs(g: HeteroGraph, rows: np.ndarray, bounds: np.ndarray) -> list[WeightedGraph]:
    """W of several signatures at once, one per run ``rows[bounds[j]:bounds[j + 1]]``.

    Run j holds the occurrence rows of signature j. Every node pair of
    an occurrence row that is a graph edge is an edge of the induced
    occurrence; each W counts its rows' pairs by their ``i * n + j`` key.
    The keys of all rows are made at once and looked up one pair column at
    a time, which bounds the lookup's scratch memory to one column.
    """
    n = g.node_count
    keys = _row_pair_keys(g, rows)
    linked = np.column_stack([g.pair_edge_types(column) >= 0 for column in keys.T])
    graphs = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        found, counts = np.unique(keys[lo:hi][linked[lo:hi]], return_counts=True)
        graphs.append(WeightedGraph.from_pairs(n, np.column_stack(np.divmod(found, n)),
                                               counts.astype(np.int64)))
    return graphs


def _wedge_matrix(g: HeteroGraph, sig: TypedGraphletSignature, inside: np.ndarray) -> MotifMatrix:
    """W and cut count of the induced wedges of G[X], X = ``inside``, in closed form.

    Each neighbour of exactly one end of an edge (i, j) makes one induced
    wedge with it, so W_ij = d_i + d_j - 2 - 2 c_ij, where c_ij counts the
    triangles on the edge (Benson, Gleich and Leskovec, Science 2016). An
    occurrence that is not cut lies wholly on one side, so
    cut(S) = count(G[X]) - count(G[X & S]) - count(G[X - S]), where a graph
    has sum C(d, 2) - 3 * (triangles) induced wedges. Only the edge keys,
    the degrees and the triangle rows inside X are read.
    """
    n = g.node_count
    keys = g.sorted_edge_keys[0]
    ends = np.column_stack(np.divmod(keys, n))
    held = inside[ends].all(axis=1)
    keys, ends = keys[held], ends[held]
    tris = instances_matching(g, TypedGraphletSignature(SKELETONS["triangle"]))
    tris = tris[inside[tris].all(axis=1)]
    common = np.bincount(np.searchsorted(keys, _row_pair_keys(g, tris).ravel()),
                         minlength=len(keys))
    deg = np.bincount(ends.ravel(), minlength=n)
    w = deg[ends[:, 0]] + deg[ends[:, 1]] - 2 - 2 * common
    open_ = w > 0

    def count(side: np.ndarray) -> int:
        d = np.bincount(ends[side[ends].all(axis=1)].ravel(), minlength=n)
        return int((d * (d - 1) // 2).sum()) - 3 * int(np.count_nonzero(side[tris].all(axis=1)))

    total = count(inside)

    def rows() -> np.ndarray:
        rows = instances_matching(g, sig)
        return rows[inside[rows].all(axis=1)]

    return MotifMatrix(g, sig, WeightedGraph.from_pairs(n, ends[open_], w[open_]), rows,
                       lambda side: total - count(side) - count(~side))


def _instance_cut(rows: np.ndarray, side: np.ndarray) -> int:
    """Occurrence rows with nodes on both sides of a boolean node mask."""
    inside = side[rows].sum(axis=1)
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


def _typed_conductance(mm: MotifMatrix, side: np.ndarray) -> Fraction:
    """Typed conductance of a cut side's node mask, from W's degrees and cut count."""
    return _conductance(mm._cut(side), int(mm.degrees[side].sum()), int(mm.degrees.sum()),
                        "has zero typed-graphlet volume")


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
    return _conductance(_instance_cut(rows, side), int(np.count_nonzero(side[rows])), rows.size,
                        "touches no occurrence")


def build_normalized_laplacian(
    wg: WeightedGraph, nodes: Sequence[int] | None = None
) -> NormalizedLaplacian:
    """Normalized Laplacian of ``wg`` restricted to ``nodes`` (default: all).

    Rows with zero degree inside the restriction are excluded; D^{-1/2} is
    undefined there. Ids outside the graph have no degree and are excluded
    the same way; an id that is not an integer raises ValueError.
    """
    n = wg.node_count
    keep = np.arange(n) if nodes is None else np.unique(_node_ids(nodes))
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
    if not len(mm.motif_graph.pairs):
        raise GraphletAbsentError("graphlet absent from graph")
    return build_normalized_laplacian(mm.induced_graph())
