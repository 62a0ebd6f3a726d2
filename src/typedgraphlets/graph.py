"""Heterogeneous graph model, typed edge-list I/O, and weighted-graph primitives."""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import compress
from typing import Callable, Collection, Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .errors import DegenerateCutError, EdgeListFormatError, ZeroVolumeError

# Label used when the input carries no edge-type column.
DEFAULT_EDGE_TYPE = "-"


class HeteroGraph:
    """Undirected simple graph whose nodes and edges each carry one type.

    Nodes are dense integers ``0..node_count-1``. External string ids from
    input files are kept in ``node_names`` so output can be written back in
    the caller's vocabulary. Type labels are interned into
    ``node_type_names`` / ``edge_type_names`` and referenced by integer id.
    Instances are immutable after construction and safe to share across
    workers.
    """

    def __init__(
        self,
        node_names: Sequence[str],
        node_types: Sequence[int],
        edges: Sequence[tuple[int, int]],
        edge_types: Sequence[int],
        node_type_names: Sequence[str],
        edge_type_names: Sequence[str],
        collapsed_duplicates: int = 0,
    ):
        self.node_names = tuple(node_names)
        self.node_types = tuple(node_types)
        self.node_type_names = tuple(node_type_names)
        self.edge_type_names = tuple(edge_type_names)
        self.collapsed_duplicates = collapsed_duplicates

        n = len(self.node_names)
        if len(self.node_types) != n:
            raise ValueError("node_types length does not match node_names")
        if len(set(self.node_names)) != n:
            raise ValueError("duplicate external node ids")
        if len(edges) != len(edge_types):
            raise ValueError("edge_types length does not match edges")
        for t in self.node_types:
            if not 0 <= t < len(self.node_type_names):
                raise ValueError(f"node type id {t} out of range")
        for t in edge_types:
            if not 0 <= t < len(self.edge_type_names):
                raise ValueError(f"edge type id {t} out of range")

        norm_edges = []
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) references unknown node")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate undirected edge {key}")
            seen.add(key)
            norm_edges.append(key)
        self.edges = tuple(norm_edges)
        self.edge_types = tuple(edge_types)

    @property
    def node_count(self) -> int:
        return len(self.node_names)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def node_type_count(self) -> int:
        return len(self.node_type_names)

    @property
    def edge_type_count(self) -> int:
        return len(self.edge_type_names)

    @cached_property
    def neighbours(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR adjacency ``(indptr, indices)``, read-only int64.

        The neighbours of node v, ascending, are
        ``indices[indptr[v]:indptr[v + 1]]``.
        """
        indptr, indices = _csr(self.node_count, self.edge_array)
        indptr.flags.writeable = indices.flags.writeable = False
        return indptr, indices

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.diff(self.neighbours[0])

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        return {e: i for i, e in enumerate(self.edges)}

    @cached_property
    def edge_array(self) -> np.ndarray:
        """Read-only int64 (edge_count, 2) array of ``edges``, u < v per row."""
        ends = np.array(self.edges, dtype=np.int64).reshape(-1, 2)
        ends.flags.writeable = False
        return ends

    @cached_property
    def sorted_edge_keys(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge keys ``u * n + v`` (u < v), ascending, and their edge types."""
        ends = self.edge_array
        keys = ends[:, 0] * self.node_count + ends[:, 1]
        order = np.argsort(keys)
        return keys[order], np.array(self.edge_types, dtype=np.int64)[order]

    def pair_edge_types(self, keys: np.ndarray) -> np.ndarray:
        """Edge type of each pair key ``u * n + v`` (u < v); -1 for a non-edge."""
        edge_keys, edge_types = self.sorted_edge_keys
        if not len(edge_keys):
            return np.full(np.shape(keys), -1, dtype=np.int64)
        pos = np.searchsorted(edge_keys, keys)
        np.minimum(pos, len(edge_keys) - 1, out=pos)
        return np.where(edge_keys[pos] == keys, edge_types[pos], -1)

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edge_index

    def edge_type_of(self, u: int, v: int) -> int:
        key = (u, v) if u < v else (v, u)
        return self.edge_types[self.edge_index[key]]

    def node_type_id(self, label: str) -> int:
        try:
            return self.node_type_names.index(label)
        except ValueError:
            raise KeyError(label) from None

    def subgraph(self, nodes: Iterable[int]) -> tuple["HeteroGraph", list[int]]:
        """Induced subgraph on ``nodes``; returns (graph, new-to-old id map).

        Ids outside the graph raise ValueError. Type tables are carried over
        unchanged so type ids stay comparable with the parent graph.
        """
        keep = sorted(set(nodes))
        _check_node_ids(self.node_count, keep)
        relabel = np.full(self.node_count, -1, dtype=np.int64)
        relabel[keep] = np.arange(len(keep))
        ends = relabel[self.edge_array]
        inside = (ends >= 0).all(axis=1)
        edges = ends[inside].tolist()
        etypes = list(compress(self.edge_types, inside.tolist()))
        sub = HeteroGraph(
            [self.node_names[i] for i in keep],
            [self.node_types[i] for i in keep],
            edges,
            etypes,
            self.node_type_names,
            self.edge_type_names,
        )
        return sub, keep

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"HeteroGraph(n={self.node_count}, m={self.edge_count}, "
            f"node_types={self.node_type_count}, edge_types={self.edge_type_count})"
        )


def _csr(n: int, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, indices)`` of the undirected edges ``ends`` on n nodes."""
    src = np.concatenate([ends[:, 0], ends[:, 1]])
    dst = np.concatenate([ends[:, 1], ends[:, 0]])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst[np.lexsort((dst, src))]


class WeightedGraph:
    """Symmetric nonnegative edge weights over dense integer nodes.

    Zero-weight pairs are dropped from the support; negative weights are
    rejected. ``pairs`` is the (nnz, 2) array of support pairs (u, v),
    u < v, ``pair_weights`` their weights and ``degrees`` the weighted
    degrees; ``weights`` is a dict view of the same pairs, in ``pairs``
    order, built on first use. Weights and weighted degrees are kept as
    exact integers whenever every weight is integral.
    """

    def __init__(self, node_count: int, weights: Mapping[tuple[int, int], float]):
        norm: dict[tuple[int, int], float] = {}
        for (u, v), w in weights.items():
            if u == v:
                raise ValueError("weighted graph has zero diagonal; no self-loops")
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise ValueError(f"weight key ({u}, {v}) out of range")
            if w < 0:
                raise ValueError(f"negative weight at ({u}, {v})")
            if w == 0:
                continue
            key = (u, v) if u < v else (v, u)
            if key in norm and norm[key] != w:
                raise ValueError(f"conflicting weights for {key}")
            norm[key] = w
        integral = all(float(w).is_integer() for w in norm.values())
        self._set_pairs(node_count, np.array(list(norm), dtype=np.int64).reshape(-1, 2),
                        np.array(list(norm.values()), dtype=np.int64 if integral else np.float64))

    @classmethod
    def from_pairs(cls, node_count: int, pairs: np.ndarray,
                   pair_weights: np.ndarray) -> "WeightedGraph":
        """Build from pair arrays that are already valid, without re-checking.

        ``pairs`` is an int64 (nnz, 2) array of distinct (u, v), u < v, in
        range; ``pair_weights`` holds their positive weights, int64 when
        integral. The result equals ``WeightedGraph(node_count, weights)``
        for the same pairs in the same order.
        """
        wg = cls.__new__(cls)
        wg._set_pairs(node_count, pairs, pair_weights)
        return wg

    def _set_pairs(self, node_count: int, pairs: np.ndarray, pair_weights: np.ndarray) -> None:
        self.node_count = node_count
        self.pairs = pairs
        self.pair_weights = pair_weights
        deg = np.bincount(pairs.ravel(), np.repeat(pair_weights, 2), minlength=node_count)
        self.degrees = deg.astype(pair_weights.dtype)

    @cached_property
    def weights(self) -> dict[tuple[int, int], int | float]:
        keys = zip(self.pairs[:, 0].tolist(), self.pairs[:, 1].tolist())
        return dict(zip(keys, self.pair_weights.tolist()))

    @property
    def total_volume(self):
        return self.degrees.sum()

    def __repr__(self) -> str:  # pragma: no cover
        return f"WeightedGraph(n={self.node_count}, nnz={len(self.pairs)})"


def load_typed_edge_list(text: str) -> HeteroGraph:
    """Parse a typed edge-list document into a HeteroGraph.

    One record per line: ``src dst src_type dst_type [edge_type]``. Lines
    starting with ``#`` are comments; ``%node <id> <type>`` declares a node
    without requiring an incident edge (used for isolated nodes). Node ids
    and type labels are interned densely in first-appearance order. The two
    directions of an undirected edge collapse into one (counted in
    ``collapsed_duplicates``); collapsed duplicates that disagree on edge
    type are an error, as are self-loops and extra columns (edge weights are
    not accepted).
    """
    node_ids: dict[str, int] = {}
    node_types: list[int] = []
    node_type_ids: dict[str, int] = {}
    edge_type_ids: dict[str, int] = {}
    edge_map: dict[tuple[int, int], int] = {}
    collapsed = 0

    def intern_node(name: str, type_label: str, lineno: int) -> int:
        tid = node_type_ids.setdefault(type_label, len(node_type_ids))
        if name in node_ids:
            nid = node_ids[name]
            if node_types[nid] != tid:
                raise EdgeListFormatError(
                    f"line {lineno}: node '{name}' declared with conflicting types "
                    f"'{list(node_type_ids)[node_types[nid]]}' and '{type_label}'"
                )
            return nid
        nid = len(node_ids)
        node_ids[name] = nid
        node_types.append(tid)
        return nid

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0].startswith("%"):
            if parts[0] != "%node" or len(parts) != 3:
                raise EdgeListFormatError(
                    f"line {lineno}: unrecognised directive (expected '%node <id> <type>')"
                )
            intern_node(parts[1], parts[2], lineno)
            continue
        if len(parts) not in (4, 5):
            raise EdgeListFormatError(
                f"line {lineno}: expected 'src dst src_type dst_type [edge_type]', "
                f"got {len(parts)} columns"
            )
        src, dst, stype, dtype = parts[:4]
        if src == dst:
            raise EdgeListFormatError(f"line {lineno}: self-loop at '{src}'")
        etype = parts[4] if len(parts) == 5 else DEFAULT_EDGE_TYPE
        u = intern_node(src, stype, lineno)
        v = intern_node(dst, dtype, lineno)
        eid = edge_type_ids.setdefault(etype, len(edge_type_ids))
        key = (u, v) if u < v else (v, u)
        if key in edge_map:
            if edge_map[key] != eid:
                raise EdgeListFormatError(
                    f"line {lineno}: edge {src}-{dst} repeats with conflicting edge types"
                )
            collapsed += 1
            continue
        edge_map[key] = eid

    # Ids are interned densely in insertion order, so each table's keys
    # listed in order are its names by id.
    return HeteroGraph(
        list(node_ids),
        node_types,
        list(edge_map),
        list(edge_map.values()),
        list(node_type_ids),
        list(edge_type_ids),
        collapsed_duplicates=collapsed,
    )


def read_typed_edge_list(path) -> HeteroGraph:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EdgeListFormatError(f"input is not UTF-8: byte offset {exc.start}") from None
    return load_typed_edge_list(text)


def connected_components(g: WeightedGraph) -> tuple[np.ndarray, int]:
    """Label connected components of the positive-weight support.

    Labels are ``0..C-1`` ordered by the smallest node id each component
    contains, so the labelling is canonical. Zero-degree nodes come out as
    singleton components.
    """
    n = g.node_count
    u, v = g.pairs.T
    support = sp.coo_matrix((np.ones(len(u)), (u, v)), shape=(n, n))
    count, raw = csgraph.connected_components(support, directed=False)
    _, first = np.unique(raw, return_index=True)
    canon = np.empty(count, dtype=np.int64)
    canon[np.argsort(first)] = np.arange(count)
    return canon[raw], count


def _check_node_ids(node_count: int, ids: Collection[int]) -> None:
    """Reject ids outside ``0..node_count-1`` with ValueError."""
    if ids:
        for v in (min(ids), max(ids)):
            if not 0 <= v < node_count:
                raise ValueError(f"node id {v} out of range")


def _validate_cut(node_count: int, s: Iterable[int]) -> frozenset:
    side = frozenset(s)
    _check_node_ids(node_count, side)
    if not side or len(side) == node_count:
        raise DegenerateCutError("cut requires both sides nonempty")
    return side


def weighted_cut(g: WeightedGraph, s: Iterable[int]):
    """Total weight crossing the cut (s, complement)."""
    side = _validate_cut(g.node_count, s)
    return sum(w for (u, v), w in g.weights.items() if (u in side) != (v in side))


def weighted_volume(g: WeightedGraph, s: Iterable[int]):
    idx = sorted(set(s))
    _check_node_ids(g.node_count, idx)
    if not idx:
        return 0
    val = g.degrees[idx].sum()
    return int(val) if g.degrees.dtype == np.int64 else float(val)


def weighted_conductance(g: WeightedGraph, s: Iterable[int]) -> float:
    """Cut weight over the smaller side's weighted volume.

    Symmetric under complementing ``s``. A cut with an empty side raises
    DegenerateCutError; zero minimum volume (an all-isolated side) raises
    ZeroVolumeError rather than returning 0 or infinity.
    """
    side = _validate_cut(g.node_count, s)
    vol_s = weighted_volume(g, side)
    vol_rest = g.total_volume - vol_s
    denom = min(vol_s, vol_rest)
    if denom <= 0:
        raise ZeroVolumeError("one side of the cut has zero weighted volume")
    return weighted_cut(g, side) / denom


# The exhaustive cut searches visit 2^(n-1) cuts.
BRUTE_FORCE_MAX_CUT_NODES = 20


def _check_cut_search_size(n: int) -> None:
    if n > BRUTE_FORCE_MAX_CUT_NODES:
        raise ValueError(f"brute force limited to {BRUTE_FORCE_MAX_CUT_NODES} nodes, got {n}")
    if n < 2:
        raise DegenerateCutError("graph too small to cut")


def _min_conductance_cut(
    deg: np.ndarray, cut_of: Callable[[int], int]
) -> tuple[frozenset, Fraction]:
    """Exact minimum of cut over smaller-side volume, by exhausting all cuts.

    ``cut_of(bits)`` is the integer cut of the side whose members are the set
    bits. Node n-1 stays on the complement side so each cut is seen once.
    Cuts where one side has zero volume are excluded. Ties break toward the
    cut whose smaller side is smallest, then lexicographically by membership.
    """
    n = len(deg)
    total = int(deg.sum())
    best: tuple[int, int, tuple[int, tuple[int, ...]]] | None = None
    best_side: frozenset | None = None
    for bits in range(1, 1 << (n - 1)):
        vol = 0
        members = []
        b = bits
        while b:
            v = (b & -b).bit_length() - 1
            vol += int(deg[v])
            members.append(v)
            b &= b - 1
        minvol = min(vol, total - vol)
        if minvol == 0:
            continue
        cut = cut_of(bits)
        side = frozenset(members)
        other = frozenset(range(n)) - side
        canon_s = (len(side), tuple(sorted(side)))
        canon_o = (len(other), tuple(sorted(other)))
        canon = min(canon_s, canon_o)
        # cut/minvol < best_cut/best_minvol, cross-multiplied to stay exact.
        if best is None or (cut * best[1], canon) < (best[0] * minvol, best[2]):
            best = (cut, minvol, canon)
            best_side = side if canon == canon_s else other
    if best is None:
        raise ZeroVolumeError("every cut has a zero-volume side")
    cut, minvol, _ = best
    return best_side, Fraction(cut, minvol)


def brute_force_min_weighted_conductance(g: WeightedGraph) -> tuple[frozenset, Fraction]:
    """Exact minimum weighted conductance by exhausting all cuts.

    Requires integer weights so the minimum is an exact Fraction. Cuts where
    one side has zero volume are excluded. Ties break toward the cut whose
    smaller side is smallest, then lexicographically by membership.
    """
    _check_cut_search_size(g.node_count)
    if g.degrees.dtype != np.int64:
        raise ValueError("exact brute force requires integer weights")
    us, vs = g.pairs.astype(np.uint32).T
    ws = g.pair_weights

    def cut_of(bits: int) -> int:
        sb = np.uint32(bits)
        return int(ws[((sb >> us) & 1) != ((sb >> vs) & 1)].sum())

    return _min_conductance_cut(g.degrees, cut_of)


def _check_bijection(order: Sequence[int], n: int) -> None:
    if sorted(order) != list(range(n)):
        raise ValueError("order is not a bijection on node ids")


def permute_graph(g: HeteroGraph, order: Sequence[int]) -> HeteroGraph:
    """Relabel nodes so that ``order[k]`` becomes node ``k``.

    ``order`` must be a bijection on ``0..n-1``. Types and external names are
    carried along; applying ``inverse_permutation(order)`` afterwards restores
    the original graph.
    """
    _check_bijection(order, g.node_count)
    return HeteroGraph(
        [g.node_names[old] for old in order],
        [g.node_types[old] for old in order],
        np.argsort(order)[g.edge_array].tolist(),
        g.edge_types,
        g.node_type_names,
        g.edge_type_names,
        collapsed_duplicates=g.collapsed_duplicates,
    )


def inverse_permutation(order: Sequence[int]) -> list[int]:
    """The order that undoes ``order``; it must be a bijection on 0..n-1."""
    _check_bijection(order, len(order))
    return np.argsort(order).tolist()
