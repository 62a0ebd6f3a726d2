"""Heterogeneous graph model, typed edge-list I/O, and weighted-graph primitives."""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Collection, Iterable, Mapping, Sequence

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
    Edges are stored once, as ``edge_array``: read-only int64 rows (u, v),
    u < v, in input order; ``sorted_edge_keys`` holds their keys ``u * n + v``,
    ascending, with their edge types. Instances are immutable.
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
        etypes = np.asarray(edge_types, dtype=np.int64)
        for kind, ids, count in (("node", np.asarray(self.node_types, dtype=np.int64),
                                  self.node_type_count), ("edge", etypes, self.edge_type_count)):
            bad = ids[(ids < 0) | (ids >= count)]
            if len(bad):
                raise ValueError(f"{kind} type id {bad[0]} out of range")
        m = len(edges)
        try:
            raw = np.asarray(edges, dtype=np.int64).reshape(m, -1) if m else np.empty((0, 2), np.int64)
        except ValueError:  # ragged rows, or ids that are not integers
            raw = np.empty((m, 0), dtype=np.int64)
        if raw.shape[1] != 2:  # check the rows before the first non-pair, then unpack it
            first = next((i for i, row in enumerate(edges) if np.shape(row) != (2,)), 0)
            HeteroGraph(self.node_names, self.node_types, edges[:first], edge_types[:first],
                        self.node_type_names, self.edge_type_names)
            u, v = edges[first]
            raise ValueError("edges must be pairs of integer node ids")
        # One sort of the keys u * n + v finds each key's first row; the rest repeat it.
        ends = np.sort(raw, axis=1)
        keys, firsts = np.unique(ends[:, 0] * n + ends[:, 1], return_index=True)
        repeat = np.bincount(firsts, minlength=m) == 0
        loop = raw[:, 0] == raw[:, 1]
        outside = ((raw < 0) | (raw >= n)).any(axis=1)
        # The first faulty row raises, if any; a row outside 0..n-1 may share
        # another row's key, but then it is faulty itself and comes no later.
        for i in np.flatnonzero(loop | outside | repeat)[:1]:
            if loop[i]:
                raise ValueError(f"self-loop at node {raw[i, 0]}")
            if outside[i]:
                raise ValueError(f"edge ({raw[i, 0]}, {raw[i, 1]}) references unknown node")
            raise ValueError(f"duplicate undirected edge {tuple(ends[i].tolist())}")
        ends.flags.writeable = False
        self.edge_array = ends
        self.edge_types = tuple(etypes.tolist())
        self.sorted_edge_keys = keys, etypes[firsts]

    @property
    def node_count(self) -> int:
        return len(self.node_names)

    @property
    def edge_count(self) -> int:
        return len(self.edge_array)

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
    def edges(self) -> tuple[tuple[int, int], ...]:
        """``edge_array`` as (u, v) tuples of Python ints, built on first read."""
        return tuple(map(tuple, self.edge_array.tolist()))

    def pair_edge_types(self, keys: np.ndarray) -> np.ndarray:
        """Edge type of each pair key ``u * n + v`` (u < v); -1 for a non-edge."""
        edge_keys, edge_types = self.sorted_edge_keys
        if not len(edge_keys):
            return np.full(np.shape(keys), -1, dtype=np.int64)
        pos = np.searchsorted(edge_keys, keys)
        np.minimum(pos, len(edge_keys) - 1, out=pos)
        return np.where(edge_keys[pos] == keys, edge_types[pos], -1)

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
        sub = HeteroGraph(
            [self.node_names[i] for i in keep],
            [self.node_types[i] for i in keep],
            ends[inside],
            np.asarray(self.edge_types, dtype=np.int64)[inside],
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


def _type_conflict(lineno: int, name: str, old: str, new: str) -> EdgeListFormatError:
    return EdgeListFormatError(
        f"line {lineno}: node '{name}' declared with conflicting types '{old}' and '{new}'"
    )


def _marked_id(lineno: int, name: str) -> EdgeListFormatError:
    return EdgeListFormatError(
        f"line {lineno}: node id '{name}' starts with '{name[0]}', "
        "which marks a comment or a directive"
    )


def load_typed_edge_list(text: str) -> HeteroGraph:
    """Parse a typed edge-list document into a HeteroGraph.

    One record per line: ``src dst src_type dst_type [edge_type]``. A line
    whose first non-blank character is ``#`` is a comment. A ``#`` after data
    is an ordinary column: ``a b U U e # note`` has 7 columns and is rejected,
    and ``a b U U #`` has edge type ``#``. ``%node <id> <type>`` declares a
    node without requiring an incident edge (used for isolated nodes). Node
    ids and type labels are interned densely in first-appearance order; a
    node id, checked where it first appears, may not start with ``#`` or
    ``%`` (as a source it would read as a comment or a directive), while
    labels may. The two directions of an undirected edge collapse into one
    (counted in ``collapsed_duplicates``); collapsed duplicates that disagree
    on edge type are an error, as are self-loops and extra columns (edge
    weights are not accepted). The first faulty line raises; within a line
    the checks run in this order: directive, column count, self-loop, source
    id or type, target id or type, conflicting repeat.
    """
    node_ids: dict[str, int] = {}
    node_types: list[int] = []
    node_type_ids: dict[str, int] = {}
    edge_type_ids: dict[str, int] = {}
    edge_map: dict[tuple[int, int], int] = {}
    edge_lines = 0

    # str.split() drops surrounding whitespace: [] is a blank line, and the
    # first token's first character marks a comment or a directive.
    for lineno, parts in enumerate(map(str.split, text.splitlines()), start=1):
        if not parts or parts[0][0] == "#":
            continue
        if parts[0][0] == "%":
            if parts[0] != "%node" or len(parts) != 3:
                raise EdgeListFormatError(
                    f"line {lineno}: unrecognised directive (expected '%node <id> <type>')"
                )
            _, src, stype = parts
            dst = None  # a declaration interns its one node below, then stops
        elif len(parts) == 5:
            src, dst, stype, dtype, etype = parts
        elif len(parts) == 4:
            src, dst, stype, dtype = parts
            etype = DEFAULT_EDGE_TYPE
        else:
            raise EdgeListFormatError(
                f"line {lineno}: expected 'src dst src_type dst_type [edge_type]', "
                f"got {len(parts)} columns"
            )
        if src == dst:
            raise EdgeListFormatError(f"line {lineno}: self-loop at '{src}'")
        tid = node_type_ids.setdefault(stype, len(node_type_ids))
        u = node_ids.setdefault(src, len(node_ids))
        if u == len(node_types):
            if src[0] in "#%":
                raise _marked_id(lineno, src)
            node_types.append(tid)
        elif node_types[u] != tid:
            raise _type_conflict(lineno, src, list(node_type_ids)[node_types[u]], stype)
        if dst is None:
            continue
        tid = node_type_ids.setdefault(dtype, len(node_type_ids))
        v = node_ids.setdefault(dst, len(node_ids))
        if v == len(node_types):
            if dst[0] in "#%":
                raise _marked_id(lineno, dst)
            node_types.append(tid)
        elif node_types[v] != tid:
            raise _type_conflict(lineno, dst, list(node_type_ids)[node_types[v]], dtype)
        eid = edge_type_ids.setdefault(etype, len(edge_type_ids))
        edge_lines += 1
        if edge_map.setdefault((u, v) if u < v else (v, u), eid) != eid:
            raise EdgeListFormatError(
                f"line {lineno}: edge {src}-{dst} repeats with conflicting edge types"
            )

    # Ids are interned densely in insertion order, so each table's keys
    # listed in order are its names by id.
    return HeteroGraph(
        list(node_ids),
        node_types,
        np.fromiter(chain.from_iterable(edge_map), np.int64, 2 * len(edge_map)).reshape(-1, 2),
        list(edge_map.values()),
        list(node_type_ids),
        list(edge_type_ids),
        collapsed_duplicates=edge_lines - len(edge_map),
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


def _validate_cut(node_count: int, s: Iterable[int]) -> np.ndarray:
    """The side ``s`` of a cut as a boolean node mask.

    ``s`` is any iterable of node ids, repeats allowed, and is read once.
    An id outside ``0..node_count-1`` raises ValueError; then a side that is
    empty or holds every node raises DegenerateCutError.
    """
    ids = np.fromiter(s, dtype=np.int64)
    _check_node_ids(node_count, ids.tolist())
    side = np.zeros(node_count, dtype=bool)
    side[ids] = True
    if not 0 < np.count_nonzero(side) < node_count:
        raise DegenerateCutError("cut requires both sides nonempty")
    return side


def _conductance(cut: int, vol_s: int, total: int, what: str) -> Fraction:
    """``cut`` over the smaller side's volume, exact; ``total`` is both sides'
    volume. A side of zero volume raises ZeroVolumeError ending in ``what``."""
    denom = min(vol_s, total - vol_s)
    if denom == 0:
        raise ZeroVolumeError(f"one side of the cut {what}")
    return Fraction(cut, denom)


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
        np.argsort(order)[g.edge_array],
        g.edge_types,
        g.node_type_names,
        g.edge_type_names,
        collapsed_duplicates=g.collapsed_duplicates,
    )


def inverse_permutation(order: Sequence[int]) -> list[int]:
    """The order that undoes ``order``; it must be a bijection on 0..n-1."""
    _check_bijection(order, len(order))
    return np.argsort(order).tolist()
