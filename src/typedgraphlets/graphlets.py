"""Small connected subgraph shapes and exact typed-instance enumeration.

The catalog covers the eight connected 3- and 4-node shapes plus the single
edge (needed for the classical spectral reduction and baselines). Instances
are always induced occurrences, deduplicated by node set. The fast
enumerator reads only the graph's CSR form and sorted edge keys; an O(n^4)
subset scan over ``has_edge`` is kept as an independent oracle for testing.

Every query reads one occurrence table per (graph, skeleton, typing mode):
the occurrences as an integer array of node ids, enumerated once per graph,
plus a signature-id column that is typed on first demand.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterable, Sequence

import numpy as np

from .errors import UnknownTypeError
from .graph import HeteroGraph

BRUTE_FORCE_MAX_NODES = 64


@dataclass(frozen=True)
class Skeleton:
    """One connected shape: canonical adjacency over nodes 0..k-1."""

    name: str
    node_count: int
    edges: tuple[tuple[int, int], ...]
    automorphisms: int

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(sum(v in e for e in self.edges) for v in range(self.node_count)))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Skeleton({self.name})"


SKELETONS: dict[str, Skeleton] = {
    s.name: s
    for s in (
        Skeleton("edge", 2, ((0, 1),), 2),
        Skeleton("wedge", 3, ((0, 1), (1, 2)), 2),
        Skeleton("triangle", 3, ((0, 1), (0, 2), (1, 2)), 6),
        Skeleton("4-path", 4, ((0, 1), (1, 2), (2, 3)), 2),
        Skeleton("4-star", 4, ((0, 1), (0, 2), (0, 3)), 6),
        Skeleton("4-cycle", 4, ((0, 1), (1, 2), (2, 3), (0, 3)), 8),
        Skeleton("tailed-triangle", 4, ((0, 1), (0, 2), (1, 2), (0, 3)), 2),
        Skeleton("diamond", 4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)), 4),
        Skeleton("4-clique", 4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)), 24),
    )
}

# Enumeration order for census output and deterministic ranking: the order
# the skeletons are listed in above.
SKELETON_ORDER = tuple(SKELETONS)

THREE_FOUR_NODE = SKELETON_ORDER[1:]

_ALIASES = {"3-path": "wedge", "chordal-cycle": "diamond"}

# Degree sequence plus edge count identifies every connected graph on at
# most 4 nodes, so induced subgraphs classify by table lookup.
_CLASSIFY = {
    (s.node_count, s.edge_count, s.degree_sequence): s.name for s in SKELETONS.values()
}

TYPING_MODES = ("multiset", "set", "strict")


def resolve_skeleton(name) -> Skeleton:
    if isinstance(name, Skeleton):
        return name
    key = _ALIASES.get(name, name)
    if key not in SKELETONS:
        raise KeyError(f"unknown skeleton '{name}'")
    return SKELETONS[key]


@dataclass(frozen=True)
class TypedGraphletSignature:
    """Grouping key identifying one typed graphlet.

    ``node_types`` and ``edge_types`` hold sorted type-id tuples under the
    'multiset' mode (the default), deduplicated tuples under 'set', and
    canonical per-position tuples under 'strict', where positions follow the
    skeleton's canonical labelling up to automorphism. ``None`` acts as a
    wildcard and matches any typing, which is how untyped motifs are
    expressed.
    """

    skeleton: Skeleton
    node_types: tuple[int, ...] | None = None
    edge_types: tuple[int, ...] | None = None
    typing_mode: str = "multiset"

    def __post_init__(self):
        if self.typing_mode not in TYPING_MODES:
            raise ValueError(f"typing_mode must be one of {TYPING_MODES}")

    def matches(self, concrete: "TypedGraphletSignature") -> bool:
        if self.skeleton != concrete.skeleton:
            return False
        if self.node_types is not None and self.node_types != concrete.node_types:
            return False
        if self.edge_types is not None and self.edge_types != concrete.edge_types:
            return False
        return True

    @property
    def is_wildcard(self) -> bool:
        return self.node_types is None and self.edge_types is None


def _induced_edges(g: HeteroGraph, nodes: Sequence[int]) -> list[tuple[int, int]]:
    return [(u, v) for u, v in combinations(sorted(nodes), 2) if g.has_edge(u, v)]


@lru_cache(maxsize=None)
def _automorphism_perms(skel: Skeleton) -> tuple[tuple[int, ...], ...]:
    edge_set = {frozenset(e) for e in skel.edges}
    out = []
    for p in permutations(range(skel.node_count)):
        if all(frozenset((p[u], p[v])) in edge_set for u, v in skel.edges):
            out.append(p)
    return tuple(out)


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


def _segments(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges ``starts[i] .. starts[i] + counts[i] - 1``, concatenated."""
    return np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)


def _unique_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """The distinct rows of ``rows`` (ids below ``n``), in lexicographic order.

    One lexsort over the rows' column pairs as keys ``u * n + v``, which
    stay exact in int64 for any graph of fewer than 3 * 10^9 nodes.
    """
    keys = [rows[:, i].astype(np.int64) for i in range(0, rows.shape[1], 2)]
    for i, key in enumerate(keys[: rows.shape[1] // 2]):
        key *= n
        key += rows[:, 2 * i + 1]
    order = np.lexsort(keys[::-1])
    new = np.zeros(len(rows), dtype=bool)
    new[:1] = True
    while keys:
        key = keys.pop()[order]
        new[1:] |= key[1:] != key[:-1]
    return rows[order[new]]


def _edges(g: HeteroGraph) -> np.ndarray:
    """Edges as rows (u, v), u < v, in lexicographic order."""
    return np.column_stack(np.divmod(g.sorted_edge_keys[0], g.node_count))


def _triangles(g: HeteroGraph) -> np.ndarray:
    """Induced triangles as ascending rows, in lexicographic order.

    Each edge (u, v) in key order meets the neighbours w > v of v; w closes
    a triangle when (u, w) is an edge.
    """
    indptr, indices = g.neighbours
    u, v = _edges(g).T
    above = indptr[:-1] + np.bincount(v, minlength=g.node_count)
    count = indptr[v + 1] - above[v]
    w = indices[_segments(above[v], count)]
    u, v = np.repeat(u, count), np.repeat(v, count)
    closed = g.pair_edge_types(u * g.node_count + w) >= 0
    return np.column_stack([u[closed], v[closed], w[closed]])


def _wedges(g: HeteroGraph) -> np.ndarray:
    """Induced wedges as ascending rows, in lexicographic order.

    Each position of the CSR ``indices`` pairs with every later position of
    its segment, so every center meets each pair of its neighbours once; a
    pair is kept when its two ends are not adjacent.
    """
    indptr, indices = g.neighbours
    at = np.arange(len(indices))
    later = np.repeat(indptr[1:], g.degrees) - at - 1
    first, second = np.repeat(at, later), _segments(at + 1, later)
    open_ = g.pair_edge_types(indices[first] * g.node_count + indices[second]) < 0
    first, second = first[open_], second[open_]
    center = np.repeat(np.arange(g.node_count), g.degrees)[first]
    rows = np.column_stack([center, indices[first], indices[second]])
    rows.sort(axis=1)
    return _unique_rows(rows, g.node_count)


# (edge count, max degree) tells the connected 4-node shapes apart; each
# node's pairs are its columns among ``combinations(range(4), 2)``.
_FOUR_NODE_SHAPES = {(s.edge_count, s.degree_sequence[-1]): s.name
                     for s in SKELETONS.values() if s.node_count == 4}
_NODE_PAIRS = [[i for i, pair in enumerate(combinations(range(4), 2)) if v in pair]
               for v in range(4)]


def _four_node_rows(g: HeteroGraph) -> dict[str, np.ndarray]:
    """All induced 4-node occurrences as ascending rows, keyed by skeleton name.

    Every connected 4-node graph has a non-cut vertex, so each occurrence is
    a triangle or an induced wedge plus one neighbour of it. Every such seed
    grows by each neighbour of each of its nodes; an occurrence reached from
    several seeds collapses to one row, and the shape follows from the
    row's edge count and maximum degree.
    """
    indptr, indices = g.neighbours
    seeds = np.vstack([_triangles(g), _wedges(g)]).astype(np.int32)
    counts = g.degrees[seeds]
    quads = np.empty((counts.sum(), 4), dtype=np.int32)
    at = 0
    for j in range(3):
        grown = slice(at, at + counts[:, j].sum())
        quads[grown, :3] = np.repeat(seeds, counts[:, j], axis=0)
        quads[grown, 3] = indices[_segments(indptr[seeds[:, j]], counts[:, j])]
        at = grown.stop
    quads.sort(axis=1)
    # A neighbour that is already in its seed repeats a node.
    quads = quads[(quads[:, 1:] != quads[:, :-1]).all(axis=1)]
    quads = _unique_rows(quads, g.node_count)
    linked = np.column_stack([g.pair_edge_types(quads[:, a].astype(np.int64) * g.node_count
                                                + quads[:, b]) >= 0
                              for a, b in combinations(range(4), 2)])
    edges = linked.sum(axis=1)
    max_deg = linked[:, _NODE_PAIRS].sum(axis=2).max(axis=1)
    return {name: quads[(edges == m) & (max_deg == d)]
            for (m, d), name in _FOUR_NODE_SHAPES.items()}


def _tuples(g: HeteroGraph, rows: np.ndarray) -> list[tuple[int, ...]]:
    """Rows as tuples that share one int object per node id."""
    return list(zip(*np.arange(g.node_count).astype(object)[rows.T]))


_SMALL_SHAPES = {"edge": _edges, "wedge": _wedges, "triangle": _triangles}


def enumerate_instances(g: HeteroGraph, skel) -> list[tuple[int, ...]]:
    """Node sets of all induced occurrences of ``skel``, lexicographic order.

    Each occurrence appears exactly once. Induced means exactly: a triangle
    is never reported as a wedge.
    """
    skel = resolve_skeleton(skel)
    if skel.node_count == 4:
        return _tuples(g, _occurrence_rows(g, skel))
    return _tuples(g, _SMALL_SHAPES[skel.name](g))


def enumerate_all_instances(g: HeteroGraph) -> dict[str, list[tuple[int, ...]]]:
    """Occurrence node sets for every catalog skeleton, from the occurrence tables."""
    return {name: _tuples(g, _occurrence_rows(g, SKELETONS[name])) for name in SKELETON_ORDER}


# Occurrence tables of each live graph: skeleton name -> rows, and
# (skeleton name, typing mode) -> signature ids plus interned signatures.
# Nothing in a table refers back to its graph, so it dies with the graph.
_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _occurrence_rows(g: HeteroGraph, skel: Skeleton) -> np.ndarray:
    """Read-only (occurrences, k) node ids of ``skel``, rows as enumerated.

    One 4-node request fills all six 4-node tables from one expansion.
    """
    tables = _TABLES.setdefault(g, {})
    if skel.name not in tables:
        if skel.node_count == 4:
            found = _four_node_rows(g)
        else:
            found = {skel.name: enumerate_instances(g, skel)}
        for name, nodes in found.items():
            rows = np.array(nodes, dtype=np.int32).reshape(-1, SKELETONS[name].node_count)
            rows.flags.writeable = False
            tables[name] = rows
    return tables[skel.name]


def _row_pair_keys(g: HeteroGraph, rows: np.ndarray) -> np.ndarray:
    """Keys ``u * n + v`` of every node pair (u, v) of each ascending row.

    Column j holds the j-th pair of ``combinations(range(k), 2)``.
    """
    ends = rows.astype(np.int64)
    return np.column_stack([ends[:, a] * g.node_count + ends[:, b]
                            for a, b in combinations(range(rows.shape[1]), 2)])


def _type_keys(g: HeteroGraph, skel: Skeleton, rows: np.ndarray, typing_mode: str,
               sentinel: int) -> np.ndarray:
    """One key row per occurrence: k node-type, then |E(skel)| edge-type columns.

    Two rows are equal exactly when ``signature_of`` gives the two
    occurrences equal signatures. Each node pair of a row is looked up in
    the graph's sorted edge keys; a non-edge reads -1. ``sentinel`` exceeds
    every type id: set mode pads its distinct types with it, and strict mode
    fills with it the candidate labellings that do not map every skeleton
    edge onto an edge.
    """
    k, m = skel.node_count, skel.edge_count
    node_types = np.asarray(g.node_types, dtype=np.int64)[rows]
    pair_cols = {pair: i for i, pair in enumerate(combinations(range(k), 2))}
    pair_types = g.pair_edge_types(_row_pair_keys(g, rows))
    if typing_mode == "multiset":
        return np.hstack([np.sort(node_types, axis=1), np.sort(pair_types, axis=1)[:, -m:]])
    if typing_mode == "set":
        blocks = [np.sort(node_types, axis=1), np.sort(pair_types, axis=1)[:, -m:]]
        for block in blocks:
            block[:, 1:][block[:, 1:] == block[:, :-1]] = sentinel
            block.sort(axis=1)
        return np.hstack(blocks)
    # strict: the smallest (node types, edge types) over every labelling p
    # that maps the skeleton onto the occurrence, compared column by column.
    best = np.full((len(rows), k + m), sentinel, dtype=np.int64)
    at = np.arange(len(rows))
    for p in permutations(range(k)):
        edge_types = pair_types[:, [pair_cols[min(p[u], p[v]), max(p[u], p[v])]
                                    for u, v in skel.edges]]
        cand = np.hstack([node_types[:, list(p)], edge_types])
        cand[(edge_types < 0).any(axis=1)] = sentinel
        first = (cand != best).argmax(axis=1)
        less = cand[at, first] < best[at, first]
        best[less] = cand[less]
    return best


def _signature_column(
    g: HeteroGraph, skel: Skeleton, typing_mode: str
) -> tuple[np.ndarray, list[TypedGraphletSignature]]:
    """Per-row index into the signatures of ``skel``, in first-seen order.

    Rows are grouped by their type keys with one stable lexsort; a group's
    id is the rank of its first row.
    """
    tables = _TABLES.setdefault(g, {})
    key = (skel.name, typing_mode)
    if key not in tables:
        rows = _occurrence_rows(g, skel)
        sentinel = max(g.node_type_count, g.edge_type_count)
        keys = _type_keys(g, skel, rows, typing_mode, sentinel)
        order = np.lexsort(keys.T)
        ordered = keys[order]
        starts = np.ones(len(rows), dtype=bool)
        starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
        firsts = order[starts]
        rank = np.empty(len(firsts), dtype=np.int32)
        rank[np.argsort(firsts)] = np.arange(len(firsts))
        ids = np.empty(len(rows), dtype=np.int32)
        ids[order] = rank[np.cumsum(starts) - 1]
        k = skel.node_count
        sigs = [
            TypedGraphletSignature(
                skel,
                tuple(t for t in row[:k] if t != sentinel),
                tuple(t for t in row[k:] if t != sentinel),
                typing_mode,
            )
            for row in keys[np.sort(firsts)].tolist()
        ]
        tables[key] = (ids, sigs)
    return tables[key]


def instances_matching(g: HeteroGraph, sig: TypedGraphletSignature) -> np.ndarray:
    """Rows of the occurrences whose signature matches ``sig``.

    A wildcard selects every row without typing any occurrence.
    """
    rows = _occurrence_rows(g, sig.skeleton)
    if sig.is_wildcard:
        return rows
    ids, sigs = _signature_column(g, sig.skeleton, sig.typing_mode)
    return rows[np.isin(ids, [i for i, s in enumerate(sigs) if sig.matches(s)])]


def census(
    g: HeteroGraph, skels: Iterable | None = None, typing_mode: str = "multiset"
) -> dict[TypedGraphletSignature, int]:
    """Count occurrences grouped by typed signature.

    The default skeleton list is the eight 3- and 4-node shapes. Keys come
    out sorted by skeleton order, then type tuples, so output is stable.
    """
    if skels is None:
        names = THREE_FOUR_NODE
    else:
        # A skeleton listed twice, or also by an alias, is counted once.
        names = dict.fromkeys(resolve_skeleton(s).name for s in skels)
    counts: dict[TypedGraphletSignature, int] = {}
    for name in names:
        ids, sigs = _signature_column(g, SKELETONS[name], typing_mode)
        for sig, count in zip(sigs, np.bincount(ids, minlength=len(sigs)).tolist()):
            counts[sig] = count
    order = {name: i for i, name in enumerate(SKELETON_ORDER)}
    return dict(
        sorted(
            counts.items(),
            key=lambda kv: (order[kv[0].skeleton.name], kv[0].node_types, kv[0].edge_types),
        )
    )


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


def parse_signature_spec(
    g: HeteroGraph, spec: str, typing_mode: str = "multiset"
) -> TypedGraphletSignature:
    """Parse ``skeleton`` or ``skeleton:typeA,typeB,...`` against a graph.

    With no type list the signature is an untyped wildcard. The skeleton and
    type labels must exist (UnknownTypeError otherwise), and the list length
    must match the skeleton's node count. Edge types are left unconstrained
    (single-edge-type inputs make them redundant anyway).
    """
    name, _, typepart = spec.partition(":")
    name = name.strip()
    try:
        skel = resolve_skeleton(name)
    except KeyError:
        raise UnknownTypeError(f"signature '{spec}': unknown skeleton '{name}'") from None
    if not typepart:
        return TypedGraphletSignature(skel, None, None, typing_mode)
    labels = [t.strip() for t in typepart.split(",") if t.strip()]
    if len(labels) != skel.node_count:
        raise UnknownTypeError(
            f"signature '{spec}': expected {skel.node_count} node types, got {len(labels)}"
        )
    ids = []
    for label in labels:
        try:
            ids.append(g.node_type_id(label))
        except KeyError:
            raise UnknownTypeError(
                f"signature '{spec}': unknown node type '{label}'"
            ) from None
    if typing_mode == "strict":
        # Positional specs canonicalise over skeleton automorphisms so that
        # equivalent orientations of the same typed shape match each other.
        autos = _automorphism_perms(skel)
        node_types = min(
            tuple(ids[a[i]] for i in range(skel.node_count)) for a in autos
        )
    elif typing_mode == "set":
        node_types = tuple(sorted(set(ids)))
    else:
        node_types = tuple(sorted(ids))
    return TypedGraphletSignature(skel, node_types, None, typing_mode)


def format_signature(sig: TypedGraphletSignature, g: HeteroGraph) -> str:
    """Render a signature as ``skel[typeA,typeB,...]`` with readable labels.

    Multiset and set modes list node types sorted by label; strict mode keeps
    canonical position order. Edge types are appended in a second bracket
    only when the graph has more than one edge type.
    """
    if sig.node_types is None and sig.edge_types is None:
        return sig.skeleton.name
    text = sig.skeleton.name
    if sig.node_types is not None:
        labels = [g.node_type_names[t] for t in sig.node_types]
        if sig.typing_mode != "strict":
            labels.sort()
        text += "[" + ",".join(labels) + "]"
    if sig.edge_types is not None and g.edge_type_count > 1:
        elabels = [g.edge_type_names[t] for t in sig.edge_types]
        if sig.typing_mode != "strict":
            elabels.sort()
        text += "[" + ",".join(elabels) + "]"
    return text
