"""Small connected subgraph shapes and exact typed-instance enumeration.

The catalog covers the eight connected 3- and 4-node shapes plus the single
edge (needed for the classical spectral reduction and baselines). Instances
are always induced occurrences, deduplicated by node set. The fast
enumerator reads only the graph's CSR form and sorted edge keys; its
independent oracles, an O(n^4) subset scan and one-occurrence typing over
a dict of the edges, live in ``oracles``.

Every query reads one occurrence table per (graph, skeleton, typing mode):
the occurrences as an integer array of node ids, enumerated once per graph,
plus a signature-id column that is typed on first demand.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, permutations
from typing import Iterable

import numpy as np

from .graph import HeteroGraph


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


@lru_cache(maxsize=None)
def _automorphism_perms(skel: Skeleton) -> tuple[tuple[int, ...], ...]:
    edge_set = {frozenset(e) for e in skel.edges}
    out = []
    for p in permutations(range(skel.node_count)):
        if all(frozenset((p[u], p[v])) in edge_set for u, v in skel.edges):
            out.append(p)
    return tuple(out)


def _segments(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges ``starts[i] .. starts[i] + counts[i] - 1``, concatenated."""
    return np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)


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


def _pairs_within(indptr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Position pairs (i, j), i < j, inside each segment ``indptr[s] .. indptr[s + 1] - 1``.

    Pairs come out ordered by i, then j.
    """
    at = np.arange(indptr[-1])
    later = np.repeat(indptr[1:], np.diff(indptr)) - at - 1
    return np.repeat(at, later), _segments(at + 1, later)


def _centred_wedges(g: HeteroGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Induced wedges as (centre, CSR position of the low end, of the high end).

    Each centre meets each pair of its ascending CSR neighbours once; a pair
    is kept when its two ends are not adjacent. Wedges are ordered by
    centre, then ends.
    """
    indptr, indices = g.neighbours
    first, second = _pairs_within(indptr)
    open_ = g.pair_edge_types(indices[first] * g.node_count + indices[second]) < 0
    first, second = first[open_], second[open_]
    return np.repeat(np.arange(g.node_count), g.degrees)[first], first, second


def _ordered(rows: np.ndarray, n: int) -> np.ndarray:
    """Rows of ids below ``n`` as ascending int32 rows, in lexicographic order.

    A row of k ids reads as one base-n number when n^k fits in int64, and
    one argsort of those keys orders the rows; larger graphs take a lexsort.
    """
    rows = rows.astype(np.int32)
    rows.sort(axis=1)
    if n ** rows.shape[1] > 2 ** 63:
        return rows[np.lexsort(rows.T[::-1])]
    keys = rows[:, 0].astype(np.int64)
    for column in rows.T[1:]:
        keys = keys * n + column
    return rows[np.argsort(keys)]


def _wedges(g: HeteroGraph) -> np.ndarray:
    """Induced wedges as ascending int32 rows, in lexicographic order."""
    centre, first, second = _centred_wedges(g)
    indices = g.neighbours[1]
    return _ordered(np.column_stack([centre, indices[first], indices[second]]), g.node_count)


def _four_cycles(g: HeteroGraph) -> np.ndarray:
    """Induced 4-cycles as ascending int32 rows, in lexicographic order.

    An induced 4-cycle is two induced wedges on one end pair whose centres
    are not adjacent. A stable sort by end pair keeps each pair's centres
    ascending; of a cycle's two end pairs, the one holding its smallest
    node lists it.
    """
    n = g.node_count
    indices = g.neighbours[1]
    centre, low, high = _centred_wedges(g)
    low, high = indices[low], indices[high]
    keys = low * n + high
    order = np.argsort(keys, kind="stable")
    centre, low, high, keys = centre[order], low[order], high[order], keys[order]
    bounds = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    first, second = _pairs_within(np.concatenate([[0], bounds, [len(keys)]]))
    smallest = low[first] < centre[first]
    first, second = first[smallest], second[smallest]
    apart = g.pair_edge_types(centre[first] * n + centre[second]) < 0
    first, second = first[apart], second[apart]
    return _ordered(np.column_stack([low[first], high[first], centre[first], centre[second]]), n)


def _pair_keys(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Keys ``min * n + max`` of the node pairs (u, v)."""
    return np.minimum(u, v) * n + np.maximum(u, v)


def _four_paths(g: HeteroGraph) -> np.ndarray:
    """Induced 4-paths a-b-c-d as ascending int32 rows, in lexicographic order.

    Each edge (b, c), b < c, is the middle edge of the paths that join a
    neighbour a of b to a neighbour d of c: a is not c nor adjacent to it,
    d is not b nor adjacent to it, and a and d are not adjacent. Then a is
    not d either, since d is adjacent to c. Every induced 4-path has one
    middle edge, so it comes out once.
    """
    n = g.node_count
    indptr, indices = g.neighbours
    b, c = _edges(g).T

    def ends(near: np.ndarray, far: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(edge, x) for each neighbour x of ``near`` that is not ``far`` nor adjacent to it."""
        count = g.degrees[near]
        edge = np.repeat(np.arange(len(near)), count)
        x = indices[_segments(indptr[near], count)]
        keep = (x != far[edge]) & (g.pair_edge_types(_pair_keys(x, far[edge], n)) < 0)
        return edge[keep], x[keep]

    edge, a = ends(b, c)
    right_edge, d = ends(c, b)
    count = np.bincount(right_edge, minlength=len(b))
    start = np.cumsum(count) - count
    d = d[_segments(start[edge], count[edge])]
    edge, a = np.repeat(edge, count[edge]), np.repeat(a, count[edge])
    keep = g.pair_edge_types(_pair_keys(a, d, n)) < 0
    edge = edge[keep]
    return _ordered(np.column_stack([a[keep], b[edge], c[edge], d[keep]]), n)


def _four_stars(g: HeteroGraph) -> np.ndarray:
    """Induced 4-stars as ascending int32 rows, in lexicographic order.

    Each induced wedge (centre c, ends a < b) grows by every neighbour
    x > b of c that is adjacent to neither end, so a star comes out once,
    from the wedge on its two smallest leaves.
    """
    n = g.node_count
    indptr, indices = g.neighbours
    centre, first, second = _centred_wedges(g)
    count = indptr[centre + 1] - second - 1
    x = indices[_segments(second + 1, count)]
    a, b = np.repeat(indices[first], count), np.repeat(indices[second], count)
    keep = (g.pair_edge_types(a * n + x) < 0) & (g.pair_edge_types(b * n + x) < 0)
    return _ordered(np.column_stack([np.repeat(centre, count)[keep], a[keep], b[keep], x[keep]]), n)


# A triangle plus one neighbour of it has 4, 5 or 6 edges.
_TRIANGLE_SHAPES = {4: "tailed-triangle", 5: "diamond", 6: "4-clique"}


def _triangle_shape_rows(g: HeteroGraph) -> dict[str, np.ndarray]:
    """Induced tailed triangles, diamonds and 4-cliques, keyed by skeleton name.

    Every triangle grows by each neighbour of each of its nodes; a set
    reached from several triangles collapses to one ascending int32 row,
    and the shape follows from the row's edge count. Rows are in
    lexicographic order.
    """
    indptr, indices = g.neighbours
    seeds = _triangles(g).astype(np.int32)
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
    quads = _ordered(quads[(quads[:, 1:] != quads[:, :-1]).all(axis=1)], g.node_count)
    new = np.ones(len(quads), dtype=bool)
    new[1:] = (quads[1:] != quads[:-1]).any(axis=1)
    quads = quads[new]
    ends = quads.astype(np.int64)
    edges = sum(g.pair_edge_types(ends[:, a] * g.node_count + ends[:, b]) >= 0
                for a, b in combinations(range(4), 2))
    return {name: quads[edges == m] for m, name in _TRIANGLE_SHAPES.items()}


def _tuples(g: HeteroGraph, rows: np.ndarray) -> list[tuple[int, ...]]:
    """Rows as tuples that share one int object per node id."""
    return list(zip(*np.arange(g.node_count).astype(object)[rows.T]))


def enumerate_instances(g: HeteroGraph, skel) -> list[tuple[int, ...]]:
    """Node sets of all induced occurrences of ``skel``, lexicographic order.

    Each occurrence appears exactly once. Induced means exactly: a triangle
    is never reported as a wedge.
    """
    skel = resolve_skeleton(skel)
    if skel.node_count == 4:
        return _tuples(g, _occurrence_rows(g, skel))
    # Looked up per call, so a test that patches one enumerator reaches every caller.
    shape = {"edge": _edges, "wedge": _wedges, "triangle": _triangles}[skel.name]
    return _tuples(g, shape(g))


def enumerate_all_instances(g: HeteroGraph) -> dict[str, list[tuple[int, ...]]]:
    """Occurrence node sets for every catalog skeleton, from the occurrence tables."""
    return {name: _tuples(g, _occurrence_rows(g, SKELETONS[name])) for name in SKELETON_ORDER}


# Occurrence tables of each live graph: skeleton name -> rows, and
# (skeleton name, typing mode) -> signature ids plus interned signatures.
# Nothing in a table refers back to its graph, so it dies with the graph.
_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _occurrence_rows(g: HeteroGraph, skel: Skeleton) -> np.ndarray:
    """Read-only (occurrences, k) node ids of ``skel``, rows as enumerated.

    A 4-node request takes the route of its shape: the 4-path, the 4-star
    and the 4-cycle each have their own, and a shape holding a triangle
    grows the triangles, which fills all three such tables.
    """
    tables = _TABLES.setdefault(g, {})
    if skel.name not in tables:
        if skel.name in _TRIANGLE_SHAPES.values():
            found = _triangle_shape_rows(g)
        elif skel.node_count == 4:
            # Looked up per call, so a test that patches one route reaches every caller.
            route = {"4-path": _four_paths, "4-star": _four_stars, "4-cycle": _four_cycles}
            found = {skel.name: route[skel.name](g)}
        else:
            nodes, k = enumerate_instances(g, skel), skel.node_count
            found = {skel.name: np.fromiter(chain.from_iterable(nodes), np.int32,
                                            k * len(nodes)).reshape(-1, k)}
        for name, rows in found.items():
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
    pair_types = np.column_stack([g.pair_edge_types(col) for col in _row_pair_keys(g, rows).T])
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


def _rows_matching(
    g: HeteroGraph, wanted: list[TypedGraphletSignature]
) -> tuple[np.ndarray, np.ndarray]:
    """The occurrence rows of each signature in ``wanted``, and whose they are.

    Every signature in ``wanted`` has one skeleton and typing mode. The rows
    of ``wanted[j]`` come out in table order, after those of ``wanted[j - 1]``,
    beside their owner j; the cached signature column tells which rows
    match. One wildcard alone takes the table as it is, untyped.
    """
    rows = _occurrence_rows(g, wanted[0].skeleton)
    if len(wanted) == 1 and wanted[0].is_wildcard:
        return rows, np.zeros(len(rows), dtype=np.int64)
    ids, sigs = _signature_column(g, wanted[0].skeleton, wanted[0].typing_mode)
    at = [np.flatnonzero(np.array([w.matches(s) for s in sigs], dtype=bool)[ids]) for w in wanted]
    return rows[np.concatenate(at)], np.repeat(np.arange(len(wanted)), [len(a) for a in at])


def instances_matching(g: HeteroGraph, sig: TypedGraphletSignature) -> np.ndarray:
    """Rows of the occurrences whose signature matches ``sig``.

    A wildcard selects every row without typing any occurrence.
    """
    return _rows_matching(g, [sig])[0]


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
