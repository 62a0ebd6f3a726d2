"""Small connected subgraph shapes and exact typed-instance enumeration.

The catalog covers the eight connected 3- and 4-node shapes plus the single
edge (needed for the classical spectral reduction and baselines). Instances
are always induced occurrences, deduplicated by node set. The fast
enumerator expands edges, triangles, and wedges; an O(n^4) subset scan is
kept as an independent oracle for testing.

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
        deg = [0] * self.node_count
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(sorted(deg))

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

# Enumeration order for census output and deterministic ranking.
SKELETON_ORDER = (
    "edge",
    "wedge",
    "triangle",
    "4-path",
    "4-star",
    "4-cycle",
    "tailed-triangle",
    "diamond",
    "4-clique",
)

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
    adj = g.adjacency
    return [(u, v) for u, v in combinations(sorted(nodes), 2) if v in adj[u]]


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
    """Signature of the induced occurrence of ``skel`` on ``nodes``."""
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
    node_set = set(nodes)
    adj = g.adjacency
    best: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    k = skel.node_count
    for p in permutations(range(k)):
        ok = True
        for u, v in skel.edges:
            a, b = nodes[p[u]], nodes[p[v]]
            if b not in adj[a]:
                ok = False
                break
        if not ok:
            continue
        nk = tuple(g.node_types[nodes[p[i]]] for i in range(k))
        ek = tuple(g.edge_type_of(nodes[p[u]], nodes[p[v]]) for u, v in skel.edges)
        if best is None or (nk, ek) < best:
            best = (nk, ek)
    if best is None:
        raise ValueError("nodes do not induce the given skeleton")
    return TypedGraphletSignature(skel, best[0], best[1], "strict")


def _triangles(g: HeteroGraph) -> list[tuple]:
    """Induced triangles as sorted triples."""
    adj = g.adjacency
    triangles = []
    for u, v in g.edges:
        for w in adj[u] & adj[v]:
            if w > v:
                triangles.append((u, v, w))
    return triangles


def _wedges(g: HeteroGraph) -> list[tuple]:
    """Induced wedges as (center, a, b), a < b."""
    adj = g.adjacency
    wedges = []
    for c in range(g.node_count):
        nbrs = sorted(adj[c])
        for i in range(len(nbrs)):
            a = nbrs[i]
            for j in range(i + 1, len(nbrs)):
                b = nbrs[j]
                if b not in adj[a]:
                    wedges.append((c, a, b))
    return wedges


def _four_node_sets(
    g: HeteroGraph, triangles: list[tuple], wedges: list[tuple]
) -> dict[str, list[tuple]]:
    """All induced 4-node occurrences, keyed by skeleton name.

    Shapes containing a triangle come from expanding ``triangles`` by one
    node; the triangle-free ones come from expanding induced ``wedges``.
    Duplicates (one occurrence reached from several seeds) collapse via
    node-set keys.
    """
    adj = g.adjacency
    cliques: set[tuple] = set()
    diamonds: set[tuple] = set()
    tailed: set[tuple] = set()
    for a, b, c in triangles:
        tri = {a, b, c}
        for x in (adj[a] | adj[b] | adj[c]) - tri:
            hits = (x in adj[a]) + (x in adj[b]) + (x in adj[c])
            quad = tuple(sorted((a, b, c, x)))
            if hits == 3:
                cliques.add(quad)
            elif hits == 2:
                diamonds.add(quad)
            else:
                tailed.add(quad)
    stars: set[tuple] = set()
    cycles: set[tuple] = set()
    paths: set[tuple] = set()
    for c, a, b in wedges:
        trio = {c, a, b}
        for x in (adj[c] | adj[a] | adj[b]) - trio:
            to_center = x in adj[c]
            to_a = x in adj[a]
            to_b = x in adj[b]
            if to_center and (to_a or to_b):
                # Induced subgraph contains a triangle; the triangle pass owns it.
                continue
            quad = tuple(sorted((c, a, b, x)))
            if to_center:
                stars.add(quad)
            elif to_a and to_b:
                cycles.add(quad)
            else:
                paths.add(quad)
    return {
        "4-path": sorted(paths),
        "4-star": sorted(stars),
        "4-cycle": sorted(cycles),
        "tailed-triangle": sorted(tailed),
        "diamond": sorted(diamonds),
        "4-clique": sorted(cliques),
    }


def enumerate_instances(g: HeteroGraph, skel) -> list[tuple[int, ...]]:
    """Node sets of all induced occurrences of ``skel``, lexicographic order.

    Each occurrence appears exactly once. Induced means exactly: a triangle
    is never reported as a wedge.
    """
    skel = resolve_skeleton(skel)
    if skel.name == "edge":
        return sorted(g.edges)
    if skel.name == "triangle":
        return sorted(_triangles(g))
    if skel.name == "wedge":
        return sorted(tuple(sorted(w)) for w in _wedges(g))
    return _four_node_sets(g, _triangles(g), _wedges(g))[skel.name]


def enumerate_all_instances(g: HeteroGraph) -> dict[str, list[tuple[int, ...]]]:
    """Occurrence node sets for every catalog skeleton in one pass."""
    triangles, wedges = _triangles(g), _wedges(g)
    out = {
        "edge": sorted(g.edges),
        "wedge": sorted(tuple(sorted(w)) for w in wedges),
        "triangle": sorted(triangles),
    }
    out.update(_four_node_sets(g, triangles, wedges))
    return out


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
            found = _four_node_sets(g, _triangles(g), _wedges(g))
        else:
            found = {skel.name: enumerate_instances(g, skel)}
        for name, nodes in found.items():
            rows = np.array(nodes, dtype=np.int32).reshape(-1, SKELETONS[name].node_count)
            rows.flags.writeable = False
            tables[name] = rows
    return tables[skel.name]


def _signature_column(
    g: HeteroGraph, skel: Skeleton, typing_mode: str
) -> tuple[np.ndarray, list[TypedGraphletSignature]]:
    """Per-row index into the signatures of ``skel``, in first-seen order."""
    tables = _TABLES.setdefault(g, {})
    key = (skel.name, typing_mode)
    if key not in tables:
        interned: dict[TypedGraphletSignature, int] = {}
        ids = [
            interned.setdefault(signature_of(g, nodes, skel, typing_mode), len(interned))
            for nodes in _occurrence_rows(g, skel).tolist()
        ]
        tables[key] = (np.array(ids, dtype=np.int32), list(interned))
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
        names = [resolve_skeleton(s).name for s in skels]
    counts: dict[TypedGraphletSignature, int] = {}
    for name in names:
        ids, sigs = _signature_column(g, SKELETONS[name], typing_mode)
        for sig, count in zip(sigs, np.bincount(ids, minlength=len(sigs)).tolist()):
            counts[sig] = counts.get(sig, 0) + count
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
    deg = {v: 0 for v in nodes}
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    key = (len(nodes), len(edges), tuple(sorted(deg.values())))
    return _CLASSIFY.get(key)


def brute_force_instances(g: HeteroGraph, skel) -> list[tuple[int, ...]]:
    """Oracle enumerator: scan every k-subset of V and keep matches.

    Independent of the fast expansion path; guarded to 64 nodes because the
    scan is O(n^4).
    """
    skel = resolve_skeleton(skel)
    if g.node_count > BRUTE_FORCE_MAX_NODES:
        raise ValueError(
            f"brute force limited to {BRUTE_FORCE_MAX_NODES} nodes, got {g.node_count}"
        )
    out = []
    for nodes in combinations(range(g.node_count), skel.node_count):
        if classify_induced(g, nodes) == skel.name:
            out.append(nodes)
    return out


def brute_force_all_instances(g: HeteroGraph) -> dict[str, list[tuple[int, ...]]]:
    """Oracle occurrence sets for every catalog skeleton (one scan per size)."""
    if g.node_count > BRUTE_FORCE_MAX_NODES:
        raise ValueError(
            f"brute force limited to {BRUTE_FORCE_MAX_NODES} nodes, got {g.node_count}"
        )
    out: dict[str, list[tuple[int, ...]]] = {name: [] for name in SKELETON_ORDER}
    for k in (2, 3, 4):
        for nodes in combinations(range(g.node_count), k):
            name = classify_induced(g, nodes)
            if name is not None:
                out[name].append(nodes)
    return out


def parse_signature_spec(
    g: HeteroGraph, spec: str, typing_mode: str = "multiset"
) -> TypedGraphletSignature:
    """Parse ``skeleton`` or ``skeleton:typeA,typeB,...`` against a graph.

    With no type list the signature is an untyped wildcard. Type labels must
    exist in the graph; the list length must match the skeleton's node count.
    Edge types are left unconstrained (single-edge-type inputs make them
    redundant anyway).
    """
    name, _, typepart = spec.partition(":")
    skel = resolve_skeleton(name.strip())
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
