"""Independent oracles: the one reference route for each fast path.

The fast paths read the graph's CSR form, its sorted edge keys and W's pair
arrays. These routes look node pairs up in a dict of the edges and scan every
node subset or cut; the tests and ``cluster --oracle-check`` call them, no query does.

| fast path                                      | oracle                                   |
|------------------------------------------------|------------------------------------------|
| ``graphlets`` occurrence tables, every shape   | ``brute_force_instances``                |
| table sizes and census totals, at any size     | ``_untyped_counts`` (counts, not rows)   |
| ``graphlets._signature_column`` typing         | ``signature_of``                         |
| W, by ``_row_graphs`` and by ``_wedge_matrix`` | ``_brute_force_weights``                 |
| W degrees and volumes (``MotifMatrix.degrees``)| ``typed_degree``, ``typed_volume``       |
| ``sweep_cut`` profile                          | ``weighted_cut`` over ``weighted_volume``|
| ``cluster``: α against the optimum             | ``brute_force_min_conductance``          |
| the sweep: φ against the optimum               | ``brute_force_min_weighted_conductance`` |
"""

from __future__ import annotations

import weakref
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateCutError, GraphletAbsentError, ZeroVolumeError
from .graph import HeteroGraph, WeightedGraph, _node_ids, _validate_cut
from .graphlets import (
    SKELETON_ORDER,
    SKELETONS,
    Skeleton,
    TypedGraphletSignature,
    _triangles,
    resolve_skeleton,
)
from .motifmatrix import MotifMatrix

BRUTE_FORCE_MAX_NODES = 64

# Degree sequence plus edge count identifies every connected graph on at
# most 4 nodes, so induced subgraphs classify by table lookup.
_CLASSIFY = {
    (s.node_count, s.edge_count, s.degree_sequence): s.name for s in SKELETONS.values()
}

_EDGE_TYPES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _edge_types(g: HeteroGraph) -> dict[tuple[int, int], int]:
    """The oracles' one edge lookup, (u, v) -> edge type for u < v, cached per graph."""
    types = _EDGE_TYPES.get(g)
    if types is None:
        types = _EDGE_TYPES[g] = dict(zip(g.edges, g.edge_types))
    return types


def _induced_edges(g: HeteroGraph, nodes: Sequence[int]) -> list[tuple[int, int]]:
    types = _edge_types(g)
    return [e for e in combinations(sorted(nodes), 2) if e in types]


def signature_of(
    g: HeteroGraph,
    nodes: Sequence[int],
    skel: Skeleton,
    typing_mode: str = "multiset",
) -> TypedGraphletSignature:
    """Signature of the induced occurrence of ``skel`` on ``nodes``.

    One occurrence at a time, from the edge lookup: the oracle for the
    vectorised typing of ``_signature_column``.
    """
    nodes = tuple(sorted(nodes))
    types = _edge_types(g)
    edges = _induced_edges(g, nodes)
    ntypes = [g.node_types[v] for v in nodes]
    etypes = [types[e] for e in edges]
    if typing_mode == "multiset":
        return TypedGraphletSignature(skel, tuple(sorted(ntypes)), tuple(sorted(etypes)), "multiset")
    if typing_mode == "set":
        return TypedGraphletSignature(
            skel, tuple(sorted(set(ntypes))), tuple(sorted(set(etypes))), "set"
        )
    # strict: canonical positional typing, minimised over all isomorphisms onto
    # the canonical skeleton labelling; ``nodes`` is sorted, so min/max give keys.
    best: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    k = skel.node_count
    for p in permutations(range(k)):
        ek = tuple(types.get((nodes[min(p[u], p[v])], nodes[max(p[u], p[v])]))
                   for u, v in skel.edges)
        if None in ek:
            continue
        nk = tuple(g.node_types[nodes[p[i]]] for i in range(k))
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


# Row: the non-induced copies of one 4-node shape inside each induced shape
# (column), both in this order. Upper triangular with a unit diagonal.
_CONTAINED = {
    "4-star": (1, 0, 1, 0, 2, 4),
    "4-path": (0, 1, 2, 4, 6, 12),
    "tailed-triangle": (0, 0, 1, 0, 4, 12),
    "4-cycle": (0, 0, 0, 1, 1, 3),
    "diamond": (0, 0, 0, 0, 1, 6),
    "4-clique": (0, 0, 0, 0, 0, 1),
}


def _untyped_counts(g: HeteroGraph) -> dict[str, int]:
    """Induced occurrences of every catalog skeleton, from exact identities.

    Degrees d, triangles per edge t_e = (A^2)_uv and per node t_v, and the
    off-diagonal entries of A^2 give the non-induced copies of each shape
    (Ahmed, Neville, Rossi and Duffield, ICDM 2015; Pinar, Seshadhri and
    Vishal, WWW 2017); back-substitution through ``_CONTAINED`` makes them
    induced. Nothing is enumerated except the triangles of the 4-clique
    term, whose number the identity T = sum(t_e) / 3 fixes. Every sum runs
    over Python ints, so none wraps.
    """
    n = g.node_count
    u, v = g.edge_array.T
    a = sp.csr_matrix((np.ones(len(u), dtype=np.int64), (u, v)), shape=(n, n))
    a = a + a.T
    a2 = (a @ a).tocsr()
    d = np.asarray(a.sum(axis=1)).ravel().astype(object)
    te = np.asarray(a[u].multiply(a[v]).sum(axis=1)).ravel().astype(object)
    tv = (np.asarray(a.multiply(a2).sum(axis=1)).ravel() // 2).astype(object)
    common = sp.triu(a2, k=1).data.astype(object)
    x, y, z = _triangles(g).T
    triangles = te.sum() // 3
    copies = {
        "4-star": (d * (d - 1) * (d - 2) // 6).sum(),
        "4-path": ((d[u] - 1) * (d[v] - 1)).sum() - 3 * triangles,
        "tailed-triangle": (tv * (d - 2)).sum(),
        "4-cycle": (common * (common - 1) // 2).sum() // 2,
        "diamond": (te * (te - 1) // 2).sum(),
        "4-clique": int(a[x].multiply(a[y]).multiply(a[z]).sum()) // 4,
    }
    counts = {"edge": len(u), "wedge": (d * (d - 1) // 2).sum() - 3 * triangles,
              "triangle": triangles}
    for name in reversed(_CONTAINED):
        counts[name] = copies[name] - sum(c * counts[other] for other, c
                                          in zip(_CONTAINED, _CONTAINED[name]) if c and other != name)
    return {name: counts[name] for name in SKELETON_ORDER}


def _brute_force_matches(g: HeteroGraph, sig: TypedGraphletSignature) -> list[tuple[int, ...]]:
    """The subset-scan oracle's occurrences whose signature matches ``sig``."""
    skel = sig.skeleton
    return [nodes for nodes in brute_force_instances(g, skel)
            if sig.matches(signature_of(g, nodes, skel, sig.typing_mode))]


def _brute_force_weights(g: HeteroGraph, sig: TypedGraphletSignature) -> dict[tuple[int, int], int]:
    """W rebuilt from the subset-scan oracle's occurrences that match ``sig`` (≤ 64 nodes)."""
    return Counter(e for nodes in _brute_force_matches(g, sig) for e in _induced_edges(g, nodes))


def typed_degree(mm: MotifMatrix, v: int) -> int:
    """Incident-edge count of ``v`` summed over occurrences.

    The occurrences are the subset scan's matches of ``mm.signature`` in
    ``mm.graph`` (at most 64 nodes), not the fast rows behind W, so volume
    identities against W stay a genuine cross-check. Ids outside the graph
    raise ValueError.
    """
    return typed_volume(mm, [v])


def typed_volume(mm: MotifMatrix, s: Iterable[int]) -> int:
    side = set(_node_ids(s, mm.graph.node_count).tolist())
    weights = _brute_force_weights(mm.graph, mm.signature)
    return sum(w * ((u in side) + (v in side)) for (u, v), w in weights.items())


def weighted_cut(g: WeightedGraph, s: Iterable[int]):
    """Total weight crossing the cut (s, complement)."""
    side = _validate_cut(g.node_count, s)
    return sum(w for (u, v), w in g.weights.items() if side[u] != side[v])


def weighted_volume(g: WeightedGraph, s: Iterable[int]):
    idx = np.unique(_node_ids(s, g.node_count))
    if not len(idx):
        return 0
    val = g.degrees[idx].sum()
    return int(val) if g.degrees.dtype == np.int64 else float(val)


def weighted_conductance(g: WeightedGraph, s: Iterable[int]) -> float:
    """Cut weight over the smaller side's weighted volume.

    Symmetric under complementing ``s``. A cut with an empty side raises
    DegenerateCutError; zero minimum volume (an all-isolated side) raises
    ZeroVolumeError rather than returning 0 or infinity.
    """
    ids = np.flatnonzero(_validate_cut(g.node_count, s)).tolist()
    vol_s = weighted_volume(g, ids)
    vol_rest = g.total_volume - vol_s
    denom = min(vol_s, vol_rest)
    if denom <= 0:
        raise ZeroVolumeError("one side of the cut has zero weighted volume")
    return weighted_cut(g, ids) / denom


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


def brute_force_min_conductance(
    g: HeteroGraph, sig: TypedGraphletSignature
) -> tuple[frozenset, Fraction]:
    """Exact minimum typed-graphlet conductance over all cuts.

    Exhausts 2^(n-1) bipartitions, skipping cuts where a side has zero typed
    volume (nodes outside every occurrence make such cuts degenerate, and
    the minimum is taken over well-defined cuts only). Ties break toward the
    smaller side, then lexicographic membership. Volumes and cuts come from
    the subset scan's matching occurrences, never from a fast route. Guarded
    to ``BRUTE_FORCE_MAX_CUT_NODES`` nodes.
    """
    n = g.node_count
    _check_cut_search_size(n)
    weights = _brute_force_weights(g, sig)
    if not weights:
        raise GraphletAbsentError("typed graphlet has no instance in the graph")
    rows = np.array(_brute_force_matches(g, sig), dtype=np.uint64)
    masks = np.bitwise_or.reduce(np.uint64(1) << rows, axis=1)
    full = np.uint64((1 << n) - 1)

    def cut_of(bits: int) -> int:
        sb = np.uint64(bits)
        return int(np.count_nonzero(((masks & sb) != 0) & ((masks & ~sb & full) != 0)))

    return _min_conductance_cut(WeightedGraph(n, weights).degrees, cut_of)
