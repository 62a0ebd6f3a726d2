"""Property tests: the graph constructor and parser, the enumerator and each
4-node route against their oracles, relabelling invariance, the occurrences
of an induced subgraph, the closed-form wedge matrix against the
occurrence rows, one batch of motif-graph components against single
graphs, and the one-pass Laplacian blocks against the per-component builds.

Examples are derandomised so every run checks the same graphs. The
networkx oracles are skipped when networkx is not installed; the package
never depends on it.
"""

import re
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from typedgraphlets import (
    HeteroGraph,
    SKELETONS,
    TypedGraphletSignature,
    WeightedGraph,
    brute_force_all_instances,
    build_motif_matrix,
    census,
    connected_components,
    enumerate_all_instances,
    enumerate_instances,
    load_typed_edge_list,
    permute_graph,
    signature_of,
)
from typedgraphlets.graphlets import _occurrence_rows
from typedgraphlets.motifmatrix import _motif_matrices
from typedgraphlets.oracles import _untyped_counts
from typedgraphlets import spectral
from typedgraphlets.spectral import _covered_components

from conftest import FOUR_NODE_ROUTES, assert_reference_laplacians, copy_graph, row_route

try:
    import networkx as nx
except ImportError:  # pragma: no cover
    nx = None

needs_networkx = pytest.mark.skipif(nx is None, reason="networkx is not installed")

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=120, deadline=None)


@st.composite
def typed_graphs(draw, max_nodes=10, edge_type_names=("r", "s")):
    """A typed simple graph on at most ``max_nodes`` nodes."""
    n = draw(st.integers(0, max_nodes))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [pair for pair in pairs if draw(st.booleans())]
    return HeteroGraph(
        [f"n{i}" for i in range(n)],
        draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)),
        edges,
        draw(st.lists(st.integers(0, 1), min_size=len(edges), max_size=len(edges))),
        ("A", "B", "C"),
        edge_type_names,
    )


@PROPERTY_SETTINGS
@given(typed_graphs())
def test_enumerator_equals_oracle(g):
    assert enumerate_all_instances(g) == brute_force_all_instances(g)


@PROPERTY_SETTINGS
@given(typed_graphs(max_nodes=11))
def test_four_node_routes_equal_the_oracle_and_the_full_expansion(g):
    # The full expansion is gone; the name is kept, and the oracle is the one reference.
    oracle = brute_force_all_instances(g)
    for name in FOUR_NODE_ROUTES:
        rows = _occurrence_rows(copy_graph(g), SKELETONS[name])  # its route runs first
        assert [tuple(row) for row in rows.tolist()] == oracle[name]
        assert rows.dtype == np.int32 and not rows.flags.writeable


@PROPERTY_SETTINGS
@given(typed_graphs(), st.randoms(use_true_random=False))
def test_census_and_motif_matrix_invariant_under_relabelling(g, rng):
    order = list(range(g.node_count))
    rng.shuffle(order)
    h = permute_graph(g, order)
    pos = {old: new for new, old in enumerate(order)}
    for mode in ("multiset", "set", "strict"):
        table = census(g, typing_mode=mode)
        assert census(h, typing_mode=mode) == table
        sigs = [TypedGraphletSignature(s, typing_mode=mode) for s in SKELETONS.values()]
        for sig in sigs + list(table):
            moved = {tuple(sorted((pos[u], pos[v]))): w
                     for (u, v), w in build_motif_matrix(g, sig).weights.items()}
            assert build_motif_matrix(h, sig).weights == moved


@PROPERTY_SETTINGS
@given(typed_graphs(max_nodes=11))
def test_identity_counts_equal_the_subset_scan(g):
    want = {name: len(rows) for name, rows in brute_force_all_instances(g).items()}
    assert _untyped_counts(g) == want


@st.composite
def graphs_with_node_subsets(draw):
    g = draw(typed_graphs())
    nodes = draw(st.sets(st.integers(0, g.node_count - 1))) if g.node_count else set()
    return g, sorted(nodes)


@PROPERTY_SETTINGS
@given(graphs_with_node_subsets())
def test_subgraph_occurrences_are_the_parent_rows_inside_it(case):
    # recursive_bipartition builds each part's motif matrix on this identity
    g, nodes = case
    sub, back = g.subgraph(nodes)
    parent = enumerate_all_instances(g)
    for name, rows in enumerate_all_instances(sub).items():
        mapped = [tuple(back[v] for v in row) for row in rows]
        assert mapped == [row for row in parent[name] if set(row) <= set(nodes)]
        skel = SKELETONS[name]
        for mode in ("multiset", "set", "strict"):
            for row, old in zip(rows, mapped):
                assert signature_of(sub, row, skel, mode) == signature_of(g, old, skel, mode)


@st.composite
def graphs_with_masks(draw):
    g = draw(typed_graphs(max_nodes=12))
    mask = st.lists(st.booleans(), min_size=g.node_count, max_size=g.node_count)
    return g, np.array(draw(mask), dtype=bool), np.array(draw(mask), dtype=bool)


@PROPERTY_SETTINGS
@given(graphs_with_masks())
def test_wedge_closed_form_equals_the_row_route(case):
    # The closed form runs first on g; a fresh copy of g serves the row
    # route. Whole graph and part mask, W, degrees and one cut, exactly.
    g, inside, side = case
    copy = copy_graph(g)
    sig = TypedGraphletSignature(SKELETONS["wedge"])
    for inside in (np.ones(g.node_count, dtype=bool), inside):
        got = _motif_matrices(g, [sig], inside)[0]
        want = row_route(copy, sig, inside)
        assert list(got.weights.items()) == list(want.weights.items())
        assert all(type(w) is int for w in got.weights.values())
        assert got.degrees.dtype == want.degrees.dtype
        assert got.degrees.tolist() == want.degrees.tolist()
        assert got._cut(side) == want._cut(side)


# ------------------------------------------------------------ graph constructor

def per_edge_constructor(node_names, node_types, edges, edge_types,
                         node_type_names, edge_type_names):
    """The constructor's checks one element at a time: the oracle.

    Returns the normalised edges and the edge types, or raises the
    ValueError the constructor must raise.
    """
    n = len(node_names)
    if len(node_types) != n:
        raise ValueError("node_types length does not match node_names")
    if len(set(node_names)) != n:
        raise ValueError("duplicate external node ids")
    if len(edges) != len(edge_types):
        raise ValueError("edge_types length does not match edges")
    for t in node_types:
        if not 0 <= t < len(node_type_names):
            raise ValueError(f"node type id {t} out of range")
    for t in edge_types:
        if not 0 <= t < len(edge_type_names):
            raise ValueError(f"edge type id {t} out of range")
    norm_edges = []
    seen = set()
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
    return tuple(norm_edges), tuple(edge_types)


@st.composite
def constructor_inputs(draw):
    """Constructor arguments: a simple typed graph, often with faults added.

    Each fault is added with probability 1/4: a self-loop, an id outside
    0..n-1, a repeated edge in either orientation, a bad node type id and a
    bad edge type id.
    """
    n = draw(st.integers(0, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [(v, u) if draw(st.booleans()) else (u, v)
             for u, v in draw(st.lists(st.sampled_from(pairs), unique=True) if pairs
                              else st.just([]))]
    node = st.integers(0, max(n - 1, 0))

    def fault():
        return draw(st.integers(0, 3)) == 0

    def insert(row):
        edges.insert(draw(st.integers(0, len(edges))), row)

    if fault():
        w = draw(node)
        insert((w, w))
    if fault():
        bad = draw(st.sampled_from([-2, -1, n, n + 1]))
        w = draw(node)
        insert((bad, w) if draw(st.booleans()) else (w, bad))
    if edges and fault():
        u, v = draw(st.sampled_from(edges))
        insert((v, u) if draw(st.booleans()) else (u, v))
    node_types = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    edge_types = draw(st.lists(st.integers(0, 1), min_size=len(edges), max_size=len(edges)))
    for ids, bad in ((node_types, [-1, 3]), (edge_types, [-1, 2])):
        if ids and fault():
            ids[draw(st.integers(0, len(ids) - 1))] = draw(st.sampled_from(bad))
    return dict(node_names=[f"n{i}" for i in range(n)], node_types=node_types, edges=edges,
                edge_types=edge_types, node_type_names=("A", "B", "C"),
                edge_type_names=("r", "s"))


def assert_same_arrays(got, expected):
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert np.array_equal(got, expected)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(constructor_inputs(), st.booleans())
def test_constructor_equals_per_edge_oracle(args, as_arrays):
    try:
        edges, edge_types = per_edge_constructor(**args)
    except ValueError as exc:
        message = str(exc)
    else:
        message = None
    if as_arrays:
        # subgraph, permute_graph and split_edges pass index-selected arrays.
        args = {**args, "edges": np.array(args["edges"], dtype=np.int64).reshape(-1, 2),
                "edge_types": np.array(args["edge_types"], dtype=np.int64)}
    if message is not None:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            HeteroGraph(**args)
        return
    g = HeteroGraph(**args)
    assert g.edges == edges and g.edge_types == edge_types
    assert all(type(x) is int for edge in g.edges for x in edge)
    assert all(type(t) is int for t in g.edge_types)
    ends = np.array(edges, dtype=np.int64).reshape(-1, 2)
    assert_same_arrays(g.edge_array, ends)
    assert not g.edge_array.flags.writeable
    keys = ends[:, 0] * g.node_count + ends[:, 1]
    order = np.argsort(keys)
    assert_same_arrays(g.sorted_edge_keys[0], keys[order])
    assert_same_arrays(g.sorted_edge_keys[1], np.array(edge_types, dtype=np.int64)[order])


@pytest.mark.parametrize("edges, message", [
    ([(0, 1, 2)], "too many values to unpack (expected 2)"),
    ([(0, 1), (2,)], "not enough values to unpack (expected 2, got 1)"),
    ([(1, 1), (0, 1, 2)], "self-loop at node 1"),
    ([(0, 1), (0, 1, 2), (0, 0)], "too many values to unpack (expected 2)"),
    ([(0, 1), (1, 0), (2,)], "duplicate undirected edge (0, 1)"),
])
def test_constructor_reports_rows_that_are_not_pairs_in_input_order(edges, message):
    args = dict(node_names=["a", "b", "c"], node_types=[0, 0, 0], edges=edges,
                edge_types=[0] * len(edges), node_type_names=["U"], edge_type_names=["r"])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        per_edge_constructor(**args)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        HeteroGraph(**args)


# ----------------------------------------------------------------- edge-list parser

def write_typed_edge_list(g, flips=(), repeats=(), layout=None):
    """A typed edge-list document for ``g``.

    ``flips[i]`` writes edge i as (v, u); ``repeats[i]`` adds its reverse
    on the next line, which the parser collapses. Without ``layout`` every
    node is declared first and columns are split by one space. A
    ``layout`` (drawn by ``layouts``) sets the column separator and line
    end, writes edges of type ``-`` with four columns, and inserts its noise
    lines (indented comments, blank and whitespace-only lines) at the given
    positions. A node in its ``undeclared`` set is then left for an edge
    line to intern where that keeps ids in order; every other node is
    declared just before the first line that needs it.
    """
    name, label = g.node_names, [g.node_type_names[t] for t in g.node_types]
    sep, end, undeclared, noise = layout or (" ", "\n", (), ())

    def declare(ids):
        return [f"%node{sep}{name[x]}{sep}{label[x]}" for x in ids]

    seen = 0 if layout else g.node_count  # nodes below seen are interned
    lines = declare(range(seen))
    for i, ((u, v), t) in enumerate(zip(g.edges, g.edge_types)):
        if i < len(flips) and flips[i]:
            u, v = v, u
        # The line interns its new endpoints in column order, after every
        # declaration before it, so only hi or (hi - 1, hi) can be left to it.
        hi = max(u, v)
        own = [x for x in (u, v) if x >= seen and x in undeclared]
        own = own if own == [hi - 1, hi] else [hi] if hi in own else []
        lines += declare(range(seen, own[0] if own else hi + 1))
        seen = max(seen, hi + 1)
        etype = g.edge_type_names[t]
        tail = [] if layout and etype == "-" else [etype]
        rows = [(u, v), (v, u)] if i < len(repeats) and repeats[i] else [(u, v)]
        for a, b in rows:
            lines.append(sep.join([name[a], name[b], label[a], label[b], *tail]))
    lines += declare(range(seen, g.node_count))
    for at, text in noise:
        lines.insert(at % (len(lines) + 1), text)
    return "".join(line + end for line in lines)


@st.composite
def layouts(draw):
    """Separator, line end, undeclared nodes and noise lines for ``write_typed_edge_list``."""
    return (draw(st.sampled_from([" ", "\t", " \t "])), draw(st.sampled_from(["\n", "\r\n"])),
            draw(st.sets(st.integers(0, 10))),
            draw(st.lists(st.tuples(st.integers(0, 60), st.sampled_from(
                ["  # note", "\t# a b c", " \t#", "", " ", "\t \t"])), max_size=4)))


@PROPERTY_SETTINGS
@given(typed_graphs() | typed_graphs(edge_type_names=("-", "s")),
       st.lists(st.booleans()), st.lists(st.booleans()), st.none() | layouts())
def test_parse_round_trip(g, flips, repeats, layout):
    text = write_typed_edge_list(g, flips, repeats, layout)
    h = load_typed_edge_list(text)
    assert h.node_names == g.node_names
    assert h.edges == g.edges
    assert ([h.node_type_names[t] for t in h.node_types]
            == [g.node_type_names[t] for t in g.node_types])
    assert ([h.edge_type_names[t] for t in h.edge_types]
            == [g.edge_type_names[t] for t in g.edge_types])
    assert h.collapsed_duplicates == sum(repeats[:g.edge_count])
    assert write_typed_edge_list(h) == write_typed_edge_list(g)
    assert_same_arrays(h.edge_array, g.edge_array)
    assert_same_arrays(h.sorted_edge_keys[0], g.sorted_edge_keys[0])


@PROPERTY_SETTINGS
@given(typed_graphs())
def test_one_component_batch_equals_single_graphs(g):
    sigs = [TypedGraphletSignature(s) for s in SKELETONS.values()] + list(census(g))
    graphs = [build_motif_matrix(g, sig).motif_graph for sig in sigs]
    # Reversed and repeated, empty graphs sit between non-empty ones.
    graphs += graphs[::-1]
    assert _covered_components(graphs) == [_covered_components([gH])[0] for gH in graphs]


@st.composite
def weighted_graphs(draw, max_nodes=16):
    """A weighted graph with integral or non-integral weights and isolated nodes."""
    n = draw(st.integers(0, max_nodes))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    kept = [pair for pair in pairs if draw(st.integers(0, 3)) == 0]
    weight = st.integers(1, 6) | st.floats(0.05, 9.0) if draw(st.booleans()) else st.integers(1, 6)
    return WeightedGraph(n, {pair: draw(weight) for pair in kept})


@PROPERTY_SETTINGS
@given(weighted_graphs(), st.sampled_from([spectral.DENSE_SOLVER_THRESHOLD, 2, 3, 4]),
       st.lists(st.integers(0, 15), unique=True))
def test_one_pass_laplacians_equal_the_per_component_builds(gH, threshold, picks):
    comps = _covered_components([gH])[0]
    # Every component, component 0 alone, the largest alone, and some in any order.
    requests = [comps, comps[:1], [max(comps, key=len)] if comps else [],
                [comps[i] for i in picks if i < len(comps)]]
    with mock.patch.object(spectral, "DENSE_SOLVER_THRESHOLD", threshold):
        for request in requests:
            assert_reference_laplacians(gH, request)


# ------------------------------------------------------------ networkx oracles

def networkx_graph(n, pairs):
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(map(tuple, pairs))
    return graph


@needs_networkx
@PROPERTY_SETTINGS
@given(typed_graphs())
def test_triangles_equal_networkx_three_cliques(g):
    cliques = nx.enumerate_all_cliques(networkx_graph(g.node_count, g.edge_array.tolist()))
    expected = sorted(tuple(sorted(c)) for c in cliques if len(c) == 3)
    assert enumerate_instances(g, "triangle") == expected


@needs_networkx
@PROPERTY_SETTINGS
@given(typed_graphs())
def test_motif_graph_components_equal_networkx(g):
    sigs = [TypedGraphletSignature(s) for s in SKELETONS.values()] + list(census(g))
    for sig in sigs:
        gH = build_motif_matrix(g, sig).motif_graph
        labels, count = connected_components(gH)
        comps = sorted((sorted(c) for c in nx.connected_components(
            networkx_graph(g.node_count, gH.pairs.tolist()))), key=lambda c: c[0])
        assert count == len(comps)
        # Labels number the components by their smallest node id.
        assert [labels[c].tolist() for c in comps] == [[i] * len(c) for i, c in enumerate(comps)]
        assert _covered_components([gH]) == [[c for c in comps if len(c) >= 2]]
