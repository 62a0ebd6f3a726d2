import math
import re
from fractions import Fraction

import numpy as np
import pytest

from typedgraphlets import (
    DegenerateCutError,
    EdgeListFormatError,
    HeteroGraph,
    WeightedGraph,
    ZeroVolumeError,
    brute_force_min_weighted_conductance,
    connected_components,
    inverse_permutation,
    load_typed_edge_list,
    permute_graph,
    weighted_conductance,
    weighted_cut,
    weighted_volume,
)

from conftest import barbell, make_graph, random_graph, random_integer_weights


# ---------------------------------------------------------------- loading

def test_load_three_line_fixture():
    g = load_typed_edge_list("a b U M e\nb c M U e\na c U U f\n")
    assert g.node_count == 3
    assert g.edge_count == 3
    assert g.node_type_count == 2
    assert g.edge_type_count == 2
    # first-appearance interning
    assert g.node_names == ("a", "b", "c")
    assert g.node_type_names == ("U", "M")


def test_load_isolated_nodes_only():
    g = load_typed_edge_list("# nothing but declarations\n%node a U\n%node b M\n")
    assert g.node_count == 2
    assert g.edge_count == 0


def test_load_self_loop_rejected():
    with pytest.raises(EdgeListFormatError, match="self-loop"):
        load_typed_edge_list("a a U U e\n")


def test_load_wrong_column_count():
    with pytest.raises(EdgeListFormatError, match="columns"):
        load_typed_edge_list("a b U\n")
    # a sixth column (e.g. a weight) is also malformed
    with pytest.raises(EdgeListFormatError, match="columns"):
        load_typed_edge_list("a b U U e 2.5\n")


def test_load_conflicting_node_type():
    with pytest.raises(EdgeListFormatError, match="conflicting types"):
        load_typed_edge_list("a b U U e\na c M U e\n")


def test_load_conflicting_edge_type():
    with pytest.raises(EdgeListFormatError, match="conflicting edge types"):
        load_typed_edge_list("a b U U e\nb a U U f\n")


def test_load_collapses_directed_duplicates():
    g = load_typed_edge_list("a b U U e\nb a U U e\n")
    assert g.edge_count == 1
    assert g.collapsed_duplicates == 1


def test_load_default_edge_type():
    g = load_typed_edge_list("a b U M\nb c M U\n")
    assert g.edge_type_count == 1


def test_degree_sum_is_twice_edge_count():
    for seed in range(5):
        g = random_graph(seed, 12, 0.3, n_type_count=2)
        assert int(g.degrees.sum()) == 2 * g.edge_count


def test_neighbours_csr_lists_each_adjacency_set_ascending():
    for seed in range(6):
        g = random_graph(seed, 14, 0.1 + 0.1 * seed)
        indptr, indices = g.neighbours
        nbrs = [set() for _ in range(g.node_count)]
        for u, v in g.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        assert [indices[indptr[v]:indptr[v + 1]].tolist() for v in range(g.node_count)] == [
            sorted(s) for s in nbrs
        ]
        assert g.degrees.tolist() == [len(s) for s in nbrs]
        assert not indptr.flags.writeable and not indices.flags.writeable
    empty = make_graph(0, [])
    assert empty.neighbours[0].tolist() == [0] and len(empty.neighbours[1]) == 0


def _subgraph_loop(g, keep):
    """Oracle: the induced edges and their types, one edge at a time."""
    old_to_new = {old: new for new, old in enumerate(keep)}
    edges, etypes = [], []
    for (u, v), t in zip(g.edges, g.edge_types):
        if u in old_to_new and v in old_to_new:
            edges.append((old_to_new[u], old_to_new[v]))
            etypes.append(t)
    return tuple(edges), tuple(etypes)


def test_subgraph_matches_edge_loop():
    rng = np.random.default_rng(5)
    for seed in range(10):
        g = random_graph(seed, 15, 0.3, n_type_count=3, e_type_count=3)
        nodes = rng.choice(15, size=int(rng.integers(0, 16)), replace=False).tolist()
        sub, back = g.subgraph(nodes + nodes[:2])
        keep = sorted(nodes)
        assert back == keep
        assert (sub.edges, sub.edge_types) == _subgraph_loop(g, keep)
        assert sub.node_names == tuple(g.node_names[v] for v in keep)
        assert sub.node_types == tuple(g.node_types[v] for v in keep)


def test_subgraph_rejects_ids_out_of_range():
    g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    for nodes in ([-1, 0], [0, 4]):
        with pytest.raises(ValueError, match="out of range"):
            g.subgraph(nodes)


# ---------------------------------------------------------------- weighted graphs

def test_weighted_graph_drops_zero_and_rejects_negative():
    wg = WeightedGraph(3, {(0, 1): 1, (1, 2): 0})
    assert (1, 2) not in wg.weights
    with pytest.raises(ValueError):
        WeightedGraph(2, {(0, 1): -1})


def test_weighted_graph_stores_pair_arrays_and_builds_the_dict_view_on_read():
    wg = WeightedGraph.from_pairs(4, np.array([[0, 1], [2, 3], [1, 2]], dtype=np.int64),
                                  np.array([2, 5, 1], dtype=np.int64))
    assert "weights" not in vars(wg)
    assert list(wg.weights.items()) == [((0, 1), 2), ((2, 3), 5), ((1, 2), 1)]
    assert all(type(w) is int for w in wg.weights.values())
    assert list(WeightedGraph(3, {(1, 0): 1.5, (1, 2): 2}).weights.items()) == [
        ((0, 1), 1.5), ((1, 2), 2.0)]


def test_weighted_degree_sum_identity():
    wg = WeightedGraph(4, {(0, 1): 2, (1, 2): 3, (2, 3): 1})
    assert int(wg.degrees.sum()) == 2 * (2 + 3 + 1)


def test_components_two_triangles():
    wg = WeightedGraph(6, {(0, 1): 1, (0, 2): 1, (1, 2): 1,
                           (3, 4): 1, (3, 5): 1, (4, 5): 1})
    labels, count = connected_components(wg)
    assert count == 2
    assert list(labels) == [0, 0, 0, 1, 1, 1]


def test_components_split_at_zero_weight():
    wg = WeightedGraph(3, {(0, 1): 1, (1, 2): 0})
    labels, count = connected_components(wg)
    assert count == 2
    assert labels[0] == labels[1] != labels[2]


def test_components_empty_graph_is_singletons():
    wg = WeightedGraph(4, {})
    labels, count = connected_components(wg)
    assert count == 4
    assert list(labels) == [0, 1, 2, 3]


def test_components_match_union_find_labels():
    # Labels themselves, not only the partition: component c is the one whose
    # smallest member is the c-th smallest among the components' minima.
    for seed in range(20):
        n = 30
        weights = random_integer_weights(seed, n, blocks=5, p=0.15)
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for (u, v), w in weights.items():
            if w > 0:
                parent[find(u)] = find(v)
        canon: dict[int, int] = {}
        expected = [canon.setdefault(find(v), len(canon)) for v in range(n)]
        labels, count = connected_components(WeightedGraph(n, weights))
        assert labels.tolist() == expected, seed
        assert count == len(canon)


def test_components_canonical_under_permutation():
    g = random_graph(7, 10, 0.25)
    wg = WeightedGraph(g.node_count, {e: 1 for e in g.edges})
    labels, _ = connected_components(wg)
    order = list(range(9, -1, -1))
    h = permute_graph(g, order)
    wh = WeightedGraph(h.node_count, {e: 1 for e in h.edges})
    labels_h, _ = connected_components(wh)
    # same partition structure after conjugating by the permutation
    parts = {frozenset(i for i in range(10) if labels[i] == c) for c in set(labels)}
    parts_h = {frozenset(order[i] for i in range(10) if labels_h[i] == c)
               for c in set(labels_h)}
    assert parts == parts_h


# ---------------------------------------------------------------- conductance

def test_conductance_k3_single_node():
    wg = WeightedGraph(3, {(0, 1): 1, (0, 2): 1, (1, 2): 1})
    assert weighted_conductance(wg, {0}) == 1.0


def test_conductance_barbell_triangle_side():
    g = barbell()
    wg = WeightedGraph(6, {e: 1 for e in g.edges})
    assert weighted_conductance(wg, {0, 1, 2}) == pytest.approx(1 / 7)


def test_conductance_four_cycle_adjacent_pair():
    wg = WeightedGraph(4, {(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): 1})
    assert weighted_conductance(wg, {0, 1}) == 0.5


def test_conductance_complement_invariant():
    for seed in range(10):
        g = random_graph(seed, 9, 0.4)
        wg = WeightedGraph(9, {e: 1 for e in g.edges})
        s = {i for i in range(9) if (seed * 31 + i) % 3 == 0}
        if not s or len(s) == 9:
            continue
        comp = set(range(9)) - s
        try:
            a = weighted_conductance(wg, s)
        except ZeroVolumeError:
            with pytest.raises(ZeroVolumeError):
                weighted_conductance(wg, comp)
            continue
        assert a == pytest.approx(weighted_conductance(wg, comp))


def test_conductance_degenerate_and_zero_volume():
    wg = WeightedGraph(3, {(0, 1): 1})
    with pytest.raises(DegenerateCutError):
        weighted_conductance(wg, set())
    with pytest.raises(DegenerateCutError):
        weighted_conductance(wg, {0, 1, 2})
    with pytest.raises(ZeroVolumeError):
        weighted_conductance(wg, {2})


def test_weighted_cut_and_volume_values():
    wg = WeightedGraph(4, {(0, 1): 2, (1, 2): 3, (2, 3): 1})
    assert weighted_cut(wg, {0, 1}) == 3
    assert weighted_volume(wg, {1, 2}) == 5 + 4


def test_weighted_volume_rejects_ids_out_of_range():
    wg = WeightedGraph(4, {(0, 1): 2, (1, 2): 3, (2, 3): 1})
    for ids in ([-1], [4], [0, 4]):
        with pytest.raises(ValueError, match="out of range"):
            weighted_volume(wg, ids)


def test_brute_force_min_weighted_conductance_barbell():
    g = barbell()
    wg = WeightedGraph(6, {e: 1 for e in g.edges})
    side, value = brute_force_min_weighted_conductance(wg)
    assert value == Fraction(1, 7)
    assert side in (frozenset({0, 1, 2}), frozenset({3, 4, 5}))


# ---------------------------------------------------------------- permutation

def test_permute_identity_and_reversal():
    g = make_graph(3, [(0, 1), (1, 2)])
    same = permute_graph(g, [0, 1, 2])
    assert same.edges == g.edges
    rev = permute_graph(g, [2, 1, 0])
    assert set(rev.edges) == {(1, 2), (0, 1)}


def test_permute_round_trip():
    for seed in range(5):
        g = random_graph(seed, 11, 0.3, n_type_count=3, e_type_count=2)
        rng = np.random.default_rng(seed)
        order = list(rng.permutation(11))
        h = permute_graph(permute_graph(g, order), inverse_permutation(order))
        assert h.edges == g.edges
        assert h.node_types == g.node_types
        assert h.node_names == g.node_names


def test_permute_rejects_non_bijection():
    g = make_graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        permute_graph(g, [0, 0, 1])


@pytest.mark.parametrize("order", [[0, 0, 1], [2, 2, 2], [0, 3]])
def test_inverse_permutation_rejects_non_bijection(order):
    # A repeated id used to yield a wrong inverse silently, an id past the
    # end an IndexError; both now fail as permute_graph does.
    with pytest.raises(ValueError, match="not a bijection"):
        inverse_permutation(order)


def test_hetero_graph_rejects_duplicates_and_loops():
    with pytest.raises(ValueError):
        make_graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        make_graph(3, [(1, 1)])


HETERO_GRAPH_ARGS = dict(
    node_names=["a", "b", "c"], node_types=[0, 1, 0], edges=[(0, 1), (1, 2)],
    edge_types=[0, 0], node_type_names=["U", "M"], edge_type_names=["r"],
)


@pytest.mark.parametrize("change, message", [
    ({"edges": [(0, 1), (1, 1)]}, "self-loop at node 1"),
    ({"edges": [(-1, 0), (1, 2)]}, "edge (-1, 0) references unknown node"),
    ({"edges": [(0, 1), (1, 3)]}, "edge (1, 3) references unknown node"),
    ({"edges": [(0, 1), (1, 0)]}, "duplicate undirected edge (0, 1)"),
    ({"node_types": [0, 2, 0]}, "node type id 2 out of range"),
    ({"edge_types": [0, 1]}, "edge type id 1 out of range"),
    ({"node_types": [0, 1]}, "node_types length does not match node_names"),
    ({"edge_types": [0]}, "edge_types length does not match edges"),
    ({"node_names": ["a", "b", "a"]}, "duplicate external node ids"),
])
def test_hetero_graph_constructor_checks(change, message):
    HeteroGraph(**HETERO_GRAPH_ARGS)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        HeteroGraph(**{**HETERO_GRAPH_ARGS, **change})
