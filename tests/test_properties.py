"""Property tests: the enumerator against its oracle, relabelling invariance,
and the occurrences of an induced subgraph.

Examples are derandomised so every run checks the same graphs.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from typedgraphlets import (
    HeteroGraph,
    SKELETONS,
    TypedGraphletSignature,
    brute_force_all_instances,
    build_motif_matrix,
    census,
    enumerate_all_instances,
    permute_graph,
    signature_of,
)

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=120, deadline=None)


@st.composite
def typed_graphs(draw, max_nodes=10):
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
        ("r", "s"),
    )


@PROPERTY_SETTINGS
@given(typed_graphs())
def test_enumerator_equals_oracle(g):
    assert enumerate_all_instances(g) == brute_force_all_instances(g)


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
