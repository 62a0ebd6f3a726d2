import ast
import types
import weakref
from pathlib import Path

import numpy as np
import pytest

from typedgraphlets import (
    SKELETON_ORDER,
    SKELETONS,
    TypedGraphletSignature,
    UnknownTypeError,
    brute_force_all_instances,
    brute_force_instances,
    build_motif_matrix,
    census,
    cluster,
    enumerate_all_instances,
    enumerate_instances,
    format_signature,
    instances_matching,
    parse_signature_spec,
    permute_graph,
    planted_partition,
    rank_typed_graphlets,
    recursive_bipartition,
    resolve_skeleton,
    signature_of,
    spectral_embedding,
    spectral_ordering,
)
import typedgraphlets
from typedgraphlets import graphlets, oracles
from typedgraphlets.graphlets import _automorphism_perms, _occurrence_rows, _signature_column

from conftest import (
    FOUR_NODE_ROUTES,
    barbell,
    block_graph,
    copy_graph,
    count_four_node_routes,
    make_graph,
    random_graph,
)

SHAPE_EDGE_COUNTS = {
    "edge": 1, "wedge": 2, "triangle": 3, "4-path": 3, "4-star": 3,
    "4-cycle": 4, "tailed-triangle": 4, "diamond": 5, "4-clique": 6,
}


def four_cycle_umum():
    return make_graph(
        4, [(0, 1), (1, 2), (2, 3), (0, 3)],
        node_types=[0, 1, 0, 1], node_type_names=("U", "M"),
    )


# ---------------------------------------------------------------- catalog

def test_catalog_edge_counts_match_shapes():
    for name, m in SHAPE_EDGE_COUNTS.items():
        assert SKELETONS[name].edge_count == m


def test_catalog_automorphism_counts():
    # The declared field against the permutation scan, for all nine skeletons.
    counts = [skel.automorphisms for skel in SKELETONS.values()]
    assert counts == [len(_automorphism_perms(skel)) for skel in SKELETONS.values()]
    assert counts == [2, 2, 6, 2, 6, 8, 2, 4, 24]


def test_degree_sequences_are_distinct():
    keys = {(s.node_count, s.edge_count, s.degree_sequence) for s in SKELETONS.values()}
    assert len(keys) == len(SKELETONS)
    # A triangle plus one neighbour: the shape follows from the edge count.
    assert {m: SKELETONS[name].edge_count for m, name in graphlets._TRIANGLE_SHAPES.items()} == {
        4: 4, 5: 5, 6: 6}


def test_aliases():
    assert resolve_skeleton("3-path").name == "wedge"
    assert resolve_skeleton("chordal-cycle").name == "diamond"
    with pytest.raises(KeyError):
        resolve_skeleton("pentagon")


# ---------------------------------------------------------------- enumeration

def test_k3_has_one_triangle_and_no_wedge():
    g = make_graph(3, [(0, 1), (0, 2), (1, 2)])
    assert enumerate_instances(g, "triangle") == [(0, 1, 2)]
    assert enumerate_instances(g, "wedge") == []


def test_typed_four_cycle_instances():
    g = four_cycle_umum()
    assert enumerate_instances(g, "4-cycle") == [(0, 1, 2, 3)]
    assert enumerate_instances(g, "4-path") == []


def test_k4_is_clique_not_diamond():
    g = make_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert enumerate_instances(g, "4-clique") == [(0, 1, 2, 3)]
    assert enumerate_instances(g, "diamond") == []


def test_enumeration_matches_oracle_on_random_graphs():
    for seed in range(12):
        g = random_graph(seed, 13, 0.1 + 0.04 * (seed % 8), n_type_count=1 + seed % 3)
        slow = brute_force_all_instances(g)
        for name in SKELETONS:
            fast = set(enumerate_instances(g, name))
            assert fast == set(slow[name]), f"seed {seed} skeleton {name}"


def test_corner_cases_match_oracle_exactly():
    star = [(0, leaf) for leaf in range(1, 8)]
    two_triangles = [(1, 2), (1, 4), (2, 4), (5, 6), (5, 8), (6, 8)]
    cases = {
        "edgeless": make_graph(5, []),
        "single node": make_graph(1, []),
        "K5": make_graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)]),
        "star K1,7": make_graph(8, star),
        "two triangles and isolated nodes": make_graph(10, two_triangles),
    }
    for label, g in cases.items():
        assert enumerate_all_instances(g) == brute_force_all_instances(g), label
        for name in SKELETONS:
            assert enumerate_instances(g, name) == brute_force_instances(g, name), (label, name)
    k5 = enumerate_all_instances(cases["K5"])
    assert (len(k5["triangle"]), len(k5["4-clique"]), len(k5["wedge"])) == (10, 5, 0)
    k17 = enumerate_all_instances(cases["star K1,7"])
    assert (len(k17["wedge"]), len(k17["4-star"]), len(k17["4-path"])) == (21, 35, 0)
    assert enumerate_all_instances(cases["two triangles and isolated nodes"])["triangle"] == [
        (1, 2, 4), (5, 6, 8)
    ]


@pytest.mark.parametrize("edges, n", [
    ([], 5),
    ([(u, v) for u in range(5) for v in range(u + 1, 5)], 5),
    ([(0, leaf) for leaf in range(1, 8)], 8),
    ([(1, 2), (1, 4), (2, 4), (5, 6), (5, 8), (6, 8), (2, 5), (4, 9)], 10),
])
def test_occurrence_tables_are_read_only_int32_rows_in_oracle_order(edges, n):
    for first in SKELETONS:  # each skeleton requested first on a fresh graph
        g = make_graph(n, edges)
        for name in (first, *SKELETONS):
            rows = _occurrence_rows(g, SKELETONS[name])
            assert rows.dtype == np.int32 and not rows.flags.writeable
            assert rows.shape == (len(rows), SKELETONS[name].node_count)
            assert [tuple(row) for row in rows.tolist()] == brute_force_instances(g, name)


def test_instance_edges_are_graph_edges():
    g = random_graph(3, 12, 0.35)
    edge_types = oracles._edge_types(g)
    for name in SKELETONS:
        for nodes in enumerate_instances(g, name):
            skel = SKELETONS[name]
            induced = [
                (u, v)
                for i, u in enumerate(nodes)
                for v in nodes[i + 1:]
                if (u, v) in edge_types or (v, u) in edge_types
            ]
            assert len(induced) == skel.edge_count
            assert all(e in edge_types for e in induced)


def test_brute_force_empty_graph_and_guard():
    g = make_graph(4, [])
    assert brute_force_instances(g, "triangle") == []
    big = make_graph(65, [])
    with pytest.raises(ValueError, match="64"):
        brute_force_instances(big, "wedge")


# ---------------------------------------------------------------- census

def test_census_single_type_one_signature_per_skeleton():
    g = random_graph(11, 12, 0.4)
    table = census(g)
    seen = {}
    for sig, count in table.items():
        seen.setdefault(sig.skeleton.name, 0)
        seen[sig.skeleton.name] += 1
    assert all(v == 1 for v in seen.values())
    assert seen  # dense single-type graph has occurrences


@pytest.mark.parametrize("names, total", [
    (["triangle", "triangle"], 2),
    (["wedge", "3-path"], 4),  # 3-path is an alias for wedge
])
def test_census_counts_a_repeated_skeleton_once(names, total):
    table = census(barbell(), names)
    assert table == census(barbell(), names[:1])
    assert sum(table.values()) == total


def test_census_totals_equal_untyped_counts():
    g = random_graph(5, 11, 0.35, n_type_count=3, e_type_count=2)
    table = census(g)
    per_skel: dict[str, int] = {}
    for sig, count in table.items():
        per_skel[sig.skeleton.name] = per_skel.get(sig.skeleton.name, 0) + count
    for name, total in per_skel.items():
        assert total == len(enumerate_instances(g, name))


def test_tables_and_census_totals_equal_the_identity_counts_at_scale():
    # 2,000 nodes are far beyond the subset scan; the identities count every
    # shape exactly, so each route and each typing mode is checked in full.
    g = block_graph(0, 2000, 6, 50, n_type_count=2)
    want = oracles._untyped_counts(g)
    assert min(want.values()) > 0 and all(type(c) is int for c in want.values()), want
    assert {name: len(_occurrence_rows(g, skel)) for name, skel in SKELETONS.items()} == want
    for mode in ("multiset", "set", "strict"):
        totals = dict.fromkeys(SKELETON_ORDER, 0)
        for sig, count in census(g, SKELETON_ORDER, mode).items():
            totals[sig.skeleton.name] += count
        assert totals == want, mode


def test_identity_counts_enumerate_nothing_but_the_clique_triangles(monkeypatch):
    g = random_graph(3, 14, 0.5)
    want = oracles._untyped_counts(copy_graph(g))
    calls = []

    def refuse(*args, **kwargs):
        raise AssertionError("an occurrence route was read")

    def triangles(g, original=oracles._triangles):
        calls.append(g)
        return original(g)

    for name in ("_occurrence_rows", "_wedges", "_four_paths", "_four_stars", "_four_cycles",
                 "_triangle_shape_rows", "_triangles"):
        monkeypatch.setattr(graphlets, name, refuse)
    monkeypatch.setattr(oracles, "_triangles", triangles)
    assert oracles._untyped_counts(g) == want
    assert calls == [g]


def test_census_matches_brute_force_per_signature():
    g = random_graph(9, 10, 0.45, n_type_count=2)
    table = census(g)
    slow = brute_force_all_instances(g)
    for name in ("wedge", "triangle", "4-path", "4-star", "4-cycle",
                 "tailed-triangle", "diamond", "4-clique"):
        skel = SKELETONS[name]
        groups: dict = {}
        for nodes in slow[name]:
            sig = signature_of(g, nodes, skel)
            groups[sig] = groups.get(sig, 0) + 1
        for sig, count in groups.items():
            assert table[sig] == count
    assert sum(table.values()) == sum(
        len(v) for k, v in slow.items() if k != "edge"
    )


def test_census_count_invariant_under_relabeling():
    g = random_graph(2, 10, 0.3, n_type_count=2)
    order = [9, 3, 5, 0, 2, 8, 7, 1, 4, 6]
    h = permute_graph(g, order)
    tg_counts = sorted((s.skeleton.name, s.node_types, c) for s, c in census(g).items())
    th_counts = sorted((s.skeleton.name, s.node_types, c) for s, c in census(h).items())
    assert tg_counts == th_counts


# ---------------------------------------------------------------- per-edge counts

def test_per_edge_counts_k3_triangle():
    g = make_graph(3, [(0, 1), (0, 2), (1, 2)])
    sig = parse_signature_spec(g, "triangle:U,U,U")
    assert build_motif_matrix(g, sig).weights == {(0, 1): 1, (0, 2): 1, (1, 2): 1}


def test_per_edge_counts_typed_wedge_path():
    g = make_graph(3, [(0, 1), (1, 2)], node_types=[0, 1, 0],
                   node_type_names=("U", "M"))
    sig = parse_signature_spec(g, "wedge:U,M,U")
    counts = build_motif_matrix(g, sig).weights
    assert counts == {(0, 1): 1, (1, 2): 1}


def test_per_edge_counts_shared_edge_diamond():
    # two triangles sharing edge (0, 1)
    g = make_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    sig = TypedGraphletSignature(SKELETONS["triangle"])
    counts = build_motif_matrix(g, sig).weights
    assert counts[(0, 1)] == 2
    for e in [(0, 2), (1, 2), (0, 3), (1, 3)]:
        assert counts[e] == 1


def test_per_edge_counts_permutation_equivariant():
    g = random_graph(4, 9, 0.4, n_type_count=2)
    sig = TypedGraphletSignature(SKELETONS["wedge"])
    order = [8, 0, 7, 1, 6, 2, 5, 3, 4]
    h = permute_graph(g, order)
    pos = {old: new for new, old in enumerate(order)}
    counts_g = build_motif_matrix(g, sig).weights
    counts_h = build_motif_matrix(h, sig).weights
    remapped = {tuple(sorted((pos[u], pos[v]))): c for (u, v), c in counts_g.items()}
    assert remapped == counts_h


# ---------------------------------------------------------------- typing modes

def test_signature_multiset_merges_centers_strict_splits():
    umu = make_graph(3, [(0, 1), (1, 2)], node_types=[0, 1, 0],
                     node_type_names=("U", "M"))
    muu = make_graph(3, [(0, 1), (1, 2)], node_types=[1, 0, 0],
                     node_type_names=("U", "M"))
    sig_a = next(iter(census(umu, ["wedge"])))
    sig_b = next(iter(census(muu, ["wedge"])))
    assert sig_a == sig_b  # same node-type multiset {M,U,U}
    strict_a = next(iter(census(umu, ["wedge"], "strict")))
    strict_b = next(iter(census(muu, ["wedge"], "strict")))
    assert strict_a != strict_b  # M-centred wedge differs from U-centred


def test_set_mode_is_coarser_than_multiset():
    # triangles typed U,U,M and U,M,M in one graph
    g = make_graph(
        6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)],
        node_types=[0, 0, 1, 0, 1, 1], node_type_names=("U", "M"),
    )
    multi = census(g, skels=["triangle"])
    assert len(multi) == 2
    coarse = census(g, skels=["triangle"], typing_mode="set")
    assert len(coarse) == 1


def test_wildcard_signature_matches_everything():
    g = random_graph(6, 10, 0.35, n_type_count=3)
    sig = TypedGraphletSignature(SKELETONS["wedge"])
    assert len(instances_matching(g, sig)) == len(enumerate_instances(g, "wedge"))


# ---------------------------------------------------------------- parsing and rendering

def test_parse_signature_spec_errors():
    g = make_graph(3, [(0, 1), (1, 2)], node_types=[0, 1, 0],
                   node_type_names=("U", "M"))
    with pytest.raises(UnknownTypeError, match="unknown node type"):
        parse_signature_spec(g, "wedge:U,M,X")
    with pytest.raises(UnknownTypeError, match="expected 3"):
        parse_signature_spec(g, "wedge:U,M")
    sig = parse_signature_spec(g, "wedge")
    assert sig.node_types is None


def test_strict_spec_canonicalizes_orientation():
    g = make_graph(3, [(0, 1), (1, 2)], node_types=[1, 0, 0],
                   node_type_names=("U", "M"))
    # both orientations of the same typed wedge resolve to one signature
    a = parse_signature_spec(g, "wedge:M,U,U", typing_mode="strict")
    b = parse_signature_spec(g, "wedge:U,U,M", typing_mode="strict")
    assert a == b
    assert len(instances_matching(g, a)) == 1
    # the centre position is load-bearing: a U-centred spec matches, an
    # M-centred one does not
    center_m = parse_signature_spec(g, "wedge:U,M,U", typing_mode="strict")
    assert len(instances_matching(g, center_m)) == 0


def test_format_signature_sorted_labels():
    g = make_graph(3, [(0, 1), (1, 2)], node_types=[0, 1, 0],
                   node_type_names=("U", "M"))
    sig = next(iter(census(g, ["wedge"])))
    assert format_signature(sig, g) == "wedge[M,U,U]"


def test_barbell_has_two_triangles():
    g = barbell()
    assert enumerate_instances(g, "triangle") == [(0, 1, 2), (3, 4, 5)]


# ---------------------------------------------------------------- occurrence tables

def test_census_and_ranking_enumerate_each_skeleton_once(monkeypatch):
    calls = []
    enumerate_original = graphlets.enumerate_instances

    def counting_enumerate(g, skel):
        calls.append(resolve_skeleton(skel).name)
        return enumerate_original(g, skel)

    monkeypatch.setattr(graphlets, "enumerate_instances", counting_enumerate)
    count_four_node_routes(monkeypatch, calls)
    g = random_graph(7, 14, 0.35, n_type_count=2)
    table = census(g)
    rank_typed_graphlets(g, list(table))
    census(g, typing_mode="set")
    # Each 4-node shape runs its own route once; the triangle route fills three tables.
    assert calls == ["wedge", "triangle", "_four_paths", "_four_stars", "_four_cycles",
                     "_triangle_shape_rows"]


def test_enumerate_instances_reads_the_four_node_table(monkeypatch):
    routes = []
    count_four_node_routes(monkeypatch, routes)
    for name, route in FOUR_NODE_ROUTES.items():
        routes.clear()
        g = random_graph(9, 14, 0.45, n_type_count=2)
        listed = enumerate_instances(g, name)
        rows = instances_matching(g, TypedGraphletSignature(SKELETONS[name]))
        assert listed and listed == [tuple(row) for row in rows.tolist()], name
        assert routes == [route], name


@pytest.mark.parametrize("n, edges", [
    pytest.param(0, [], id="no node"),
    pytest.param(9, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6),
                     (7, 8)], id="no wedge"),
    pytest.param(8, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6), (3, 6), (6, 7)],
                 id="no triangle"),
    pytest.param(4, [(0, 1), (1, 2), (2, 3), (0, 3)], id="lone C4"),
    pytest.param(4, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)], id="C4 plus one chord"),
    pytest.param(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], id="K4"),
    pytest.param(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)],
                 id="three centres on one end pair"),
    pytest.param(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3)],
                 id="three centres, two of them adjacent"),
    pytest.param(4, [(0, 2), (0, 3), (1, 2), (1, 3)], id="C4 whose smallest node is a centre"),
    pytest.param(9, [(2, 8), (8, 5), (5, 6), (6, 2), (0, 5), (1, 2), (1, 8)],
                 id="C4 and triangle among pendants"),
    pytest.param(8, [(3, v) for v in (0, 1, 2, 4, 5, 6)], id="star with a hub of degree 6"),
    pytest.param(5, [(0, 3), (3, 1), (1, 4), (4, 2)], id="5-node path"),
])
def test_four_node_routes_equal_the_oracle_and_the_full_expansion(n, edges):
    # The full expansion is gone; the name is kept, and the oracle is the one reference.
    g = make_graph(n, edges)
    oracle = brute_force_all_instances(g)
    for name in FOUR_NODE_ROUTES:
        rows = _occurrence_rows(copy_graph(g), SKELETONS[name])  # its route runs first
        assert [tuple(row) for row in rows.tolist()] == oracle[name], name
        assert rows.dtype == np.int32 and not rows.flags.writeable, name


def test_routes_order_rows_alike_beyond_one_int64_key():
    # Four ids of a 60,000-node graph overflow one base-n int64 key, so the
    # routes order its rows by a lexsort instead; the rows must not change.
    small = random_graph(4, 12, 0.45)
    big = make_graph(60_000, small.edge_array.tolist())
    for name in SKELETON_ORDER:
        want = _occurrence_rows(small, SKELETONS[name])
        got = _occurrence_rows(big, SKELETONS[name])
        assert len(want) and got.dtype == want.dtype and np.array_equal(got, want), name


def test_occurrence_tables_die_with_their_graph():
    g = random_graph(8, 12, 0.4, n_type_count=2)
    census(g)
    census(g, skels=["edge"], typing_mode="strict")
    build_motif_matrix(g, TypedGraphletSignature(SKELETONS["wedge"]))
    ref = weakref.ref(g)
    del g
    assert ref() is None


# ---------------------------------------------------------------- coded typing

def _signature_loop(g, skel, mode):
    """Oracle: ``signature_of`` per occurrence row, interned in first-seen order."""
    interned = {}
    ids = [interned.setdefault(signature_of(g, nodes, skel, mode), len(interned))
           for nodes in _occurrence_rows(g, skel).tolist()]
    return ids, list(interned)


def test_coded_signatures_match_signature_of_row_by_row():
    # Two node and two edge types, plus a dense graph with 1,000 node-type
    # and 100 edge-type names, where one packed int64 key per 4-clique would
    # need about 10^24 values.
    graphs = [random_graph(400 + seed, 14, 0.3 + 0.05 * seed, n_type_count=2, e_type_count=2)
              for seed in range(6)]
    graphs.append(random_graph(7, 12, 0.8, n_type_count=1000, e_type_count=100))
    for i, g in enumerate(graphs):
        for name, skel in SKELETONS.items():
            for mode in ("multiset", "set", "strict"):
                ids, sigs = _signature_column(g, skel, mode)
                want_ids, want_sigs = _signature_loop(g, skel, mode)
                assert ids.tolist() == want_ids, (i, name, mode)
                assert sigs == want_sigs, (i, name, mode)
    assert any(len(_signature_column(graphs[-1], SKELETONS["4-clique"], mode)[1]) > 1
               for mode in ("multiset", "set", "strict"))


def test_no_query_calls_the_signature_oracle(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("signature_of called outside the tests")

    monkeypatch.setattr(oracles, "signature_of", refuse)
    g = random_graph(12, 12, 0.4, n_type_count=2, e_type_count=2)
    for mode in ("multiset", "set", "strict"):
        assert census(g, typing_mode=mode)
    table = census(g)
    rank_typed_graphlets(g, list(table))
    sig = next(iter(table))
    assert len(instances_matching(g, sig)) == table[sig]


def test_no_query_reads_the_oracle_edge_index(monkeypatch):
    def refuse(g):
        raise AssertionError("edge lookup read outside the oracles")

    monkeypatch.setattr(oracles, "_edge_types", refuse)
    g = random_graph(13, 14, 0.4, n_type_count=2, e_type_count=2)
    for mode in ("multiset", "set", "strict"):
        assert census(g, typing_mode=mode)
    sig = next(iter(census(g)))
    assert len(instances_matching(g, sig))
    assert build_motif_matrix(g, sig).weights
    assert cluster(g, TypedGraphletSignature(SKELETONS["triangle"])).nodes
    assert enumerate_all_instances(g)["4-path"]
    with pytest.raises(AssertionError, match="edge lookup"):
        oracles.classify_induced(g, (0, 1, 2))


def _imports_oracles(tree: ast.AST) -> bool:
    """Whether a module's syntax tree imports ``oracles`` in any form."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""] + [alias.name for alias in node.names]
        elif (isinstance(node, ast.Call) and node.args
              and isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str)
              and getattr(node.func, "attr", getattr(node.func, "id", None))
              in ("import_module", "__import__")):
            modules = [node.args[0].value]
        else:
            continue
        if any("oracles" in name.split(".") for name in modules):
            return True
    return False


def test_only_the_cli_and_the_package_import_the_oracles():
    # The fast modules never reach the oracles; only ``--oracle-check`` and
    # the re-exports do.
    package = Path(graphlets.__file__).parent
    importers = {path.name for path in sorted(package.glob("*.py"))
                 if _imports_oracles(ast.parse(path.read_text(encoding="utf-8")))}
    assert importers == {"cli.py", "__init__.py"}
    for source in ("from . import oracles", "from .oracles import signature_of",
                   "from typedgraphlets import graph, oracles as o",
                   "from typedgraphlets.oracles import _edge_types",
                   "import typedgraphlets.oracles", "import typedgraphlets.oracles as o",
                   "def f():\n    from .oracles import typed_degree",
                   "importlib.import_module('.oracles', __package__)",
                   "__import__('typedgraphlets.oracles')"):
        assert _imports_oracles(ast.parse(source)), source
    for source in ("from . import graphlets", "import typedgraphlets.graph",
                   "name = 'oracles'", "from .graphlets import census"):
        assert not _imports_oracles(ast.parse(source)), source


PUBLIC_NAMES = (
    "ClusterResult", "DegenerateCutError", "EDGE_OPERATORS", "EdgeDataset",
    "EdgeListFormatError", "EigenConvergenceError", "EigenPair", "GraphletAbsentError",
    "HeteroGraph", "LinkPredResult", "MetricsReport", "MotifMatrix", "MotifRank",
    "NormalizedLaplacian", "OrderingResult", "PartitionResult", "RankResult", "SKELETONS",
    "SKELETON_ORDER", "Skeleton", "SweepResult", "TypedGraphletSignature", "UnknownTypeError",
    "WeightedGraph", "ZeroVolumeError", "brute_force_all_instances", "brute_force_instances",
    "brute_force_min_conductance", "brute_force_min_weighted_conductance", "build_motif_matrix",
    "build_normalized_laplacian", "census", "cluster", "compressed_size_estimate",
    "compute_metrics", "connected_components", "edge_embed", "edge_expansion_measure",
    "enumerate_all_instances", "enumerate_instances", "external_conductance",
    "format_signature", "instances_matching", "inverse_permutation", "link_prediction_eval",
    "load_typed_edge_list", "normalized_laplacian", "parse_signature_spec", "permute_graph",
    "planted_partition", "predict_scores", "rank_typed_graphlets", "read_typed_edge_list",
    "recursive_bipartition", "resolve_skeleton", "signature_of", "smallest_eigenpairs",
    "spectral_embedding", "spectral_ordering", "split_edges", "summarize_trials", "sweep_cut",
    "train_linear_classifier", "typed_conductance", "typed_cut", "typed_degree", "typed_volume",
    "weighted_conductance", "weighted_cut", "weighted_volume",
)


def test_public_names_of_the_package_are_pinned():
    # Moving a function between modules must keep ``from typedgraphlets import
    # name`` working for every caller.
    names = sorted(name for name, value in vars(typedgraphlets).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == sorted(PUBLIC_NAMES)


def test_untyped_wedge_queries_enumerate_no_wedge(monkeypatch):
    # The untyped wedge's closed form needs no wedge rows; a typed wedge and
    # the census still enumerate them.
    def fresh_graph():
        return planted_partition([8, 8, 8], 0.6, 0.05, type_count=2, seed=1)[0]

    def queries(sig):
        g = fresh_graph()
        return (cluster(g, sig), spectral_ordering(g, sig),
                spectral_embedding(g, sig, 4), recursive_bipartition(g, sig, 5))

    def refuse(g):
        raise AssertionError("_wedges called")

    wedge = TypedGraphletSignature(SKELETONS["wedge"])
    want = queries(wedge)
    monkeypatch.setattr(graphlets, "_wedges", refuse)
    got = queries(wedge)
    assert got[0] == want[0] and got[1] == want[1] and got[3] == want[3]
    assert np.array_equal(got[2], want[2])
    assert len(want[3].parts) == 5
    with pytest.raises(AssertionError, match="_wedges"):
        cluster(fresh_graph(), TypedGraphletSignature(SKELETONS["wedge"], (0, 0, 1)))
    with pytest.raises(AssertionError, match="_wedges"):
        census(fresh_graph(), ["wedge"])
