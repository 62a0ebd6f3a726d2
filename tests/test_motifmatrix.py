import math
import random
from fractions import Fraction

import numpy as np
import pytest

from typedgraphlets import (
    DegenerateCutError,
    GraphletAbsentError,
    SKELETONS,
    TypedGraphletSignature,
    WeightedGraph,
    ZeroVolumeError,
    brute_force_instances,
    brute_force_min_conductance,
    build_motif_matrix,
    build_normalized_laplacian,
    census,
    connected_components,
    edge_expansion_measure,
    normalized_laplacian,
    parse_signature_spec,
    permute_graph,
    signature_of,
    typed_conductance,
    typed_cut,
    typed_degree,
    typed_volume,
    weighted_cut,
    weighted_volume,
)
from typedgraphlets.graphlets import _induced_edges

from conftest import barbell, make_graph, random_graph, random_integer_weights


def tri_sig():
    return TypedGraphletSignature(SKELETONS["triangle"])


def cycle_umum():
    g = make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)],
                   node_types=[0, 1, 0, 1], node_type_names=("U", "M"))
    sig = parse_signature_spec(g, "4-cycle:U,M,U,M")
    return g, sig


# ---------------------------------------------------------------- W and D

def test_k3_triangle_matrix():
    g = make_graph(3, [(0, 1), (0, 2), (1, 2)])
    mm = build_motif_matrix(g, tri_sig())
    assert mm.weights == {(0, 1): 1, (0, 2): 1, (1, 2): 1}
    assert list(mm.degrees) == [2, 2, 2]


def test_barbell_bridge_outside_support():
    mm = build_motif_matrix(barbell(), tri_sig())
    assert (2, 3) not in mm.weights
    assert len(mm.weights) == 6


def test_typed_four_cycle_matrix():
    g, sig = cycle_umum()
    mm = build_motif_matrix(g, sig)
    assert set(mm.weights) == set(g.edges)
    assert all(w == 1 for w in mm.weights.values())
    assert list(mm.degrees) == [2, 2, 2, 2]


def test_build_then_permute_equals_permute_then_build():
    g = random_graph(8, 9, 0.45, n_type_count=2)
    sig = TypedGraphletSignature(SKELETONS["wedge"])
    order = [4, 7, 0, 8, 2, 6, 1, 5, 3]
    pos = {old: new for new, old in enumerate(order)}
    a = build_motif_matrix(permute_graph(g, order), sig).weights
    b = {
        tuple(sorted((pos[u], pos[v]))): w
        for (u, v), w in build_motif_matrix(g, sig).weights.items()
    }
    assert a == b


def test_matrix_dump_format():
    g = make_graph(3, [(0, 1), (0, 2), (1, 2)])
    text = build_motif_matrix(g, tri_sig()).dump()
    lines = text.strip().splitlines()
    assert lines[0] == "3 3"
    assert lines[1:] == ["0 1 1", "0 2 1", "1 2 1"]


# ---------------------------------------------------------------- typed measures

def test_typed_degree_examples():
    g, sig = cycle_umum()
    mm = build_motif_matrix(g, sig)
    assert typed_degree(mm, 0) == 2

    bb = build_motif_matrix(barbell(), tri_sig())
    assert typed_degree(bb, 2) == 2  # bridge endpoint sees only its own triangle

    iso = make_graph(4, [(0, 1), (0, 2), (1, 2)])
    mm_iso = build_motif_matrix(iso, tri_sig())
    assert typed_degree(mm_iso, 3) == 0


def test_typed_volume_examples():
    g, sig = cycle_umum()
    mm = build_motif_matrix(g, sig)
    assert typed_volume(mm, range(4)) == 8
    assert typed_volume(mm, set()) == 0


def test_typed_volume_matches_weighted_volume():
    # volume identity between the occurrence stream and the induced graph
    for seed in range(8):
        g = random_graph(seed, 9, 0.4, n_type_count=2)
        for name in ("wedge", "triangle", "4-star"):
            mm = build_motif_matrix(g, TypedGraphletSignature(SKELETONS[name]))
            if not len(mm.instances):
                continue
            rng = random.Random(seed)
            s = {v for v in range(9) if rng.random() < 0.5}
            assert typed_volume(mm, s) == weighted_volume(mm.induced_graph(), s)


def test_typed_cut_examples():
    g, sig = cycle_umum()
    assert typed_cut(g, sig, {0}) == 1

    assert typed_cut(barbell(), tri_sig(), {0, 1, 2}) == 0

    k4 = make_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert typed_cut(k4, tri_sig(), {0}) == 3


def test_typed_cut_sandwiched_by_weighted_cut():
    # counting crossings of occurrences vs how many times they are severed
    for seed in range(8):
        g = random_graph(100 + seed, 9, 0.4, n_type_count=2)
        for name in ("wedge", "triangle", "diamond"):
            sig = TypedGraphletSignature(SKELETONS[name])
            mm = build_motif_matrix(g, sig)
            if not len(mm.instances):
                continue
            rng = random.Random(seed + 1)
            s = {v for v in range(9) if rng.random() < 0.5}
            if not s or len(s) == 9:
                continue
            tcut = typed_cut(g, sig, s)
            wcut = weighted_cut(mm.induced_graph(), s)
            m = SKELETONS[name].edge_count
            assert tcut <= wcut <= m * tcut


def test_typed_conductance_examples():
    g, sig = cycle_umum()
    assert typed_conductance(g, sig, {0, 1}) == Fraction(1, 4)

    assert typed_conductance(barbell(), tri_sig(), {0, 1, 2}) == 0

    k3 = make_graph(3, [(0, 1), (0, 2), (1, 2)])
    assert typed_conductance(k3, tri_sig(), {0}) == Fraction(1, 2)


def test_typed_conductance_zero_volume_is_error():
    g = make_graph(4, [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(ZeroVolumeError):
        typed_conductance(g, tri_sig(), {3})
    with pytest.raises(DegenerateCutError):
        typed_conductance(g, tri_sig(), set())


# ---------------------------------------------------------------- edge expansion contrast

def test_edge_expansion_examples():
    g, sig = cycle_umum()
    assert edge_expansion_measure(g, sig, {0}) == 1

    assert edge_expansion_measure(barbell(), tri_sig(), {0, 1, 2}) == 0

    k3 = make_graph(3, [(0, 1), (0, 2), (1, 2)])
    assert edge_expansion_measure(k3, tri_sig(), {0}) == 1


# ---------------------------------------------------------------- brute-force minimum

def test_brute_force_min_conductance_examples():
    side, phi = brute_force_min_conductance(barbell(), tri_sig())
    assert phi == 0
    assert side in (frozenset({0, 1, 2}), frozenset({3, 4, 5}))

    g, sig = cycle_umum()
    side, phi_cycle = brute_force_min_conductance(g, sig)
    assert phi_cycle == Fraction(1, 4)
    # every balanced pair ties at 1/4; smallest side lexicographically wins
    assert side == frozenset({0, 1})

    k3 = make_graph(3, [(0, 1), (0, 2), (1, 2)])
    _, phi_k3 = brute_force_min_conductance(k3, tri_sig())
    assert phi_k3 == Fraction(1, 2)


def test_brute_force_guard_and_absent():
    big = make_graph(21, [])
    with pytest.raises(ValueError, match="20"):
        brute_force_min_conductance(big, tri_sig())
    empty = make_graph(4, [(0, 1)])
    with pytest.raises(GraphletAbsentError):
        brute_force_min_conductance(empty, tri_sig())


# ---------------------------------------------------------------- Laplacian

def test_laplacian_k3_spectrum():
    g = make_graph(3, [(0, 1), (0, 2), (1, 2)])
    lap = normalized_laplacian(build_motif_matrix(g, tri_sig()))
    vals = np.linalg.eigvalsh(lap.matrix.toarray())
    assert vals == pytest.approx([0.0, 1.5, 1.5], abs=1e-12)


def test_laplacian_p3_edge_motif_spectrum():
    g = make_graph(3, [(0, 1), (1, 2)])
    sig = TypedGraphletSignature(SKELETONS["edge"])
    lap = normalized_laplacian(build_motif_matrix(g, sig))
    vals = np.linalg.eigvalsh(lap.matrix.toarray())
    assert vals == pytest.approx([0.0, 1.0, 2.0], abs=1e-12)


def test_laplacian_nullspace_and_range():
    for seed in range(6):
        g = random_graph(seed, 10, 0.35, n_type_count=2)
        mm = build_motif_matrix(g, TypedGraphletSignature(SKELETONS["wedge"]))
        if not len(mm.instances):
            continue
        lap = normalized_laplacian(mm)
        dense = lap.matrix.toarray()
        vals = np.linalg.eigvalsh(dense)
        assert vals[0] > -1e-10
        assert vals[-1] < 2 + 1e-10
        # D^{1/2} 1 lies in the nullspace on each connected component
        deg = mm.degrees[lap.nodes].astype(float)
        v = np.sqrt(deg)
        assert np.linalg.norm(dense @ v) < 1e-9 * np.linalg.norm(v)


def test_laplacian_excludes_uncovered_nodes():
    g = make_graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    lap = normalized_laplacian(build_motif_matrix(g, tri_sig()))
    assert list(lap.nodes) == [0, 1, 2]
    assert lap.dim == 3


def test_laplacian_absent_graphlet_raises():
    g = make_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(GraphletAbsentError):
        normalized_laplacian(build_motif_matrix(g, tri_sig()))


def test_build_normalized_laplacian_on_component_subset():
    g = barbell()
    mm = build_motif_matrix(g, tri_sig())
    lap = build_normalized_laplacian(mm.induced_graph(), [0, 1, 2])
    assert lap.dim == 3
    vals = np.linalg.eigvalsh(lap.matrix.toarray())
    assert vals == pytest.approx([0.0, 1.5, 1.5], abs=1e-12)


def test_laplacian_entries_match_dense_oracle_exactly():
    # I - D^{-1/2} W D^{-1/2} built densely from the weights dict with one
    # value -w * s[u] * s[v] per pair u < v, on the whole graph, on each
    # component and on one with ids outside the graph (they have no degree);
    # compared with ==, and the matrix must be bitwise symmetric.
    for seed in range(20):
        wg = WeightedGraph(24, random_integer_weights(seed, 24, blocks=3, p=0.5))
        labels, count = connected_components(wg)
        comps = [np.flatnonzero(labels == c).tolist() for c in range(count)]
        for nodes in [None, comps[0] + [-1, 24]] + comps:
            keep = set(range(wg.node_count) if nodes is None else nodes)
            inner = {(u, v): w for (u, v), w in wg.weights.items() if u in keep and v in keep}
            deg = dict.fromkeys(keep, 0)
            for (u, v), w in inner.items():
                deg[u] += w
                deg[v] += w
            kept = sorted(v for v in keep if deg[v] > 0)
            if not kept:
                with pytest.raises(GraphletAbsentError):
                    build_normalized_laplacian(wg, nodes)
                continue
            index = {v: i for i, v in enumerate(kept)}
            s = {v: 1.0 / math.sqrt(deg[v]) for v in kept}
            expected = np.eye(len(kept))
            for (u, v), w in inner.items():
                expected[index[u], index[v]] = -w * s[u] * s[v]
                expected[index[v], index[u]] = -w * s[u] * s[v]
            lap = build_normalized_laplacian(wg, nodes)
            dense = lap.matrix.toarray()
            assert lap.nodes.tolist() == kept
            assert (dense == expected).all(), (seed, nodes)
            assert (dense == dense.T).all(), (seed, nodes)


def test_motif_matrix_matches_oracle_counts_in_every_typing_mode():
    # W from the occurrence table against counts rebuilt from the subset-scan
    # oracle, per typed, node-typed-only and wildcard signature.
    for seed in range(6):
        g = random_graph(200 + seed, 10 + seed % 3, 0.35, n_type_count=2, e_type_count=2)
        for name, skel in SKELETONS.items():
            oracle_nodes = brute_force_instances(g, name)
            for mode in ("multiset", "set", "strict"):
                typed = list(census(g, [name], mode))
                sigs = [TypedGraphletSignature(skel, None, None, mode)]
                sigs += typed
                sigs += [TypedGraphletSignature(skel, s.node_types, None, mode) for s in typed]
                for sig in sigs:
                    expected: dict = {}
                    for nodes in oracle_nodes:
                        if sig.matches(signature_of(g, nodes, skel, mode)):
                            for e in _induced_edges(g, nodes):
                                expected[e] = expected.get(e, 0) + 1
                    mm = build_motif_matrix(g, sig)
                    assert mm.weights == expected, (seed, name, mode, sig)
                    assert all(type(w) is int for w in mm.weights.values())
                    degrees = [0] * g.node_count
                    for (u, v), w in expected.items():
                        degrees[u] += w
                        degrees[v] += w
                    assert mm.degrees.tolist() == degrees
