import math
import random
from fractions import Fraction

import numpy as np
import pytest

from typedgraphlets import (
    GraphletAbsentError,
    SKELETONS,
    TypedGraphletSignature,
    WeightedGraph,
    brute_force_min_conductance,
    build_motif_matrix,
    build_normalized_laplacian,
    census,
    cluster,
    connected_components,
    normalized_laplacian,
    parse_signature_spec,
    permute_graph,
    rank_typed_graphlets,
    recursive_bipartition,
    smallest_eigenpairs,
    spectral_embedding,
    spectral_ordering,
    sweep_cut,
    weighted_conductance,
    weighted_cut,
)

from conftest import (
    barbell,
    connected_random_graph,
    make_graph,
    random_graph,
    random_integer_weights,
    reference_edge_sweep,
    top_signature,
)

EDGE_SIG = TypedGraphletSignature(SKELETONS["edge"])
TRI_SIG = TypedGraphletSignature(SKELETONS["triangle"])


def edge_laplacian(g):
    return normalized_laplacian(build_motif_matrix(g, EDGE_SIG))


# ---------------------------------------------------------------- eigensolver

def test_k3_edge_motif_eigenvalues():
    lap = edge_laplacian(make_graph(3, [(0, 1), (0, 2), (1, 2)]))
    pairs = smallest_eigenpairs(lap, 2)
    assert pairs[0].value == pytest.approx(0.0, abs=1e-12)
    assert pairs[1].value == pytest.approx(1.5, abs=1e-12)


def test_p3_edge_motif_eigenvalues():
    lap = edge_laplacian(make_graph(3, [(0, 1), (1, 2)]))
    pairs = smallest_eigenpairs(lap, 3)
    assert [p.value for p in pairs] == pytest.approx([0.0, 1.0, 2.0], abs=1e-12)


def test_eigenpairs_match_full_dense_decomposition():
    g = random_graph(21, 10, 0.5)
    lap = edge_laplacian(g)
    pairs = smallest_eigenpairs(lap, 4)
    ref = np.linalg.eigvalsh(lap.matrix.toarray())
    for p, r in zip(pairs, ref):
        assert p.value == pytest.approx(r, abs=1e-8)


def test_eigenpair_invariants():
    g = random_graph(22, 12, 0.4)
    lap = edge_laplacian(g)
    pairs = smallest_eigenpairs(lap, 3)
    for p in pairs:
        res = np.linalg.norm(lap.matrix @ p.vector - p.value * p.vector)
        assert res <= 1e-8 * max(1.0, p.value)
        # deterministic sign: the largest-magnitude entry is positive
        assert p.vector[int(np.argmax(np.abs(p.vector)))] > 0
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            assert abs(pairs[i].vector @ pairs[j].vector) < 1e-8


def test_iterative_path_agrees_with_dense():
    # ring of 150 nodes plus chords; force the Krylov path via threshold 1
    rng = random.Random(9)
    edges = [(i, (i + 1) % 150) for i in range(150)]
    extra = {tuple(sorted((rng.randrange(150), rng.randrange(150)))) for _ in range(60)}
    edges += [e for e in extra if e[0] != e[1] and e not in set(edges)]
    g = make_graph(150, sorted(set(edges)))
    lap = edge_laplacian(g)
    dense = smallest_eigenpairs(lap, 2, dense_threshold=10_000)
    iterative = smallest_eigenpairs(lap, 2, dense_threshold=1)
    assert iterative[1].value == pytest.approx(dense[1].value, abs=1e-6)


def test_eigen_k_bounds():
    lap = edge_laplacian(make_graph(3, [(0, 1), (1, 2)]))
    with pytest.raises(ValueError):
        smallest_eigenpairs(lap, 0)
    with pytest.raises(ValueError):
        smallest_eigenpairs(lap, 4)


def test_nonconvergence_surfaces_as_error(monkeypatch):
    import scipy.sparse.linalg as spla

    from typedgraphlets import EigenConvergenceError

    g = random_graph(50, 30, 0.3)
    lap = edge_laplacian(g)

    def no_converge(*args, **kwargs):
        raise spla.ArpackNoConvergence("stalled", np.array([]), np.empty((0, 0)))

    monkeypatch.setattr("typedgraphlets.spectral.spla.eigsh", no_converge)
    with pytest.raises(EigenConvergenceError):
        smallest_eigenpairs(lap, 2, dense_threshold=1)


# ---------------------------------------------------------------- sweep cut

def test_sweep_separates_barbell_under_edge_motif():
    g = barbell()
    mm = build_motif_matrix(g, EDGE_SIG)
    gH = mm.induced_graph()
    lap = build_normalized_laplacian(gH)
    v2 = smallest_eigenpairs(lap, 2)[1].vector
    sw = sweep_cut(gH, v2, nodes=list(lap.nodes))
    assert sw.best_conductance == pytest.approx(1 / 7)
    assert sw.cluster in ([0, 1, 2], [3, 4, 5])


def test_sweep_on_one_component_uses_global_volumes():
    g = barbell()
    gH = build_motif_matrix(g, TRI_SIG).induced_graph()
    lap = build_normalized_laplacian(gH, [0, 1, 2])
    v2 = smallest_eigenpairs(lap, 2)[1].vector
    sw = sweep_cut(gH, v2, nodes=[0, 1, 2])
    assert len(sw.profile) == 2
    assert sw.best_conductance == pytest.approx(0.5)


def test_sweep_profile_matches_direct_recomputation():
    for seed in range(6):
        g = random_graph(seed + 40, 11, 0.35)
        mm = build_motif_matrix(g, EDGE_SIG)
        gH = mm.induced_graph()
        try:
            lap = build_normalized_laplacian(gH)
        except GraphletAbsentError:
            continue
        v2 = smallest_eigenpairs(lap, 2)[1].vector
        sw = sweep_cut(gH, v2, nodes=list(lap.nodes))
        for k in range(1, len(sw.order)):
            prefix = set(sw.order[:k])
            direct = weighted_conductance(gH, prefix)
            assert sw.profile[k - 1] == pytest.approx(direct, abs=1e-12)


def test_sweep_profile_equals_dict_route_exactly_on_each_component():
    # Integer weights keep every prefix cut and volume exact, so each profile
    # entry must equal cut / min(vol, total - vol) summed from the weights
    # dict, with ==. The vector has ties, which go to the lower node id.
    for seed in range(20):
        wg = WeightedGraph(24, random_integer_weights(seed, 24, blocks=3, p=0.4))
        labels, count = connected_components(wg)
        total = 2 * sum(wg.weights.values())
        rng = random.Random(seed)
        for c in range(count):
            comp = np.flatnonzero(labels == c).tolist()
            if len(comp) < 2:
                continue
            v2 = np.array([float(rng.randrange(4)) for _ in comp])
            sw = sweep_cut(wg, v2, nodes=comp)
            key = dict(zip(comp, v2))
            assert sw.order == sorted(comp, key=lambda v: (key[v], v))
            for k in range(1, len(comp)):
                prefix = sw.order[:k]
                vol = sum(w * ((u in prefix) + (v in prefix))
                          for (u, v), w in wg.weights.items())
                assert sw.profile[k - 1] == weighted_cut(wg, prefix) / min(vol, total - vol)
            assert sw.best_k == int(np.argmin(sw.profile)) + 1


def test_sweep_requires_two_nodes():
    gH = build_motif_matrix(make_graph(2, [(0, 1)]), EDGE_SIG).induced_graph()
    with pytest.raises(ValueError):
        sweep_cut(gH, np.array([0.0]), nodes=[0])


# ---------------------------------------------------------------- cluster

def test_cluster_barbell_returns_one_triangle():
    res = cluster(barbell(), TRI_SIG)
    assert res.nodes in ([0, 1, 2], [3, 4, 5])
    assert res.alpha == 0
    assert res.phi_weighted == 0.0
    assert res.component_count == 2


def test_cluster_typed_four_cycle_matches_brute_force():
    g = make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)],
                   node_types=[0, 1, 0, 1], node_type_names=("U", "M"))
    sig = parse_signature_spec(g, "4-cycle:U,M,U,M")
    res = cluster(g, sig)
    assert len(res.nodes) == 2
    _, phi_opt = brute_force_min_conductance(g, sig)
    assert res.alpha == phi_opt == Fraction(1, 4)


def test_cluster_two_node_component():
    # triangle plus an isolated edge under the edge motif: the smaller whole
    # component is the perfectly separable cluster
    g = make_graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    res = cluster(g, EDGE_SIG)
    assert res.phi_weighted == 0.0
    assert res.nodes == [3, 4]
    assert res.component_count == 2


def test_cluster_absent_graphlet():
    g = make_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(GraphletAbsentError):
        cluster(g, TRI_SIG)


def test_cluster_alpha_bounded_by_weighted_selection():
    # per-cut relation: typed conductance never exceeds the weighted one
    for seed in range(8):
        g = random_graph(seed + 60, 11, 0.35, n_type_count=2)
        table = census(g, skels=["wedge"])
        if not table:
            continue
        sig = sorted(table.items(), key=lambda kv: (-kv[1], kv[0].node_types))[0][0]
        res = cluster(g, sig)
        assert float(res.alpha) <= res.phi_weighted + 1e-12


def test_cluster_approximation_bounds_small():
    checked = 0
    for seed in range(30):
        g = random_graph(seed + 200, 9, 0.35, n_type_count=2)
        table = census(g, skels=["triangle"])
        if not table:
            continue
        sig = sorted(table.items(), key=lambda kv: (-kv[1], kv[0].node_types))[0][0]
        _, phi_opt = brute_force_min_conductance(g, sig)
        res = cluster(g, sig)
        m = sig.skeleton.edge_count
        assert phi_opt <= res.alpha
        if phi_opt > 0:
            assert float(res.alpha) <= math.sqrt(4 * m * float(phi_opt)) + 1e-12
            assert float(res.alpha) <= res.beta * float(phi_opt) + 1e-12
        checked += 1
    assert checked >= 10


def test_cluster_deterministic():
    g = random_graph(77, 14, 0.3, n_type_count=2)
    sig = TypedGraphletSignature(SKELETONS["wedge"])
    a = cluster(g, sig)
    b = cluster(g, sig)
    assert a.nodes == b.nodes
    assert a.phi_weighted == b.phi_weighted
    assert a.alpha == b.alpha


# ---------------------------------------------------------------- classical reduction

def test_edge_motif_reduces_to_classical_spectral():
    for seed in range(8):
        g = connected_random_graph(seed, 12, 0.3)
        mm = build_motif_matrix(g, EDGE_SIG)
        assert mm.weights == {e: 1 for e in g.edges}
        res = cluster(g, EDGE_SIG)
        ref_nodes, ref_phi = reference_edge_sweep(g)
        assert res.nodes == ref_nodes
        assert res.phi_weighted == pytest.approx(ref_phi, abs=1e-12)


# ---------------------------------------------------------------- partitioning

def test_partition_barbell_into_triangles():
    res = recursive_bipartition(barbell(), TRI_SIG, 2)
    assert sorted(map(tuple, res.parts)) == [(0, 1, 2), (3, 4, 5)]
    assert not res.early_stop


def test_partition_three_cliques():
    g = make_graph(9, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5),
                       (6, 7), (6, 8), (7, 8)])
    res = recursive_bipartition(g, TRI_SIG, 3)
    assert sorted(map(tuple, res.parts)) == [(0, 1, 2), (3, 4, 5), (6, 7, 8)]


def test_partition_parts_cover_covered_nodes():
    g = random_graph(5, 12, 0.4)
    res = recursive_bipartition(g, TRI_SIG, 3)
    mm = build_motif_matrix(g, TRI_SIG)
    assert sorted(v for part in res.parts for v in part) == mm.covered_nodes()


def test_partition_early_stop_when_unsplittable():
    # a lone triangle splits once; after that no part contains the graphlet
    g = make_graph(3, [(0, 1), (0, 2), (1, 2)])
    res = recursive_bipartition(g, TRI_SIG, 4)
    assert res.early_stop
    assert len(res.parts) == 2
    assert sorted(v for part in res.parts for v in part) == [0, 1, 2]


# ---------------------------------------------------------------- ordering

def test_ordering_keeps_components_contiguous():
    res = spectral_ordering(barbell(), TRI_SIG)
    assert res.graphlet_present
    assert {0, 1, 2} in (set(res.order[:3]), set(res.order[3:]))
    assert sorted(res.order) == list(range(6))


def test_ordering_is_idempotent_on_asymmetric_graph():
    g = make_graph(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])
    first = spectral_ordering(g, EDGE_SIG).order
    h = permute_graph(g, first)
    assert spectral_ordering(h, EDGE_SIG).order == list(range(7))


def test_ordering_absent_graphlet_falls_back():
    g = make_graph(3, [(0, 1), (1, 2)])
    res = spectral_ordering(g, TRI_SIG)
    assert not res.graphlet_present
    assert res.order == [0, 1, 2]


def test_ordering_uncovered_nodes_appended():
    g = make_graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    res = spectral_ordering(g, TRI_SIG)
    assert set(res.order[:3]) == {0, 1, 2}
    assert res.order[3:] == [3, 4]


def test_ordering_groups_structural_blocks():
    # typed 4-cycle ordering on a 3-type block synthetic: adjacent positions
    # should mostly share a block even though blocks never enter the sweep
    from typedgraphlets import planted_partition

    for seed in range(3):
        g, blocks = planted_partition([18, 20, 22], 0.5, 0.005, type_count=3,
                                      seed=seed, shuffle=True)
        sig = top_signature(g, "4-cycle")
        order = spectral_ordering(g, sig).order
        seq = [int(blocks[v]) for v in order]
        contiguity = sum(1 for a, b in zip(seq, seq[1:]) if a == b) / (len(seq) - 1)
        assert contiguity > 0.9


def test_ordering_is_permutation_on_random_graphs():
    for seed in range(5):
        g = random_graph(seed + 300, 13, 0.3, n_type_count=2)
        for name in ("wedge", "triangle"):
            res = spectral_ordering(g, TypedGraphletSignature(SKELETONS[name]))
            assert sorted(res.order) == list(range(13))


# ---------------------------------------------------------------- embeddings

def test_embedding_dim_one_unit_entries():
    g = random_graph(14, 10, 0.4)
    Z = spectral_embedding(g, EDGE_SIG, 1)
    covered = build_motif_matrix(g, EDGE_SIG).covered_nodes()
    assert np.allclose(np.abs(Z[covered, 0]), 1.0)


def test_embedding_k3_symmetric_dot_products():
    g = make_graph(3, [(0, 1), (0, 2), (1, 2)])
    Z = spectral_embedding(g, TRI_SIG, 2, drop_trivial=True)
    assert np.allclose(np.linalg.norm(Z, axis=1), 1.0)
    dots = [Z[0] @ Z[1], Z[0] @ Z[2], Z[1] @ Z[2]]
    assert max(dots) - min(dots) < 1e-9


def test_embedding_row_norms_zero_or_one():
    g = make_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4)])
    Z = spectral_embedding(g, TRI_SIG, 3)
    norms = np.linalg.norm(Z, axis=1)
    for v in range(6):
        assert norms[v] == pytest.approx(1.0, abs=1e-12) or norms[v] == 0.0
    assert norms[3] == norms[4] == norms[5] == 0.0


def test_embedding_caps_and_pads_small_components():
    g = make_graph(3, [(0, 1), (0, 2), (1, 2)])
    Z = spectral_embedding(g, TRI_SIG, 5)
    assert Z.shape == (3, 5)
    assert np.allclose(Z[:, 3:], 0.0)


def test_embedding_rejects_bad_dim():
    g = make_graph(3, [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(ValueError):
        spectral_embedding(g, TRI_SIG, 0)


# ---------------------------------------------------------------- motif ranking

def test_rank_k3_values():
    g = make_graph(3, [(0, 1), (0, 2), (1, 2)])
    res = rank_typed_graphlets(g, [EDGE_SIG, TRI_SIG])
    assert [r.signature.skeleton.name for r in res.ranked] == ["edge", "triangle"]
    tri = res.ranked[1]
    assert tri.lambda2 == pytest.approx(1.5, abs=1e-12)
    assert tri.beta == pytest.approx(math.sqrt(48), abs=1e-9)
    # same lambda2, one third the edges: one third the factor
    assert res.ranked[0].beta == pytest.approx(tri.beta / 3, abs=1e-9)


def test_rank_skips_absent_signatures():
    g = make_graph(3, [(0, 1), (1, 2)])
    res = rank_typed_graphlets(g, [TRI_SIG, EDGE_SIG])
    assert [r.signature.skeleton.name for r in res.ranked] == ["edge"]
    assert res.skipped == [TRI_SIG]


def test_beta_monotone_in_edge_count():
    from typedgraphlets.spectral import _beta_factor
    lam = 0.7
    betas = [_beta_factor(lam, m) for m in (1, 2, 3, 4, 5, 6)]
    assert betas == sorted(betas)
    assert all(b > 0 for b in betas)
