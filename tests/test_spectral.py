import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import typedgraphlets.spectral as spectral
from typedgraphlets import (
    ClusterResult,
    EigenConvergenceError,
    GraphletAbsentError,
    HeteroGraph,
    PartitionResult,
    SKELETON_ORDER,
    SKELETONS,
    TypedGraphletSignature,
    WeightedGraph,
    brute_force_min_conductance,
    build_motif_matrix,
    build_normalized_laplacian,
    census,
    cluster,
    connected_components,
    graphlets,
    normalized_laplacian,
    parse_signature_spec,
    permute_graph,
    planted_partition,
    rank_typed_graphlets,
    recursive_bipartition,
    resolve_skeleton,
    smallest_eigenpairs,
    spectral_embedding,
    spectral_ordering,
    sweep_cut,
    typed_conductance,
    weighted_conductance,
    weighted_cut,
)

from conftest import (
    FOUR_NODE_ROUTES,
    assert_reference_laplacians,
    barbell,
    connected_random_graph,
    copy_graph,
    count_four_node_routes,
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


def test_iterative_path_agrees_with_dense(monkeypatch):
    # ring of 150 nodes plus chords; force the Krylov path via threshold 1
    rng = random.Random(9)
    edges = [(i, (i + 1) % 150) for i in range(150)]
    extra = {tuple(sorted((rng.randrange(150), rng.randrange(150)))) for _ in range(60)}
    edges += [e for e in extra if e[0] != e[1] and e not in set(edges)]
    g = make_graph(150, sorted(set(edges)))
    lap = edge_laplacian(g)
    monkeypatch.setattr(spectral, "DENSE_SOLVER_THRESHOLD", 10_000)
    dense = smallest_eigenpairs(lap, 2)
    monkeypatch.setattr(spectral, "DENSE_SOLVER_THRESHOLD", 1)
    iterative = smallest_eigenpairs(lap, 2)
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
    monkeypatch.setattr(spectral, "DENSE_SOLVER_THRESHOLD", 1)
    with pytest.raises(EigenConvergenceError):
        smallest_eigenpairs(lap, 2)


def _eigsh_failing(monkeypatch, failures):
    """Patch ``eigsh`` to stall ``failures`` times, then solve; returns its calls."""
    import scipy.sparse.linalg as spla

    real = spla.eigsh
    calls = []

    def eigsh(*args, **kwargs):
        calls.append(kwargs)
        if len(calls) <= failures:
            raise spla.ArpackNoConvergence("stalled", np.array([]), np.empty((0, 0)))
        return real(*args, **kwargs)

    monkeypatch.setattr("typedgraphlets.spectral.spla.eigsh", eigsh)
    return calls


def test_nonconvergence_is_retried_once_with_more_room(monkeypatch):
    lap = edge_laplacian(connected_random_graph(51, 30, 0.3))
    monkeypatch.setattr(spectral, "DENSE_SOLVER_THRESHOLD", 1)
    want = smallest_eigenpairs(lap, 3)
    calls = _eigsh_failing(monkeypatch, 1)
    got = smallest_eigenpairs(lap, 3)
    assert len(calls) == 2
    first, retry = calls
    assert (retry["v0"] == first["v0"]).all()
    # ARPACK's defaults are ncv = max(2k + 1, 20) and maxiter = 10 * dim.
    assert "ncv" not in first and "maxiter" not in first
    assert retry["ncv"] > 20 and retry["maxiter"] > 10 * lap.dim
    assert [p.value for p in got] == pytest.approx([p.value for p in want], abs=1e-10)
    for a, b in zip(got, want):
        assert a.vector == pytest.approx(b.vector, abs=1e-6)


def test_nonconvergence_after_the_retry_is_an_error(monkeypatch):
    from typedgraphlets import EigenConvergenceError

    lap = edge_laplacian(connected_random_graph(51, 30, 0.3))
    calls = _eigsh_failing(monkeypatch, 2)
    monkeypatch.setattr(spectral, "DENSE_SOLVER_THRESHOLD", 1)
    with pytest.raises(EigenConvergenceError):
        smallest_eigenpairs(lap, 2)
    assert len(calls) == 2


@pytest.mark.parametrize("route, threshold", [("dense", 10_000), ("krylov", 1)])
@pytest.mark.parametrize("shifts, first", [({1: 1e-4, 2: 1e-1}, 1), ({2: 1e-4}, 2),
                                            ({1: 1e-1, 2: 1e-4}, 1)])
def test_residual_check_raises_on_the_first_failing_pair(monkeypatch, route, threshold,
                                                          shifts, first):
    # The solver returns pair i with its vector moved by shifts[i]; the one
    # residual product must report the first pair in order that fails.
    lap = edge_laplacian(connected_random_graph(51, 30, 0.3))
    real = np.linalg.eigh if route == "dense" else spla.eigsh
    moved = {}

    def solve(*args, **kwargs):
        vals, vecs = real(*args, **kwargs)
        lam = vals if route == "dense" else 2.0 - vals
        cols = np.argsort(lam, kind="stable")
        vecs = vecs.copy()
        for i, shift in shifts.items():
            vecs[0, cols[i]] += shift
            moved[i] = (lam[cols[i]], vecs[:, cols[i]].copy())
        return vals, vecs

    monkeypatch.setattr("numpy.linalg.eigh" if route == "dense" else
                        "typedgraphlets.spectral.spla.eigsh", solve)
    monkeypatch.setattr(spectral, "DENSE_SOLVER_THRESHOLD", threshold)
    with pytest.raises(EigenConvergenceError) as info:
        smallest_eigenpairs(lap, 3)
    lam, vec = moved[first]
    want = np.linalg.norm(lap.matrix.toarray() @ vec - lam * vec)
    assert info.value.residual is not None
    assert info.value.residual == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------------------- one-pass Laplacians

def many_components(weight):
    """Components of 2, 3, 3, 4 and 6 nodes; nodes 2, 9 and 20 lie in no pair."""
    edges = [(0, 1), (3, 4), (4, 5), (6, 7), (7, 8), (6, 8),
             (10, 11), (11, 12), (12, 13), (10, 13), (10, 12)]
    edges += [(14 + i, 14 + j) for i, j in ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4))]
    return WeightedGraph(21, {e: weight(i) for i, e in enumerate(edges)})


@pytest.mark.parametrize("weight", [lambda i: 1 + i % 3, lambda i: 0.3 + i / 7])
def test_one_pass_laplacians_equal_the_per_component_builds(weight):
    gH = many_components(weight)
    comps = spectral._covered_components([gH])[0]
    assert [len(c) for c in comps] == [2, 3, 3, 4, 6]
    # Asking for some components only must leave the others' pairs out of
    # every block: the largest alone, component 0 alone, two out of order.
    for request in (comps, [comps[-1]], comps[:1], [comps[3], comps[1]], []):
        assert_reference_laplacians(gH, request)


def test_one_pass_laplacians_on_each_side_of_the_dense_threshold(monkeypatch):
    # Components of 2 and 3 nodes stay dense, the others go sparse to the
    # Krylov path, and every pair is bit-equal to the reference route's.
    monkeypatch.setattr(spectral, "DENSE_SOLVER_THRESHOLD", 4)
    gH = many_components(lambda i: 0.3 + i / 7)
    comps = spectral._covered_components([gH])[0]
    assert_reference_laplacians(gH, comps)
    laps = list(spectral._laplacians(gH, comps))
    assert [isinstance(lap.matrix, np.ndarray) for lap in laps] == [True] * 3 + [False] * 2
    for lap, comp in zip(laps, comps):
        got = smallest_eigenpairs(lap, 2)
        want = smallest_eigenpairs(build_normalized_laplacian(gH, comp), 2)
        assert [p.value for p in got] == [p.value for p in want]
        assert all(a.vector.tobytes() == b.vector.tobytes() for a, b in zip(got, want))


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


def test_sweep_rejects_node_ids_outside_the_graph():
    gH = WeightedGraph(4, {(0, 1): 1, (1, 2): 1, (2, 3): 1})
    with pytest.raises(ValueError, match="node ids"):
        sweep_cut(gH, np.array([0.0, 1.0]), nodes=[-1, 0])
    with pytest.raises(ValueError, match="node ids"):
        sweep_cut(gH, np.array([0.0, 1.0]), nodes=[2, 4])


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


def reference_cluster(g, sig):
    """The candidate search ``cluster`` used to run, kept as its oracle.

    Every component of the motif graph is eigensolved and swept; with
    several components each whole component is also a candidate at
    conductance 0. Candidates rank by (phi, whole component first,
    component index), and the cluster is the smaller of the chosen side and
    its complement within the covered nodes.
    """
    mm = build_motif_matrix(g, sig)
    gH = mm.induced_graph()
    labels, count = connected_components(gH)
    comps = [c for c in (np.flatnonzero(labels == i).tolist() for i in range(count))
             if len(c) >= 2]
    covered = {v for comp in comps for v in comp}
    sweeps, lambda2s = [], []
    for comp in comps:
        lap = build_normalized_laplacian(gH, comp)
        pairs = smallest_eigenpairs(lap, 2)
        lambda2s.append(pairs[1].value)
        sweeps.append(sweep_cut(gH, pairs[1].vector, nodes=list(lap.nodes)))
    candidates = [(sw.best_conductance, 1, ci) for ci, sw in enumerate(sweeps)]
    if len(comps) >= 2:
        candidates.extend((0.0, 0, ci) for ci in range(len(comps)))
    phi, kind, ci = min(candidates)
    if kind == 0:
        raw, sweep_k = comps[ci], len(comps[ci])
    else:
        raw, sweep_k = sweeps[ci].order[: sweeps[ci].best_k], sweeps[ci].best_k
    complement = sorted(covered - set(raw))
    chosen = sorted(raw) if len(raw) < len(complement) else complement
    lam2 = lambda2s[ci]
    return ClusterResult(
        nodes=chosen,
        component=ci,
        sweep_k=sweep_k,
        phi_weighted=float(phi),
        alpha=typed_conductance(g, sig, chosen),
        lambda2=lam2,
        beta=math.inf if lam2 <= 1e-14 else math.sqrt(8.0 / lam2) * sig.skeleton.edge_count,
        uncovered=np.flatnonzero(mm.degrees == 0).tolist(),
        component_count=len(comps),
    )


def test_cluster_equals_the_candidate_search_oracle():
    multi = 0
    for seed in range(24):
        g, _ = planted_partition([8, 8, 8], 0.45, 0.02, type_count=2, seed=seed)
        sigs = [TypedGraphletSignature(SKELETONS[name]) for name in SKELETON_ORDER]
        sigs += [s for s in (top_signature(g, name) for name in SKELETON_ORDER) if s]
        for sig in sigs:
            if not len(build_motif_matrix(g, sig).instances):
                continue
            got = cluster(g, sig)
            assert got == reference_cluster(g, sig), (seed, sig)
            assert type(got.alpha) is Fraction
            multi += got.component_count >= 2
    assert multi >= 100


def count_calls(monkeypatch, name):
    calls = []
    real = getattr(spectral, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(spectral, name, counted)
    return calls


def test_disconnected_motif_graph_solves_component_zero_and_sweeps_nothing(monkeypatch):
    solves = count_calls(monkeypatch, "smallest_eigenpairs")
    sweeps = count_calls(monkeypatch, "sweep_cut")
    res = cluster(barbell(), TRI_SIG)
    assert (len(solves), len(sweeps)) == (1, 0)
    # component 0 is {0, 1, 2}; it is not strictly smaller than {3, 4, 5}
    assert res.nodes == [3, 4, 5]
    assert res.lambda2 == pytest.approx(1.5, abs=1e-12)
    assert res.sweep_k == 3
    assert res.component == 0


def test_connected_motif_graph_solves_and_sweeps_once(monkeypatch):
    solves = count_calls(monkeypatch, "smallest_eigenpairs")
    sweeps = count_calls(monkeypatch, "sweep_cut")
    res = cluster(connected_random_graph(3, 12, 0.3), EDGE_SIG)
    assert (len(solves), len(sweeps)) == (1, 1)
    assert res.component_count == 1


def test_cluster_returns_the_other_components_when_component_zero_is_not_smaller():
    k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    g = make_graph(8, k4 + [(4, 5), (6, 7)])
    res = cluster(g, EDGE_SIG)
    assert res.nodes == [4, 5, 6, 7]
    assert res.sweep_k == 4
    assert res.alpha == 0
    assert res.lambda2 == pytest.approx(4 / 3, abs=1e-12)
    assert res.component_count == 3


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


def reference_partition(g, sig, target_k, absent=None):
    """The subgraph route ``recursive_bipartition`` used to run, kept as its oracle.

    Each split builds the induced subgraph on the largest remaining part,
    enumerates and types it again through :func:`cluster`, and maps the side
    back. ``absent`` collects the parts whose subgraph holds no occurrence.
    """
    covered = build_motif_matrix(g, sig).covered_nodes()
    if not covered:
        return PartitionResult([], True)
    parts = [sorted(covered)]
    exhausted = set()
    while len(parts) < target_k:
        order = sorted(
            (i for i in range(len(parts)) if i not in exhausted),
            key=lambda i: (-len(parts[i]), parts[i][0]),
        )
        if not order:
            break
        idx = order[0]
        part = parts[idx]
        sub, back = g.subgraph(part)
        try:
            res = cluster(sub, sig)
        except GraphletAbsentError:
            if absent is not None:
                absent.append(part)
            exhausted.add(idx)
            continue
        side = sorted(back[v] for v in res.nodes)
        rest = sorted(set(part) - set(side))
        parts[idx : idx + 1] = [side, rest]
        exhausted = {i if i < idx else i + 1 for i in exhausted}
    return PartitionResult(parts, early_stop=len(parts) < target_k)


def test_partition_equals_the_subgraph_route():
    early = four_node_splits = 0
    absent = []
    for seed in range(4):
        g, _ = planted_partition([8, 8, 8, 8], 0.45, 0.03, type_count=2, seed=seed)
        sigs = [TypedGraphletSignature(SKELETONS[name]) for name in SKELETON_ORDER]
        sigs += [s for s in (top_signature(g, name, mode) for name in SKELETON_ORDER
                             for mode in ("multiset", "strict")) if s]
        for sig in sigs:
            for k in (2, 3, 5, 8):
                got = recursive_bipartition(g, sig, k)
                assert got == reference_partition(g, sig, k, absent), (seed, sig, k)
                early += got.early_stop
                four_node_splits += sig.skeleton.node_count == 4 and len(got.parts) > 2
    assert early >= 10 and len(absent) >= 10 and four_node_splits >= 10


def test_partition_enumerates_once_and_builds_no_subgraph(monkeypatch):
    calls = []
    enumerate_original = graphlets.enumerate_instances

    def counting_enumerate(g, skel):
        calls.append(resolve_skeleton(skel).name)
        return enumerate_original(g, skel)

    def fresh_graph():
        return planted_partition([8, 8, 8], 0.6, 0.05, type_count=2, seed=1)[0]

    monkeypatch.setattr(HeteroGraph, "subgraph", lambda *args: calls.append("subgraph"))
    monkeypatch.setattr(graphlets, "enumerate_instances", counting_enumerate)
    count_four_node_routes(monkeypatch, calls)
    for name in SKELETON_ORDER:
        for sig in (TypedGraphletSignature(SKELETONS[name]), top_signature(fresh_graph(), name, "strict")):
            calls.clear()
            res = recursive_bipartition(fresh_graph(), sig, 8)
            assert len(res.parts) >= 3, sig
            # The untyped wedge's closed form reads the triangle rows instead;
            # a 4-node shape runs the one route that fills its table.
            want = "triangle" if sig.is_wildcard and name == "wedge" else name
            assert calls == [FOUR_NODE_ROUTES.get(want, want)], sig


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


def per_signature_ranking(g, sigs):
    """Reference: one motif matrix, component labelling and eigensolve per signature."""
    ranked, skipped = [], []
    for sig in sigs:
        mm = build_motif_matrix(g, sig)
        if not len(mm.motif_graph.pairs):
            skipped.append(sig)
            continue
        # The largest component from the public labels; argmax keeps the
        # first of equal sizes, the one holding the smallest node.
        labels = connected_components(mm.induced_graph())[0]
        largest = np.flatnonzero(labels == np.argmax(np.bincount(labels)))
        lap = build_normalized_laplacian(mm.induced_graph(), largest)
        lam2 = smallest_eigenpairs(lap, 2)[1].value
        ranked.append((sig, lam2, spectral._beta_factor(lam2, sig.skeleton.edge_count)))
    ranked.sort(key=lambda r: (r[2], r[0].skeleton.name, r[0].node_types or ()))
    return ranked, skipped


def test_grouped_ranking_equals_the_per_signature_loop():
    k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    diamond = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
    # Triangle motif graphs with two largest components of 4 nodes each.
    tied = [make_graph(8, first + [(u + 4, v + 4) for u, v in second])
            for first, second in ((k4, diamond), (diamond, k4))]
    cases = [(g, "multiset") for g in tied] + [
        (random_graph(seed, 14 + seed % 5, 0.3, n_type_count=1 + seed % 3, e_type_count=2), mode)
        for seed in range(6) for mode in ("multiset", "set", "strict")]
    for g, mode in cases:
        low, high = g.node_type_names[0], g.node_type_names[-1]
        sigs = list(census(g, typing_mode=mode))
        sigs += [TypedGraphletSignature(skel, typing_mode=mode) for skel in SKELETONS.values()]
        sigs += [parse_signature_spec(g, spec, mode) for spec in (
            f"triangle:{low},{low},{high}", f"4-path:{low},{high},{high},{low}", f"wedge:{high},{low},{high}")]
        sigs += [sigs[0], TypedGraphletSignature(SKELETONS["diamond"], (0,) * 4, (9,) * 5, mode)]
        res = rank_typed_graphlets(g, sigs)
        ranked, skipped = per_signature_ranking(copy_graph(g), sigs)
        assert [(r.signature, r.lambda2, r.beta) for r in res.ranked] == ranked
        assert res.skipped == skipped and sigs[-1] in skipped
    # The component holding node 0 wins the tie, so the two graphs differ.
    lam = [next(r.lambda2 for r in rank_typed_graphlets(g, [TRI_SIG]).ranked) for g in tied]
    assert lam[0] != lam[1]


def test_cluster_reads_component_zero_and_the_ranking_the_largest_component():
    # Edge (0, 1) plus a K4 on nodes 2..5: component 0 is the edge, the
    # largest component the K4. The two lambda2 rules stay apart.
    g = make_graph(6, [(0, 1)] + [(u, v) for u in range(2, 6) for v in range(u + 1, 6)])
    res = cluster(g, EDGE_SIG)
    assert res.lambda2 == pytest.approx(2.0, abs=1e-12)
    assert res.beta == pytest.approx(2.0, abs=1e-12)
    assert res.nodes == [0, 1]
    ranked = rank_typed_graphlets(g, [EDGE_SIG]).ranked
    assert [r.lambda2 for r in ranked] == [pytest.approx(4 / 3, abs=1e-12)]


def unit_graph(n, edges):
    return WeightedGraph(n, {e: 1 for e in edges})


def test_covered_components_of_a_batch():
    assert spectral._covered_components([]) == []
    # Two equally large components; nodes 1, 3 and 8 lie in no pair.
    tied = unit_graph(9, [(5, 6), (6, 7), (0, 2), (2, 4)])
    empty = unit_graph(12, [])
    pair = unit_graph(3, [(1, 2)])
    comps = spectral._covered_components([pair, empty, tied, empty])
    assert comps == [[[1, 2]], [], [[0, 2, 4], [5, 6, 7]], []]
    assert comps == [spectral._covered_components([gH])[0] for gH in (pair, empty, tied, empty)]


def _users(tree, module, name):
    """The innermost function holding each use of ``name``.

    A call or any other reference by name or attribute counts, and so does
    an import that renames it.
    """
    users = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = f"{module}.{node.name}"
        found = (node.asname and node.name if isinstance(node, ast.alias)
                 else getattr(node, "attr", getattr(node, "id", None)))
        if isinstance(node, (ast.alias, ast.Name, ast.Attribute)) and found == name:
            users.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, module)
    return users


def test_only_the_component_routine_calls_connected_components():
    # One labelling route: graph.connected_components wraps scipy's, and
    # spectral._covered_components is its one user in the package.
    package = Path(spectral.__file__).parent
    callers = sorted(caller for path in sorted(package.glob("*.py"))
                     for caller in _users(ast.parse(path.read_text(encoding="utf-8")),
                                         path.stem, "connected_components"))
    assert callers == ["graph.connected_components", "spectral._covered_components"]
    for source in ("def f(g):\n    return connected_components(g)[0]",
                   "def f(g):\n    return graph.connected_components(g)",
                   "def f(g):\n    run = connected_components\n    return run(g)",
                   "labels = connected_components(g)",
                   "from .graph import connected_components as labelled"):
        assert _users(ast.parse(source), "m", "connected_components"), source
    for source in ("from .graph import connected_components",
                   "name = 'connected_components'", "def f(g):\n    return labels(g)"):
        assert not _users(ast.parse(source), "m", "connected_components"), source


def test_the_spectral_layer_builds_laplacians_only_in_one_pass():
    # spectral._laplacians is the layer's one Laplacian route: no
    # per-component reference build, and no sparse matrix made dense.
    tree = ast.parse(Path(spectral.__file__).read_text(encoding="utf-8"))
    assert _users(tree, "spectral", "build_normalized_laplacian") == []
    assert _users(tree, "spectral", "toarray") == []
    assert sorted(_users(tree, "spectral", "_laplacians")) == [
        "spectral._cluster", "spectral.rank_typed_graphlets",
        "spectral.spectral_embedding", "spectral.spectral_ordering"]
    for source, name in (("def f(l):\n    return l.matrix.toarray()", "toarray"),
                         ("from .motifmatrix import build_normalized_laplacian as build",
                          "build_normalized_laplacian"),
                         ("def f(g):\n    return motifmatrix.build_normalized_laplacian(g)",
                          "build_normalized_laplacian")):
        assert _users(ast.parse(source), "m", name), source


def test_beta_monotone_in_edge_count():
    from typedgraphlets.spectral import _beta_factor
    lam = 0.7
    betas = [_beta_factor(lam, m) for m in (1, 2, 3, 4, 5, 6)]
    assert betas == sorted(betas)
    assert all(b > 0 for b in betas)


def _measure_rule_uses(tree, module):
    """(kind, function) for each ``raise`` of ZeroVolumeError and each
    parameter default that reads DENSE_SOLVER_THRESHOLD.

    The function is the innermost one holding the raise, or the one whose
    signature holds the default; a lambda is ``<owner>.<lambda>``.
    """
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            owner = f"{owner}.<lambda>" if isinstance(node, ast.Lambda) else f"{module}.{node.name}"
            defaults = node.args.defaults + [d for d in node.args.kw_defaults if d is not None]
            if any(_users(d, owner, "DENSE_SOLVER_THRESHOLD") for d in defaults):
                found.append(("default", owner))
        if isinstance(node, ast.Raise) and node.exc and _users(node.exc, owner, "ZeroVolumeError"):
            found.append(("raise", owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, module)
    return found


def test_one_conductance_ratio_and_one_dense_threshold_in_the_package():
    # graph._conductance is the one exact smaller-side ratio; only the
    # sweep's vector profile and the oracles, the independent reference,
    # keep ratios of their own. The dense threshold is read when the solver
    # runs, so a test that patches the constant reaches every reader.
    package = Path(spectral.__file__).parent
    found = [use for path in sorted(package.glob("*.py"))
             for use in _measure_rule_uses(ast.parse(path.read_text(encoding="utf-8")), path.stem)]
    assert sorted(owner for kind, owner in found if kind == "raise"
                  and not owner.startswith("oracles.")) == ["graph._conductance", "spectral.sweep_cut"]
    assert [owner for kind, owner in found if kind == "default"] == []
    for source, want in (
            ("def f(s):\n    raise ZeroVolumeError('x')", [("raise", "m.f")]),
            ("def f(s):\n    raise errors.ZeroVolumeError('x') from None", [("raise", "m.f")]),
            ("def f(s):\n    def g():\n        raise ZeroVolumeError\n    g()", [("raise", "m.g")]),
            ("def f(lap, k, t=DENSE_SOLVER_THRESHOLD):\n    pass", [("default", "m.f")]),
            ("def f(lap, *, t=spectral.DENSE_SOLVER_THRESHOLD):\n    pass", [("default", "m.f")]),
            ("f = lambda t=DENSE_SOLVER_THRESHOLD: t", [("default", "m.<lambda>")]),
            ("def f(s):\n    try:\n        g()\n    except ZeroVolumeError:\n        raise", []),
            ("def f(lap, k):\n    return lap.dim < DENSE_SOLVER_THRESHOLD", []),
            ("from .errors import ZeroVolumeError", [])):
        assert _measure_rule_uses(ast.parse(source), "m") == want, source
