"""Acceptance suite: one pass/fail line per criterion.

Run ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
Each test pins the stated sample sizes, thresholds, and tolerances; nothing
is deferred to later calibration.
"""

import math
import random
import time

import numpy as np
import pytest

from typedgraphlets import (
    SKELETONS,
    TypedGraphletSignature,
    brute_force_all_instances,
    brute_force_min_conductance,
    brute_force_min_weighted_conductance,
    build_motif_matrix,
    build_normalized_laplacian,
    census,
    cluster,
    compressed_size_estimate,
    enumerate_all_instances,
    external_conductance,
    link_prediction_eval,
    normalized_laplacian,
    permute_graph,
    planted_partition,
    smallest_eigenpairs,
    spectral,
    spectral_ordering,
    split_edges,
    typed_cut,
    typed_volume,
    weighted_cut,
    weighted_volume,
)
from typedgraphlets.cli import main as cli_main

from conftest import (
    connected_random_graph,
    graph_to_edge_list_text,
    make_graph,
    random_graph,
    reference_edge_sweep,
    top_signature,
    two_relation_planted_partition,
)

EDGE_SIG = TypedGraphletSignature(SKELETONS["edge"])


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} {status} {name} {detail}".rstrip())
    assert ok, f"criterion {num}: {name} {detail}"


def pick_signature(g, seed):
    """Deterministic present signature: prefer triangles, else wedges."""
    sig = top_signature(g, "triangle")
    if sig is None:
        sig = top_signature(g, "wedge")
    return sig


@pytest.fixture(scope="module")
def small_instances():
    """50 seeded (graph, signature, exact minimum conductance) triples, n <= 12."""
    out = []
    seed = 0
    while len(out) < 50:
        seed += 1
        rng = random.Random(seed)
        n = rng.randrange(6, 13)
        p = 0.25 + 0.3 * rng.random()
        g = random_graph(seed, n, p, n_type_count=2)
        sig = pick_signature(g, seed)
        if sig is None:
            continue
        _, phi_opt = brute_force_min_conductance(g, sig)
        out.append((g, sig, phi_opt))
    return out


# -------------------------------------------------------------------------
def test_criterion_1_oracle_equivalence():
    start = time.time()
    mismatches = 0
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randrange(4, 21)
        p = 0.1 + 0.4 * rng.random()
        g = random_graph(seed, n, p, n_type_count=1 + seed % 4)
        fast = enumerate_all_instances(g)
        slow = brute_force_all_instances(g)
        for name in SKELETONS:
            if set(fast[name]) != set(slow[name]):
                mismatches += 1
    elapsed = time.time() - start
    report(
        1,
        "oracle equivalence on 200 random graphs, all 8 skeletons",
        mismatches == 0 and elapsed < 60,
        f"(mismatches={mismatches}, {elapsed:.1f}s)",
    )


def test_criterion_2_volume_identity_and_cut_sandwich():
    violations = 0
    done = 0
    seed = 0
    while done < 200:
        seed += 1
        rng = random.Random(10_000 + seed)
        n = rng.randrange(6, 17)
        g = random_graph(seed, n, 0.15 + 0.35 * rng.random(), n_type_count=1 + seed % 3)
        table = census(g)
        if not table:
            continue
        sig = list(table)[rng.randrange(len(table))]
        cut_nodes = {v for v in range(n) if rng.random() < 0.5}
        if not cut_nodes or len(cut_nodes) == n:
            continue
        mm = build_motif_matrix(g, sig)
        gH = mm.induced_graph()
        # exact volume identity, integer arithmetic
        if typed_volume(mm, cut_nodes) != weighted_volume(gH, cut_nodes):
            violations += 1
        tcut = typed_cut(g, sig, cut_nodes)
        wcut = weighted_cut(gH, cut_nodes)
        m = sig.skeleton.edge_count
        if not (tcut <= wcut <= m * tcut):
            violations += 1
        done += 1
    report(
        2,
        "volume identity and cut-count sandwich on 200 random cuts",
        violations == 0,
        f"(violations={violations})",
    )


def test_criterion_3_conductance_sandwich(small_instances):
    violations = 0
    for g, sig, phi_typed in small_instances:
        gH = build_motif_matrix(g, sig).induced_graph()
        _, phi_weighted = brute_force_min_weighted_conductance(gH)
        m = sig.skeleton.edge_count
        if not (phi_weighted <= m * phi_typed and phi_typed <= phi_weighted):
            violations += 1
    report(
        3,
        "weighted/typed minimum conductance sandwich on 50 graphs",
        violations == 0,
        f"(violations={violations})",
    )


def test_criterion_4_eigenvalue_bounds(small_instances):
    tol = 1e-9
    violations = 0
    for g, sig, phi_typed in small_instances:
        lap = normalized_laplacian(build_motif_matrix(g, sig))
        lam2 = float(np.linalg.eigvalsh(lap.matrix.toarray())[1])
        m = sig.skeleton.edge_count
        phi = float(phi_typed)
        if not (lam2 / (2 * m) <= phi + tol and phi <= math.sqrt(2 * max(lam2, 0.0)) + tol):
            violations += 1
    report(
        4,
        "second-eigenvalue bounds on minimum conductance (tol 1e-9)",
        violations == 0,
        f"(violations={violations})",
    )


def test_criterion_5_approximation_bounds(small_instances):
    violations = 0
    checked = 0
    for g, sig, phi_typed in small_instances:
        res = cluster(g, sig)
        if res.alpha < phi_typed:
            violations += 1
        if phi_typed > 0:
            checked += 1
            phi = float(phi_typed)
            alpha = float(res.alpha)
            if alpha > math.sqrt(4 * sig.skeleton.edge_count * phi) + 1e-12:
                violations += 1
            if alpha > res.beta * phi + 1e-12:
                violations += 1
    report(
        5,
        "sweep-cluster approximation bounds",
        violations == 0 and checked > 0,
        f"(violations={violations}, nonzero-optimum cases={checked})",
    )


def test_criterion_6_classical_reduction():
    failures = 0
    for seed in range(20):
        g = connected_random_graph(30_000 + seed, 12, 0.3)
        mm = build_motif_matrix(g, EDGE_SIG)
        if mm.weights != {e: 1 for e in g.edges}:
            failures += 1
            continue
        res = cluster(g, EDGE_SIG)
        ref_nodes, ref_phi = reference_edge_sweep(g)
        if res.nodes != ref_nodes or abs(res.phi_weighted - ref_phi) > 1e-12:
            failures += 1
    report(
        6,
        "single-type edge motif reduces to classical spectral sweep (20 graphs)",
        failures == 0,
        f"(failures={failures})",
    )


def _ring_with_chords(n, extra, seed):
    rng = random.Random(seed)
    edges = {(i, (i + 1) % n if i + 1 < n else 0) for i in range(n)}
    edges = {tuple(sorted(e)) for e in edges}
    while len(edges) < n + extra:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add(tuple(sorted((u, v))))
    return make_graph(n, sorted(edges))


def test_criterion_7_eigensolver_paths(monkeypatch):
    ok = True
    details = []
    # closed forms
    k3 = normalized_laplacian(
        build_motif_matrix(make_graph(3, [(0, 1), (0, 2), (1, 2)]), EDGE_SIG)
    )
    vals = [p.value for p in smallest_eigenpairs(k3, 3)]
    ok &= abs(vals[0]) < 1e-12 and abs(vals[1] - 1.5) < 1e-12 and abs(vals[2] - 1.5) < 1e-12
    p3 = normalized_laplacian(
        build_motif_matrix(make_graph(3, [(0, 1), (1, 2)]), EDGE_SIG)
    )
    vals = [p.value for p in smallest_eigenpairs(p3, 3)]
    ok &= max(abs(a - b) for a, b in zip(vals, (0.0, 1.0, 2.0))) < 1e-12

    # dense vs Krylov agreement on motif Laplacians up to n = 2000
    for n, motif, pgraph in ((700, "wedge", 0.012), (2000, "edge", None)):
        if pgraph is None:
            g = _ring_with_chords(n, 800, seed=n)
            sig = EDGE_SIG
        else:
            g = random_graph(55, n, pgraph)
            sig = TypedGraphletSignature(SKELETONS[motif])
        lap = normalized_laplacian(build_motif_matrix(g, sig))
        monkeypatch.setattr(spectral, "DENSE_SOLVER_THRESHOLD", 10**9)
        dense = smallest_eigenpairs(lap, 2)
        monkeypatch.setattr(spectral, "DENSE_SOLVER_THRESHOLD", 1)
        krylov = smallest_eigenpairs(lap, 2)
        gap = abs(dense[1].value - krylov[1].value)
        res = max(
            float(np.linalg.norm(lap.matrix @ p.vector - p.value * p.vector))
            for p in krylov + dense
        )
        details.append(f"n={lap.dim} gap={gap:.2e} res={res:.2e}")
        ok &= gap <= 1e-6 and res <= 1e-8
    report(7, "dense and Krylov eigensolver paths agree", ok, f"({'; '.join(details)})")


def test_criterion_8_census_signature_count():
    # one disjoint triangle per size-3 multiset over 6 types
    from itertools import combinations_with_replacement

    edges = []
    types = []
    for combo in combinations_with_replacement(range(6), 3):
        base = len(types)
        types.extend(combo)
        edges += [(base, base + 1), (base, base + 2), (base + 1, base + 2)]
    g = make_graph(len(types), edges, node_types=types,
                   node_type_names=tuple(f"T{i}" for i in range(6)))
    table = census(g, skels=["triangle"])
    count = len(table)
    report(
        8,
        "distinct typed-triangle signatures on the all-combinations 6-type graph",
        count == 56 and sum(table.values()) == 56,
        f"(signatures={count}, expected C(8,3)=56)",
    )


def test_criterion_9_clustering_direction():
    wins = 0
    inside_block = 0
    whole_block = 0
    trials = 100
    for seed in range(trials):
        g, blocks = planted_partition([30, 30], 0.3, 0.02, type_count=2, seed=seed)
        base = cluster(g, EDGE_SIG)
        edge_score = external_conductance(g, base.nodes)
        best = None
        best_nodes = None
        for sig in census(g, skels=["triangle"]):
            nodes = cluster(g, sig).nodes
            score = external_conductance(g, nodes)
            if best is None or score < best:
                best, best_nodes = score, nodes
        if best is not None and best <= edge_score:
            wins += 1
        if best_nodes:
            label = blocks[best_nodes[0]]
            if np.all(blocks[best_nodes] == label):
                inside_block += 1
                whole_block += len(best_nodes) == np.count_nonzero(blocks == label)
    report(
        9,
        "typed-triangle cluster quality direction on planted partitions",
        wins >= 90,
        f"(wins={wins}/100, threshold 90; best typed cluster inside one block "
        f"{inside_block}/100, a whole block {whole_block}/100)",
    )


def test_criterion_10_link_prediction_direction():
    # Relation 0 is the planted partition; relation 1 is block-free noise.
    # Both sides predict relation 0. The edge baseline embeds both relations,
    # the typed side a wedge over relation 0 only, so the check measures
    # whether typing edges separates signal from noise.
    wins = 0
    gaps = []
    trials = 100
    deterministic = True
    for seed in range(trials):
        g, _ = two_relation_planted_partition([30, 30], 0.3, 0.02, type_count=2, seed=seed)
        base = link_prediction_eval(g, EDGE_SIG, dim=4, fraction=0.5, seed=seed, edge_type=0)
        edge_auc = base.per_operator[base.best_operator].auc
        train = split_edges(g, 0.5, seed, edge_type=0).train
        sig = top_signature(train, "wedge", edge_type=0)
        if sig is None:
            continue
        typed = link_prediction_eval(g, sig, dim=4, fraction=0.5, seed=seed, edge_type=0)
        typed_auc = typed.per_operator[typed.best_operator].auc
        gaps.append(typed_auc - edge_auc)
        if typed_auc >= edge_auc:
            wins += 1
        if seed == 0:
            rerun = link_prediction_eval(g, sig, dim=4, fraction=0.5, seed=seed, edge_type=0)
            deterministic = rerun.per_operator == typed.per_operator
    mean_gap = sum(gaps) / len(gaps) if gaps else float("nan")
    report(
        10,
        "typed-graphlet embedding AUC direction on planted partitions "
        "with a block-free second relation",
        wins >= 80 and deterministic,
        f"(wins={wins}/100, threshold 80; mean AUC gap typed - edge {mean_gap:+.3f}; "
        f"deterministic per seed: {deterministic})",
    )


def test_criterion_11_compression_direction():
    beat_random = 0
    beat_native = 0
    identity_ok = True
    trials = 100
    for seed in range(trials):
        g, _ = planted_partition([95, 100, 105], 0.12, 0.004, type_count=3,
                                 seed=seed, shuffle=True)
        sig = top_signature(g, "wedge")
        order = spectral_ordering(g, sig).order
        tgs = compressed_size_estimate(g, order)
        native = compressed_size_estimate(g, list(range(g.node_count)))
        rng = random.Random(seed)
        perm = list(range(g.node_count))
        rng.shuffle(perm)
        rand = compressed_size_estimate(g, perm)
        beat_random += tgs < rand
        beat_native += tgs < native
        if seed < 5:
            pre = compressed_size_estimate(permute_graph(g, order),
                                           list(range(g.node_count)))
            identity_ok &= pre == tgs
    report(
        11,
        "ordering-sensitive byte estimate direction",
        beat_random >= 95 and beat_native >= 80 and identity_ok,
        f"(beat random {beat_random}/100 need 95; beat native {beat_native}/100 "
        f"need 80; permutation identity {'exact' if identity_ok else 'BROKEN'})",
    )


def test_criterion_12_cli_determinism(tmp_path):
    g, _ = planted_partition([12, 12], 0.4, 0.05, type_count=2, seed=3)
    path = tmp_path / "g.txt"
    path.write_text(graph_to_edge_list_text(g))
    artifacts = {}
    for run in ("a", "b"):
        out = tmp_path / run
        code = cli_main([
            "cluster", "--input", str(path), "--motif", "triangle",
            "--dump-matrix", "--output-dir", str(out),
        ])
        assert code == 0
        code = cli_main([
            "census", "--input", str(path), "--records", "--output-dir", str(out),
        ])
        assert code == 0
        artifacts[run] = {
            f.name: f.read_bytes() for f in sorted(out.iterdir())
        }
    identical = artifacts["a"] == artifacts["b"]
    report(
        12,
        "repeated CLI runs are byte-identical",
        identical and len(artifacts["a"]) >= 5,
        f"(files compared: {len(artifacts['a'])})",
    )
