"""Every command on W from the subset-scan oracle, against the fast routes.

``motifmatrix._motif_matrices`` is the one place that picks a W route for
single queries, partition parts and ranking batches. Each command here runs
twice, once as the code is and once with that seam replaced by an oracle
built from the subset scan's matching occurrences, and every artifact,
stdout, stderr and the exit code must be the same bytes. A wrong route
choice, such as a part mask that keeps a row it should drop, shows only
end to end.
"""

import ast
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from typedgraphlets import (
    SKELETON_ORDER,
    SKELETONS,
    MotifMatrix,
    TypedGraphletSignature,
    WeightedGraph,
    ZeroVolumeError,
    brute_force_all_instances,
    census,
    cluster,
    edge_expansion_measure,
    load_typed_edge_list,
    motifmatrix,
    oracles,
    rank_typed_graphlets,
    recursive_bipartition,
    signature_of,
    spectral,
    spectral_embedding,
    spectral_ordering,
    typed_conductance,
    typed_cut,
)

from conftest import cli_outcomes, graph_to_edge_list_text, random_graph

# The modules that bind ``_motif_matrices``; each gets the oracle.
SEAM_BINDERS = (motifmatrix, spectral)
FAST_SEAM = motifmatrix._motif_matrices

# (seed, nodes, edge probability, node types, edge types)
GRAPHS = [(1, 12, 0.35, 1, 1), (2, 24, 0.2, 2, 1), (3, 32, 0.15, 3, 2), (4, 40, 0.12, 2, 2)]


class SubsetScanMatrices:
    """``_motif_matrices`` rebuilt from the subset scan, one scan per graph.

    The occurrences of a signature are the scan's node sets whose
    ``signature_of`` matches it, as ``oracles._brute_force_matches`` gives
    them; each graph's scan and each occurrence's typing are made once and
    reused. An occurrence counts when all its nodes lie inside the mask. W
    counts the induced edges of those occurrences, with its pairs in
    ascending key order, and the cut counts them one node set at a time.
    """

    def __init__(self):
        self.scans = {}
        self.typed = {}

    def matches(self, g, sig):
        key = (g.edge_array.tobytes(), g.node_types, g.edge_types)
        if key not in self.scans:
            self.scans[key] = brute_force_all_instances(g)
        skel = sig.skeleton
        typed_key = key + (skel.name, sig.typing_mode)
        if typed_key not in self.typed:
            self.typed[typed_key] = [(nodes, signature_of(g, nodes, skel, sig.typing_mode))
                                     for nodes in self.scans[key][skel.name]]
        return [nodes for nodes, concrete in self.typed[typed_key] if sig.matches(concrete)]

    def __call__(self, g, sigs, inside):
        return [self.matrix(g, sig, inside) for sig in sigs]

    def matrix(self, g, sig, inside):
        occurrences = [nodes for nodes in self.matches(g, sig) if all(inside[v] for v in nodes)]
        weights = Counter(e for nodes in occurrences for e in oracles._induced_edges(g, nodes))
        pairs = sorted(weights)
        motif_graph = WeightedGraph.from_pairs(
            g.node_count, np.array(pairs, dtype=np.int64).reshape(-1, 2),
            np.array([weights[e] for e in pairs], dtype=np.int64))
        rows = np.array(occurrences, dtype=np.int64).reshape(-1, sig.skeleton.node_count)

        def cut(side):
            return sum(0 < sum(bool(side[v]) for v in nodes) < len(nodes) for nodes in occurrences)

        return MotifMatrix(g, sig, motif_graph, lambda: rows, cut)


def parsed(seed, n, p, node_types, edge_types):
    """The edge-list text of one seeded graph, and the graph the command line reads from it."""
    text = graph_to_edge_list_text(random_graph(seed, n, p, node_types, edge_types))
    return text, load_typed_edge_list(text)


def routes(oracle):
    """The seam as the code has it, then the oracle, in every module that binds it."""
    return [[(module, "_motif_matrices", seam) for module in SEAM_BINDERS]
            for seam in (FAST_SEAM, oracle)]


def typed_specs(g, mode):
    """For each 3- and 4-node skeleton, the node types of its most common
    ``mode`` census signature, as ``--motif`` text."""
    best = {}
    for sig, count in census(g, typing_mode=mode).items():
        if count > best.get(sig.skeleton.name, (None, 0))[1]:
            best[sig.skeleton.name] = (sig, count)
    return [f"{name}:" + ",".join(g.node_type_names[t] for t in sig.node_types)
            for name, (sig, _) in best.items()]


def outcome(run):
    """A library call's value, or the type and text of what it raised."""
    try:
        value = run()
    except ValueError as exc:
        return type(exc), str(exc)
    return value.tobytes() if isinstance(value, np.ndarray) else value


@pytest.fixture(scope="module")
def oracle():
    return SubsetScanMatrices()


@pytest.mark.parametrize("seed, n, p, node_types, edge_types", GRAPHS)
def test_every_command_on_the_oracle_w_is_byte_identical(tmp_path, capsys, monkeypatch, oracle,
                                                         seed, n, p, node_types, edge_types):
    text, g = parsed(seed, n, p, node_types, edge_types)
    path = tmp_path / "g.txt"
    path.write_text(text)
    triangle = TypedGraphletSignature(SKELETONS["triangle"])
    assert oracle.matches(g, triangle) == oracles._brute_force_matches(g, triangle)
    runs = [["rank-motifs"], ["rank-motifs", "--strict-types"]]
    for flags in ([], ["--strict-types"]):
        specs = list(SKELETON_ORDER) if not flags else []
        specs += typed_specs(g, "strict" if flags else "multiset")
        for spec in specs:
            motif = ["--motif", spec, *flags]
            runs += [["cluster", *motif, "--dump-matrix"], ["partition", *motif, "--parts", "4"],
                     ["order", *motif], ["embed", *motif, "--dim", "3"]]
        runs += [["partition", "--motif", "best", *flags, "--parts", "3"]]
    for spec in ("best", "triangle", "wedge"):
        runs += [["compress-eval", "--motif", spec]]
    runs += [["linkpred", "--motif", "wedge", "--dim", "2", "--trials", "2"],
             ["linkpred", "--motif", "best", "--dim", "2", "--operator", "hadamard"]]
    codes = Counter()
    for argv in runs:
        seen = cli_outcomes(tmp_path, capsys, monkeypatch, argv + ["--input", str(path)],
                            routes(oracle))
        assert seen[0] == seen[1], (seed, argv)
        codes[seen[0][0]] += 1
    assert codes[0] > len(runs) // 2, codes


@pytest.mark.parametrize("seed, n, p, node_types, edge_types", GRAPHS)
def test_set_mode_signatures_on_the_oracle_w(monkeypatch, oracle, seed, n, p, node_types,
                                             edge_types):
    # The command line has no set mode, so its census signatures go through
    # the library: every query and one ranking batch of them all.
    _, g = parsed(seed, n, p, node_types, edge_types)
    sigs = list(census(g, typing_mode="set"))
    queries = [lambda: rank_typed_graphlets(g, sigs)]
    for sig in sigs[::max(1, len(sigs) // 6)]:
        queries += [lambda sig=sig: cluster(g, sig),
                    lambda sig=sig: recursive_bipartition(g, sig, 3),
                    lambda sig=sig: spectral_ordering(g, sig),
                    lambda sig=sig: spectral_embedding(g, sig, 3)]
    seen = []
    for route in routes(oracle):
        for module, name, value in route:
            monkeypatch.setattr(module, name, value)
        seen.append([outcome(query) for query in queries])
    assert seen[0] == seen[1]


@pytest.mark.parametrize("seed, n, p, node_types, edge_types", GRAPHS)
def test_cut_measures_equal_counts_from_the_subset_scan(oracle, seed, n, p, node_types,
                                                       edge_types):
    _, g = parsed(seed, n, p, node_types, edge_types)
    rng = random.Random(seed)
    sigs = [TypedGraphletSignature(skel) for skel in SKELETONS.values()]
    for mode in ("multiset", "set", "strict"):
        typed = list(census(g, typing_mode=mode))
        sigs += rng.sample(typed, min(4, len(typed)))
    for sig in sigs:
        occurrences = oracle.matches(g, sig)
        weights = Counter(e for nodes in occurrences for e in oracles._induced_edges(g, nodes))
        for _ in range(3):
            side = set(rng.sample(range(n), rng.randrange(1, n)))
            cut = sum(0 < len(side.intersection(nodes)) < len(nodes) for nodes in occurrences)
            vol_s = sum(w * ((u in side) + (v in side)) for (u, v), w in weights.items())
            size_s = sum(len(side.intersection(nodes)) for nodes in occurrences)
            assert typed_cut(g, sig, side) == cut
            for measure, part, whole in ((typed_conductance, vol_s, 2 * sum(weights.values())),
                                         (edge_expansion_measure, size_s,
                                          sig.skeleton.node_count * len(occurrences))):
                denom = min(part, whole - part)
                if denom:
                    assert measure(g, sig, side) == Fraction(cut, denom)
                else:
                    with pytest.raises(ZeroVolumeError):
                        measure(g, sig, side)


def test_the_oracle_patch_reaches_every_module_that_binds_the_seam():
    # A module that imports ``_motif_matrices`` by name keeps its own
    # binding, which a patch of motifmatrix alone would miss. Every package
    # module that defines, imports or reads the name is listed here and
    # patched, and none imports it under another name.
    package = Path(motifmatrix.__file__).parent
    binders = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            named = (node.name if isinstance(node, (ast.FunctionDef, ast.alias))
                     else getattr(node, "attr", getattr(node, "id", None)))
            if named == "_motif_matrices":
                assert getattr(node, "asname", None) in (None, named), path.name
                binders.append(path.stem)
    assert sorted(set(binders)) == [module.__name__.rpartition(".")[2] for module in SEAM_BINDERS]

