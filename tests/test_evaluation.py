import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from typedgraphlets import (
    DegenerateCutError,
    EDGE_OPERATORS,
    SKELETONS,
    TypedGraphletSignature,
    ZeroVolumeError,
    compressed_size_estimate,
    compute_metrics,
    edge_embed,
    external_conductance,
    link_prediction_eval,
    permute_graph,
    planted_partition,
    predict_scores,
    split_edges,
    train_linear_classifier,
)
from typedgraphlets import HeteroGraph, evaluation, oracles
from typedgraphlets.evaluation import (
    _average_ranks,
    _loss_into,
    _sample_nonedges,
    _sigmoid,
    _type_patterns,
)

from conftest import barbell, make_graph, random_graph


# ---------------------------------------------------------------- external conductance

def test_external_conductance_barbell():
    assert external_conductance(barbell(), {0, 1, 2}) == Fraction(1, 7)


def test_external_conductance_disconnected_union():
    g = make_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5)])
    assert external_conductance(g, {0, 1, 2}) == 0


def test_external_conductance_errors():
    g = make_graph(3, [(0, 1)])
    with pytest.raises(DegenerateCutError):
        external_conductance(g, set())
    with pytest.raises(ZeroVolumeError):
        external_conductance(g, {2})


# ---------------------------------------------------------------- edge split

def ten_edge_graph():
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 5), (3, 6), (4, 7), (5, 8), (6, 9)]
    return make_graph(10, edges)


def test_split_deterministic():
    g = ten_edge_graph()
    a = split_edges(g, 0.5, seed=3)
    b = split_edges(g, 0.5, seed=3)
    assert a.positives == b.positives
    assert a.negatives == b.negatives
    assert a.train.edges == b.train.edges


def test_split_sizes_and_invariants():
    g = ten_edge_graph()
    ds = split_edges(g, 0.5, seed=1)
    assert len(ds.positives) == 5
    assert len(ds.negatives) == 5
    train_edges = set(ds.train.edges)
    assert not train_edges & set(ds.positives)
    full_edges = set(g.edges)
    assert all(e not in full_edges for e in ds.negatives)
    assert len(set(ds.negatives)) == len(ds.negatives)


def test_split_filtered_layer_only():
    # sparse bipartite U-M layer typed 'r' plus one U-U edge typed 's'
    edges = [(0, 3), (0, 4), (1, 3), (2, 5), (0, 1)]
    g = make_graph(
        6, edges,
        node_types=[0, 0, 0, 1, 1, 1], node_type_names=("U", "M"),
        edge_types=[0, 0, 0, 0, 1], edge_type_names=("r", "s"),
    )
    ds = split_edges(g, 0.5, seed=0, edge_type=0)
    assert len(ds.positives) == 2
    # the U-U edge survives and negatives follow the U-M pattern
    assert (0, 1) in ds.train.edges
    for u, v in ds.negatives:
        assert {g.node_types[u], g.node_types[v]} == {0, 1}


def test_split_bad_inputs():
    g = ten_edge_graph()
    with pytest.raises(ValueError):
        split_edges(g, 0.0, seed=0)
    with pytest.raises(ValueError):
        split_edges(g, 1.0, seed=0)
    typed = make_graph(3, [(0, 1)], edge_types=[0], edge_type_names=("r",))
    with pytest.raises(ValueError, match="matches no edges"):
        split_edges(typed, 0.5, seed=0, edge_type=5)
    with pytest.raises(ValueError, match="graph has no edges to hold out"):
        split_edges(make_graph(3, []), 0.5, seed=0)


def test_link_prediction_rejects_a_relation_with_every_edge_held_out():
    # ceil(0.5 * 1) = 1: the split holds out the only 'r' edge of a 4-cycle
    g = make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)],
                   edge_types=[0, 1, 1, 1], edge_type_names=("r", "s"))
    with pytest.raises(ValueError, match="^edge type 'r': the split left none of its "
                                         "edges for training$"):
        link_prediction_eval(g, TypedGraphletSignature(SKELETONS["edge"]), dim=2, edge_type=0)


def test_split_not_enough_negatives():
    g = make_graph(3, [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(ValueError, match="non-edges"):
        split_edges(g, 0.9, seed=0)


@pytest.mark.parametrize("type_count", [1, 2, 3, 4])
def test_type_patterns_match_a_loop_over_the_rows(type_count):
    for seed in range(4):
        g = random_graph(seed, 30, 0.2, n_type_count=type_count)
        for ends in (g.edge_array, g.edge_array[::3]):
            expected = {
                (min(g.node_types[u], g.node_types[v]), max(g.node_types[u], g.node_types[v]))
                for u, v in ends.tolist()
            }
            got = _type_patterns(g, ends)
            assert got == expected
            assert all(type(t) is int for pair in got for t in pair)
    assert _type_patterns(g, g.edge_array[:0]) == set()


# ---------------------------------------------------------------- edge operators

def test_edge_operator_examples():
    zi, zj = np.array([1.0, 2.0]), np.array([3.0, 4.0])
    assert list(edge_embed(zi, zj, "mean")) == [2.0, 3.0]
    assert list(edge_embed(zi, zj, "hadamard")) == [3.0, 8.0]
    assert list(edge_embed(zi, zj, "absdiff")) == [2.0, 2.0]
    assert list(edge_embed(zi, zj, "sqdiff")) == [4.0, 4.0]
    assert list(edge_embed(zi, zj, "max")) == [3.0, 4.0]
    assert list(edge_embed(zi, zj, "sum")) == [4.0, 6.0]


def test_edge_operators_symmetric():
    rng = np.random.default_rng(5)
    zi, zj = rng.standard_normal(8), rng.standard_normal(8)
    for op in EDGE_OPERATORS:
        assert np.array_equal(edge_embed(zi, zj, op), edge_embed(zj, zi, op))


def test_edge_operator_errors():
    with pytest.raises(ValueError):
        edge_embed(np.zeros(3), np.zeros(4), "mean")
    with pytest.raises(ValueError):
        edge_embed(np.zeros(3), np.zeros(3), "concat")


def test_edge_operators_are_their_formulas_bit_for_bit():
    formulas = {
        "mean": lambda a, b: (a + b) / 2.0,
        "hadamard": lambda a, b: a * b,
        "absdiff": lambda a, b: np.abs(a - b),
        "sqdiff": lambda a, b: (a - b) ** 2,
        "max": lambda a, b: np.maximum(a, b),
        "sum": lambda a, b: a + b,
    }
    assert EDGE_OPERATORS == tuple(formulas)
    rng = np.random.default_rng(2)
    zi, zj = rng.standard_normal((2, 6, 4))
    zi[0], zj[0] = -0.0, 0.0
    zi[1, 0], zj[1, 1] = 5e-324, -2.2250738585072009e-308
    zi[1, 2], zi[1, 3] = np.inf, np.nan
    for op, formula in formulas.items():
        assert edge_embed(zi, zj, op).tobytes() == formula(zi, zj).tobytes()
        row = edge_embed(zi[2].tolist(), zj[2].tolist(), op)
        assert row.tobytes() == formula(zi[2], zj[2]).tobytes()
    # The shape check comes first, then the operator name.
    with pytest.raises(ValueError, match="^embedding dimensions differ$"):
        edge_embed(np.zeros(3), np.zeros(4), "concat")
    with pytest.raises(ValueError, match="^unknown edge operator 'concat'$"):
        edge_embed(np.zeros(3), np.zeros(3), "concat")


# ---------------------------------------------------------------- classifier

def test_classifier_separable_1d():
    X = np.array([[-1.0]] * 20 + [[1.0]] * 20)
    y = np.array([0] * 20 + [1] * 20)
    w = train_linear_classifier(X, y, seed=0)
    assert w[0] > 0
    scores = predict_scores(X, w)
    assert np.all((scores >= 0.5) == (y == 1))


def test_classifier_zero_features_predict_half():
    X = np.zeros((30, 4))
    y = np.array([0, 1] * 15)
    w = train_linear_classifier(X, y, seed=1)
    assert np.linalg.norm(w) < 0.05
    assert predict_scores(X, w) == pytest.approx(np.full(30, 0.5), abs=0.02)


def test_classifier_single_class_rejected():
    with pytest.raises(ValueError, match="single class"):
        train_linear_classifier(np.ones((5, 2)), np.ones(5))


@pytest.mark.parametrize("labels", [[0, 1, 2, 1], [0, 1, 0.5, 1], [0, 1, -1, 1],
                                    [0, 1, np.nan, 1], [2, 2, 2, 2]])
def test_classifier_labels_other_than_0_and_1_rejected(labels):
    with pytest.raises(ValueError, match="training labels must be 0 or 1"):
        train_linear_classifier(np.ones((4, 2)), np.array(labels, dtype=float))


def _loss_and_probs(Xb, y, w, l2):
    """Penalised logistic loss at ``w`` for labels of 0 or 1, and the probabilities."""
    p = np.empty(len(y))
    return _loss_into(Xb, 1 - y, w, l2, p, np.empty(len(y))), p


def two_log_loss_and_probs(Xb, y, w, l2):
    """The penalised logistic loss as its textbook two-log formula."""
    p = 1.0 / (1.0 + np.exp(-np.clip(Xb @ w, -35.0, 35.0)))
    data = -np.mean(y * np.log(p + 1e-12) + (1 - y) * np.log(1 - p + 1e-12))
    return float(data + 0.5 * l2 * np.dot(w[:-1], w[:-1])), p


def test_one_log_loss_equals_the_two_log_formula_bit_for_bit():
    rng = np.random.default_rng(19)
    # Logits across and past the clip at +-35, where p is within a few
    # ulps of 0 and 1, plus ordinary ones.
    z = np.concatenate([np.linspace(-60.0, 60.0, 481), [-35.0, -34.9, 34.9, 35.0, 0.0],
                        20.0 * rng.standard_normal(300)])
    Xb = np.column_stack([z, np.ones_like(z)])
    for y in (rng.integers(0, 2, len(z)).astype(float), np.zeros(len(z)), np.ones(len(z))):
        for w, l2 in (([1.0, 0.0], 0.0), ([0.7, -3.0], 1e-4), ([3.0, 1.0], 0.5)):
            w = np.array(w)
            got, p = _loss_and_probs(Xb, y, w, l2)
            want, want_p = two_log_loss_and_probs(Xb, y, w, l2)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
            assert p.tobytes() == want_p.tobytes()
            # Row by row, so that no term can hide inside the sum.
            for i in range(0, len(z), 7):
                row = slice(i, i + 1)
                assert (_loss_and_probs(Xb[row], y[row], w, 0.0)[0]
                        == two_log_loss_and_probs(Xb[row], y[row], w, 0.0)[0])
    assert p.max() > 1 - 1e-15 and p.min() < 1e-15


def test_classifier_loss_monotone():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((60, 3))
    y = (X @ np.array([1.0, -2.0, 0.5]) + 0.3 * rng.standard_normal(60) > 0).astype(float)
    losses = []
    for iters in (0, 5, 20, 100, 400):
        w = train_linear_classifier(X, y, l2=1e-3, iters=iters, seed=3)
        losses.append(_loss_and_probs(np.hstack([X, np.ones((60, 1))]), y, w, 1e-3)[0])
    assert all(a >= b - 1e-15 for a, b in zip(losses, losses[1:]))


def test_classifier_gradient_small_and_matches_finite_differences():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((80, 3))
    y = (rng.random(80) < _sigmoid(X @ np.array([0.7, -1.1, 0.4]))).astype(float)
    l2 = 0.05
    w = train_linear_classifier(X, y, l2=l2, iters=4000, seed=2)
    Xb = np.hstack([X, np.ones((80, 1))])

    # analytic gradient of the trained objective
    p = _sigmoid(Xb @ w)
    grad = Xb.T @ (p - y) / len(y)
    grad[:-1] += l2 * w[:-1]

    # finite differences as the oracle
    h = 1e-6
    fd = np.zeros_like(w)
    for i in range(len(w)):
        e = np.zeros_like(w)
        e[i] = h
        fd[i] = (_loss_and_probs(Xb, y, w + e, l2)[0]
                 - _loss_and_probs(Xb, y, w - e, l2)[0]) / (2 * h)
    assert np.allclose(grad, fd, atol=1e-5)
    assert np.linalg.norm(grad) <= 1e-4


# ---------------------------------------------------------------- metrics

def test_metrics_perfect_separation():
    rep = compute_metrics([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
    assert rep.f1 == 1.0
    assert rep.auc == 1.0


def test_metrics_constant_scores_auc_half():
    rep = compute_metrics([0.4] * 6, [1, 0, 1, 0, 1, 0])
    assert rep.auc == pytest.approx(0.5)


def test_metrics_hand_counted_auc():
    rep = compute_metrics([0.9, 0.8, 0.3], [1, 0, 1])
    assert rep.auc == pytest.approx(0.5)


def test_metrics_f1_is_harmonic_mean():
    rep = compute_metrics([0.9, 0.9, 0.1, 0.9], [1, 1, 1, 0])
    assert rep.precision == pytest.approx(2 / 3)
    assert rep.recall == pytest.approx(2 / 3)
    h = 2 * rep.precision * rep.recall / (rep.precision + rep.recall)
    assert rep.f1 == pytest.approx(h)


def test_metrics_match_pair_counting_oracle():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randrange(5, 100)
        scores = [rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]) for _ in range(n)]
        labels = [rng.randrange(2) for _ in range(n)]
        if len(set(labels)) < 2:
            continue
        rep = compute_metrics(scores, labels)
        pos = [s for s, l in zip(scores, labels) if l == 1]
        neg = [s for s, l in zip(scores, labels) if l == 0]
        wins = sum(1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg)
        assert rep.auc == pytest.approx(wins / (len(pos) * len(neg)))


def test_metrics_single_class_auc_none():
    rep = compute_metrics([0.6, 0.7], [1, 1])
    assert rep.auc is None
    assert rep.recall == 1.0


# ---------------------------------------------------------------- compression codec

def test_codec_empty_graph_costs_length_markers_only():
    g = make_graph(5, [])
    assert compressed_size_estimate(g, list(range(5))) == 5


def test_codec_path_costs_one_byte_per_entry():
    g = make_graph(3, [(0, 1), (1, 2)])
    # 3 length markers + 4 adjacency entries, all single-byte varints
    assert compressed_size_estimate(g, [0, 1, 2]) == 7


def test_codec_permutation_identity():
    for seed in range(5):
        g = random_graph(seed + 400, 12, 0.3)
        rng = random.Random(seed)
        order = list(range(12))
        rng.shuffle(order)
        direct = compressed_size_estimate(g, order)
        pre = compressed_size_estimate(permute_graph(g, order), list(range(12)))
        assert direct == pre


def test_codec_rejects_bad_permutation():
    g = make_graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        compressed_size_estimate(g, [0, 1])
    with pytest.raises(ValueError):
        compressed_size_estimate(g, [0, 0, 2])


# ---------------------------------------------------------------- generators and pipeline

def test_planted_partition_deterministic_and_shaped():
    g1, b1 = planted_partition([8, 8], 0.4, 0.05, seed=5)
    g2, b2 = planted_partition([8, 8], 0.4, 0.05, seed=5)
    assert g1.edges == g2.edges
    assert list(b1) == list(b2)
    assert g1.node_count == 16
    g3, _ = planted_partition([8, 8], 0.4, 0.05, seed=6)
    assert g3.edges != g1.edges


def test_planted_partition_types_follow_blocks():
    g, blocks = planted_partition([5, 5, 5], 0.5, 0.05, seed=2,
                                  types_follow_blocks=True, shuffle=True)
    assert g.node_type_count == 3
    assert list(g.node_types) == [int(b) for b in blocks]
    assert sorted(g.node_names) != g.node_names  # ids scrambled


def test_link_prediction_pipeline_deterministic():
    g, _ = planted_partition([14, 14], 0.45, 0.05, seed=9)
    sig = TypedGraphletSignature(SKELETONS["wedge"])
    a = link_prediction_eval(g, sig, dim=4, seed=3, operators=("hadamard", "mean"))
    b = link_prediction_eval(g, sig, dim=4, seed=3, operators=("hadamard", "mean"))
    assert a.best_operator == b.best_operator
    for op in ("hadamard", "mean"):
        assert a.per_operator[op] == b.per_operator[op]
    assert a.n_test_examples == 2 * len(split_edges(g, 0.5, 3).positives)


# ---------------------------------------------------------------- loop oracles
#
# Each vectorised function against a plain loop written here, compared with
# ==: the numpy forms must give exactly the loop's values, not close ones.

def loop_nonedge_candidates(g, patterns, exclude):
    edge_set = set(g.edges)
    cands = []
    for u, v in combinations(range(g.node_count), 2):
        if (u, v) in edge_set or (u, v) in exclude:
            continue
        tu, tv = g.node_types[u], g.node_types[v]
        if ((tu, tv) if tu <= tv else (tv, tu)) in patterns:
            cands.append((u, v))
    return cands


def loop_enumerated_nonedges(g, patterns, count, rng, exclude):
    cands = loop_nonedge_candidates(g, patterns, exclude)
    if len(cands) < count:
        raise ValueError(
            f"not enough type-compatible non-edges: need {count}, found {len(cands)}"
        )
    return rng.sample(cands, count)


def loop_rejected_nonedges(g, patterns, count, rng, exclude):
    edge_set = set(g.edges)
    picked, seen = [], set()
    budget = 200 * count + 10_000
    while len(picked) < count and budget > 0:
        budget -= 1
        u, v = rng.randrange(g.node_count), rng.randrange(g.node_count)
        if u == v:
            continue
        pair = (min(u, v), max(u, v))
        if pair in edge_set or pair in exclude or pair in seen:
            continue
        tu, tv = g.node_types[pair[0]], g.node_types[pair[1]]
        if ((tu, tv) if tu <= tv else (tv, tu)) not in patterns:
            continue
        seen.add(pair)
        picked.append(pair)
    if len(picked) < count:
        raise ValueError("not enough type-compatible non-edges within sampling budget")
    return picked


NONEDGE_PATTERNS = (
    {(0, 0)},
    {(0, 1), (2, 2)},
    {(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)},
    {(1, 0), (0, 7)},  # unsorted and out-of-range patterns match nothing
)


def nonedge_excludes(g, seed):
    """Non-edges, edges, reversed pairs and out-of-range pairs to exclude."""
    rng = random.Random(seed)
    n = g.node_count
    pairs = rng.sample(list(combinations(range(n), 2)), 40)
    return set(pairs[:30]) | {(v, u) for u, v in pairs[30:]} | {
        g.edges[0], (-1, 2), (3, n), (n, n + 1), (2, 2)}


def test_sample_nonedges_enumerated_matches_combinations_loop():
    for seed in range(6):
        g = random_graph(seed + 700, 25, 0.2, n_type_count=3)
        for patterns in NONEDGE_PATTERNS:
            for exclude in (set(), nonedge_excludes(g, seed)):
                found = len(loop_nonedge_candidates(g, patterns, exclude))
                for count in sorted({0, min(3, found), found // 3, found}):
                    a, b = random.Random(seed), random.Random(seed)
                    got = _sample_nonedges(g, patterns, count, a, exclude)
                    assert got == loop_enumerated_nonedges(g, patterns, count, b, exclude)
                    assert all(type(x) is int for pair in got for x in pair)
                    assert a.random() == b.random()  # the stream goes on alike
                with pytest.raises(ValueError) as fast:
                    _sample_nonedges(g, patterns, found + 1, random.Random(seed), exclude)
                with pytest.raises(ValueError) as slow:
                    loop_enumerated_nonedges(g, patterns, found + 1, random.Random(seed), exclude)
                assert str(fast.value) == str(slow.value)


def test_sample_nonedges_rejection_branch_matches_loop(monkeypatch):
    monkeypatch.setattr(evaluation, "_ENUMERATE_PAIR_LIMIT", 10)
    for seed in range(4):
        g = random_graph(seed + 750, 30, 0.15, n_type_count=2)
        exclude = nonedge_excludes(g, seed)
        for patterns in ({(0, 1)}, {(0, 0), (1, 1)}):
            got = _sample_nonedges(g, patterns, 25, random.Random(seed), exclude)
            assert got == loop_rejected_nonedges(g, patterns, 25, random.Random(seed), exclude)
    with pytest.raises(ValueError, match="within sampling budget"):
        _sample_nonedges(g, {(0, 1)}, 10_000, random.Random(0), set())


def test_no_query_reads_the_edge_tuples(monkeypatch):
    # The rejection branch tests membership by edge key, so ``edges`` is
    # left to the oracles.
    monkeypatch.setattr(evaluation, "_ENUMERATE_PAIR_LIMIT", 10)

    def fresh_graph():
        return planted_partition([10, 10, 10], 0.5, 0.05, type_count=2, seed=4)[0]

    def queries():
        g = fresh_graph()
        sig = TypedGraphletSignature(SKELETONS["4-cycle"])
        return (link_prediction_eval(g, sig, 4, seed=2),
                link_prediction_eval(g, TypedGraphletSignature(SKELETONS["edge"]), 3,
                                     seed=3, edge_type=0),
                compressed_size_estimate(g, list(range(30))[::-1]),
                external_conductance(g, range(10)))

    def refuse(self):
        raise AssertionError("edges read outside the oracles")

    want = queries()
    monkeypatch.setattr(HeteroGraph, "edges", property(refuse))
    assert queries() == want
    with pytest.raises(AssertionError, match="edges read"):
        oracles._edge_types(fresh_graph())


@pytest.mark.parametrize("below, oracle", [(0, loop_enumerated_nonedges),
                                           (1, loop_rejected_nonedges)])
def test_sample_nonedges_switches_branch_at_the_pair_limit(monkeypatch, below, oracle):
    g = random_graph(760, 30, 0.15, n_type_count=2)
    patterns, exclude = {(0, 1), (1, 1)}, nonedge_excludes(g, 1)
    samples = {tuple(loop(g, patterns, 40, random.Random(5), exclude)): loop
               for loop in (loop_enumerated_nonedges, loop_rejected_nonedges)}
    assert len(samples) == 2  # the two branches draw different pairs
    monkeypatch.setattr(evaluation, "_ENUMERATE_PAIR_LIMIT", 30 * 29 // 2 - below)
    got = _sample_nonedges(g, patterns, 40, random.Random(5), exclude)
    assert samples.get(tuple(got)) is oracle


@pytest.mark.parametrize("n, edges", [
    (0, []), (1, []), (2, []), (2, [(0, 1)]),
    (5, [(u, v) for u, v in combinations(range(5), 2)]),
])
def test_sample_nonedges_tiny_and_complete_graphs_match_the_loop(n, edges):
    g = make_graph(n, edges)
    found = len(loop_nonedge_candidates(g, {(0, 0)}, set()))
    assert _sample_nonedges(g, {(0, 0)}, 0, random.Random(0), set()) == []
    for count in range(1, found + 1):
        got = _sample_nonedges(g, {(0, 0)}, count, random.Random(count), set())
        assert got == loop_enumerated_nonedges(g, {(0, 0)}, count, random.Random(count), set())
    with pytest.raises(ValueError) as fast:
        _sample_nonedges(g, {(0, 0)}, found + 1, random.Random(0), set())
    with pytest.raises(ValueError) as slow:
        loop_enumerated_nonedges(g, {(0, 0)}, found + 1, random.Random(0), set())
    assert str(fast.value) == str(slow.value)


def triu_list_nonedges(g, patterns, count, rng, exclude):
    """The single-list route: every candidate key from one np.triu mask, then a draw."""
    n = g.node_count
    types = np.asarray(g.node_types, dtype=np.int64)
    table = evaluation._pattern_table(patterns, g.node_type_count)
    ok = np.triu(table[types[:, None], types], 1)
    drop = np.array([(u, v) for u, v in exclude], dtype=np.int64).reshape(-1, 2)
    drop = drop[(0 <= drop[:, 0]) & (drop[:, 0] < drop[:, 1]) & (drop[:, 1] < n)]
    for u, v in (g.edge_array.T, drop.T):
        ok[u, v] = False
    cands = np.flatnonzero(ok)
    if len(cands) < count:
        raise ValueError(
            f"not enough type-compatible non-edges: need {count}, found {len(cands)}"
        )
    us, vs = np.divmod(cands[rng.sample(range(len(cands)), count)], n)
    return list(zip(us.tolist(), vs.tolist()))


def boundary_excludes(g, seed):
    """Non-edges, reversed pairs, edges and out-of-range pairs, on graphs of any size."""
    rng = random.Random(seed)
    n = g.node_count
    pairs = rng.sample(list(combinations(range(n), 2)), min(40, n * (n - 1) // 2))
    return (set(pairs[::2]) | {(v, u) for u, v in pairs[1::2]} | set(g.edges[:5])
            | {(-1, 0), (0, n), (n - 1, n), (n, n + 1), (n - 1, n - 1)})


@pytest.mark.parametrize("block", [1, 2, evaluation._ROW_BLOCK])
@pytest.mark.parametrize("n, type_count", [
    (0, 1), (1, 1), (2, 1), (2, 2), (63, 2), (64, 3), (65, 1), (65, 2), (301, 3),
])
def test_sample_nonedges_row_blocks_match_the_single_list_route(monkeypatch, block, n,
                                                                 type_count):
    # Row blocks of 1 and 2 put block boundaries everywhere; at the default
    # block, 65 and 301 nodes end on a partial block.
    monkeypatch.setattr(evaluation, "_ROW_BLOCK", block)
    g = random_graph(780 + n, n, 0.1, n_type_count=type_count)
    for seed, patterns in enumerate(NONEDGE_PATTERNS[:3]):
        for exclude in (set(), boundary_excludes(g, seed)):
            found = len(loop_nonedge_candidates(g, patterns, exclude))
            for count in sorted({0, min(1, found), found // 3, max(found - 1, 0), found}):
                a, b = random.Random(seed), random.Random(seed)
                got = _sample_nonedges(g, patterns, count, a, exclude)
                assert got == triu_list_nonedges(g, patterns, count, b, exclude)
                assert all(type(x) is int for pair in got for x in pair)
                assert a.random() == b.random()
            with pytest.raises(ValueError) as fast:
                _sample_nonedges(g, patterns, found + 1, random.Random(seed), exclude)
            with pytest.raises(ValueError) as slow:
                triu_list_nonedges(g, patterns, found + 1, random.Random(seed), exclude)
            assert str(fast.value) == str(slow.value)


def test_sample_nonedges_enumeration_peak_memory_is_a_few_bytes_per_node_pair():
    # One n x n mask (1 byte per pair) plus one block of keys; listing every
    # candidate key at once would take about 5 bytes per pair here.
    n = 1000
    g = random_graph(770, n, 0.02, n_type_count=2)
    patterns, exclude = {(0, 0), (0, 1), (1, 1)}, nonedge_excludes(g, 0)
    tracemalloc.start()
    try:
        picked = _sample_nonedges(g, patterns, 100, random.Random(0), exclude)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(picked) == 100
    assert peak < 3 * n * n, peak / (n * n)


def loop_average_ranks(values):
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def test_average_ranks_match_loop():
    rng = np.random.default_rng(3)
    nan = float("nan")
    cases = [
        [],
        [0.5],
        [0.3, 0.1, 0.3, 0.2, 0.1, 0.3],
        [nan, 1.0, nan, 1.0, -0.0, 0.0, nan],
        [nan],
        rng.integers(0, 5, size=200).astype(np.float64),
        rng.standard_normal(50),
    ]
    for values in cases:
        values = np.asarray(values, dtype=np.float64)
        assert _average_ranks(values).tobytes() == loop_average_ranks(values).tobytes()


def test_edge_embed_batched_matches_per_row_calls():
    rng = np.random.default_rng(8)
    Z = rng.standard_normal((20, 5))
    Z[3] = -0.0
    us, vs = rng.integers(0, 20, size=(2, 60))
    for op in EDGE_OPERATORS:
        rows = np.array([edge_embed(Z[u], Z[v], op) for u, v in zip(us, vs)])
        assert edge_embed(Z[us], Z[vs], op).tobytes() == rows.tobytes()


def loop_train_linear_classifier(X, y, l2, iters, seed, step):
    """Gradient descent that recomputes the logits at w every iteration."""

    def sigmoid(z):
        return 1.0 / (1.0 + np.exp(-np.clip(z, -35.0, 35.0)))

    def loss_at(w):
        p = sigmoid(Xb @ w)
        data = -np.mean(y * np.log(p + 1e-12) + (1 - y) * np.log(1 - p + 1e-12))
        return float(data + 0.5 * l2 * np.dot(w[:-1], w[:-1]))

    n, d = X.shape
    Xb = np.hstack([X, np.ones((n, 1))])
    w = 0.01 * np.random.default_rng(seed).standard_normal(d + 1)
    loss = loss_at(w)
    halvings, peak = 0, 0.0
    for _ in range(iters):
        p = sigmoid(Xb @ w)
        peak = max(peak, float(np.abs(Xb @ w).max()))
        grad = Xb.T @ (p - y) / n
        grad[:-1] += l2 * w[:-1]
        cand = w - step * grad
        cand_loss = loss_at(cand)
        while cand_loss > loss and step > 1e-12:
            step *= 0.5
            halvings += 1
            cand = w - step * grad
            cand_loss = loss_at(cand)
        if cand_loss <= loss:
            w, loss = cand, cand_loss
    return w, halvings, peak


def test_classifier_weights_match_recomputing_loop():
    rng = np.random.default_rng(13)
    X = rng.standard_normal((120, 6))
    y = (X @ rng.standard_normal(6) + 0.5 * rng.standard_normal(120) > 0).astype(float)
    # A plain run, one that halves its step, and one whose logits pass the
    # sigmoid's clip at +-35.
    for scale, step, iters in ((1.0, 0.1, 50), (1.0, 40.0, 60), (400.0, 0.1, 30)):
        ref, halvings, peak = loop_train_linear_classifier(scale * X, y, 1e-4, iters, 5, step)
        if step > 1:
            assert halvings > 0
        if scale > 1:
            assert peak > 35
        w = train_linear_classifier(scale * X, y, l2=1e-4, iters=iters, seed=5, step=step)
        assert w.tobytes() == ref.tobytes()


def loop_compressed_size(g, order):
    def varint(x):
        size = 1
        while x >= 128:
            x >>= 7
            size += 1
        return size

    pos = {old: new for new, old in enumerate(order)}
    nbrs = {v: [] for v in range(g.node_count)}
    for u, v in g.edges:
        nbrs[pos[u]].append(pos[v])
        nbrs[pos[v]].append(pos[u])
    total = 0
    for v in range(g.node_count):
        lst = sorted(nbrs[v])
        total += varint(len(lst))
        if lst:
            first = lst[0] - v
            total += varint(2 * first if first > 0 else -2 * first + 1)
            total += sum(varint(b - a) for a, b in zip(lst, lst[1:]))
    return total


def test_compressed_size_matches_adjacency_loop():
    rng = random.Random(4)
    # 20,000 nodes: a 150-leaf star and far-apart pairs give 2- and 3-byte varints.
    n = 20_000
    far = [(0, n - 1), (5, 17_000), (9_000, 9_129)] + [(1, 200 + 97 * i) for i in range(150)]
    graphs = [random_graph(seed + 800, 40, 0.15) for seed in range(3)]
    graphs += [make_graph(300, [(0, v) for v in range(1, 300)]), make_graph(n, far),
               make_graph(4, [])]
    for g in graphs:
        shuffled = list(range(g.node_count))
        rng.shuffle(shuffled)
        for order in (range(g.node_count), shuffled, shuffled[::-1]):
            order = list(order)
            assert compressed_size_estimate(g, order) == loop_compressed_size(g, order)


def test_external_conductance_matches_adjacency_loop():
    rng = random.Random(6)
    for seed in range(5):
        g = random_graph(seed + 850, 30, 0.15)
        adj = {v: set() for v in range(g.node_count)}
        for u, v in g.edges:
            adj[u].add(v)
            adj[v].add(u)
        for _ in range(10):
            side = set(rng.sample(range(30), rng.randrange(1, 30)))
            cut = sum(1 for u in side for v in adj[u] if v not in side)
            vol = sum(len(adj[u]) for u in side)
            denom = min(vol, 2 * g.edge_count - vol)
            if denom == 0:
                continue
            assert external_conductance(g, list(side) * 2) == Fraction(cut, denom)
