"""Eigensolver, sweep cut, motif spectral clustering, ordering, and embeddings."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import EigenConvergenceError, GraphletAbsentError, ZeroVolumeError
from .graph import HeteroGraph, WeightedGraph, _validate_cut, connected_components
from .graphlets import TypedGraphletSignature
from .motifmatrix import (
    MotifMatrix,
    NormalizedLaplacian,
    _dense,
    _motif_matrices,
    _typed_conductance,
    build_motif_matrix,
)

DENSE_SOLVER_THRESHOLD = 512
RESIDUAL_TOL = 1e-8

# Fixed start vector seed keeps the iterative path bit-reproducible.
_ITERATIVE_SEED = 0x5EED


@dataclass
class EigenPair:
    value: float
    vector: np.ndarray


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    """Deterministic signs: each column's largest-magnitude entry is positive.

    Ties on magnitude resolve to the lowest index (argmax returns the first).
    """
    top = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    return vecs * np.where(top < 0, -1.0, 1.0)


def smallest_eigenpairs(lap: NormalizedLaplacian, k: int) -> list[EigenPair]:
    """The k smallest eigenpairs of a normalized Laplacian, ascending.

    Below ``DENSE_SOLVER_THRESHOLD`` rows, read when the solver is called,
    and whenever k > dim - 2, the full symmetric decomposition runs on the
    dense block; larger systems use a Lanczos-type Krylov solve on
    2I - L (spectrum lies in [0, 2], so the smallest eigenvalues of L are
    the largest of the shifted operator) with a fixed-seed start vector; a
    solve that does not converge is retried once with more room before it
    fails. One product checks every returned pair against the residual
    bound, and the first pair in order that misses it raises.
    """
    dim = lap.dim
    if not 1 <= k <= dim:
        raise ValueError(f"k must be in 1..{dim}, got {k}")
    if dim < DENSE_SOLVER_THRESHOLD or k > dim - 2:
        matrix = _dense(lap)
        vals, vecs = np.linalg.eigh(matrix)
        vals = vals[:k]
        vecs = vecs[:, :k]
    else:
        matrix = lap.matrix
        shifted = 2.0 * sp.identity(dim, format="csr") - matrix
        rng = np.random.default_rng(_ITERATIVE_SEED)
        v0 = rng.standard_normal(dim)
        try:
            try:
                mu, vecs = spla.eigsh(shifted, k=k, which="LA", v0=v0)
            except spla.ArpackNoConvergence:
                # One retry from the same start vector, with twice ARPACK's
                # default Krylov space and restarts, so a failing solve
                # costs a bounded multiple of the first attempt.
                mu, vecs = spla.eigsh(shifted, k=k, which="LA", v0=v0,
                                      ncv=min(dim, max(4 * k + 1, 40)), maxiter=20 * dim)
        except spla.ArpackNoConvergence as exc:
            residual = None
            if exc.eigenvalues is not None and len(exc.eigenvalues):
                lam_part = 2.0 - exc.eigenvalues
                res = matrix @ exc.eigenvectors - exc.eigenvectors * lam_part
                residual = float(np.abs(res).max())
            raise EigenConvergenceError(
                f"eigensolver did not converge for {k} pairs at dimension {dim}",
                residual=residual,
            ) from exc
        vals = 2.0 - mu
        order = np.argsort(vals, kind="stable")
        vals = vals[order]
        vecs = vecs[:, order]
    vecs = _fix_signs(vecs)
    vals = vals.tolist()
    for lam, res in zip(vals, np.linalg.norm(matrix @ vecs - vecs * vals, axis=0).tolist()):
        if res > RESIDUAL_TOL * max(1.0, abs(lam)):
            raise EigenConvergenceError(
                f"eigenpair residual {res:.3e} exceeds tolerance", residual=res
            )
    return [EigenPair(lam, vec) for lam, vec in zip(vals, vecs.T)]


@dataclass
class SweepResult:
    """Prefix sweep over one eigenvector ordering.

    ``profile[k-1]`` is the weighted conductance of the first k ordered
    nodes measured on the graph the sweep was given; ``cluster`` is the
    smaller of best prefix and its complement within the swept node set.
    """

    order: list[int]
    profile: np.ndarray
    best_k: int
    best_conductance: float
    cluster: list[int]


def sweep_cut(
    gH: WeightedGraph, v2: np.ndarray, nodes: Sequence[int] | None = None
) -> SweepResult:
    """Minimum-conductance prefix of the second-eigenvector ordering.

    ``nodes`` (default: every node of ``gH``) must be ascending node ids of
    ``gH`` and aligned with ``v2``. The ordering sorts v2 ascending with ties
    going to the lower node id. The cut of the first k ordered nodes is
    their volume minus twice the weight of the pairs with both endpoints
    among them, a pair joining the prefix at the later sweep position of its
    endpoints; volumes are taken over all of ``gH``, so sweeping one
    connected component of a larger graph scores prefixes against the full
    volume. Profile ties resolve to the smallest k.
    """
    nodes = np.arange(gH.node_count) if nodes is None else np.asarray(nodes, dtype=np.int64)
    if len(nodes) < 2:
        raise ValueError("sweep needs at least 2 nodes")
    if len(v2) != len(nodes):
        raise ValueError("eigenvector length does not match node count")
    if np.any(np.diff(nodes) <= 0):
        raise ValueError("nodes must be ascending so ties break toward lower ids")
    if nodes[0] < 0 or nodes[-1] >= gH.node_count:
        raise ValueError(f"node ids must lie in 0..{gH.node_count - 1}")
    order = nodes[np.argsort(np.asarray(v2, dtype=np.float64), kind="stable")]
    pos = np.full(gH.node_count, len(order))
    pos[order] = np.arange(len(order))
    joins = np.maximum(pos[gH.pairs[:, 0]], pos[gH.pairs[:, 1]])
    swept = joins < len(order)
    inner = np.bincount(joins[swept], gH.pair_weights[swept], minlength=len(order))
    vol = np.cumsum(gH.degrees[order])
    cut = vol - 2 * np.cumsum(inner.astype(gH.degrees.dtype))
    denom = np.minimum(vol, gH.total_volume - vol)[:-1]
    if np.any(denom <= 0):
        raise ZeroVolumeError("sweep prefix has a zero-volume side")
    profile = cut[:-1] / denom
    order = order.tolist()
    best_idx = int(np.argmin(profile))
    prefix = order[: best_idx + 1]
    rest = order[best_idx + 1 :]
    cluster = prefix if len(prefix) < len(rest) else rest
    return SweepResult(
        order=order,
        profile=profile,
        best_k=best_idx + 1,
        best_conductance=float(profile[best_idx]),
        cluster=sorted(cluster),
    )


@dataclass
class ClusterResult:
    """The chosen cluster of the motif graph and its quality measures.

    ``phi_weighted`` is the selection value (weighted conductance on the
    motif graph); ``alpha`` is the exact typed-graphlet conductance of the
    returned cluster in the original graph. ``component`` is 0 by the
    selection rule of :func:`cluster`, and ``lambda2`` is component 0's.
    """

    nodes: list[int]
    component: int
    sweep_k: int
    phi_weighted: float
    alpha: Fraction
    lambda2: float
    beta: float
    uncovered: list[int]
    component_count: int


def _covered_components(graphs: Sequence[WeightedGraph]) -> list[list[list[int]]]:
    """Each motif graph's components as ascending node lists, ordered by smallest node.

    One ``connected_components`` call labels the disjoint union of the
    graphs' covered nodes, numbered densely in graph order, so memory
    follows the summed support and each graph's components hold one run of
    labels. An empty graph has no components.
    """
    covered = [np.flatnonzero(gH.degrees) for gH in graphs]
    start = np.cumsum([0] + [len(nodes) for nodes in covered])
    index = np.zeros(max((gH.node_count for gH in graphs), default=0), dtype=np.int64)
    blocks = [np.empty((0, 2), dtype=np.int64)]
    for lo, nodes, gH in zip(start, covered, graphs):
        index[nodes] = lo + np.arange(len(nodes))
        blocks.append(index[gH.pairs])
    pairs = np.concatenate(blocks)
    union = WeightedGraph.from_pairs(int(start[-1]), pairs, np.ones(len(pairs), dtype=np.int64))
    labels, count = connected_components(union)
    members = np.concatenate([np.empty(0, dtype=np.int64)] + covered)
    members = members[np.argsort(labels, kind="stable")]
    comps = [c.tolist() for c in np.split(members, np.cumsum(np.bincount(labels))[:-1])]
    cuts = np.append(labels, count)[start]
    return [comps[a:b] for a, b in zip(cuts[:-1], cuts[1:])]


def _laplacians(gH: WeightedGraph,
                comps: Sequence[Sequence[int]]) -> Iterator[NormalizedLaplacian]:
    """The normalized Laplacian of each component in ``comps``, in order, from one pass.

    Each equals ``build_normalized_laplacian(gH, comp)`` entry for entry:
    every pair of a component's nodes lies inside it, so ``gH.degrees``
    holds its degrees, and each value is ``-w * inv_sqrt[u] * inv_sqrt[v]``
    in the same operand order. D^{-1/2} is taken once. One stable sort
    groups the pairs of the components below ``DENSE_SOLVER_THRESHOLD``
    rows; pairs of other components keep label -1 and sort ahead of every
    group. Blocks are made one at a time as the caller iterates, so while
    it solves one, only the small components' sort order and two node
    arrays are held here.
    """
    n = gH.node_count
    label, index, inv_sqrt = np.full(n, -1), np.zeros(n, dtype=np.int64), np.zeros(n)
    covered = gH.degrees > 0
    inv_sqrt[covered] = 1.0 / np.sqrt(gH.degrees[covered])
    nodes = [np.asarray(comp, dtype=np.int64) for comp in comps]
    for j, comp in enumerate(nodes):
        index[comp] = np.arange(len(comp))
        if len(comp) < DENSE_SOLVER_THRESHOLD:
            label[comp] = j
    owner = label[gH.pairs[:, 0]]
    order = np.flatnonzero(owner >= 0)
    order = order[np.argsort(owner[order], kind="stable")]
    bounds = np.searchsorted(owner[order], np.arange(len(nodes) + 1))
    del label, covered, owner
    for comp, lo, hi in zip(nodes, bounds, bounds[1:]):
        yield NormalizedLaplacian(_block(gH, comp, order[lo:hi], index, inv_sqrt), comp)


def _block(gH: WeightedGraph, comp: np.ndarray, sel: np.ndarray, index: np.ndarray,
           inv_sqrt: np.ndarray) -> np.ndarray | sp.csr_matrix:
    """The Laplacian block of one component whose pairs are ``gH.pairs[sel]``.

    Below ``DENSE_SOLVER_THRESHOLD`` rows it is dense, filled by scattering
    the pairs' values. A larger component is found among the pairs by a
    node mask, as ``build_normalized_laplacian`` does, and built as CSR for
    the Krylov path.
    """
    dim = len(comp)
    if dim >= DENSE_SOLVER_THRESHOLD:
        inside = np.zeros(gH.node_count, dtype=bool)
        inside[comp] = True
        sel = np.flatnonzero(inside[gH.pairs[:, 0]])
    u, v = gH.pairs[sel].T
    x = -gH.pair_weights[sel] * inv_sqrt[u] * inv_sqrt[v]
    a, b = index[u], index[v]
    if dim < DENSE_SOLVER_THRESHOLD:
        block = np.eye(dim)
        block[a, b] = block[b, a] = x
        return block
    diag = np.arange(dim)
    return sp.csr_matrix((np.r_[np.ones(dim), x, x], (np.r_[diag, a, b], np.r_[diag, b, a])),
                         shape=(dim, dim))


def _beta_factor(lambda2: float, edge_count: int) -> float:
    if lambda2 <= 1e-14:
        return math.inf
    return math.sqrt(8.0 / lambda2) * edge_count


def cluster(g: HeteroGraph, sig: TypedGraphletSignature) -> ClusterResult:
    """Sweep-cut spectral clustering on the typed-graphlet matrix.

    Component 0 of W's induced graph (holding the smallest covered node id)
    gives ``lambda2``. A connected motif graph is swept along its second
    eigenvector, and the cluster is the smaller side of the best prefix. A
    disconnected one has a cut of conductance 0 that no sweep can beat, so
    the cluster is component 0 if it is strictly smaller than the rest
    together, else the rest, and ``sweep_k`` is the size of component 0.
    """
    return _cluster(build_motif_matrix(g, sig))


def _cluster(mm: MotifMatrix) -> ClusterResult:
    if not len(mm.motif_graph.pairs):
        raise GraphletAbsentError("typed graphlet has no instance in the graph")
    gH = mm.induced_graph()
    comps = _covered_components([gH])[0]
    lap, = _laplacians(gH, comps[:1])
    second = smallest_eigenpairs(lap, 2)[1]
    if len(comps) == 1:
        sweep = sweep_cut(gH, second.vector, nodes=lap.nodes)
        chosen, sweep_k, phi = sweep.cluster, sweep.best_k, sweep.best_conductance
    else:
        rest = sorted(v for comp in comps[1:] for v in comp)
        chosen = comps[0] if len(comps[0]) < len(rest) else rest
        sweep_k, phi = len(comps[0]), 0.0
    return ClusterResult(
        nodes=chosen,
        component=0,
        sweep_k=sweep_k,
        phi_weighted=phi,
        alpha=_typed_conductance(mm, _validate_cut(mm.graph.node_count, chosen)),
        lambda2=second.value,
        beta=_beta_factor(second.value, mm.signature.skeleton.edge_count),
        uncovered=mm.uncovered_nodes(),
        component_count=len(comps),
    )


@dataclass
class PartitionResult:
    parts: list[list[int]]
    early_stop: bool


def recursive_bipartition(
    g: HeteroGraph, sig: TypedGraphletSignature, target_k: int
) -> PartitionResult:
    """Split the covered nodes into up to ``target_k`` parts.

    Repeatedly applies :func:`cluster`'s rule to the largest splittable part.
    A part's motif matrix counts the parent's occurrences that lie wholly
    inside it, which are exactly the occurrences of its induced subgraph. A
    part with no such occurrence stops splitting; running out of splittable
    parts before reaching the target is an early stop.
    """
    if target_k < 2:
        raise ValueError("target_k must be at least 2")
    parts = [build_motif_matrix(g, sig).covered_nodes()]
    if not parts[0]:
        return PartitionResult([], True)
    splittable = [True]
    while len(parts) < target_k and any(splittable):
        idx = min((i for i, ok in enumerate(splittable) if ok),
                  key=lambda i: (-len(parts[i]), parts[i][0]))
        inside = np.zeros(g.node_count, dtype=bool)
        inside[parts[idx]] = True
        try:
            side = _cluster(_motif_matrices(g, [sig], inside)[0]).nodes
        except GraphletAbsentError:
            splittable[idx] = False
            continue
        rest = sorted(set(parts[idx]) - set(side))
        parts[idx : idx + 1] = [side, rest]
        splittable[idx : idx + 1] = [True, True]
    return PartitionResult(parts, early_stop=len(parts) < target_k)


@dataclass
class OrderingResult:
    order: list[int]
    graphlet_present: bool


def spectral_ordering(g: HeteroGraph, sig: TypedGraphletSignature) -> OrderingResult:
    """Permutation of all nodes by second-eigenvector coordinate.

    Within each component of the motif graph, nodes sort by v2 ascending
    (ties by node id); components concatenate largest first; nodes outside
    every occurrence go last in original order. An absent graphlet degrades
    to the original order with ``graphlet_present=False`` instead of
    raising.
    """
    mm = build_motif_matrix(g, sig)
    if not len(mm.motif_graph.pairs):
        return OrderingResult(list(range(g.node_count)), False)
    gH = mm.induced_graph()
    comps = _covered_components([gH])[0]
    comps.sort(key=lambda c: (-len(c), c[0]))
    order: list[int] = []
    for lap in _laplacians(gH, comps):
        v2 = smallest_eigenpairs(lap, 2)[1].vector
        order.extend(lap.nodes[np.argsort(v2, kind="stable")].tolist())
    order.extend(mm.uncovered_nodes())
    return OrderingResult(order, True)


def spectral_embedding(
    g: HeteroGraph, sig: TypedGraphletSignature, dim: int, drop_trivial: bool = False
) -> np.ndarray:
    """N x dim row-normalized eigenvector embedding of the motif graph.

    Per component, rows stack the ``dim`` smallest eigenvectors (components
    smaller than ``dim`` are capped and zero-padded) and each nonzero row is
    scaled to unit norm. The smallest eigenvector is the constant direction;
    it is included by default and skipped with ``drop_trivial``. Nodes
    outside every occurrence keep zero rows.
    """
    if dim < 1:
        raise ValueError("embedding dimension must be at least 1")
    mm = build_motif_matrix(g, sig)
    if not len(mm.motif_graph.pairs):
        raise GraphletAbsentError("typed graphlet has no instance in the graph")
    gH = mm.induced_graph()
    Z = np.zeros((g.node_count, dim), dtype=np.float64)
    for lap in _laplacians(gH, _covered_components([gH])[0]):
        offset = 1 if drop_trivial else 0
        d_eff = min(dim, lap.dim - offset)
        pairs = smallest_eigenpairs(lap, d_eff + offset)
        X = np.column_stack([p.vector for p in pairs[offset:]])
        norms = np.linalg.norm(X, axis=1)
        keep = norms > 0
        X[keep] = X[keep] / norms[keep, None]
        Z[lap.nodes, :d_eff] = X
    return Z


@dataclass
class MotifRank:
    """Approximation-quality score for one candidate typed graphlet."""

    signature: TypedGraphletSignature
    lambda2: float
    edge_count: int
    beta: float


@dataclass
class RankResult:
    ranked: list[MotifRank]
    skipped: list[TypedGraphletSignature]


def rank_typed_graphlets(
    g: HeteroGraph, sigs: Sequence[TypedGraphletSignature]
) -> RankResult:
    """Rank candidate graphlets by the approximation factor, best first.

    The factor sqrt(8/lambda2) * |E(H)| favours small edge sets whose
    occurrences are well connected; lambda2 comes from the largest component
    of each motif graph, of equal ones the one holding the smallest node.
    The motif graphs are built in one pass per skeleton and typing mode, and
    one ``_covered_components`` call labels all their components. Absent
    signatures are skipped with a note rather than failing the whole
    ranking.
    """
    ranked: list[MotifRank] = []
    skipped: list[TypedGraphletSignature] = []
    whole = np.ones(g.node_count, dtype=bool)
    graphs = [mm.motif_graph for mm in _motif_matrices(g, sigs, whole)]
    for sig, gH, comps in zip(sigs, graphs, _covered_components(graphs)):
        if not comps:
            skipped.append(sig)
            continue
        lap, = _laplacians(gH, [max(comps, key=len)])
        lam2 = smallest_eigenpairs(lap, 2)[1].value
        ranked.append(
            MotifRank(sig, lam2, sig.skeleton.edge_count, _beta_factor(lam2, sig.skeleton.edge_count))
        )
    ranked.sort(key=lambda r: (r.beta, r.signature.skeleton.name, r.signature.node_types or ()))
    return RankResult(ranked, skipped)
