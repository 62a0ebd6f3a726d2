"""Eigensolver, sweep cut, motif spectral clustering, ordering, and embeddings."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import EigenConvergenceError, GraphletAbsentError, ZeroVolumeError
from .graph import HeteroGraph, WeightedGraph, connected_components
from .graphlets import TypedGraphletSignature
from .motifmatrix import (
    NormalizedLaplacian,
    _instance_cut,
    build_motif_matrix,
    build_normalized_laplacian,
)

DENSE_SOLVER_THRESHOLD = 512
RESIDUAL_TOL = 1e-8

# Fixed start vector seed keeps the iterative path bit-reproducible.
_ITERATIVE_SEED = 0x5EED


@dataclass
class EigenPair:
    value: float
    vector: np.ndarray


def _fix_sign(vec: np.ndarray) -> np.ndarray:
    """Deterministic sign: the largest-magnitude entry is positive.

    Ties on magnitude resolve to the lowest index (argmax returns the first).
    """
    idx = int(np.argmax(np.abs(vec)))
    return -vec if vec[idx] < 0 else vec


def smallest_eigenpairs(
    lap: NormalizedLaplacian, k: int, dense_threshold: int = DENSE_SOLVER_THRESHOLD
) -> list[EigenPair]:
    """The k smallest eigenpairs of a normalized Laplacian, ascending.

    Below ``dense_threshold`` rows the full symmetric decomposition runs;
    larger systems use a Lanczos-type Krylov solve on 2I - L (spectrum lies
    in [0, 2], so the smallest eigenvalues of L are the largest of the
    shifted operator) with a fixed-seed start vector. Every returned pair is
    checked against the residual bound.
    """
    dim = lap.dim
    if not 1 <= k <= dim:
        raise ValueError(f"k must be in 1..{dim}, got {k}")
    if dim < dense_threshold or k > dim - 2:
        dense = lap.matrix.toarray()
        vals, vecs = np.linalg.eigh(dense)
        vals = vals[:k]
        vecs = vecs[:, :k]
    else:
        shifted = 2.0 * sp.identity(dim, format="csr") - lap.matrix
        rng = np.random.default_rng(_ITERATIVE_SEED)
        v0 = rng.standard_normal(dim)
        try:
            mu, vecs = spla.eigsh(shifted, k=k, which="LA", v0=v0)
        except spla.ArpackNoConvergence as exc:
            residual = None
            if exc.eigenvalues is not None and len(exc.eigenvalues):
                lam_part = 2.0 - exc.eigenvalues
                res = lap.matrix @ exc.eigenvectors - exc.eigenvectors * lam_part
                residual = float(np.abs(res).max())
            raise EigenConvergenceError(
                f"eigensolver did not converge for {k} pairs at dimension {dim}",
                residual=residual,
            ) from exc
        vals = 2.0 - mu
        order = np.argsort(vals, kind="stable")
        vals = vals[order]
        vecs = vecs[:, order]
    pairs = []
    for i in range(k):
        vec = _fix_sign(np.asarray(vecs[:, i], dtype=np.float64))
        lam = float(vals[i])
        res = float(np.linalg.norm(lap.matrix @ vec - lam * vec))
        if res > RESIDUAL_TOL * max(1.0, abs(lam)):
            raise EigenConvergenceError(
                f"eigenpair residual {res:.3e} exceeds tolerance", residual=res
            )
        pairs.append(EigenPair(lam, vec))
    return pairs


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

    ``nodes`` (default: every node of ``gH``) must be ascending and aligned
    with ``v2``. The ordering sorts v2 ascending with ties going to the
    lower node id. The cut of the first k ordered nodes is their volume
    minus twice the weight of the pairs with both endpoints among them, a
    pair joining the prefix at the later sweep position of its endpoints;
    volumes are taken over all of ``gH``, so sweeping one connected
    component of a larger graph scores prefixes against the full volume.
    Profile ties resolve to the smallest k.
    """
    nodes = np.arange(gH.node_count) if nodes is None else np.asarray(nodes, dtype=np.int64)
    if len(nodes) < 2:
        raise ValueError("sweep needs at least 2 nodes")
    if len(v2) != len(nodes):
        raise ValueError("eigenvector length does not match node count")
    if np.any(np.diff(nodes) <= 0):
        raise ValueError("nodes must be ascending so ties break toward lower ids")
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
    """Best cluster found across the components of the motif graph.

    ``phi_weighted`` is the selection value (weighted conductance on the
    motif graph); ``alpha`` is the exact typed-graphlet conductance of the
    returned cluster in the original graph. When the motif graph is
    disconnected a whole component is perfectly separable, so the cluster is
    a component and ``phi_weighted`` is 0.
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


def _covered_components(gH: WeightedGraph) -> list[list[int]]:
    labels, count = connected_components(gH)
    members = np.argsort(labels, kind="stable")
    comps = np.split(members, np.cumsum(np.bincount(labels, minlength=count))[:-1])
    return [c.tolist() for c in comps if len(c) >= 2]


def _beta_factor(lambda2: float, edge_count: int) -> float:
    if lambda2 <= 1e-14:
        return math.inf
    return math.sqrt(8.0 / lambda2) * edge_count


def cluster(
    g: HeteroGraph,
    sig: TypedGraphletSignature,
    dense_threshold: int = DENSE_SOLVER_THRESHOLD,
) -> ClusterResult:
    """Sweep-cut spectral clustering on the typed-graphlet matrix.

    Builds W, takes each connected component of its induced graph, sweeps
    the component's second eigenvector, and keeps the minimum-conductance
    candidate; with several components each whole component is also a
    candidate at conductance 0. The reported cluster is the smaller of the
    chosen side and its complement within the covered nodes, and its exact
    typed conductance ``alpha`` is recomputed on the original graph so the
    approximation guarantees can be checked against the weighted selection
    value.
    """
    mm = build_motif_matrix(g, sig)
    if not len(mm.instances):
        raise GraphletAbsentError("typed graphlet has no instance in the graph")
    gH = mm.induced_graph()
    comps = _covered_components(gH)
    if not comps:
        raise GraphletAbsentError("no component of the motif graph has 2 or more nodes")
    covered: list[int] = sorted(v for comp in comps for v in comp)
    covered_set = set(covered)

    sweeps: list[SweepResult] = []
    lambda2s: list[float] = []
    for comp in comps:
        lap = build_normalized_laplacian(gH, comp)
        pairs = smallest_eigenpairs(lap, 2, dense_threshold)
        lambda2s.append(pairs[1].value)
        sweeps.append(sweep_cut(gH, pairs[1].vector, nodes=list(lap.nodes)))

    # Candidate tuples: (phi, component index, kind) with whole components
    # ranked ahead of equal-phi sweeps for determinism.
    candidates: list[tuple[float, int, int]] = [
        (sw.best_conductance, ci, 1) for ci, sw in enumerate(sweeps)
    ]
    if len(comps) >= 2:
        candidates.extend((0.0, ci, 0) for ci in range(len(comps)))
    phi, ci, kind = min(candidates, key=lambda c: (c[0], c[2], c[1]))

    if kind == 0:
        raw = list(comps[ci])
        sweep_k = len(comps[ci])
    else:
        raw = sweeps[ci].order[: sweeps[ci].best_k]
        sweep_k = sweeps[ci].best_k
    complement = sorted(covered_set - set(raw))
    chosen = raw if len(raw) < len(complement) else complement

    alpha_cut = _instance_cut(mm.instances, frozenset(chosen))
    vol_s = int(mm.degrees[sorted(chosen)].sum())
    vol_rest = int(mm.degrees.sum()) - vol_s
    alpha = Fraction(alpha_cut, min(vol_s, vol_rest))

    lam2 = lambda2s[ci]
    return ClusterResult(
        nodes=sorted(chosen),
        component=ci,
        sweep_k=sweep_k,
        phi_weighted=float(phi),
        alpha=alpha,
        lambda2=lam2,
        beta=_beta_factor(lam2, sig.skeleton.edge_count),
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

    Repeatedly applies :func:`cluster` to the largest remaining part (as an
    induced subgraph). A part whose subgraph no longer contains the graphlet
    stops splitting; running out of splittable parts before reaching the
    target is an early stop, not a failure.
    """
    if target_k < 2:
        raise ValueError("target_k must be at least 2")
    mm = build_motif_matrix(g, sig)
    covered = mm.covered_nodes()
    if not covered:
        return PartitionResult([], True)
    parts: list[list[int]] = [sorted(covered)]
    exhausted: set[int] = set()
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
            exhausted.add(idx)
            continue
        side = sorted(back[v] for v in res.nodes)
        rest = sorted(set(part) - set(side))
        if not rest:
            exhausted.add(idx)
            continue
        parts[idx : idx + 1] = [side, rest]
        exhausted = {i if i < idx else i + 1 for i in exhausted}
    return PartitionResult(parts, early_stop=len(parts) < target_k)


@dataclass
class OrderingResult:
    order: list[int]
    graphlet_present: bool


def spectral_ordering(
    g: HeteroGraph,
    sig: TypedGraphletSignature,
    dense_threshold: int = DENSE_SOLVER_THRESHOLD,
) -> OrderingResult:
    """Permutation of all nodes by second-eigenvector coordinate.

    Within each component of the motif graph, nodes sort by v2 ascending
    (ties by node id); components concatenate largest first; nodes outside
    every occurrence go last in original order. An absent graphlet degrades
    to the original order with ``graphlet_present=False`` instead of
    raising.
    """
    mm = build_motif_matrix(g, sig)
    if not len(mm.instances):
        return OrderingResult(list(range(g.node_count)), False)
    gH = mm.induced_graph()
    comps = _covered_components(gH)
    comps.sort(key=lambda c: (-len(c), c[0]))
    order: list[int] = []
    for comp in comps:
        lap = build_normalized_laplacian(gH, comp)
        pairs = smallest_eigenpairs(lap, 2, dense_threshold)
        v2 = pairs[1].vector
        idx = np.argsort(v2, kind="stable")
        order.extend(int(lap.nodes[i]) for i in idx)
    order.extend(mm.uncovered_nodes())
    return OrderingResult(order, True)


def spectral_embedding(
    g: HeteroGraph,
    sig: TypedGraphletSignature,
    dim: int,
    drop_trivial: bool = False,
    dense_threshold: int = DENSE_SOLVER_THRESHOLD,
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
    if not len(mm.instances):
        raise GraphletAbsentError("typed graphlet has no instance in the graph")
    gH = mm.induced_graph()
    Z = np.zeros((g.node_count, dim), dtype=np.float64)
    for comp in _covered_components(gH):
        lap = build_normalized_laplacian(gH, comp)
        offset = 1 if drop_trivial else 0
        d_eff = min(dim, lap.dim - offset)
        if d_eff < 1:
            continue
        pairs = smallest_eigenpairs(lap, d_eff + offset, dense_threshold)
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
    g: HeteroGraph,
    sigs: Sequence[TypedGraphletSignature],
    dense_threshold: int = DENSE_SOLVER_THRESHOLD,
) -> RankResult:
    """Rank candidate graphlets by the approximation factor, best first.

    The factor sqrt(8/lambda2) * |E(H)| favours small edge sets whose
    occurrences are well connected; lambda2 comes from the largest component
    of each motif graph. Absent signatures are skipped with a note rather
    than failing the whole ranking.
    """
    ranked: list[MotifRank] = []
    skipped: list[TypedGraphletSignature] = []
    for sig in sigs:
        mm = build_motif_matrix(g, sig)
        if not len(mm.instances):
            skipped.append(sig)
            continue
        gH = mm.induced_graph()
        comps = _covered_components(gH)
        comps.sort(key=lambda c: (-len(c), c[0]))
        lap = build_normalized_laplacian(gH, comps[0])
        lam2 = smallest_eigenpairs(lap, 2, dense_threshold)[1].value
        ranked.append(
            MotifRank(sig, lam2, sig.skeleton.edge_count, _beta_factor(lam2, sig.skeleton.edge_count))
        )
    ranked.sort(key=lambda r: (r.beta, r.signature.skeleton.name, r.signature.node_types or ()))
    return RankResult(ranked, skipped)
