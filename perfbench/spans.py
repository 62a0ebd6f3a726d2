"""Span tracer that wraps the package's layer boundaries from outside.

``Tracer.install()`` replaces each function named in ``BOUNDARIES`` with a
wrapper that records a span (group, parent, start, end, ``ru_maxrss`` at
both ends, error) and any counts its observer derives from the arguments
and result. Module-level functions are replaced in every package module
that binds them, so calls between modules and within one module are both
seen; methods are replaced on their class. ``uninstall()`` restores the
originals. Spans stay in memory; ``layer_metrics`` turns them into the
per-layer metrics.

Hot per-occurrence helpers (``signature_of``, ``edge_embed``,
``resolve_skeleton``, ...) are deliberately not wrapped: a span per call
would cost more than the work it times. Their time lands in the self time
of the wrapped function that calls them.
"""

from __future__ import annotations

import importlib
import itertools
import resource
import time
import weakref
from contextlib import contextmanager
from functools import wraps

PACKAGE = "typedgraphlets"
MODULES = ("cli", "graph", "graphlets", "motifmatrix", "spectral", "evaluation")

# (module, function or Class.method) -> metric group. Each group's metric is
# the summed self time of its spans, so the groups partition library time.
BOUNDARIES = {
    ("graph", "read_typed_edge_list"): "graph.parse",
    ("graph", "load_typed_edge_list"): "graph.parse",
    ("graph", "connected_components"): "graph.components",
    ("graph", "HeteroGraph.subgraph"): "graph.subgraph",
    ("graph", "permute_graph"): "graph.permute",
    ("graphlets", "enumerate_instances"): "graphlets.enumerate",
    ("graphlets", "instances_matching"): "graphlets.match",
    ("graphlets", "census"): "graphlets.census",
    ("motifmatrix", "build_motif_matrix"): "motifmatrix.build",
    ("motifmatrix", "MotifMatrix.induced_graph"): "motifmatrix.build",
    ("motifmatrix", "build_normalized_laplacian"): "motifmatrix.laplacian",
    ("motifmatrix", "normalized_laplacian"): "motifmatrix.laplacian",
    ("spectral", "smallest_eigenpairs"): "spectral.eigensolve",
    ("spectral", "sweep_cut"): "spectral.sweep",
    ("spectral", "cluster"): "spectral.cluster_self",
    ("spectral", "recursive_bipartition"): "spectral.partition_self",
    ("spectral", "spectral_ordering"): "spectral.ordering_self",
    ("spectral", "spectral_embedding"): "spectral.embedding_self",
    ("spectral", "rank_typed_graphlets"): "spectral.rank_self",
    ("evaluation", "split_edges"): "evaluation.split",
    ("evaluation", "link_prediction_eval"): "evaluation.linkpred_self",
    ("evaluation", "train_linear_classifier"): "evaluation.train",
    ("evaluation", "compressed_size_estimate"): "evaluation.compress_estimate",
}

LAYERS = ("graph", "graphlets", "motifmatrix", "spectral", "evaluation")
GROUPS = tuple(dict.fromkeys(BOUNDARIES.values()))


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Span:
    __slots__ = ("group", "parent", "start", "end", "rss0", "rss1", "error", "counts")

    def __init__(self, group: str, parent: int):
        self.group = group
        self.parent = parent
        self.error = None
        self.counts = None
        self.rss0 = _rss_mb()
        self.start = time.perf_counter()

    @property
    def layer(self) -> str:
        return self.group.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for one traced pass; ``root()`` opens a job's span."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._graphs: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._serials = itertools.count()

    # -- recording -------------------------------------------------------
    def _open(self, group: str) -> Span:
        span = Span(group, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.rss1 = _rss_mb()
        self._stack.pop()

    @contextmanager
    def root(self, job_id: str):
        """The ``cli.job`` span around one CLI job."""
        span = self._open("cli.job")
        span.counts = {"job": job_id}
        try:
            yield span
        finally:
            self._close(span)

    def graph_serial(self, g) -> int:
        """Id of a graph object, unique for the tracer's life (repeat counts)."""
        if g not in self._graphs:
            self._graphs[g] = next(self._serials)
        return self._graphs[g]

    def _wrap(self, group: str, fn, observe):
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(group)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                tracer._close(span)
            if observe is not None:
                span.counts = observe(tracer, args, kwargs, result)
            return result

        return traced

    # -- installing ------------------------------------------------------
    def install(self) -> None:
        mods = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
        pkg = importlib.import_module(PACKAGE)
        for (modname, qualname), group in BOUNDARIES.items():
            observe = OBSERVERS.get(qualname)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(mods[modname], cls_name)
                original = cls.__dict__[attr]
                self._set(cls, attr, self._wrap(group, original, observe))
                continue
            original = getattr(mods[modname], qualname)
            wrapper = self._wrap(group, original, observe)
            for holder in (*mods.values(), pkg):
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._set(holder, name, wrapper)

    def _set(self, holder, name: str, value) -> None:
        self._patched.append((holder, name, getattr(holder, name)))
        setattr(holder, name, value)

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._patched):
            setattr(holder, name, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# -- observers: counts derived where the work happens ----------------------
def _obs_enumerate(tracer, args, kwargs, result):
    skel = args[1] if len(args) > 1 else kwargs["skel"]
    name = getattr(skel, "name", skel)
    return {"occurrences": len(result), "key": (tracer.graph_serial(args[0]), name)}


def _obs_match(tracer, args, kwargs, result):
    return {"matched": len(result)}


def _obs_census(tracer, args, kwargs, result):
    return {"signatures": len(result)}


def _obs_build(tracer, args, kwargs, result):
    return {"nnz": len(result.weights)}


def _obs_eigensolve(tracer, args, kwargs, result):
    from typedgraphlets.spectral import DENSE_SOLVER_THRESHOLD

    lap, k = args[0], (args[1] if len(args) > 1 else kwargs["k"])
    threshold = args[2] if len(args) > 2 else kwargs.get("dense_threshold", DENSE_SOLVER_THRESHOLD)
    dense = lap.dim < threshold or k > lap.dim - 2
    return {"dense": dense, "pairs": len(result)}


OBSERVERS = {
    "enumerate_instances": _obs_enumerate,
    "instances_matching": _obs_match,
    "census": _obs_census,
    "build_motif_matrix": _obs_build,
    "smallest_eigenpairs": _obs_eigensolve,
}


# -- aggregation ------------------------------------------------------------
def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the durations of its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def _roots(spans: list[Span]) -> list[int]:
    """Index of each span's outermost ancestor (parents precede children)."""
    root: list[int] = []
    for i, s in enumerate(spans):
        root.append(i if s.parent < 0 else root[s.parent])
    return root


def layer_metrics(spans: list[Span], job_walls: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics for one traced pass.

    Every ``<group>_s`` metric is the summed self time of that group's spans.
    ``job_walls`` maps job id to the wall time the harness measured around
    the CLI call; ``cli.self_s`` is that wall time minus the time inside
    library spans, so the group metrics plus ``cli.self_s`` add up to it.
    """
    own = self_times(spans)
    out: dict[str, float] = {f"{g}_s": 0.0 for g in GROUPS}
    calls: dict[str, int] = {g: 0 for g in GROUPS}
    for s, t in zip(spans, own):
        if s.group != "cli.job":
            out[f"{s.group}_s"] += t
            calls[s.group] += 1

    enum = [s for s in spans if s.group == "graphlets.enumerate" and s.counts]
    keys = {s.counts["key"] for s in enum}
    out["graphlets.enumerate_calls"] = float(len(enum))
    out["graphlets.enumerate_repeat_ratio"] = len(enum) / len(keys) if keys else 0.0
    out["graphlets.occurrences_enumerated"] = float(sum(s.counts["occurrences"] for s in enum))

    typed = matched = 0
    for i, s in enumerate(spans):
        if s.group == "graphlets.match" and s.counts:
            matched += s.counts["matched"]
            typed += sum(c.counts["occurrences"] for c in enum if c.parent == i)
    out["graphlets.occurrences_matched"] = float(matched)
    out["graphlets.match_ratio"] = matched / typed if typed else 0.0
    out["graphlets.signatures"] = float(
        sum(s.counts["signatures"] for s in spans if s.group == "graphlets.census" and s.counts)
    )

    builds = [s for s in spans if s.counts and "nnz" in s.counts]
    out["motifmatrix.build_calls"] = float(len(builds))
    out["motifmatrix.nnz"] = float(sum(s.counts["nnz"] for s in builds))
    out["motifmatrix.laplacian_calls"] = float(calls["motifmatrix.laplacian"])

    eig = [s for s in spans if s.group == "spectral.eigensolve" and s.counts]
    out["spectral.eigensolve_dense_calls"] = float(sum(s.counts["dense"] for s in eig))
    out["spectral.eigensolve_krylov_calls"] = float(sum(not s.counts["dense"] for s in eig))
    out["spectral.eigenpairs"] = float(sum(s.counts["pairs"] for s in eig))
    out["spectral.failures"] = float(
        sum(1 for s in spans if s.layer == "spectral" and s.error is not None)
    )
    out["evaluation.train_calls"] = float(calls["evaluation.train"])

    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(out[f"{g}_s"] for g in GROUPS if g.startswith(layer + "."))
        out[f"{layer}.rss_raise_mb"] = _rss_raise(spans, layer)

    top = sum(s.duration for s in spans if s.parent >= 0 and spans[s.parent].group == "cli.job")
    out["cli.self_s"] = sum(job_walls.values()) - top
    return out


def _rss_raise(spans: list[Span], layer: str) -> float:
    """Rise of ``ru_maxrss`` inside the layer's outermost spans."""
    total = 0.0
    for s in spans:
        if s.layer != layer:
            continue
        p = s.parent
        while p >= 0 and spans[p].layer != layer:
            p = spans[p].parent
        if p < 0:
            total += s.rss1 - s.rss0
    return total


def consistency_errors(spans: list[Span], job_walls: dict[str, float], tol: float) -> list[str]:
    """Check that the spans partition each job's wall time.

    Every library span must lie under a job's ``cli.job`` span and inside
    its parent's interval. Per job, the library self times plus the job's
    CLI self time (its wall time minus the time in library spans, which
    must not be negative) must add up to the wall time the harness measured
    outside the tracer.
    """
    errors = []
    own = self_times(spans)
    root = _roots(spans)
    lib: dict[int, float] = {}
    top: dict[int, float] = {}
    for i, s in enumerate(spans):
        if s.group == "cli.job":
            continue
        if spans[root[i]].group != "cli.job":
            errors.append(f"{s.group} span outside any job")
            continue
        parent = spans[s.parent]
        if s.start < parent.start or s.end > parent.end:
            errors.append(f"{s.group} span escapes its parent {parent.group}")
        lib[root[i]] = lib.get(root[i], 0.0) + own[i]
        if parent.group == "cli.job":
            top[root[i]] = top.get(root[i], 0.0) + s.duration
    for i, s in enumerate(spans):
        if s.group != "cli.job":
            continue
        wall = job_walls[s.counts["job"]]
        cli_self = wall - top.get(i, 0.0)
        total = lib.get(i, 0.0) + cli_self
        if cli_self < 0 or abs(total - wall) > tol * wall:
            errors.append(
                f"{s.counts['job']}: library {lib.get(i, 0.0):.6f} s + cli {cli_self:.6f} s "
                f"!= wall {wall:.6f} s"
            )
    return errors
