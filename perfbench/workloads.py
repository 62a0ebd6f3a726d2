"""The benchmark's workloads: seeded graphs plus fixed lists of CLI jobs.

A workload names the graphs it generates (all from ``graphgen``) and the
``typedgraphlets`` commands one pass runs on them. The program only ever
sees the written edge-list files; the workload seed reaches it through the
file contents and through the ``--seed`` of the jobs that take one.
"""

from __future__ import annotations

from dataclasses import dataclass

from graphgen import GraphSpec

# Artifacts each command writes under its --output-dir.
ARTIFACTS = {
    "census": ("census.txt",),
    "cluster": ("cluster.txt", "uncovered.txt", "summary.txt"),
    "partition": ("partition.txt",),
    "embed": ("embedding.txt",),
    "order": ("ordering.txt",),
    "rank-motifs": ("motif_rank.txt",),
    "linkpred": ("linkpred.txt", "linkpred.jsonl"),
    "compress-eval": ("compression.txt",),
}

# Warm-up graph size: big enough that every job's code path runs, small
# enough that the warm-up costs little of the set-up time.
WARMUP_NODES = 100
WARMUP_BLOCKS = 4


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``typedgraphlets <command> <args> --input <graph>``.

    ``--seed`` is derived from the workload seed and the job's position, so
    each seed gives different but reproducible runs of the commands that
    read it (linkpred, compress-eval).
    """

    id: str
    command: str
    graph: str
    args: tuple[str, ...] = ()

    def argv(self, index: int, seed: int, input_path: str, output_dir: str) -> list[str]:
        return [self.command, *self.args, "--seed", str(seed * 100 + index),
                "--input", input_path, "--output-dir", output_dir]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    graphs: dict[str, GraphSpec]
    jobs: tuple[Job, ...]

    def warmup_graphs(self) -> dict[str, GraphSpec]:
        """Small graphs of the same shape, one per graph of the workload."""
        return {
            key: GraphSpec(WARMUP_NODES, spec.avg_degree, WARMUP_BLOCKS,
                           spec.node_types, spec.in_share)
            for key, spec in self.graphs.items()
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "untyped-large",
            "one untyped motif per command on a large graph: parse, enumeration, "
            "W, Laplacian, Krylov eigensolve and sweep dominate",
            {"g8k": GraphSpec(8000, 10, 40, 1)},
            (
                Job("cluster-edge", "cluster", "g8k", ("--motif", "edge")),
                Job("cluster-wedge", "cluster", "g8k", ("--motif", "wedge")),
                Job("cluster-triangle", "cluster", "g8k", ("--motif", "triangle")),
                Job("order-triangle", "order", "g8k", ("--motif", "triangle")),
                Job("embed-edge", "embed", "g8k", ("--motif", "edge", "--dim", "16")),
            ),
        ),
        Workload(
            "typed-rank",
            "about 100 typed signatures: census and rank-motifs re-enumerate and "
            "re-type every skeleton; all eigensolves are small and dense",
            {"g300": GraphSpec(300, 6, 10, 3)},
            (
                Job("census", "census", "g300"),
                Job("rank-motifs", "rank-motifs", "g300"),
                Job("partition-wedge", "partition", "g300",
                    ("--motif", "wedge", "--parts", "8")),
            ),
        ),
        Workload(
            "linkpred-eval",
            "evaluation dominates: non-edge sampling on both sides of the 2M-pair "
            "switch, logistic fits, and the compression proxy",
            {
                "g1500": GraphSpec(1500, 8, 30, 2),
                "g3000": GraphSpec(3000, 8, 30, 2),
            },
            (
                Job("linkpred-4cycle", "linkpred", "g1500",
                    ("--motif", "4-cycle", "--dim", "16", "--trials", "2")),
                Job("compress-eval-wedge", "compress-eval", "g1500",
                    ("--motif", "wedge")),
                Job("linkpred-edge", "linkpred", "g3000",
                    ("--motif", "edge", "--dim", "8")),
            ),
        ),
    )
}
