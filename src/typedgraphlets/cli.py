"""Command-line frontend wiring the library into reproducible runs.

Every command reads one typed edge-list file, writes its artifacts under
``--output-dir``, and exits with a code that identifies the failure family:
0 success, 1 other error, 2 usage, 3 input parse error, 4 absent graphlet,
5 eigensolver non-convergence.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .errors import (
    DegenerateCutError,
    EdgeListFormatError,
    EigenConvergenceError,
    GraphletAbsentError,
    UnknownTypeError,
    ZeroVolumeError,
)
from .evaluation import (
    EDGE_OPERATORS,
    compressed_size_estimate,
    link_prediction_eval,
    summarize_trials,
)
from .graph import HeteroGraph, read_typed_edge_list
from .graphlets import (
    brute_force_instances,
    census,
    enumerate_instances,
    format_signature,
    parse_signature_spec,
)
from .motifmatrix import build_motif_matrix
from .spectral import (
    cluster,
    rank_typed_graphlets,
    recursive_bipartition,
    spectral_embedding,
    spectral_ordering,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_ABSENT = 4
EXIT_NO_CONVERGENCE = 5


def _fmt(x) -> str:
    return format(float(x), ".12g")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="typedgraphlets",
        description="Typed-graphlet spectral clustering, embeddings, and orderings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, handler, motif_required=True):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        p.add_argument("--input", required=True, help="typed edge-list file")
        p.add_argument("--output-dir", default=".", help="directory for artifacts")
        p.add_argument(
            "--motif",
            required=motif_required,
            help="skeleton[:typeA,typeB,...] or 'best' for the top-ranked signature",
        )
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--strict-types", action="store_true",
                       help="position-sensitive typed signatures")
        return p

    p = command("census", "typed graphlet census table", _cmd_census, motif_required=False)
    p.add_argument("--records", action="store_true",
                   help="also write line-delimited records (census.jsonl)")

    p = command("cluster", "typed-graphlet spectral sweep cluster", _cmd_cluster)
    p.add_argument("--dump-matrix", action="store_true",
                   help="write the motif matrix as coordinate triples")
    p.add_argument("--oracle-check", action="store_true",
                   help="cross-check fast enumeration against the subset-scan oracle")

    p = command("partition", "recursive bipartitioning", _cmd_partition)
    p.add_argument("--parts", type=int, default=2)

    p = command("embed", "spectral node embeddings", _cmd_embed)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--drop-trivial", action="store_true",
                   help="skip the constant-direction eigenvector")

    command("order", "spectral vertex ordering", _cmd_order)

    command("rank-motifs", "rank typed graphlets by approximation factor", _cmd_rank_motifs,
            motif_required=False)

    p = command("linkpred", "link-prediction evaluation harness", _cmd_linkpred)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--fraction", type=float, default=0.5)
    p.add_argument("--operator", default="all",
                   help="edge operator or 'all' (%s)" % ",".join(EDGE_OPERATORS))
    p.add_argument("--edge-type", default=None,
                   help="restrict the held-out split to one edge type label")
    p.add_argument("--trials", type=int, default=1,
                   help="number of seeded repetitions (seeds seed..seed+trials-1)")
    p.add_argument("--drop-trivial", action="store_true")

    command("compress-eval", "ordering-sensitive byte-size comparison", _cmd_compress_eval)

    return parser


def _typing_mode(args: argparse.Namespace) -> str:
    return "strict" if args.strict_types else "multiset"


def _ranking(g: HeteroGraph, args: argparse.Namespace):
    return rank_typed_graphlets(g, list(census(g, typing_mode=_typing_mode(args))))


def _resolve_motif(g: HeteroGraph, args: argparse.Namespace):
    if args.motif == "best":
        ranking = _ranking(g, args)
        if not ranking.ranked:
            raise GraphletAbsentError("no typed graphlet occurs in this graph")
        return ranking.ranked[0].signature
    return parse_signature_spec(g, args.motif, _typing_mode(args))


def _write(args: argparse.Namespace, filename: str, text: str) -> None:
    os.makedirs(args.output_dir, exist_ok=True)
    with open(os.path.join(args.output_dir, filename), "w", encoding="utf-8") as fh:
        fh.write(text)


def _names(g: HeteroGraph, nodes) -> list[str]:
    return [g.node_names[v] for v in nodes]


def _resolve_edge_type(g: HeteroGraph, label: str | None) -> int | None:
    if label is None:
        return None
    if label not in g.edge_type_names:
        raise UnknownTypeError(f"unknown edge type '{label}'")
    return g.edge_type_names.index(label)


def _cmd_census(g: HeteroGraph, args: argparse.Namespace) -> int:
    table = census(g, typing_mode=_typing_mode(args))
    lines = []
    records = []
    for sig, count in table.items():
        rendered = format_signature(sig, g)
        lines.append(f"{sig.skeleton.name} {rendered} {count}")
        records.append(
            {"skeleton": sig.skeleton.name, "signature": rendered, "count": count}
        )
    _write(args, "census.txt", "\n".join(lines) + ("\n" if lines else ""))
    if args.records:
        payload = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        _write(args, "census.jsonl", payload)
    print(f"census: {len(table)} signatures over {sum(table.values())} occurrences")
    return EXIT_OK


def _cmd_cluster(g: HeteroGraph, args: argparse.Namespace) -> int:
    sig = _resolve_motif(g, args)
    if args.oracle_check:
        fast = set(enumerate_instances(g, sig.skeleton))
        slow = set(brute_force_instances(g, sig.skeleton))
        if fast != slow:
            print("oracle check failed: enumeration mismatch", file=sys.stderr)
            return EXIT_ERROR
    res = cluster(g, sig)
    _write(args, "cluster.txt", "\n".join(_names(g, res.nodes)) + "\n")
    _write(args, "uncovered.txt", "".join(f"{name}\n" for name in _names(g, res.uncovered)))
    if args.dump_matrix:
        _write(args, "motif_matrix.txt", build_motif_matrix(g, sig).dump())
    summary = (
        f"component={res.component} k={res.sweep_k} "
        f"phi_weighted={_fmt(res.phi_weighted)} alpha_typed={_fmt(res.alpha)} "
        f"lambda2={_fmt(res.lambda2)} beta={_fmt(res.beta)}"
    )
    _write(args, "summary.txt", summary + "\n")
    print(f"motif={format_signature(sig, g)}")
    print(summary)
    return EXIT_OK


def _cmd_partition(g: HeteroGraph, args: argparse.Namespace) -> int:
    sig = _resolve_motif(g, args)
    res = recursive_bipartition(g, sig, args.parts)
    lines = []
    for i, part in enumerate(res.parts):
        lines.append(f"# part {i} size {len(part)}")
        lines.extend(_names(g, part))
    _write(args, "partition.txt", "\n".join(lines) + ("\n" if lines else ""))
    note = " (early stop)" if res.early_stop else ""
    print(f"partition: {len(res.parts)} of {args.parts} parts{note}")
    return EXIT_OK


def _cmd_embed(g: HeteroGraph, args: argparse.Namespace) -> int:
    sig = _resolve_motif(g, args)
    Z = spectral_embedding(g, sig, args.dim, drop_trivial=args.drop_trivial)
    lines = [f"{Z.shape[0]} {Z.shape[1]}"]
    for row in Z:
        lines.append(" ".join(format(x, ".17g") for x in row))
    _write(args, "embedding.txt", "\n".join(lines) + "\n")
    print(f"embedding: {Z.shape[0]} x {Z.shape[1]}")
    return EXIT_OK


def _cmd_order(g: HeteroGraph, args: argparse.Namespace) -> int:
    sig = _resolve_motif(g, args)
    res = spectral_ordering(g, sig)
    _write(args, "ordering.txt", "\n".join(_names(g, res.order)) + "\n")
    if not res.graphlet_present:
        print("warning: graphlet absent, emitted original order", file=sys.stderr)
    print(f"ordering: {len(res.order)} nodes")
    return EXIT_OK


def _cmd_rank_motifs(g: HeteroGraph, args: argparse.Namespace) -> int:
    ranking = _ranking(g, args)
    lines = ["signature lambda2 m beta"]
    for row in ranking.ranked:
        lines.append(
            f"{format_signature(row.signature, g)} {_fmt(row.lambda2)} "
            f"{row.edge_count} {_fmt(row.beta)}"
        )
    _write(args, "motif_rank.txt", "\n".join(lines) + "\n")
    print(f"ranked {len(ranking.ranked)} signatures")
    return EXIT_OK


def _cmd_linkpred(g: HeteroGraph, args: argparse.Namespace) -> int:
    sig = _resolve_motif(g, args)
    etype = _resolve_edge_type(g, args.edge_type)
    ops = EDGE_OPERATORS if args.operator == "all" else (args.operator,)
    results = [
        link_prediction_eval(
            g, sig, args.dim, fraction=args.fraction, seed=args.seed + t,
            edge_type=etype, operators=ops, drop_trivial=args.drop_trivial,
        )
        for t in range(args.trials)
    ]
    rendered = format_signature(sig, g)
    lines = [f"# motif={rendered} dim={args.dim} fraction={_fmt(args.fraction)} seed={args.seed} trials={args.trials}"]
    lines.append("seed operator f1 precision recall auc best")
    records = []
    for res in results:
        for op, rep in res.per_operator.items():
            auc = "nan" if rep.auc is None else _fmt(rep.auc)
            marker = "*" if op == res.best_operator else "-"
            lines.append(
                f"{res.seed} {op} {_fmt(rep.f1)} {_fmt(rep.precision)} "
                f"{_fmt(rep.recall)} {auc} {marker}"
            )
            records.append(
                {
                    "seed": res.seed,
                    "signature": rendered,
                    "operator": op,
                    "f1": rep.f1,
                    "precision": rep.precision,
                    "recall": rep.recall,
                    "auc": rep.auc,
                    "best": op == res.best_operator,
                }
            )
    if args.trials > 1:
        lines.append("# mean/std over trials")
        summary = summarize_trials(results)
        for op, stats in summary.items():
            parts = " ".join(f"{k}={_fmt(v)}" for k, v in sorted(stats.items()))
            lines.append(f"{op} {parts}")
    _write(args, "linkpred.txt", "\n".join(lines) + "\n")
    payload = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    _write(args, "linkpred.jsonl", payload)
    best = results[0].best_operator
    print(f"linkpred: motif={rendered} best_operator={best}")
    return EXIT_OK


def _cmd_compress_eval(g: HeteroGraph, args: argparse.Namespace) -> int:
    sig = _resolve_motif(g, args)
    native = compressed_size_estimate(g, list(range(g.node_count)))
    rng = random.Random(args.seed)
    perm = list(range(g.node_count))
    rng.shuffle(perm)
    rand_bytes = compressed_size_estimate(g, perm)
    ordering = spectral_ordering(g, sig)
    tgs_bytes = compressed_size_estimate(g, ordering.order)
    lines = [
        "ordering bytes",
        f"native {native}",
        f"random {rand_bytes}",
        f"tgs {tgs_bytes}",
    ]
    _write(args, "compression.txt", "\n".join(lines) + "\n")
    print(f"compress-eval: native={native} random={rand_bytes} tgs={tgs_bytes}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        # Checked before the input is read: a bad value must not cost a parse.
        if getattr(args, "trials", 1) < 1:
            raise ValueError("trials must be at least 1")
        if getattr(args, "operator", "all") not in ("all", *EDGE_OPERATORS):
            raise ValueError(f"unknown edge operator '{args.operator}'")
        if not 0 < getattr(args, "fraction", 0.5) < 1:
            raise ValueError("fraction must lie strictly between 0 and 1")
        if getattr(args, "dim", 1) < 1:
            raise ValueError("embedding dimension must be at least 1")
        if getattr(args, "parts", 2) < 2:
            raise ValueError("target_k must be at least 2")
        try:
            g = read_typed_edge_list(args.input)
        except OSError as exc:
            raise EdgeListFormatError(str(exc)) from exc
        if g.collapsed_duplicates:
            print(
                f"note: collapsed {g.collapsed_duplicates} duplicate directed edges",
                file=sys.stderr,
            )
        return args.handler(g, args)
    except (EdgeListFormatError, UnknownTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except GraphletAbsentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ABSENT
    except EigenConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (DegenerateCutError, ZeroVolumeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry_point() -> None:  # pragma: no cover
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    entry_point()
