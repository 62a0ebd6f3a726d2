"""Command-line frontend wiring the library into reproducible runs.

Every command reads one typed edge-list file, writes its artifacts under
``--output-dir``, and exits with a code that identifies the failure family:
0 success, 1 other error, 2 usage, 3 input parse error, 4 absent graphlet,
5 eigensolver non-convergence. The signature text the commands read and
write (``skeleton:typeA,typeB,...`` in, ``skel[typeA,...]`` out) is parsed
and rendered here.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from typing import Iterable

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
    TypedGraphletSignature,
    _automorphism_perms,
    census,
    enumerate_instances,
    resolve_skeleton,
)
from .motifmatrix import build_motif_matrix
from .oracles import _brute_force_weights, brute_force_instances
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


def parse_signature_spec(
    g: HeteroGraph, spec: str, typing_mode: str = "multiset"
) -> TypedGraphletSignature:
    """Parse ``skeleton`` or ``skeleton:typeA,typeB,...`` against a graph.

    With no type list the signature is an untyped wildcard. The skeleton and
    type labels must exist (UnknownTypeError otherwise), and the list length
    must match the skeleton's node count. Edge types are left unconstrained
    (single-edge-type inputs make them redundant anyway).
    """
    name, _, typepart = spec.partition(":")
    name = name.strip()
    try:
        skel = resolve_skeleton(name)
    except KeyError:
        raise UnknownTypeError(f"signature '{spec}': unknown skeleton '{name}'") from None
    if not typepart:
        return TypedGraphletSignature(skel, None, None, typing_mode)
    labels = [t.strip() for t in typepart.split(",") if t.strip()]
    if len(labels) != skel.node_count:
        raise UnknownTypeError(
            f"signature '{spec}': expected {skel.node_count} node types, got {len(labels)}"
        )
    ids = []
    for label in labels:
        try:
            ids.append(g.node_type_id(label))
        except KeyError:
            raise UnknownTypeError(
                f"signature '{spec}': unknown node type '{label}'"
            ) from None
    if typing_mode == "strict":
        # Positional specs canonicalise over skeleton automorphisms so that
        # equivalent orientations of the same typed shape match each other.
        autos = _automorphism_perms(skel)
        node_types = min(
            tuple(ids[a[i]] for i in range(skel.node_count)) for a in autos
        )
    elif typing_mode == "set":
        node_types = tuple(sorted(set(ids)))
    else:
        node_types = tuple(sorted(ids))
    return TypedGraphletSignature(skel, node_types, None, typing_mode)


def format_signature(sig: TypedGraphletSignature, g: HeteroGraph) -> str:
    """Render a signature as ``skel[typeA,typeB,...]`` with readable labels.

    Multiset and set modes list node types sorted by label; strict mode keeps
    canonical position order. Edge types are appended in a second bracket
    only when the graph has more than one edge type.
    """
    if sig.node_types is None and sig.edge_types is None:
        return sig.skeleton.name
    text = sig.skeleton.name
    if sig.node_types is not None:
        labels = [g.node_type_names[t] for t in sig.node_types]
        if sig.typing_mode != "strict":
            labels.sort()
        text += "[" + ",".join(labels) + "]"
    if sig.edge_types is not None and g.edge_type_count > 1:
        elabels = [g.edge_type_names[t] for t in sig.edge_types]
        if sig.typing_mode != "strict":
            elabels.sort()
        text += "[" + ",".join(elabels) + "]"
    return text


def _fmt(x) -> str:
    return format(float(x), ".12g")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="typedgraphlets",
        description="Typed-graphlet spectral clustering, embeddings, and orderings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, handler, motif=True):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        p.add_argument("--input", required=True, help="typed edge-list file")
        p.add_argument("--output-dir", default=".", help="directory for artifacts")
        if motif:
            p.add_argument("--motif", required=True, help="skeleton[:typeA,typeB,...] "
                           "or 'best' for the top-ranked signature")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--strict-types", action="store_true",
                       help="position-sensitive typed signatures")
        return p

    p = command("census", "typed graphlet census table", _cmd_census, motif=False)
    p.add_argument("--records", action="store_true",
                   help="also write line-delimited records (census.jsonl)")

    p = command("cluster", "typed-graphlet spectral sweep cluster", _cmd_cluster)
    p.add_argument("--dump-matrix", action="store_true",
                   help="write the motif matrix as coordinate triples")
    p.add_argument("--oracle-check", action="store_true",
                   help="cross-check fast enumeration and the motif matrix against "
                   "the subset-scan oracle")

    p = command("partition", "recursive bipartitioning", _cmd_partition)
    p.add_argument("--parts", type=int, default=2)

    p = command("embed", "spectral node embeddings", _cmd_embed)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--drop-trivial", action="store_true",
                   help="skip the constant-direction eigenvector")

    command("order", "spectral vertex ordering", _cmd_order)

    command("rank-motifs", "rank typed graphlets by approximation factor", _cmd_rank_motifs,
            motif=False)

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


def _write(args: argparse.Namespace, filename: str, lines: Iterable[str]) -> None:
    """Write ``lines`` to ``filename``, each ended by one newline."""
    # The trailing "" ends the last line without a copy of each line; [] gives "".
    text = "\n".join([*lines, ""])
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
    records = [
        {"skeleton": sig.skeleton.name, "signature": format_signature(sig, g), "count": count}
        for sig, count in table.items()
    ]
    _write(args, "census.txt", (f"{r['skeleton']} {r['signature']} {r['count']}" for r in records))
    if args.records:
        _write(args, "census.jsonl", (json.dumps(r, sort_keys=True) for r in records))
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
        if build_motif_matrix(g, sig).weights != _brute_force_weights(g, sig):
            print("oracle check failed: motif matrix mismatch", file=sys.stderr)
            return EXIT_ERROR
    res = cluster(g, sig)
    _write(args, "cluster.txt", _names(g, res.nodes))
    _write(args, "uncovered.txt", _names(g, res.uncovered))
    if args.dump_matrix:
        _write(args, "motif_matrix.txt", build_motif_matrix(g, sig).dump().splitlines())
    summary = (
        f"component={res.component} k={res.sweep_k} "
        f"phi_weighted={_fmt(res.phi_weighted)} alpha_typed={_fmt(res.alpha)} "
        f"lambda2={_fmt(res.lambda2)} beta={_fmt(res.beta)}"
    )
    _write(args, "summary.txt", [summary])
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
    _write(args, "partition.txt", lines)
    note = " (early stop)" if res.early_stop else ""
    print(f"partition: {len(res.parts)} of {args.parts} parts{note}")
    return EXIT_OK


def _cmd_embed(g: HeteroGraph, args: argparse.Namespace) -> int:
    sig = _resolve_motif(g, args)
    Z = spectral_embedding(g, sig, args.dim, drop_trivial=args.drop_trivial)
    fmt = " ".join(["%.17g"] * Z.shape[1])
    lines = [f"{Z.shape[0]} {Z.shape[1]}", *(fmt % tuple(row) for row in Z.tolist())]
    _write(args, "embedding.txt", lines)
    print(f"embedding: {Z.shape[0]} x {Z.shape[1]}")
    return EXIT_OK


def _cmd_order(g: HeteroGraph, args: argparse.Namespace) -> int:
    sig = _resolve_motif(g, args)
    res = spectral_ordering(g, sig)
    _write(args, "ordering.txt", _names(g, res.order))
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
    _write(args, "motif_rank.txt", lines)
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
    records = [
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
        for res in results
        for op, rep in res.per_operator.items()
    ]
    lines.extend(
        f"{r['seed']} {r['operator']} {_fmt(r['f1'])} {_fmt(r['precision'])} "
        f"{_fmt(r['recall'])} {'nan' if r['auc'] is None else _fmt(r['auc'])} "
        f"{'*' if r['best'] else '-'}"
        for r in records
    )
    if args.trials > 1:
        lines.append("# mean/std over trials")
        for op, stats in summarize_trials(results).items():
            parts = " ".join(f"{k}={_fmt(v)}" for k, v in sorted(stats.items()))
            lines.append(f"{op} {parts}")
    _write(args, "linkpred.txt", lines)
    _write(args, "linkpred.jsonl", (json.dumps(r, sort_keys=True) for r in records))
    print(f"linkpred: motif={rendered} best_operator={results[0].best_operator}")
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
    _write(args, "compression.txt", lines)
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
