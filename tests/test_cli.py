import argparse
import json
import os

import numpy as np
import pytest

from typedgraphlets import (
    EdgeListFormatError,
    LinkPredResult,
    MetricsReport,
    build_normalized_laplacian,
    cli,
    load_typed_edge_list,
    parse_signature_spec,
    read_typed_edge_list,
    spectral,
    spectral_embedding,
)
from typedgraphlets.cli import main

from conftest import block_graph, graph_to_edge_list_text

BARBELL_FILE = """# two typed triangles joined by a bridge
a b U U e
a c U U e
b c U U e
c d U U e
d e U U e
d f U U e
e f U U e
"""

WEDGE_FILE = "a b U M\nb c M U\n"


def run_cli(tmp_path, *args):
    out = tmp_path / "out"
    code = main(list(args) + ["--output-dir", str(out)])
    return code, out


def write_input(tmp_path, text, name="g.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_census_typed_fixture(tmp_path, capsys):
    path = write_input(tmp_path, WEDGE_FILE)
    code, out = run_cli(tmp_path, "census", "--input", path, "--records")
    assert code == 0
    census = (out / "census.txt").read_text()
    assert census == "wedge wedge[M,U,U] 1\n"
    records = [json.loads(line) for line in (out / "census.jsonl").read_text().splitlines()]
    assert records == [{"count": 1, "signature": "wedge[M,U,U]", "skeleton": "wedge"}]


@pytest.mark.parametrize("strict, expected", [
    (False, ["wedge wedge[M,U,U][r,s] 1", "wedge wedge[M,U,U][s,s] 1",
             "4-path 4-path[M,U,U,U][r,s,s] 1"]),
    # Strict mode keeps canonical position order in both brackets.
    (True, ["wedge wedge[U,U,M][s,s] 1", "wedge wedge[U,M,U][r,s] 1",
            "4-path 4-path[U,U,M,U][s,s,r] 1"]),
])
def test_census_two_relation_graph_renders_the_edge_type_bracket(tmp_path, capsys, strict,
                                                                   expected):
    path = write_input(tmp_path, "a b U M r\nb c M U s\nc d U U s\n")
    code, out = run_cli(tmp_path, "census", "--input", path, "--records",
                        *(["--strict-types"] if strict else []))
    assert code == 0
    assert (out / "census.txt").read_text() == "".join(f"{line}\n" for line in expected)
    records = [json.loads(line) for line in (out / "census.jsonl").read_text().splitlines()]
    assert [f"{r['skeleton']} {r['signature']} {r['count']}" for r in records] == expected


def test_cluster_barbell_summary(tmp_path, capsys):
    path = write_input(tmp_path, BARBELL_FILE)
    code, out = run_cli(
        tmp_path, "cluster", "--input", path, "--motif", "triangle:U,U,U",
        "--dump-matrix",
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "alpha_typed=0" in printed
    nodes = (out / "cluster.txt").read_text().split()
    assert sorted(nodes) in (["a", "b", "c"], ["d", "e", "f"])
    summary = (out / "summary.txt").read_text()
    assert "phi_weighted=0" in summary and "beta=" in summary
    dump = (out / "motif_matrix.txt").read_text().splitlines()
    assert dump[0] == "6 6"  # the bridge edge carries no triangle


def test_cluster_motif_best(tmp_path, capsys):
    path = write_input(tmp_path, BARBELL_FILE)
    code, out = run_cli(tmp_path, "cluster", "--input", path, "--motif", "best")
    assert code == 0
    assert "motif=" in capsys.readouterr().out


def test_unknown_command_usage_exit(tmp_path, capsys):
    assert main(["frobnicate", "--input", "x"]) == 2


def test_parse_error_exit_code(tmp_path):
    path = write_input(tmp_path, "a a U U e\n")
    code, _ = run_cli(tmp_path, "census", "--input", path)
    assert code == 3


# Each document holds two faults. The first faulty line wins; within a line the
# order is directive, column count, self-loop, source type, target type,
# conflicting repeat. The messages are pinned byte for byte.
PARSE_PRECEDENCE = [
    ("a b U U e\nb a U U f\nc c U U e\n",
     "line 2: edge b-a repeats with conflicting edge types"),
    ("a b U U e\na a M M e\n", "line 2: self-loop at 'a'"),
    ("%node a U x\n", "line 1: unrecognised directive (expected '%node <id> <type>')"),
    ("%nodes a U\n", "line 1: unrecognised directive (expected '%node <id> <type>')"),
    ("a a U U e x\n",
     "line 1: expected 'src dst src_type dst_type [edge_type]', got 6 columns"),
    ("a a U\n", "line 1: expected 'src dst src_type dst_type [edge_type]', got 3 columns"),
    ("a b U U e # note\nb b U U\n",
     "line 1: expected 'src dst src_type dst_type [edge_type]', got 7 columns"),
    ("a b U U\na b M M\n", "line 2: node 'a' declared with conflicting types 'U' and 'M'"),
    ("a b U U\nb a U M f\n", "line 2: node 'a' declared with conflicting types 'U' and 'M'"),
    ("a b U U e\nb a M U f\n", "line 2: node 'b' declared with conflicting types 'U' and 'M'"),
    ("a b U U\na c M U\n%nodes x U\n",
     "line 2: node 'a' declared with conflicting types 'U' and 'M'"),
    ("a b U U e\nb a U U f\n%node a\n", "line 2: edge b-a repeats with conflicting edge types"),
    ("%node a U\n%node a M\na b U\n",
     "line 2: node 'a' declared with conflicting types 'U' and 'M'"),
    ("a b U U\nb a U U f\nc d U\n", "line 2: edge b-a repeats with conflicting edge types"),
    ("a a U U\n\n  # c\na b U U e 2.5\n", "line 1: self-loop at 'a'"),
    ("a b U\n%nodes x U\n",
     "line 1: expected 'src dst src_type dst_type [edge_type]', got 3 columns"),
    ("a b U U e x\n%node a\n",
     "line 1: expected 'src dst src_type dst_type [edge_type]', got 6 columns"),
    # splitlines numbering: CRLF, a whitespace-only line, a form feed
    ("a b U U\r\n \t\r\n\t# c\r\nb b U U\r\na a M\n", "line 4: self-loop at 'b'"),
    ("a b U U\x0cb b U U\n%nodes\n", "line 2: self-loop at 'b'"),
]


@pytest.mark.parametrize("text, message", PARSE_PRECEDENCE)
def test_parse_errors_report_the_first_fault_in_precedence_order(tmp_path, capsys, text,
                                                                   message):
    with pytest.raises(EdgeListFormatError) as exc:
        load_typed_edge_list(text)
    assert str(exc.value) == message
    path = tmp_path / "g.txt"
    path.write_bytes(text.encode())
    code, out = run_cli(tmp_path, "census", "--input", str(path))
    assert code == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


MARKED = "starts with '{}', which marks a comment or a directive"


@pytest.mark.parametrize("text, message", [
    # As a source, '#a' would read as a comment line and drop the edge.
    ("b #a U U\n#a c U U\n", "line 1: node id '#a' " + MARKED.format("#")),
    ("a b U U\nb %c U U\n", "line 2: node id '%c' " + MARKED.format("%")),
    ("%node #x U\na b U U\n", "line 1: node id '#x' " + MARKED.format("#")),
    ("a b U U\n%node %x U\n", "line 2: node id '%x' " + MARKED.format("%")),
    ("a b U U\na #c U U\n", "line 2: node id '#c' " + MARKED.format("#")),
    # Precedence: column count first; the source's type before the target's id.
    ("a #b U\n", "line 1: expected 'src dst src_type dst_type [edge_type]', got 3 columns"),
    ("a b U U\na #c M U\n", "line 2: node 'a' declared with conflicting types 'U' and 'M'"),
])
def test_node_ids_starting_with_a_line_marker_exit_3(tmp_path, capsys, text, message):
    with pytest.raises(EdgeListFormatError) as exc:
        load_typed_edge_list(text)
    assert str(exc.value) == message
    code, out = run_cli(tmp_path, "census", "--input", write_input(tmp_path, text))
    assert code == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_missing_file_exit_code(tmp_path):
    code, _ = run_cli(tmp_path, "census", "--input", str(tmp_path / "nope.txt"))
    assert code == 3


def test_non_utf8_input_exits_as_a_parse_error(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_bytes(b"a b U U\n\xff\n")
    code, _ = run_cli(tmp_path, "census", "--input", str(path))
    assert code == 3
    assert "error: input is not UTF-8: byte offset 8" in capsys.readouterr().err


def test_unwritable_output_dir_exits_as_an_error(tmp_path, capsys):
    path = write_input(tmp_path, WEDGE_FILE)
    code = main(["census", "--input", path, "--output-dir", os.path.join(path, "sub")])
    assert code == 1
    assert "error: " in capsys.readouterr().err


def test_linkpred_on_a_graph_without_edges(tmp_path, capsys):
    path = write_input(tmp_path, "%node a U\n%node b U\n")
    code, out = run_cli(tmp_path, "linkpred", "--input", path, "--motif", "edge")
    assert code == 1
    assert "error: graph has no edges to hold out" in capsys.readouterr().err
    assert not out.exists()


def test_linkpred_relation_with_every_edge_held_out(tmp_path, capsys):
    path = write_input(tmp_path, "a b U U r\nb c U U s\nc d U U s\nd a U U s\n")
    code, out = run_cli(tmp_path, "linkpred", "--input", path, "--motif", "edge",
                        "--edge-type", "r")
    assert code == 1
    err = capsys.readouterr().err
    assert "error: edge type 'r': the split left none of its edges for training" in err
    assert not out.exists()


@pytest.mark.parametrize("edge_type", [(), ("--edge-type", "r")])
def test_linkpred_one_edge_graph_exits_from_the_embedding(tmp_path, capsys, edge_type):
    # The held-out edge was the only one: the train graph has no edge motif.
    path = write_input(tmp_path, "a b U U r\n%node c U\n%node d U\n")
    code, _ = run_cli(tmp_path, "linkpred", "--input", path, "--motif", "edge", *edge_type)
    assert code == 4


@pytest.mark.parametrize("command", ["census", "rank-motifs"])
def test_commands_that_resolve_no_motif_reject_motif(tmp_path, capsys, command):
    path = write_input(tmp_path, WEDGE_FILE)
    code, out = run_cli(tmp_path, command, "--input", path, "--motif", "bogus")
    assert code == 2
    assert "unrecognized arguments: --motif bogus" in capsys.readouterr().err
    assert not out.exists()
    assert main([command, "--help"]) == 0
    usage = capsys.readouterr().out
    assert "--motif" not in usage and "--seed" in usage
    code, _ = run_cli(tmp_path, command, "--input", path, "--seed", "3")
    assert code == 0


def test_motif_best_without_a_typed_graphlet_exits_absent(tmp_path, capsys):
    path = write_input(tmp_path, "a b U U\n")
    code, out = run_cli(tmp_path, "cluster", "--input", path, "--motif", "best")
    assert code == 4
    assert "error: no typed graphlet occurs in this graph" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_edge_type_exits_as_a_parse_error(tmp_path, capsys):
    path = write_input(tmp_path, BARBELL_FILE)
    code, out = run_cli(tmp_path, "linkpred", "--input", path, "--motif", "edge",
                        "--edge-type", "x")
    assert code == 3
    assert "error: unknown edge type 'x'" in capsys.readouterr().err
    assert not out.exists()


def test_repeated_edge_prints_the_collapse_note(tmp_path, capsys):
    path = write_input(tmp_path, "a b U U\nb a U U\nb c U U\n")
    code, out = run_cli(tmp_path, "census", "--input", path)
    assert code == 0
    assert capsys.readouterr().err == "note: collapsed 1 duplicate directed edges\n"
    assert (out / "census.txt").read_text() == "wedge wedge[U,U,U] 1\n"


def test_absent_graphlet_exit_code(tmp_path):
    path = write_input(tmp_path, WEDGE_FILE)
    code, _ = run_cli(tmp_path, "cluster", "--input", path, "--motif", "4-clique")
    assert code == 4


def test_unknown_type_exit_code(tmp_path):
    path = write_input(tmp_path, WEDGE_FILE)
    code, _ = run_cli(tmp_path, "cluster", "--input", path, "--motif", "wedge:U,M,X")
    assert code == 3


def test_unknown_skeleton_exit_code(tmp_path, capsys):
    path = write_input(tmp_path, WEDGE_FILE)
    code, _ = run_cli(tmp_path, "cluster", "--input", path, "--motif", "bogus")
    assert code == 3
    assert "error: signature 'bogus': unknown skeleton 'bogus'" in capsys.readouterr().err


def test_nonconvergence_exit_code(tmp_path, monkeypatch):
    from typedgraphlets.errors import EigenConvergenceError

    def stall(*args, **kwargs):
        raise EigenConvergenceError("stalled", residual=0.5)

    monkeypatch.setattr("typedgraphlets.cli.cluster", stall)
    path = write_input(tmp_path, BARBELL_FILE)
    code, _ = run_cli(tmp_path, "cluster", "--input", path, "--motif", "triangle")
    assert code == 5


def test_oracle_check_passes_on_barbell(tmp_path, capsys):
    path = write_input(tmp_path, BARBELL_FILE)
    code, _ = run_cli(tmp_path, "cluster", "--input", path, "--motif", "triangle",
                      "--oracle-check")
    assert code == 0
    assert "oracle check failed" not in capsys.readouterr().err


def test_oracle_check_catches_a_dropped_occurrence(tmp_path, capsys, monkeypatch):
    from typedgraphlets.graphlets import enumerate_instances

    monkeypatch.setattr("typedgraphlets.cli.enumerate_instances",
                        lambda g, skel: enumerate_instances(g, skel)[1:])
    path = write_input(tmp_path, BARBELL_FILE)
    code, out = run_cli(tmp_path, "cluster", "--input", path, "--motif", "triangle",
                        "--oracle-check")
    assert code == 1
    assert "oracle check failed: enumeration mismatch" in capsys.readouterr().err
    assert not out.exists()


def test_oracle_check_passes_the_wedge_closed_form(tmp_path, capsys):
    path = write_input(tmp_path, BARBELL_FILE)
    code, out = run_cli(tmp_path, "cluster", "--input", path, "--motif", "wedge",
                        "--oracle-check")
    assert code == 0
    assert "oracle check failed" not in capsys.readouterr().err
    assert (out / "cluster.txt").exists()


def test_oracle_check_catches_a_wrong_motif_matrix_weight(tmp_path, capsys, monkeypatch):
    import dataclasses

    from typedgraphlets import WeightedGraph, motifmatrix

    closed_form = motifmatrix._wedge_matrix

    def off_by_one(*args):
        mm = closed_form(*args)
        weights = mm.motif_graph.pair_weights.copy()
        weights[0] += 1
        wg = WeightedGraph.from_pairs(mm.graph.node_count, mm.motif_graph.pairs, weights)
        return dataclasses.replace(mm, motif_graph=wg)

    monkeypatch.setattr(motifmatrix, "_wedge_matrix", off_by_one)
    path = write_input(tmp_path, BARBELL_FILE)
    code, out = run_cli(tmp_path, "cluster", "--input", path, "--motif", "wedge",
                        "--oracle-check")
    assert code == 1
    assert "oracle check failed: motif matrix mismatch" in capsys.readouterr().err
    assert not out.exists()

def test_oracle_check_rejects_graphs_past_the_subset_scan_limit(tmp_path, capsys):
    path = write_input(tmp_path, "".join(f"v{i} v{i + 1} U U\n" for i in range(64)))
    code, _ = run_cli(tmp_path, "cluster", "--input", path, "--motif", "edge",
                      "--oracle-check")
    assert code == 1
    assert "brute force limited to 64 nodes" in capsys.readouterr().err


def test_order_and_embed_artifacts(tmp_path):
    path = write_input(tmp_path, BARBELL_FILE)
    code, out = run_cli(tmp_path, "order", "--input", path, "--motif", "triangle")
    assert code == 0
    names = (out / "ordering.txt").read_text().split()
    assert sorted(names) == ["a", "b", "c", "d", "e", "f"]

    code, out2 = run_cli(tmp_path, "embed", "--input", path, "--motif", "triangle",
                         "--dim", "2")
    assert code == 0
    lines = (out2 / "embedding.txt").read_text().splitlines()
    assert lines[0] == "6 2"
    assert len(lines) == 7


def format_embedding(Z):
    """The embedding artifact rendered value by value with ``format``."""
    rows = [" ".join(format(x, ".17g") for x in row) for row in Z]
    return "\n".join([f"{Z.shape[0]} {Z.shape[1]}", *rows]) + "\n"


def test_embed_drop_trivial_artifact(tmp_path):
    path = write_input(tmp_path, BARBELL_FILE)
    args = ["embed", "--input", path, "--motif", "triangle", "--dim", "2"]
    g = read_typed_edge_list(path)
    written = []
    for drop in (True, False):
        code, out = run_cli(tmp_path, *args, *(["--drop-trivial"] if drop else []))
        assert code == 0
        written.append((out / "embedding.txt").read_text())
        Z = spectral_embedding(g, parse_signature_spec(g, "triangle"), 2, drop_trivial=drop)
        assert written[-1] == format_embedding(Z)
    assert written[0] != written[1]


def test_embed_writer_renders_signed_zero_inf_nan_and_subnormals(tmp_path, monkeypatch):
    Z = np.array([[-0.0, 0.0, 5e-324, -2.2250738585072009e-308, 0.1],
                  [np.inf, -np.inf, np.nan, 1e300, -1 / 3],
                  [1.0, -1.0, 123456789.0, 1e-5, 2.0 ** 60]])
    monkeypatch.setattr(cli, "spectral_embedding", lambda *args, **kwargs: Z)
    path = write_input(tmp_path, BARBELL_FILE)
    code, out = run_cli(tmp_path, "embed", "--input", path, "--motif", "edge")
    assert code == 0
    written = (out / "embedding.txt").read_text()
    assert written == format_embedding(Z)
    assert written.splitlines()[1].startswith("-0 0 4.9406564584124654e-324 ")


@pytest.mark.parametrize("text, count, expected", [
    (WEDGE_FILE, 3, "a\nb\nc\n"),
    ("# empty\n", 0, ""),
])
def test_order_on_an_absent_graphlet_writes_the_original_order(tmp_path, capsys, text, count,
                                                                 expected):
    path = write_input(tmp_path, text)
    code, out = run_cli(tmp_path, "order", "--input", path, "--motif", "triangle")
    assert code == 0
    captured = capsys.readouterr()
    assert captured.err == "warning: graphlet absent, emitted original order\n"
    assert captured.out == f"ordering: {count} nodes\n"
    # A graph without nodes gives an empty file, not one blank line.
    assert (out / "ordering.txt").read_text() == expected


def test_partition_on_an_absent_motif_writes_an_empty_file(tmp_path, capsys):
    path = write_input(tmp_path, WEDGE_FILE)
    code, out = run_cli(tmp_path, "partition", "--input", path, "--motif", "triangle")
    assert code == 0
    assert capsys.readouterr().out == "partition: 0 of 2 parts (early stop)\n"
    assert (out / "partition.txt").read_bytes() == b""


def test_partition_artifact(tmp_path, capsys):
    path = write_input(tmp_path, BARBELL_FILE)
    code, out = run_cli(tmp_path, "partition", "--input", path,
                        "--motif", "triangle", "--parts", "2")
    assert code == 0
    text = (out / "partition.txt").read_text()
    assert text.count("# part") == 2


def test_rank_motifs_artifact(tmp_path):
    path = write_input(tmp_path, BARBELL_FILE)
    code, out = run_cli(tmp_path, "rank-motifs", "--input", path)
    assert code == 0
    lines = (out / "motif_rank.txt").read_text().splitlines()
    assert lines[0] == "signature lambda2 m beta"
    assert len(lines) > 1


def test_linkpred_artifacts(tmp_path):
    edges = []
    # two dense typed blocks with a few cross edges
    import random
    rng = random.Random(0)
    lines = []
    for i in range(12):
        for j in range(i + 1, 12):
            same = (i < 6) == (j < 6)
            if rng.random() < (0.8 if same else 0.1):
                lines.append(f"v{i} v{j} {'U' if i < 6 else 'M'} {'U' if j < 6 else 'M'}")
    path = write_input(tmp_path, "\n".join(lines) + "\n")
    code, out = run_cli(tmp_path, "linkpred", "--input", path, "--motif", "wedge",
                        "--dim", "3", "--seed", "4", "--trials", "2")
    assert code == 0
    table = (out / "linkpred.txt").read_text()
    assert "seed operator f1 precision recall auc best" in table
    assert "# mean/std over trials" in table
    records = [json.loads(l) for l in (out / "linkpred.jsonl").read_text().splitlines()]
    assert {r["seed"] for r in records} == {4, 5}
    assert all(r["signature"] == "wedge" for r in records)


def test_linkpred_rows_and_records_come_from_one_record_list(tmp_path, monkeypatch):
    def fake_eval(g, sig, dim, *, seed, **kwargs):
        reports = {"mean": MetricsReport(0.5, 0.25, 1.0, None, 0.5),
                   "max": MetricsReport(1.0, 1.0, 1.0, 0.75, 0.5)}
        return LinkPredResult(reports, "max", seed, dim, 4, 2)

    monkeypatch.setattr(cli, "link_prediction_eval", fake_eval)
    path = write_input(tmp_path, BARBELL_FILE)
    code, out = run_cli(tmp_path, "linkpred", "--input", path, "--motif", "edge",
                        "--dim", "2", "--seed", "3")
    assert code == 0
    assert (out / "linkpred.txt").read_text() == (
        "# motif=edge dim=2 fraction=0.5 seed=3 trials=1\n"
        "seed operator f1 precision recall auc best\n"
        "3 mean 0.5 0.25 1 nan -\n"
        "3 max 1 1 1 0.75 *\n"
    )
    assert (out / "linkpred.jsonl").read_text() == (
        '{"auc": null, "best": false, "f1": 0.5, "operator": "mean", "precision": 0.25, '
        '"recall": 1.0, "seed": 3, "signature": "edge"}\n'
        '{"auc": 0.75, "best": true, "f1": 1.0, "operator": "max", "precision": 1.0, '
        '"recall": 1.0, "seed": 3, "signature": "edge"}\n'
    )


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_linkpred_rejects_trials_below_one(tmp_path, capsys, trials):
    path = write_input(tmp_path, BARBELL_FILE)
    code, out = run_cli(tmp_path, "linkpred", "--input", path, "--motif", "wedge",
                        "--trials", trials)
    assert code == 1
    assert "error: trials must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["linkpred", "--motif", "best", "--operator", "bogus"], "unknown edge operator 'bogus'"),
    (["linkpred", "--motif", "best", "--fraction", "1"],
     "fraction must lie strictly between 0 and 1"),
    (["linkpred", "--motif", "best", "--fraction", "0"],
     "fraction must lie strictly between 0 and 1"),
    (["linkpred", "--motif", "best", "--dim", "0"], "embedding dimension must be at least 1"),
    (["embed", "--motif", "best", "--dim", "0"], "embedding dimension must be at least 1"),
    (["partition", "--motif", "best", "--parts", "1"], "target_k must be at least 2"),
])
def test_range_checks_run_before_the_input_is_read(tmp_path, capsys, args, message):
    # The input does not exist: a check that ran after the read would exit 3.
    code, out = run_cli(tmp_path, *args, "--input", str(tmp_path / "nope.txt"))
    assert code == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_compress_eval_artifact(tmp_path):
    path = write_input(tmp_path, BARBELL_FILE)
    code, out = run_cli(tmp_path, "compress-eval", "--input", path,
                        "--motif", "triangle", "--seed", "1")
    assert code == 0
    lines = (out / "compression.txt").read_text().splitlines()
    assert lines[0] == "ordering bytes"
    assert {l.split()[0] for l in lines[1:]} == {"native", "random", "tgs"}


def test_write_ends_every_line_and_writes_nothing_for_no_lines(tmp_path):
    args = argparse.Namespace(output_dir=str(tmp_path / "out"))
    cli._write(args, "two.txt", ["a", "b c"])
    cli._write(args, "none.txt", [])
    assert (tmp_path / "out" / "two.txt").read_bytes() == b"a\nb c\n"
    assert (tmp_path / "out" / "none.txt").read_bytes() == b""

    def failing():
        yield "a"
        raise ValueError("boom")

    # The text is built before the file is opened: a failure leaves no file.
    with pytest.raises(ValueError, match="boom"):
        cli._write(args, "failed.txt", failing())
    assert not (tmp_path / "out" / "failed.txt").exists()


@pytest.mark.parametrize("argv", [
    ["census", "--records"],
    ["cluster", "--motif", "triangle", "--dump-matrix"],
    ["partition", "--motif", "triangle"],
    ["embed", "--motif", "triangle", "--dim", "2"],
    ["order", "--motif", "triangle"],
    ["rank-motifs"],
    ["linkpred", "--motif", "edge", "--dim", "2", "--trials", "2"],
    ["compress-eval", "--motif", "triangle"],
])
def test_every_artifact_is_a_sequence_of_newline_ended_lines(tmp_path, capsys, argv):
    path = write_input(tmp_path, BARBELL_FILE)
    code, out = run_cli(tmp_path, *argv, "--input", path)
    assert code == 0
    for artifact in out.iterdir():
        text = artifact.read_text()
        lines = text.split("\n")
        assert lines[-1] == "", artifact.name
        assert "" not in lines[:-1], artifact.name
    # Every barbell node lies on a triangle, so nothing is uncovered.
    if argv[0] == "cluster":
        assert (out / "uncovered.txt").read_bytes() == b""


def test_repeated_runs_byte_identical(tmp_path, capsys):
    path = write_input(tmp_path, BARBELL_FILE)
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        code = main(["cluster", "--input", path, "--motif", "triangle:U,U,U",
                     "--dump-matrix", "--output-dir", str(out)])
        assert code == 0
        outs.append(out)
    for fname in ("cluster.txt", "summary.txt", "uncovered.txt", "motif_matrix.txt"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def per_component_laplacians(gH, comps):
    """The reference route: one ``build_normalized_laplacian`` per component."""
    return [build_normalized_laplacian(gH, comp) for comp in comps]


@pytest.mark.parametrize("threshold", [spectral.DENSE_SOLVER_THRESHOLD, 5])
def test_one_pass_laplacians_leave_every_command_byte_identical(tmp_path, capsys, monkeypatch,
                                                                 threshold):
    # Each command runs once on the one-pass blocks and once on the
    # per-component builds. Exit code, stdout, stderr and every artifact
    # must be the same bytes, at the real dense threshold and at one patched
    # down so that most components take the Krylov path.
    monkeypatch.setattr(spectral, "DENSE_SOLVER_THRESHOLD", threshold)
    monkeypatch.setattr(spectral.smallest_eigenpairs, "__defaults__", (threshold,))
    one_pass = spectral._laplacians
    for seed, n, blocks, types in ((1, 12, 2, 1), (2, 60, 6, 2), (3, 200, 10, 3)):
        g = block_graph(seed, n, 5, blocks, types)
        path = write_input(tmp_path, graph_to_edge_list_text(g), f"g{seed}.txt")
        low, high = g.node_type_names[0], g.node_type_names[-1]
        runs = [["rank-motifs"], ["partition", "--motif", "triangle", "--parts", "4"],
                ["partition", "--motif", f"wedge:{low},{high},{low}", "--parts", "3"]]
        for motif in ("edge", "triangle", f"triangle:{low},{low},{high}", f"4-path:{low},{high},{high},{low}"):
            runs += [["order", "--motif", motif], ["cluster", "--motif", motif],
                     ["embed", "--motif", motif, "--dim", "3"]]
        for argv in runs:
            seen = []
            for route in (one_pass, per_component_laplacians):
                monkeypatch.setattr(spectral, "_laplacians", route)
                out = tmp_path / "out"
                code = main(argv + ["--input", path, "--output-dir", str(out)])
                captured = capsys.readouterr()
                seen.append((code, captured.out, captured.err,
                             {f.name: f.read_bytes() for f in sorted(out.iterdir())}))
                for f in out.iterdir():
                    f.unlink()
            assert seen[0] == seen[1], (seed, argv)
            assert seen[0][0] == 0, (seed, argv)
