import json
import os

import pytest

from typedgraphlets import parse_signature_spec, read_typed_edge_list, spectral_embedding
from typedgraphlets.cli import main

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


def test_embed_drop_trivial_artifact(tmp_path):
    path = write_input(tmp_path, BARBELL_FILE)
    args = ["embed", "--input", path, "--motif", "triangle", "--dim", "2"]
    code, out = run_cli(tmp_path, *args, "--drop-trivial")
    assert code == 0
    dropped = (out / "embedding.txt").read_text()
    g = read_typed_edge_list(path)
    Z = spectral_embedding(g, parse_signature_spec(g, "triangle"), 2, drop_trivial=True)
    assert dropped.splitlines() == ["6 2"] + [" ".join(format(x, ".17g") for x in row)
                                              for row in Z]
    code, out = run_cli(tmp_path, *args)
    assert code == 0
    assert (out / "embedding.txt").read_text() != dropped


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
