"""Self-tests of the benchmark harness: generator, output checks, tracer, names."""

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from graphgen import GraphSpec, generate  # noqa: E402
from workloads import WORKLOADS, Job  # noqa: E402

from typedgraphlets import load_typed_edge_list  # noqa: E402
from typedgraphlets.cli import main as cli_main  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("spec", [GraphSpec(300, 6, 10, 3), GraphSpec(1500, 8, 30, 2)])
def test_generator_is_deterministic_and_exact(spec):
    a, b = generate(spec, "s:1"), generate(spec, "s:1")
    assert a.to_text() == b.to_text()
    assert generate(spec, "s:2").to_text() != a.to_text()
    assert len(a.node_types) == spec.n
    assert len(a.edges) == spec.m
    assert set(a.node_types) == set(range(spec.node_types))
    assert all(u < v for u, v in a.edges)  # no self-loops, one orientation
    assert len(set(a.edges)) == len(a.edges)
    assert a.edges == sorted(a.edges)


def test_generator_keeps_the_in_block_share():
    spec = GraphSpec(2000, 8, 20, 2, in_share=0.9)
    g = generate(spec, "share")
    inside = sum(g.blocks[u] == g.blocks[v] for u, v in g.edges) / len(g.edges)
    assert 0.87 < inside < 0.93


def test_generated_file_loads_through_the_parser():
    spec = GraphSpec(300, 6, 10, 3)
    g = load_typed_edge_list(generate(spec, "load").to_text())
    assert g.node_count == spec.n
    assert g.edge_count == spec.m
    assert g.node_type_count == spec.node_types
    assert g.edge_type_count == 1
    assert g.collapsed_duplicates == 0
    assert g.node_names[:3] == ("n0", "n1", "n2")


def test_metric_names_are_well_formed_and_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    e2e = [m["name"] for m in bench["end_to_end"]]
    layer = [m["name"] for m in bench["per_layer"]]
    assert e2e == list(run.END_TO_END)
    assert layer == list(run.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert m["unit"] == run.unit(m["name"])
    emitted = set(spans.layer_metrics([], {})) | {"trace.overhead_s", "cli.artifact_bytes"}
    assert set(layer) <= emitted
    commands = {j.command.replace("-", "_") + "_s" for w in WORKLOADS.values() for j in w.jobs}
    for name in set(e2e) | set(layer) | emitted | commands | set(WORKLOADS):
        assert NAME.fullmatch(name), name


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """Artifacts of cluster, order, embed and linkpred on a small graph."""
    base = tmp_path_factory.mktemp("small")
    path = base / "g.txt"
    path.write_text(generate(GraphSpec(120, 6, 4, 2), "small").to_text())
    jobs = [
        Job("cluster-edge", "cluster", "g", ("--motif", "edge")),
        Job("order-wedge", "order", "g", ("--motif", "wedge")),
        Job("embed-edge", "embed", "g", ("--motif", "edge", "--dim", "4")),
        Job("linkpred-edge", "linkpred", "g", ("--motif", "edge", "--dim", "4")),
    ]
    arts = {}
    for i, job in enumerate(jobs):
        out = base / job.id
        assert cli_main(job.argv(i, 0, str(path), str(out))) == 0
        arts[job.id], missing = checks.read_artifacts(job, str(out))
        assert not missing
    return {j.id: j for j in jobs}, arts


def _corrupt_ordering(a):
    a["ordering.txt"] = b"\n".join(a["ordering.txt"].splitlines()[1:]) + b"\n"


def _corrupt_cluster(a):
    a["cluster.txt"] = a["cluster.txt"] + b"n99999\n"


def _corrupt_embedding(a):
    lines = a["embedding.txt"].splitlines()
    row = [float(x) for x in lines[1].split()]
    lines[1] = " ".join(repr(2.0 * x) for x in row).encode()
    a["embedding.txt"] = b"\n".join(lines) + b"\n"


def _corrupt_auc(a):
    recs = [json.loads(line) for line in a["linkpred.jsonl"].splitlines()]
    recs[0]["auc"] = 1.5
    a["linkpred.jsonl"] = "".join(json.dumps(r) + "\n" for r in recs).encode()


@pytest.mark.parametrize("job_id, corrupt", [
    ("order-wedge", _corrupt_ordering),
    ("cluster-edge", _corrupt_cluster),
    ("embed-edge", _corrupt_embedding),
    ("linkpred-edge", _corrupt_auc),
])
def test_corrupted_artifact_is_caught(small_run, job_id, corrupt):
    jobs, arts = small_run
    job, clean = jobs[job_id], arts[job_id]
    reference = {job_id: checks.reference_entry(clean)}
    assert checks.check_first_pass(job, clean, 120, reference) == []
    bad = dict(clean)
    corrupt(bad)
    assert checks.invariants(job, bad, 120)
    assert checks.against_reference(job, bad, reference[job_id])
    first = {k: checks.digest(v) for k, v in clean.items()}
    assert checks.check_repeat(job, clean, first) == []
    assert checks.check_repeat(job, bad, first)


def test_reference_tolerates_last_digit_noise_only(small_run):
    jobs, arts = small_run
    job, clean = jobs["linkpred-edge"], arts["linkpred-edge"]
    want = checks.reference_entry(clean)
    recs = [json.loads(line) for line in clean["linkpred.jsonl"].splitlines()]
    for delta, ok in ((1e-12, True), (1e-3, False)):
        moved = [dict(r, f1=r["f1"] + delta) for r in recs]
        bad = dict(clean, **{"linkpred.jsonl": "".join(json.dumps(r) + "\n" for r in moved).encode()})
        assert (checks.against_reference(job, bad, want) == []) is ok


def test_tracer_partitions_each_job_and_restores_the_package(tmp_path):
    import typedgraphlets.cli as cli
    import typedgraphlets.spectral as spectral

    original = spectral.build_motif_matrix
    path = tmp_path / "g.txt"
    path.write_text(generate(GraphSpec(100, 6, 4, 2), "trace").to_text())
    walls = {}
    with spans.Tracer() as tracer:
        assert spectral.build_motif_matrix is not original
        for i, job in enumerate([Job("cluster-wedge", "cluster", "g", ("--motif", "wedge")),
                                 Job("census", "census", "g")]):
            wall, scaled, error = run.run_job(cli, job, i, 0, {"g": (str(path), 100)},
                                      str(tmp_path / job.id), tracer)
            assert error is None
            assert scaled == wall  # no probe, no scaling
            walls[job.id] = wall
    assert spectral.build_motif_matrix is original
    assert spans.consistency_errors(tracer.spans, walls, 1e-6) == []
    m = spans.layer_metrics(tracer.spans, walls)
    total = sum(m[f"{g}_s"] for g in spans.GROUPS) + m["cli.self_s"]
    assert total == pytest.approx(sum(walls.values()), rel=1e-9)
    assert m["graphlets.signatures"] > 0
    assert m["motifmatrix.build_calls"] >= 1
    assert m["graphlets.match_ratio"] == 1.0  # untyped wedge matches every occurrence


def test_probe_scales_to_reference_speed_and_leaves_out_its_own_time():
    p = probe.HostProbe()
    p.samples = [(0.5, 0.6)] * 3 + [(2 * probe.REFERENCE_S, 0.01)] * 10
    own, scaled = p.scale(1.0, 3, 13)
    assert own == pytest.approx(0.9)
    assert scaled == pytest.approx(0.45)  # the host ran at half the reference speed
    # Too few samples of its own: the region borrows the ones just before it.
    assert p.scale(1.0, 13, 13)[1] == pytest.approx(0.5)
    with pytest.raises(RuntimeError):
        probe.HostProbe().scale(1.0, 0, 0)


def test_probe_samples_while_entered_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with probe.HostProbe() as p:
        deadline = time.perf_counter() + 10 * probe.PERIOD_S
        while time.perf_counter() < deadline:
            pass
    assert len(p.samples) >= 3
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
