"""Output checks for one job's artifacts.

Three kinds of check, all outside the timed region:

* invariants that hold on any seed (the ordering is a permutation of the
  nodes, the cluster is a non-empty subset of the covered nodes, embedding
  rows have unit norm or are zero, AUC lies in [0, 1], ...);
* byte identity of every artifact with the run's first pass, which is the
  determinism property the acceptance tests ask of repeated CLI runs;
* on the default seed, agreement with ``reference.json``: digests of the
  discrete artifacts and floating values within ``FLOAT_TOL``.

Every check returns a list of failure messages; an empty list means pass.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

from workloads import ARTIFACTS, Job

# Absolute plus relative tolerance for floating artifacts against the
# reference. Same code, same inputs and one BLAS thread give identical bits;
# the slack only absorbs last-digit differences in summation order.
FLOAT_TOL = 1e-6

DISCRETE = ("census.txt", "cluster.txt", "uncovered.txt", "ordering.txt",
            "partition.txt", "compression.txt")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def read_artifacts(job: Job, outdir: str) -> tuple[dict[str, bytes], list[str]]:
    """Bytes of every artifact the job's command must write."""
    found: dict[str, bytes] = {}
    missing = []
    for name in ARTIFACTS[job.command]:
        path = os.path.join(outdir, name)
        try:
            with open(path, "rb") as fh:
                found[name] = fh.read()
        except FileNotFoundError:
            missing.append(f"{job.id}: missing artifact {name}")
    return found, missing


def _lines(data: bytes) -> list[str]:
    return data.decode("utf-8").splitlines()


def _close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b) or math.isnan(a) or math.isnan(b):
        return a == b or (math.isnan(a) and math.isnan(b))
    return abs(a - b) <= FLOAT_TOL * (1.0 + abs(b))


def _summary_fields(data: bytes) -> dict[str, int | float]:
    fields = {}
    for tok in data.decode("utf-8").split():
        key, value = tok.split("=", 1)
        fields[key] = int(value) if key in ("component", "k") else float(value)
    return fields


def _embedding_rows(data: bytes) -> tuple[tuple[int, int], list[list[float]]]:
    lines = _lines(data)
    n, dim = (int(x) for x in lines[0].split())
    return (n, dim), [[float(x) for x in line.split()] for line in lines[1:]]


def _linkpred_records(data: bytes) -> list[dict]:
    return [json.loads(line) for line in _lines(data)]


def invariants(job: Job, arts: dict[str, bytes], node_count: int) -> list[str]:
    """Checks that hold for every seed."""
    fail = []
    names = {f"n{v}" for v in range(node_count)}

    def bad(msg: str) -> None:
        fail.append(f"{job.id}: {msg}")

    if "ordering.txt" in arts:
        order = _lines(arts["ordering.txt"])
        if len(order) != node_count or set(order) != names:
            bad("ordering is not a permutation of all node names")
    if "cluster.txt" in arts:
        members = _lines(arts["cluster.txt"])
        uncovered = set(_lines(arts.get("uncovered.txt", b"")))
        if not members or len(set(members)) != len(members):
            bad("cluster is empty or repeats a node")
        elif not set(members) <= names - uncovered:
            bad("cluster is not a subset of the covered nodes")
        if not uncovered <= names:
            bad("uncovered lists an unknown node")
    if "summary.txt" in arts:
        fields = _summary_fields(arts["summary.txt"])
        if set(fields) != {"component", "k", "phi_weighted", "alpha_typed", "lambda2", "beta"}:
            bad("summary fields differ from the documented set")
    if "embedding.txt" in arts:
        (n, dim), rows = _embedding_rows(arts["embedding.txt"])
        if n != node_count or len(rows) != n or any(len(r) != dim for r in rows):
            bad("embedding shape differs from its header or the node count")
        for r in rows:
            norm = math.sqrt(sum(x * x for x in r))
            if norm != 0.0 and abs(norm - 1.0) > 1e-9:
                bad("embedding row neither unit-norm nor zero")
                break
    if "linkpred.jsonl" in arts:
        records = _linkpred_records(arts["linkpred.jsonl"])
        if not records:
            bad("linkpred wrote no records")
        for rec in records:
            if rec["auc"] is None or not 0.0 <= rec["auc"] <= 1.0:
                bad(f"AUC {rec['auc']} outside [0, 1]")
                break
            if not all(0.0 <= rec[k] <= 1.0 for k in ("f1", "precision", "recall")):
                bad("f1, precision or recall outside [0, 1]")
                break
    if "census.txt" in arts:
        rows = [line.split() for line in _lines(arts["census.txt"])]
        if not rows or any(len(r) != 3 or int(r[2]) < 1 for r in rows):
            bad("census rows malformed or with a count below 1")
    if "motif_rank.txt" in arts:
        rows = _lines(arts["motif_rank.txt"])
        betas = [float(r.split()[3]) for r in rows[1:]]
        if rows[:1] != ["signature lambda2 m beta"] or not betas:
            bad("motif ranking has no header or no rows")
        elif any(a > b for a, b in zip(betas, betas[1:])):
            bad("motif ranking is not ascending in beta")
    if "partition.txt" in arts:
        seen: set[str] = set()
        size = declared = 0
        for line in _lines(arts["partition.txt"]):
            if line.startswith("#"):
                declared += int(line.split()[-1])
            elif line in seen or line not in names:
                bad("partition repeats a node or lists an unknown one")
                break
            else:
                seen.add(line)
                size += 1
        if size != declared or size == 0:
            bad("partition part sizes disagree with their headers")
    if "compression.txt" in arts:
        rows = [line.split() for line in _lines(arts["compression.txt"])]
        if [r[0] for r in rows] != ["ordering", "native", "random", "tgs"] or any(
            int(r[1]) <= 0 for r in rows[1:]
        ):
            bad("compression table malformed")
    return fail


def reference_entry(arts: dict[str, bytes]) -> dict:
    """What ``reference.json`` stores for one job's artifacts."""
    entry: dict = {}
    for name in DISCRETE:
        if name in arts:
            entry[name] = digest(arts[name])
    if "motif_rank.txt" in arts:
        rows = [r.split() for r in _lines(arts["motif_rank.txt"])[1:]]
        entry["motif_rank.order"] = digest("\n".join(r[0] for r in rows).encode())
    if "summary.txt" in arts:
        entry["summary.txt"] = _summary_fields(arts["summary.txt"])
    if "embedding.txt" in arts:
        (n, dim), rows = _embedding_rows(arts["embedding.txt"])
        # Column sums and a position-weighted projection pin every column
        # without storing the whole matrix.
        entry["embedding.txt"] = {
            "shape": [n, dim],
            "colsum": [sum(r[j] for r in rows) for j in range(dim)],
            "colproj": [sum(((i % 7) - 3) * r[j] for i, r in enumerate(rows))
                        for j in range(dim)],
        }
    if "linkpred.jsonl" in arts:
        entry["linkpred.jsonl"] = _linkpred_records(arts["linkpred.jsonl"])
    return entry


def _compare(path: str, want, got) -> list[str]:
    """Recursive equality: floats within FLOAT_TOL, everything else exact."""
    if isinstance(want, float) or isinstance(got, float):
        if isinstance(want, (int, float)) and isinstance(got, (int, float)) and _close(got, want):
            return []
        return [f"{path}: {got!r} != reference {want!r}"]
    if isinstance(want, dict) and isinstance(got, dict):
        if set(want) != set(got):
            return [f"{path}: keys {sorted(got)} != reference {sorted(want)}"]
        return [m for k in want for m in _compare(f"{path}.{k}", want[k], got[k])]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{path}: length {len(got)} != reference {len(want)}"]
        return [m for i, (a, b) in enumerate(zip(want, got)) for m in _compare(f"{path}[{i}]", a, b)]
    return [] if want == got else [f"{path}: {got!r} != reference {want!r}"]


def against_reference(job: Job, arts: dict[str, bytes], want: dict) -> list[str]:
    return _compare(job.id, want, reference_entry(arts))


def check_first_pass(job: Job, arts: dict[str, bytes], node_count: int,
                     reference: dict | None) -> list[str]:
    """Invariants, plus the reference comparison when one applies."""
    fail = invariants(job, arts, node_count)
    if reference is not None:
        if job.id not in reference:
            fail.append(f"{job.id}: no reference entry")
        else:
            fail.extend(against_reference(job, arts, reference[job.id]))
    return fail


def check_repeat(job: Job, arts: dict[str, bytes], first: dict[str, str]) -> list[str]:
    """Every artifact byte-identical to the run's first pass."""
    return [
        f"{job.id}: {name} differs from the first pass"
        for name, data in arts.items()
        if first.get(name) != digest(data)
    ]
