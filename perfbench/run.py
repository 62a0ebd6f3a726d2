#!/usr/bin/env python3
"""Benchmark of the typedgraphlets CLI: one workload, one seed, one run.

Run from the repository root:

    python3 perfbench/run.py --workload untyped-large --seed 0 --seconds 20 --trace 0

Set-up generates the workload's seeded edge-list files, times a cold
interpreter importing the package, and warms the code paths on small
graphs of the same shape; it repeats this ``SETUP_REPS`` times and reports
the median as ``setup_s``. The run then repeats passes over the workload's
job list while another pass fits in ``--seconds`` (at least two passes). Each job
calls ``typedgraphlets.cli.main`` in this process with one BLAS thread, so
parsing the file is part of every job's time. After every pass, outside
the timed region, each job's artifacts are checked (see ``checks.py``).

The times ending in ``_s`` are scaled to a reference host speed by the
host probe (``probe.py``), because the shared host's speed drifts; the raw
wall times are reported as ``pass_wall_s`` and ``setup_wall_s``.

``--trace 1`` alternates traced and untraced passes, starting with a traced
one, and reports the per-layer metrics of ``spans.py`` instead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and the metrics listed in BENCHMARK.json. A full
record with quartiles, sample counts and machine info goes to
``.perfbench/results/``. The exit code is 0 only if every check passed.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import graphgen  # noqa: E402
import spans  # noqa: E402
from probe import HostProbe  # noqa: E402
from workloads import WORKLOADS, Job, Workload  # noqa: E402

DEFAULT_SEED = 0
# Pinned to one thread before numpy loads, so that BLAS threads do not
# compete with each other and with the host for a small machine's cores.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3
MIN_PASSES = 2
# Relative slack for the per-job sum of layer self times against wall time.
ADDITIVITY_TOL = 1e-6

END_TO_END = ("pass_s", "setup_s", "peak_rss_mb")
# Per-layer metrics of the JSON result line: the time metrics here are
# non-zero on every workload; the printed table and the results record also
# carry the ones that are zero where a workload never enters the layer.
PER_LAYER = (
    "graph.self_s",
    "graph.parse_s",
    "graph.components_s",
    "graphlets.self_s",
    "graphlets.enumerate_s",
    "graphlets.enumerate_calls",
    "graphlets.enumerate_repeat_ratio",
    "graphlets.occurrences_enumerated",
    "graphlets.match_s",
    "graphlets.occurrences_matched",
    "graphlets.match_ratio",
    "graphlets.signatures",
    "motifmatrix.self_s",
    "motifmatrix.build_s",
    "motifmatrix.build_calls",
    "motifmatrix.nnz",
    "motifmatrix.laplacian_s",
    "motifmatrix.laplacian_calls",
    "spectral.self_s",
    "spectral.eigensolve_s",
    "spectral.eigensolve_krylov_calls",
    "spectral.eigensolve_dense_calls",
    "spectral.eigenpairs",
    "spectral.failures",
    "evaluation.train_calls",
    "cli.self_s",
    "cli.artifact_bytes",
    "trace.overhead_s",
)


def unit(name: str) -> str:
    for suffix, u in (("_s", "s"), ("_ms", "ms"), ("_mb", "MB"), ("_ratio", "ratio"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return u
    return "count"


# -- helpers -----------------------------------------------------------------
def import_package():
    """Import the package from this checkout's ``src`` or exit non-zero."""
    pkg_dir = os.path.join(SRC, "typedgraphlets")
    if not os.path.isfile(os.path.join(pkg_dir, "__init__.py")):
        raise SystemExit(f"error: package source not found under {SRC}")
    sys.path.insert(0, SRC)
    import typedgraphlets.cli as cli

    if os.path.dirname(os.path.abspath(cli.__file__)) != pkg_dir:
        raise SystemExit(f"error: imported typedgraphlets from {cli.__file__}, not {pkg_dir}")
    return cli


def time_cold_import() -> float:
    """Wall time of a fresh interpreter importing the CLI module."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import typedgraphlets.cli"],
                   env=env, cwd=ROOT, check=True, capture_output=True, timeout=120)
    return time.perf_counter() - t0


def write_graphs(workload: Workload, specs: dict, seed: int, directory: str) -> dict:
    """Generate and write each graph; returns key -> (path, node count)."""
    os.makedirs(directory, exist_ok=True)
    out = {}
    for key, spec in specs.items():
        text = graphgen.generate(spec, f"{workload.name}:{key}:{seed}").to_text()
        path = os.path.join(directory, f"{key}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out[key] = (path, spec.n)
    return out


def run_job(cli, job: Job, index: int, seed: int, graphs: dict, outdir: str,
            tracer=None, probe: HostProbe | None = None) -> tuple[float, float, str | None]:
    """Run one job in-process; returns (wall s, scaled s, error or None).

    With a probe, the wall time leaves out the probe's own time and the
    scaled time is at reference speed; without one, both are the wall time.
    """
    argv = job.argv(index, seed, graphs[job.graph][0], outdir)
    sink = io.StringIO()
    gc.collect()
    error = None
    scope = tracer.root(job.id) if tracer is not None else contextlib.nullcontext()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = probe.mark() if probe is not None else 0
        t0 = time.perf_counter()
        try:
            with scope:
                code = cli.main(argv)
        except Exception as exc:  # a crash is a failed job, not a failed run
            code, error = None, f"{job.id}: raised {exc!r}"
        wall = time.perf_counter() - t0
        end = probe.mark() if probe is not None else 0
    if error is None and code != 0:
        error = f"{job.id}: exit code {code}: {sink.getvalue().strip()[-300:]}"
    wall, scaled = probe.scale(wall, start, end) if probe is not None else (wall, wall)
    return wall, scaled, error


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def machine_info() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "git_sha": git_sha(),
    }


def git_sha() -> str:
    """HEAD commit read from ``.git`` files, or 'unknown' outside a repo."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- the run -----------------------------------------------------------------
class Run:
    """State of one benchmark run: inputs, passes, check results."""

    def __init__(self, cli, workload: Workload, seed: int, workdir: str, reference):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.reference = reference
        self.graphs: dict = {}
        self.setup_times: list[float] = []
        self.setup_walls: list[float] = []
        self.cold_imports: list[float] = []
        self.first_digests: dict[str, dict[str, str]] = {}
        self.first_artifacts: dict[str, dict[str, bytes]] = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.passes: list[dict] = []

    def setup(self, probe: HostProbe) -> None:
        """Repeat set-up; keep the first repetition's files as the inputs."""
        texts = None
        for rep in range(SETUP_REPS):
            start = probe.mark()
            t0 = time.perf_counter()
            self.cold_imports.append(time_cold_import())
            rep_dir = os.path.join(self.workdir, f"setup-{rep}")
            graphs = write_graphs(self.workload, self.workload.graphs, self.seed, rep_dir)
            warm = write_graphs(self.workload, self.workload.warmup_graphs(), self.seed,
                                os.path.join(rep_dir, "warmup"))
            for i, job in enumerate(self.workload.jobs):
                run_job(self.cli, job, i, self.seed, warm, os.path.join(rep_dir, "warm-out", job.id))
            wall, scaled = probe.scale(time.perf_counter() - t0, start, probe.mark())
            self.setup_walls.append(wall)
            self.setup_times.append(scaled)
            got = {}
            for key, (path, _n) in graphs.items():
                with open(path, "rb") as fh:
                    got[key] = fh.read()
            if texts is None:
                texts, self.graphs = got, graphs
            elif got != texts:
                self.failures.append("generator: same seed wrote different files")

    def run_pass(self, probe: HostProbe, traced: bool) -> None:
        """One pass over the job list: traced, or untraced with the probe on.

        The probe stays off in traced passes so that its handler does not
        land in the spans' self times.
        """
        pass_dir = os.path.join(self.workdir, f"pass-{len(self.passes)}")
        tracer = spans.Tracer() if traced else None
        walls: dict[str, float] = {}
        scaled: dict[str, float] = {}
        errors: dict[str, list[str]] = {}
        with tracer if tracer is not None else probe:
            for i, job in enumerate(self.workload.jobs):
                walls[job.id], scaled[job.id], error = run_job(
                    self.cli, job, i, self.seed, self.graphs, os.path.join(pass_dir, job.id),
                    tracer, None if traced else probe)
                errors[job.id] = [error] if error else []
        artifact_bytes = self.check_pass(pass_dir, errors)
        shutil.rmtree(pass_dir, ignore_errors=True)
        record = {"traced": traced, "walls": walls, "scaled": scaled,
                  "pass_wall_s": sum(walls.values()), "pass_s": sum(scaled.values())}
        if tracer is not None:
            layer = spans.layer_metrics(tracer.spans, walls)
            layer["cli.artifact_bytes"] = float(artifact_bytes)
            for err in spans.consistency_errors(tracer.spans, walls, ADDITIVITY_TOL):
                errors.setdefault("trace", []).append(f"trace: {err}")
            group_sum = sum(layer[f"{g}_s"] for g in spans.GROUPS) + layer["cli.self_s"]
            pass_wall = record["pass_wall_s"]
            if abs(group_sum - pass_wall) > ADDITIVITY_TOL * pass_wall:
                errors.setdefault("trace", []).append(
                    f"trace: layer metrics sum to {group_sum:.6f} s, pass {pass_wall:.6f} s"
                )
            record["layers"] = layer
        for job_errors in errors.values():
            self.failures.extend(job_errors)
        self.attempted += len(self.workload.jobs)
        self.failed += sum(1 for job in self.workload.jobs if errors[job.id])
        self.passes.append(record)

    def check_pass(self, pass_dir: str, errors: dict[str, list[str]]) -> int:
        """Check every job's artifacts; returns their total size in bytes."""
        total = 0
        first = not self.first_digests
        for job in self.workload.jobs:
            arts, missing = checks.read_artifacts(job, os.path.join(pass_dir, job.id))
            total += sum(len(b) for b in arts.values())
            errors[job.id].extend(missing)
            if first:
                ref = self.reference if self.seed == DEFAULT_SEED else None
                node_count = self.graphs[job.graph][1]
                errors[job.id].extend(checks.check_first_pass(job, arts, node_count, ref))
                self.first_digests[job.id] = {k: checks.digest(v) for k, v in arts.items()}
                self.first_artifacts[job.id] = arts
            else:
                errors[job.id].extend(checks.check_repeat(job, arts, self.first_digests[job.id]))
        return total


def summarize(run: Run, probe: HostProbe, trace: bool) -> tuple[dict, dict]:
    """(end-to-end, per-layer) metric summaries of a finished run."""
    plain = [p for p in run.passes if not p["traced"]]
    e2e = {
        "setup_s": quartiles(run.setup_times),
        "pass_s": quartiles([p["pass_s"] for p in plain]),
    }
    for command in dict.fromkeys(j.command for j in run.workload.jobs):
        ids = [j.id for j in run.workload.jobs if j.command == command]
        e2e[command.replace("-", "_") + "_s"] = quartiles(
            [sum(p["scaled"][i] for i in ids) for p in plain])
    e2e["setup_wall_s"] = quartiles(run.setup_walls)
    e2e["pass_wall_s"] = quartiles([p["pass_wall_s"] for p in plain])
    e2e["host_probe_ms"] = quartiles([1e3 * probe.loop_median()])
    e2e["peak_rss_mb"] = quartiles([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0])
    e2e["jobs_failed_ratio"] = quartiles([run.failed / run.attempted])
    layer: dict = {}
    if trace:
        traced = [p for p in run.passes if p["traced"]]
        for name in traced[0]["layers"]:
            values = [p["layers"][name] for p in traced]
            # ru_maxrss only rises, so only the first traced pass sees a rise.
            layer[name] = quartiles(values[:1] if name.endswith("rss_raise_mb") else values)
        overhead = (statistics.median(p["pass_wall_s"] for p in traced)
                    - statistics.median(p["pass_wall_s"] for p in plain))
        layer["trace.overhead_s"] = quartiles([overhead])
    return e2e, layer


def print_table(title: str, metrics: dict) -> None:
    print(f"# {title}")
    print(f"{'metric':40s} {'unit':6s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'n':>3s}")
    for name, q in metrics.items():
        print(f"{name:40s} {unit(name):6s} {q['median']:14.6g} {q['q1']:14.6g} "
              f"{q['q3']:14.6g} {q['n']:3d}")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="store this run's first-pass artifacts as the reference "
                        f"for the default seed {DEFAULT_SEED}")
    return p.parse_args(argv)


def load_reference(workload: str) -> dict:
    """Reference entries per job; empty (so every job fails) if none exist."""
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            return json.load(fh).get(workload, {})
    except FileNotFoundError:
        return {}


def write_reference(run: Run) -> None:
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        data = {}
    data[run.workload.name] = {
        jid: checks.reference_entry(arts) for jid, arts in run.first_artifacts.items()
    }
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_reference and args.seed != DEFAULT_SEED:
        raise SystemExit(f"error: the reference is for seed {DEFAULT_SEED}")
    for var in BLAS_ENV:
        os.environ[var] = "1"
    cli = import_package()
    workload = WORKLOADS[args.workload]
    reference = None if args.write_reference else load_reference(workload.name)
    workdir = os.path.join(STATE, f"work-{os.getpid()}")
    run = Run(cli, workload, args.seed, workdir, reference)
    probe = HostProbe()
    try:
        with probe:
            run.setup(probe)
        # Start another pass only if one more like the last fits in --seconds.
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            run.run_pass(probe, traced=bool(args.trace) and len(run.passes) % 2 == 0)
            now = time.perf_counter()
            if len(run.passes) >= MIN_PASSES and now - start + (now - t0) > args.seconds:
                break
        if args.write_reference:
            write_reference(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e, layer = summarize(run, probe, bool(args.trace))
    correct = not run.failures and run.failed == 0
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(),
        "cold_import_s": run.cold_imports,
        "end_to_end": e2e,
        "per_layer": layer,
        "passes": run.passes,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
    }
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    result_path = os.path.join(
        STATE, "results", f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)

    for msg in run.failures:
        print(f"CHECK FAILED {msg}", file=sys.stderr)
    print(f"# workload {workload.name} seed {args.seed}: {len(run.passes)} passes, "
          f"{run.attempted} jobs, {run.failed} failed; record in {os.path.relpath(result_path, ROOT)}")
    print_table("end-to-end", e2e)
    if args.trace:
        print_table("per-layer (traced passes)", layer)
    chosen = layer if args.trace else e2e
    names = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": chosen[name]["median"], "unit": unit(name)}
                    for name in names},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
