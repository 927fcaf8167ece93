"""Pipeline benchmark: one workload, one seed, every metric by name and unit.

    python3 bench/run.py --workload desk-train --seed 0 --seconds 36 --trace 0

Each run is a fresh ``python3 bench/child.py`` process with BLAS and OpenMP
pinned to one thread, writing into its own directory under ``.bench_work/``.
Within ``--seconds`` the workload runs untraced as often as another run is
predicted to fit (at least once); run ``i`` uses manifest seed
``seed * 1000 + i``, so a median over runs also averages over inputs.
Set-up is probed in separate processes too.  Every run's outputs are
checked, and a manifest seed must leave byte-identical artifacts every time it
runs on one source tree, across invocations as well.  With ``--trace 1`` the
first run's input is run once more with every layer wrapped (``tracer.py``)
and the per-layer metrics come from its spans; ``trace_overhead_s`` is its
run time minus the untraced ``run_s``.

The last stdout line is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
``attempted`` counts stage executions and output checks, ``failed`` the ones
that failed.  The line before it records the environment and manifests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SRC = ROOT / "src"

SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def rep_seed(seed: int, rep: int) -> int:
    """Manifest seed of run ``rep`` of an invocation with ``--seed seed``."""
    return seed * 1000 + rep


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "lineagekg").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    """HEAD of the enclosing git checkout, or "unknown" outside one."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unknown"
    ref = (git / "HEAD").read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text(encoding="utf-8").strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return "unknown"


def spawn(workload: str, seed: int, out_dir: Path, mode: str) -> dict:
    """Run one child process; returns its result record plus wall time and
    set-up time, or ``{"error": ...}``."""
    result_path = out_dir.with_suffix(".json")
    start = clock()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), workload, str(seed),
             str(out_dir), str(result_path), mode],
            env=dict(os.environ, **BLAS_ENV), cwd=ROOT, capture_output=True,
            text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} run of seed {seed} timed out after {CHILD_TIMEOUT_S} s"}
    wall = clock() - start
    if proc.returncode != 0 or not result_path.is_file():
        return {"error": f"{mode} run of seed {seed} exited {proc.returncode}:"
                         f" {proc.stderr[-2000:]}"}
    record = json.loads(result_path.read_text(encoding="utf-8"))
    record.update(seed=seed, setup_s=record["ready"] - start, wall_s=wall)
    return record


class Session:
    """Runs of one invocation: stage executions and output checks attempted
    and failed, and the artifact digest of each manifest seed."""

    def __init__(self, workload, run_dir: Path):
        self.workload = workload
        self.run_dir = run_dir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[int, list[str]] = {}

    def tally(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def manifest(self, seed: int, out_dir: Path):
        from lineagekg.cli import RunManifest

        return RunManifest(**self.workload.manifest_fields(seed, str(out_dir)))

    def run(self, seed: int, mode: str, name: str):
        """One checked run; returns (record, out_dir), or None if the run or
        a stage failed."""
        from checks import check_run, digest

        out_dir = self.run_dir / name
        record = spawn(self.workload.name, seed, out_dir, mode)
        if "error" in record:
            self.tally(False, record["error"])
            return None
        stages = [line for line in record["log"] if line.startswith("[run ]")]
        for line in stages[:-1] if record["status"] else stages:
            self.tally(True, line)
        if record["status"]:
            self.tally(False, f"seed {seed}: pipeline status {record['status']}:"
                              f" {record['log'][-1:]}")
            return None
        for check in check_run(self.workload, self.manifest(seed, out_dir), out_dir):
            self.tally(check.ok, f"seed {seed}: {check.name}: {check.detail}")
        self.digests.setdefault(seed, []).append(digest(out_dir))
        return record, out_dir

    def check_digests(self, source: str) -> None:
        """Every run of a manifest seed, in this invocation and in earlier
        ones on the same source tree, must leave identical artifacts."""
        from checks import digests_agree

        cache_path = WORK / "digests.json"
        cache = (json.loads(cache_path.read_text(encoding="utf-8"))
                 if cache_path.is_file() else {})
        for seed, digests in self.digests.items():
            key = f"{self.workload.name}:{seed}:{source}"
            earlier = [cache[key]] if key in cache else []
            check = digests_agree(earlier + digests)
            self.tally(check.ok, f"seed {seed}: {check.name}: {check.detail}")
            if check.ok:
                cache[key] = digests[0]
        cache_path.write_text(json.dumps(cache, indent=1, sort_keys=True),
                              encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lineagekg" / "__init__.py").is_file():
        print(f"error: no lineagekg package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from report import end_to_end, environment, layer_metrics, load_spec, render
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r};"
              f" choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    spec = load_spec(ROOT / "BENCHMARK.json")
    run_dir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    session = Session(workload, run_dir)
    first_seed = rep_seed(args.seed, 0)
    try:
        setups = []
        for i in range(SETUP_PROBES):
            probe = spawn(workload.name, first_seed, run_dir / f"setup{i}", "setup")
            if "error" in probe:
                session.tally(False, probe["error"])
            else:
                setups.append(probe["setup_s"])

        plain: list[dict] = []
        started = clock()
        while not plain or clock() - started + plain[-1]["wall_s"] <= args.seconds:
            done = session.run(rep_seed(args.seed, len(plain)), "plain",
                               f"plain{len(plain)}")
            if done is None:
                break
            shutil.rmtree(done[1])
            plain.append(done[0])
        setups += [r["setup_s"] for r in plain]

        traced = None
        if args.trace and plain:
            traced = session.run(first_seed, "trace", "trace")
        source = source_digest()
        session.check_digests(source)

        metrics: dict = {}
        if plain:
            metrics = end_to_end(plain, setups)
            if traced is not None:
                from tracer import load_spans

                record, out_dir = traced
                metrics = layer_metrics(
                    load_spans(out_dir.with_suffix(".spans.json")), record,
                    metrics["run_s"], workload,
                    session.manifest(first_seed, out_dir), out_dir)
        print("environment: " + json.dumps(environment(
            args, workload, plain, git_commit(), source), sort_keys=True))
        for problem in session.problems:
            print(f"FAILED {problem}", file=sys.stderr)
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        if any(m["name"] not in metrics for m in wanted):
            print("error: no run completed, so no result", file=sys.stderr)
            return 1
        print(json.dumps(render(session, metrics, wanted)))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
